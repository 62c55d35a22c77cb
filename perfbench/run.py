"""rootcert benchmark: drives ``rootcert.cli.main`` in-process and checks every call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One single-threaded closed-loop client: each CLI call starts only after the
previous one has returned.  Every call gets ``--seed N``; the operators and
case lists are fixed (``workloads.py``).  Each call is checked against the
verdict reference (``reference.json``), the certifier's invariants and an
independent re-check of its witness (``checks.py``).

``--trace 0`` measures the end-to-end metrics with tracing off: the
workload's case list runs ``passes`` times, and no further pass starts once
``--seconds`` have elapsed.  ``--trace 1`` alternates untraced and traced
passes, each case called once per pass, until ``--seconds`` are used and
reports per-layer self times and counts per traced pass, plus the tracing
overhead (``tracer.py``).  All passes run under the speed probe
(``speed.py``): the oracle's trials per second and the pass times behind
the overhead are at nominal machine speed, while self times are as
measured, less the probe's own time.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from speed import SpeedProbe
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_REPEATS = 5
TAIL_BEYOND = 10
MIN_CASE_S = 0.1
MAX_REPEATS = 5

COUNTED = {
    "poly.roots_batch": ("rows", "roots"),
    "domains.sample": ("points",),
    "symbols.nonvanishing_check": ("w_samples", "zero_slices",
                                   "rejected_candidates"),
}


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json asks a run to report."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def load_program():
    """The checkout's own rootcert CLI module; exits non-zero when it is absent."""
    if not (SRC / "rootcert" / "__init__.py").is_file():
        sys.exit(f"error: no rootcert sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rootcert
    from rootcert import cli
    if Path(rootcert.__file__).resolve().parent != SRC / "rootcert":
        sys.exit(f"error: imported rootcert from {rootcert.__file__}, not {SRC}")
    return cli


@dataclass
class Call:
    case: object
    seconds: float
    started: float
    exit_code: int | None
    doc: dict | None
    errors: list[str]

    @property
    def kind(self) -> str:
        verdict = (self.doc or {}).get("verdict")
        if verdict == "falsified":
            return "refute"
        return "pass" if verdict in checks.PASS_VERDICTS else "other"


class Client:
    """Closed-loop client over one workload; owns the operator files and reference."""

    def __init__(self, cli, workload, ops, images, reference, seed):
        self.cli = cli
        self.workload = workload
        self.ops = ops
        self.images = images
        self.reference = reference
        self.seed = seed
        self.calls_made = 0
        self.probe: SpeedProbe | None = None

    def call(self, case, tracer: Tracer | None = None) -> Call:
        argv = case.argv(self.ops, self.seed)
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.request_id = self.calls_made
        self.calls_made += 1
        probed = self.probe.spent if self.probe else 0.0
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except Exception:  # the client keeps going; a crash is a failed call
            code = None
            traceback_text = traceback.format_exc(limit=-1).strip()
        else:
            traceback_text = None
        elapsed = time.perf_counter() - t0
        if self.probe:
            elapsed -= self.probe.spent - probed
        if traceback_text is not None:
            return Call(case, elapsed, t0, None, None, ["raised " + traceback_text])
        try:
            doc = json.loads(out.getvalue())
        except ValueError:
            doc = None
        try:
            errors = checks.call_errors(self.images[case.op], case, doc, code,
                                        self.reference.get(case.id))
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            errors = [f"malformed report: {exc!r}"]
        if errors and err.getvalue():
            errors.append("stderr: " + err.getvalue().strip())
        return Call(case, elapsed, t0, code, doc, errors)

    def run_pass(self, index: int, tracer: Tracer | None = None,
                 repeat_short: bool = True) -> list[Call]:
        """The whole case list once, in an order drawn from (seed, pass index).

        With ``repeat_short`` a case whose calls are short is called again,
        back to back, until its calls in this pass add up to MIN_CASE_S or
        MAX_REPEATS calls; the repeats steady the latency of short cases.
        """
        cases = self.workload.cases
        order = np.random.default_rng([self.seed, index]).permutation(len(cases))
        calls: list[Call] = []
        for i in order:
            spent, n = 0.0, 0
            while n == 0 or (repeat_short and spent < MIN_CASE_S and n < MAX_REPEATS):
                calls.append(self.call(cases[i], tracer))
                spent += calls[-1].seconds
                n += 1
        return calls


def measure_setup(directory: Path) -> list[float]:
    """Wall time of fresh-interpreter set-ups, spawn to exit."""
    times = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(directory / f"setup-{i}")],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return times


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and its level."""
    xs = sorted(values)
    k = max(0, len(xs) - TAIL_BEYOND - 1)
    return xs[k], 100.0 * (k + 1) / len(xs)


def pass_sum(calls: list[Call]) -> float:
    return sum(c.seconds for c in calls)


def scaled(call: Call, probe: SpeedProbe) -> float:
    """A call's latency at nominal machine speed."""
    return call.seconds / probe.slowdown_around(call.started, call.seconds)


def per_case(passes: list[list[Call]], latency) -> dict[str, tuple[str, list[float]]]:
    """Case id -> (outcome, one sample per pass): the median ``latency`` of
    the case's back-to-back repeats in that pass."""
    out: dict[str, tuple[str, list[float]]] = {}
    for calls in passes:
        repeats: dict[str, list[Call]] = {}
        for c in calls:
            repeats.setdefault(c.case.id, []).append(c)
        for cid, cs in repeats.items():
            out.setdefault(cid, (cs[0].kind, []))[1].append(
                statistics.median(latency(c) for c in cs))
    return out


def p50(cases: dict[str, tuple[str, list[float]]], kind: str) -> float:
    """Median over the cases of one outcome of each case's median sample."""
    return statistics.median(statistics.median(xs) for k, xs in cases.values()
                             if k == kind)


def latency_metrics(passes: list[list[Call]], probe: SpeedProbe,
                    lines: list[str]) -> dict[str, float]:
    """wall_s and the latency percentiles, at nominal machine speed.

    Each call's latency is divided by the machine's slowdown around it.  A
    case's latency is the median of its samples over the passes; wall_s
    sums the cases, and p50 is the median over the cases of one outcome.
    The tail is taken over all samples of one outcome.  The same figures
    without the scaling are printed next to them.
    """
    cases = per_case(passes, lambda c: scaled(c, probe))
    raw = per_case(passes, lambda c: c.seconds)
    out = {"wall_s": sum(statistics.median(xs) for _, xs in cases.values())}
    lines.append(f"wall_s {out['wall_s']:.6f} s (unscaled "
                 f"{sum(statistics.median(xs) for _, xs in raw.values()):.6f} s)")
    for kind, prefix in (("pass", "pass_s"), ("refute", "refute_s")):
        ours = {cid: xs for cid, (k, xs) in cases.items() if k == kind}
        if not ours:
            raise RuntimeError(f"no {kind} calls were measured")
        samples = [x for xs in ours.values() for x in xs]
        value, level = tail(samples)
        beyond = sum(max(xs) > value for xs in ours.values())
        out[f"{prefix}.p50"] = p50(cases, kind)
        out[f"{prefix}.tail"] = value
        lines.append(f"{prefix}: {len(ours)} cases, {len(samples)} samples; p50 "
                     f"{out[prefix + '.p50']:.6f} s (unscaled {p50(raw, kind):.6f} s), "
                     f"tail p{level:.0f} {value:.6f} s with {beyond} cases beyond it")
    return out


def untraced_run(client: Client, seconds: float, lines: list[str]):
    passes: list[list[Call]] = []
    start = time.perf_counter()
    with SpeedProbe() as probe:
        client.probe = probe
        for index in range(client.workload.passes):
            if time.perf_counter() - start > seconds:
                lines.append(f"stopped after {len(passes)} of "
                             f"{client.workload.passes} passes at the time limit")
                break
            passes.append(client.run_pass(index))
        client.probe = None
    lines.append(f"passes: {len(passes)}, unscaled pass sums "
                 + " ".join(f"{pass_sum(p):.3f}" for p in passes)
                 + f" s, mean slowdown {probe.slowdown():.3f}")
    metrics = latency_metrics(passes, probe, lines)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, passes


def _trials(case) -> int:
    return int(case.flags[case.flags.index("--trials") + 1])


def traced_run(client: Client, seconds: float, lines: list[str], trace_path: Path):
    runs: dict[bool, list[list[Call]]] = {False: [], True: []}
    start = time.perf_counter()
    index = 0
    with SpeedProbe() as probe:
        client.probe = probe
        # Spans leave out the probe's own time, as call latencies do.
        tracer = Tracer(clock=lambda: time.perf_counter() - probe.spent)
        while True:
            traced = index % 2 == 1
            if index >= 2 and (time.perf_counter() - start
                               + pass_sum(runs[traced][-1])) > seconds:
                break
            if traced:
                tracer.install()
                try:
                    runs[True].append(client.run_pass(index, tracer, repeat_short=False))
                finally:
                    tracer.uninstall()
            else:
                runs[False].append(client.run_pass(index, repeat_short=False))
            index += 1
        client.probe = None
    tracer.save(trace_path)
    n = len(runs[True])
    metrics: dict[str, float] = {}
    for span, (self_s, calls) in tracer.self_times().items():
        metrics[f"{span}.self_s"] = self_s / n
        metrics[f"{span}.calls"] = calls / n
    counters = tracer.counters
    for span, keys in COUNTED.items():
        for key in keys:
            metrics[f"{span}.{key}"] = counters[f"{span}.{key}"] / n
    metrics["poly.roots_batch.multi_row_share"] = (
        counters["poly.roots_batch.multi_rows"]
        / max(counters["poly.roots_batch.nonzero_rows"], 1))
    metrics["poly.roots_batch.worst_residual"] = counters["poly.roots_batch.worst_residual"]
    metrics["symbols.nonvanishing_check.witness_share"] = (
        counters["symbols.nonvanishing_check.witnesses"]
        / max(metrics["symbols.nonvanishing_check.calls"] * n, 1))
    oracle = [c for p in runs[False] for c in p
              if c.case.command == "falsify" and c.kind == "pass"]
    metrics["certify.falsify.trials_per_s"] = (
        sum(_trials(c.case) for c in oracle) / sum(scaled(c, probe) for c in oracle)
        if oracle else 0.0)
    wall = {traced: statistics.median(sum(scaled(c, probe) for c in p) for p in ps)
            for traced, ps in runs.items()}
    metrics["trace.untraced_wall_s"] = wall[False]
    metrics["trace.traced_wall_s"] = wall[True]
    metrics["trace.overhead_s"] = wall[True] - wall[False]
    metrics["trace.overhead_share"] = (wall[True] - wall[False]) / wall[False]
    traced_raw = statistics.median(pass_sum(p) for p in runs[True])
    lines.append(f"passes: {len(runs[False])} untraced, {n} traced; "
                 f"spans: {len(tracer.start)} written to {trace_path}")
    lines.append(f"pass wall at nominal speed: {wall[False]:.3f} s untraced, "
                 f"{wall[True]:.3f} s traced; unscaled traced {traced_raw:.3f} s")
    ranked = sorted(((v, k) for k, v in metrics.items() if k.endswith(".self_s")),
                    reverse=True)
    lines.append("self time per traced pass: " + ", ".join(
        f"{k[:-7]} {v:.3f} s ({v / traced_raw:.0%})" for v, k in ranked[:8]))
    return metrics, runs[False] + runs[True]


def environment() -> str:
    sha = ""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return (f"python {platform.python_version()} numpy {np.__version__} "
            f"nproc {os.cpu_count()} git {sha or 'unknown'}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = load_program()
    from battery import build_battery, image_table, write_operator_files
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    lines = [f"workload {workload.name} seed {args.seed} trace {args.trace}",
             environment()]
    run_dir = WORK / f"run-{os.getpid()}"
    try:
        setup = [] if args.trace else measure_setup(run_dir)
        client = Client(cli, workload, write_operator_files(run_dir / "ops"),
                        image_table(build_battery()), reference, args.seed)
        client.call(workload.cases[0])          # warm-up, not counted
        if args.trace:
            trace_path = WORK / "traces" / f"{workload.name}-seed{args.seed}.npz"
            metrics, passes = traced_run(client, args.seconds, lines, trace_path)
        else:
            metrics, passes = untraced_run(client, args.seconds, lines)
            metrics["setup_s"] = statistics.median(setup)
            lines.append("setup_s samples: " + " ".join(f"{t:.4f}" for t in setup))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    calls = [c for p in passes for c in p]
    failed = [c for c in calls if c.errors]
    observed = {c.case.id: checks.outcome(c.case, c.doc)
                for c in passes[0] if c.doc is not None}
    expected = {c.id: reference.get(c.id) for c in workload.cases}
    lines.append(f"verdict fingerprint {checks.fingerprint(observed)} "
                 f"reference {checks.fingerprint(expected)}")
    lines.append(f"failed_ops {len(failed)}/{len(calls)} = "
                 f"{len(failed) / len(calls):.4f}")
    for c in failed[:10]:
        lines.append(f"FAILED {c.case.id}: " + "; ".join(c.errors))
    for line in lines:
        print(line)
    units = metric_units(bool(args.trace))
    mismatch = set(units) ^ set(metrics)
    if mismatch:
        raise RuntimeError(f"metric set mismatch: {sorted(mismatch)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(units)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
