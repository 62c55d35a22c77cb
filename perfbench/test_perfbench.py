"""Self-tests of the benchmark's own checks, tracer and statistics.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import importlib.util
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import checks
import run
from speed import SpeedProbe
from tracer import Tracer

CLI = run.load_program()

from battery import build_battery, image_table, write_operator_files  # noqa: E402
from workloads import WORKLOADS, Case, Workload  # noqa: E402

IMAGES = image_table(build_battery())
REFERENCE = json.loads((run.HERE / "reference.json").read_text(encoding="utf-8"))


def _client(tmp_path, cases, cli=CLI):
    workload = Workload("test", tuple(cases), passes=1)
    return run.Client(cli, workload, write_operator_files(tmp_path),
                      IMAGES, REFERENCE, seed=0)


class _StubCli:
    """Stands in for rootcert.cli: prints a fixed report, returns a fixed code."""

    def __init__(self, doc, code):
        self.doc, self.code = doc, code

    def main(self, argv):
        sys.stdout.write(json.dumps(self.doc))
        return self.code


def _report(tmp_path, case):
    out = io.StringIO()
    ops = write_operator_files(tmp_path / "ops")
    with run.contextlib.redirect_stdout(out):
        code = CLI.main(case.argv(ops, 0))
    return json.loads(out.getvalue()), code


def test_battery_copy_matches_the_test_battery():
    path = run.ROOT / "tests" / "conftest.py"
    spec = importlib.util.spec_from_file_location("rootcert_test_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    theirs, ours = module.build_battery(), build_battery()
    assert list(theirs) == list(ours)
    for name in ours:
        assert theirs[name].bounded_degree == ours[name].bounded_degree, name
        assert len(theirs[name].images) == len(ours[name].images), name
        for a, b in zip(theirs[name].images, ours[name].images):
            assert np.array_equal(a.coeffs, b.coeffs), name


def test_reference_covers_every_case():
    ids = [c.id for w in WORKLOADS.values() for c in w.cases]
    assert len(ids) == len(set(ids))
    assert set(ids) == set(REFERENCE)


def test_workloads_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_nested_fakes_give_expected_self_times():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def tick(dt):
        now[0] += dt

    def count(counters, args, kwargs, out):
        tick(0.5)                       # counter work is charged to no span
        counters["leaf.calls_seen"] += 1

    leaf = tracer.wrap("leaf", lambda: tick(2.0), count)

    def body():
        tick(1.0)
        leaf()
        tick(3.0)
        leaf()

    outer = tracer.wrap("outer", body)
    outer()
    times = tracer.self_times()
    assert times["outer"] == (4.0, 1)
    assert times["leaf"] == (4.0, 2)
    assert tracer.counters["leaf.calls_seen"] == 2
    spans = tracer.arrays()
    assert list(spans["parent"]) == [-1, 0, 0]


def test_install_patches_every_import_site_and_uninstall_restores():
    import rootcert.certify as certify
    import rootcert.poly as poly
    import rootcert.symbols as symbols
    from rootcert.domains import MoebiusDomain
    before = (poly.roots_batch, certify.roots_batch, symbols.roots_batch,
              MoebiusDomain.__dict__["classify"])
    tracer = Tracer()
    tracer.install()
    try:
        assert poly.roots_batch is certify.roots_batch is symbols.roots_batch
        assert poly.roots_batch is not before[0]
        assert MoebiusDomain.__dict__["classify"] is not before[3]
    finally:
        tracer.uninstall()
    after = (poly.roots_batch, certify.roots_batch, symbols.roots_batch,
             MoebiusDomain.__dict__["classify"])
    assert all(a is b for a, b in zip(before, after))


def test_traced_calls_record_spans_and_counts(tmp_path):
    case = Case("certify", "mul-z-i", "upper-half-plane",
                ("--class", "closed", "--samples", "128"))
    client = _client(tmp_path, [case])
    tracer = Tracer()
    tracer.install()
    try:
        result = client.call(case, tracer)
    finally:
        tracer.uninstall()
    assert result.errors == []
    times = tracer.self_times()
    assert times["cli.main"][1] == 1
    assert times["symbols.nonvanishing_check"][1] >= 1
    assert times["poly.roots_batch"][1] >= 1
    assert tracer.counters["poly.roots_batch.rows"] > 0
    assert tracer.counters["symbols.nonvanishing_check.witnesses"] == 1


def test_tail_is_the_value_with_ten_samples_beyond():
    value, level = run.tail([float(i) for i in range(1, 101)])
    assert value == 90.0 and level == 90.0


@pytest.mark.parametrize("case", [
    Case("certify", "mul-z-i", "upper-half-plane",
         ("--class", "closed", "--samples", "128")),
    Case("certify", "rank1-boundary", "upper-half-plane",
         ("--class", "open", "--samples", "128")),
])
def test_real_refutations_pass_and_corrupted_witnesses_fail(tmp_path, case):
    doc, code = _report(tmp_path, case)
    assert code == 1 and doc["verdict"] == "falsified"
    assert checks.call_errors(IMAGES[case.op], case, doc, code,
                              REFERENCE[case.id]) == []
    bad = json.loads(json.dumps(doc))
    if bad["witness"]["type"] == "symbol-zero":
        bad["witness"]["z"][0] += 0.5
        for entry in bad["diagnostics"]["symbols_closed"]:
            if entry["status"] == "zero-found":
                entry["z"][0] += 0.5
    else:
        bad["witness"]["bad_root"][1] += 0.5
    result = _client(tmp_path / "stub", [case], _StubCli(bad, code)).call(case)
    assert result.errors, "a corrupted witness must count as a failed call"


def test_corrupted_falsify_witness_fails(tmp_path):
    case = Case("falsify", "mul-z", "upper-half-plane",
                ("--source", "interior", "--trials", "500", "--degrees", "0..6"))
    doc, code = _report(tmp_path, case)
    assert checks.call_errors(IMAGES[case.op], case, doc, code,
                              REFERENCE[case.id]) == []
    bad = json.loads(json.dumps(doc))
    bad["witness"]["p"][0][0] += 1.0
    assert any("T p differs" in e for e in
               checks.call_errors(IMAGES[case.op], case, bad, code, REFERENCE[case.id]))


def test_flipped_verdict_and_wrong_exit_code_are_counted(tmp_path):
    case = Case("certify", "identity", "upper-half-plane",
                ("--class", "closed", "--samples", "128"))
    doc = {"verdict": "falsified", "route": "closed-symbol", "witness": None,
           "diagnostics": {}}
    result = _client(tmp_path, [case], _StubCli(doc, 1)).call(case)
    assert any("differs from the reference" in e for e in result.errors)
    doc = {"verdict": "evidence-consistent", "route": "closed-symbol",
           "witness": None, "diagnostics": {}}
    result = _client(tmp_path / "b", [case], _StubCli(doc, 1)).call(case)
    assert result.errors == ["exit code 1, expected 0 for evidence-consistent"]


def test_open_pass_with_closed_failure_and_route_disagreement_are_counted():
    case = Case("certify", "identity", "upper-half-plane",
                ("--class", "open", "--samples", "128"))
    doc = {"verdict": "evidence-consistent", "route": "closed-plus-boundary",
           "witness": None,
           "diagnostics": {"closed_verdict": "falsified",
                           "routes": {"agree": False}}}
    errors = checks.call_errors(IMAGES[case.op], case, doc, 0, REFERENCE[case.id])
    assert len(errors) == 2


def test_a_crashing_call_is_counted(tmp_path):
    class Crash:
        def main(self, argv):
            raise RuntimeError("boom")

    case = WORKLOADS["falsify-oracle"].cases[0]
    result = _client(tmp_path, [case], Crash()).call(case)
    assert result.exit_code is None and "boom" in result.errors[0]


def test_bare_benchmark_directory_exits_nonzero(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "falsify-oracle",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
    assert not (Path(tmp_path) / "src").exists()


def test_speed_probe_samples_during_work_and_tracks_its_own_time():
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            sum(range(1000))
    assert len(probe.samples) >= 5
    assert probe.spent >= sum(probe.samples)
    assert probe.slowdown_around(t0, 0.5) > 0


_BIG = np.random.default_rng(0).standard_normal(1 << 20)    # 8 MiB


def _unit(kind: str) -> None:
    """A fixed unit of work, about 70 ms on a 2-core x86-64 VM.

    ``numpy`` sorts an 8 MiB array four times: long C calls over a working
    set beyond the caches.  ``python`` is a complex Horner loop on scalars.
    """
    if kind == "numpy":
        for _ in range(4):
            np.sort(_BIG)
    else:
        acc = 0j
        for i in range(300_000):
            acc = acc * (0.5 + 0.1j) + i


class _Busy:
    """Stands in for rootcert.cli: ``--units k`` units of numpy work."""

    def main(self, argv):
        for _ in range(int(argv[argv.index("--units") + 1])):
            _unit("numpy")
        sys.stdout.write(json.dumps({"verdict": "evidence-consistent"}))
        return 0


def test_real_speed_probe_keeps_a_program_slowdown(tmp_path):
    cases = [Case("certify", "identity", "unit-disk", ("--units", str(k)))
             for k in (1, 3)]
    client = _client(tmp_path, cases, _Busy())
    with SpeedProbe() as probe:
        client.probe = probe
        calls = [c for i in range(6) for c in client.run_pass(i, repeat_short=False)]
    latency = {case.id: np.median([run.scaled(c, probe) for c in calls
                                   if c.case == case]) for case in cases}
    assert 2.5 < latency[cases[1].id] / latency[cases[0].id] < 3.5


def test_speed_probe_reads_the_same_inside_cache_thrashing_numpy_calls():
    phases: dict[str, list[tuple[float, float]]] = {"numpy": [], "python": []}
    with SpeedProbe() as probe:
        for _ in range(30):
            for kind in phases:
                t0 = time.perf_counter()
                _unit(kind)
                phases[kind].append((t0, time.perf_counter()))
    inside = {kind: [x for t, x in zip(probe.times, probe.samples)
                     if any(a <= t <= b for a, b in spans)]
              for kind, spans in phases.items()}
    assert min(len(xs) for xs in inside.values()) >= 10
    # The phases alternate every 70 ms, so the machine's own swings fall on
    # both alike; what is left is what the program's state does to the chunk.
    ratio = np.median(inside["numpy"]) / np.median(inside["python"])
    assert 0.85 < ratio < 1.15, inside


def test_latency_metrics_scale_by_the_slowdown_around_each_call():
    class Twice:
        def slowdown_around(self, start, duration):
            return 2.0

    def call(op, verdict, seconds):
        return run.Call(Case("certify", op, "unit-disk"), seconds, 0.0, 0,
                        {"verdict": verdict}, [])

    # one pass: case "a" repeated (median 2.0 s), "b" once, "c" refuted
    passes = [[call("a", "evidence-consistent", 1.0), call("a", "evidence-consistent", 3.0),
               call("a", "evidence-consistent", 2.0), call("b", "certified-rank-one", 6.0),
               call("c", "falsified", 0.5)]]
    lines = []
    metrics = run.latency_metrics(passes, Twice(), lines)
    assert metrics["wall_s"] == (2.0 + 6.0 + 0.5) / 2
    assert metrics["pass_s.p50"] == (1.0 + 3.0) / 2
    assert metrics["refute_s.p50"] == metrics["refute_s.tail"] == 0.25
