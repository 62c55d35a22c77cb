"""Command-line front end.

Subcommands: certify, symbol, falsify, gcd-image, classify-point.  Reports
are deterministic given the seed; the JSON form (--json) is the stable
machine interface, the text form is unversioned.

Exit codes: 0 certified / evidence-consistent, 1 falsified (witness printed),
2 usage or parse error, 3 any other library failure (numerical or sampling).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Optional, TextIO

import numpy as np

from .certify import (Budget, CertReport, PolyWitness, Verdict, certify_closed,
                      certify_open, falsify, gcd_image)
from .domains import MoebiusDomain, RegionClass, preset
from .errors import (DegenerateMoebius, HorizonError, ParseError,
                     RootCertError, UnknownPreset)
from .operators import LinearOperator
from .poly import Poly
from .symbols import ZeroWitness, operator_symbol

EXIT_PASS = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


# ---------------------------------------------------------------------------
# operator file format
# ---------------------------------------------------------------------------

def _as_complex(pair, where: str) -> complex:
    if (not isinstance(pair, (list, tuple)) or len(pair) != 2
            or not all(isinstance(v, (int, float)) for v in pair)):
        raise ParseError(f"{where}: expected a [re, im] pair, got {pair!r}")
    try:
        z = complex(pair[0], pair[1])
    except OverflowError:
        raise ParseError(f"{where}: {pair!r} is out of the float range") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ParseError(f"{where}: expected finite numbers, got {pair!r}")
    return z


def _coeff_list(values, where: str) -> Poly:
    if not isinstance(values, (list, tuple)) or not values:
        raise ParseError(f"{where}: expected a nonempty list of [re, im] pairs")
    return Poly([_as_complex(v, f"{where}[{i}]") for i, v in enumerate(values)])


def parse_operator(text: str) -> LinearOperator:
    """Operator from its JSON document.

    Fields: form ("monomial" | "diff"), N (horizon), bounded_degree
    (optional), and a map from index k to the coefficient list of T[z^k]
    (monomial form, key "images") or of the k-th derivative-expansion
    coefficient (diff form, key "coeffs").  Missing indices mean the zero
    polynomial.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"operator file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("operator file must hold a JSON object")
    form = doc.get("form")
    if form not in ("monomial", "diff"):
        raise ParseError(f"form must be 'monomial' or 'diff', got {form!r}")
    horizon = doc.get("N")
    if not isinstance(horizon, int) or horizon < 0:
        raise ParseError(f"N must be a non-negative integer, got {horizon!r}")
    bounded = doc.get("bounded_degree")
    if bounded is not None and (not isinstance(bounded, int) or bounded != horizon):
        raise ParseError(
            f"bounded_degree must equal N (= {horizon}), got {bounded!r}")

    table = None
    for key in ("images", "coeffs"):
        if key in doc:
            table = doc[key]
            break
    if not isinstance(table, dict):
        raise ParseError("missing the index-to-coefficients map "
                         "(key 'images' or 'coeffs')")
    polys: dict[int, Poly] = {}
    for raw_k, values in table.items():
        try:
            k = int(raw_k)
        except (TypeError, ValueError):
            raise ParseError(f"index {raw_k!r} is not an integer") from None
        if k < 0:
            raise ParseError(f"index {k} is negative")
        if k > horizon:
            raise HorizonError(f"index {k} exceeds the declared horizon N = {horizon}")
        polys[k] = _coeff_list(values, f"entry {k}")

    if form == "monomial":
        images = [polys.get(k, Poly.zero()) for k in range(horizon + 1)]
        return LinearOperator(images, bounded_degree=bounded)
    qs = [polys.get(k, Poly.zero()) for k in range(max(polys, default=0) + 1)]
    return LinearOperator.from_diff_expansion(qs, horizon, bounded_degree=bounded)


def serialize_operator(op: LinearOperator) -> dict:
    """Monomial-form document; parse_operator inverts it."""
    images = {}
    for k, img in enumerate(op.images):
        if not img.is_zero():
            t = img.trimmed()
            images[str(k)] = [_pair(c) for c in t.coeffs]
    doc = {"form": "monomial", "N": op.horizon, "images": images}
    if op.bounded_degree is not None:
        doc["bounded_degree"] = op.bounded_degree
    return doc


# ---------------------------------------------------------------------------
# domain specification
# ---------------------------------------------------------------------------

def parse_domain(tokens: list[str], tol: float) -> MoebiusDomain:
    """A preset name, or eight reals a_re a_im b_re b_im c_re c_im d_re d_im
    (optionally preceded by the word 'moebius')."""
    if not tokens:
        raise ParseError("empty domain specification")
    if len(tokens) == 1:
        return preset(tokens[0], tol=tol)
    raw = tokens[1:] if tokens[0] == "moebius" else tokens
    if len(raw) != 8:
        raise ParseError(
            f"a coefficient domain needs 8 reals, got {len(raw)}: {raw}")
    try:
        vals = [float(v) for v in raw]
    except ValueError as exc:
        raise ParseError(f"domain coefficients must be numbers: {exc}") from exc
    if not all(math.isfinite(v) for v in vals):
        raise ParseError(f"domain coefficients must be finite, got {raw}")
    a, b, c, d = (complex(vals[i], vals[i + 1]) for i in range(0, 8, 2))
    return MoebiusDomain(a, b, c, d, tol=tol)


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _poly_json(p: Poly) -> list[list[float]]:
    return [_pair(c) for c in p.trimmed().coeffs]


def _witness_json(w) -> Optional[dict]:
    if w is None:
        return None
    if isinstance(w, ZeroWitness):
        return {"type": "symbol-zero", "z": _pair(w.z), "w": _pair(w.w),
                "value": float(w.value), "refined": bool(w.refined)}
    return {"type": "polynomial", "p": _poly_json(w.p),
            "image": _poly_json(w.image), "bad_root": _pair(w.bad_root),
            "bad_root_tag": w.bad_root_tag.value,
            "residuals": {k: float(v) for k, v in w.residuals.items()}}


def report_json(report: CertReport, cls: str) -> dict:
    return {
        "verdict": report.verdict.value,
        "route": report.route.value,
        "class": cls,
        "target_class": report.target_class.value,
        "horizon": report.horizon,
        "n_max": report.n_max,
        "seed": report.budget.seed,
        "budget": {"w_samples": report.budget.w_samples,
                   "trials": report.budget.trials},
        "witness": _witness_json(report.witness),
        "diagnostics": report.diagnostics,
    }


def _dump(doc: dict, out: TextIO) -> None:
    out.write(json.dumps(doc, sort_keys=True, indent=2))
    out.write("\n")


def _fmt_c(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}j"


def _print_report(report: CertReport, cls: str, out: TextIO) -> None:
    out.write(f"verdict: {report.verdict.value}\n")
    out.write(f"route: {report.route.value}  class: {cls}  "
              f"horizon: {report.horizon}  seed: {report.budget.seed}\n")
    w = report.witness
    if isinstance(w, ZeroWitness):
        out.write(f"witness: symbol zero at z = {_fmt_c(w.z)}, "
                  f"w = {_fmt_c(w.w)}  (|value| = {w.value:.3e})\n")
    elif isinstance(w, PolyWitness):
        p_str = ", ".join(_fmt_c(c) for c in w.p.trimmed().coeffs)
        i_str = ", ".join(_fmt_c(c) for c in w.image.trimmed().coeffs)
        out.write(f"witness: p = [{p_str}]\n")
        out.write(f"         image = [{i_str}]\n")
        out.write(f"         bad root = {_fmt_c(w.bad_root)} "
                  f"({w.bad_root_tag.value})\n")
    diag = report.diagnostics
    if "minimal_k" in diag:
        out.write(f"minimal k: {diag['minimal_k']}\n")
    if "boundary_check" in diag:
        bc = diag["boundary_check"]
        out.write(f"boundary check: k = {bc['k']}, passed = {bc['passed']}, "
                  f"tags = {bc['tags']}\n")


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_certify(args: argparse.Namespace, op: LinearOperator, dom: MoebiusDomain,
                 out: TextIO) -> int:
    budget = Budget(w_samples=args.samples, trials=args.trials, seed=args.seed)
    # the certifiers refuse this too; this message names the flag
    if op.bounded_degree is not None and args.n_max is not None:
        raise ValueError(
            f"--nmax does not apply to a degree-bounded operator (bounded_degree "
            f"= {op.bounded_degree}): the closed class is checked at that degree "
            f"only and the open class by the falsifier")
    certify = certify_closed if args.cls == "closed" else certify_open
    report = certify(op, dom, args.n_max, budget)
    if args.json_output:
        _dump(report_json(report, args.cls), out)
    else:
        _print_report(report, args.cls, out)
    return EXIT_FALSIFIED if report.verdict is Verdict.FALSIFIED else EXIT_PASS


def _cmd_symbol(args: argparse.Namespace, op: LinearOperator, dom: MoebiusDomain,
                out: TextIO) -> int:
    sym = operator_symbol(op, dom, args.n)
    if args.json_output:
        _dump({"n": args.n,
               "z_degree": sym.z_degree(), "w_degree": sym.w_degree(),
               "coeffs": [[_pair(c) for c in row] for row in sym.coeffs]}, out)
    else:
        out.write(f"symbol image at degree {args.n} "
                  f"(rows are powers of z, columns powers of w):\n")
        for i, row in enumerate(sym.coeffs):
            cells = "  ".join(_fmt_c(c) for c in row)
            out.write(f"  z^{i}: {cells}\n")
    return EXIT_PASS


def _cmd_falsify(args: argparse.Namespace, op: LinearOperator, dom: MoebiusDomain,
                 out: TextIO) -> int:
    source = RegionClass(args.source)
    target = RegionClass(args.target) if args.target else source
    witness = falsify(op, dom, source, target, args.degree_range, args.trials,
                      np.random.default_rng(args.seed))
    if args.json_output:
        _dump({"verdict": "falsified" if witness else "evidence-consistent",
               "source": source.value, "target": target.value,
               "trials": args.trials, "seed": args.seed,
               "degree_range": list(args.degree_range),
               "witness": _witness_json(witness)}, out)
    else:
        if witness is None:
            out.write(f"no witness in {args.trials} trials "
                      f"(source = {source.value}, target = {target.value})\n")
        else:
            out.write("witness found:\n")
            p_str = ", ".join(_fmt_c(c) for c in witness.p.trimmed().coeffs)
            out.write(f"  p = [{p_str}]\n")
            out.write(f"  bad root = {_fmt_c(witness.bad_root)} "
                      f"({witness.bad_root_tag.value})\n")
    return EXIT_FALSIFIED if witness is not None else EXIT_PASS


def _cmd_gcd_image(args: argparse.Namespace, op: LinearOperator, out: TextIO) -> int:
    g = gcd_image(op, args.n)
    if args.json_output:
        # the gcd takes no samples, so it is stable under doubling them
        _dump({"n": args.n, "gcd": _poly_json(g), "stable_under_doubling": True}, out)
    else:
        g_str = ", ".join(_fmt_c(c) for c in g.trimmed().coeffs)
        out.write(f"gcd of degree-{args.n} images: [{g_str}]\n")
    return EXIT_PASS


def _cmd_classify_point(args: argparse.Namespace, dom: MoebiusDomain,
                        out: TextIO) -> int:
    if not all(math.isfinite(v) for v in args.point):
        raise ParseError(f"--point must be two finite numbers, got {args.point}")
    z = complex(args.point[0], args.point[1])
    tag = dom.classify(z)
    side = dom.side(z)
    if args.json_output:
        _dump({"point": _pair(z), "tag": tag.value, "side": float(side)}, out)
    else:
        out.write(f"{_fmt_c(z)}: {tag.value} (side = {side:.6g})\n")
    return EXIT_PASS


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _parse_degrees(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError("expected LO..HI")
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError("expected integer LO..HI") from None
    if lo_i < 0 or hi_i < lo_i:
        raise argparse.ArgumentTypeError("need 0 <= LO <= HI")
    return lo_i, hi_i


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it;
    parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="rootcert",
        description="Certify or falsify root-location preservation by linear "
                    "operators on complex polynomials over circular domains.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, operator=True):
        if operator:
            p.add_argument("operator", help="path to the operator JSON file")
        p.add_argument("--domain", nargs="+", required=True,
                       metavar="SPEC",
                       help="preset name, or 'moebius' followed by 8 reals")
        p.add_argument("--tol", type=float, default=1e-9,
                       help="boundary band half-width (relative), in (0, 1)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", action="store_true", dest="json_output")

    p = sub.add_parser("certify", help="run the class certifier")
    common(p)
    p.add_argument("--class", dest="cls", choices=("open", "closed"),
                   required=True)
    p.add_argument("--nmax", type=int, default=None, dest="n_max",
                   help="symbol degrees to scan (default: min(8, horizon)); "
                        "refused for a degree-bounded operator")
    p.add_argument("--samples", type=int, default=512)
    p.add_argument("--trials", type=int, default=2000)

    p = sub.add_parser("symbol", help="print an operator symbol")
    common(p)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("falsify", help="randomized counterexample search")
    common(p)
    p.add_argument("--source", default="interior",
                   choices=[c.value for c in RegionClass])
    p.add_argument("--target", default=None,
                   choices=[c.value for c in RegionClass])
    p.add_argument("--degrees", type=_parse_degrees, default=(0, 6),
                   dest="degree_range", metavar="LO..HI")
    p.add_argument("--trials", type=int, default=2000)

    p = sub.add_parser("gcd-image",
                       help="GCD of the images T[1], ..., T[z^n] (independent "
                            "of --domain and --seed)")
    common(p)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("classify-point", help="classify a point against a domain")
    common(p, operator=False)
    p.add_argument("--point", nargs=2, type=float, required=True,
                   metavar=("RE", "IM"))

    return parser


def run(args: argparse.Namespace, operator_text: Optional[str], out: TextIO) -> int:
    """Dispatch parsed arguments (from build_parser); returns the exit code."""
    try:
        dom = parse_domain(args.domain, args.tol)
        if args.command == "classify-point":
            return _cmd_classify_point(args, dom, out)
        op = parse_operator(operator_text)
        if args.command == "certify":
            return _cmd_certify(args, op, dom, out)
        if args.command == "symbol":
            return _cmd_symbol(args, op, dom, out)
        if args.command == "falsify":
            return _cmd_falsify(args, op, dom, out)
        if args.command == "gcd-image":
            return _cmd_gcd_image(args, op, out)
        raise ParseError(f"unknown command {args.command!r}")
    except (ParseError, UnknownPreset, DegenerateMoebius, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RootCertError as exc:
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    operator_text = None
    if getattr(args, "operator", None) is not None:
        try:
            with open(args.operator, "r", encoding="utf-8") as fh:
                operator_text = fh.read()
        except OSError as exc:
            print(f"error: cannot read operator file: {exc}", file=sys.stderr)
            return EXIT_USAGE
    return run(args, operator_text, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
