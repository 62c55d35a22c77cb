"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every sampled quantity is pinned by an explicit seed.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np

from rootcert import (LinearOperator, Poly, RegionClass, RegionTag,
                      base_symbol, from_roots, nonvanishing_check, preset,
                      roots)
from rootcert.certify import (Budget, Verdict, boundary_root_check,
                              certify_closed, certify_open, falsify, gcd_image)
from rootcert.cli import main as cli_main
from rootcert.poly import roots_batch

H = preset("upper-half-plane")
L = preset("lower-half-plane")
PRESETS = ("upper-half-plane", "lower-half-plane", "unit-disk",
           "exterior-unit-disk")
N = 8

MUL_Z = LinearOperator.multiply_by(Poly([0, 1]), N)
DERIV_MINUS_Z = LinearOperator.from_diff_expansion([Poly([0, -1]), Poly([1])], N)


@contextmanager
def criterion(cid: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {cid}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {cid}: PASS - {description}")


def test_criterion_01_coordinate_multiplication_difference():
    with criterion(1, "closed passes / open falsifies for multiplication by z"):
        start = time.monotonic()
        closed = certify_closed(MUL_Z, H, n_max=8, budget=Budget(w_samples=512))
        assert closed.verdict is Verdict.EVIDENCE_CONSISTENT
        opened = certify_open(MUL_Z, H, n_max=8, budget=Budget(w_samples=512))
        assert opened.verdict is Verdict.FALSIFIED
        assert opened.witness is not None
        assert abs(opened.witness.bad_root) <= 1e-9
        # witness re-verification: the image really vanishes at the bad root
        assert abs(opened.witness.image(opened.witness.bad_root)) <= 1e-9
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_02_derivative_minus_z_counterexample():
    with criterion(2, "symbols pass but the minimal-degree boundary root falsifies"):
        start = time.monotonic()
        from rootcert import operator_symbol
        # (a) closure-mode search finds nothing at degrees 1..6
        rng = np.random.default_rng(0)
        for n in range(1, 7):
            sym = operator_symbol(DERIV_MINUS_Z, L, n)
            res = nonvanishing_check(sym, L, True, 512, rng=rng)
            assert not res.found, f"degree {n}: {res.witness}"
        # (b) the first nonzero image has a boundary root at the origin
        bc = boundary_root_check(DERIV_MINUS_Z, L)
        assert bc.k == 0 and not bc.passed
        (root, _), = bc.root_multiset.entries
        assert abs(root) <= 1e-9
        assert bc.tags == (RegionTag.BOUNDARY,)
        # (c) overall open verdict
        opened = certify_open(DERIV_MINUS_Z, L, n_max=8, budget=Budget())
        assert opened.verdict is Verdict.FALSIFIED
        # (d) closed verdict
        closed = certify_closed(DERIV_MINUS_Z, L, n_max=8, budget=Budget())
        assert closed.verdict is Verdict.EVIDENCE_CONSISTENT
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_03_coefficient_swap_gcd():
    with criterion(3, "image GCD is z at degree 2 and constant 1 at degree 3"):
        images = [Poly.zero()] * 5
        images[0] = Poly([0, -1])
        images[3] = Poly.one()
        T = LinearOperator(images)
        g2 = gcd_image(T, 2)
        np.testing.assert_allclose(g2.trimmed().coeffs, [0, 1], atol=1e-6)
        g3 = gcd_image(T, 3)
        np.testing.assert_allclose(g3.trimmed().coeffs, [1.0], atol=1e-6)


def test_criterion_04_symbol_identities():
    with criterion(4, "base symbols match closed forms for both reference maps"):
        for n in range(11):
            S = base_symbol(H, n).coeffs
            for i in range(n + 1):
                assert S[i, n - i] == math.comb(n, i)
            assert np.count_nonzero(S) == n + 1
        UD = preset("unit-disk")
        rng = np.random.default_rng(4)
        for n in range(9):
            S = base_symbol(UD, n)
            expect = np.zeros((n + 1, n + 1), complex)
            for k in range(n + 1):
                expect[k, k] = (2j) ** n * math.comb(n, k) * (-1) ** k
            scale = max(1.0, np.abs(expect).max())
            assert np.abs(S.coeffs - expect).max() <= 1e-12 * scale
            # independent check: evaluate both sides at random points
            for _ in range(20):
                z, w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                lhs = S(z, w)
                rhs = (2j) ** n * (1 - z * w) ** n
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_criterion_05_base_symbol_nonvanishing():
    with criterion(5, "no base-symbol zero in closure/interior pairs, all presets"):
        for name in ("upper-half-plane", "lower-half-plane", "unit-disk",
                     "exterior-unit-disk"):
            dom = preset(name)
            rng = np.random.default_rng(5)
            for n in range(9):
                res = nonvanishing_check(base_symbol(dom, n), dom,
                                         True, 1000, rng=rng)
                assert not res.found, (name, n, res.witness)


def test_criterion_06_open_implies_closed(battery_reports):
    with criterion(6, "no battery operator gets open-pass plus closed-fail"):
        assert len(battery_reports) >= 20
        for name, (closed, opened) in battery_reports.items():
            if opened.verdict in (Verdict.EVIDENCE_CONSISTENT,
                                  Verdict.CERTIFIED_RANK_ONE):
                assert closed.verdict is not Verdict.FALSIFIED, name


def test_criterion_07_route_agreement(battery, routes_agree):
    with criterion(7, "the open verdict's route agrees with a closure-mode "
                      "symbol scan on every battery operator, all presets"):
        budget = Budget(w_samples=128, seed=0)
        disagree = []
        for dom_name in PRESETS:
            dom = preset(dom_name)
            for name, op in battery.items():
                opened = certify_open(op, dom, n_max=8, budget=budget)
                if not routes_agree(op, dom, opened):
                    disagree.append((dom_name, name))
        assert disagree == []


def test_criterion_08_gcd_divisibility_chain(battery, battery_reports):
    with criterion(8, "image GCDs at higher degrees divide those at lower degrees"):
        checked = 0
        for name, (closed, _) in battery_reports.items():
            if closed.verdict is Verdict.FALSIFIED:
                continue
            op = battery[name]
            gcds = {m: gcd_image(op, m) for m in range(2, 6)}
            entries = {m: (roots(g).entries if (g.degree() or 0) > 0 else ())
                       for m, g in gcds.items()}
            for m in range(2, 5):
                for k in range(m + 1, 6):
                    for loc, mult in entries[k]:
                        matches = [mm for r, mm in entries[m]
                                   if abs(r - loc) <= 1e-5]
                        assert matches and matches[0] >= mult, (name, m, k)
            checked += 1
        assert checked >= 8, f"only {checked} closed-pass operators"


def test_criterion_09_falsifier_consistency():
    with criterion(9, "oracle finds nothing on preservers, witnesses on violators"):
        start = time.monotonic()
        identity = LinearOperator.identity(N)
        assert falsify(identity, H, RegionClass.INTERIOR,
                       trials=10_000, rng=90) is None
        D = LinearOperator.derivative(N)
        assert falsify(D, H, RegionClass.CLOSURE, RegionClass.CLOSURE,
                       (0, 6), 10_000, rng=91) is None
        point_eval = LinearOperator.rank_one([1] + [0] * N, Poly([-1j, 1]))
        assert falsify(point_eval, H, RegionClass.INTERIOR,
                       trials=10_000, rng=92) is None
        w = falsify(MUL_Z, H, RegionClass.INTERIOR, trials=1000, rng=93)
        assert w is not None and abs(w.bad_root) <= 1e-9
        w = falsify(DERIV_MINUS_Z, L, RegionClass.INTERIOR, trials=1000, rng=94)
        assert w is not None and abs(w.bad_root) <= 1e-9
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_10_numerical_kernels():
    with criterion(10, "root residuals, root round trips, expansion round trips"):
        rng = np.random.default_rng(100)
        polys = []
        for _ in range(1000):
            deg = int(rng.integers(1, 13))
            polys.append(Poly(rng.standard_normal(deg + 1)
                              + 1j * rng.standard_normal(deg + 1)))
        for p, rm in zip(polys, roots_batch(polys)):
            assert rm.residual <= 1e-8
            assert rm.total_multiplicity() == p.degree()
        for _ in range(100):
            k = int(rng.integers(1, 11))
            targets = rng.uniform(-1, 1, k) + 1j * rng.uniform(-1, 1, k)
            rm = roots(from_roots(targets))
            got = sorted((r for r, m in rm.entries for _ in range(m)),
                         key=lambda z: (z.real, z.imag))
            want = sorted(targets, key=lambda z: (z.real, z.imag))
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-6
        for _ in range(50):
            horizon = int(rng.integers(1, 9))
            qs = [Poly(rng.standard_normal(3) + 1j * rng.standard_normal(3))
                  for _ in range(int(rng.integers(1, 4)))]
            T = LinearOperator.from_diff_expansion(qs, horizon)
            back = LinearOperator.from_diff_expansion(T.to_diff_expansion(),
                                                      horizon)
            for a, b in zip(T.images, back.images):
                assert a.allclose(b, rtol=1e-10) or (a.is_zero() and b.is_zero())


def test_criterion_11_cli_determinism(tmp_path, capsys):
    with criterion(11, "byte-identical JSON reports across repeated runs"):
        mulz = tmp_path / "mulz.json"
        mulz.write_text(json.dumps({
            "form": "monomial", "N": 8,
            "images": {str(k): [[0.0, 0.0]] * (k + 1) + [[1.0, 0.0]]
                       for k in range(9)}}))
        dmz = tmp_path / "dmz.json"
        dmz.write_text(json.dumps({
            "form": "diff", "N": 8,
            "coeffs": {"0": [[0, 0], [-1, 0]], "1": [[1, 0]]}}))
        swap = tmp_path / "swap.json"
        swap.write_text(json.dumps({
            "form": "monomial", "N": 4,
            "images": {"0": [[0, 0], [-1, 0]], "3": [[1, 0]]}}))
        scenarios = [
            ["certify", str(mulz), "--class", "open",
             "--domain", "upper-half-plane", "--json"],
            ["certify", str(mulz), "--class", "closed",
             "--domain", "upper-half-plane", "--json"],
            ["certify", str(dmz), "--class", "open",
             "--domain", "lower-half-plane", "--json"],
            ["gcd-image", str(swap), "--domain", "upper-half-plane",
             "--n", "2", "--json"],
        ]
        for argv in scenarios:
            first_code = cli_main(argv)
            first = capsys.readouterr().out
            second_code = cli_main(argv)
            second = capsys.readouterr().out
            assert first_code == second_code
            assert first == second, argv
            json.loads(first)      # well-formed machine output
