import json
import math

import numpy as np
import pytest

from rootcert import (BiPoly, LinearOperator, MoebiusDomain, Poly, ZeroInput,
                      base_symbol, nonvanishing_check, operator_symbol, preset)
from rootcert import certify, symbols
from rootcert.certify import Budget, certify_closed, certify_open
from rootcert.cli import report_json

H = preset("upper-half-plane")
UD = preset("unit-disk")
PRESET_NAMES = ("upper-half-plane", "lower-half-plane", "unit-disk",
                "exterior-unit-disk")


class TestBaseSymbol:
    @pytest.mark.parametrize("n", range(9))
    def test_identity_map_gives_binomials(self, n):
        S = base_symbol(H, n).coeffs
        for i in range(n + 1):
            assert S[i, n - i] == math.comb(n, i)
        assert np.count_nonzero(S) == n + 1

    def test_unit_disk_degree_one(self):
        S = base_symbol(UD, 1).coeffs
        np.testing.assert_allclose(S, [[2j, 0], [0, -2j]], atol=1e-15)

    def test_degree_zero_is_one(self):
        np.testing.assert_allclose(base_symbol(UD, 0).coeffs, [[1.0]])

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_symmetric_in_z_and_w(self, name):
        dom = preset(name)
        for n in range(9):
            S = base_symbol(dom, n)
            assert np.abs(S.coeffs - S.coeffs.T).max() <= 1e-14


class TestOperatorSymbol:
    def test_identity_operator(self):
        T = LinearOperator.identity(8)
        for n in (0, 3, 5):
            got = operator_symbol(T, H, n).coeffs
            want = base_symbol(H, n).coeffs
            np.testing.assert_allclose(got, want)

    def test_multiplication_at_degree_zero(self):
        T = LinearOperator.multiply_by(Poly([0, 1]), 8)
        got = operator_symbol(T, H, 0)
        np.testing.assert_allclose(got.coeffs, [[0], [1]])

    def test_identically_zero_symbol(self):
        # an operator supported on degree 5 only annihilates low-degree symbols
        images = [Poly.zero()] * 9
        images[5] = Poly.one()
        T = LinearOperator(images)
        assert operator_symbol(T, H, 3).is_zero()
        assert not operator_symbol(T, H, 5).is_zero()

    def test_horizon_guard(self):
        from rootcert import DegreeOutOfRange
        T = LinearOperator.identity(2)
        with pytest.raises(DegreeOutOfRange):
            operator_symbol(T, H, 3)

    @pytest.mark.parametrize("n", [-1, 99])
    def test_degree_checked_before_the_base_symbol(self, n, monkeypatch):
        from rootcert import DegreeOutOfRange
        built = []
        monkeypatch.setattr(symbols, "base_symbol",
                            lambda dom, k: built.append(k))
        with pytest.raises(DegreeOutOfRange, match=f"n = {n}"):
            operator_symbol(LinearOperator.identity(8), H, n)
        assert built == []


class TestNonvanishingCheck:
    def test_sum_avoids_closure_pair(self):
        # z + w needs Im z < 0 to vanish with w interior
        F = BiPoly([[0, 1], [1, 0]])
        res = nonvanishing_check(F, H, True, 256, rng=0)
        assert not res.found and res.w_samples == 256

    def test_disk_product_bound(self):
        F = BiPoly([[1, 0], [0, -1]])           # 1 - zw
        res = nonvanishing_check(F, UD, False, 256, rng=0)
        assert not res.found

    def test_coordinate_vanishes_on_boundary(self):
        # F = z vanishes at the boundary point 0, visible in closure mode
        F = BiPoly([[0], [1]])
        res = nonvanishing_check(F, H, True, 64, rng=0)
        assert res.found
        assert abs(res.witness.z) < 1e-9
        assert res.witness.value <= 1e-8

    def test_boundary_root_ignored_in_interior_mode(self):
        F = BiPoly([[0], [1]])
        res = nonvanishing_check(F, H, False, 64, rng=0)
        assert not res.found

    def test_interior_zero_found_in_both_modes(self):
        # F = z - i vanishes at the interior point i regardless of w
        F = BiPoly([[-1j], [1]])
        for boundary_counts in (False, True):
            res = nonvanishing_check(F, H, boundary_counts, 64, rng=0)
            assert res.found
            assert abs(res.witness.z - 1j) < 1e-9

    def test_witness_reverifies(self):
        F = BiPoly([[-1j], [1]])
        res = nonvanishing_check(F, H, False, 64, rng=0)
        w = res.witness
        scale = F.max_abs() * max(1, abs(w.z)) * 1.0
        assert abs(F(w.z, w.w)) <= 1e-8 * scale
        assert H.classify(w.z).value == "interior"
        assert H.classify(w.w).value == "interior"

    def test_zero_input_rejected(self):
        with pytest.raises(ZeroInput):
            nonvanishing_check(BiPoly([[0.0]]), H, False, 8, rng=0)

    def test_zero_slice_is_skipped(self):
        # F = (w - i/2) z vanishes on the whole slice w = i/2; force the
        # sampler onto that slice: it is counted and skipped, never probed
        F = BiPoly([[0, 0], [-0.5j, 1]])

        class Scripted:
            def __init__(self):
                self.calls = 0

            def standard_cauchy(self, size):
                self.calls += 1
                if self.calls % 2:
                    return np.zeros(size)          # real parts
                return np.full(size, 0.5)          # imaginary parts

        rng = Scripted()
        res = nonvanishing_check(F, H, False, 1, rng=rng)
        assert res.zero_slices == 1 and not res.found
        assert rng.calls == 2           # the w-sample only: no probe draw

    def test_slice_ends_at_its_natural_scale(self, monkeypatch):
        # the z^2 coefficient 1 - w/w0 cancels at w = w0 = 7 + i to 1.1e-16,
        # far below its natural scale 2: the slice is rooted as 1 + z, not
        # as a quadratic with a noise-level leading coefficient
        w0 = 7 + 1j
        F = BiPoly([[1, 0], [1, 0], [1, -1 / w0]])
        draws = iter([np.full(1, w0.real), np.full(1, w0.imag)])

        class Scripted:
            def standard_cauchy(self, size):
                return next(draws)

        rooted = []
        batch = symbols.roots_batch

        def recording(*args, **kwargs):
            rooted.extend(batch(*args, **kwargs))
            return rooted

        monkeypatch.setattr(symbols, "roots_batch", recording)
        nonvanishing_check(F, H, False, 1, rng=Scripted())
        assert [rm.total_multiplicity() for rm in rooted] == [1]

    def test_deterministic_given_seed(self):
        F = BiPoly([[-1j], [1]])
        a = nonvanishing_check(F, H, False, 64, rng=123)
        b = nonvanishing_check(F, H, False, 64, rng=123)
        assert a.witness == b.witness

    def test_heavy_tail_slices_stay_sound(self):
        # many samples so a few |w| >> 1 slices occur: the (z+w)^n power must
        # never produce an interior-tagged root for the identity operator
        F = base_symbol(H, 6)
        res = nonvanishing_check(F, H, False, 1024, rng=2024)
        assert not res.found

    def test_empty_sample_count_rejected(self):
        with pytest.raises(ValueError):
            nonvanishing_check(BiPoly([[-1j], [1]]), H, False, 0, rng=0)


class TestSliceCoherence:
    def test_restrict_after_apply(self):
        rng = np.random.default_rng(77)
        T = LinearOperator.from_diff_expansion(
            [Poly([0.3, -1]), Poly([1j])], 8)
        for n in (2, 5):
            sym = operator_symbol(T, H, n)
            base = base_symbol(H, n)
            for _ in range(10):
                w0 = complex(rng.standard_normal(), rng.standard_normal())
                lhs = sym.restrict_w(w0)
                rhs = T.apply(base.restrict_w(w0))
                assert lhs.allclose(rhs, rtol=1e-10)


# factors of the degree-1 base symbol carried by each battery symbol at n = 8
CORE_POWER_AT_8 = {
    "identity": 8, "diag-ones": 8, "mul-z": 8, "mul-z+i": 8, "mul-z-1": 8,
    "mul-z-i": 8, "derivative": 7, "deriv-minus-z": 7, "diag-k+1": 7,
    "one-plus-D": 7, "diag-inv-factorial": 0, "diag-2^k": 0,
    "rank1-interior": 0, "rank1-boundary": 0, "rank1-exterior": 0,
    "rank1-eval-i": 0,
    **{f"random-diff-{i}": 6 for i in range(5)},
}


def _rebuild_error(F: np.ndarray, G: np.ndarray, dom) -> float:
    """max|F - B1 G| / max|F|; a quotient has one row and column fewer."""
    P = (base_symbol(dom, 1) * BiPoly(G)).coeffs
    return float(np.abs(F - P).max() / np.abs(F).max())


class TestCoreCofactor:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_core_power_table(self, name, battery):
        dom = preset(name)
        assert set(battery) == set(CORE_POWER_AT_8)
        for op_name, op in battery.items():
            F = operator_symbol(op, dom, 8)
            G, m = symbols._core_cofactor(F, dom)
            assert m == CORE_POWER_AT_8[op_name], op_name
            rebuilt = (base_symbol(dom, m) * G).coeffs
            np.testing.assert_allclose(
                rebuilt, F.coeffs[: rebuilt.shape[0], : rebuilt.shape[1]],
                atol=1e-10 * F.max_abs())
            assert np.all(F.coeffs[rebuilt.shape[0]:] == 0)
            assert np.all(F.coeffs[:, rebuilt.shape[1]:] == 0)

    def test_no_division_returns_the_symbol_itself(self, battery):
        F = operator_symbol(battery["diag-2^k"], H, 8)
        G, m = symbols._core_cofactor(F, H)
        assert m == 0 and G is F

    @pytest.mark.parametrize("dom, root", [(H, 1j), (UD, 0.5j)])
    def test_planted_zero_at_a_divided_degree(self, dom, root):
        F = base_symbol(dom, 3) * BiPoly([[-root], [1]])
        res = nonvanishing_check(F, dom, False, 16, 0)
        assert res.core_power == 3
        assert res.found
        w = res.witness
        assert abs(w.z - root) < 1e-9
        assert abs(F(w.z, w.w)) <= symbols.ZERO_TOL * symbols._witness_scale(
            F, w.z, w.w)

    def test_badly_scaled_domain_accepts_only_tight_quotients(self, battery,
                                                              monkeypatch):
        dom = MoebiusDomain(1.4, 1.9j, 0.8, 0.1)
        calls = []
        divide = symbols._divide_once

        def recording(F, K, pivot):
            G = divide(F, K, pivot)
            calls.append((F, G))
            return G

        monkeypatch.setattr(symbols, "_divide_once", recording)
        stopped_early = 0
        for op_name, op in battery.items():
            F = operator_symbol(op, dom, 8)
            calls.clear()
            _, m = symbols._core_cofactor(F, dom)
            for dividend, quotient in calls[:m]:
                assert _rebuild_error(dividend, quotient, dom) \
                    <= symbols.CORE_RTOL, op_name
            if m < len(calls):
                dividend, quotient = calls[m]
                assert _rebuild_error(dividend, quotient, dom) \
                    > symbols.CORE_RTOL, op_name
            stopped_early += m < CORE_POWER_AT_8[op_name]
        # the recurrence loses digits here, so some division stops early
        assert stopped_early > 0


class TestCoreDivisionKeepsReports:
    @pytest.mark.parametrize("name", ["upper-half-plane", "unit-disk"])
    def test_reports_match_undivided_scan(self, name, battery, monkeypatch):
        dom = preset(name)
        budget = Budget(w_samples=64, trials=200, seed=1)
        ops = ["random-diff-0", "one-plus-D", "deriv-minus-z", "identity"]

        def reports():
            out = []
            for op_name in ops:
                op = battery[op_name]
                out.append(json.dumps(report_json(
                    certify_closed(op, dom, budget=budget), "closed"),
                    sort_keys=True))
                out.append(json.dumps(report_json(
                    certify_open(op, dom, budget=budget), "open"),
                    sort_keys=True))
            return out

        divided = reports()
        monkeypatch.setattr(symbols, "_core_cofactor", lambda F, dom: (F, 0))
        assert reports() == divided


def _tagged_counts(block: np.ndarray, dom) -> tuple[np.ndarray, np.ndarray]:
    """Per row: roots tagged interior, and tagged interior or boundary, by
    roots_batch at trim_tol 0 and one tag_codes call per row."""
    inner, closed = [], []
    for rm in symbols.roots_batch(block, trim_tol=0.0):
        codes = dom.tag_codes([z for z, m in rm.entries for _ in range(m)])
        inner.append(int(np.count_nonzero(codes == 1)))
        closed.append(int(np.count_nonzero(codes >= 0)))
    return np.array(inner), np.array(closed)


def _check_counts_against_roots(C: np.ndarray, dom, ws: np.ndarray) -> int:
    """Cross-check the interior count of every live slice of C at ws against
    its tagged roots; returns the number of rows with a certain count."""
    slices, natural, ends, live = symbols._slice_block(C, ws)
    if live.size == 0:
        return 0
    block = slices[live]
    count, certain = symbols._interior_counts(block, ends[live] - 1,
                                              natural[live], dom)
    inner, closed = _tagged_counts(block, dom)
    bad = np.flatnonzero(certain & ((count < inner) | (count > closed)))
    assert bad.size == 0, [(int(ws[live[r]].real), count[r], inner[r], closed[r])
                           for r in bad[:5]]
    return int(np.count_nonzero(certain))


class TestInteriorCount:
    """The Schur-Cohn count that decides which slices are rooted, against
    the root path it replaces: a certain count must lie between the roots
    tagged interior and those tagged interior or boundary, so a certain 0
    never sits next to an interior-tagged root."""

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_battery_slices(self, name, battery):
        dom = preset(name)
        certain = 0
        for op in battery.values():
            rng = np.random.default_rng(0)
            for n in range(9):
                F = operator_symbol(op, dom, n)
                if F.is_zero():
                    continue
                ws = dom.sample(symbols.RegionTag.INTERIOR, 128, rng)
                cofactor, _ = symbols._core_cofactor(F, dom)
                certain += _check_counts_against_roots(cofactor.coeffs, dom, ws)
        assert certain > 0

    def test_random_domains(self, battery):
        rng = np.random.default_rng(20)
        for _ in range(20):
            a, b, c, d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            dom = MoebiusDomain(a, b, c, d)
            for op_name in ("identity", "derivative", "diag-k+1", "diag-2^k",
                            "mul-z+i", "rank1-eval-i", "random-diff-0"):
                for n in (1, 4, 8):
                    F = operator_symbol(battery[op_name], dom, n)
                    ws = dom.sample(symbols.RegionTag.INTERIOR, 32, rng)
                    cofactor, _ = symbols._core_cofactor(F, dom)
                    _check_counts_against_roots(cofactor.coeffs, dom, ws)

    @pytest.mark.parametrize("name", ["upper-half-plane", "unit-disk"])
    @pytest.mark.parametrize("d", range(1, 10))
    def test_cauchy_root_rows(self, name, d):
        dom = preset(name)
        rng = np.random.default_rng(d)
        planted = rng.standard_cauchy((200, d)) + 1j * rng.standard_cauchy((200, d))
        rows = np.array([np.poly(r)[::-1] for r in planted])
        count, certain = symbols._interior_counts(rows, np.full(200, d),
                                                  np.abs(rows), dom)
        inner, closed = _tagged_counts(rows, dom)
        assert np.all(~certain | ((inner <= count) & (count <= closed)))
        assert np.count_nonzero(certain) >= 190

    def test_upper_half_plane_chart(self):
        # row k is i^k (1 + t)^k (1 - t)^(d - k)
        M = symbols._chart(H, 2)
        np.testing.assert_array_equal(M, [[1, -2, 1], [1j, 0, -1j], [-1, -2, -1]])

    def test_unit_disk_chart_is_t_equals_minus_z(self):
        M = symbols._chart(UD, 3)
        scale = M[0, 0]
        np.testing.assert_allclose(M / scale, np.diag([1, -1, 1, -1]), atol=1e-15)

    def test_upper_half_plane_scan_roots_few_slices(self, battery, monkeypatch):
        # evidence counters: over the closed scans of the battery, a certain
        # count of 0 leaves all but a few percent of the live slices unrooted
        results = []
        scan = certify.nonvanishing_check

        def recording(*args, **kwargs):
            results.append(scan(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(certify, "nonvanishing_check", recording)
        for op in battery.values():
            certify_closed(op, H, budget=Budget(w_samples=128, seed=0))
        live = sum(r.w_samples - r.zero_slices for r in results)
        rooted = sum(r.rooted_rows for r in results)
        uncertain = sum(r.uncertain_rows for r in results)
        assert uncertain > 0 and rooted < 0.05 * live

    def test_constant_in_w_cofactor_is_rooted_once(self, monkeypatch):
        # F = B1^2 (z - i) on the upper half-plane: every slice is z - i
        F = base_symbol(H, 2) * BiPoly([[-1j], [1]])
        rows = []
        batch = symbols.roots_batch

        def recording(block, **kwargs):
            rows.append(len(block))
            return batch(block, **kwargs)

        monkeypatch.setattr(symbols, "roots_batch", recording)
        res = nonvanishing_check(F, H, False, 64, rng=0)
        assert res.found and abs(res.witness.z - 1j) < 1e-9
        assert rows == [1] and res.rooted_rows == 1 and res.uncertain_rows == 0

    def test_closure_mode_roots_every_distinct_slice(self):
        F = BiPoly([[0, 2], [1, 0]])             # z + 2w
        res = nonvanishing_check(F, H, True, 64, rng=0)
        assert res.rooted_rows == 64 and res.uncertain_rows == 0
