import math

import numpy as np
import pytest

from rootcert import (BiPoly, LinearOperator, Poly, ZeroInput, base_symbol,
                      nonvanishing_check, operator_symbol, preset)

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
