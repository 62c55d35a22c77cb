import math

import numpy as np
import pytest

from rootcert import (BiPoly, Poly, ZeroPolynomial, approx_gcd, from_roots,
                      roots)
from rootcert.poly import root_uncertainty, roots_batch


def entries_sorted(rm):
    return sorted(rm.entries, key=lambda e: (e[0].real, e[0].imag))


class TestEval:
    def test_root_of_quadratic(self):
        assert Poly([1, 0, 1])(1j) == 0

    def test_zero_polynomial(self):
        assert Poly([0.0])(7.0) == 0

    def test_hand_expanded_cubic(self):
        # (z - i)^2 (z + 2i) = z^3 + 3z - 2i, so i must be a root
        p = Poly([-2j, 3, 0, 1])
        assert abs(p(1j)) < 1e-14
        assert abs(p(-2j)) < 1e-13

    def test_vectorized(self):
        p = Poly([1, 2, 3])
        zs = np.array([0.0, 1.0, 1j])
        np.testing.assert_allclose(p(zs), [1, 6, 1 + 2j + 3 * 1j ** 2 + 0])


class TestRoots:
    def test_conjugate_pair(self):
        rm = roots(Poly([1, 0, 1]))
        locs = entries_sorted(rm)
        assert rm.total_multiplicity() == 2
        assert abs(locs[0][0] + 1j) < 1e-12 and abs(locs[1][0] - 1j) < 1e-12

    def test_double_root_cubic(self):
        # (z - i)^2 (z + 2i), hand expanded above
        rm = roots(Poly([-2j, 3, 0, 1]))
        by_mult = {m: r for r, m in rm.entries}
        assert abs(by_mult[2] - 1j) < 1e-7
        assert abs(by_mult[1] + 2j) < 1e-10
        assert rm.residual <= 1e-10

    def test_cluster_radius_merges(self):
        p = from_roots([0.5, 0.5 + 1e-9])
        rm = roots(p)
        assert len(rm.entries) == 1
        (loc, mult), = rm.entries
        assert mult == 2 and abs(loc - 0.5) < 1e-6

    def test_root_at_the_origin_is_positive_zero(self):
        (loc, mult), = roots(Poly([0, 1])).entries
        assert mult == 1 and loc == 0
        assert math.copysign(1.0, loc.real) == 1.0
        assert math.copysign(1.0, loc.imag) == 1.0

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomial):
            roots(Poly([0, 0, 0]))

    def test_constant_has_no_roots(self):
        rm = roots(Poly([3.0]))
        assert rm.entries == () and rm.total_multiplicity() == 0

    def test_trailing_noise_ignored(self):
        p = Poly([1, 0, 1, 1e-20])
        assert p.degree() == 2
        assert roots(p).total_multiplicity() == 2

    def test_high_multiplicity(self):
        r = -0.4 + 0.3j
        rm = roots(from_roots([r] * 9))
        (loc, mult), = rm.entries
        assert mult == 9 and abs(loc - r) < 1e-9

    def test_multiple_root_with_interloper(self):
        # a nine-fold root plus a simple root sitting inside the numerical
        # scatter of the cluster; locations must still come out clean
        w0 = 0.03 + 0.02j
        rm = roots(from_roots([-w0] * 9 + [0.0]))
        by_mult = {m: r for r, m in rm.entries}
        assert abs(by_mult[9] + w0) < 1e-6
        assert abs(by_mult[1]) < 1e-9

    def test_wildly_scaled_roots(self):
        targets = [1e7 + 2e6j, 0.001j, -5.0]
        rm = roots(from_roots(targets))
        assert rm.total_multiplicity() == 3
        for t in targets:
            assert min(abs(loc - t) for loc, _ in rm.entries) < 1e-5 * max(1, abs(t))

    def test_extreme_dynamic_range_follows_trim_contract(self):
        # with the relative trim rule, a leading coefficient 1e-36 below the
        # largest one sits under the degree-detection floor: the polynomial is
        # treated as the lower-degree one, and the residual and
        # multiplicity-sum contracts are stated against that trimmed degree
        w0 = 3e4 + 1j
        p = from_roots([-w0] * 8 + [0.0])
        spec_degree = p.degree()
        assert spec_degree < 9
        rm = roots(p)
        assert rm.total_multiplicity() == spec_degree
        assert rm.residual <= 1e-8

    def test_large_scale_cluster_within_trim_range(self):
        # same shape, but a scale where every coefficient stays above the
        # floor: the full structure must come back
        w0 = 20.0 + 0.5j
        rm = roots(from_roots([-w0] * 8 + [0.0]))
        by_mult = {m: r for r, m in rm.entries}
        assert abs(by_mult[8] + w0) < 1e-6
        assert abs(by_mult[1]) < 1e-9

    def test_residual_bound_random(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            deg = int(rng.integers(1, 13))
            c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            rm = roots(Poly(c))
            assert rm.residual <= 1e-8
            assert rm.total_multiplicity() == deg

    def test_roots_batch_mixed(self):
        polys = [Poly([1, 0, 1]), Poly([0.0]), Poly([2.0]), from_roots([3j, 3j])]
        out = roots_batch(polys)
        assert out[1] is None
        assert out[2].entries == ()
        assert out[0].total_multiplicity() == 2
        (loc, mult), = out[3].entries
        assert mult == 2 and abs(loc - 3j) < 1e-7


class TestFromRoots:
    def test_conjugate_pair(self):
        np.testing.assert_allclose(from_roots([1j, -1j]).coeffs, [1, 0, 1])

    def test_empty_product(self):
        np.testing.assert_allclose(from_roots([], 3.0).coeffs, [3.0])

    def test_hand_expansion(self):
        np.testing.assert_allclose(from_roots([1j, 1j, -2j]).coeffs,
                                   [-2j, 3, 0, 1], atol=1e-14)

    def test_zero_leading_rejected(self):
        with pytest.raises(ValueError):
            from_roots([1.0], 0.0)

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            k = int(rng.integers(1, 11))
            targets = rng.uniform(-1, 1, k) + 1j * rng.uniform(-1, 1, k)
            rm = roots(from_roots(targets))
            got = sorted((r for r, m in rm.entries for _ in range(m)),
                         key=lambda z: (z.real, z.imag))
            want = sorted(targets, key=lambda z: (z.real, z.imag))
            assert max(abs(a - b) for a, b in zip(got, want)) < 1e-6


class TestApproxGcd:
    def test_shared_root(self):
        g = approx_gcd([Poly([1, 0, 1]), Poly([-1j, 1])])
        np.testing.assert_allclose(g.coeffs, [-1j, 1], atol=1e-10)

    def test_coprime(self):
        g = approx_gcd([Poly([-1, 1]), Poly([1, 1])])
        np.testing.assert_allclose(g.coeffs, [1.0])

    def test_scaled_monomials_share_origin(self):
        # -a0 * z for several a0: the only common root is z = 0
        g = approx_gcd([Poly([0, -a]) for a in (1.0, 2.5, 0.5 + 1j)])
        np.testing.assert_allclose(g.coeffs, [0, 1], atol=1e-14)

    def test_constant_member_forces_one(self):
        g = approx_gcd([Poly([2.0]), Poly([0, 1])])
        np.testing.assert_allclose(g.coeffs, [1.0])

    def test_zero_member_rejected(self):
        with pytest.raises(ZeroPolynomial):
            approx_gcd([Poly([0.0]), Poly([0, 1])])

    def test_gcd_divides_members(self):
        rng = np.random.default_rng(23)
        common = [0.3 - 0.7j, -1.1 + 0.2j]
        members = []
        for _ in range(4):
            extra = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            members.append(from_roots(common + list(extra)))
        g = approx_gcd(members)
        grm = roots(g)
        assert grm.total_multiplicity() == 2
        for p in members:
            prm = roots(p)
            for loc, mult in grm.entries:
                match = [m for r, m in prm.entries if abs(r - loc) < 1e-6]
                assert match and match[0] >= mult

    def test_multiplicity_minimum(self):
        a = from_roots([2j, 2j, 1.0])
        b = from_roots([2j, -1.0])
        g = approx_gcd([a, b])
        (loc, mult), = roots(g).entries
        assert mult == 1 and abs(loc - 2j) < 1e-8


class TestBiPoly:
    def test_binomial_square(self):
        zw = BiPoly([[0, 1], [1, 0]])
        np.testing.assert_allclose((zw ** 2).coeffs,
                                   [[0, 0, 1], [0, 2, 0], [1, 0, 0]])

    def test_pow_zero_is_one(self):
        base = BiPoly([[2, 1], [1j, 0]])
        np.testing.assert_allclose((base ** 0).coeffs, [[1.0]])

    def test_cross_coefficient(self):
        f = BiPoly([[1, 0], [0, -1]])            # 1 - zw
        sq = f ** 2
        assert sq.coeffs[1, 1] == -2

    def test_restrict_w_coherence(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            coeffs = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
            F = BiPoly(coeffs)
            z0, w0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            direct = sum(coeffs[i, j] * z0 ** i * w0 ** j
                         for i in range(9) for j in range(9))
            via_slice = F.restrict_w(w0)(z0)
            assert abs(direct - via_slice) <= 1e-12 * max(1.0, abs(direct))


class TestArithmetic:
    def test_scalar_mix(self):
        p = Poly([1, 2])
        np.testing.assert_allclose((3 + p).coeffs, [4, 2])
        np.testing.assert_allclose((3 - p).coeffs, [2, -2])
        np.testing.assert_allclose((2j * p).coeffs, [2j, 4j])
        np.testing.assert_allclose((p - 1).coeffs, [0, 2])

    def test_product_degree(self):
        p = Poly([1, 1]) * Poly([-1, 1])
        np.testing.assert_allclose(p.coeffs, [-1, 0, 1])

    def test_shift(self):
        np.testing.assert_allclose(Poly([2, 3]).shifted(2).coeffs, [0, 0, 2, 3])

    def test_monic(self):
        np.testing.assert_allclose(Poly([2, 4]).monic().coeffs, [0.5, 1])
        with pytest.raises(ZeroPolynomial):
            Poly([0.0]).monic()

    def test_bipoly_addition_pads(self):
        a = BiPoly([[1]])
        b = BiPoly([[0, 0], [0, 1]])
        np.testing.assert_allclose((a + b).coeffs, [[1, 0], [0, 1]])

    def test_multiset_helpers(self):
        rm = roots(from_roots([2j, 2j, 1.0]))
        assert rm.total_multiplicity() == 3
        assert sorted(rm.multiplicities) == [1, 2]
        assert len(rm.entries) == 2

    def test_immutability(self):
        p = Poly([1, 2])
        with pytest.raises(ValueError):
            p.coeffs[0] = 5


class TestRootFailures:
    def test_noise_level_top_coefficient_keeps_the_unit_roots(self):
        # the top coefficient 1e-16 puts one root at -1e16; the other two
        # must still come out at -2 and -1, not where a search started
        (rm,) = roots_batch([[2, 3, 1, 1e-16]], trim_tol=0.0)
        locs = [r for r, _ in rm.entries]
        assert rm.multiplicities == (1, 1, 1)
        for got, want in zip(locs, [-1e16, -2.0, -1.0]):
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_lapack_failure_is_nonconvergence(self, monkeypatch):
        from rootcert import NonConvergence

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        with pytest.raises(NonConvergence):
            roots(from_roots([1.0, 2.0, 3.0]))

    def test_overflowing_companion_is_nonconvergence(self):
        # the companion entry -1e300 / 1e-300 is not a float
        from rootcert import NonConvergence
        with pytest.raises(NonConvergence):
            roots_batch(np.array([[1e300, 0, 1e-300]]), trim_tol=0.0)


def test_root_uncertainty_scales():
    # well-conditioned simple root: tight bound; ill-conditioned root next to
    # a high-multiplicity cluster: bound blows up
    p = from_roots([1.0, -1.0])
    assert root_uncertainty(p, 1.0) < 1e-10
    w0 = 35.0 - 0.15j
    q = from_roots([-w0] * 6) * Poly([7.0, -w0, -1.0])
    bad = (-w0 - np.sqrt(w0 ** 2 + 28)) / 2     # root at distance ~7/|w0| from the cluster
    assert root_uncertainty(q, complex(bad)) > 0.01
