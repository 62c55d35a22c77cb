import numpy as np
import pytest

from rootcert import BiPoly, DegreeOutOfRange, LinearOperator, Poly

N = 8

DERIV_MINUS_Z = LinearOperator.from_diff_expansion([Poly([0, -1]), Poly([1])], N)


def polys_close(a: Poly, b: Poly, rtol=1e-12):
    assert a.allclose(b, rtol=rtol), (a, b)


class TestApply:
    def test_identity(self):
        T = LinearOperator.identity(N)
        polys_close(T.apply(Poly([1, 0, 1])), Poly([1, 0, 1]))

    def test_deriv_minus_z_on_constant(self):
        # the image of 1 is -z (computed directly; its only root, 0, sits on
        # the boundary of either half-plane, so downstream conclusions are
        # unaffected by the sign)
        polys_close(DERIV_MINUS_Z.apply(Poly([1])), Poly([0, -1]))

    def test_coefficient_picker(self):
        # (Tp)(z) = a_2 - a_0 z on inputs of degree <= 2, horizon 4
        images = [Poly.zero()] * 5
        images[0] = Poly([0, -1])
        images[2] = Poly.one()
        T = LinearOperator(images)
        polys_close(T.apply(Poly([5, 0, 1])), Poly([1, -5]))

    def test_degree_out_of_range(self):
        T = LinearOperator.identity(2)
        with pytest.raises(DegreeOutOfRange):
            T.apply(Poly.monomial(3))

    def test_bounded_operator_refuses_excess_degree(self):
        T = LinearOperator([Poly.one(), Poly.monomial(1)], bounded_degree=1)
        polys_close(T.apply(Poly([0, 2])), Poly([0, 2]))
        with pytest.raises(DegreeOutOfRange):
            T.apply(Poly([0, 0, 1]))

    def test_bound_must_match_horizon(self):
        with pytest.raises(ValueError):
            LinearOperator([Poly.one(), Poly.monomial(1)], bounded_degree=3)

    def test_zero_input_maps_to_zero(self):
        assert DERIV_MINUS_Z.apply(Poly([0.0])).is_zero()

    def test_linearity_random(self):
        rng = np.random.default_rng(8)
        T = LinearOperator.from_diff_expansion(
            [Poly(rng.standard_normal(3) + 1j * rng.standard_normal(3))
             for _ in range(3)], N)
        for _ in range(25):
            p = Poly(rng.standard_normal(5) + 1j * rng.standard_normal(5))
            q = Poly(rng.standard_normal(4) + 1j * rng.standard_normal(4))
            a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            lhs = T.apply(a * p + b * q)
            rhs = a * T.apply(p) + b * T.apply(q)
            assert lhs.allclose(rhs, rtol=1e-12)


class TestApplyBivariate:
    def test_derivative_on_binomial_square(self):
        D = LinearOperator.derivative(N)
        zw = BiPoly([[0, 1], [1, 0]])
        out = D.apply_bivariate(zw ** 2)
        expected = 2 * zw
        np.testing.assert_allclose(out.coeffs[:2, :2], expected.coeffs, atol=1e-14)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_deriv_minus_z_closed_form(self, n):
        # image of (z+w)^n is (z+w)^(n-1) * (n - z(z+w))
        zw = BiPoly([[0, 1], [1, 0]])
        out = DERIV_MINUS_Z.apply_bivariate(zw ** n)
        quad = np.zeros((3, 2), complex)
        quad[0, 0] = n
        quad[2, 0] = -1
        quad[1, 1] = -1
        expected = (zw ** (n - 1)) * BiPoly(quad)
        rows = max(out.coeffs.shape[0], expected.coeffs.shape[0])
        cols = max(out.coeffs.shape[1], expected.coeffs.shape[1])
        a = np.zeros((rows, cols), complex)
        b = np.zeros((rows, cols), complex)
        a[:out.coeffs.shape[0], :out.coeffs.shape[1]] = out.coeffs
        b[:expected.coeffs.shape[0], :expected.coeffs.shape[1]] = expected.coeffs
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_slice_coherence(self):
        rng = np.random.default_rng(12)
        T = LinearOperator.from_diff_expansion(
            [Poly(rng.standard_normal(2) + 1j * rng.standard_normal(2))
             for _ in range(3)], N)
        F = BiPoly(rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5)))
        for _ in range(10):
            w0 = complex(rng.standard_normal(), rng.standard_normal())
            via_bivariate = T.apply_bivariate(F).restrict_w(w0)
            via_slice = T.apply(F.restrict_w(w0))
            assert via_bivariate.allclose(via_slice, rtol=1e-10)

    def test_z_degree_guard(self):
        T = LinearOperator.identity(1)
        with pytest.raises(DegreeOutOfRange):
            T.apply_bivariate(BiPoly(np.eye(3)))


class TestDiffExpansion:
    def test_multiplication_is_order_zero(self):
        T = LinearOperator.multiply_by(Poly([0, 1]), 4)
        qs = T.to_diff_expansion()
        polys_close(qs[0], Poly([0, 1]))
        assert all(q.is_zero() for q in qs[1:])

    def test_derivative_is_order_one(self):
        qs = LinearOperator.derivative(4).to_diff_expansion()
        assert qs[0].is_zero()
        polys_close(qs[1], Poly.one())
        assert all(q.is_zero() for q in qs[2:])

    def test_deriv_minus_z_coefficients(self):
        qs = DERIV_MINUS_Z.to_diff_expansion()
        polys_close(qs[0], Poly([0, -1]))
        polys_close(qs[1], Poly.one())
        assert all(q.is_zero() for q in qs[2:])

    def test_from_expansion_identity(self):
        T = LinearOperator.from_diff_expansion([Poly.one()], 3)
        for k in range(4):
            polys_close(T.images[k], Poly.monomial(k))

    def test_from_expansion_hand_case(self):
        T = LinearOperator.from_diff_expansion([Poly([0, -1]), Poly([1])], 2)
        polys_close(T.images[0], Poly([0, -1]))
        polys_close(T.images[1], Poly([1, 0, -1]))
        polys_close(T.images[2], Poly([0, 2, 0, -1]))

    def test_from_expansion_pure_derivative(self):
        T = LinearOperator.from_diff_expansion([Poly.zero(), Poly.one()], 5)
        for m in range(6):
            expected = Poly.monomial(m - 1, m) if m else Poly.zero()
            polys_close(T.images[m], expected)

    def test_round_trip_random(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            horizon = int(rng.integers(1, 9))
            T = LinearOperator.from_diff_expansion(
                [Poly(rng.standard_normal(3) + 1j * rng.standard_normal(3))
                 for _ in range(int(rng.integers(1, 4)))], horizon)
            back = LinearOperator.from_diff_expansion(T.to_diff_expansion(), horizon)
            for a, b in zip(T.images, back.images):
                assert a.allclose(b, rtol=1e-10)


class TestRankOne:
    def test_scaled_direction(self):
        T = LinearOperator([(k + 1) * Poly([-1j, 1]) for k in range(4)])
        form = T.rank_one_form()
        assert form is not None
        np.testing.assert_allclose(form.direction.coeffs, [-1j, 1])
        np.testing.assert_allclose(form.alphas, [1, 2, 3, 4])

    def test_identity_is_not_rank_one(self):
        assert LinearOperator.identity(3).rank_one_form() is None

    def test_zero_images_allowed(self):
        images = [Poly([1, 0, 1])] + [Poly.zero()] * 3
        form = LinearOperator(images).rank_one_form()
        assert form is not None
        np.testing.assert_allclose(form.alphas, [1, 0, 0, 0])

    def test_reconstruction_matches(self):
        alphas = [1.0, 2j, 0.0, -0.5]
        T = LinearOperator.rank_one(alphas, Poly([1, 2, 1]))
        form = T.rank_one_form()
        for k, img in enumerate(T.images):
            assert (form.alphas[k] * form.direction).allclose(img, rtol=1e-10) \
                or img.is_zero()

    def test_near_rank_one_rejected(self):
        images = [Poly([-1j, 1]), Poly([-1j * (1 + 1e-5), 1])]
        assert LinearOperator(images).rank_one_form() is None

    def test_zero_operator(self):
        assert LinearOperator([Poly.zero()] * 3).rank_one_form() is None


class TestMinimalK:
    def test_derivative(self):
        assert LinearOperator.derivative(4).minimal_k() == 1

    def test_multiplication(self):
        assert LinearOperator.multiply_by(Poly([0, 1]), 4).minimal_k() == 0

    def test_zero_operator(self):
        assert LinearOperator([Poly.zero()] * 4).minimal_k() is None
