import numpy as np
import pytest

from rootcert import (LinearOperator, MoebiusDomain, Poly, RegionClass,
                      RegionTag, ZeroOperator, preset)
from rootcert.certify import (Budget, PolyWitness, Route, Verdict,
                              boundary_root_check, certify_closed,
                              certify_closed_bounded, certify_open, falsify,
                              gcd_image)
from rootcert.errors import AllImagesZero, DegreeOutOfRange
from rootcert.symbols import ZeroWitness, nonvanishing_check, operator_symbol

H = preset("upper-half-plane")
L = preset("lower-half-plane")
UD = preset("unit-disk")
N = 8

IDENTITY = LinearOperator.identity(N)
D = LinearOperator.derivative(N)
MUL_Z = LinearOperator.multiply_by(Poly([0, 1]), N)
DERIV_MINUS_Z = LinearOperator.from_diff_expansion([Poly([0, -1]), Poly([1])], N)
MUL_Z_PLUS_I = LinearOperator.multiply_by(Poly([1j, 1]), N)
WIDE_BAND = MoebiusDomain(1, 0, 0, 1, tol=0.5)

SMALL = Budget(w_samples=128, trials=400, seed=0)


class TestCertifyClosed:
    def test_identity_passes(self):
        rep = certify_closed(IDENTITY, H, budget=SMALL)
        assert rep.verdict is Verdict.EVIDENCE_CONSISTENT
        assert rep.route is Route.CLOSED_SYMBOL

    @pytest.mark.parametrize("certify", [certify_closed, certify_open])
    def test_identity_passes_on_a_badly_scaled_domain(self, certify):
        # the symbols are powers of B1, all divided out; scanned undivided,
        # the resolver turned B1's exterior 7-fold slice root into an interior
        # point at n = 7 and the identity came out falsified
        dom = MoebiusDomain(1.4, 1.9j, 0.8, 0.1)
        rep = certify(IDENTITY, dom, budget=SMALL)
        assert rep.verdict is Verdict.EVIDENCE_CONSISTENT

    def test_coordinate_multiplication_passes_closed(self):
        rep = certify_closed(MUL_Z, H, budget=SMALL)
        assert rep.verdict is Verdict.EVIDENCE_CONSISTENT

    def test_rank_one_with_boundary_direction_certified(self):
        T = LinearOperator.rank_one([1] + [0] * N, Poly([-1, 1]))
        rep = certify_closed(T, H, budget=SMALL)
        assert rep.verdict is Verdict.CERTIFIED_RANK_ONE
        assert rep.diagnostics["rank_one"]["direction_root_tags"] == ["boundary"]

    def test_rank_one_with_interior_direction_falsified(self):
        T = LinearOperator.rank_one([1] + [0] * N, Poly([-1j, 1]))
        rep = certify_closed(T, H, budget=SMALL)
        assert rep.verdict is Verdict.FALSIFIED
        assert isinstance(rep.witness, ZeroWitness)
        assert abs(rep.witness.z - 1j) < 1e-8

    def test_zero_operator_trivially_consistent(self):
        T = LinearOperator([Poly.zero()] * (N + 1))
        rep = certify_closed(T, H, budget=SMALL)
        assert rep.verdict is Verdict.EVIDENCE_CONSISTENT
        assert all(e["status"] == "zero-symbol"
                   for e in rep.diagnostics["symbols_closed"])

    def test_report_carries_budget_and_seed(self):
        rep = certify_closed(IDENTITY, H, budget=Budget(64, 100, 99))
        assert rep.budget.seed == 99 and rep.budget.w_samples == 64
        assert rep.horizon == N and rep.n_max == 8


class TestCertifyClosedBounded:
    def test_deriv_minus_z_bounded_on_lower(self):
        T = LinearOperator.from_diff_expansion(
            [Poly([0, -1]), Poly([1])], 3, bounded_degree=3)
        rep = certify_closed_bounded(T, L, budget=SMALL)
        assert rep.verdict is Verdict.EVIDENCE_CONSISTENT
        assert rep.route is Route.CLOSED_SYMBOL_BOUNDED
        assert [e["n"] for e in rep.diagnostics["symbols_closed"]] == [3]

    def test_identity_bounded_on_disk(self):
        T = LinearOperator.identity(2)
        T = LinearOperator(T.images, bounded_degree=2)
        rep = certify_closed_bounded(T, UD, budget=SMALL)
        assert rep.verdict is Verdict.EVIDENCE_CONSISTENT

    def test_point_evaluation_times_interior_direction_falsified(self):
        # f -> f(i) * (z - 2i) on degree <= 2: the direction's root 2i sits in
        # the designated region, so the single-degree symbol vanishes there
        alphas = [1j ** k for k in range(3)]
        T = LinearOperator([a * Poly([-2j, 1]) for a in alphas], bounded_degree=2)
        rep = certify_closed_bounded(T, H, budget=SMALL)
        assert rep.verdict is Verdict.FALSIFIED
        assert isinstance(rep.witness, ZeroWitness)
        assert abs(rep.witness.z - 2j) < 1e-8

    def test_requires_bound(self):
        with pytest.raises(ValueError):
            certify_closed_bounded(IDENTITY, H, budget=SMALL)


class TestBoundaryRootCheck:
    def test_derivative_passes_vacuously(self):
        bc = boundary_root_check(D, H)
        assert bc.k == 1 and bc.passed and bc.root_multiset is None

    def test_coordinate_multiplication_fails_at_zero(self):
        bc = boundary_root_check(MUL_Z, H)
        assert bc.k == 0 and not bc.passed
        (root, _), = bc.root_multiset.entries
        assert abs(root) < 1e-12
        assert bc.tags == (RegionTag.BOUNDARY,)

    def test_deriv_minus_z_fails_on_lower(self):
        bc = boundary_root_check(DERIV_MINUS_Z, L)
        assert bc.k == 0 and not bc.passed
        (root, _), = bc.root_multiset.entries
        assert abs(root) < 1e-12

    def test_zero_operator_rejected(self):
        with pytest.raises(ZeroOperator):
            boundary_root_check(LinearOperator([Poly.zero()] * 3), H)


class TestCertifyOpen:
    def test_derivative_consistent(self, routes_agree):
        rep = certify_open(D, H, budget=SMALL)
        assert rep.verdict is Verdict.EVIDENCE_CONSISTENT
        assert rep.route is Route.CLOSED_PLUS_BOUNDARY
        assert routes_agree(D, H, rep)

    def test_coordinate_multiplication_falsified(self):
        rep = certify_open(MUL_Z, H, budget=SMALL)
        assert rep.verdict is Verdict.FALSIFIED
        w = rep.witness
        assert isinstance(w, PolyWitness)
        assert abs(w.bad_root) < 1e-9
        assert w.bad_root_tag is RegionTag.BOUNDARY

    def test_counterexample_passes_symbols_but_fails_boundary(self, routes_agree):
        rep = certify_open(DERIV_MINUS_Z, L, budget=SMALL)
        assert rep.verdict is Verdict.FALSIFIED
        assert rep.diagnostics["closed_verdict"] == "evidence-consistent"
        assert not rep.diagnostics["boundary_check"]["passed"]
        assert rep.diagnostics["boundary_check"]["k"] == 0
        # a closure-mode scan catches it immediately at degree 0
        sym = operator_symbol(DERIV_MINUS_Z, L, 0)
        assert nonvanishing_check(sym, L, True, SMALL.w_samples,
                                  rng=SMALL.stream(1)).found
        assert routes_agree(DERIV_MINUS_Z, L, rep)

    def test_rank_one_strictly_exterior_certified(self):
        T = LinearOperator.rank_one([1] + [0] * N, Poly([1j, 1]))
        rep = certify_open(T, H, budget=SMALL)
        assert rep.verdict is Verdict.CERTIFIED_RANK_ONE
        assert rep.route is Route.OPEN_SYMBOL

    def test_rank_one_boundary_direction_not_certified(self):
        T = LinearOperator.rank_one([1] + [0] * N, Poly([-1, 1]))
        rep = certify_open(T, H, budget=SMALL)
        assert rep.verdict is Verdict.FALSIFIED
        assert rep.diagnostics["rank_one_literal_reading_differs"] is True
        assert isinstance(rep.witness, PolyWitness)
        assert abs(rep.witness.bad_root - 1) < 1e-9

    def test_bounded_operator_goes_to_oracle(self):
        T = LinearOperator.from_diff_expansion(
            [Poly([0, -1]), Poly([1])], 3, bounded_degree=3)
        rep = certify_open(T, L, budget=Budget(64, 800, 0))
        assert rep.route is Route.FALSIFIER
        assert rep.verdict is Verdict.FALSIFIED      # image of 1 has root 0
        assert isinstance(rep.witness, PolyWitness)

    def test_zero_operator_rejected(self):
        with pytest.raises(ZeroOperator):
            certify_open(LinearOperator([Poly.zero()] * (N + 1)), H, budget=SMALL)

    def test_poly_witness_is_reverified(self):
        rep = certify_open(MUL_Z, H, budget=SMALL)
        w = rep.witness
        # all roots of p in the exterior class, image matches a fresh apply
        prm = w.p.degree()
        if prm and prm > 0:
            from rootcert import roots
            for r, _ in roots(w.p).entries:
                assert H.classify(r) is RegionTag.EXTERIOR
        assert MUL_Z.apply(w.p).allclose(w.image, rtol=1e-10)
        assert w.residuals["image_residual_at_bad_root"] <= 1e-8


class TestFalsify:
    def test_coordinate_multiplication_witness(self):
        w = falsify(MUL_Z, H, RegionClass.INTERIOR, RegionClass.INTERIOR,
                    (0, 6), 1000, rng=0)
        assert w is not None and abs(w.bad_root) < 1e-9

    def test_identity_never_falsified(self):
        assert falsify(IDENTITY, H, RegionClass.INTERIOR,
                       trials=800, rng=0) is None

    def test_rank_one_interior_image_safe_on_open_region(self):
        T = LinearOperator.rank_one([1] + [0] * N, Poly([-1j, 1]))
        assert falsify(T, H, RegionClass.INTERIOR, trials=800, rng=0) is None

    def test_exterior_source_region(self):
        # multiplication by z adds the boundary root 0 to exterior inputs too
        w = falsify(MUL_Z, L, RegionClass.EXTERIOR, RegionClass.EXTERIOR,
                    (0, 4), 500, rng=0)
        assert w is not None and abs(w.bad_root) < 1e-9

    def test_degree_range_validation(self):
        with pytest.raises(ValueError):
            falsify(IDENTITY, H, degree_range=(4, 2), trials=10, rng=0)

    def test_deterministic(self):
        a = falsify(MUL_Z, H, trials=200, rng=7)
        b = falsify(MUL_Z, H, trials=200, rng=7)
        assert a.bad_root == b.bad_root
        np.testing.assert_array_equal(a.p.coeffs, b.p.coeffs)

    @staticmethod
    def _counting_roots_batch(monkeypatch):
        import rootcert.certify as certify_mod
        rows = []
        batch = certify_mod.roots_batch

        def counting(polys, *args, **kwargs):
            out = batch(polys, *args, **kwargs)
            rows.append(len(out))
            return out

        monkeypatch.setattr(certify_mod, "roots_batch", counting)
        return rows

    @staticmethod
    def _all_at_once(op, dom, source, target, degree_range, trials, seed):
        """The falsifier with every trial built and rooted before any check."""
        from rootcert.certify import _sample_class, _verified_poly_witness
        from rootcert.poly import from_roots, roots_batch
        rng = np.random.default_rng(seed)
        lo, hi = degree_range
        inputs = [from_roots(_sample_class(dom, source, lo + t % (hi - lo + 1), rng))
                  for t in range(trials)]
        images = [op.apply(p) for p in inputs]
        for p, image, rm in zip(inputs, images,
                                roots_batch([im.coeffs for im in images])):
            for r, _ in (rm.entries if rm is not None else ()):
                if target.contains(dom.classify(r)):
                    continue
                w = _verified_poly_witness(op, dom, p, image, source, target,
                                           preferred=r)
                if w is not None:
                    return w
        return None

    @pytest.mark.parametrize("op, dom, source, seed", [
        *(pytest.param(MUL_Z, H, RegionClass.INTERIOR, seed, id=str(seed))
          for seed in range(5)),
        # the exterior source of certify_open's bounded route
        *(pytest.param(MUL_Z, L, RegionClass.EXTERIOR, seed,
                       id=f"exterior-lower-{seed}") for seed in range(3)),
        # closed sources keep drawing trial by trial
        *(pytest.param(MUL_Z_PLUS_I, H, RegionClass.CLOSURE, seed,
                       id=f"closure-upper-{seed}") for seed in range(3)),
        # a wide band rejects draws, so chunks are drawn again trial by trial
        *(pytest.param(MUL_Z, WIDE_BAND, RegionClass.INTERIOR, seed,
                       id=f"wide-band-{seed}") for seed in range(3)),
    ])
    def test_early_exit_keeps_the_first_witness(self, op, dom, source, seed,
                                                monkeypatch):
        rows = self._counting_roots_batch(monkeypatch)
        w = falsify(op, dom, source, source, (0, 6), 500,
                    np.random.default_rng(seed))
        ref = self._all_at_once(op, dom, source, source, (0, 6), 500, seed)
        assert w is not None and ref is not None
        assert w.bad_root == ref.bad_root
        np.testing.assert_array_equal(w.p.coeffs, ref.p.coeffs)
        np.testing.assert_array_equal(w.image.coeffs, ref.image.coeffs)
        assert sum(rows) < 500

    @pytest.mark.parametrize("tol", [0.5, 0.3, 1e-3])
    @pytest.mark.parametrize("source", [RegionClass.INTERIOR,
                                        RegionClass.EXTERIOR])
    def test_chunk_draw_is_the_per_trial_stream(self, source, tol):
        # each chunk is drawn as one block; where a point is rejected the
        # chunk is drawn again trial by trial from the restored state.  At
        # tol 0.5 and 0.3 every seed takes the second path, at 1e-3 about
        # half of them do
        from rootcert.certify import _sample_class, _trial_roots
        dom = MoebiusDomain(1, 0, 0, 1, tol=tol)
        degrees = np.arange(14) % 7
        for seed in range(50):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            rows = _trial_roots(dom, source, degrees, rng)
            ref = np.concatenate([_sample_class(dom, source, d, ref_rng)
                                  for d in degrees.tolist()])
            got = rows[np.arange(rows.shape[1]) < degrees[:, None]]
            assert got.tobytes() == ref.tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_preserver_roots_every_trial(self, monkeypatch):
        rows = self._counting_roots_batch(monkeypatch)
        assert falsify(IDENTITY, H, RegionClass.INTERIOR, RegionClass.INTERIOR,
                       (0, 6), 500, np.random.default_rng(0)) is None
        assert sum(rows) == 500
        # chunks of one degree cycle, then doubling
        assert rows == [7, 14, 28, 56, 112, 224, 59]


class TestGcdImage:
    def test_coefficient_swap_operator_low_degree(self):
        # (Tp)(z) = a_3 - a_0 z with horizon 4: degree-2 inputs all map to
        # multiples of z, degree-3 inputs generically share no root
        images = [Poly.zero()] * 5
        images[0] = Poly([0, -1])
        images[3] = Poly.one()
        T = LinearOperator(images)
        g2 = gcd_image(T, 2)
        np.testing.assert_allclose(g2.coeffs, [0, 1], atol=1e-6)
        g3 = gcd_image(T, 3)
        np.testing.assert_allclose(g3.coeffs, [1.0], atol=1e-6)

    def test_identity_images_are_coprime(self):
        g = gcd_image(IDENTITY, 3)
        np.testing.assert_allclose(g.coeffs, [1.0])

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_common_root_on_the_unit_circle_kept(self, battery, n):
        # the images (z - 1) z^k share z - 1 at every degree; sampled with
        # heavy-tailed exterior roots, the computed roots near 1 strayed
        # apart and the gcd came out 1
        g = gcd_image(battery["mul-z-1"], n)
        np.testing.assert_allclose(g.trimmed().coeffs, [-1, 1], atol=1e-12)

    def test_annihilated_samples_raise(self):
        images = [Poly.zero()] * 5
        images[4] = Poly.one()          # kills everything of degree <= 3
        T = LinearOperator(images)
        with pytest.raises(AllImagesZero):
            gcd_image(T, 2)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="n = -1"):
            gcd_image(IDENTITY, -1)


class TestReportPlumbing:
    def test_nmax_above_horizon_rejected(self):
        from rootcert import DegreeOutOfRange
        with pytest.raises(DegreeOutOfRange):
            certify_closed(LinearOperator.identity(3), H, n_max=5, budget=SMALL)
        with pytest.raises(DegreeOutOfRange):
            certify_open(LinearOperator.identity(3), H, n_max=5, budget=SMALL)

    @pytest.mark.parametrize("certify", [certify_closed, certify_open])
    def test_negative_nmax_rejected(self, certify):
        # range(n_max + 1) would be empty: no symbol scanned, a vacuous pass
        with pytest.raises(ValueError):
            certify(IDENTITY, H, n_max=-1, budget=SMALL)

    def test_budget_streams_are_independent_and_stable(self):
        b = Budget(seed=4)
        a1 = b.stream(0).standard_normal(4)
        a2 = Budget(seed=4).stream(0).standard_normal(4)
        np.testing.assert_array_equal(a1, a2)
        assert not np.allclose(a1, b.stream(1).standard_normal(4))

    def test_open_report_embeds_closed_diagnostics(self):
        rep = certify_open(D, H, budget=SMALL)
        # the closed scan and the boundary test, and no second scan
        assert sorted(rep.diagnostics) == ["boundary_check", "closed_verdict",
                                           "minimal_k", "symbols_closed"]
        assert rep.diagnostics["minimal_k"] == 1

    def test_matched_budget_reproduces_closed_subverdict(self):
        b = Budget(w_samples=128, seed=6)
        # a full closed scan, and one refuted at a low degree
        interior_rank_one = LinearOperator.rank_one([1] + [0] * N, Poly([-1j, 1]))
        for op in (MUL_Z, interior_rank_one):
            standalone = certify_closed(op, H, budget=b)
            embedded = certify_open(op, H, budget=b)
            assert embedded.diagnostics["closed_verdict"] \
                == standalone.verdict.value
            assert embedded.diagnostics["symbols_closed"] \
                == standalone.diagnostics["symbols_closed"]

    @pytest.mark.parametrize("name", ["identity", "mul-z", "rank1-interior",
                                      "rank1-boundary", "diag-inv-factorial"])
    def test_open_builds_each_symbol_and_rank_one_form_once(self, battery, name,
                                                            monkeypatch):
        import rootcert.certify as certify_mod
        import rootcert.symbols as symbols_mod
        built: dict[int, int] = {}
        forms = []
        divisions = []
        symbol, rank_one_form, core_cofactor = certify_mod.operator_symbol, \
            LinearOperator.rank_one_form, symbols_mod._core_cofactor

        def counting_symbol(op, dom, n):
            built[n] = built.get(n, 0) + 1
            return symbol(op, dom, n)

        def counting_form(self, *args, **kwargs):
            forms.append(self)
            return rank_one_form(self, *args, **kwargs)

        def counting_cofactor(F, dom):
            divisions.append(F)
            return core_cofactor(F, dom)

        monkeypatch.setattr(certify_mod, "operator_symbol", counting_symbol)
        monkeypatch.setattr(LinearOperator, "rank_one_form", counting_form)
        monkeypatch.setattr(symbols_mod, "_core_cofactor", counting_cofactor)
        rep = certify_open(battery[name], H, budget=SMALL)
        assert all(count == 1 for count in built.values()), built
        assert len(forms) == 1
        if rep.diagnostics["closed_verdict"] == "certified-rank-one":
            entries = []
        else:
            entries = rep.diagnostics["symbols_closed"]
        assert set(built) == {e["n"] for e in entries}
        # one core division per degree whose symbol was searched
        searched = [e for e in entries if e["status"] != "zero-symbol"]
        assert len(divisions) == len(searched)

    def test_unrealizable_boundary_witness_is_a_root_finding_failure(
            self, monkeypatch):
        import rootcert.certify as certify_mod
        from rootcert import RootFindingFailed
        monkeypatch.setattr(certify_mod, "_verified_poly_witness",
                            lambda *args, **kwargs: None)
        with pytest.raises(RootFindingFailed):
            certify_open(DERIV_MINUS_Z, L, budget=SMALL)

    @pytest.mark.parametrize("w_samples, trials", [(0, 10), (10, 0), (-1, 10)])
    def test_empty_budget_rejected(self, w_samples, trials):
        with pytest.raises(ValueError):
            Budget(w_samples=w_samples, trials=trials)

    def test_falsify_needs_a_trial(self):
        with pytest.raises(ValueError):
            falsify(IDENTITY, H, trials=0, rng=0)

    def test_falsify_degree_above_the_cap_rejected(self):
        with pytest.raises(DegreeOutOfRange, match="reaches 9, above the operator cap 8"):
            falsify(IDENTITY, H, degree_range=(0, 9), trials=10, rng=0)


class TestVerifiedPolyWitness:
    # multiplication by (z + 1 + i)(z - 1 + i) adds the two lower-half-plane
    # roots -1 - i and 1 - i to every image; both leave the upper half-plane
    # robustly, and the image roots come sorted by real part
    MUL_LOWER_PAIR = LinearOperator.multiply_by(Poly([-2, 2j, 1]), N)
    P = Poly([-1j, 1])      # z - i, in the open upper half-plane

    def _witness(self, op, p, image=None, preferred=None):
        from rootcert.certify import _verified_poly_witness
        image = op.apply(p) if image is None else image
        return _verified_poly_witness(op, H, p, image, RegionClass.INTERIOR,
                                      RegionClass.INTERIOR, preferred=preferred)

    def test_input_root_outside_the_source_rejected(self):
        assert self._witness(MUL_Z, Poly([1j, 1])) is None

    def test_image_that_is_not_the_operator_image_rejected(self):
        image = MUL_Z.apply(self.P) + Poly([0, 0, 1e-3])
        assert self._witness(MUL_Z, self.P, image=image) is None

    @pytest.mark.parametrize("preferred, bad_root", [
        (1 - 1j, 1 - 1j),
        (100j, -1 - 1j),        # near no candidate: the first one
        (None, -1 - 1j),
    ])
    def test_bad_root_prefers_the_nearby_candidate(self, preferred, bad_root):
        w = self._witness(self.MUL_LOWER_PAIR, self.P, preferred=preferred)
        assert w is not None and abs(w.bad_root - bad_root) < 1e-12
        assert w.bad_root_tag is RegionTag.EXTERIOR

    @pytest.mark.parametrize("preferred", [None, 1j])
    def test_only_in_class_image_roots_rejected(self, preferred):
        assert self._witness(IDENTITY, self.P, preferred=preferred) is None


class TestClassConsistency:
    """Certificate-level consistency: open membership implies closed membership."""

    def test_open_pass_never_with_closed_fail(self, battery_reports):
        for name, (closed, opened) in battery_reports.items():
            if opened.verdict in (Verdict.EVIDENCE_CONSISTENT,
                                  Verdict.CERTIFIED_RANK_ONE):
                assert closed.verdict is not Verdict.FALSIFIED, name

    def test_routes_agree_across_battery(self, battery, battery_reports,
                                         routes_agree):
        disagree = [name for name, (_, opened) in battery_reports.items()
                    if not routes_agree(battery[name], H, opened)]
        assert disagree == []

    @pytest.mark.parametrize("certify", [certify_closed, certify_open])
    def test_conjugation_swaps_the_half_planes(self, battery, certify):
        # f -> conj(f(conj z)) maps the upper half-plane's classes onto the
        # lower's, and T onto the operator with conjugated image coefficients
        budget = Budget(w_samples=128, seed=0)
        mismatches = []
        for name, op in battery.items():
            conj = LinearOperator([Poly(np.conj(img.coeffs)) for img in op.images],
                                  bounded_degree=op.bounded_degree)
            upper = certify(op, H, budget=budget)
            lower = certify(conj, L, budget=budget)
            if (upper.verdict, upper.route) != (lower.verdict, lower.route):
                mismatches.append((name, upper.verdict, lower.verdict))
        assert mismatches == []

    @pytest.mark.parametrize("name, domain, seed", [
        # a far-field exterior slice root inside the wide band at its |z|
        ("diag-inv-factorial", "upper-half-plane", 3),
        ("diag-inv-factorial", "lower-half-plane", 3),
        # a slice that cancels at a sample near the content's root at -i
        ("rank1-eval-i", "unit-disk", 17),
    ])
    def test_closure_scan_finds_no_false_witness(self, battery, name, domain,
                                                 seed, routes_agree):
        dom = preset(domain)
        rep = certify_open(battery[name], dom, 8, Budget(w_samples=128, seed=seed))
        assert routes_agree(battery[name], dom, rep)
