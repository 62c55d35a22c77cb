import numpy as np
import pytest

from rootcert import (DegenerateMoebius, DegenerateSample, MoebiusDomain,
                      RegionClass, RegionTag, UnknownPreset, preset)

PRESET_NAMES = ("upper-half-plane", "lower-half-plane", "unit-disk",
                "exterior-unit-disk")


class TestSide:
    def test_identity_map_is_imaginary_part(self):
        dom = preset("upper-half-plane")
        for z in (1 + 2j, -3 - 0.5j, 0.25j):
            assert np.isclose(dom.side(z), z.imag)

    def test_unit_disk_center(self):
        dom = preset("unit-disk")
        assert np.isclose(dom.side(0), 1.0)
        assert dom.classify(0) is RegionTag.INTERIOR

    def test_unit_disk_rim_and_outside(self):
        dom = preset("unit-disk")
        assert np.isclose(dom.side(1), 0.0)
        assert dom.classify(1) is RegionTag.BOUNDARY
        assert np.isclose(dom.side(2), -3.0)
        assert dom.classify(2) is RegionTag.EXTERIOR


class TestClassify:
    def test_boundary_band(self):
        dom = preset("upper-half-plane")
        assert dom.classify(1e-14j) is RegionTag.BOUNDARY
        assert dom.classify(1j) is RegionTag.INTERIOR

    def test_band_is_scale_invariant(self):
        dom = preset("upper-half-plane")
        # a fixed relative offset stays boundary no matter how far out
        for mag in (1.0, 1e3, 1e6):
            z = mag + 1j * (0.1 * dom.tol * mag ** 2)
            assert dom.classify(z) is RegionTag.BOUNDARY

    def test_lower_preset_flips(self):
        dom = preset("lower-half-plane")
        assert dom.side(-1j) > 0
        assert dom.classify(-1j) is RegionTag.INTERIOR
        assert dom.classify(1j) is RegionTag.EXTERIOR

    def test_exterior_unit_disk(self):
        dom = preset("exterior-unit-disk")
        assert dom.classify(2) is RegionTag.INTERIOR
        assert dom.classify(0) is RegionTag.EXTERIOR
        assert dom.classify(1j) is RegionTag.BOUNDARY

    def test_pole_lands_on_boundary(self):
        dom = preset("unit-disk")
        assert dom.pole == -1
        assert dom.classify(dom.pole) is RegionTag.BOUNDARY

    def test_trichotomy_random(self):
        rng = np.random.default_rng(0)
        zs = rng.standard_cauchy(10_000) + 1j * rng.standard_cauchy(10_000)
        for name in PRESET_NAMES:
            dom = preset(name)
            codes = dom.tag_codes(zs)
            assert set(np.unique(codes)) <= {-1, 0, 1}
            for tag in map(dom.classify, zs[:50]):
                assert tag.in_closure or tag is RegionTag.EXTERIOR
                assert tag.in_complement or tag is RegionTag.INTERIOR

    def test_side_sign_matches_image(self):
        rng = np.random.default_rng(1)
        zs = rng.standard_cauchy(2000) + 1j * rng.standard_cauchy(2000)
        for name in PRESET_NAMES:
            dom = preset(name)
            den = dom.c * zs + dom.d
            ok = np.abs(den) > 1e-9
            sides = dom.side(zs[ok])
            images = dom.image(zs[ok])
            strict = np.abs(sides) > dom._band(zs[ok])
            assert np.all(np.sign(sides[strict]) == np.sign(images[strict].imag))


class TestConstruction:
    def test_degenerate_determinant_rejected(self):
        with pytest.raises(DegenerateMoebius):
            MoebiusDomain(1, 2, 2, 4)
        with pytest.raises(DegenerateMoebius):
            MoebiusDomain(0, 0, 0, 0)

    def test_near_degenerate_rejected(self):
        with pytest.raises(DegenerateMoebius):
            MoebiusDomain(1, 1, 1, 1 + 1e-14)

    @pytest.mark.parametrize("tol", [0.0, -1.0, 1.0, 2.0, float("nan"),
                                     float("inf")])
    def test_band_tolerance_must_lie_in_unit_interval(self, tol):
        # |side| <= (|az+b|^2 + |cz+d|^2) / 2: tol >= 1 tags every point as
        # boundary, tol <= 0 (or NaN) tags none
        with pytest.raises(ValueError):
            MoebiusDomain(1, 0, 0, 1, tol=tol)

    def test_unknown_preset(self):
        with pytest.raises(UnknownPreset):
            preset("left-half-plane")


class TestSampling:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("region", [RegionTag.INTERIOR, RegionTag.BOUNDARY,
                                        RegionTag.EXTERIOR])
    def test_samples_classify_back(self, name, region):
        dom = preset(name)
        pts = dom.sample(region, 200, np.random.default_rng(3))
        assert len(pts) == 200
        code = {RegionTag.INTERIOR: 1, RegionTag.BOUNDARY: 0,
                RegionTag.EXTERIOR: -1}[region]
        assert np.all(dom.tag_codes(pts) == code)

    def test_identity_interior_has_positive_imag(self):
        dom = preset("upper-half-plane")
        pts = dom.sample(RegionTag.INTERIOR, 100, np.random.default_rng(4))
        assert np.all(pts.imag > 0)

    def test_unit_disk_interior_inside_circle(self):
        dom = preset("unit-disk")
        pts = dom.sample(RegionTag.INTERIOR, 100, np.random.default_rng(5))
        assert np.all(np.abs(pts) < 1)

    def test_boundary_points_real_for_identity(self):
        dom = preset("upper-half-plane")
        pts = dom.sample(RegionTag.BOUNDARY, 50, np.random.default_rng(6))
        assert np.all(pts.imag == 0)

    def test_exterior_region_is_open(self):
        # compass probes at 1e-6 around exterior samples that sit clear of
        # the band must stay exterior
        eps = 1e-6
        for name in PRESET_NAMES:
            dom = preset(name)
            pts = dom.sample(RegionTag.EXTERIOR, 200, np.random.default_rng(7))
            clear = [z for z in pts
                     if abs(dom.side(z)) > dom._band(z)
                     + 4 * eps * dom.side_gradient_bound(z)]
            assert clear, name
            for z in clear[:60]:
                for dz in (eps, -eps, 1j * eps, -1j * eps):
                    assert dom.classify(z + dz) is RegionTag.EXTERIOR

    def test_count_zero(self):
        dom = preset("unit-disk")
        assert len(dom.sample(RegionTag.INTERIOR, 0, np.random.default_rng(0))) == 0

    def test_degenerate_sampling_raises(self):
        class HugeTails:
            def standard_cauchy(self, size):
                return np.full(size, 1e30)

        dom = preset("unit-disk")
        with pytest.raises(DegenerateSample):
            dom.sample(RegionTag.INTERIOR, 5, HugeTails())

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_boundary_rows_are_the_per_call_stream(self, name):
        # boundary calls draw x only, so a row takes one Cauchy number per
        # point; the open regions are checked through the falsifier's draw
        dom = preset(name)
        counts = np.arange(12) % 5
        for seed in range(10):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            rows = dom.sample_rows(RegionTag.BOUNDARY, counts, rng)
            ref = np.concatenate([dom.sample(RegionTag.BOUNDARY, c, ref_rng)
                                  for c in counts.tolist()])
            got = rows[np.arange(rows.shape[1]) < counts[:, None]]
            assert got.tobytes() == ref.tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_sampling_deterministic(self):
        dom = preset("unit-disk")
        a = dom.sample(RegionTag.INTERIOR, 64, np.random.default_rng(9))
        b = dom.sample(RegionTag.INTERIOR, 64, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)


class TestMapAlgebra:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_pullback_inverts_image(self, name):
        dom = preset(name)
        rng = np.random.default_rng(13)
        zs = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        den = dom.c * zs + dom.d
        zs = zs[np.abs(den) > 1e-6]
        back = dom.pullback(dom.image(zs))
        np.testing.assert_allclose(back, zs, rtol=1e-10, atol=1e-12)

    def test_pole_property(self):
        assert preset("upper-half-plane").pole is None
        assert preset("unit-disk").pole == -1


class TestRegionClass:
    def test_contains_matrix(self):
        I, B, E = RegionTag.INTERIOR, RegionTag.BOUNDARY, RegionTag.EXTERIOR
        assert RegionClass.INTERIOR.contains(I)
        assert not RegionClass.INTERIOR.contains(B)
        assert RegionClass.CLOSURE.contains(B)
        assert not RegionClass.CLOSURE.contains(E)
        assert RegionClass.COMPLEMENT.contains(E)
        assert RegionClass.COMPLEMENT.contains(B)
        assert not RegionClass.COMPLEMENT.contains(I)
        assert RegionClass.EXTERIOR.contains(E)

    def test_outside_class_involution(self):
        for cls in RegionClass:
            assert cls.outside_class.outside_class is cls

    def test_robust_membership(self):
        dom = preset("upper-half-plane")
        assert dom.robustly_in(RegionClass.INTERIOR, 1j, 1e-6)
        assert not dom.robustly_in(RegionClass.INTERIOR, 1j, 2.0)
        assert dom.robustly_in(RegionClass.CLOSURE, 0.0, 1e-12)
        assert not dom.robustly_in(RegionClass.CLOSURE, 0.0, 1.0)
        assert not dom.robustly_in(RegionClass.EXTERIOR, 0.0, 1e-12)
        assert not dom.robustly_in(RegionClass.INTERIOR, 1j, float("inf"))

    def test_band_tags_points_but_does_not_vouch_for_roots(self):
        # the band half-width at |z| ~ 1e5 is about 6, so this point tags
        # boundary; a root there with a tiny uncertainty ball is still
        # provably below the axis, in neither closure-side claim
        dom = preset("upper-half-plane")
        z = 109729 - 4.18j
        assert dom.classify(z) is RegionTag.BOUNDARY
        assert dom.classify(z.conjugate()) is RegionTag.BOUNDARY
        assert not dom.robustly_in(RegionClass.CLOSURE, z, 3.1e-8)
        assert not dom.robustly_in(RegionClass.COMPLEMENT, z.conjugate(), 3.1e-8)
        assert dom.robustly_in(RegionClass.COMPLEMENT, z, 3.1e-8)
        assert dom.robustly_in(RegionClass.CLOSURE, z.conjugate(), 3.1e-8)

    def test_boundary_roots_up_to_rounding_stay_in_closure(self):
        dom = preset("upper-half-plane")
        assert dom.robustly_in(RegionClass.CLOSURE, 1 + 0j, 2e-13)
        assert dom.robustly_in(RegionClass.CLOSURE, 6e-66 - 6e-66j, 0.0)
        assert dom.robustly_in(RegionClass.COMPLEMENT, 6e-66 + 6e-66j, 0.0)
