"""Property-based checks (Hypothesis) of the numerical kernels."""

import numpy as np
from hypothesis import given, settings, strategies as st

from rootcert import BiPoly, base_symbol, preset
from rootcert.poly import (CLUSTER_RADIUS, MAX_ITERS, _SPLIT_NOISE, _aberth_points,
                           _finalize_points, _simple_multisets, roots_batch)
from rootcert.symbols import _core_cofactor

PRESET_NAMES = ("upper-half-plane", "lower-half-plane", "unit-disk",
                "exterior-unit-disk")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(preset_name=st.sampled_from(PRESET_NAMES),
       shape=st.tuples(st.integers(1, 5), st.integers(1, 4)),
       m=st.integers(0, 6),
       seed=st.integers(0, 2 ** 32 - 1),
       log_scale=st.integers(-6, 6),
       sparse=st.booleans())
def test_core_division_recovers_power_and_cofactor(preset_name, shape, m, seed,
                                                   log_scale, sparse):
    # G has Gaussian entries, so B1 divides it with probability zero; sparse
    # draws zero out some entries, which may lower G's bidegree
    dom = preset(preset_name)
    rng = np.random.default_rng(seed)
    G = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
        * 10.0 ** log_scale
    if sparse:
        G[rng.random(shape) < 0.4] = 0
        G.flat[rng.integers(G.size)] = 10.0 ** log_scale
    F = base_symbol(dom, m) * BiPoly(G)
    cofactor, power = _core_cofactor(F, dom)
    assert power == m
    got = cofactor.coeffs
    assert got.shape[0] <= G.shape[0] and got.shape[1] <= G.shape[1]
    padded = np.zeros_like(G)
    padded[: got.shape[0], : got.shape[1]] = got
    assert np.abs(padded - G).max() <= 1e-10 * np.abs(G).max()


def _separated_roots(rng, count, d, existing=()):
    """count roots with moduli log-uniform on [1e-3, 1e3], each pair (also
    against existing) farther apart than twice the resolver's link radius
    at degree d."""
    spread = 2.0 * max(CLUSTER_RADIUS, _SPLIT_NOISE ** (1.0 / d))
    out = list(existing)
    while len(out) < len(existing) + count:
        z = 10.0 ** rng.uniform(-3, 3) * np.exp(2j * np.pi * rng.random())
        if all(abs(z - o) > spread * max(1.0, abs(z), abs(o)) for o in out):
            out.append(z)
    return out[len(existing):]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(degrees=st.lists(st.integers(1, 9), min_size=1, max_size=12),
       planted=st.lists(st.tuples(st.integers(3, 9), st.integers(2, 3)),
                        max_size=3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_simple_rows_match_the_resolver(degrees, planted, seed):
    # simple rows are finished in bulk; each must agree with the one-by-one
    # resolver on the same iteration points, and rows with a planted double
    # or triple root in the same batch must keep the resolver's multiplicities
    rng = np.random.default_rng(seed)
    batch, kinds = [], []
    for d in degrees:
        batch.append(_separated_roots(rng, d, d))
        kinds.append(1)
    for d, m in planted:
        center = _separated_roots(rng, 1, d)[0]
        batch.append([center] * m + _separated_roots(rng, d - m, d, [center]))
        kinds.append(m)
    lead = rng.standard_normal(len(batch)) + 1j * rng.standard_normal(len(batch))
    rows = [np.poly(r)[::-1] * c for r, c in zip(batch, lead)]
    got = roots_batch(rows, trim_tol=0.0)      # coefficients span beyond TRIM_TOL
    for row, rm, m in zip(rows, got, kinds):
        pts = _aberth_points(row[None, :], MAX_ITERS)
        ref = _finalize_points(row, pts[0], CLUSTER_RADIUS)
        assert rm.multiplicities == ref.multiplicities
        if m == 1:
            assert _simple_multisets(row[None, :], pts, CLUSTER_RADIUS)[0] is not None
            assert rm.multiplicities == (1,) * (len(row) - 1)
            for (a, _), (b, _) in zip(rm.entries, ref.entries):
                assert abs(a - b) <= 1e-12 * abs(b)
        else:
            assert m in rm.multiplicities
