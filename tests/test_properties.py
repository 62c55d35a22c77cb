"""Property-based checks (Hypothesis) of the exact numerical kernels."""

import numpy as np
from hypothesis import given, settings, strategies as st

from rootcert import BiPoly, base_symbol, preset
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
