"""Property-based checks (Hypothesis) of the numerical kernels."""

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from rootcert import BiPoly, Poly, base_symbol, from_roots, preset, roots
from rootcert.poly import (CLUSTER_RADIUS, TRIM_TOL, _EPS, _SPLIT_NOISE,
                           _RootResolver, _aberth_points, _expand_rows, _finalize_points,
                           _simple_multisets, _trimmed_degrees, roots_batch)
from rootcert.symbols import _chart, _core_cofactor, _interior_counts

from conftest import build_battery

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
        pts = _aberth_points(row[None, :])
        ref = _finalize_points(row, pts[0])
        assert rm.multiplicities == ref.multiplicities
        if m == 1:
            assert _simple_multisets(row[None, :], pts)[0] is not None
            assert rm.multiplicities == (1,) * (len(row) - 1)
            for (a, _), (b, _) in zip(rm.entries, ref.entries):
                assert abs(a - b) <= 1e-12 * abs(b)
        else:
            assert m in rm.multiplicities


def _planted_cluster(seed, m, simple, depth=None, angle=0.0):
    """Coefficients with an m-fold root c and `simple` simple roots, moduli
    log-uniform on [0.1, 10], each pair farther apart than four link radii.
    With depth set, one more simple root sits at c + near, |near| being
    10**-depth link radii.  Returns (coeffs, c, near)."""
    rng = np.random.default_rng(seed)
    d = m + simple + (depth is not None)

    def link(z):
        return max(CLUSTER_RADIUS, _SPLIT_NOISE ** (1.0 / d)) * max(1.0, abs(z))

    pts = []
    while len(pts) < simple + 1:
        z = 10.0 ** rng.uniform(-1, 1) * np.exp(2j * np.pi * rng.random())
        if all(abs(z - o) > 4.0 * link(max(abs(z), abs(o))) for o in pts):
            pts.append(z)
    c = pts[0]
    planted = [c] * m + pts[1:]
    near = None
    if depth is not None:
        near = link(c) * 10.0 ** -depth * np.exp(2j * np.pi * angle)
        planted.append(c + near)
    lead = rng.standard_normal() + 1j * rng.standard_normal()
    return np.poly(planted)[::-1] * lead, c, near


def _ring_scale(coeffs, c, m):
    """Radius of the ring that rounding spreads an m-fold root c into:
    (eps * L1 bound at |c| / |p^(m)(c) / m!|)**(1/m)."""
    q = coeffs
    for _ in range(m):
        q = q[1:] * np.arange(1, len(q))
    top = abs(np.polyval(q[::-1], c)) / math.factorial(m)
    return (_EPS * np.polyval(np.abs(coeffs)[::-1], abs(c)) / top) ** (1.0 / m)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(m=st.integers(2, 6), simple=st.integers(0, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_resolver_returns_a_planted_multiple_root(m, simple, seed):
    # one planted m-fold root, every simple root outside the link radius
    coeffs, _, _ = _planted_cluster(seed, m, simple)
    assert sorted(roots(Poly(coeffs)).multiplicities) == [1] * simple + [m]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(m=st.integers(4, 6), simple=st.integers(0, 3),
       seed=st.integers(0, 2 ** 32 - 1), depth=st.floats(0.0, 2.0),
       angle=st.floats(0.0, 1.0))
def test_resolver_keeps_a_simple_root_beside_a_multiple_one(m, simple, seed,
                                                            depth, angle):
    # one more simple root inside the link radius of the m-fold root, at
    # least 10 ring scales from it, where the planted center passes the
    # derivative ladder: the cluster resolves to the m-fold center plus one
    # leftover point.  For m = 2 and 3 the ladder's thresholds, not the
    # ring, set how close a simple root may come (it is merged or misplaced
    # by about its distance), so those are left out.  The error bound is
    # 1e-3 ring scales; the worst of 523 such draws was 3.1e-4
    coeffs, c, near = _planted_cluster(seed, m, simple, depth, angle)
    ring = _ring_scale(coeffs, c, m)
    assume(abs(near) >= 10 * ring and _RootResolver(coeffs)._validated(c, m))
    rm = roots(Poly(coeffs))
    assert sorted(rm.multiplicities) == [1] * (simple + 1) + [m]
    err = min(abs(r - (c + near)) for r, k in rm.entries if k == 1)
    assert err <= 1e-3 * ring


def _root_rows(seed, shape, log_scale):
    rng = np.random.default_rng(seed)
    return (rng.standard_cauchy(shape) + 1j * rng.standard_cauchy(shape)) \
        * 10.0 ** log_scale


@settings(max_examples=100, deadline=None, derandomize=True)
@given(shape=st.tuples(st.integers(1, 12), st.integers(0, 8)),
       seed=st.integers(0, 2 ** 32 - 1),
       log_scale=st.integers(-4, 4),
       lead=st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3))
def test_from_roots_row_alone_equals_its_batch_row(shape, seed, log_scale, lead):
    root_rows = _root_rows(seed, shape, log_scale)
    batch = _expand_rows(root_rows, lead)
    for i, row in enumerate(root_rows):
        assert from_roots(row, lead).coeffs.tobytes() == batch[i].tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(degree=st.integers(0, 8),
       seed=st.integers(0, 2 ** 32 - 1),
       log_scale=st.integers(-4, 4))
def test_from_roots_matches_a_convolution_product(degree, seed, log_scale):
    # the factors are multiplied in by a recurrence, not np.convolve; the two
    # differ only by rounding, measured against the coefficients of
    # prod(z + |r|), which bound every partial product
    rts = _root_rows(seed, degree, log_scale)
    ref = np.ones(1, dtype=np.complex128)
    for r in rts:
        ref = np.convolve(ref, np.array([-r, 1.0]))
    scale = np.abs(from_roots(-np.abs(rts)).coeffs)
    assert np.all(np.abs(from_roots(rts).coeffs - ref) <= 1e-14 * scale)


def _apply_loop(op, p):
    """The operator applied one image at a time, skipping zero coefficients."""
    d = p.degree()
    if d is None:
        return np.zeros(1, dtype=np.complex128)
    width = max(op.images[k].coeffs.size for k in range(d + 1))
    acc = np.zeros(width, dtype=np.complex128)
    for k in range(d + 1):
        if p.coeffs[k] != 0:
            acc[: op.images[k].coeffs.size] += p.coeffs[k] * op.images[k].coeffs
    return acc


BATTERY = build_battery()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(BATTERY)),
       rows=st.lists(st.tuples(st.integers(-1, 8), st.booleans()),
                     min_size=1, max_size=10),
       seed=st.integers(0, 2 ** 32 - 1))
def test_batched_apply_matches_apply_row_by_row(name, rows, seed):
    # degree -1 gives a zero row; a flagged row has its leading coefficient
    # below TRIM_TOL, so it trims to a lower degree
    op = BATTERY[name]
    rng = np.random.default_rng(seed)
    block = np.zeros((len(rows), op.horizon + 1), dtype=np.complex128)
    for i, (d, small_lead) in enumerate(rows):
        block[i, : d + 1] = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
        if small_lead and d >= 0:
            block[i, d] *= 0.1 * TRIM_TOL / np.abs(block[i, d])
    images = op.apply_rows(block)
    for row, image in zip(block, images):
        ref = op.apply(Poly(row)).coeffs
        assert ref.tobytes() == _apply_loop(op, Poly(row)).tobytes()
        assert image[: ref.size].tobytes() == ref.tobytes()
        assert not image[ref.size:].any()


def _trim_reference(row, trim_tol):
    """Last index whose magnitude exceeds trim_tol times the row's largest, by loop."""
    top = max(abs(complex(c)) for c in row)
    last = -1
    for i, c in enumerate(row):
        if abs(complex(c)) > trim_tol * top:
            last = i
    return last


@settings(max_examples=200, deadline=None, derandomize=True)
@given(shape=st.tuples(st.integers(1, 8), st.integers(1, 10)),
       seed=st.integers(0, 2 ** 32 - 1),
       zero_share=st.floats(0.0, 1.0),
       trim_tol=st.sampled_from([0.0, TRIM_TOL]))
def test_trimmed_degrees_follow_the_trim_rule(shape, seed, zero_share, trim_tol):
    # zeroed entries make zero rows and trailing zeros; entries 1e-13 below
    # the row scale sit under TRIM_TOL but are nonzero
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rows[rng.random(shape) < zero_share] = 0
    tiny = rng.random(shape) < 0.2
    rows[tiny] *= 1e-13
    degs = _trimmed_degrees(rows, trim_tol)
    for row, d in zip(rows, degs.tolist()):
        assert d == _trim_reference(row, trim_tol)
        assert _trimmed_degrees(row, trim_tol) == d
        if trim_tol == 0.0:
            assert d == max(np.flatnonzero(row).tolist(), default=-1)
        else:
            assert Poly(row).degree() == (None if d < 0 else d)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
       seed=st.integers(0, 2 ** 32 - 1),
       zero_share=st.floats(0.0, 1.0),
       log_scale=st.integers(-8, 8))
def test_bipoly_degrees_follow_the_trim_rule(shape, seed, zero_share, log_scale):
    rng = np.random.default_rng(seed)
    C = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
        * 10.0 ** log_scale
    C[rng.random(shape) < zero_share] = 0
    C[rng.random(shape) < 0.2] *= 1e-13
    F = BiPoly(C)
    top = np.abs(C).max()
    live = np.abs(C) > TRIM_TOL * top
    z_rows = [i for i in range(shape[0]) if live[i].any()]
    w_cols = [j for j in range(shape[1]) if live[:, j].any()]
    assert F.z_degree() == (z_rows[-1] if z_rows else None)
    assert F.w_degree() == (w_cols[-1] if w_cols else None)
    assert F.is_zero() == (top == 0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(kinds=st.lists(st.tuples(st.sampled_from(["zero", "constant", "random",
                                                  "small-tail", "double"]),
                                 st.integers(1, 8)),
                      min_size=1, max_size=10),
       padding=st.integers(0, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_batch_rows_equal_roots_of_each_row(kinds, padding, seed):
    # a row rooted inside a block, next to rows of other degrees and kinds,
    # equals roots() of that row alone, multiplicities and residual included
    rng = np.random.default_rng(seed)
    width = max(d for _, d in kinds) + 2 + padding
    block = np.zeros((len(kinds), width), dtype=np.complex128)
    for row, (kind, d) in zip(block, kinds):
        if kind == "constant":
            row[0] = rng.standard_normal() + 1j * rng.standard_normal()
        elif kind == "random":
            row[: d + 1] = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
        elif kind == "small-tail":
            row[: d + 1] = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
            row[d + 1] = 0.1 * TRIM_TOL * np.abs(row).max()
        elif kind == "double":
            rts = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            rts[-1] = rts[0]
            row[: d + 1] = from_roots(rts).coeffs
    got = roots_batch(block)
    # as a ragged sequence, zero-padded by roots_batch itself
    assert roots_batch([row[: d + 2] for row, (_, d) in zip(block, kinds)]) == got
    for row, rm in zip(block, got):
        if not row.any():
            assert rm is None
        else:
            assert rm == roots(Poly(row))


def _charted_roots_count(preset_name, roots_t, lead):
    """_interior_counts of lead * prod (z - z_i), z_i the points the domain's
    chart sends to roots_t."""
    dom = preset(preset_name)
    M = _chart(dom, 1)      # row k: (delta t - beta)^k (alpha - gamma t)^(1 - k)
    alpha, gamma = M[0, 0], -M[0, 1]
    beta, delta = -M[1, 0], M[1, 1]
    t = np.asarray(roots_t, dtype=np.complex128)
    # t = alpha/gamma is the image of z = infinity (t = 0 on the exterior disk)
    assume(np.all(np.abs(alpha - gamma * t) >= 0.1 * np.abs(gamma)))
    z = (delta * t - beta) / (alpha - gamma * t)
    row = lead * from_roots(z).coeffs
    count, certain = _interior_counts(row[None, :], np.array([len(z)]),
                                      np.abs(row)[None, :], dom)
    return int(count[0]), bool(certain[0])


_ANGLE = st.floats(0.0, 2 * math.pi)
_INSIDE = st.tuples(st.floats(0.0, 0.9), _ANGLE)
_OUTSIDE = st.tuples(st.floats(1.1, 10.0), _ANGLE)
_LEAD = st.tuples(st.floats(-3, 3), _ANGLE)


def _points(polar):
    return [r * complex(math.cos(a), math.sin(a)) for r, a in polar]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(preset_name=st.sampled_from(PRESET_NAMES),
       inside=st.booleans(),
       polar=st.data(),
       lead=_LEAD)
def test_chart_roots_on_one_side_of_the_circle_are_counted(preset_name, inside,
                                                          polar, lead):
    # roots planted at |t| <= 0.9, or all at |t| >= 1.1, in the chart give
    # the exact count with certainty
    roots_t = _points(polar.draw(st.lists(_INSIDE if inside else _OUTSIDE,
                                          min_size=1, max_size=9)))
    count, certain = _charted_roots_count(
        preset_name, roots_t, 10.0 ** lead[0] * complex(math.cos(lead[1]),
                                                        math.sin(lead[1])))
    assert certain and count == (len(roots_t) if inside else 0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(preset_name=st.sampled_from(PRESET_NAMES),
       inner=st.lists(_INSIDE, max_size=5),
       outer=st.lists(_OUTSIDE, max_size=4))
def test_certain_counts_of_chart_roots_are_exact(preset_name, inner, outer):
    # with roots on both sides, Schur-Cohn meets singular steps where no
    # root is near the circle: (t - 0.5)(t - 2) has |a0| = |a2|.  Such rows
    # must come out uncertain, never with a wrong count
    assume(inner or outer)
    count, certain = _charted_roots_count(preset_name,
                                          _points(inner) + _points(outer), 1.0)
    assert not certain or count == len(inner)
