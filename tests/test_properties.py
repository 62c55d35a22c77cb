"""Property-based checks (Hypothesis) of the numerical kernels."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rootcert import (BiPoly, MoebiusDomain, Poly, RegionClass, base_symbol,
                      from_roots, preset, roots)
from rootcert.certify import _rows_to_root
from rootcert.domains import _TAG_BY_CODE
from rootcert.poly import (CLUSTER_RADIUS, TRIM_TOL, _EPS, _SPLIT_NOISE,
                           _RootResolver, _expand_rows, _finalize_points, _row_roots,
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
    # resolver on the same root points, and rows with a planted double
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
        pts = _row_roots(row[None, :])
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
    # with per-row degrees, row i takes only its first degrees[i] roots and
    # is zero-padded to the batch width; real rows give signed zeros, which
    # a row past its degree must keep
    rng = np.random.default_rng(seed)
    degrees = rng.integers(0, shape[1] + 1, shape[0])
    real = rng.random(shape[0]) < 0.5
    root_rows[real] = root_rows[real].real
    root_rows.imag[real] = np.copysign(0.0, rng.standard_normal(root_rows[real].shape))
    for c in (lead, complex(-abs(lead), -0.0)):
        batch = _expand_rows(root_rows, c, degrees)
        assert batch.shape == (shape[0], shape[1] + 1)
        for i, (row, d) in enumerate(zip(root_rows, degrees.tolist())):
            alone = np.zeros(shape[1] + 1, dtype=np.complex128)
            alone[: d + 1] = from_roots(row[:d], c).coeffs
            assert alone.tobytes() == batch[i].tobytes()


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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(degree=st.integers(2, 9), count=st.integers(1, 8),
       seed=st.integers(0, 2 ** 32 - 1))
def test_noise_level_top_coefficient_leaves_no_false_root(degree, count, seed):
    # Gaussian rows whose top coefficient is at noise level: one root near
    # 1/|top|, the others O(1).  Every entry must be a root, by a residual
    # scaled by the row's L1 evaluation bound.  Rows with a root below 1e-6
    # (Cauchy's lower bound) are left out: CLUSTER_RADIUS is absolute and
    # may merge two such roots into one entry that is not a root.
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((count, degree + 1)) \
        + 1j * rng.standard_normal((count, degree + 1))
    rows[:, -1] = rng.uniform(1e-16, 2e-16, count) \
        * np.exp(2j * np.pi * rng.random(count))
    low = np.abs(rows[:, 0]) / (np.abs(rows[:, 0]) + np.abs(rows[:, 1:]).max(axis=1))
    assume(np.all(low > 1e-6))
    for row, rm in zip(rows, roots_batch(rows, trim_tol=0.0)):
        assert rm.total_multiplicity() == degree
        for r, _ in rm.entries:
            bound = np.polyval(np.abs(row)[::-1], abs(r))
            assert abs(np.polyval(row[::-1], r)) <= 1e-12 * bound


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


def _domain(index, tol):
    """Preset index (0-3) or one of 20 seeded random domains (4-23)."""
    if index < len(PRESET_NAMES):
        return preset(PRESET_NAMES[index], tol=tol)
    rng = np.random.default_rng([25, index])
    a, b, c, d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return MoebiusDomain(a, b, c, d, tol=tol)


def _chart_coefficients(dom):
    """alpha, beta, gamma, delta of the chart t = (alpha z + beta) /
    (gamma z + delta) = (zeta - i) / (zeta + i)."""
    return (dom.a - 1j * dom.c, dom.b - 1j * dom.d,
            dom.a + 1j * dom.c, dom.b + 1j * dom.d)


def _from_chart(dom, t):
    alpha, beta, gamma, delta = _chart_coefficients(dom)
    return (delta * t - beta) / (alpha - gamma * t)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(index=st.integers(0, 23),
       log_tol=st.floats(-12, math.log10(0.5)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_boundary_band_is_an_annulus_in_the_chart(index, log_tol, seed):
    # tag_codes is interior exactly when |t|^2 < (1 - tol) / (1 + tol) and
    # exterior exactly when |t|^2 > (1 + tol) / (1 - tol).  Cauchy points,
    # and points at relative distances 1e-11..1e-3 either side of each edge
    tol = 10.0 ** log_tol
    dom = _domain(index, tol)
    rng = np.random.default_rng(seed)
    lo, hi = (1 - tol) / (1 + tol), (1 + tol) / (1 - tol)
    edge = np.repeat([lo, hi], 100) \
        * (1 + rng.choice([-1.0, 1.0], 200) * 10.0 ** rng.uniform(-11, -3, 200))
    t = np.sqrt(edge) * np.exp(2j * np.pi * rng.random(200))
    z = np.concatenate([rng.standard_cauchy(200) + 1j * rng.standard_cauchy(200),
                        _from_chart(dom, t)])
    alpha, beta, gamma, delta = _chart_coefficients(dom)
    t2 = np.abs((alpha * z + beta) / (gamma * z + delta)) ** 2
    clear = (np.abs(t2 - lo) > 1e-12 * lo) & (np.abs(t2 - hi) > 1e-12 * hi)
    expected = np.where(t2 < lo, 1, np.where(t2 > hi, -1, 0))
    assert np.array_equal(dom.tag_codes(z)[clear], expected[clear])


def _chart_radii(rng, d, r_in, layout):
    """d chart radii: inside |t| < r_in, outside |t| > 1 / r_in, or both;
    some at 1e-9..1e-2 relative from an edge, and on the circle."""
    r_out = 1.0 / r_in
    near_in = r_in * (1 - 10.0 ** rng.uniform(-9, -2, d))
    near_out = r_out * (1 + 10.0 ** rng.uniform(-9, -2, d))
    pools = {"inside": [r_in * rng.random(d), near_in],
             "outside": [r_out / rng.random(d), near_out],
             "both": [r_in * rng.random(d), near_in, np.ones(d), near_out,
                      r_out / rng.random(d)]}[layout]
    radii = np.choose(rng.integers(len(pools), size=d), pools)
    if rng.random() < 0.2:
        radii[rng.integers(d)] = 1.0      # a point on the boundary
    return radii


@settings(max_examples=200, deadline=None, derandomize=True)
@given(index=st.integers(0, 23),
       tol=st.sampled_from([1e-9, 1e-3, 0.3]),
       target=st.sampled_from(list(RegionClass)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_rows_the_falsifier_skips_keep_their_roots_in_the_target(index, tol, target,
                                                                 seed):
    # rows of degree 1-9 whose roots are drawn in the chart: a row that
    # _rows_to_root leaves out must have every roots_batch root tagged in
    # the target, as the falsifier would have tagged it
    dom = _domain(index, tol)
    alpha, _, gamma, _ = _chart_coefficients(dom)
    r_in = math.sqrt((1 - tol) / (1 + tol))
    rng = np.random.default_rng(seed)
    block = np.zeros((32, 10), dtype=np.complex128)
    block[1, 0] = 1.0                     # a constant; row 0 stays zero
    for row in block[2:]:
        d = int(rng.integers(1, 10))
        radii = _chart_radii(rng, d, r_in, rng.choice(["inside", "outside", "both"]))
        t = radii * np.exp(2j * np.pi * rng.random(d))
        # t = alpha / gamma is the image of z = infinity
        if np.any(np.abs(alpha - gamma * t) < 0.1 * abs(gamma)):
            continue
        lead = 10.0 ** rng.uniform(-3, 3) * np.exp(2j * np.pi * rng.random())
        row[: d + 1] = from_roots(_from_chart(dom, t), lead).coeffs
    rooted = set(_rows_to_root(block, dom, target).tolist())
    for i, rm in enumerate(roots_batch(block)):
        if i in rooted or rm is None:
            continue
        codes = dom.tag_codes([r for r, _ in rm.entries]).tolist()
        assert all(target.contains(_TAG_BY_CODE[c]) for c in codes), (i, codes)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(index=st.integers(0, 23),
       tol=st.sampled_from([1e-9, 1e-3, 0.3]),
       edge=st.sampled_from(["one", "inner", "outer"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_mixed_degree_counts_equal_per_degree_calls(index, tol, edge, seed):
    # one _interior_counts call on rows of degrees 0-9 in any order gives
    # each row the count and flag, bit for bit, of a call on its degree
    # group alone, at radius 1 and at the band-edge radii of _rows_to_root
    dom = _domain(index, tol)
    alpha, _, gamma, _ = _chart_coefficients(dom)
    r_in = math.sqrt((1 - tol) / (1 + tol))
    radius = {"one": 1.0, "inner": r_in, "outer": 1.0 / r_in}[edge]
    rng = np.random.default_rng(seed)
    degrees = rng.integers(0, 10, 48)
    block = np.zeros((48, 10), dtype=np.complex128)
    for row, d in zip(block, degrees.tolist()):
        if d and rng.random() < 0.5:
            # roots near the counting circles, where counts turn uncertain
            t = _chart_radii(rng, d, r_in, "both") * np.exp(2j * np.pi * rng.random(d))
            t = np.where(np.abs(alpha - gamma * t) < 0.1 * abs(gamma), 0.5 * t, t)
            row[: d + 1] = from_roots(_from_chart(dom, t)).coeffs
        else:
            row[: d + 1] = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
    natural = np.abs(block) * (1 + rng.random(block.shape))
    count, certain = _interior_counts(block, degrees, natural, dom, radius)
    for d in range(10):
        idx = np.flatnonzero(degrees == d)
        alone = _interior_counts(block[idx], degrees[idx], natural[idx], dom, radius)
        assert count[idx].tobytes() == alone[0].tobytes()
        assert certain[idx].tobytes() == alone[1].tobytes()


@pytest.mark.xfail(strict=True, reason="ROADMAP item 17: the multiplicity "
                   "resolver merges distinct small roots into an entry that "
                   "is no root")
def test_every_root_entry_has_a_small_residual_on_widely_scaled_rows():
    # rows of degree 2-9 whose coefficients span up to 16 decades
    rng = np.random.default_rng(2)
    degrees = rng.integers(2, 10, 1000)
    rows = rng.standard_normal((1000, 10)) * 10.0 ** rng.uniform(-16, 0, (1000, 10))
    rows[np.arange(10) > degrees[:, None]] = 0
    failed = 0
    for row, rm in zip(rows, roots_batch(rows, trim_tol=0.0)):
        failed += any(abs(np.polyval(row[::-1], r))
                      > 1e-12 * np.polyval(np.abs(row)[::-1], abs(r))
                      for r, _ in rm.entries)
    assert failed == 0
