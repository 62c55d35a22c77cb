"""Base symbols, operator symbols, and the numerical nonvanishing search.

The base symbol of a domain is the bivariate polynomial
((az+b)(cw+d) + (aw+b)(cz+d))**n; applying an operator to its z-variable
produces the operator symbol whose zero set over region pairs decides
class membership.  The search below samples the w-region and slices.  For
the interior claim it counts each slice's interior roots by a Schur-Cohn
recursion in a Moebius chart onto the unit disk, and roots and classifies
only the slices whose count is positive or uncertain; in closure mode it
classifies every slice root against the z-region.  A pass is explicitly
budget-qualified evidence, while a witness is a definitive, re-verified
refutation.  Before slicing, the search divides out every factor of the
degree-1 base symbol that the symbol carries exactly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .domains import MoebiusDomain, RegionClass, RegionTag
from .errors import DegreeOutOfRange, ZeroInput
from .operators import LinearOperator
from .poly import BiPoly, TRIM_TOL, _EPS, _polyval, root_uncertainty, roots_batch

ZERO_TOL = 1e-8
DEFAULT_W_SAMPLES = 512
# A quotient by the degree-1 base symbol is accepted only if it rebuilds the
# dividend to this relative accuracy.  On the test battery's symbols up to
# degree 8 on the four presets, exact divisions rebuild within 3e-14 and
# non-divisions leave at least 5e-4.
CORE_RTOL = 1e-12
# A slice's interior-root count is trusted only when every Schur-Cohn step
# has ||a0|**2 - |an|**2| above COUNT_GAP (rows normalized to a largest
# coefficient of 1) and eps times the product of the steps' amplifications
# (|a0|**2 + |an|**2) / ||a0|**2 - |an|**2| stays below COUNT_AMPLIFICATION.
# With the gap alone, 86 slices of the test battery on the four presets at
# seed 0 (128 samples) were over-counted and 4 under-counted against their
# tagged roots, all of diag-2^k and diag-inv-factorial at n >= 4 and large
# |w|.  With both bounds, no certain count disagreed with the tagged roots
# on that battery at seeds 0-2, on 40 random custom domains, or on 36,000
# random rows with Cauchy roots.
COUNT_GAP = 1e-8
COUNT_AMPLIFICATION = 1e-2


@dataclass(frozen=True)
class ZeroWitness:
    """A re-verified numerical zero of a bivariate polynomial in a region pair."""

    z: complex
    w: complex
    value: float            # |F(z, w)| at the reported point
    refined: bool


@dataclass(frozen=True)
class NonvanishingResult:
    """Outcome of a sampling search: a witness, or no zero within the budget."""

    witness: ZeroWitness | None
    w_samples: int
    zero_slices: int = 0
    rejected_candidates: int = 0
    core_power: int = 0     # factors of the degree-1 base symbol divided out
    uncertain_rows: int = 0  # distinct slices whose interior count was uncertain
    rooted_rows: int = 0     # distinct slices passed to roots_batch

    @property
    def found(self) -> bool:
        return self.witness is not None


@functools.lru_cache(maxsize=64)
def base_symbol(dom: MoebiusDomain, n: int) -> BiPoly:
    """((az+b)(cw+d) + (aw+b)(cz+d)) ** n, symmetric in (z, w) by construction;
    cached per (domain, n), which is safe since a BiPoly is immutable."""
    a, b, c, d = dom.a, dom.b, dom.c, dom.d
    cross = a * d + b * c
    core = BiPoly([[2.0 * b * d, cross],
                   [cross, 2.0 * a * c]])
    return core ** n


def operator_symbol(op: LinearOperator, dom: MoebiusDomain, n: int) -> BiPoly:
    """The operator applied to the degree-n base symbol; may be identically zero."""
    if not 0 <= n <= op.horizon:
        raise DegreeOutOfRange(
            f"symbol degree n = {n} is outside 0..{op.horizon}, the operator horizon")
    return op.apply_bivariate(base_symbol(dom, n))


def _divide_once(F: np.ndarray, K: np.ndarray, pivot: tuple[int, int]) -> np.ndarray:
    """G with F = K * G for a 2x2 bivariate kernel K, by a triangular
    recurrence; when K does not divide F the result fails to rebuild F.

    G[gi, gj] is solved from the equation for F[gi + pi, gj + pj], where the
    pivot coefficient K[pi, pj] multiplies it.  Sweeping up each axis whose
    pivot index is 0 and down each axis whose pivot index is 1 makes every
    other term of that equation an entry of G solved before.
    """
    rows, cols = F.shape[0] - 1, F.shape[1] - 1
    pi, pj = pivot
    f = F.tolist()
    g = [[0j] * cols for _ in range(rows)]
    others = [(pi - p, pj - q, complex(K[p, q])) for p in (0, 1) for q in (0, 1)
              if (p, q) != pivot and K[p, q] != 0]
    piv = complex(K[pi, pj])
    for gi in (range(rows) if pi == 0 else range(rows - 1, -1, -1)):
        for gj in (range(cols) if pj == 0 else range(cols - 1, -1, -1)):
            acc = f[gi + pi][gj + pj]
            for di, dj, k in others:
                i, j = gi + di, gj + dj
                if 0 <= i < rows and 0 <= j < cols:
                    acc -= k * g[i][j]
            g[gi][gj] = acc / piv
    return np.array(g, dtype=np.complex128)


def _core_cofactor(F: BiPoly, dom: MoebiusDomain) -> tuple[BiPoly, int]:
    """F / B1**m and m, for the largest m that divides F exactly.

    B1 = C + B*z + B*w + A*z*w is the degree-1 base symbol.  It has bidegree
    (1, 1) on every domain, since B**2 - A*C = (ad - bc)**2 != 0.  Each
    division pivots on B1's largest corner coefficient (C, A or B*z, first
    on ties), and a quotient counts only if it rebuilds the dividend to
    CORE_RTOL relative; the first that does not ends the division.  F itself
    comes back when m is 0.
    """
    core = base_symbol(dom, 1)
    K = core.coeffs
    pivot = max(((0, 0), (1, 1), (1, 0)), key=lambda c: abs(K[c]))
    zi, wj = np.nonzero(F.coeffs)
    cur = F.coeffs[: zi.max() + 1, : wj.max() + 1]
    m = 0
    while min(cur.shape) >= 2:
        G = _divide_once(cur, K, pivot)
        rebuilt = (core * BiPoly(G)).coeffs
        if not np.abs(cur - rebuilt).max() <= CORE_RTOL * np.abs(cur).max():
            break
        cur, m = G, m + 1
    return (BiPoly(cur) if m else F), m


def _as_rng(rng):
    if isinstance(rng, np.random.Generator) or hasattr(rng, "standard_cauchy"):
        return rng
    return np.random.default_rng(rng)


def _witness_scale(F: BiPoly, z: complex, w: complex) -> float:
    dz = F.z_degree() or 0
    dw = F.w_degree() or 0
    return F.max_abs() * max(1.0, abs(z)) ** dz * max(1.0, abs(w)) ** dw


def _slice_block(C: np.ndarray, ws: np.ndarray):
    """Row s holds the z-coefficients of the bivariate block C at w = ws[s].

    Returns the slices, their natural per-coefficient scales
    sum_j |C[i,j]| |ws[s]|^j, each slice's end (last kept entry + 1) and
    the indices of the live (not all-trimmed) slices.  Each slice is trimmed
    against its natural scale, not against its own maximum: heavy-tailed w
    give slices whose genuine leading coefficient sits many orders below
    the constant term, and trimming it would fabricate roots.  Each slice
    is zeroed past its last kept entry, which is nonzero, so roots_batch at
    trim_tol 0 ends it there too.
    """
    powers = ws[:, None] ** np.arange(C.shape[1])[None, :]
    slices = powers @ C.T
    natural = np.abs(powers) @ np.abs(C).T
    kept = ~(np.abs(slices) <= TRIM_TOL * natural)
    live = np.flatnonzero(kept.any(axis=1))
    ends = kept.shape[1] - np.argmax(kept[:, ::-1], axis=1)
    slices[np.arange(kept.shape[1]) >= ends[:, None]] = 0
    return slices, natural, ends, live


@functools.lru_cache(maxsize=64)
def _chart(dom: MoebiusDomain, d: int, radius: float = 1.0) -> np.ndarray:
    """The (d+1)x(d+1) matrix taking z**k coefficients of a degree-d row to
    the s**k coefficients of (alpha - gamma t)**d p((delta t - beta) /
    (alpha - gamma t)) at t = radius * s, where t = (alpha z + beta) /
    (gamma z + delta) maps the domain's interior onto the open unit disk;
    the roots in |s| < 1 are those in |t| < radius.

    With alpha, beta = a - ic, b - id and gamma, delta = a + ic, b + id,
    t = (zeta - i) / (zeta + i) for zeta = (az + b) / (cz + d); row k holds
    (delta t - beta)**k (alpha - gamma t)**(d - k), column k scaled by
    radius**k.  A root at the exterior point z = -delta/gamma goes to
    t = infinity: the charted row drops in degree.  Since
    (1 - |t|**2) / (1 + |t|**2) = side(z) / _sphere(z), the boundary band
    of tag_codes is the annulus (1 - tol) / (1 + tol) <= |t|**2 <=
    (1 + tol) / (1 - tol).
    """
    alpha, beta = dom.a - 1j * dom.c, dom.b - 1j * dom.d
    gamma, delta = dom.a + 1j * dom.c, dom.b + 1j * dom.d
    num, den = np.array([-beta, delta]), np.array([alpha, -gamma])
    M = np.empty((d + 1, d + 1), dtype=np.complex128)
    for k in range(d + 1):
        row = np.ones(1, dtype=np.complex128)
        for factor in [num] * k + [den] * (d - k):
            row = np.convolve(row, factor)
        M[k] = row
    M *= radius ** np.arange(d + 1)
    M.setflags(write=False)
    return M


def _disk_counts(q: np.ndarray, amp: np.ndarray, degrees: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Roots in the open unit disk of each row of q (t**k coefficients, roots
    at infinity allowed), and whether each count is certain; amp is each
    row's error amplification before the recursion.

    Row i has nominal degree degrees[i] >= 1, or q.shape[1] - 1 for every
    row when degrees is None; the rows come sorted by degree, highest first,
    with zeros above each row's degree.  At step n the rows of degree >= n
    are then a prefix of the block: a row joins the recursion at the step
    of its own degree and takes no step above it.  Every operation on a row
    is elementwise, so its count and flag are bit for bit those of a call
    on its degree group alone.

    Schur-Cohn: Tp = conj(a0) p - an p*, with p* the reversed conjugate,
    has nominal degree n - 1.  By Rouche on the circle, p and Tp have the
    same count when |a0| > |an|, and otherwise count(p) = n - count(Tp).
    A count is certain only when every step clears COUNT_GAP and the
    amplification, times eps, stays below COUNT_AMPLIFICATION.
    """
    m, width = q.shape
    # joins[n]: the number of rows of degree >= n, at each degree present
    joins = {width - 1: m} if degrees is None else \
        {d: i + 1 for i, d in enumerate(degrees.tolist())}
    k = joins[width - 1]
    p, amp_in, amp = q[:k], amp, amp[:k]
    sign = np.ones(k, dtype=np.int64)
    count = np.zeros(k, dtype=np.int64)
    certain = np.ones(k, dtype=bool)
    with np.errstate(all="ignore"):
        for n in range(width - 1, 0, -1):
            j = joins.get(n, k)
            if j > k:
                p = np.concatenate([p, q[k:j, : n + 1]])
                amp = np.concatenate([amp, amp_in[k:j]])
                sign = np.concatenate([sign, np.ones(j - k, dtype=np.int64)])
                count = np.concatenate([count, np.zeros(j - k, dtype=np.int64)])
                certain = np.concatenate([certain, np.ones(j - k, dtype=bool)])
                k = j
            top = np.abs(p).max(axis=1, keepdims=True)
            p = p / np.where(top > 0, top, 1.0)
            a0, an = p[:, :1], p[:, n: n + 1]
            lo, hi = (np.abs(a0) ** 2)[:, 0], (np.abs(an) ** 2)[:, 0]
            gap = np.abs(lo - hi)
            certain &= gap > COUNT_GAP
            amp = amp * (lo + hi) / gap
            flip = lo < hi
            count += np.where(flip, sign * n, 0)
            sign = np.where(flip, -sign, sign)
            p = np.conj(a0) * p[:, :n] - an * np.conj(p[:, n:0:-1])
    certain &= _EPS * amp < COUNT_AMPLIFICATION
    return count, certain


def _interior_counts(block: np.ndarray, degrees: np.ndarray, natural: np.ndarray,
                     dom: MoebiusDomain, radius: float = 1.0
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Roots of each row of degree >= 0 in the domain's interior, or in
    |t| < radius in its chart, and whether each count is certain.

    Each degree group is charted with its own matrix; padding rows before
    the chart would put roots at the image of z = infinity, which lies on
    the circle for the half-planes.  The charted groups are stacked highest
    degree first, zero-padded on the right, and counted in one _disk_counts
    call.  A row's error amplification starts at its rounding in the chart:
    its natural scale pushed through |chart| against the charted row's size.
    """
    count = np.zeros(len(degrees), dtype=np.int64)
    certain = np.ones(len(degrees), dtype=bool)
    groups = sorted(set(degrees.tolist()) - {0}, reverse=True)
    if not groups:
        return count, certain
    idxs, charted, amps = [], [], []
    for d in groups:
        idx = np.flatnonzero(degrees == d)
        M = _chart(dom, d, radius)
        q = block[idx, : d + 1] @ M
        with np.errstate(all="ignore"):
            amps.append((natural[idx, : d + 1] @ np.abs(M)).max(axis=1)
                        / np.abs(q).max(axis=1))
        idxs.append(idx)
        charted.append(q)
    if len(groups) == 1:
        count[idx], certain[idx] = _disk_counts(charted[0], amps[0])
        return count, certain
    rows = np.concatenate(idxs)
    q = np.zeros((rows.size, groups[0] + 1), dtype=np.complex128)
    at = 0
    for part in charted:
        q[at: at + len(part), : part.shape[1]] = part
        at += len(part)
    count[rows], certain[rows] = _disk_counts(q, np.concatenate(amps), degrees[rows])
    return count, certain


def _gated_witness(F: BiPoly, dom: MoebiusDomain, claim: RegionClass,
                   slice_coeffs: np.ndarray, root: complex, mult: int,
                   w0: complex) -> ZeroWitness | None:
    """The witness a tagged slice root gives, or None when the gate rejects it.

    The tag only counts once the root's location uncertainty (coefficient
    noise pushed through the root) keeps it on the claimed side;
    ill-conditioned near-boundary roots are skipped, biasing toward the
    budget-qualified "no zero found" rather than a bogus witness.
    """
    rho = root_uncertainty(slice_coeffs, root, mult)
    if not dom.robustly_in(claim, root, rho):
        return None
    z_star, refined = root, False
    dslice = slice_coeffs[1:] * np.arange(1, len(slice_coeffs))
    gprime = complex(_polyval(dslice, root)) if len(dslice) else 0j
    if gprime != 0:
        step = root - mult * complex(_polyval(slice_coeffs, root)) / gprime
        better = abs(complex(_polyval(slice_coeffs, step))) \
            < abs(complex(_polyval(slice_coeffs, root)))
        if better and dom.robustly_in(claim, step, rho):
            z_star, refined = step, True
    val = abs(F(z_star, w0))
    if val <= ZERO_TOL * _witness_scale(F, z_star, w0):
        return ZeroWitness(complex(z_star), w0, val, refined)
    return None


def nonvanishing_check(F: BiPoly, dom: MoebiusDomain, boundary_counts: bool,
                       w_samples: int = DEFAULT_W_SAMPLES,
                       rng=0) -> NonvanishingResult:
    """Search for a zero of F with w interior and z interior, or z in the
    closure when boundary_counts is set.

    The search runs on the cofactor F / B1**m, where B1 is the degree-1 base
    symbol and m the number of its factors that F carries exactly
    (``_core_cofactor``, reported as ``core_power``).  B1 has no zero with z
    in the closure and w interior, so the cofactor has the same zeros as F
    in both modes, and its slices lose B1's exterior m-fold root.

    All w-points are drawn up front from the generator.  When the cofactor
    is constant in w, every slice is the same row, which is handled once.
    For the interior claim, each slice's interior roots are first counted
    (``_interior_counts``); a slice whose count is certainly 0 holds no
    candidate and is not rooted.  The other slices are rooted in sample
    order, in at most two ``roots_batch`` calls: up to and including the
    first slice with a certain positive count, then the rest.  In closure
    mode every distinct slice is rooted in one call.  Each call's roots are
    tagged in one ``tag_codes`` call, and the witness (if any) is the one
    from the smallest sample index (then the first entry of that slice's
    multiset), so the outcome is deterministic given the seed.  A slice
    root counts only when its uncertainty ball keeps it in the claimed
    class (``robustly_in``): the boundary band tags points, and a computed
    root counts toward the closure only if its ball reaches the closure
    itself.  Every candidate is re-verified on the full F, against
    |F| <= ZERO_TOL * coefficient scale, before being reported.  Slices
    that trim to zero are counted in ``zero_slices`` and skipped: a
    continuous sampler lands on a root of F's w-content with probability
    zero, so such a slice is no witness.
    """
    if F.is_zero():
        raise ZeroInput("the zero polynomial vanishes everywhere")
    if w_samples < 1:
        raise ValueError("the search needs w_samples >= 1")
    rng = _as_rng(rng)
    claim = RegionClass.CLOSURE if boundary_counts else RegionClass.INTERIOR
    ws = dom.sample(RegionTag.INTERIOR, w_samples, rng)

    cofactor, core_power = _core_cofactor(F, dom)
    C = cofactor.coeffs
    slices, natural, ends, live = _slice_block(C, ws)
    zero_slices = w_samples - live.size
    # a cofactor constant in w gives one distinct row, the slice of every
    # live sample; otherwise the rows are the live slices in sample order
    shared = C.shape[1] == 1
    distinct = live[:1] if shared else live
    block = slices[distinct]

    to_root = np.arange(distinct.size)
    parts = [to_root]
    uncertain = 0
    if not boundary_counts:
        count, certain = _interior_counts(block, ends[distinct] - 1,
                                          natural[distinct], dom)
        uncertain = int(np.count_nonzero(~certain))
        to_root = np.flatnonzero(~certain | (count > 0))
        # a row of to_root with a certain count has a positive one
        positive = np.flatnonzero(certain[to_root])
        cut = int(positive[0]) + 1 if positive.size else to_root.size
        parts = [to_root[:cut], to_root[cut:]]

    rejected = rooted = 0
    for part in parts:
        if part.size == 0:
            continue
        rooted += part.size
        multisets = roots_batch(block[part], trim_tol=0.0)
        # one region-tag call for every root of the part; a root is a
        # candidate when its code is interior (1), or boundary (0) when the
        # boundary counts
        found = [(row, root, mult) for row, rm in zip(part.tolist(), multisets)
                 for root, mult in rm.entries]
        codes = dom.tag_codes([root for _, root, _ in found])
        candidates: dict[int, list] = {}
        for i in np.nonzero(codes >= (0 if boundary_counts else 1))[0].tolist():
            row, root, mult = found[i]
            candidates.setdefault(row, []).append((root, mult))
        visits = ([(s, 0) for s in live.tolist()] if shared
                  else [(int(distinct[row]), row) for row in part.tolist()])
        for s, row in visits:
            slice_coeffs = block[row, : ends[s]]
            for root, mult in candidates.get(row, ()):
                witness = _gated_witness(F, dom, claim, slice_coeffs, root, mult,
                                         complex(ws[s]))
                if witness is not None:
                    return NonvanishingResult(
                        witness, w_samples, zero_slices, rejected, core_power,
                        uncertain, rooted)
                rejected += 1
    return NonvanishingResult(None, w_samples, zero_slices, rejected, core_power,
                              uncertain, rooted)
