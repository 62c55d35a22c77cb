"""Base symbols, operator symbols, and the numerical nonvanishing search.

The base symbol of a domain is the bivariate polynomial
((az+b)(cw+d) + (aw+b)(cz+d))**n; applying an operator to its z-variable
produces the operator symbol whose zero set over region pairs decides
class membership.  The search below samples the w-region, slices, and
classifies every slice root against the z-region; a pass is explicitly
budget-qualified evidence, while a witness is a definitive, re-verified
refutation.  Before slicing, the search divides out every factor of the
degree-1 base symbol that the symbol carries exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domains import MoebiusDomain, RegionClass, RegionTag
from .errors import DegreeOutOfRange, ZeroInput
from .operators import LinearOperator
from .poly import BiPoly, TRIM_TOL, _polyval, root_uncertainty, roots_batch

ZERO_TOL = 1e-8
DEFAULT_W_SAMPLES = 512
# A quotient by the degree-1 base symbol is accepted only if it rebuilds the
# dividend to this relative accuracy.  On the test battery's symbols up to
# degree 8 on the four presets, exact divisions rebuild within 3e-14 and
# non-divisions leave at least 5e-4.
CORE_RTOL = 1e-12


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

    @property
    def found(self) -> bool:
        return self.witness is not None


def base_symbol(dom: MoebiusDomain, n: int) -> BiPoly:
    """((az+b)(cw+d) + (aw+b)(cz+d)) ** n, symmetric in (z, w) by construction."""
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

    All w-points are drawn up front from the generator, slices are rooted in
    one batch, their roots are tagged in one ``tag_codes`` call, and the
    witness (if any) is the one from the smallest sample index (then the
    first entry of that slice's multiset), so the outcome is deterministic
    given the seed.  A slice root counts only when its uncertainty ball
    keeps it in the claimed class (``robustly_in``): the boundary band tags
    points, and a computed root counts toward the closure only if its ball
    reaches the closure itself.
    Every candidate is re-verified on the full F, against |F| <= ZERO_TOL *
    coefficient scale, before being reported.  Slices that trim to zero are
    counted in ``zero_slices`` and skipped: a continuous sampler lands on a
    root of F's w-content with probability zero, so such a slice is no
    witness.
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
    powers = ws[:, None] ** np.arange(C.shape[1])[None, :]
    slices = powers @ C.T                      # row s: cofactor(., ws[s]) coefficients
    # Trim each slice against its natural per-coefficient scale
    # sum_j |C[i,j]| |w0|^j, not against the slice maximum: heavy-tailed w0
    # give slices whose genuine leading coefficient sits many orders below
    # the constant term, and trimming it would fabricate roots.
    # Each slice is zeroed past its last kept entry, which is nonzero, so
    # roots_batch at trim_tol 0 ends it there too.
    natural = np.abs(powers) @ np.abs(C).T
    kept = ~(np.abs(slices) <= TRIM_TOL * natural)
    live = np.flatnonzero(kept.any(axis=1))
    ends = kept.shape[1] - np.argmax(kept[:, ::-1], axis=1)     # last kept + 1
    slices[np.arange(kept.shape[1]) >= ends[:, None]] = 0
    block = slices[live]
    zero_slices = w_samples - live.size
    multisets = roots_batch(block, trim_tol=0.0)

    # one region-tag call for every slice root; a root is a candidate when
    # its code is interior (1), or boundary (0) when the boundary counts
    found = [(row, root, mult) for row, rm in enumerate(multisets)
             for root, mult in rm.entries]
    codes = dom.tag_codes([root for _, root, _ in found])
    rejected = 0
    for i in np.nonzero(codes >= (0 if boundary_counts else 1))[0].tolist():
        row, root, mult = found[i]
        slice_coeffs = block[row, : ends[live[row]]]
        w0 = complex(ws[live[row]])
        # the tag only counts once the root's location uncertainty
        # (coefficient noise pushed through the root) keeps it on the
        # claimed side; ill-conditioned near-boundary roots are skipped,
        # biasing toward the budget-qualified "no zero found" rather than
        # a bogus witness
        rho = root_uncertainty(slice_coeffs, root, mult)
        if not dom.robustly_in(claim, root, rho):
            rejected += 1
            continue
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
            return NonvanishingResult(
                ZeroWitness(complex(z_star), w0, val, refined),
                w_samples, zero_slices, rejected, core_power)
        rejected += 1
    return NonvanishingResult(None, w_samples, zero_slices, rejected, core_power)
