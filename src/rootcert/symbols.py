"""Base symbols, operator symbols, and the numerical nonvanishing search.

The base symbol of a domain is the bivariate polynomial
((az+b)(cw+d) + (aw+b)(cz+d))**n; applying an operator to its z-variable
produces the operator symbol whose zero set over region pairs decides
class membership.  The search below samples the w-region, slices, and
classifies every slice root against the z-region; a pass is explicitly
budget-qualified evidence, while a witness is a definitive, re-verified
refutation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domains import MoebiusDomain, RegionClass, RegionTag
from .errors import ZeroInput
from .operators import LinearOperator
from .poly import BiPoly, TRIM_TOL, _polyval, root_uncertainty, roots_batch

ZERO_TOL = 1e-8
DEFAULT_W_SAMPLES = 512


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
    return op.apply_bivariate(base_symbol(dom, n))


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

    All w-points are drawn up front from the generator, slices are rooted in
    one batch, and the witness (if any) is the one from the smallest sample
    index, so the outcome is deterministic given the seed.  A slice root
    counts only when its uncertainty ball keeps it in the claimed class
    (``robustly_in``): the boundary band tags points, and a computed root
    counts toward the closure only if its ball reaches the closure itself.
    Every candidate is re-verified against |F| <= ZERO_TOL * coefficient
    scale before being reported.  Slices that trim to zero are counted in
    ``zero_slices`` and skipped: a continuous sampler lands on a root of F's
    w-content with probability zero, so such a slice is no witness.
    """
    if F.is_zero():
        raise ZeroInput("the zero polynomial vanishes everywhere")
    if w_samples < 1:
        raise ValueError("the search needs w_samples >= 1")
    rng = _as_rng(rng)
    claim = RegionClass.CLOSURE if boundary_counts else RegionClass.INTERIOR
    ws = dom.sample(RegionTag.INTERIOR, w_samples, rng)

    C = F.coeffs
    powers = ws[:, None] ** np.arange(C.shape[1])[None, :]
    slices = powers @ C.T                      # row s holds F(., ws[s]) coefficients
    # Trim each slice against its natural per-coefficient scale
    # sum_j |F[i,j]| |w0|^j, not against the slice maximum: heavy-tailed w0
    # give slices whose genuine leading coefficient sits many orders below
    # the constant term, and trimming it would fabricate roots.
    natural = np.abs(powers) @ np.abs(C).T
    cancelled = np.abs(slices) <= TRIM_TOL * natural
    live: list[int] = []
    trimmed: list[np.ndarray] = []
    for s in range(w_samples):
        live_idx = np.nonzero(~cancelled[s])[0]
        if live_idx.size:
            live.append(s)
            trimmed.append(slices[s, : live_idx[-1] + 1])
    zero_slices = w_samples - len(live)
    multisets = roots_batch(trimmed, trim_tol=0.0)

    rejected = 0
    for s, slice_coeffs, rm in zip(live, trimmed, multisets):
        if not rm.entries:
            continue
        w0 = complex(ws[s])
        dslice = slice_coeffs[1:] * np.arange(1, len(slice_coeffs))
        for root, mult in rm.entries:
            tag = dom.classify(root)
            if not (tag is RegionTag.INTERIOR
                    or (tag is RegionTag.BOUNDARY and boundary_counts)):
                continue
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
                    w_samples, zero_slices, rejected)
            rejected += 1
    return NonvanishingResult(None, w_samples, zero_slices, rejected)
