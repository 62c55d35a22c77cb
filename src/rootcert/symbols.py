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
from .poly import (BiPoly, CLUSTER_RADIUS, TRIM_TOL, _polyval,
                   root_uncertainty, roots_batch)

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
                       rng=0, zero_tol: float = ZERO_TOL,
                       cluster_radius: float = CLUSTER_RADIUS) -> NonvanishingResult:
    """Search for a zero of F with w interior and z interior, or z in the
    closure when boundary_counts is set.

    All w-points are drawn up front from the generator, slices are rooted in
    one batch, and the witness (if any) is the one from the smallest sample
    index, so the outcome is deterministic given the seed.  Boundary-tagged
    slice roots count as witnesses only when boundary_counts is set.  Every
    candidate is re-verified against |F| <= zero_tol * coefficient scale
    before being reported; slices that vanish identically are confirmed by a
    direct evaluation of F at an interior probe point and otherwise skipped.
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
    trimmed: list[np.ndarray | None] = []
    for s in range(w_samples):
        live_idx = np.nonzero(~cancelled[s])[0]
        trimmed.append(None if live_idx.size == 0
                       else slices[s, : live_idx[-1] + 1])
    is_zero_slice = np.array([t is None for t in trimmed])

    live = [s for s in range(w_samples) if trimmed[s] is not None]
    multisets = roots_batch([trimmed[s] for s in live],
                            cluster_radius=cluster_radius, trim_tol=0.0)
    multiset_by_sample: dict[int, object] = {}
    for s, rm in zip(live, multisets):
        multiset_by_sample[s] = rm

    zero_slices = 0
    rejected = 0
    for s in range(w_samples):
        w0 = complex(ws[s])
        if is_zero_slice[s]:
            zero_slices += 1
            probe = complex(dom.sample(RegionTag.INTERIOR, 1, rng)[0])
            val = abs(F(probe, w0))
            if val <= zero_tol * _witness_scale(F, probe, w0):
                return NonvanishingResult(
                    ZeroWitness(probe, w0, val, refined=False),
                    w_samples, zero_slices, rejected)
            continue
        rm = multiset_by_sample[s]
        if rm is None or not rm.entries:
            continue
        slice_coeffs = trimmed[s]
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
            if val <= zero_tol * _witness_scale(F, z_star, w0):
                return NonvanishingResult(
                    ZeroWitness(complex(z_star), w0, val, refined),
                    w_samples, zero_slices, rejected)
            rejected += 1
    return NonvanishingResult(None, w_samples, zero_slices, rejected)
