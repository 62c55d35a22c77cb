"""Linear operators on complex polynomials, stored by their monomial images.

An operator is defined up to a horizon N by the images of 1, z, ..., z**N.
A bounded operator (bounded_degree set) is only defined on inputs of degree
at most that bound and refuses anything larger rather than truncating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegreeOutOfRange
from .poly import BiPoly, Poly, _trimmed_degrees

RANK_ONE_RTOL = 1e-9


@dataclass(frozen=True)
class RankOneForm:
    """T[z^k] = alphas[k] * direction, with direction monic."""

    alphas: tuple[complex, ...]
    direction: Poly


class LinearOperator:
    __slots__ = ("images", "bounded_degree")

    def __init__(self, images: Sequence[Poly], bounded_degree: int | None = None):
        imgs = tuple(p if isinstance(p, Poly) else Poly(p) for p in images)
        if not imgs:
            raise ValueError("an operator needs at least the image of 1")
        if bounded_degree is not None and bounded_degree != len(imgs) - 1:
            raise ValueError("a bounded operator's horizon must equal its degree bound")
        self.images = imgs
        self.bounded_degree = bounded_degree

    # -- constructors --------------------------------------------------

    @classmethod
    def identity(cls, horizon: int) -> "LinearOperator":
        return cls([Poly.monomial(k) for k in range(horizon + 1)])

    @classmethod
    def derivative(cls, horizon: int) -> "LinearOperator":
        return cls([Poly.monomial(k - 1, k) if k else Poly.zero()
                    for k in range(horizon + 1)])

    @classmethod
    def multiply_by(cls, q: Poly, horizon: int) -> "LinearOperator":
        return cls([q.shifted(k) for k in range(horizon + 1)])

    @classmethod
    def diagonal(cls, multipliers: Sequence[complex]) -> "LinearOperator":
        return cls([Poly.monomial(k, a) for k, a in enumerate(multipliers)])

    @classmethod
    def rank_one(cls, alphas: Sequence[complex], direction: Poly) -> "LinearOperator":
        return cls([complex(a) * direction for a in alphas])

    @classmethod
    def from_diff_expansion(cls, qs: Sequence[Poly], horizon: int,
                            bounded_degree: int | None = None) -> "LinearOperator":
        """Operator with images sum_k qs[k] * m!/(m-k)! * z^(m-k) at each m."""
        images = []
        for m in range(horizon + 1):
            img = Poly.zero()
            for k in range(min(m, len(qs) - 1) + 1):
                if qs[k].is_zero():
                    continue
                img = img + math.perm(m, k) * qs[k].shifted(m - k)
            images.append(img)
        return cls(images, bounded_degree=bounded_degree)

    # -- basics ----------------------------------------------------------

    @property
    def horizon(self) -> int:
        return len(self.images) - 1

    def is_zero(self) -> bool:
        return all(img.is_zero() for img in self.images)

    def minimal_k(self) -> int | None:
        """Smallest k with a nonzero image; None for the zero operator."""
        for k, img in enumerate(self.images):
            if not img.is_zero():
                return k
        return None

    def apply(self, p: Poly) -> Poly:
        """T[p], as long as the longest image of z^k for k up to deg p.

        The one-row case of apply_rows, so it equals that row of a batch bit
        for bit.
        """
        return Poly(self.apply_rows(p.coeffs[None, :])[0])

    def apply_rows(self, rows: np.ndarray) -> np.ndarray:
        """Images of a block of inputs, one coefficient row each.

        Each row is trimmed as Poly.degree trims it, and its images are
        accumulated in k order; the block is as wide as the longest image of
        z^k for k up to the largest input degree.
        """
        degs = _trimmed_degrees(rows)
        top = int(degs.max(initial=-1))
        if top > self.horizon:
            raise DegreeOutOfRange(
                f"input degree {top} exceeds the operator horizon {self.horizon}")
        if self.bounded_degree is not None and top > self.bounded_degree:
            raise DegreeOutOfRange(
                f"input degree {top} exceeds the degree bound {self.bounded_degree}")
        images = [img.coeffs for img in self.images[: top + 1]]
        coeffs = np.where(np.arange(top + 1) <= degs[:, None], rows[:, : top + 1], 0)
        out = np.zeros((rows.shape[0], max((img.size for img in images), default=1)),
                       dtype=np.complex128)
        for k, img in enumerate(images):
            out[:, : img.size] += coeffs[:, k: k + 1] * img
        return out

    def apply_bivariate(self, F: BiPoly) -> BiPoly:
        """Extension treating w as a constant: each w-power slice maps independently."""
        dz = F.z_degree()
        if dz is not None and dz > self.horizon:
            raise DegreeOutOfRange(
                f"z-degree {dz} exceeds the operator horizon {self.horizon}")
        return BiPoly(self.apply_rows(F.coeffs.T).T)

    # -- structure ---------------------------------------------------------

    def to_diff_expansion(self) -> list[Poly]:
        """Coefficients qs with T = sum_k qs[k] D^k on the horizon.

        The system is triangular in the input degree m: the image of z^m
        introduces qs[m] with weight m!, so the coefficients read off
        ascending in m.
        """
        qs: list[Poly] = []
        for m in range(self.horizon + 1):
            resid = self.images[m]
            for k in range(m):
                if qs[k].is_zero():
                    continue
                resid = resid - math.perm(m, k) * qs[k].shifted(m - k)
            qs.append((1.0 / math.factorial(m)) * resid)
        return qs

    def rank_one_form(self) -> RankOneForm | None:
        """Detects a one-dimensional range; the fit is re-verified, not assumed."""
        first = None
        for img in self.images:
            if not img.is_zero():
                first = img
                break
        if first is None:
            return None
        direction = first.monic()
        dvec = direction.coeffs
        dnorm2 = float(np.vdot(dvec, dvec).real)
        alphas = []
        for img in self.images:
            width = max(dvec.size, img.coeffs.size)
            iv = img.padded(width)
            dv = np.zeros(width, dtype=np.complex128)
            dv[: dvec.size] = dvec
            alpha = complex(np.vdot(dv, iv) / dnorm2)
            resid = float(np.abs(iv - alpha * dv).max())
            scale = float(np.abs(iv).max())
            if scale > 0 and resid > RANK_ONE_RTOL * scale:
                return None
            if scale == 0:
                alpha = 0.0
            alphas.append(alpha)
        return RankOneForm(tuple(alphas), direction)

    def __repr__(self) -> str:
        bound = f", bounded_degree={self.bounded_degree}" if self.bounded_degree is not None else ""
        return f"LinearOperator(horizon={self.horizon}{bound})"
