"""Circular domains as pullbacks of the upper half-plane under a Moebius map.

A domain is the open region where Im((az+b) * conj(cz+d)) > 0, which matches
the sign of Im((az+b)/(cz+d)) away from the pole.  Points are tagged against
the boundary with a relative tolerance band, so that "on the boundary" is
well-posed in floating point.  A computed root counts toward a closed class
only when its uncertainty ball reaches that class (robustly_in).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateMoebius, DegenerateSample, UnknownPreset


class RegionTag(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"

    @property
    def in_closure(self) -> bool:
        """Member of the designated region together with its boundary."""
        return self in (RegionTag.INTERIOR, RegionTag.BOUNDARY)

    @property
    def in_complement(self) -> bool:
        """Member of the closed complement (boundary plus exterior)."""
        return self in (RegionTag.BOUNDARY, RegionTag.EXTERIOR)


class RegionClass(Enum):
    """The four point classes relative to a domain's designated open region."""

    INTERIOR = "interior"      # the open region itself
    CLOSURE = "closure"        # region plus boundary
    EXTERIOR = "exterior"      # the open region on the other side
    COMPLEMENT = "complement"  # boundary plus exterior (a closed set)

    def contains(self, tag: RegionTag) -> bool:
        if self is RegionClass.INTERIOR:
            return tag is RegionTag.INTERIOR
        if self is RegionClass.CLOSURE:
            return tag.in_closure
        if self is RegionClass.EXTERIOR:
            return tag is RegionTag.EXTERIOR
        return tag.in_complement

    @property
    def sample_tags(self) -> tuple[RegionTag, ...]:
        """Tags a point sampler may draw from to cover this class."""
        if self is RegionClass.INTERIOR:
            return (RegionTag.INTERIOR,)
        if self is RegionClass.CLOSURE:
            return (RegionTag.INTERIOR, RegionTag.BOUNDARY)
        if self is RegionClass.EXTERIOR:
            return (RegionTag.EXTERIOR,)
        return (RegionTag.EXTERIOR, RegionTag.BOUNDARY)

    @property
    def outside_class(self) -> "RegionClass":
        """The class a point provably lands in when it is not in this one."""
        return {RegionClass.INTERIOR: RegionClass.COMPLEMENT,
                RegionClass.CLOSURE: RegionClass.EXTERIOR,
                RegionClass.EXTERIOR: RegionClass.CLOSURE,
                RegionClass.COMPLEMENT: RegionClass.INTERIOR}[self]


_TAG_BY_CODE = {1: RegionTag.INTERIOR, 0: RegionTag.BOUNDARY, -1: RegionTag.EXTERIOR}

_POLE_CLEARANCE = 1e-12
# Relative rounding error of side(z) against its spherical scale.
_SIDE_ROUNDING = 16.0 * float(np.finfo(np.float64).eps)
_MAX_CONSECUTIVE_REJECTS = 100


@dataclass(frozen=True)
class MoebiusDomain:
    """Coefficients (a, b, c, d) with ad - bc != 0 plus the boundary band width.

    Since |side(z)| <= (|az+b|**2 + |cz+d|**2) / 2, a band of tol 1 or more
    would hold every point and one of 0 or less no point; tol must lie
    strictly between.
    """

    a: complex
    b: complex
    c: complex
    d: complex
    tol: float = 1e-9

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))
        object.__setattr__(self, "c", complex(self.c))
        object.__setattr__(self, "d", complex(self.d))
        if not 0.0 < self.tol < 1.0:
            raise ValueError(f"tol must be a finite number in (0, 1), got {self.tol!r}")
        scale = max(abs(self.a), abs(self.b), abs(self.c), abs(self.d)) ** 2
        det = self.a * self.d - self.b * self.c
        if scale == 0.0 or abs(det) <= 1e-12 * scale:
            raise DegenerateMoebius(
                f"(a, b, c, d) = ({self.a}, {self.b}, {self.c}, {self.d}) "
                "has a vanishing determinant")

    # -- geometry ----------------------------------------------------------

    def side(self, z):
        """Im((az+b) * conj(cz+d)): positive inside, zero on the boundary.

        Shares the sign of the image's imaginary part under the defining map
        wherever cz + d != 0; the pole itself gets side 0 (it is a boundary
        point, the preimage of infinity).  Accepts scalars or arrays.
        """
        z = np.asarray(z, dtype=np.complex128)
        num = self.a * z + self.b
        den = self.c * z + self.d
        out = (num * np.conj(den)).imag
        return float(out) if out.ndim == 0 else out

    def _sphere(self, z):
        """(|az+b|**2 + |cz+d|**2) / 2, the spherical scale that bounds |side(z)|."""
        z = np.asarray(z, dtype=np.complex128)
        out = (np.abs(self.a * z + self.b) ** 2 + np.abs(self.c * z + self.d) ** 2) / 2.0
        return float(out) if out.ndim == 0 else out

    def _band(self, z):
        return self.tol * self._sphere(z)

    def side_gradient_bound(self, z):
        """Bound on how fast side() can change per unit displacement of z."""
        z = np.asarray(z, dtype=np.complex128)
        out = np.abs(self.a) * np.abs(self.c * z + self.d) \
            + np.abs(self.c) * np.abs(self.a * z + self.b)
        return float(out) if out.ndim == 0 else out

    def robustly_in(self, cls: RegionClass, z: complex, uncertainty: float) -> bool:
        """Membership that survives a location uncertainty ball around z.

        True only when every point within ``uncertainty`` of z belongs to the
        class, with the boundary band counting toward the closed classes and
        against the open ones.  The band tags points; it is no evidence that
        a computed root lies on the boundary.  So a closed class also needs
        the ball to reach the class itself, up to the rounding of side():
        a well-conditioned root just outside stays outside, however wide the
        band is at its |z|.  Ill-determined locations (infinite uncertainty)
        are never robust anywhere.
        """
        s = self.side(z)
        sphere = self._sphere(z)
        band = self.tol * sphere
        drift = self.side_gradient_bound(z) * uncertainty
        if not np.isfinite(drift):
            return False
        if cls is RegionClass.INTERIOR:
            return s - drift > band
        if cls is RegionClass.EXTERIOR:
            return s + drift < -band
        floor = _SIDE_ROUNDING * sphere
        if cls is RegionClass.CLOSURE:
            return s - drift >= -band and s + drift >= -floor
        return s + drift <= band and s - drift <= floor

    def tag_codes(self, zs) -> np.ndarray:
        """Vectorized classification: +1 interior, 0 boundary band, -1 exterior."""
        zs = np.atleast_1d(np.asarray(zs, dtype=np.complex128))
        s = self.side(zs)
        band = self._band(zs)
        codes = np.where(np.abs(s) <= band, 0, np.where(s > 0, 1, -1))
        return codes.astype(np.int8)

    def classify(self, z: complex) -> RegionTag:
        return _TAG_BY_CODE[int(self.tag_codes([z])[0])]

    @property
    def pole(self) -> complex | None:
        """Preimage of infinity, when finite."""
        if self.c == 0:
            return None
        return -self.d / self.c

    def pullback(self, zeta):
        """Inverse of the defining map: the z with (az+b)/(cz+d) = zeta."""
        zeta = np.asarray(zeta, dtype=np.complex128)
        out = (self.d * zeta - self.b) / (-self.c * zeta + self.a)
        return complex(out) if out.ndim == 0 else out

    def image(self, z):
        """(az + b) / (cz + d)."""
        z = np.asarray(z, dtype=np.complex128)
        out = (self.a * z + self.b) / (self.c * z + self.d)
        return complex(out) if out.ndim == 0 else out

    # -- sampling ----------------------------------------------------------

    def sample(self, region: RegionTag, count: int,
               rng: np.random.Generator) -> np.ndarray:
        """Points classifying to the requested region.

        Draws heavy-tailed (Cauchy) points in the half-plane model and pushes
        them through the inverse map, so near-boundary and far-field behavior
        both get exercised.  Points landing within 1e-12 of the pole or
        misclassifying (band effects) are redrawn; DegenerateSample fires
        only after 100 consecutive rejections.
        """
        if count == 0:
            return np.zeros(0, dtype=np.complex128)
        out = np.zeros(count, dtype=np.complex128)
        have = 0
        consecutive = 0
        while have < count:
            chunk = count - have
            x = rng.standard_cauchy(chunk)
            y = None if region is RegionTag.BOUNDARY else rng.standard_cauchy(chunk)
            z, ok = self._pulled_back(region, x, y)
            good = z[ok]
            take = min(len(good), chunk)
            out[have: have + take] = good[:take]
            have += take
            if take == 0:
                consecutive += chunk
                if consecutive >= _MAX_CONSECUTIVE_REJECTS:
                    raise DegenerateSample(
                        f"{consecutive} consecutive draws rejected for {region}")
            else:
                consecutive = 0
        return out

    def sample_rows(self, region: RegionTag, counts: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
        """Row i holds sample(region, counts[i], rng), the calls made in row order.

        The Cauchy draws of all rows come in one block, laid out as the
        calls would draw them.  If any point is rejected, the generator's
        state is restored and the rows are drawn one call at a time, so the
        stream and the points are the same either way.  Rows are padded
        with zeros to the largest count.
        """
        counts = np.asarray(counts, dtype=np.intp)
        width = int(counts.max(initial=0))
        cols = np.arange(width)
        per_call = 1 if region is RegionTag.BOUNDARY else 2   # x, then y
        first = np.cumsum(per_call * counts) - per_call * counts
        taken = cols < counts[:, None]
        xi = (first[:, None] + cols)[taken]
        state = rng.bit_generator.state
        draws = rng.standard_cauchy(per_call * int(counts.sum()))
        y = None if per_call == 1 else draws[xi + np.repeat(counts, counts)]
        z, ok = self._pulled_back(region, draws[xi], y)
        out = np.zeros((counts.size, width), dtype=np.complex128)
        if ok.all():
            out[taken] = z
            return out
        rng.bit_generator.state = state
        for i, count in enumerate(counts.tolist()):
            out[i, :count] = self.sample(region, count, rng)
        return out

    def _pulled_back(self, region: RegionTag, x: np.ndarray,
                     y: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        """The points that Cauchy draws x and y (none on the boundary) give
        for region, and the mask of those sample() keeps: finite, clear of
        the pole and classifying to region."""
        if y is None:
            y = np.zeros(len(x))
        else:
            y = np.abs(y)
            if region is RegionTag.EXTERIOR:
                y = -y
        z = np.atleast_1d(self.pullback(x + 1j * y))
        ok = np.isfinite(z)
        if self.pole is not None:
            ok &= np.abs(z - self.pole) > _POLE_CLEARANCE
        ok &= self.tag_codes(z) == {RegionTag.INTERIOR: 1,
                                    RegionTag.BOUNDARY: 0,
                                    RegionTag.EXTERIOR: -1}[region]
        return z, ok


PRESETS = {
    "upper-half-plane": (1, 0, 0, 1),
    "lower-half-plane": (-1, 0, 0, 1),
    "unit-disk": (-1j, 1j, 1, 1),
    "exterior-unit-disk": (1j, 1j, 1, -1),
}


def preset(name: str, tol: float = 1e-9) -> MoebiusDomain:
    """One of: upper-half-plane, lower-half-plane, unit-disk, exterior-unit-disk."""
    try:
        a, b, c, d = PRESETS[name]
    except KeyError:
        raise UnknownPreset(
            f"unknown domain preset {name!r}; choose from {sorted(PRESETS)}") from None
    return MoebiusDomain(a, b, c, d, tol=tol)
