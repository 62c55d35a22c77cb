"""Dense complex polynomials: arithmetic, simultaneous root finding, approximate GCD.

Degrees stay small throughout the package (tens, not thousands), so the
representation is dense numpy arrays and direct convolutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import NonConvergence, ZeroPolynomial

TRIM_TOL = 1e-12        # relative floor below which trailing coefficients are noise
CLUSTER_RADIUS = 1e-6   # merge radius for multiplicity detection
ROOT_TOL = 1e-12        # correction threshold of the simultaneous iteration
MAX_ITERS = 200

_EPS = float(np.finfo(np.float64).eps)

# Coefficient noise of relative size eta splits an m-fold root into a ring of
# radius ~ eta**(1/m).  _SPLIT_NOISE bounds, with margin, the noise picked up
# through convolutions and slice evaluation; it sets the linkage radius used
# to detect such rings.
_SPLIT_NOISE = 1e-12
# Two-sided validation of an m-fold root candidate c: |p^(j)(c)| must stay
# below _VALIDATE_LO * scale for all j < m, and |p^(m)(c)| must exceed
# _VALIDATE_HI * scale, each scale being the L1 evaluation bound at c.
_VALIDATE_LO = 1e-9
_VALIDATE_HI = 1e-6
# Assumed relative coefficient noise when bounding how far a computed root
# may sit from the true one (convolutions and slicing stay well below this).
COEFF_NOISE = 1e-13


def _as_coeff_array(values) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(values, dtype=np.complex128))
    if arr.ndim != 1:
        raise ValueError("coefficients must form a one-dimensional sequence")
    if arr.size == 0:
        arr = np.zeros(1, dtype=np.complex128)
    return arr


def _trimmed_degrees(rows: np.ndarray, trim_tol: float = TRIM_TOL) -> np.ndarray | int:
    """Trimmed degree of each coefficient row; -1 for a zero row.

    The package's one trim rule: a row ends at its last entry above
    trim_tol times its largest entry, so at trim_tol 0 at its last nonzero
    entry.  A block of rows gives an integer array; one row (1-D) gives an
    int, found through nonzero, which is cheaper than the block reduction.
    """
    mags = np.abs(rows)
    # transposed, the row maxima broadcast against one row and a block alike
    keep = (mags.T > trim_tol * mags.max(axis=-1)).T
    if keep.ndim == 1:
        kept = keep.nonzero()[0]
        return int(kept[-1]) if kept.size else -1
    return (keep * np.arange(1, keep.shape[1] + 1)).max(axis=1) - 1


def _polyval(coeffs: np.ndarray, z):
    acc = coeffs[-1] * np.ones_like(np.asarray(z, dtype=np.complex128))
    for i in range(len(coeffs) - 2, -1, -1):
        acc = acc * z + coeffs[i]
    return acc


class Poly:
    """Univariate polynomial; ``coeffs[i]`` multiplies ``z**i``.

    Trailing numerically-zero coefficients may be present; :meth:`degree`
    ignores them.  Instances are immutable and safe to share across threads.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs) -> None:
        arr = _as_coeff_array(coeffs).copy()
        arr.setflags(write=False)
        self.coeffs = arr

    @classmethod
    def zero(cls) -> "Poly":
        return cls([0.0])

    @classmethod
    def one(cls) -> "Poly":
        return cls([1.0])

    @classmethod
    def monomial(cls, k: int, coeff: complex = 1.0) -> "Poly":
        c = np.zeros(k + 1, dtype=np.complex128)
        c[k] = coeff
        return cls(c)

    def degree(self) -> int | None:
        """Largest index above the relative noise floor; None for the zero polynomial."""
        d = _trimmed_degrees(self.coeffs)
        return None if d < 0 else d

    def is_zero(self) -> bool:
        return self.degree() is None

    def trimmed(self) -> "Poly":
        d = _trimmed_degrees(self.coeffs)
        return Poly.zero() if d < 0 else Poly(self.coeffs[: d + 1])

    def padded(self, length: int) -> np.ndarray:
        out = np.zeros(length, dtype=np.complex128)
        out[: min(length, self.coeffs.size)] = self.coeffs[:length]
        return out

    def max_abs(self) -> float:
        return float(np.abs(self.coeffs).max())

    def __call__(self, z):
        return _polyval(self.coeffs, z)

    def derivative(self) -> "Poly":
        c = self.coeffs
        if c.size <= 1:
            return Poly.zero()
        return Poly(c[1:] * np.arange(1, c.size))

    def shifted(self, k: int) -> "Poly":
        """Multiplication by z**k."""
        if k == 0:
            return self
        return Poly(np.concatenate([np.zeros(k, dtype=np.complex128), self.coeffs]))

    def monic(self) -> "Poly":
        d = _trimmed_degrees(self.coeffs)
        if d < 0:
            raise ZeroPolynomial("the zero polynomial has no monic normalization")
        return Poly(self.coeffs[: d + 1] / self.coeffs[d])

    def __neg__(self) -> "Poly":
        return Poly(-self.coeffs)

    def __add__(self, other) -> "Poly":
        if isinstance(other, Poly):
            n = max(self.coeffs.size, other.coeffs.size)
            return Poly(self.padded(n) + other.padded(n))
        c = self.coeffs.copy()
        c[0] += other
        return Poly(c)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        return self + (-other if isinstance(other, Poly) else -complex(other))

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            return Poly(np.convolve(self.coeffs, other.coeffs))
        return Poly(self.coeffs * complex(other))

    __rmul__ = __mul__

    def allclose(self, other: "Poly", rtol: float = 1e-10, atol: float = 0.0) -> bool:
        n = max(self.coeffs.size, other.coeffs.size)
        a, b = self.padded(n), other.padded(n)
        scale = max(np.abs(a).max(), np.abs(b).max(), 1e-300)
        return bool(np.abs(a - b).max() <= rtol * scale + atol)

    def __repr__(self) -> str:
        return f"Poly({np.array2string(self.coeffs, separator=', ')})"


class BiPoly:
    """Bivariate polynomial; ``coeffs[i, j]`` multiplies ``z**i * w**j``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs) -> None:
        arr = np.atleast_2d(np.asarray(coeffs, dtype=np.complex128)).copy()
        if arr.ndim != 2:
            raise ValueError("bivariate coefficients must form a matrix")
        arr.setflags(write=False)
        self.coeffs = arr

    @classmethod
    def constant(cls, value: complex = 1.0) -> "BiPoly":
        return cls([[value]])

    def max_abs(self) -> float:
        return float(np.abs(self.coeffs).max())

    def is_zero(self) -> bool:
        return self.z_degree() is None

    def z_degree(self) -> int | None:
        d = _trimmed_degrees(np.abs(self.coeffs).max(axis=1))
        return None if d < 0 else d

    def w_degree(self) -> int | None:
        d = _trimmed_degrees(np.abs(self.coeffs).max(axis=0))
        return None if d < 0 else d

    def restrict_w(self, w0: complex) -> Poly:
        """The univariate polynomial z -> F(z, w0)."""
        c = self.coeffs
        acc = c[:, -1].copy()
        for j in range(c.shape[1] - 2, -1, -1):
            acc = acc * w0 + c[:, j]
        return Poly(acc)

    def __call__(self, z: complex, w: complex) -> complex:
        return complex(self.restrict_w(w)(z))

    def __mul__(self, other) -> "BiPoly":
        if not isinstance(other, BiPoly):
            return BiPoly(self.coeffs * complex(other))
        a, b = self.coeffs, other.coeffs
        out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1),
                       dtype=np.complex128)
        for i in range(a.shape[0]):
            row = a[i]
            for j in np.nonzero(row)[0]:
                out[i: i + b.shape[0], j: j + b.shape[1]] += row[j] * b
        return BiPoly(out)

    __rmul__ = __mul__

    def __add__(self, other: "BiPoly") -> "BiPoly":
        a, b = self.coeffs, other.coeffs
        rows = max(a.shape[0], b.shape[0])
        cols = max(a.shape[1], b.shape[1])
        out = np.zeros((rows, cols), dtype=np.complex128)
        out[: a.shape[0], : a.shape[1]] += a
        out[: b.shape[0], : b.shape[1]] += b
        return BiPoly(out)

    def __pow__(self, n: int) -> "BiPoly":
        if n < 0:
            raise ValueError("negative powers are not defined")
        out = BiPoly.constant(1.0)
        for _ in range(n):
            out = out * self
        return out

    def __repr__(self) -> str:
        return f"BiPoly({np.array2string(self.coeffs, separator=', ')})"


@dataclass(frozen=True)
class RootMultiset:
    """Clustered root locations with multiplicities plus the worst scaled residual."""

    entries: tuple[tuple[complex, int], ...]
    residual: float

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(m for _, m in self.entries)

    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.entries)


# ---------------------------------------------------------------------------
# simultaneous iteration
# ---------------------------------------------------------------------------

def _horner_batch(rows: np.ndarray, z: np.ndarray):
    """Values, derivative values and L1 evaluation bounds at a batch of points."""
    p = np.repeat(rows[:, -1:].astype(np.complex128), z.shape[1], axis=1)
    dp = np.zeros_like(p)
    bound = np.abs(p)
    az = np.abs(z)
    for i in range(rows.shape[1] - 2, -1, -1):
        dp = dp * z + p
        p = p * z + rows[:, i: i + 1]
        bound = bound * az + np.abs(rows[:, i: i + 1])
    return p, dp, bound


def _aberth_points(rows: np.ndarray) -> np.ndarray:
    """Aberth–Ehrlich sweep for a batch of same-degree polynomials.

    ``rows[:, i]`` holds z**i coefficients; the leading column must be nonzero
    in every row.  Each row is rescaled so its Fujiwara root bound becomes
    O(1) (heavy-tailed samples otherwise overflow the Horner evaluation), and
    starting points sit on a perturbed circle at that bound.  A point counts
    as settled when its correction drops below ROOT_TOL * max(1, |y|) or its
    residual reaches the evaluation noise floor (the only achievable
    criterion at multiple roots).
    """
    m, width = rows.shape
    d = width - 1
    if d < 1:
        return np.zeros((m, 0), dtype=np.complex128)
    if d == 1:
        return (-rows[:, 0] / rows[:, 1])[:, None]

    rows = rows / np.abs(rows).max(axis=1, keepdims=True)
    with np.errstate(divide="ignore"):
        log_mag = np.log(np.abs(rows))          # -inf marks zero coefficients
    powers = 1.0 / (d - np.arange(d))
    ratio_logs = (log_mag[:, :-1] - log_mag[:, -1:]) * powers
    radius = 2.0 * np.exp(np.max(ratio_logs, axis=1))
    radius = np.maximum(radius, 1e-3)

    # substitute z = s*y; exponent bookkeeping keeps the rescaled coefficients
    # in [~trim_tol, 1] so no power of s is ever formed directly
    scale = np.maximum(radius, 1.0)
    k = np.arange(width)
    shifted = log_mag + np.log(scale)[:, None] * k
    ref = shifted.max(axis=1, keepdims=True)
    factors = np.exp(np.log(scale)[:, None] * k - ref + 0.0)
    coeffs_y = rows * factors
    start_radius = radius / scale

    idx = np.arange(d)
    start = (1.0 + 0.08 * ((idx * 0.6180339887498949) % 1.0)) \
        * np.exp(1j * (2.0 * np.pi * idx / d + 0.41))
    y = start_radius[:, None] * start[None, :]

    eye = np.eye(d, dtype=bool)
    done = np.zeros(m, dtype=bool)
    floor_factor = 4.0 * d * _EPS
    with np.errstate(all="ignore"):
        for _ in range(MAX_ITERS):
            active = np.nonzero(~done)[0]
            if active.size == 0:
                break
            ya = y[active]
            p, dp, bound = _horner_batch(coeffs_y[active], ya)
            at_floor = np.abs(p) <= floor_factor * bound
            newton = dp / np.where(at_floor, 1.0, p)
            diff = ya[:, :, None] - ya[:, None, :]
            diff[:, eye] = 1.0
            collided = np.abs(diff) < 1e-290
            if collided.any():
                diff = np.where(collided, 1e-290, diff)
            inv = 1.0 / diff
            inv[:, eye] = 0.0
            denom = newton - inv.sum(axis=2)
            denom = np.where(denom == 0, 1.0, denom)
            w = np.where(at_floor, 0.0, 1.0 / denom)
            w = np.where(np.isfinite(w), w, 0.05)
            ya = ya - w
            y[active] = ya
            settled = at_floor | (np.abs(w) <= ROOT_TOL * np.maximum(1.0, np.abs(ya)))
            done[active] = settled.all(axis=1)
    if not done.all():
        raise NonConvergence(f"root iteration did not settle within {MAX_ITERS} sweeps")
    return y * scale[:, None]


# ---------------------------------------------------------------------------
# multiplicity resolution
# ---------------------------------------------------------------------------

def _component_indices(points: list[complex], radius_fn) -> list[list[int]]:
    """Single-linkage component index lists under a per-pair radius; order-stable."""
    n = len(points)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(points[i] - points[j]) <= radius_fn(points[i], points[j]):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [groups[k] for k in sorted(groups)]


class _RootResolver:
    """Turns converged iteration points into (location, multiplicity) entries.

    Floating-point coefficient noise scatters an m-fold root into a ring of
    radius ~ _SPLIT_NOISE**(1/m), far wider than any fixed merge radius once
    m grows.  The resolver therefore links points at the noise-scaled radius,
    recovers candidate centers from the roots of p^(m-1) (which collapse the
    ring back to first-order accuracy), and accepts a multiplicity hypothesis
    only when the derivative ladder confirms it on both sides, once per
    cluster: the points it leaves over come out as simple roots.
    """

    def __init__(self, coeffs: np.ndarray):
        self.coeffs = coeffs
        self.d = len(coeffs) - 1
        self._derivs = [np.asarray(coeffs, dtype=np.complex128)]

    def deriv(self, j: int) -> np.ndarray:
        while len(self._derivs) <= j:
            prev = self._derivs[-1]
            nxt = prev[1:] * np.arange(1, len(prev)) if len(prev) > 1 \
                else np.zeros(1, dtype=np.complex128)
            self._derivs.append(nxt)
        return self._derivs[j]

    def value_and_scale(self, j: int, z: complex) -> tuple[complex, float]:
        c = self.deriv(j)
        az = max(1.0, abs(z))
        val = 0j
        scale = 0.0
        for i in range(len(c) - 1, -1, -1):
            val = val * z + c[i]
            scale = scale * az + abs(c[i])
        return val, scale

    def _link_radius(self, m: int):
        floor = CLUSTER_RADIUS
        spread = _SPLIT_NOISE ** (1.0 / max(m, 1))

        def radius(zi: complex, zj: complex) -> float:
            return max(floor, spread * max(1.0, abs(zi), abs(zj)))

        return radius

    def _polish(self, z: complex, on: int = 0, steps: int = 2) -> complex:
        c = self.deriv(on)
        dc = self.deriv(on + 1)
        best = z
        best_val = abs(_polyval(c, z))
        for _ in range(steps):
            dv = _polyval(dc, z)
            if dv == 0:
                break
            z = z - _polyval(c, z) / dv
            v = abs(_polyval(c, z))
            if v < best_val:
                best, best_val = z, v
            else:
                break
        return best

    def _candidate_centers(self, m: int) -> list[complex]:
        # trim exact zeros only: a genuine leading coefficient far below the
        # derivative's largest one (wide root-scale spread) must survive, or
        # the candidates would come from a truncated polynomial
        dq = _trimmed_degrees(self.deriv(m - 1), 0.0)
        if dq < 1:
            return []
        q = self.deriv(m - 1)[: dq + 1]
        if dq == 1:
            return [complex(-q[0] / q[1])]
        if dq == 2:
            a, b, c0 = q[2], q[1], q[0]
            sq = np.sqrt(complex(b * b - 4.0 * a * c0))
            return [complex((-b - sq) / (2 * a)), complex((-b + sq) / (2 * a))]
        pts = _aberth_points(q[None, :])[0]
        return [self._polish(complex(p), on=m - 1, steps=1) for p in pts]

    def _validated(self, c: complex, m: int) -> bool:
        for j in range(m):
            val, scale = self.value_and_scale(j, c)
            if abs(val) > _VALIDATE_LO * scale:
                return False
        val, scale = self.value_and_scale(m, c)
        return abs(val) > _VALIDATE_HI * scale

    def _deflated_refine(self, z: complex,
                         anchors: list[tuple[complex, int]]) -> complex:
        """Newton steps from z on p / prod (z - a)**ma over the anchors, the
        roots found so far (Maehly's implicit deflation: a correction term,
        no coefficient division).  A point left over beside a resolved
        m-fold root carries the ring's error; with the found roots divided
        out, Newton lands it on a root not yet taken.
        """
        c0 = self.deriv(0)
        c1 = self.deriv(1)
        for _ in range(60):
            pv = complex(_polyval(c0, z))
            dz = [z - a for a, _ in anchors]
            if pv == 0 or 0 in dz:
                break
            s = complex(_polyval(c1, z)) / pv
            for d, (_, ma) in zip(dz, anchors):
                s -= ma / d
            if s == 0:
                break
            w = 1.0 / s
            if not np.isfinite(w):
                break
            z = z - w
            if abs(w) / max(1.0, abs(z)) <= 1e-13:
                break
        return z

    def _resolve_component(self, comp: list[complex]) -> list[tuple[complex, int]]:
        """One pass over a linked cluster: its first validated m-fold center,
        then each leftover point, nearest first, as a simple root."""
        k = len(comp)
        if k == 1:
            return [(self._polish(comp[0]), 1)]
        centroid = complex(np.mean(comp))
        diameter = max(abs(a - b) for a in comp for b in comp)
        reach = 2.0 * diameter + self._link_radius(k)(centroid, centroid)
        for m in range(k, 1, -1):
            cands = [c for c in self._candidate_centers(m) if abs(c - centroid) <= reach]
            cands.sort(key=lambda c: abs(c - centroid))
            for c in cands:
                if not self._validated(c, m):
                    continue
                found = [(c, m)]
                for p in sorted(comp, key=lambda p: abs(p - c))[m:]:
                    found.append((self._polish(self._deflated_refine(p, found)), 1))
                return found
        return [(self._polish(p), 1) for p in comp]

    def _merge(self, entries: list[tuple[complex, int]]) -> list[tuple[complex, int]]:
        pts = [e[0] for e in entries]
        merged = []
        for idxs in _component_indices(pts, lambda a, b: CLUSTER_RADIUS):
            members = [entries[i] for i in idxs]
            total = sum(m for _, m in members)
            loc = sum(r * m for r, m in members) / total
            merged.append((complex(loc), total))
        return merged

    def resolve(self, points: list[complex]) -> list[tuple[complex, int]]:
        entries: list[tuple[complex, int]] = []
        for idxs in _component_indices(points, self._link_radius(self.d)):
            entries.extend(self._resolve_component([points[i] for i in idxs]))
        entries = self._merge(entries)
        entries.sort(key=lambda e: (e[0].real, e[0].imag))
        return entries


def _finalize_points(coeffs: np.ndarray, pts: np.ndarray) -> RootMultiset:
    resolver = _RootResolver(coeffs)
    entries = resolver.resolve([complex(p) for p in pts])
    top = float(np.abs(coeffs).max())
    d = len(coeffs) - 1
    residual = 0.0
    for r, _ in entries:
        scale = top * max(1.0, abs(r)) ** d
        residual = max(residual, abs(complex(_polyval(coeffs, r))) / scale)
    return RootMultiset(tuple(entries), residual)


def _simple_multisets(rows: np.ndarray, pts: np.ndarray) -> list[RootMultiset | None]:
    """Root multisets of the rows whose points are all simple; None elsewhere.

    A row is simple when no two of its points lie within the resolver's link
    radius.  _finalize_points would then resolve every point as a
    one-point component, so this does its work as array operations: two
    guarded Newton steps per point keeping the best (_RootResolver._polish),
    normalization and the (real, imag) sort as in _merge and resolve, and the
    scaled residual.  Rows with a non-finite point, a linked pair, or two
    polished points within CLUSTER_RADIUS (which _merge would join) come back
    None.  The values and derivatives come from _horner_batch, whose complex
    products numpy may fuse, so locations can differ from the scalar path in
    the last bits.
    """
    out: list[RootMultiset | None] = [None] * len(rows)
    d = pts.shape[1]
    off = ~np.eye(d, dtype=bool)
    with np.errstate(all="ignore"):
        mag = np.maximum(1.0, np.abs(pts))
        reach = np.maximum(CLUSTER_RADIUS, _SPLIT_NOISE ** (1.0 / d)
                           * np.maximum(mag[:, :, None], mag[:, None, :]))
        linked = (np.abs(pts[:, :, None] - pts[:, None, :]) <= reach) & off
        idx = np.nonzero(np.isfinite(pts).all(axis=1) & ~linked.any(axis=(1, 2)))[0]
        if idx.size == 0:
            return out
        c = rows[idx]
        z0 = pts[idx]
        # _polish's two guarded steps; a zero derivative gives a non-finite
        # step, which the masks reject as _polish's break does
        v0, d0, _ = _horner_batch(c, z0)
        z1 = z0 - v0 / d0
        v1, d1, _ = _horner_batch(c, z1)
        z2 = z1 - v1 / d1
        v2, _, _ = _horner_batch(c, z2)
        a1 = np.abs(v1)
        step1 = (d0 != 0) & (a1 < np.abs(v0))
        step2 = step1 & (d1 != 0) & (np.abs(v2) < a1)
        best = np.where(step2, z2, np.where(step1, z1, z0)) + 0.0   # -0.0 -> 0.0
        val = np.where(step2, v2, np.where(step1, v1, v0))
        joined = ((np.abs(best[:, :, None] - best[:, None, :]) <= CLUSTER_RADIUS)
                  & off).any(axis=(1, 2))
        scale = np.abs(c).max(axis=1, keepdims=True) \
            * np.maximum(1.0, np.abs(best)) ** d
        residual = (np.abs(val) / scale).max(axis=1)
    # numpy orders complex values by (real, imag), as resolve's sort does
    best = np.sort(best, axis=1)
    for row, locs, res, bad in zip(idx.tolist(), best.tolist(),
                                   residual.tolist(), joined.tolist()):
        if not bad:
            out[row] = RootMultiset(tuple((z, 1) for z in locs), res)
    return out


def _roots_rows(rows: np.ndarray, degrees: np.ndarray) -> list[RootMultiset | None]:
    """Root multisets of the rows of a coefficient block, row i taken to
    degree degrees[i]; None for a row of degree -1 (zero).

    The one root path behind roots and roots_batch.  roots calls this, not
    roots_batch, so that perfbench's roots_batch counters see batch calls only.
    Rows of equal degree d are iterated together as rows[idx, :d+1]; rows
    whose points are all simple are finished together (_simple_multisets),
    the rest go through the resolver one by one.
    """
    results: list[RootMultiset | None] = [None] * len(degrees)
    for d in sorted(set(degrees.tolist()) - {-1}):
        idx = np.flatnonzero(degrees == d)
        if d == 0:
            for i in idx.tolist():
                results[i] = RootMultiset((), 0.0)
            continue
        block = rows[idx, : d + 1]
        pts = _aberth_points(block)
        simple = _simple_multisets(block, pts)
        for row, i in enumerate(idx.tolist()):
            results[i] = simple[row] if simple[row] is not None \
                else _finalize_points(block[row], pts[row])
    return results


def roots(p: Poly) -> RootMultiset:
    """All roots of p with clustered multiplicities: the one-row case of
    _roots_rows.

    Raises ZeroPolynomial for the zero polynomial; a nonzero constant yields
    an empty multiset.  Entries within CLUSTER_RADIUS of each other are
    merged with summed multiplicity.
    """
    d = p.degree()
    if d is None:
        raise ZeroPolynomial("roots of the zero polynomial are undefined")
    return _roots_rows(p.coeffs[None, :], np.array([d]))[0]


def roots_batch(polys, trim_tol: float = TRIM_TOL) -> list[RootMultiset | None]:
    """Root multisets for the rows of a coefficient block, one per row.

    polys is a 2-D array (row i holds the z**k coefficients of polynomial
    i), which is used as it is, or a sequence of Poly objects and
    coefficient sequences, which is zero-padded into one block first.  Each
    row is trimmed by _trimmed_degrees at trim_tol (0 drops exact zeros
    only).  The simultaneous iteration is batched across rows of equal
    trimmed degree, which is where the speed comes from when scanning
    hundreds of slice polynomials.  Rows whose points are all simple roots
    are then finished together as arrays; only rows with a cluster of
    points go through the multiplicity resolver one by one, so a simple
    root may differ from the resolver's in the last bits.  Zero rows map to
    None; constants map to an empty multiset.
    """
    if isinstance(polys, np.ndarray) and polys.ndim == 2:
        block = polys.astype(np.complex128, copy=False)
    else:
        coeffs = [p.coeffs if isinstance(p, Poly) else _as_coeff_array(p) for p in polys]
        block = np.zeros((len(coeffs), max((c.size for c in coeffs), default=1)),
                         dtype=np.complex128)
        for row, c in zip(block, coeffs):
            row[: c.size] = c
    return _roots_rows(block, _trimmed_degrees(block, trim_tol))


def root_uncertainty(coeffs, root: complex, multiplicity: int = 1) -> float:
    """First-order location uncertainty of a computed root under relative
    coefficient noise COEFF_NOISE.

    An m-fold location is tracked through the simple root it induces in the
    (m-1)-st derivative, which is first-order stable even though the raw
    m-fold cluster scatters like noise**(1/m).  Returns inf when the relevant
    derivative vanishes at the root (the location carries no guarantee).
    """
    c = coeffs.coeffs if isinstance(coeffs, Poly) else _as_coeff_array(coeffs)
    for _ in range(multiplicity - 1):
        if len(c) <= 1:
            return float("inf")
        c = c[1:] * np.arange(1, len(c))
    if len(c) <= 1:
        return float("inf")
    dc = c[1:] * np.arange(1, len(c))
    r = abs(root)
    bound = 0.0
    for k in range(len(c) - 1, -1, -1):
        bound = bound * r + abs(c[k])
    denom = abs(complex(_polyval(dc, root)))
    if denom == 0.0:
        return float("inf")
    return COEFF_NOISE * bound / denom


def _expand_rows(root_rows: np.ndarray, leading: complex = 1.0) -> np.ndarray:
    """Row i holds the coefficients of leading * prod_k (z - root_rows[i, k]).

    Every row takes the recurrence c <- [c * (-r_k), 0] + [0, c] in k order
    with the same elementwise operations, so a row expanded alone equals the
    same row inside any batch bit for bit.
    """
    n, d = root_rows.shape
    c = np.full((n, 1), leading, dtype=np.complex128)
    for k in range(d):
        nxt = np.zeros((n, k + 2), dtype=np.complex128)
        nxt[:, 1:] = c
        nxt[:, : k + 1] += c * -root_rows[:, k: k + 1]
        c = nxt
    return c


def from_roots(root_list: Iterable[complex], leading: complex = 1.0) -> Poly:
    """Expanded product leading * prod(z - r), the one-row case of _expand_rows.

    It multiplies in one linear factor at a time; against a product of
    np.convolve steps the coefficients differ only by rounding.
    """
    lead = complex(leading)
    if lead == 0:
        raise ValueError("leading coefficient must be nonzero")
    rts = np.asarray(list(root_list), dtype=np.complex128).reshape(1, -1)
    return Poly(_expand_rows(rts, lead)[0])


def approx_gcd(ps: Iterable[Poly]) -> Poly:
    """Monic polynomial whose roots are the clustered common roots of all members.

    Root locations are matched across members within CLUSTER_RADIUS and the
    common multiplicity is the minimum over members; with no common root the
    result is the constant 1.  Members must be nonzero after trimming.
    """
    members = list(ps)
    if not members:
        raise ValueError("approx_gcd needs a nonempty collection")
    multisets = []
    for p in members:
        d = p.degree()
        if d is None:
            raise ZeroPolynomial("approx_gcd members must be nonzero")
        if d == 0:
            return Poly.one()
        multisets.append(roots(p))

    agg = [{"loc": r, "mult": m, "sum": r, "n": 1} for r, m in multisets[0].entries]
    for rm in multisets[1:]:
        kept = []
        for a in agg:
            best = None
            for r2, m2 in rm.entries:
                dist = abs(r2 - a["loc"])
                if dist <= CLUSTER_RADIUS and (best is None or dist < best[0]):
                    best = (dist, r2, m2)
            if best is not None:
                a["mult"] = min(a["mult"], best[2])
                a["sum"] += best[1]
                a["n"] += 1
                kept.append(a)
        agg = kept
        if not agg:
            break
    if not agg:
        return Poly.one()
    agg.sort(key=lambda a: ((a["sum"] / a["n"]).real, (a["sum"] / a["n"]).imag))
    locations: list[complex] = []
    for a in agg:
        locations.extend([a["sum"] / a["n"]] * a["mult"])
    return from_roots(locations, 1.0)
