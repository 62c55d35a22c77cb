"""Decision procedures for root-preservation classes plus the falsifier oracle.

Verdict semantics: sampling-based passes are evidence-consistent, never
proof; only the rank-one branch (finitely checkable given root finding)
earns a certificate.  Falsified reports always carry a witness that has been
re-verified by independent residual and region checks.  Reports embed the
seed and sample budget so every run is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union

import numpy as np

from .domains import _TAG_BY_CODE, MoebiusDomain, RegionClass, RegionTag
from .errors import (AllImagesZero, DegreeOutOfRange, RootFindingFailed,
                     ZeroOperator)
from .operators import LinearOperator, RankOneForm
from .poly import (Poly, RootMultiset, _expand_rows, approx_gcd, from_roots,
                   root_uncertainty, roots, roots_batch)
from .symbols import ZeroWitness, _as_rng, nonvanishing_check, operator_symbol

RESIDUAL_TOL = 1e-8
BOUNDARY_FRACTION = 0.25   # share of boundary roots in closed-class samples


class Verdict(str, Enum):
    CERTIFIED_RANK_ONE = "certified-rank-one"
    EVIDENCE_CONSISTENT = "evidence-consistent"
    FALSIFIED = "falsified"


class Route(str, Enum):
    """Which decision procedure produced the verdict."""

    CLOSED_SYMBOL = "closed-symbol"                  # symbol stability, all degrees
    CLOSED_SYMBOL_BOUNDED = "closed-symbol-bounded"  # symbol stability at one degree
    CLOSED_PLUS_BOUNDARY = "closed-plus-boundary"    # closed evidence + minimal-k boundary roots
    OPEN_SYMBOL = "open-symbol"                      # rank-one direction strictly exterior
    FALSIFIER = "falsifier"                          # randomized oracle only


@dataclass(frozen=True)
class Budget:
    """Sampling budget; the seed fully determines every drawn quantity."""

    w_samples: int = 512
    trials: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.w_samples < 1 or self.trials < 1:
            raise ValueError("a budget needs w_samples >= 1 and trials >= 1")

    def stream(self, tag: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, tag])


@dataclass
class PolyWitness:
    """A polynomial with admissible roots whose image leaves the target region."""

    p: Poly
    image: Poly
    bad_root: complex
    bad_root_tag: RegionTag
    residuals: dict


@dataclass
class BoundaryCheck:
    """Roots of the first nonzero monomial image, tagged against the boundary."""

    k: int
    image: Poly
    root_multiset: Optional[RootMultiset]
    tags: tuple[RegionTag, ...]
    passed: bool


@dataclass
class CertReport:
    verdict: Verdict
    route: Route
    target_class: RegionClass
    horizon: int
    n_max: Optional[int]
    budget: Budget
    witness: Union[PolyWitness, ZeroWitness, None]
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# witness verification
# ---------------------------------------------------------------------------

def _scaled_residual(p: Poly, z: complex) -> float:
    d = p.degree() or 0
    return abs(complex(p(z))) / (p.max_abs() * max(1.0, abs(z)) ** d)


def _verified_poly_witness(op: LinearOperator, dom: MoebiusDomain, p: Poly,
                           image: Poly, source: RegionClass, target: RegionClass,
                           preferred: complex | None = None) -> PolyWitness | None:
    """Independent residual and region checks; None when anything fails.

    The bad root must leave the target class robustly: its location
    uncertainty under coefficient noise may not let it slip back inside.
    """
    if image.is_zero():
        return None
    source_residual = 0.0
    d = p.degree()
    if d is None:
        return None
    if d > 0:
        rm = roots(p)
        for r, _ in rm.entries:
            if not source.contains(dom.classify(r)):
                return None
        source_residual = rm.residual
    reapplied = op.apply(p)
    if not reapplied.allclose(image, rtol=1e-10):
        return None
    image_rm = roots(image)
    escape = target.outside_class
    candidates = []
    for r, mult in image_rm.entries:
        rho = root_uncertainty(image.coeffs, r, mult)
        if dom.robustly_in(escape, r, rho):
            candidates.append((r, dom.classify(r)))
    bad = None
    if preferred is not None:
        close = [(r, t) for r, t in candidates
                 if abs(r - preferred) <= 1e-6 * max(1.0, abs(preferred))]
        if close:
            bad = close[0]
    if bad is None:
        if not candidates:
            return None
        bad = candidates[0]
    bad_root, bad_tag = bad
    image_residual = _scaled_residual(image, bad_root)
    if image_residual > RESIDUAL_TOL:
        return None
    return PolyWitness(p, image, complex(bad_root), bad_tag,
                       {"image_residual_at_bad_root": image_residual,
                        "source_root_residual": source_residual,
                        "image_root_residual": image_rm.residual})


# ---------------------------------------------------------------------------
# rank-one branch
# ---------------------------------------------------------------------------

def _direction_tags(direction: Poly, dom: MoebiusDomain) -> tuple[RegionTag, ...]:
    if (direction.degree() or 0) == 0:
        return ()
    rm = roots(direction)
    return tuple(dom.classify(r) for r, _ in rm.entries)


def _rank_one_diag(form: RankOneForm, tags: tuple[RegionTag, ...]) -> dict:
    return {
        "direction": [[c.real, c.imag] for c in form.direction.coeffs],
        "direction_degree": form.direction.degree() or 0,
        "direction_root_tags": [t.value for t in tags],
        "alphas": [[complex(a).real, complex(a).imag] for a in form.alphas],
    }


# ---------------------------------------------------------------------------
# closed-class certification
# ---------------------------------------------------------------------------

def _closed_core(op: LinearOperator, dom: MoebiusDomain, degrees, budget: Budget):
    """Closed-class verdict, witness and diagnostics, plus the root tags of
    the rank-one direction (None when the operator is not rank one).
    The symbol scan stops at the first degree with a zero."""
    diag: dict = {}
    form = op.rank_one_form()
    tags = None
    if form is not None:
        tags = _direction_tags(form.direction, dom)
        diag["rank_one"] = _rank_one_diag(form, tags)
        if all(t.in_complement for t in tags):
            return Verdict.CERTIFIED_RANK_ONE, None, diag, tags
    rng = budget.stream(0)
    witness = None
    per_n = []
    for n in degrees:
        sym = operator_symbol(op, dom, n)
        if sym.is_zero():
            per_n.append({"n": n, "status": "zero-symbol"})
            continue
        res = nonvanishing_check(sym, dom, False, w_samples=budget.w_samples,
                                 rng=rng)
        if res.found:
            witness = res.witness
            per_n.append({"n": n, "status": "zero-found",
                          "z": [witness.z.real, witness.z.imag],
                          "w": [witness.w.real, witness.w.imag]})
            break
        per_n.append({"n": n, "status": "no-zero-found", "samples": res.w_samples})
    diag["symbols_closed"] = per_n
    verdict = Verdict.EVIDENCE_CONSISTENT if witness is None else Verdict.FALSIFIED
    return verdict, witness, diag, tags


def _degrees(op: LinearOperator, n_max: int) -> range:
    """The symbol degrees 0..n_max; n_max must lie in [0, horizon]."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if n_max > op.horizon:
        raise DegreeOutOfRange(f"n_max {n_max} exceeds the horizon {op.horizon}")
    return range(n_max + 1)


def certify_closed(op: LinearOperator, dom: MoebiusDomain, n_max: int = 8,
                   budget: Budget = Budget()) -> CertReport:
    """Membership evidence for the closed complement class.

    A rank-one operator whose direction has all roots in the closed
    complement is certified outright.  Otherwise each operator symbol up to
    n_max is searched for zeros with both variables interior; identically
    zero symbols vacuously pass and are skipped.
    """
    verdict, witness, diag, _ = _closed_core(op, dom, _degrees(op, n_max), budget)
    diag["minimal_k"] = op.minimal_k()
    return CertReport(verdict, Route.CLOSED_SYMBOL, RegionClass.COMPLEMENT,
                      op.horizon, n_max, budget, witness, diag)


def certify_closed_bounded(op: LinearOperator, dom: MoebiusDomain,
                           budget: Budget = Budget()) -> CertReport:
    """Closed-class evidence for an operator defined only up to a degree bound.

    Identical to certify_closed except that only the symbol at the exact
    bound degree is checked.
    """
    if op.bounded_degree is None:
        raise ValueError("certify_closed_bounded needs a degree-bounded operator")
    n = op.bounded_degree
    verdict, witness, diag, _ = _closed_core(op, dom, [n], budget)
    diag["minimal_k"] = op.minimal_k()
    return CertReport(verdict, Route.CLOSED_SYMBOL_BOUNDED, RegionClass.COMPLEMENT,
                      op.horizon, n, budget, witness, diag)


# ---------------------------------------------------------------------------
# the open/closed difference test
# ---------------------------------------------------------------------------

def boundary_root_check(op: LinearOperator, dom: MoebiusDomain) -> BoundaryCheck:
    """Tags the roots of the first nonzero monomial image; passes iff none
    lands in the boundary band.  A nonzero constant image passes vacuously."""
    k = op.minimal_k()
    if k is None:
        raise ZeroOperator("the boundary-root check needs a nonzero operator")
    img = op.images[k]
    if img.degree() == 0:
        return BoundaryCheck(k, img, None, (), True)
    rm = roots(img)
    tags = tuple(dom.classify(r) for r, _ in rm.entries)
    return BoundaryCheck(k, img, rm, tags,
                         all(t is not RegionTag.BOUNDARY for t in tags))


def _boundary_check_diag(bc: BoundaryCheck) -> dict:
    rts = [] if bc.root_multiset is None else \
        [[r.real, r.imag] for r, _ in bc.root_multiset.entries]
    return {"k": bc.k, "roots": rts, "tags": [t.value for t in bc.tags],
            "passed": bc.passed}


def _boundary_poly_witness(op: LinearOperator, dom: MoebiusDomain,
                           bc: BoundaryCheck, rng: np.random.Generator) -> PolyWitness:
    # Every input of degree exactly k maps to a scalar multiple of the k-th
    # image (smaller images vanish), so any admissible degree-k input whose
    # image survives is a witness at the boundary root.
    bad = next(r for (r, _), t in zip(bc.root_multiset.entries, bc.tags)
               if t is RegionTag.BOUNDARY)
    for _ in range(50):
        rts = dom.sample(RegionTag.EXTERIOR, bc.k, rng)
        p = from_roots(rts, 1.0)
        image = op.apply(p)
        if image.is_zero():
            continue
        w = _verified_poly_witness(op, dom, p, image, RegionClass.EXTERIOR,
                                   RegionClass.EXTERIOR, preferred=bad)
        if w is not None:
            return w
    raise RootFindingFailed("could not realize a boundary witness; "
                            "the boundary root check may be marginal")


# ---------------------------------------------------------------------------
# open-class certification
# ---------------------------------------------------------------------------

def certify_open(op: LinearOperator, dom: MoebiusDomain, n_max: int = 8,
                 budget: Budget = Budget()) -> CertReport:
    """Membership evidence for the open exterior class.

    An operator preserves the open class exactly when it preserves the
    closed class and its first nonzero monomial image has no boundary root,
    so the verdict is the closed-class check combined with the minimal-k
    boundary-root test.  No closure-mode symbol scan runs here; the test
    suite runs one as an independent check on this route.

    The rank-one certificate requires every direction root strictly
    exterior; when the direction merely stays in the closed complement
    (boundary roots) the report flags that a weaker literal reading exists
    and the operator falls through to the general branch, which falsifies it.

    Degree-bounded operators have no certificate route for the open class and
    are handed to the falsifier oracle.
    """
    if op.bounded_degree is not None:
        rng = budget.stream(3)
        w = falsify(op, dom, RegionClass.EXTERIOR, RegionClass.EXTERIOR,
                    (0, op.bounded_degree), budget.trials, rng)
        verdict = Verdict.FALSIFIED if w is not None else Verdict.EVIDENCE_CONSISTENT
        diag = {"notes": ["oracle-only: no certificate route covers degree-bounded "
                          "operators on an open region"],
                "trials": budget.trials}
        return CertReport(verdict, Route.FALSIFIER, RegionClass.EXTERIOR,
                          op.horizon, None, budget, w, diag)
    if op.is_zero():
        raise ZeroOperator("the open-class certifier needs a nonzero operator")
    degrees = _degrees(op, n_max)

    closed_verdict, closed_witness, diag, tags = _closed_core(
        op, dom, degrees, budget)
    diag["closed_verdict"] = closed_verdict.value
    diag["minimal_k"] = op.minimal_k()

    bc = boundary_root_check(op, dom)
    diag["boundary_check"] = _boundary_check_diag(bc)

    if tags is not None:
        strictly_exterior = all(t is RegionTag.EXTERIOR for t in tags)
        literal_ok = all(t.in_complement for t in tags)
        if literal_ok and not strictly_exterior:
            diag["rank_one_literal_reading_differs"] = True
            diag.setdefault("notes", []).append(
                "rank-one direction keeps to the closed complement but touches "
                "the boundary; the strict exterior reading (implemented) refuses "
                "the certificate and the boundary route decides")
        if strictly_exterior:
            return CertReport(Verdict.CERTIFIED_RANK_ONE, Route.OPEN_SYMBOL,
                              RegionClass.EXTERIOR, op.horizon, n_max, budget,
                              None, diag)

    if closed_verdict is Verdict.FALSIFIED:
        return CertReport(Verdict.FALSIFIED, Route.CLOSED_PLUS_BOUNDARY,
                          RegionClass.EXTERIOR, op.horizon, n_max, budget,
                          closed_witness, diag)
    if not bc.passed:
        witness = _boundary_poly_witness(op, dom, bc, budget.stream(2))
        return CertReport(Verdict.FALSIFIED, Route.CLOSED_PLUS_BOUNDARY,
                          RegionClass.EXTERIOR, op.horizon, n_max, budget,
                          witness, diag)
    return CertReport(Verdict.EVIDENCE_CONSISTENT, Route.CLOSED_PLUS_BOUNDARY,
                      RegionClass.EXTERIOR, op.horizon, n_max, budget, None, diag)


# ---------------------------------------------------------------------------
# falsifier oracle
# ---------------------------------------------------------------------------

def _sample_class(dom: MoebiusDomain, cls: RegionClass, count: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Root samples covering a region class; closed classes mix in boundary points."""
    if count == 0:
        return np.zeros(0, dtype=np.complex128)
    tags = cls.sample_tags
    if len(tags) == 1:
        return dom.sample(tags[0], count, rng)
    on_boundary = rng.random(count) < BOUNDARY_FRACTION
    out = np.zeros(count, dtype=np.complex128)
    nb = int(on_boundary.sum())
    if nb:
        out[on_boundary] = dom.sample(RegionTag.BOUNDARY, nb, rng)
    if count - nb:
        out[~on_boundary] = dom.sample(tags[0], count - nb, rng)
    return out


def _trial_roots(dom: MoebiusDomain, cls: RegionClass, degrees: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
    """Row t holds the degrees[t] roots of trial t, drawn in trial order as
    _sample_class draws them, then zero padding."""
    tags = cls.sample_tags
    if len(tags) == 1:
        return dom.sample_rows(tags[0], degrees, rng)
    out = np.zeros((degrees.size, int(degrees.max())), dtype=np.complex128)
    for t, d in enumerate(degrees.tolist()):
        out[t, :d] = _sample_class(dom, cls, d, rng)
    return out


def falsify(op: LinearOperator, dom: MoebiusDomain,
            source: RegionClass = RegionClass.INTERIOR,
            target: RegionClass | None = None,
            degree_range: tuple[int, int] = (0, 6),
            trials: int = 2000, rng=0) -> PolyWitness | None:
    """Randomized search for an input with admissible roots whose image escapes.

    Inputs cycle through the degree range (degree 0 gives nonzero constants,
    which belong to every class vacuously); images that trim to zero are never
    violations.  A bad root must land strictly outside the target class: for
    open targets the boundary band counts as outside, for closed targets it
    does not.  An empty result is a valid outcome, not an error.

    Trials are built and rooted in trial-order chunks, one degree cycle
    first and twice the previous chunk after that.  Each chunk's inputs are
    drawn as one block (open source classes; closed ones mix in boundary
    points and draw trial by trial), expanded one degree at a time by
    ``_expand_rows`` and mapped by one ``apply_rows`` pass; its image roots
    are tagged in one ``tag_codes`` call, and the search returns at the
    first verified witness.  Inputs draw from rng in trial order either way,
    so the witness is the one with the smallest trial index, as if every
    trial were built by ``_sample_class``, ``from_roots`` and ``op.apply``
    and rooted at once.
    """
    target = source if target is None else target
    rng = _as_rng(rng)
    lo, hi = degree_range
    if not (0 <= lo <= hi):
        raise ValueError("degree range must satisfy 0 <= lo <= hi")
    if trials < 1:
        raise ValueError("falsify needs trials >= 1")
    cap = op.bounded_degree if op.bounded_degree is not None else op.horizon
    if hi > cap:
        raise DegreeOutOfRange(f"degree range reaches {hi}, above the operator cap {cap}")

    cycle = hi - lo + 1
    start, size = 0, cycle
    while start < trials:
        stop = min(trials, start + size)
        degrees = lo + np.arange(start, stop) % cycle
        root_rows = _trial_roots(dom, source, degrees, rng)
        inputs = np.zeros((stop - start, hi + 1), dtype=np.complex128)
        for j in range(min(cycle, stop - start)):
            d = int(degrees[j])
            inputs[j::cycle, : d + 1] = _expand_rows(root_rows[j::cycle, :d])
        multisets = roots_batch(op.apply_rows(inputs))
        found = [(t, r) for t, rm in enumerate(multisets) if rm is not None
                 for r, _ in rm.entries]
        codes = dom.tag_codes([r for _, r in found])
        for (t, r), code in zip(found, codes.tolist()):
            if target.contains(_TAG_BY_CODE[code]):
                continue
            p = Poly(inputs[t, : degrees[t] + 1])
            w = _verified_poly_witness(op, dom, p, op.apply(p), source, target,
                                       preferred=r)
            if w is not None:
                return w
        start, size = stop, 2 * size
    return None


# ---------------------------------------------------------------------------
# image GCD probe
# ---------------------------------------------------------------------------

def gcd_image(op: LinearOperator, n: int) -> Poly:
    """GCD of the images of all inputs of degree at most n.

    Those inputs span the same space as 1, z, ..., z^n, so the GCD is that
    of the nonzero basis images T[1], ..., T[z^n].  It takes no samples and
    depends on no domain or seed.
    """
    if n < 0:
        raise ValueError(f"gcd_image needs a degree n >= 0, got n = {n}")
    if n > op.horizon:
        raise DegreeOutOfRange(f"degree n = {n} exceeds the horizon {op.horizon}")
    images = [img for img in op.images[: n + 1] if not img.is_zero()]
    if not images:
        raise AllImagesZero(f"every image up to degree {n} vanishes")
    return approx_gcd(images)
