"""Falsifier against certifier: a falsify witness must never sit next to a
passing certify verdict for the same class.

The falsifier shares no decision code with the certifier's symbol scan: it
draws admissible inputs, maps them and roots the images.  Every battery
operator is checked on all four presets, for the closed class
(complement -> complement) and the open class (exterior -> exterior), at
seed 0 with 128 w-samples per slice and 500 falsifier trials at degrees
0..8 (up to the horizon).  Next to the battery runs the operator of
ROADMAP item 2, whose images carry a noise-level top coefficient: the
falsifier's count must trim it as roots_batch does.
"""

import numpy as np
import pytest

from rootcert import LinearOperator, Poly, RegionClass, preset
from rootcert.certify import Budget, Verdict, certify_closed, certify_open, falsify

from conftest import build_battery

PRESET_NAMES = ("upper-half-plane", "lower-half-plane", "unit-disk",
                "exterior-unit-disk")
CLASSES = {"closed": (certify_closed, RegionClass.COMPLEMENT),
           "open": (certify_open, RegionClass.EXTERIOR)}
BUDGET = Budget(w_samples=128, seed=0)
TRIALS = 500
DEGREES = (0, 8)


def _noise_top_operator() -> LinearOperator:
    """N 3, T[z^k] = (z - i)(z + 1) z^k + 1e-16 z^(k+3)."""
    images = []
    for k in range(4):
        c = np.zeros(k + 4, dtype=np.complex128)
        c[k: k + 3] = [-1j, 1 - 1j, 1]
        c[k + 3] = 1e-16
        images.append(Poly(c))
    return LinearOperator(images)


# operators kept out of the perfbench battery, whose fingerprint they would change
EXTRA_OPERATORS = {"noise-top": _noise_top_operator()}

_DERIVATIVE_ON_THE_DISK = (
    "false pass, ROADMAP items 7 and 10(i): after the core division the "
    "derivative's cofactor is -2n*i*w, zero at the interior point w = 0, "
    "which the w-sampler never draws; ")
KNOWN_CONTRADICTIONS = {
    ("derivative", "unit-disk", "closed"): _DERIVATIVE_ON_THE_DISK + (
        "the falsifier finds p with roots at |z| ~ 1.07 and 1.01 whose "
        "derivative has the root -0.474 - 0.062i"),
    ("derivative", "unit-disk", "open"): _DERIVATIVE_ON_THE_DISK + (
        "the falsifier finds p of degree 5 with roots at |z| from 1.003 to "
        "2.13 whose derivative has the root -0.136 - 0.884i"),
    ("mul-z-i", "unit-disk", "closed"): (
        "false refutation, ROADMAP items 2 and 4: z - i preserves the closed "
        "complement since i lies on the circle, but an input with a boundary "
        "root 9.6e-5 from i gives an image whose near-double root at i comes "
        "back 2.9e-9 inside the circle with a residual below RESIDUAL_TOL"),
}


def _cases():
    for name in [*build_battery(), *EXTRA_OPERATORS]:
        for dom in PRESET_NAMES:
            for cls in CLASSES:
                reason = KNOWN_CONTRADICTIONS.get((name, dom, cls))
                marks = () if reason is None else \
                    pytest.mark.xfail(strict=True, reason=reason)
                yield pytest.param(name, dom, cls, marks=marks,
                                   id=f"{name}-{dom}-{cls}")


@pytest.mark.parametrize("name,dom_name,cls", _cases())
def test_no_witness_beside_a_passing_verdict(battery, name, dom_name, cls):
    op = EXTRA_OPERATORS[name] if name in EXTRA_OPERATORS else battery[name]
    dom = preset(dom_name)
    certify, region = CLASSES[cls]
    report = certify(op, dom, budget=BUDGET)
    if report.verdict is Verdict.FALSIFIED:
        return
    degrees = (DEGREES[0], min(DEGREES[1], op.horizon))
    witness = falsify(op, dom, region, region, degrees, TRIALS,
                      np.random.default_rng(BUDGET.seed))
    assert witness is None, (
        f"{report.verdict.value} beside a witness p = {witness.p.coeffs} with "
        f"bad root {witness.bad_root}")
