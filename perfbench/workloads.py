"""Workload definitions: fixed case lists over the benchmark's battery copy.

Every case is one ``rootcert`` CLI call.  The operators and the case lists
are fixed; only ``--seed`` comes from the benchmark's own ``--seed``, so the
program sees nothing but generated inputs.  A pass runs the whole case list
once; an untraced run makes ``passes`` passes so that the latency
populations are large enough for a tail with ten samples beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from battery import build_battery

# w-samples per symbol slice scan in the certify workloads.  The CLI default
# is 512; at 512 one certify-halfplane pass takes 25-40 s on a 2-core
# machine, too long for several passes in one run.  128 keeps every verdict
# of the battery and the shape of each scan (degrees 0..8, the same n-fold
# slice roots), with a quarter of the rows.
CERTIFY_SAMPLES = 128
# Oracle trials per falsify call.  Small enough that one pass holds a dozen
# calls of each outcome.  On the preservers, 500-trial calls ran 3.4k trials
# per scaled second and 10k-trial calls 3.7k on a 2-core x86-64 VM: a fixed
# cost per call weighs about 9% more at this size.
FALSIFY_TRIALS = 500
FALSIFY_DEGREES = "0..6"
GCD_DEGREE = 4


@dataclass(frozen=True)
class Case:
    """One CLI call: subcommand, battery operator, domain and extra flags."""

    command: str            # "certify", "falsify" or "gcd-image"
    op: str
    domain: str
    flags: tuple[str, ...] = ()

    @property
    def id(self) -> str:
        return "/".join((self.command, self.domain, self.op, *self.flags))

    def argv(self, ops: dict[str, Path], seed: int) -> list[str]:
        return [self.command, str(ops[self.op]), "--domain", self.domain,
                "--json", "--seed", str(seed), *self.flags]


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple[Case, ...]
    passes: int


def _certify_cases(domain: str) -> tuple[Case, ...]:
    return tuple(Case("certify", op, domain,
                      ("--class", cls, "--samples", str(CERTIFY_SAMPLES)))
                 for op in build_battery() for cls in ("closed", "open"))


def _falsify(op: str, domain: str, source: str = "interior") -> Case:
    return Case("falsify", op, domain,
                ("--source", source, "--trials", str(FALSIFY_TRIALS),
                 "--degrees", FALSIFY_DEGREES))


# Preservers: Gauss-Lucas keeps the roots of f' in the convex hull of the
# roots of f, so differentiation preserves every half-plane and the disk
# (with the closed half-plane as source too); rank1-interior maps everything
# to a multiple of (z - i).  Violators: each multiplies by, or maps onto, a
# factor whose root leaves the open region (0 and 1 on the real axis, -i
# below it, i on the unit circle), so a witness exists for every input that
# survives.
_PRESERVERS = (
    _falsify("identity", "upper-half-plane"),
    _falsify("derivative", "upper-half-plane", source="closure"),
    _falsify("rank1-interior", "upper-half-plane"),
    _falsify("identity", "unit-disk"),
    _falsify("derivative", "unit-disk"),
    _falsify("derivative", "lower-half-plane"),
)
_VIOLATORS = (
    _falsify("mul-z", "upper-half-plane"),
    _falsify("deriv-minus-z", "lower-half-plane"),
    _falsify("mul-z-1", "upper-half-plane"),
    _falsify("mul-z+i", "upper-half-plane"),
    _falsify("rank1-exterior", "upper-half-plane"),
    _falsify("mul-z-i", "unit-disk"),
)
# Image GCDs with a known common factor (z + i, z - 1) and without one.
_GCDS = tuple(Case("gcd-image", op, "upper-half-plane", ("--n", str(GCD_DEGREE)))
              for op in ("mul-z+i", "mul-z-1", "identity"))

WORKLOADS = {w.name: w for w in (
    Workload("certify-halfplane", _certify_cases("upper-half-plane"), passes=2),
    Workload("certify-disk", _certify_cases("unit-disk"), passes=4),
    Workload("falsify-oracle", _PRESERVERS + _VIOLATORS + _GCDS, passes=7),
)}
