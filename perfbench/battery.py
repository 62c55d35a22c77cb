"""The benchmark's own copy of the operator battery and its file writer.

The workloads run on this copy, not on ``tests/conftest.py::build_battery``,
so that a refactor of the tests cannot silently change what is measured.
``test_perfbench.py`` checks that the two still agree image for image.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from rootcert import LinearOperator, Poly
from rootcert.cli import serialize_operator

HORIZON = 8
BATTERY_SEED = 7


def build_battery() -> dict[str, LinearOperator]:
    """The 21 operators of the test battery, built the same way."""
    horizon = HORIZON
    ops: dict[str, LinearOperator] = {}
    ops["identity"] = LinearOperator.identity(horizon)
    ops["derivative"] = LinearOperator.derivative(horizon)
    ops["mul-z"] = LinearOperator.multiply_by(Poly([0, 1]), horizon)
    ops["deriv-minus-z"] = LinearOperator.from_diff_expansion(
        [Poly([0, -1]), Poly([1])], horizon)
    ops["diag-ones"] = LinearOperator.diagonal([1.0] * (horizon + 1))
    ops["diag-k+1"] = LinearOperator.diagonal(
        [k + 1 for k in range(horizon + 1)])
    ops["diag-inv-factorial"] = LinearOperator.diagonal(
        [1.0 / math.factorial(k) for k in range(horizon + 1)])
    ops["diag-2^k"] = LinearOperator.diagonal(
        [2.0 ** k for k in range(horizon + 1)])
    point_eval_0 = [1.0] + [0.0] * horizon
    point_eval_i = [1j ** k for k in range(horizon + 1)]
    ops["rank1-interior"] = LinearOperator.rank_one(point_eval_0, Poly([-1j, 1]))
    ops["rank1-boundary"] = LinearOperator.rank_one(point_eval_0, Poly([-1, 1]))
    ops["rank1-exterior"] = LinearOperator.rank_one(point_eval_0, Poly([1j, 1]))
    ops["rank1-eval-i"] = LinearOperator.rank_one(point_eval_i, Poly([2j, 1]))
    ops["mul-z+i"] = LinearOperator.multiply_by(Poly([1j, 1]), horizon)
    ops["mul-z-1"] = LinearOperator.multiply_by(Poly([-1, 1]), horizon)
    ops["mul-z-i"] = LinearOperator.multiply_by(Poly([-1j, 1]), horizon)
    ops["one-plus-D"] = LinearOperator.from_diff_expansion(
        [Poly([1]), Poly([1])], horizon)
    rng = np.random.default_rng(BATTERY_SEED)
    for i in range(5):
        qs = [Poly(rng.standard_normal(3) + 1j * rng.standard_normal(3))
              for _ in range(3)]
        ops[f"random-diff-{i}"] = LinearOperator.from_diff_expansion(qs, horizon)
    return ops


def write_operator_files(directory: Path) -> dict[str, Path]:
    """One monomial-form JSON file per battery operator; returns name -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, op in build_battery().items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(serialize_operator(op)), encoding="utf-8")
        paths[name] = path
    return paths


def image_table(ops: dict[str, LinearOperator]) -> dict[str, list[np.ndarray]]:
    """Trimmed monomial images of each operator, as plain coefficient arrays."""
    return {name: [img.trimmed().coeffs for img in op.images]
            for name, op in ops.items()}
