import math

import numpy as np
import pytest

from rootcert import LinearOperator, Poly, preset
from rootcert.certify import CertReport, certify_closed, certify_open
from rootcert.symbols import nonvanishing_check, operator_symbol

HORIZON = 8


def build_battery(horizon: int = HORIZON, seed: int = 7) -> dict[str, LinearOperator]:
    """Operator battery shared by the certifier and acceptance tests.

    Mix of analytically understood members (identity, differentiation,
    coordinate multiplication, multiplier sequences, rank-one operators with
    the direction's roots in each region) plus a handful of random
    derivative-expansion operators.
    """
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
    ones = [1.0] * (horizon + 1)
    point_eval_0 = [1.0] + [0.0] * horizon          # f -> f(0)
    point_eval_i = [1j ** k for k in range(horizon + 1)]  # f -> f(i)
    ops["rank1-interior"] = LinearOperator.rank_one(point_eval_0, Poly([-1j, 1]))
    ops["rank1-boundary"] = LinearOperator.rank_one(point_eval_0, Poly([-1, 1]))
    ops["rank1-exterior"] = LinearOperator.rank_one(point_eval_0, Poly([1j, 1]))
    ops["rank1-eval-i"] = LinearOperator.rank_one(point_eval_i, Poly([2j, 1]))
    ops["mul-z+i"] = LinearOperator.multiply_by(Poly([1j, 1]), horizon)
    ops["mul-z-1"] = LinearOperator.multiply_by(Poly([-1, 1]), horizon)
    ops["mul-z-i"] = LinearOperator.multiply_by(Poly([-1j, 1]), horizon)
    ops["one-plus-D"] = LinearOperator.from_diff_expansion(
        [Poly([1]), Poly([1])], horizon)
    rng = np.random.default_rng(seed)
    for i in range(5):
        qs = [Poly(rng.standard_normal(3) + 1j * rng.standard_normal(3))
              for _ in range(3)]
        ops[f"random-diff-{i}"] = LinearOperator.from_diff_expansion(qs, horizon)
    assert len(ops) >= 20
    return ops


@pytest.fixture(scope="session")
def battery() -> dict[str, LinearOperator]:
    return build_battery()


@pytest.fixture(scope="session")
def battery_reports(battery):
    """Closed and open reports for every battery operator on matched budgets."""
    dom = preset("upper-half-plane")
    return {name: (certify_closed(op, dom), certify_open(op, dom))
            for name, op in battery.items()}


def closure_scan_finds_zero(op: LinearOperator, dom, report: CertReport) -> bool:
    """Whether a closure-mode symbol scan finds a zero with z in the closure
    and w interior, at the report's degrees and budget.

    It stops at the first zero and skips identically zero symbols, drawing
    its w-samples from the budget's stream 1, so it stands apart from the
    closed scan (stream 0) that the report's verdict rests on.
    """
    budget = report.budget
    rng = budget.stream(1)
    for n in range(report.n_max + 1):
        sym = operator_symbol(op, dom, n)
        if sym.is_zero():
            continue
        if nonvanishing_check(sym, dom, True, budget.w_samples, rng=rng).found:
            return True
    return False


def open_routes_agree(op: LinearOperator, dom, report: CertReport) -> bool:
    """Whether the open report's route (the closed scan plus the minimal-k
    boundary test) falsifies exactly when the closure-mode scan finds a zero.
    A report without those diagnostics raises KeyError, never passes."""
    diag = report.diagnostics
    falsifies = (diag["closed_verdict"] == "falsified"
                 or not diag["boundary_check"]["passed"])
    return closure_scan_finds_zero(op, dom, report) == falsifies


@pytest.fixture(scope="session")
def routes_agree():
    """open_routes_agree, for test modules."""
    return open_routes_agree
