"""Concrete test instances: the exponential/SCAD two-dimensional stationary
point cases, the four loss/penalty scenario generators, and the
downward-kink battery whose limiting stationary set strictly contains the
proximal one."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, linprog, minimize

from .core import ProblemSpec
from .losses import (Box, ExponentialLoss, LogisticLoss, QuadraticLoss,
                     StructuredCompositeLoss)
from .penalties import GroupLasso, McpPenalty, NegAbsPenalty, ScadPenalty


@dataclass
class CaseInstance:
    name: str
    prob: ProblemSpec
    z_bar: np.ndarray
    expected: str          # expected certificate outcome
    params: dict


def _exponential_scad(b, lam, a):
    return ProblemSpec(2, ExponentialLoss([list(b)], [1.0]), ScadPenalty(lam, a))


def scad_case_i(lam=1.0, a=3.0, b1_ratio=0.3) -> CaseInstance:
    """z1 = 0 with |E b1| < lam; z2 = 0 with E b2 = lam (kink of the graph)."""
    b = (b1_ratio * lam, lam)   # E = e^0 = 1 at z = 0
    prob = _exponential_scad(b, lam, a)
    return CaseInstance("case-i", prob, np.zeros(2), "isolated-calmness",
                        {"lam": lam, "a": a, "b": list(b)})


def scad_case_ii(lam=1.0, a=3.0, z2=2.9, degenerate=False) -> CaseInstance:
    """z1 = 0 with E b1 = -lam; lam < z2 < a lam on the slanted branch.

    The defining equations are solved numerically; the degenerate variant
    places b2 exactly at -1/(z2 - a lam), where a nonzero multiplier
    survives the directional test.
    """
    if degenerate:
        # closed form: a = 3, slack s := a lam - z2 = 1, so lam = (1 + ln 2)/3
        a = 3.0
        lam = (1.0 + math.log(2.0)) / 3.0
        z2 = 3.0 * lam - 1.0
        b2 = 1.0
        expected = "inconclusive"
    else:
        target = (a * lam - z2) / (a - 1.0)
        hi = 1.0 / z2   # maximizer of b e^{-z2 b}
        if hi * math.exp(-1.0) <= target:
            raise ValueError("no exponential weight meets the slanted-branch equation")
        b2 = brentq(lambda t: t * math.exp(-z2 * t) - target, 1e-12, hi)
        expected = "holds"
    E = math.exp(-b2 * z2)
    b1 = -lam / E
    prob = _exponential_scad((b1, b2), lam, a)
    return CaseInstance("case-ii%s" % ("-degenerate" if degenerate else ""),
                        prob, np.array([0.0, z2]), expected,
                        {"lam": lam, "a": a, "b": [b1, b2], "z2": z2,
                         "degeneracy_gap": b2 - 1.0 / (a * lam - z2)})


def scad_case_iii(lam=1.0, a=3.0, z2=0.2, b1_ratio=0.5) -> CaseInstance:
    """z1 = 0 with |E b1| < lam; 0 < z2 < lam on the flat branch (E b2 = lam)."""
    hi = 1.0 / z2
    if hi * math.exp(-1.0) <= lam:
        raise ValueError("z2 too large for the flat-branch equation")
    b2 = brentq(lambda t: t * math.exp(-z2 * t) - lam, 1e-12, hi)
    E = math.exp(-b2 * z2)
    b1 = b1_ratio * lam / E
    prob = _exponential_scad((b1, b2), lam, a)
    return CaseInstance("case-iii", prob, np.array([0.0, z2]), "NNAMCQ-holds",
                        {"lam": lam, "a": a, "b": [b1, b2], "z2": z2})


def example_5_1_cases():
    return [scad_case_i(), scad_case_ii(degenerate=False),
            scad_case_ii(degenerate=True), scad_case_iii()]


# ---------------------------------------------------------------------------
# scenario table (logistic/exponential x SCAD/MCP)

SCENARIOS = {
    5: ("logistic", "scad"),
    6: ("exponential", "scad"),
    7: ("logistic", "mcp"),
    8: ("exponential", "mcp"),
}


def _minimizer_within_reach(loss: ExponentialLoss, box: Box) -> bool:
    """Whether the loss has a minimizer within the box's diameter of the box,
    where PG's Lipschitz-box guard lets iterates go.  Separable data (M x >= 0
    and M x != 0 for some x, M = diag(d) C) leave it without a minimizer."""
    M = loss.M
    if -linprog(-M.sum(axis=0), A_ub=-M, b_ub=np.zeros(len(M)), bounds=(-1.0, 1.0)).fun > 1e-9:
        return False
    res = minimize(loss.value, np.zeros(loss.n), jac=loss.gradient, hess=loss.hessian,
                   method="trust-exact")
    return bool(res.success) and box.distance(res.x) <= box.diameter()


def scenario_instance(case: int, seed: int = 0, n: int = 4, rows: int = 12):
    """Random instance of one of the four loss/penalty scenarios.

    Returns (prob, box, x0): the box scopes the Lipschitz bound for the
    exponential loss and is None for the logistic one.  Exponential data
    are drawn again from the same generator until _minimizer_within_reach.
    """
    if case not in SCENARIOS:
        raise ValueError("scenario case must be one of %s" % sorted(SCENARIOS))
    loss_fam, pen_fam = SCENARIOS[case]
    rng = np.random.default_rng(seed)
    while True:
        C = rng.normal(scale=0.25, size=(rows, n))
        d = rng.choice([-1.0, 1.0], size=rows)
        if loss_fam == "logistic":
            loss, box = LogisticLoss(C, d), None
            break
        # keep the box tight so the box-scoped Lipschitz bound stays usable
        loss, box = ExponentialLoss(C, d), Box.cube(n, -2.0, 2.0)
        if _minimizer_within_reach(loss, box):
            break
    lam = 0.15
    penalty = ScadPenalty(lam, 3.7) if pen_fam == "scad" else McpPenalty(lam, 2.5)
    x0 = rng.normal(scale=0.3, size=n)
    return ProblemSpec(n, loss, penalty), box, x0


# ---------------------------------------------------------------------------
# group-lasso least squares with a non-compact solution set

def group_lasso_noncompact():
    """h(Ax) composite with rank-deficient A: the zero-weight trailing group
    spans ker A, so the optimal set is an unbounded line.

    Returns (prob, solution description): solutions are (3, 0, t), t real.
    """
    A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    H = np.eye(2)
    h0 = np.array([-4.0, 0.0])   # h(z) = 0.5||z - (4, 0)||^2 up to a constant
    loss = StructuredCompositeLoss(A, np.zeros(3), H, h0)
    penalty = GroupLasso([[0, 1], [2]], [1.0, 0.0])
    prob = ProblemSpec(3, loss, penalty)
    return prob, {"solution_base": np.array([3.0, 0.0, 0.0]),
                  "free_direction": np.array([0.0, 0.0, 1.0])}


# ---------------------------------------------------------------------------
# downward-kink battery: limiting-only stationary points exist

def negabs_battery(count: int = 10, seed: int = 7):
    """Instances of 0.5||x - c||^2 - lam ||x||_1 with c_1 = +-lam.

    At any point with a zero coordinate hitting the kink, -grad f lands in
    the limiting subdifferential {-lam, lam} but the proximal one is empty,
    so the limiting stationary set strictly contains the proximal one.
    """
    rng = np.random.default_rng(seed)
    out = []
    for j in range(count):
        lam = float(rng.uniform(0.4, 1.6))
        sign = 1.0 if j % 2 == 0 else -1.0
        n = 1 if j < count // 2 else 2
        c = np.array([sign * lam] + [float(rng.uniform(-2, 2))] * (n - 1))
        prob = ProblemSpec(n, QuadraticLoss(np.eye(n), -c), NegAbsPenalty(lam))
        box = (c - 4.0 * (1 + lam), c + 4.0 * (1 + lam))
        out.append((prob, box, lam, c))
    return out
