"""Generalized proximal ADMM and PDHG with instrumented KKT perturbations.

Every iteration records the perturbation p^k (differences of consecutive
triples/pairs), applies the scheme's structure matrix H to it, and verifies
membership of H p^k in the KKT map at the new point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import ConfigError, NumericAbort, SolverConfig
from .losses import operator_norm
from .penalties import Penalty, _sum, penalty_from_json

CONVEX_FAMILIES = ("l1", "group-lasso", "box-indicator", "zero")
CHECK_TOL = 1e-8   # KKT inclusion residual that counts as a check passed


class ConvexTerm:
    """One block objective: a PSD quadratic or a prox-capable convex penalty."""

    def __init__(self, n, quadratic=None, penalty: Penalty | None = None):
        self.n = n
        if (quadratic is None) == (penalty is None):
            raise ConfigError("term must be quadratic xor penalty")
        if quadratic is not None:
            Q, q = quadratic
            self.Q = np.asarray(Q, dtype=float)
            self.q = np.asarray(q, dtype=float)
            if self.Q.shape != (n, n) or self.q.shape != (n,):
                raise ConfigError("quadratic term has wrong dimensions")
            if (not np.allclose(self.Q, self.Q.T, atol=1e-12)
                    or np.min(np.linalg.eigvalsh(self.Q)) < -1e-10):
                raise ConfigError("quadratic term must be symmetric positive semidefinite")
            self.kind = "quadratic"
            self.penalty = None
        else:
            if penalty.family not in CONVEX_FAMILIES:
                raise ConfigError("penalty term must be convex (l1, group-lasso, "
                                  "box-indicator or zero)")
            self.penalty = penalty
            self.kind = penalty.family
            self.Q = None

    def subdiff_distance(self, x, v) -> float:
        """dist(v, d theta(x))."""
        if self.penalty is not None:
            return float(np.linalg.norm(self.penalty.subdiff_distances(x, v)))
        return float(np.linalg.norm(self.Q @ np.asarray(x, dtype=float) + self.q - v))


def term_from_json(d: dict, n: int) -> ConvexTerm:
    if d.get("family") == "quadratic":
        return ConvexTerm(n, quadratic=(d["Q"], d["q"]))
    return ConvexTerm(n, penalty=penalty_from_json(d))


# ---------------------------------------------------------------------------
# problems

@dataclass
class LinearlyConstrainedProblem:
    """min theta1(x) + theta2(y)  s.t.  A x + B y = b."""

    theta1: ConvexTerm
    theta2: ConvexTerm
    A: np.ndarray
    B: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.B = np.asarray(self.B, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        m = self.b.shape[0]
        if self.A.shape != (m, self.theta1.n) or self.B.shape != (m, self.theta2.n):
            raise ConfigError("constraint matrices inconsistent with b and the terms")


@dataclass
class SaddleProblem:
    """min_x max_y phi1(x) + <y, K x> - phi2(y)."""

    phi1: ConvexTerm
    phi2: ConvexTerm
    K: np.ndarray

    def __post_init__(self):
        self.K = np.asarray(self.K, dtype=float)
        if self.K.shape != (self.phi2.n, self.phi1.n):
            raise ConfigError("K must be (dim phi2) x (dim phi1)")


class KKTTrace:
    """Triples/pairs with perturbations, H-mapped perturbations and residuals."""

    def __init__(self, blocks):
        self.blocks = blocks               # e.g. ('x', 'y', 'lambda')
        self.iterates: list[tuple] = []
        self.perturbations: list[tuple | None] = []
        self.mapped: list[tuple | None] = []       # H p^k per block
        self.inclusion_residuals: list[float] = []
        self.inclusion_flags: list[bool] = []      # residual within tolerance

    def append(self, iterate, perturbation=None, mapped=None, residual=0.0):
        self.iterates.append(tuple(np.array(v, dtype=float) for v in iterate))
        self.perturbations.append(perturbation)
        self.mapped.append(mapped)
        self.inclusion_residuals.append(float(residual))
        self.inclusion_flags.append(float(residual) <= CHECK_TOL)

    def __len__(self):
        return len(self.iterates)

    @property
    def final(self):
        return self.iterates[-1]

    def pnorm(self, k) -> float:
        p = self.perturbations[k]
        if p is None:
            return 0.0
        return math.sqrt(_sum([float(np.dot(v, v)) for v in p]))

    def pnorms(self):
        return np.array([self.pnorm(k) for k in range(len(self))])

    def write_csv(self, path, reference=None):
        ref = reference if reference is not None else self.final
        short = {"lambda": "lam"}
        cols = ["k"] + ["%snorm-err" % short.get(b, b) for b in self.blocks] \
            + ["pnorm", "inclusion_resid"]
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for k, it in enumerate(self.iterates):
                errs = [float(np.linalg.norm(v - r)) for v, r in zip(it, ref)]
                row = [str(k)] + ["%.17g" % e for e in errs]
                row += ["%.17g" % self.pnorm(k), "%.17g" % self.inclusion_residuals[k]]
                fh.write(",".join(row) + "\n")


# ---------------------------------------------------------------------------
# GPADMM

def _x_step_solver(term: ConvexTerm, M):
    """Return a solver for argmin term(x) + 0.5 x^T M x - rhs^T x.

    M is beta A^T A + D for an ADMM block and I/tau for a PDHG step; solvable
    configurations: quadratic term (M + Q factored once) or a penalty term
    with M = tau I (one prox_step).
    """
    n = term.n
    if term.kind == "quadratic":
        Mq = M + term.Q
        if np.linalg.matrix_rank(Mq) < n:
            raise ConfigError("singular subproblem; add a proximal weight D")
        lu = scipy.linalg.lu_factor(Mq)
        return lambda rhs: scipy.linalg.lu_solve(lu, rhs - term.q)
    tau = float(np.mean(np.diag(M)))
    if tau <= 0 or not np.allclose(M, tau * np.eye(n), atol=1e-10 * max(1.0, tau)):
        raise ConfigError(
            "prox step for %r needs beta A^T A + D = tau I (linearized ADMM)" % term.kind)
    return lambda rhs: term.penalty.prox_step(rhs / tau, rhs / tau, 1.0 / tau)[0]


def gpadmm_solve(prob: LinearlyConstrainedProblem, beta: float, D1, D2,
                 cfg: SolverConfig, start) -> KKTTrace:
    """Generalized proximal ADMM with per-iteration KKT perturbation checks.

    Each step verifies
      D1 p1 - beta A^T B p2 in d theta1(x+) - A^T lam+,
      D2 p2                 in d theta2(y+) - B^T lam+,
      p3 / beta             =  A x+ + B y+ - b,
    and records the largest membership residual.
    """
    if beta <= 0:
        raise ConfigError("beta must be positive")
    cfg.validate_iterations()
    A, B, b = prob.A, prob.B, prob.b
    n1, n2 = prob.theta1.n, prob.theta2.n
    D1 = np.zeros((n1, n1)) if D1 is None else np.asarray(D1, dtype=float)
    D2 = np.zeros((n2, n2)) if D2 is None else np.asarray(D2, dtype=float)
    for D, n in ((D1, n1), (D2, n2)):
        if (D.shape != (n, n) or not np.allclose(D, D.T, atol=1e-12)
                or np.min(np.linalg.eigvalsh(D)) < -1e-9):
            raise ConfigError("proximal weights must be symmetric PSD")
    x_solve = _x_step_solver(prob.theta1, beta * A.T @ A + D1)
    y_solve = _x_step_solver(prob.theta2, beta * B.T @ B + D2)

    x, y, lam = (np.array(v, dtype=float) for v in start)
    tr = KKTTrace(("x", "y", "lambda"))
    tr.append((x, y, lam))
    for _ in range(cfg.max_iter):
        rhs_x = A.T @ lam - beta * A.T @ (B @ y - b) + D1 @ x
        x_new = x_solve(rhs_x)
        rhs_y = B.T @ lam - beta * B.T @ (A @ x_new - b) + D2 @ y
        y_new = y_solve(rhs_y)
        lam_new = lam - beta * (A @ x_new + B @ y_new - b)
        if not all(np.all(np.isfinite(v)) for v in (x_new, y_new, lam_new)):
            raise NumericAbort("non-finite ADMM iterate")
        p = (x - x_new, y - y_new, lam - lam_new)
        mapped = (D1 @ p[0] - beta * (A.T @ (B @ p[1])), D2 @ p[1], p[2] / beta)
        r_x = prob.theta1.subdiff_distance(x_new, mapped[0] + A.T @ lam_new)
        r_y = prob.theta2.subdiff_distance(y_new, mapped[1] + B.T @ lam_new)
        r_lam = float(np.linalg.norm(mapped[2] - (A @ x_new + B @ y_new - b)))
        resid = max(r_x, r_y, r_lam)
        tr.append((x_new, y_new, lam_new), p, mapped, resid)
        step = tr.pnorm(len(tr) - 1)
        x, y, lam = x_new, y_new, lam_new
        if step <= cfg.stop_tol:
            break
    return tr


# ---------------------------------------------------------------------------
# PDHG

def pdhg_solve(prob: SaddleProblem, tau: float, sigma: float, cfg: SolverConfig,
               start) -> KKTTrace:
    """Primal-dual hybrid gradient with the optimality-inclusion check.

    Steps: x+ = Prox_phi1^tau(x - tau K^T y); y+ = Prox_phi2^sigma(y + sigma
    K (2x+ - x)), each an _x_step_solver step with M = I/tau, rhs = v/tau.
    With cfg.theory_mode the step rule tau sigma ||K||^2 < 1 is enforced, with
    ||K|| from operator_norm's eigvalsh upper bound.
    """
    if tau <= 0 or sigma <= 0:
        raise ConfigError("step sizes must be positive")
    cfg.validate_iterations()
    K = prob.K
    if cfg.theory_mode:
        nk = operator_norm(K)
        if not tau * sigma * nk * nk < 1.0:
            raise ConfigError("step condition tau*sigma*||K||^2 < 1 violated "
                              "(value %.6g)" % (tau * sigma * nk * nk))
    x_solve = _x_step_solver(prob.phi1, np.eye(prob.phi1.n) / tau)
    y_solve = _x_step_solver(prob.phi2, np.eye(prob.phi2.n) / sigma)
    x, y = (np.array(v, dtype=float) for v in start)
    tr = KKTTrace(("x", "y"))
    tr.append((x, y))
    for _ in range(cfg.max_iter):
        x_new = x_solve((x - tau * (K.T @ y)) / tau)
        y_new = y_solve((y + sigma * (K @ (2.0 * x_new - x))) / sigma)
        if not (np.all(np.isfinite(x_new)) and np.all(np.isfinite(y_new))):
            raise NumericAbort("non-finite PDHG iterate")
        p = (x - x_new, y - y_new)
        mapped = (p[0] / tau - K.T @ p[1], -K @ p[0] + p[1] / sigma)
        r_x = prob.phi1.subdiff_distance(x_new, mapped[0] - K.T @ y_new)
        r_y = prob.phi2.subdiff_distance(y_new, mapped[1] + K @ x_new)
        resid = max(r_x, r_y)
        tr.append((x_new, y_new), p, mapped, resid)
        step = tr.pnorm(len(tr) - 1)
        x, y = x_new, y_new
        if step <= cfg.stop_tol:
            break
    return tr
