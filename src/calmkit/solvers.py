"""Proximal gradient and proximal point iterations with full perturbation traces."""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import ConfigError, IterateTrace, NumericAbort, ProblemSpec, SolverConfig
from .diagnostics import residual
from .penalties import compile_prox, select_nearest


def _objective_and_gradient(prob: ProblemSpec, x: np.ndarray):
    """(F(x), grad f(x)) from one loss evaluation."""
    f, grad = prob.loss.value_and_gradient(x)
    return f + prob.penalty.value(x), grad


def _guard_finite(prob, x, F):
    if not math.isfinite(F) or not np.all(np.isfinite(x)):
        raise NumericAbort("non-finite objective or iterate (F=%r)" % F)


def pg_solve(prob: ProblemSpec, cfg: SolverConfig, x0) -> IterateTrace:
    """Run x^{k+1} in Prox_g^gamma(x^k - gamma grad f(x^k)).

    When the prox is set-valued the minimizer closest to x^k is selected
    (ties toward the lexicographically smaller point), which keeps traces
    deterministic.  Stops when ||x^{k+1} - x^k|| <= stop_tol.

    One prox evaluation per iterate serves both its residual
    dist(x^k, Prox(u^k)) and the step that leaves it, and one loss
    evaluation both F(x^k) and the gradient in u^k.
    """
    cfg.validate()
    x = np.array(x0, dtype=float)
    if x.shape != (prob.n,):
        raise ConfigError("x0 has wrong dimension")
    tr = IterateTrace(prob.n)
    F, grad = _objective_and_gradient(prob, x)
    _guard_finite(prob, x, F)
    x_new, res = prob.penalty.prox_step(x, x - cfg.gamma * grad, cfg.gamma)
    tr.append(x, F, res)
    for _ in range(cfg.max_iter):
        F, grad = _objective_and_gradient(prob, x_new)
        _guard_finite(prob, x_new, F)
        if cfg.lipschitz_box is not None and \
                cfg.lipschitz_box.distance(x_new) > cfg.lipschitz_box.diameter():
            raise NumericAbort("iterate left the Lipschitz box by more than its diameter")
        x_next, res = prob.penalty.prox_step(x_new, x_new - cfg.gamma * grad, cfg.gamma)
        tr.append(x_new, F, res)
        step = float(np.linalg.norm(x_new - x))
        x, x_new = x_new, x_next
        if step <= cfg.stop_tol:
            break
    return tr


# ---------------------------------------------------------------------------
# proximal point

def _f_prox_exact_separable(prob, gamma):
    """Exact F-prox x^k -> x^{k+1} for diagonal quadratic f and separable g:
    each coordinate's map, phi plus its part of f, compiled once."""
    Q, q = prob.loss.Q, prob.loss.q
    maps = [compile_prox([(lo, hi, a2 + 0.5 * Q[i, i], a1 + q[i], a0)
                          for lo, hi, a2, a1, a0 in prob.penalty.pieces], gamma)
            for i in range(prob.n)]
    return lambda xk: np.concatenate([select_nearest(m.points(xk[i:i + 1]), xk[i:i + 1])[0]
                                      for i, m in enumerate(maps)])


def _f_prox_oracle(prob, gamma, xk, window):
    """Brute-force global minimization of F(x) + ||x - xk||^2 / (2 gamma), n <= 2.

    The local minima of a grid of 201 points per axis, over their 3^n - 1
    neighbours, are refined by a shrinking stencil; the lowest wins, ties
    going to the point closest to xk.
    """
    n = prob.n

    def fvec(X):
        return prob.loss.value_many(X) + prob.penalty.value_many(X) \
            + np.sum((X - xk[None, :]) ** 2, axis=1) / (2.0 * gamma)

    cells = 201
    ax = [np.linspace(xk[i] - window, xk[i] + window, cells) for i in range(n)]
    X = np.stack([g.reshape(-1) for g in np.meshgrid(*ax, indexing="ij")], axis=1)
    V = fvec(X).reshape((cells,) * n)
    h = ax[0][1] - ax[0][0]
    offsets = list(itertools.product((-1, 0, 1), repeat=n))
    pad = np.pad(V, 1, constant_values=np.inf)
    isloc = np.ones_like(V, dtype=bool)
    for off in offsets:
        if any(off):
            isloc &= V <= pad[tuple(slice(1 + o, 1 + o + cells) for o in off)]
    cand = X[isloc.reshape(-1)]
    stencil = np.array(offsets, dtype=float)
    refined = []
    for c in cand:
        x, r = np.array(c), h
        best = float(fvec(x[None, :])[0])
        for _ in range(2000):
            if r <= 1e-10:
                break
            pts = x[None, :] + r * stencil
            vals = fvec(pts)
            i = int(np.argmin(vals))
            if vals[i] < best:
                best, x = float(vals[i]), pts[i]
            else:
                r *= 0.5
        refined.append((best, x))
    vbest = min(v for v, _ in refined)
    tol = 1e-9 * (1.0 + abs(vbest))
    finalists = [x for v, x in refined if v <= vbest + tol]
    finalists.sort(key=lambda x: (np.linalg.norm(x - xk), tuple(x)))
    return finalists[0]


def ppa_solve(prob: ProblemSpec, cfg: SolverConfig, x0, oracle_window=None) -> IterateTrace:
    """Proximal point iteration x^{k+1} = Prox_{f+g}^gamma(x^k).

    The F-prox is exact for diagonal quadratic f with separable g, and
    computed by the brute-force oracle for n <= 2 otherwise.
    """
    cfg.validate()
    x = np.array(x0, dtype=float)
    exact = (prob.loss.family == "quadratic" and prob.penalty.separable
             and np.count_nonzero(prob.loss.Q) == np.count_nonzero(np.diag(prob.loss.Q)))
    if not exact and prob.n > 2:
        raise ConfigError("PPA needs n <= 2 or diagonal quadratic f with separable g")
    f_prox = _f_prox_exact_separable(prob, cfg.gamma) if exact else None
    tr = IterateTrace(prob.n)
    F = prob.objective(x)
    _guard_finite(prob, x, F)
    tr.append(x, F, residual(prob, x, cfg.gamma))
    for _ in range(cfg.max_iter):
        if exact:
            x_new = f_prox(x)
        else:
            window = oracle_window or 20.0 * (1.0 + float(np.max(np.abs(x))))
            x_new = np.asarray(_f_prox_oracle(prob, cfg.gamma, x, window), dtype=float)
        F = prob.objective(x_new)
        _guard_finite(prob, x_new, F)
        tr.append(x_new, F, residual(prob, x_new, cfg.gamma))
        step = float(np.linalg.norm(x_new - x))
        x = x_new
        if step <= cfg.stop_tol:
            break
    return tr
