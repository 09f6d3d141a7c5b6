"""The array prox kernel against the per-coordinate scalar enumeration.

Separable penalties switch from the scalar path to the array path at
penalties.ARRAY_MIN_N.  The scalar path is the reference: both must give
bit-identical prox sets, selections, residuals, values and PG traces.
"""

import numpy as np
import pytest

from calmkit import penalties
from calmkit.core import ProblemSpec, SolverConfig
from calmkit.diagnostics import residual
from calmkit.losses import QuadraticLoss
from calmkit.penalties import (BoxIndicator, GroupLasso, L1Penalty, McpPenalty,
                               NegAbsPenalty, ScadPenalty, ZeroPenalty,
                               coordinate_sets_distance, select_closest)
from calmkit.solvers import pg_solve

SCALAR, ARRAY = 10 ** 9, 1   # ARRAY_MIN_N forcing one path or the other

FAMILIES = [L1Penalty(0.7), ScadPenalty(0.6, 3.7), McpPenalty(0.8, 2.5),
            NegAbsPenalty(0.4), BoxIndicator(-1.0, 2.0), BoxIndicator(0.0, 1.0),
            ZeroPenalty()]
IDS = ["l1", "scad", "mcp", "negabs", "box", "box-at-0", "zero"]
# SCAD's and MCP's prox subproblems are nonconvex above a - 1 and a
GAMMAS = (0.3, 3.1)


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _jumps(g, gamma):
    """Brackets, one ulp wide, of each u where the prox jumps between branches."""
    def right(u):
        return g.prox_scalar(u, gamma)[-1]
    us = np.linspace(-12.0, 12.0, 4801)
    top = np.array([right(u) for u in us])
    out = []
    for i in np.flatnonzero(np.abs(np.diff(top)) > 0.1):
        a, b = us[i], us[i + 1]
        while a < 0.5 * (a + b) < b:
            m = 0.5 * (a + b)
            if abs(right(m) - right(a)) < 0.05:
                a = m
            else:
                b = m
        out += [a, b]
    return out


def _tie_points(g, gamma):
    """u where the prox has ties or lands on a knot or a domain end."""
    lam = getattr(g, "lam", 1.0)
    pts = [0.0, -0.0, lam * gamma, -lam * gamma] + _jumps(g, gamma)
    for b in g.breakpoints():
        dl, dr = g._joins[b]
        pts += [b] + [b + gamma * s for s in (dl, dr) if np.isfinite(s)]
    pts = np.array(pts)
    return np.concatenate([pts, np.nextafter(pts, np.inf), np.nextafter(pts, -np.inf)])


def _paths(g, x, u, gamma, monkeypatch):
    out = []
    for cutoff in (SCALAR, ARRAY):
        monkeypatch.setattr(penalties, "ARRAY_MIN_N", cutoff)
        # two coordinates at a time, a last-bit difference rarely rounds away
        pairs = [(g.prox_step(x[i:i + 2], u[i:i + 2], gamma)[1], g.value(x[i:i + 2]))
                 for i in range(0, min(u.size, 2000), 2)]
        out.append((g.prox_coordinate_sets(u, gamma), g.prox_step(x, u, gamma),
                    g.value(x), pairs))
    return out


def _assert_same(g, x, u, gamma, monkeypatch):
    (sets_s, (xs, rs), vs, pairs_s), (sets_a, (xa, ra), va, pairs_a) = \
        _paths(g, x, u, gamma, monkeypatch)
    assert _bits(pairs_a) == _bits(pairs_s)
    # the scalar path is the per-coordinate enumeration itself
    assert [_bits(s) for s in sets_s] == [_bits(g.prox_scalar(t, gamma)) for t in u]
    assert _bits(xs) == _bits([select_closest(s, xi) for s, xi in zip(sets_s, x)])
    assert rs == coordinate_sets_distance(x, sets_s)
    assert [_bits(s) for s in sets_a] == [_bits(s) for s in sets_s]
    assert _bits(xa) == _bits(xs) and xa.flags.c_contiguous
    assert ra == rs
    assert _bits(va) == _bits(vs)
    return sets_s


@pytest.mark.parametrize("g", FAMILIES, ids=IDS)
@pytest.mark.parametrize("gamma", GAMMAS)
def test_random_u_both_paths_agree(g, gamma, monkeypatch):
    rng = np.random.default_rng(len(g.family))
    u = rng.standard_normal(5000) * rng.choice([0.01, 1.0, 4.0, 100.0], 5000)
    x = u + 0.2 * rng.standard_normal(u.size)
    x[::5] = np.round(x[::5])     # iterates that sit on knots
    _assert_same(g, x, u, gamma, monkeypatch)


@pytest.mark.parametrize("g", FAMILIES, ids=IDS)
@pytest.mark.parametrize("gamma", GAMMAS)
def test_constructed_ties_both_paths_agree(g, gamma, monkeypatch):
    u = _tie_points(g, gamma)
    for x in (u, np.zeros_like(u), u + 0.5, u - 0.5):
        sets = _assert_same(g, x, u, gamma, monkeypatch)
    if g.family == "negabs":
        assert len(sets[0]) == 2 and len(sets[1]) == 2   # u = +-0: {-lam gamma, lam gamma}
    if g.family == "negabs" or (g.family in ("scad", "mcp") and gamma > g.a - 1.0):
        assert sum(len(s) == 2 for s in sets) >= 2       # a two-point set at each jump


@pytest.mark.parametrize("g", FAMILIES + [GroupLasso([[0, 5], [1, 2, 3, 7], [4, 6, 8, 9, 10]],
                                                     [0.7, 1.3, 0.4])],
                         ids=IDS + ["group-lasso"])
def test_value_many_rows_are_value(g):
    # the group lasso's groups cover the first 11 coordinates of every X
    rng = np.random.default_rng(7)
    knots = np.array(getattr(g, "breakpoints", list)() or [0.0])
    for n in (penalties.ARRAY_MIN_N - 1, penalties.ARRAY_MIN_N + 1):
        X = rng.uniform(-5.0, 5.0, (2500 // n + 1, n))
        X.flat[::3] = rng.choice(knots, X.flat[::3].size)   # on the pieces' ends
        assert _bits(g.value_many(X)) == _bits([g.value(x) for x in X])


@pytest.mark.parametrize("g", FAMILIES, ids=IDS)
def test_overflowing_prox_objective_gives_the_same_sets_on_both_paths(g):
    # every candidate's (t - u)^2 / (2 gamma) leaves the float range
    for big in (1e200, -1e200):
        out = []
        for n in (1, penalties.ARRAY_MIN_N):
            u = np.full(n, big)
            with np.errstate(over="ignore"):
                sets = g.prox_coordinate_sets(u, 1.0)
                x_next, _dist = g.prox_step(np.zeros(n), u, 1.0)
            out.append((_bits(sets[0]), _bits(x_next[:1])))
            if g.family == "box-indicator":
                # every candidate's value is +inf, yet the quadratic term
                # still puts the end nearest u first
                end = g.upper if big > 0 else g.lower
                assert sets == [(end,)] * n and np.all(x_next == end)
            else:
                assert sets == [(big,)] * n and _bits(x_next) == _bits(u)
        assert out[0] == out[1]


def test_zero_penalty_is_the_identity_on_the_array_path():
    u = np.random.default_rng(3).standard_normal(1000) * 10.0
    assert u.size >= penalties.ARRAY_MIN_N
    for gamma in (0.1, 0.3, 0.7):
        # the generic vertex formula would not return u everywhere
        assert np.any((u / gamma) / (2.0 * (0.5 / gamma)) != u)
        x_next, dist = ZeroPenalty().prox_step(u + 1.0, u, gamma)
        assert _bits(x_next) == _bits(u)
        assert ZeroPenalty().prox_coordinate_sets(u, gamma) == [(t,) for t in u.tolist()]


def _reference_pg(prob, gamma, x, iters):
    """The PG loop on the per-coordinate prox sets."""
    points, residuals = [], []
    for _ in range(iters):
        sets = prob.penalty.prox_coordinate_sets(x - gamma * prob.loss.gradient(x), gamma)
        points.append(x)
        residuals.append(coordinate_sets_distance(x, sets))
        x = np.array([select_closest(s, xi) for s, xi in zip(sets, x)])
    return np.array(points), residuals


@pytest.mark.parametrize("g", FAMILIES + [GroupLasso([range(i, i + 4) for i in range(0, 40, 4)],
                                                     [0.5] * 10)],
                         ids=IDS + ["group-lasso"])
def test_pg_traces_identical_on_both_paths(g, monkeypatch):
    rng = np.random.default_rng(11)
    n = 40
    A = rng.standard_normal((2 * n, n))
    Q = A.T @ A / (2 * n) + 0.5 * np.eye(n)
    prob = ProblemSpec(n, QuadraticLoss(0.5 * (Q + Q.T), 3.0 * rng.standard_normal(n)), g)
    L = prob.loss.lipschitz_bound().value
    cfg = SolverConfig(gamma=0.9 / L, max_iter=40, stop_tol=0.0, lipschitz_L=L)
    x0 = np.clip(rng.standard_normal(n), 0.0, 1.0)   # inside both boxes
    traces = []
    for cutoff in (SCALAR, ARRAY):
        monkeypatch.setattr(penalties, "ARRAY_MIN_N", cutoff)
        tr = pg_solve(prob, cfg, x0)
        traces.append((_bits(tr.points), _bits(tr.objectives), _bits(tr.residuals)))
        assert tr.residuals[-1] == residual(prob, tr.points[-1], cfg.gamma)
    assert traces[0] == traces[1]
    points, residuals = _reference_pg(prob, cfg.gamma, x0, len(tr))
    assert traces[0][0] == _bits(points) and traces[0][2] == _bits(residuals)
    # F shares the gradient's product Q x, so it rounds apart from objective()
    # by a few ulps of its terms
    Q, q = prob.loss.Q, prob.loss.q
    for F, p in zip(tr.objectives, points):
        terms = abs(0.5 * p @ Q @ p) + abs(q @ p) + abs(g.value(p))
        assert abs(F - prob.objective(p)) <= 1e-14 * terms
