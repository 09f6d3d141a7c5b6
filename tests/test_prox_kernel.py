"""The compiled prox map against the candidate enumeration it replaced.

tests/prox_reference.py keeps that enumeration verbatim.  The compiled map
must give bit-identical prox sets, selections, residuals and PG/PPA traces,
with two declared exceptions, both within 1e-5 (relative) of one of the
map's thresholds:
- inside a tie band at a jump, the map reports both neighbouring formulas,
  and at the band's edges the two routes may round to different sides;
- at a continuous threshold, the enumeration's dedup band: two candidates
  whose values agree to the tie tolerance were reported as a two-point set,
  or as the smaller one when within 1e-11; the map reports its one formula.
"""

import numpy as np
import pytest

from calmkit import penalties
from calmkit.core import ProblemSpec, SolverConfig
from calmkit.diagnostics import residual
from calmkit.losses import QuadraticLoss
from calmkit.penalties import (BoxIndicator, GroupLasso, L1Penalty, McpPenalty,
                               NegAbsPenalty, ScadPenalty, ZeroPenalty)
from calmkit.solvers import pg_solve, ppa_solve
from prox_reference import (_scalar_prox_candidates, coordinate_sets_distance,
                            select_closest)

SCALAR, ARRAY = 10 ** 9, 1   # ARRAY_MIN_N forcing one value path or the other

FAMILIES = [L1Penalty(0.7), ScadPenalty(0.6, 3.7), McpPenalty(0.8, 2.5),
            NegAbsPenalty(0.4), BoxIndicator(-1.0, 2.0), BoxIndicator(0.0, 1.0),
            ZeroPenalty()]
IDS = ["l1", "scad", "mcp", "negabs", "box", "box-at-0", "zero"]
# SCAD's and MCP's prox subproblems are nonconvex above a - 1 and a
GAMMAS = (0.3, 3.1)


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _reference(g, u, gamma):
    """The enumeration's prox set; the zero penalty's prox is the identity."""
    if g.family == "zero":
        return (float(u),)
    return _scalar_prox_candidates(g.pieces, float(u), gamma)


def _thresholds(g, gamma):
    """Where the prox changes formula or starts clamping: the compiled map's
    thresholds, and the u whose vertex lands on a knot (none for the identity)."""
    g.prox_coordinate_sets(np.zeros(1), gamma)
    if g._prox_map is None or g._prox_map.gamma != gamma:
        return np.zeros(0)
    clamp = [b + gamma * s for b, ds in g._joins.items() for s in ds if np.isfinite(s)]
    return np.concatenate([g._prox_map.edges.reshape(-1, 2).mean(axis=1), clamp])


def _jumps(g, gamma):
    """Brackets, one ulp wide, of each u where the enumeration's prox jumps
    between branches."""
    def right(u):
        return _reference(g, u, gamma)[-1]
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


def _assert_matches_reference(g, x, u, gamma):
    """prox_coordinate_sets and prox_step against the enumeration; returns the
    compiled sets and the number of declared differences."""
    sets = g.prox_coordinate_sets(u, gamma)
    x_next, res = g.prox_step(x, u, gamma)
    # prox_step is select_closest and coordinate_sets_distance on those sets
    assert _bits(x_next) == _bits([select_closest(s, xi) for s, xi in zip(sets, x)])
    assert x_next.flags.c_contiguous
    assert res == coordinate_sets_distance(x, sets)
    thr = _thresholds(g, gamma)
    differ = 0
    for t, new in zip(u.tolist(), sets):
        ref = _reference(g, t, gamma)
        if _bits(new) == _bits(ref):
            continue
        differ += 1
        assert thr.size and np.min(np.abs(thr - t)) <= 1e-5 * (1.0 + abs(t)), (t, new, ref)
        if len(new) == 2:     # a declared tie band: the enumeration's set is part of it
            assert {_bits(r) for r in ref} <= {_bits(n) for n in new}, (t, new, ref)
        elif len(ref) == 2:   # a band edge, or a dedup-band pair: one of its points
            assert _bits(new[0]) in {_bits(r) for r in ref}, (t, new, ref)
        else:                 # merged by the dedup at 1e-11
            assert abs(new[0] - ref[0]) <= 1e-11 * (1.0 + abs(new[0])), (t, new, ref)
    if differ == 0:
        ref_sets = [_reference(g, t, gamma) for t in u.tolist()]
        assert res == coordinate_sets_distance(x, ref_sets)
    return sets, differ


def _slices_agree(g, x, u, gamma, sets, monkeypatch):
    """prox_step on two coordinates at a time gives the residual to those
    coordinates' sets, and value() the same bits on its scalar and array
    paths, on the whole vector and on each slice."""
    # two coordinates at a time, a last-bit difference rarely rounds away
    for i in range(0, min(x.size, 2000), 2):
        assert g.prox_step(x[i:i + 2], u[i:i + 2], gamma)[1] == \
            coordinate_sets_distance(x[i:i + 2], sets[i:i + 2])
    out = []
    for cutoff in (SCALAR, ARRAY):
        monkeypatch.setattr(penalties, "ARRAY_MIN_N", cutoff)
        out.append(_bits([g.value(x)] + [g.value(x[i:i + 2])
                                       for i in range(0, min(x.size, 2000), 2)]))
    assert out[0] == out[1]


@pytest.mark.parametrize("g", FAMILIES, ids=IDS)
@pytest.mark.parametrize("gamma", GAMMAS)
def test_random_u_both_paths_agree(g, gamma, monkeypatch):
    rng = np.random.default_rng(len(g.family))
    u = rng.standard_normal(5000) * rng.choice([0.01, 1.0, 4.0, 100.0], 5000)
    x = u + 0.2 * rng.standard_normal(u.size)
    x[::5] = np.round(x[::5])     # iterates that sit on knots
    sets, differ = _assert_matches_reference(g, x, u, gamma)
    assert differ <= 2
    _slices_agree(g, x, u, gamma, sets, monkeypatch)


@pytest.mark.parametrize("g", FAMILIES, ids=IDS)
@pytest.mark.parametrize("gamma", GAMMAS)
def test_constructed_ties_both_paths_agree(g, gamma, monkeypatch):
    u = _tie_points(g, gamma)
    for x in (u, np.zeros_like(u), u + 0.5, u - 0.5):
        sets, _differ = _assert_matches_reference(g, x, u, gamma)
        _slices_agree(g, x, u, gamma, sets, monkeypatch)
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
    # every candidate's (t - u)^2 / (2 gamma) leaves the float range: the
    # enumeration took the candidate nearest u, the map its outermost formula
    for big in (1e200, -1e200):
        out = []
        for n in (1, penalties.ARRAY_MIN_N):
            u = np.full(n, big)
            with np.errstate(over="ignore"):
                sets = g.prox_coordinate_sets(u, 1.0)
                x_next, _dist = g.prox_step(np.zeros(n), u, 1.0)
            out.append((_bits(sets[0]), _bits(x_next[:1])))
            assert sets == [_reference(g, big, 1.0)] * n
            if g.family == "box-indicator":
                end = g.upper if big > 0 else g.lower
                assert sets == [(end,)] * n and np.all(x_next == end)
            else:
                assert sets == [(big,)] * n and _bits(x_next) == _bits(u)
        assert out[0] == out[1]


def test_zero_penalty_is_the_identity_on_the_array_path():
    u = np.random.default_rng(3).standard_normal(1000) * 10.0
    for gamma in (0.1, 0.3, 0.7):
        # the generic vertex formula would not return u everywhere
        assert np.any((u / gamma) / (2.0 * (0.5 / gamma)) != u)
        x_next, dist = ZeroPenalty().prox_step(u + 1.0, u, gamma)
        assert _bits(x_next) == _bits(u)
        assert ZeroPenalty().prox_coordinate_sets(u, gamma) == [(t,) for t in u.tolist()]


def _reference_pg(prob, gamma, x, iters):
    """The PG loop on the enumeration's per-coordinate prox sets."""
    g = prob.penalty
    points, residuals = [], []
    for _ in range(iters):
        u = x - gamma * prob.loss.gradient(x)
        sets = g.prox_coordinate_sets(u, gamma) if g.family == "group-lasso" \
            else [_reference(g, t, gamma) for t in u.tolist()]
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
    for cutoff in (SCALAR, ARRAY):     # value's two paths
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


@pytest.mark.parametrize("g", FAMILIES[:6], ids=IDS[:6])
def test_ppa_trace_is_the_reference_f_prox(g):
    # diagonal Q: each coordinate's F-prox is the enumeration over phi plus
    # that coordinate's quadratic, the closest minimizer on a tie
    rng = np.random.default_rng(5)
    n = 6
    Q = np.diag(rng.uniform(-0.2, 1.5, n))
    prob = ProblemSpec(n, QuadraticLoss(Q, 2.0 * rng.standard_normal(n)), g)
    gamma = 0.6
    cfg = SolverConfig(gamma=gamma, max_iter=15, stop_tol=0.0, theory_mode=False)
    x = np.clip(rng.standard_normal(n), 0.0, 1.0)
    tr = ppa_solve(prob, cfg, x)
    for xk, x_next in zip(tr.points[:-1], tr.points[1:]):
        want = [select_closest(_scalar_prox_candidates(
            [(lo, hi, a2 + 0.5 * Q[i, i], a1 + prob.loss.q[i], a0)
             for lo, hi, a2, a1, a0 in g.pieces], float(xk[i]), gamma), float(xk[i]))
            for i in range(n)]
        assert _bits(x_next) == _bits(want)


def test_scad_prox_is_single_valued_at_a_smooth_join():
    # SCAD(1, 3) joins its flat outer piece smoothly at -3.  The flat piece's
    # vertex u and the middle piece's end -3 differ in value by ~1e-13 here,
    # which the enumeration reported as the false tie {-3.00000089, -3}
    g, u, gamma = ScadPenalty(1.0, 3.0), -3.00000089, 0.3
    assert g.prox_scalar(u, gamma) == ((u / gamma) / (2.0 * (0.0 + 0.5 / gamma)),)
    us = -3.0 + np.array([-1e-6, -1e-7, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 1e-7, 1e-6])
    assert all(len(s) == 1 for s in g.prox_coordinate_sets(us, gamma))


MONOTONE = FAMILIES[:6] + [ScadPenalty(1.0, 3.0), McpPenalty(1.0, 2.0)]


@pytest.mark.parametrize("g", MONOTONE, ids=IDS[:6] + ["scad-1-3", "mcp-1-2"])
def test_prox_is_nondecreasing_in_u(g):
    # t1 in Prox(u1), t2 in Prox(u2), u1 < u2 imply t1 <= t2.  Probes close to
    # every clamp point, knot and jump, where false ties used to appear.  Two
    # probes inside one tie band both hold the jump's two branches; there
    # each branch must still be nondecreasing.
    for gamma in (0.05, 0.3, 0.7, 1.5, 2.0, 2.5, 3.1):
        centres = np.array(_tie_points(g, gamma))
        offsets = np.array([0.0, 1e-12, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5])
        near = centres[:, None] + np.concatenate([offsets, -offsets])[None, :] \
            * (1.0 + np.abs(centres[:, None]))
        u = np.unique(np.concatenate([np.linspace(-8.0, 8.0, 1601), near.ravel()]))
        sets = g.prox_coordinate_sets(u, gamma)
        lo = np.array([s[0] for s in sets])
        hi = np.array([s[-1] for s in sets])
        jump = hi - lo > 1e-5 * (1.0 + np.abs(lo) + np.abs(hi))
        band = jump[:-1] & jump[1:]
        ordered = np.where(band, (lo[:-1] <= lo[1:]) & (hi[:-1] <= hi[1:]), hi[:-1] <= lo[1:])
        bad = np.flatnonzero(~ordered)
        assert bad.size == 0, (gamma, u[bad[:3]], [sets[i:i + 2] for i in bad[:3]])
