import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from calmkit.oracle import brute_force_prox
from calmkit.penalties import (BoxIndicator, GroupLasso, IntervalSet, L1Penalty,
                               McpPenalty, NegAbsPenalty, PenaltyError,
                               ScadPenalty, SeparablePenalty, ZeroPenalty,
                               penalty_from_json)

SEPARABLE = [ZeroPenalty(), L1Penalty(1.0), L1Penalty(2.5), ScadPenalty(1.0, 3.0),
             ScadPenalty(0.7, 3.7), McpPenalty(1.0, 2.0), McpPenalty(1.4, 2.5),
             NegAbsPenalty(1.0), BoxIndicator(-1.0, 2.0)]


# ---------------------------------------------------------------------------
# values

def test_scad_value_far_branch():
    # (a+1) lambda^2 / 2 beyond a*lambda
    assert ScadPenalty(1.0, 3.0).scalar_value(5.0) == pytest.approx(2.0)


def test_mcp_value_far_branch():
    assert McpPenalty(1.0, 2.0).scalar_value(5.0) == pytest.approx(1.0)


def test_l1_vector_value():
    assert L1Penalty(2.0).value(np.array([1.0, -3.0])) == pytest.approx(8.0)


def test_box_value_infinite_outside():
    b = BoxIndicator(-1.0, 1.0)
    assert b.scalar_value(0.5) == 0.0
    assert b.scalar_value(1.5) == math.inf


# ---------------------------------------------------------------------------
# prox

def test_l1_prox_soft_threshold():
    res = L1Penalty(1.0).prox(np.array([3.0]), 1.0)
    assert len(res.minimizers) == 1
    assert res.minimizers[0][0] == pytest.approx(2.0, abs=1e-12)
    pts = brute_force_prox(L1Penalty(1.0), 3.0, 1.0, window=8.0, grid=1e-5)
    assert pts[0] == pytest.approx(2.0, abs=1e-4)


def test_negabs_prox_two_minimizers_at_zero():
    res = NegAbsPenalty(1.0).prox(np.array([0.0]), 1.0)
    vals = sorted(m[0] for m in res.minimizers)
    assert vals == pytest.approx([-1.0, 1.0], abs=1e-12)
    pts = brute_force_prox(NegAbsPenalty(1.0), 0.0, 1.0, window=8.0, grid=1e-5)
    assert len(pts) == 2


def test_zero_prox_identity():
    res = ZeroPenalty().prox(np.array([7.0, -2.0]), 0.3)
    assert np.allclose(res.minimizers[0], [7.0, -2.0])


def test_group_lasso_prox_blockwise():
    g = GroupLasso([[0, 1]], [1.0])
    res = g.prox(np.array([3.0, 4.0]), 1.0)
    assert np.allclose(res.minimizers[0], [2.4, 3.2])
    # 2-D grid oracle on the block objective
    xs = np.linspace(-1, 5, 301)
    best, arg = math.inf, None
    for u1 in xs:
        col = np.hypot(u1, xs) + 0.5 * ((u1 - 3.0) ** 2 + (xs - 4.0) ** 2)
        j = int(np.argmin(col))
        if col[j] < best:
            best, arg = col[j], (u1, xs[j])
    assert abs(arg[0] - 2.4) < 0.03 and abs(arg[1] - 3.2) < 0.03


def test_group_lasso_prox_step_equals_the_coordinate_set_step_bit_for_bit():
    from prox_reference import prox_step
    rng = np.random.default_rng(21)
    n = 200
    perm = rng.permutation(n)
    g = GroupLasso([perm[i:i + 2] for i in range(0, n, 2)], rng.uniform(0.0, 2.0, 100))
    zeros = []
    for gamma in (0.05, 0.5, 2.0):
        x, u = rng.standard_normal(n), rng.standard_normal(n)
        got = g.prox_step(x, u, gamma)
        want = prox_step(g, x, u, gamma)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1] == want[1]
        zeros.append(np.count_nonzero(got[0] == 0.0))
    assert zeros[0] == 0 and 0 < zeros[-1] < n   # no group, then some, shrink to 0


def _group_lasso_loops(g):
    """value_many, prox_vector and subdiff_distances with one norm per group."""
    def value_many(X):
        tot = np.zeros(X.shape[0])
        for grp, w in zip(g.groups, g.weights):
            tot += w * np.linalg.norm(X[:, list(grp)], axis=1)
        return tot

    def prox_vector(u, gamma):
        out = np.array(u, dtype=float)
        for grp, w in zip(g.groups, g.weights):
            idx = list(grp)
            nrm = np.linalg.norm(u[idx])
            out[idx] = (0.0 if nrm <= gamma * w else 1.0 - gamma * w / nrm) * u[idx]
        return out

    def subdiff_distances(x, v):
        out = []
        for grp, w in zip(g.groups, g.weights):
            idx = list(grp)
            nrm = np.linalg.norm(x[idx])
            out.append(np.linalg.norm(v[idx] - w * x[idx] / nrm) if nrm > 0
                       else max(np.linalg.norm(v[idx]) - w, 0.0))
        return np.array(out)

    return value_many, prox_vector, subdiff_distances


def test_group_lasso_reductions_match_the_per_group_loop():
    # unequal, unsorted groups, a zero weight, and groups of x at zero
    rng = np.random.default_rng(26)
    n = 60
    perm = rng.permutation(n)
    cuts = np.sort(rng.choice(np.arange(1, n), size=11, replace=False))
    groups = [perm[a:b].tolist() for a, b in zip([0, *cuts], [*cuts, n])]
    weights = rng.uniform(0.0, 2.0, len(groups))
    weights[3] = 0.0
    g = GroupLasso(groups, weights)
    value_many, prox_vector, subdiff_distances = _group_lasso_loops(g)

    def close(got, want):
        return np.all(np.abs(got - want) <= 1e-15 * np.maximum(np.abs(want), 1.0))

    X = rng.standard_normal((50, n))
    X[:, groups[0]] = 0.0
    assert close(g.value_many(X), value_many(X))
    for x in X[:10]:
        assert g.value(x) == g.value_many(x[None])[0]
        for gamma in (0.05, 0.5, 5.0):
            u = rng.standard_normal(n)
            assert close(g.prox_vector(u, gamma), prox_vector(u, gamma))
        v = rng.standard_normal(n)
        assert close(g.subdiff_distances(x, v), subdiff_distances(x, v))
    for empty in ([[0, 1], []], []):
        with pytest.raises(PenaltyError):
            GroupLasso(empty, [1.0] * len(empty))


def test_box_prox_is_projection():
    res = BoxIndicator(-1.0, 2.0).prox(np.array([5.0, -3.0, 0.5]), 0.7)
    assert np.allclose(res.minimizers[0], [2.0, -1.0, 0.5])


def test_prox_tie_is_returned_as_set_not_broken():
    # SCAD with gamma large enough that two branches tie at a crossover u
    g = ScadPenalty(1.0, 3.0)
    lo, hi = 1.0, 3.0
    # scan for a u where the two best candidates tie, then confirm set size
    found = None
    for u in np.linspace(1.5, 3.5, 20001):
        cands = g.prox_scalar(float(u), 2.0)
        if len(cands) > 1:
            found = (u, cands)
            break
    assert found is not None, "tie point exists for gamma=2"
    u, cands = found
    vals = [g.scalar_value(t) + (t - u) ** 2 / 4.0 for t in cands]
    assert abs(vals[0] - vals[1]) <= 1e-10 * (1 + abs(vals[0]))


# ---------------------------------------------------------------------------
# subdifferentials

def test_scad_subdiff_paper_formula():
    g = ScadPenalty(1.0, 3.0)
    assert g.prox_subdiff(0.0).equals(IntervalSet.closed(-1.0, 1.0))
    assert g.prox_subdiff(4.0).equals(IntervalSet.point(0.0))
    assert g.prox_subdiff(0.5).equals(IntervalSet.point(1.0))
    assert g.prox_subdiff(2.0).equals(IntervalSet.point(0.5))
    assert g.prox_subdiff(-2.0).equals(IntervalSet.point(-0.5))


def test_mcp_subdiff_derived():
    g = McpPenalty(1.0, 2.0)
    assert g.prox_subdiff(1.0).equals(IntervalSet.point(0.5))
    # difference-quotient limit at theta=1: psi'(1) = lam - theta/a
    h = 1e-7
    dq = (g.scalar_value(1.0 + h) - g.scalar_value(1.0 - h)) / (2 * h)
    assert dq == pytest.approx(0.5, abs=1e-6)


def test_negabs_subdifferentials():
    g = NegAbsPenalty(1.0)
    assert g.prox_subdiff(0.0).is_empty
    assert g.limiting_subdiff(0.0).equals(
        IntervalSet.of((-1.0, -1.0), (1.0, 1.0)))
    assert g.prox_subdiff(2.0).equals(IntervalSet.point(-1.0))
    assert g.limiting_subdiff(-3.0).equals(IntervalSet.point(1.0))


def test_l1_limiting_equals_prox():
    g = L1Penalty(2.0)
    assert g.limiting_subdiff(-1.0).equals(IntervalSet.point(-2.0))
    for t in (-1.0, 0.0, 0.3):
        assert g.limiting_subdiff(t).equals(g.prox_subdiff(t))


def test_semiconvex_families_prox_equals_limiting():
    for g in (ScadPenalty(1.0, 3.0), McpPenalty(1.0, 2.0), L1Penalty(1.0)):
        thetas = list(np.linspace(-5, 5, 201)) + g.breakpoints()
        for t in thetas:
            assert g.prox_subdiff(float(t)).equals(g.limiting_subdiff(float(t)))


def _one_sided_slopes(g, t, h=1e-7):
    """Difference quotients of the value: independent of the slope formula."""
    f0 = g.scalar_value(t)
    return (f0 - g.scalar_value(t - h)) / h, (g.scalar_value(t + h) - f0) / h


@pytest.mark.parametrize("g", SEPARABLE, ids=lambda g: g.family)
def test_subdifferentials_match_difference_quotients(g):
    rng = np.random.default_rng(5)
    bps = g.breakpoints()
    thetas = bps + [float(t) for t in rng.uniform(-6.0, 6.0, 50)
                    if all(abs(t - b) > 1e-3 for b in bps)]
    for t in thetas:
        prox_sd, lim_sd = g.prox_subdiff(t), g.limiting_subdiff(t)
        if g.scalar_value(t) == math.inf:
            assert prox_sd.is_empty and lim_sd.is_empty, (g.family, t)
            continue
        dl, dr = _one_sided_slopes(g, t)
        if abs(dl - dr) <= 1e-4:          # differentiable at t
            want_prox = want_lim = IntervalSet.point(0.5 * (dl + dr))
        elif dl < dr:                      # convex kink; half-line at a box end
            want_prox = want_lim = IntervalSet.closed(dl, dr)
        else:                              # concave kink
            want_prox = IntervalSet.empty()
            want_lim = IntervalSet.of((dr, dr), (dl, dl))
        assert prox_sd.equals(want_prox, tol=1e-5), (g.family, t, prox_sd)
        assert lim_sd.equals(want_lim, tol=1e-5), (g.family, t, lim_sd)
    for limiting, sd in ((False, g.prox_subdiff), (True, g.limiting_subdiff)):
        lo, hi = g.subdiff_bounds_array(np.array(thetas), limiting)
        hulls = [sd(t).hull() or (math.inf, -math.inf) for t in thetas]
        assert lo.tolist() == [h[0] for h in hulls]
        assert hi.tolist() == [h[1] for h in hulls]
    if g.family == "box-indicator":
        assert g.prox_subdiff(g.lower).equals(IntervalSet.closed(-math.inf, 0.0))
        assert g.prox_subdiff(g.upper).equals(IntervalSet.closed(0.0, math.inf))


@pytest.mark.parametrize("limiting", [False, True])
@pytest.mark.parametrize("g", SEPARABLE, ids=lambda g: g.family)
def test_subdiff_distances_equal_the_scalar_sets_bit_for_bit(g, limiting):
    rng = np.random.default_rng(11)
    bps = g.breakpoints()
    # at every breakpoint (the box ends among them): v at each one-sided
    # slope, between two of them and beyond them
    slopes = sorted({s for b in bps for s in g._joins[b] if math.isfinite(s)} | {0.0})
    at_bp = slopes + [0.5 * (a + b) for a, b in zip(slopes, slopes[1:])] + [-7.0, 7.0]
    pairs = [(b, v) for b in bps for v in at_bp]
    # random points, and points off a bounded domain
    pairs += [(float(x), float(v)) for x, v in rng.uniform(-6.0, 6.0, (300, 2))]
    pairs += [(x, v) for x in (-1e300, -5.0, 5.0, 1e300) for v in (-0.5, 0.0, 3.0)]
    xs, vs = (np.array(c) for c in zip(*pairs))
    sd = g.limiting_subdiff if limiting else g.prox_subdiff
    want = np.array([sd(float(x)).distance(float(v)) for x, v in pairs])
    got = g.subdiff_distances(xs, vs, limiting)
    assert got.tobytes() == want.tobytes()


class _SquareMinusAbs(SeparablePenalty):
    """phi(t) = t^2 - |t|: a concave kink between two curved pieces."""

    family = "square-minus-abs"

    def scalar_pieces(self):
        return [(-math.inf, 0.0, 1.0, 1.0, 0.0), (0.0, math.inf, 1.0, -1.0, 0.0)]


def _bits(s):
    return [(float(a).hex(), float(b).hex()) for a, b in s.intervals]


@pytest.mark.parametrize("g", SEPARABLE + [_SquareMinusAbs()], ids=lambda g: g.family)
def test_scalar_subdifferentials_are_the_one_point_case(g):
    pts = [0.0, -0.0, math.inf, -math.inf, math.nan]
    for b in g.breakpoints():
        pts += [b, float(np.nextafter(b, -math.inf)), float(np.nextafter(b, math.inf))]
    for lo, hi, *_ in g.pieces:
        # a piece interior, and a point past each finite domain end
        pts.append(0.5 * (lo + hi) if math.isfinite(lo + hi)
                   else lo + 1.0 if math.isfinite(lo) else hi - 1.0 if math.isfinite(hi)
                   else 0.5)
    pts += [g.pieces[0][0] - 1.0, g.pieces[-1][1] + 1.0]
    for t in pts:
        (plo,), (phi,) = g.subdiff_bounds_array(np.array([t]))
        (llo,), (lhi,) = g.subdiff_bounds_array(np.array([t]), limiting=True)
        prox_sd, lim_sd = g.prox_subdiff(t), g.limiting_subdiff(t)
        want = IntervalSet.empty() if plo > phi else IntervalSet(((plo, phi),))
        assert _bits(prox_sd) == _bits(want), (g.family, t)
        dl, dr = g._joins.get(t, (0.0, 0.0))
        if dl > dr:
            want = IntervalSet(((dr, dr), (dl, dl)))
        else:
            want = IntervalSet.empty() if llo > lhi else IntervalSet(((llo, lhi),))
        assert _bits(lim_sd) == _bits(want), (g.family, t)


@pytest.mark.parametrize("g", SEPARABLE + [_SquareMinusAbs()], ids=lambda g: g.family)
def test_subdifferential_at_infinity_is_never_nan(g):
    # phi' = 2 a2 t + a1 was 0 * inf = nan at t = +-inf on a flat piece
    for limiting in (False, True):
        lo, hi = g.subdiff_bounds_array(np.array([math.inf, -math.inf]), limiting)
        assert not np.isnan(lo).any() and not np.isnan(hi).any()
        # -inf holds no piece; +inf closes an unbounded last piece
        assert lo[1] > hi[1]
    lo_, hi_, a2, a1, _a0 = g.pieces[-1]
    if hi_ == math.inf and a2 == 0.0:
        assert g.prox_subdiff(math.inf).equals(IntervalSet.point(a1))
        assert g.limiting_subdiff(math.inf).equals(IntervalSet.point(a1))


# ---------------------------------------------------------------------------
# graphs

def test_l1_graph_three_pieces():
    G = L1Penalty(1.0).graph()
    assert len(G.pieces) == 3


def test_scad_graph_seven_pieces():
    G = ScadPenalty(1.0, 3.0).graph()
    assert len(G.pieces) == 7
    # spot-check the drawn shape: kink ordinates and slanted endpoints
    vs = {tuple(np.round(v, 12)) for v in G.vertices()}
    assert (0.0, 1.0) in vs and (0.0, -1.0) in vs
    assert (1.0, 1.0) in vs and (3.0, 0.0) in vs


def test_mcp_graph_five_pieces():
    G = McpPenalty(1.0, 2.0).graph()
    assert len(G.pieces) == 5
    vs = {tuple(np.round(v, 12)) for v in G.vertices()}
    assert (2.0, 0.0) in vs and (0.0, 1.0) in vs


def test_group_lasso_has_no_graph():
    with pytest.raises(PenaltyError):
        GroupLasso([[0]], [1.0]).graph()


def test_graph_slices_match_subdifferential():
    # vertical slice of the graph at theta == subdifferential as interval set
    for g in (L1Penalty(1.0), ScadPenalty(1.0, 3.0), McpPenalty(1.0, 2.0),
              BoxIndicator(-1.0, 2.0), NegAbsPenalty(1.0)):
        G = g.graph()
        thetas = list(np.linspace(-4.0, 4.0, 201)) + g.breakpoints()
        for t in thetas:
            sd = g.limiting_subdiff(float(t))  # graph is drawn for the limiting one
            ys = []
            for pc in G.pieces:
                d, a = pc.direction, pc.anchor
                if abs(d[0]) < 1e-15:
                    if abs(a[0] - t) < 1e-12:
                        lo = a[1] + (pc.t0 if math.isfinite(pc.t0) else -math.inf) * d[1]
                        hi = a[1] + (pc.t1 if math.isfinite(pc.t1) else math.inf) * d[1]
                        ys.append((min(lo, hi), max(lo, hi)))
                else:
                    s = (t - a[0]) / d[0]
                    if pc.t0 - 1e-12 <= s <= pc.t1 + 1e-12:
                        y = a[1] + s * d[1]
                        ys.append((y, y))
            got = IntervalSet.of(*ys) if ys else IntervalSet.empty()
            assert got.equals(sd, tol=1e-9), (g.family, t, got, sd)


# ---------------------------------------------------------------------------
# properties

@settings(max_examples=120, deadline=None)
@given(st.floats(-8.0, 8.0), st.floats(0.05, 3.0), st.integers(0, len(SEPARABLE) - 1))
def test_prox_optimality_condition(u, gam, idx):
    # every returned minimizer satisfies (u - t)/gamma in prox-subdiff(t)
    g = SEPARABLE[idx]
    for t in g.prox_scalar(u, gam):
        xi = (u - t) / gam
        assert g.prox_subdiff(t).distance(xi) <= 1e-9 * (1 + abs(xi))


@settings(max_examples=40, deadline=None)
@given(st.floats(-6.0, 6.0), st.floats(0.1, 2.5), st.integers(0, len(SEPARABLE) - 1))
# negabs at u just above 0: the value gap 2 lam u is a few times TIE_REL_TOL,
# so +gamma lam is the single minimizer
@example(u=1.4976030555502086e-12, gam=1.0, idx=7)
def test_prox_matches_dense_grid_oracle(u, gam, idx):
    g = SEPARABLE[idx]
    pts = g.prox_scalar(u, gam)
    lam = getattr(g, "lam", 1.0)
    a = getattr(g, "a", 3.0)
    # any minimizer lies within gamma*lam*a of u (or inside the box)
    window = 1.0 + gam * lam * a + 0.25 * abs(u)
    oracle = brute_force_prox(g, u, gam, window=window, grid=5e-4)
    assert len(pts) == len(oracle)
    for t, o in zip(sorted(pts), sorted(oracle)):
        assert abs(t - o) <= 1e-4


def test_penalty_json_round_trip():
    for g in SEPARABLE + [GroupLasso([[0, 1], [2]], [1.0, 0.5])]:
        g2 = penalty_from_json(g.to_json())
        x = np.array([0.5, -1.2, 2.0])[: (3 if g.family == "group-lasso" else 2)]
        if g.family == "group-lasso":
            assert g2.value(x) == g.value(x)
        else:
            assert g2.scalar_value(0.7) == g.scalar_value(0.7)


def test_group_partition_validation():
    with pytest.raises(PenaltyError):
        GroupLasso([[0, 1], [1, 2]], [1.0, 1.0])
    with pytest.raises(PenaltyError):
        GroupLasso([[0]], [-1.0])


@pytest.mark.parametrize("g, convex", [
    (L1Penalty(0.7), True), (BoxIndicator(-1.0, 2.0), True), (ZeroPenalty(), True),
    (GroupLasso([(0, 1), (2,)], [0.5, 1.0]), True), (ScadPenalty(0.6, 3.7), False),
    (McpPenalty(0.8, 2.5), False), (NegAbsPenalty(0.4), False)],
    ids=["l1", "box", "zero", "group-lasso", "scad", "mcp", "negabs"])
def test_convexity_is_read_from_the_piece_table(g, convex):
    # a separable family is convex when every piece is (a2 >= 0) and every
    # join is a convex kink or smooth (dl <= dr)
    assert g.convex is convex
