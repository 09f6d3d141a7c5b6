import math

import numpy as np
import pytest

from calmkit import instances, oracle
from calmkit.core import ProblemSpec, SolverConfig
from calmkit.losses import (Box, ExponentialLoss, LogisticLoss, QuadraticLoss, SigmoidNNLoss,
                            StructuredCompositeLoss)
from calmkit.oracle import (OracleError, _membership_scan, _targets, brute_force_prox,
                            brute_force_scalar_min, brute_force_set_valued_solve,
                            brute_force_stationary_set)
from calmkit.penalties import (BoxIndicator, L1Penalty, McpPenalty, NegAbsPenalty,
                               ScadPenalty, SeparablePenalty, ZeroPenalty)
from calmkit.solvers import pg_solve


def test_scalar_min_quadratic():
    pts, val, boundary = brute_force_scalar_min(lambda t: (t - 1.3) ** 2, -5, 5, 1e-4)
    assert len(pts) == 1 and abs(pts[0] - 1.3) < 1e-8
    assert not boundary


def test_scalar_min_symmetric_double_well():
    pts, _, _ = brute_force_scalar_min(lambda t: (t * t - 1.0) ** 2, -3, 3, 1e-4)
    assert len(pts) == 2
    assert abs(pts[0] + 1.0) < 1e-7 and abs(pts[1] - 1.0) < 1e-7


def test_prox_oracle_l1_soft_threshold():
    pts = brute_force_prox(L1Penalty(1.0), 3.0, 1.0, window=10.0, grid=1e-5)
    assert len(pts) == 1 and abs(pts[0] - 2.0) <= 1e-5 * 2


def test_prox_oracle_negabs_symmetric_pair():
    pts = brute_force_prox(NegAbsPenalty(1.0), 0.0, 1.0, window=10.0, grid=1e-5)
    assert len(pts) == 2
    assert abs(pts[0] + 1.0) < 1e-4 and abs(pts[1] - 1.0) < 1e-4


def test_prox_oracle_zero_penalty_identity():
    pts = brute_force_prox(ZeroPenalty(), 7.0, 1.0, window=5.0, grid=1e-5)
    assert len(pts) == 1 and abs(pts[0] - 7.0) < 1e-8


def test_prox_oracle_window_expansion():
    # argmin at u + gamma*lam = -1 lies outside the first window of 0.7
    pts = brute_force_prox(L1Penalty(1.0), -2.0, 1.0, window=0.7, grid=1e-4)
    assert abs(pts[0] + 1.0) < 1e-3


def test_prox_oracle_window_exhaustion_raises():
    # the penalty is finite only on [99.5, 100.5], far outside both windows
    with pytest.raises(OracleError):
        brute_force_prox(BoxIndicator(99.5, 100.5), 0.0, 1.0, window=1.0, grid=1e-3)


# ---------------------------------------------------------------------------
# stationary sets

def test_stationary_set_soft_threshold_fixed_point():
    prob = ProblemSpec(2, QuadraticLoss(np.eye(2), np.array([-4.0, 0.0])),
                       L1Penalty(1.0))
    S = brute_force_stationary_set(prob, (np.full(2, -6.0), np.full(2, 6.0)),
                                   cells=200)
    assert S.points.shape == (1, 2)
    assert np.allclose(S.points[0], [3.0, 0.0], atol=1e-7)


def test_stationary_set_unpenalized_quadratic():
    prob = ProblemSpec(1, QuadraticLoss([[1.0]], [0.0]), ZeroPenalty())
    S = brute_force_stationary_set(prob, (np.array([-3.0]), np.array([3.0])),
                                   cells=100)
    assert S.points.shape == (1, 1)
    assert abs(S.points[0, 0]) < 1e-7


def branchwise_scad_stationary(mu, c, lam, a):
    """Closed-form stationary points of mu/2 (x-c)^2 + scad, per branch."""
    out = []
    # flat branches: mu (c - x) = sign * lam on (0, lam] / [-lam, 0)
    for s in (1.0, -1.0):
        x = c - s * lam / mu
        if 0 < s * x <= lam or math.isclose(s * x, lam):
            out.append(x)
    # slanted: mu (c - x) = sign*(a lam - |x|)/(a-1)
    for s in (1.0, -1.0):
        denom = mu * (a - 1.0) - 1.0
        if abs(denom) > 1e-12:
            x = (mu * (a - 1.0) * c - s * a * lam) / denom
            if lam < s * x < a * lam:
                out.append(x)
    # outer: x = c with |c| > a lam
    if abs(c) > a * lam:
        out.append(c)
    # kink at zero: |mu c| <= lam
    if abs(mu * c) <= lam:
        out.append(0.0)
    return sorted(out)


def test_stationary_set_scad_multiwell_matches_branch_solve():
    mu, c, lam, a = 0.2, 6.0, 1.0, 3.0
    prob = ProblemSpec(1, QuadraticLoss([[mu]], [-mu * c]), ScadPenalty(lam, a))
    S = brute_force_stationary_set(prob, (np.array([-10.0]), np.array([10.0])),
                                   cells=400)
    expected = branchwise_scad_stationary(mu, c, lam, a)
    got = sorted(S.points.ravel().tolist())
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert abs(g - e) < 1e-6


# ---------------------------------------------------------------------------
# perturbed solves

def test_set_valued_solve_affine():
    prob = ProblemSpec(1, QuadraticLoss([[1.0]], [-1.0]), ZeroPenalty())
    sols = brute_force_set_valued_solve(prob, "S_cano", np.array([0.25]),
                                        (np.array([-3.0]), np.array([3.0])),
                                        cells=100)
    assert len(sols) == 1 and abs(sols[0][0] - 1.25) < 1e-7


def test_set_valued_solve_out_of_range_is_empty():
    # S_cano(p) for the l1 problem is empty for p shifting beyond the window
    prob = ProblemSpec(1, QuadraticLoss([[1.0]], [-4.0]), L1Penalty(1.0))
    sols = brute_force_set_valued_solve(prob, "S_cano", np.array([0.0]),
                                        (np.array([10.0]), np.array([12.0])),
                                        cells=60)
    assert sols == []


def test_set_valued_solve_spg_consistency():
    prob = ProblemSpec(1, QuadraticLoss([[1.0]], [-4.0]), L1Penalty(1.0))
    p = np.array([0.05])
    sols = brute_force_set_valued_solve(prob, "S_PG", p,
                                        (np.array([0.0]), np.array([6.0])),
                                        gamma=0.5, cells=200)
    # S_PG: p/gamma in x + p - 4 + d|x|: for x>0: 0.1 = x + 0.05 - 4 + 1
    assert len(sols) == 1 and abs(sols[0][0] - 3.05) < 1e-6


def test_quadratic_l1_solutions_within_kappa_p():
    prob = ProblemSpec(2, QuadraticLoss(np.eye(2), np.array([-4.0, 0.0])),
                       L1Penalty(1.0))
    for p in ([0.05, 0.02], [-0.04, 0.06]):
        sols = brute_force_set_valued_solve(prob, "S_cano", np.array(p),
                                            (np.full(2, 1.0), np.full(2, 5.0)),
                                            cells=150)
        for x in sols:
            # identity Hessian polyhedral instance: kappa = 1
            assert np.linalg.norm(x - [3.0, 0.0]) <= np.linalg.norm(p) * (1 + 1e-6) + 1e-6


# ---------------------------------------------------------------------------
# exact solves inside each candidate cell

def _inside(points, lo, hi):
    P = np.asarray(points, dtype=float).reshape(-1, len(lo))
    return bool(np.all((P >= lo) & (P <= hi)))


def _nearest(points, x):
    P = np.asarray(points, dtype=float).reshape(-1, len(x))
    return np.min(np.linalg.norm(P - x, axis=1), initial=np.inf)


def test_coarse_grid_keeps_points_in_the_box_and_finds_case_iii():
    # at cells=8 each cell is half a unit wide, and root solves started in
    # edge cells converge to points outside the box
    case = instances.scad_case_iii()
    lo, hi = case.z_bar - 2.0, case.z_bar + 2.0
    S = brute_force_stationary_set(case.prob, (lo, hi), cells=8)
    assert _inside(S.points, lo, hi)
    assert _nearest(S.points, case.z_bar) <= 1e-6


@pytest.mark.parametrize("cells", [200, 400])
def test_quadratic_mcp_point_is_not_discarded(cells):
    # the only stationary point in [-6, 6]^2 sits on the slanted MCP pieces,
    # where (Q - I/a) x = -q - lam s with signs s = (-1, 1)
    Q = np.array([[0.7848, 0.4799], [0.4799, 1.9193]])
    q = np.array([0.2076, -0.3004])
    lam, a = 0.2, 2.5
    prob = ProblemSpec(2, QuadraticLoss(Q, q), McpPenalty(lam, a))
    x_star = np.linalg.solve(Q - np.eye(2) / a, -q - lam * np.array([-1.0, 1.0]))
    lo, hi = np.full(2, -6.0), np.full(2, 6.0)
    S = brute_force_stationary_set(prob, (lo, hi), cells=cells)
    assert _inside(S.points, lo, hi)
    assert _nearest(S.points, x_star) <= 1e-6


def test_double_root_on_a_cell_edge_is_found():
    # case-ii-degenerate's z_bar solves its slanted-branch equation with
    # multiplicity two, and at cells=120 it lies on the edge shared by two cells
    case = instances.scad_case_ii(degenerate=True)
    lo, hi = case.z_bar - 0.2, case.z_bar + 0.2
    S = brute_force_stationary_set(case.prob, (lo, hi), cells=120)
    assert _inside(S.points, lo, hi)
    assert _nearest(S.points, case.z_bar) <= 1e-6


@pytest.mark.parametrize("lam,q12,x2", [(0.3, 0.1, 0.7), (0.5, 0.45, -0.9)])
def test_piece_root_on_a_concave_kink_is_limiting_only(lam, q12, x2):
    # (0, x2) solves the right-piece equations of coordinate 1, but x1 = 0 is
    # negabs' downward kink; the piece solve lands within 1e-16 of it
    Q = np.array([[2.0, q12], [q12, 1.0]])
    q = np.array([lam - q12 * x2, lam * np.sign(x2) - x2])
    prob = ProblemSpec(2, QuadraticLoss(Q, q), NegAbsPenalty(lam))
    box = (np.full(2, -2.0), np.full(2, 2.0))
    z = np.array([0.0, x2])
    assert _nearest(brute_force_stationary_set(prob, box, cells=40).points, z) > 1e-3
    Sl = brute_force_stationary_set(prob, box, cells=40, limiting=True)
    assert _nearest(Sl.points, z) <= 1e-9


ORACLE_PENALTIES = {"l1": L1Penalty(0.5), "scad": ScadPenalty(0.5, 3.0),
                    "mcp": McpPenalty(0.6, 2.0), "negabs": NegAbsPenalty(0.4),
                    "box": BoxIndicator(-1.0, 1.5)}


@pytest.mark.parametrize("cells", [8, 16, 60])
@pytest.mark.parametrize("fam", sorted(ORACLE_PENALTIES))
def test_every_returned_point_is_in_the_box_and_solves_its_inclusion(fam, cells):
    rng = np.random.default_rng(cells + 1000 * sorted(ORACLE_PENALTIES).index(fam))
    g = ORACLE_PENALTIES[fam]
    found = 0
    for _ in range(3):
        A = rng.normal(size=(2, 2))
        prob = ProblemSpec(2, QuadraticLoss(0.5 * (A + A.T) + np.eye(2),
                                            rng.normal(scale=0.7, size=2)), g)
        lo = rng.uniform(-3.5, -2.5, size=2)
        hi = rng.uniform(2.5, 3.5, size=2)
        for limiting in (False, True):
            S = brute_force_stationary_set(prob, (lo, hi), cells=cells,
                                           limiting=limiting)
            assert _inside(S.points, lo, hi)
            found += len(S.points)
            for x in S.points:
                v = -prob.loss.gradient(x)
                assert np.max(g.subdiff_distances(x, v, limiting)) <= 1e-7
        gamma = 0.5
        for map_kind in ("S_cano", "S_PG"):
            p = rng.uniform(-0.1, 0.1, size=2)
            sols = brute_force_set_valued_solve(prob, map_kind, p, (lo, hi),
                                                gamma=gamma, cells=cells)
            assert _inside(sols, lo, hi)
            found += len(sols)
            for x in sols:
                if map_kind == "S_cano":
                    v = p - prob.loss.gradient(x)
                else:
                    v = p / gamma - prob.loss.gradient(x + p)
                assert np.max(g.subdiff_distances(x, v)) <= 1e-7
    assert found > 0


@pytest.mark.parametrize("cells", [7, 24])
@pytest.mark.parametrize("limiting", [False, True], ids=["proximal", "limiting"])
@pytest.mark.parametrize("fam", sorted(ORACLE_PENALTIES))
def test_cell_filter_drops_no_cell_that_holds_a_point(fam, limiting, cells):
    # an infinite Lipschitz margin keeps every cell, so the filter is sound
    # exactly when its margin changes no returned point
    rng = np.random.default_rng(cells + 100 * limiting
                                + 1000 * sorted(ORACLE_PENALTIES).index(fam))
    g = ORACLE_PENALTIES[fam]
    for _ in range(6):
        A = rng.normal(size=(2, 2))
        loss = QuadraticLoss(0.5 * (A + A.T) + 0.5 * np.eye(2), rng.normal(scale=0.7, size=2))
        lo, hi = rng.uniform(-3.5, -2.5, size=2), rng.uniform(2.5, 3.5, size=2)
        target, target_jac = _targets(loss, "S_cano", np.zeros(2))
        lip = loss.lipschitz_bound(Box(lo, hi)).value
        filtered, _ = _membership_scan(g, target, target_jac, lo, hi, cells, limiting, lip)
        every, _ = _membership_scan(g, target, target_jac, lo, hi, cells, limiting, math.inf)
        assert len(filtered) == len(every)
        assert all(np.array_equal(x, y) for x, y in zip(filtered, every))


class _SquareMinusAbs(SeparablePenalty):
    """phi(t) = t^2 - |t|: a concave kink at 0 joining two curved pieces."""

    family = "square-minus-abs"

    def scalar_pieces(self):
        return [(-math.inf, 0.0, 1.0, 1.0, 0.0), (0.0, math.inf, 1.0, -1.0, 0.0)]


def test_point_next_to_a_concave_kink_between_curved_pieces_is_found():
    # x* = -delta solves 1e-6 x + q + (2 x + 1) = 0 on the left piece; its
    # cell also holds the kink, and the slopes the cell's options take there
    # reach past what probes at the cell's ends, its centre and the kink give
    delta = 1e-5
    prob = ProblemSpec(1, QuadraticLoss([[1e-6]], [1e-6 * delta + 2.0 * delta - 1.0]),
                       _SquareMinusAbs())
    S = brute_force_stationary_set(prob, (np.array([-1.0]), np.array([1.0])), cells=20)
    assert _nearest(S.points, np.array([-delta])) <= 1e-9


JACOBIAN_LOSSES = {
    "quadratic": QuadraticLoss([[2.0, 0.5], [0.5, 1.0]], [0.3, -0.2]),
    "structured-composite": StructuredCompositeLoss([[1.0, -0.5], [0.3, 2.0], [0.7, 0.1]],
                                                    [0.1, 0.4], np.diag([1.0, 2.0, 0.5]),
                                                    [0.2, -0.1, 0.3]),
    "logistic": LogisticLoss([[1.0, -0.5], [0.3, 2.0], [-0.7, 0.1]], [1.0, -1.0, 1.0]),
    "exponential": ExponentialLoss([[1.0, -0.5], [0.3, 2.0], [-0.7, 0.1]],
                                   [1.0, -1.0, 1.0]),
    "sigmoid-nn": SigmoidNNLoss(1, [[1.0], [-0.5]], [0.8, 0.3]),
}


@pytest.mark.parametrize("map_kind", ["S_cano", "S_PG"])
@pytest.mark.parametrize("name", sorted(JACOBIAN_LOSSES))
def test_target_jacobian_matches_target_differences(name, map_kind):
    # a missing shift by p or a sign slip in the Jacobian would steer the
    # cell solves away from their roots and lose them without an error
    loss = JACOBIAN_LOSSES[name]
    rng = np.random.default_rng(7)
    p = rng.uniform(-0.5, 0.5, size=2)
    target, target_jac = _targets(loss, map_kind, p, gamma=0.4)
    h = 1e-5
    for y in rng.uniform(-1.5, 1.5, size=(4, 2)):
        J = target_jac(y)
        fd = np.stack([(target((y + h * e)[None])[0] - target((y - h * e)[None])[0]) / (2 * h)
                       for e in np.eye(2)], axis=1)
        assert np.max(np.abs(J - fd)) <= 1e-6 * (1.0 + np.max(np.abs(fd)))


def test_affine_interior_point_is_one_newton_step_exact():
    # on 0 < |x_i| the l1 inclusion is Q x + q + lam s = 0, solved exactly
    Q = np.array([[2.0, 0.5], [0.5, 1.0]])
    lam, s = 0.3, np.array([1.0, -1.0])
    q = -Q @ np.array([0.7, -0.4]) - lam * s
    x_star = np.linalg.solve(Q, -(q + lam * s))
    prob = ProblemSpec(2, QuadraticLoss(Q, q), L1Penalty(lam))
    S = brute_force_stationary_set(prob, (np.full(2, -2.0), np.full(2, 2.0)), cells=60)
    assert _nearest(S.points, x_star) <= 1e-14


def test_loss_without_hessian_is_solved_from_target_differences():
    # the network loss has no Hessian: its Jacobian is central differences
    loss = SigmoidNNLoss(1, [[1.0], [-0.5]], [0.8, 0.3])
    g = L1Penalty(0.1)
    prob = ProblemSpec(2, loss, g)
    S = brute_force_stationary_set(prob, (np.full(2, -3.0), np.full(2, 3.0)), cells=20)
    assert _nearest(S.points, np.zeros(2)) == 0.0
    for x in S.points:
        assert np.max(g.subdiff_distances(x, -loss.gradient(x))) <= 1e-7


def test_root_on_a_shared_cell_edge_is_kept():
    # x1 is one PG step from x0.  At cells = 40 its second coordinate lies on
    # the edge 0.31147513635191526 between two cells: the upper cell's solve
    # lands an ulp below that edge, and the lower cell's an ulp above it
    Q = np.array([[1.1305222186590869, 0.13477669053461683],
                  [0.13477669053461683, 0.9999119127810898]])
    q = np.array([-0.9807473560440125, -0.17315522486203205])
    prob = ProblemSpec(2, QuadraticLoss(Q, q), ScadPenalty(0.3, 3.7))
    gamma = 0.7407517478717138
    x0 = np.array([-3.868256240261576, 0.0620711821127736])
    x1 = np.array([0.0, 0.31147513635191537])
    step, _ = prob.penalty.prox_step(x0, x0 - gamma * prob.loss.gradient(x0), gamma)
    assert np.array_equal(step, x1)
    for cells in (40, 41, 400):
        sols = brute_force_set_valued_solve(prob, "S_PG", x0 - x1, (x1 - 2.0, x1 + 2.0),
                                            gamma=gamma, cells=cells)
        assert len(sols) == 1 and np.linalg.norm(sols[0] - x1) <= 1e-12, (cells, sols)
        assert np.all(sols[0] >= x1 - 2.0) and np.all(sols[0] <= x1 + 2.0)


@pytest.mark.parametrize("g", [L1Penalty(0.5), ScadPenalty(0.5, 3.7), McpPenalty(0.5, 2.5),
                               NegAbsPenalty(0.05)], ids=["l1", "scad", "mcp", "negabs"])
def test_pg_iterates_solve_s_pg_at_their_own_perturbations(g):
    # x^k in Prox(x^{k-1} - gamma grad f(x^{k-1})) means p_k / gamma in
    # grad f(x^k + p_k) + prox-subdiff g(x^k), p_k = x^{k-1} - x^k: each PG
    # iterate solves S_PG at its own perturbation.  The box centres x^k, so
    # at cells = 40 it sits on a cell edge and at cells = 41 inside a cell
    rng = np.random.default_rng(5)
    C = rng.standard_normal((6, 2))
    q = rng.standard_normal(2)
    x0 = 3.0 * rng.standard_normal(2)
    prob = ProblemSpec(2, QuadraticLoss(C.T @ C / 6 + 0.5 * np.eye(2), q), g)
    L = prob.loss.lipschitz_bound().value
    gamma = 0.9 / L
    tr = pg_solve(prob, SolverConfig(gamma=gamma, max_iter=8, stop_tol=0.0, lipschitz_L=L), x0)
    checked = 0
    for x, p in zip(tr.points[1:], tr.perturbations[1:]):
        if np.linalg.norm(p) < 1e-6:
            continue
        for cells in (40, 41):
            sols = brute_force_set_valued_solve(prob, "S_PG", p, (x - 2.0, x + 2.0),
                                                gamma=gamma, cells=cells)
            d = min((np.linalg.norm(s - x) for s in sols), default=math.inf)
            assert d <= 1e-8, (x.tolist(), cells, d)
            checked += 1
    assert checked >= 8


@pytest.mark.parametrize("cells", [40, 41])
@pytest.mark.parametrize("k", [7, 8])
def test_solutions_closer_than_a_cell_are_kept_apart(k, cells):
    # PG step k solves S_PG at its own perturbation, and so does a second
    # point 0.116 away, less than two cell radii (0.138 at cells = 41)
    rng = np.random.default_rng(5)
    C = rng.standard_normal((6, 2))
    b = rng.standard_normal(6)
    x0 = 3.0 * rng.standard_normal(2)
    prob = ProblemSpec(2, QuadraticLoss(C.T @ C / 6 + 0.5 * np.eye(2), -C.T @ b / 6),
                       NegAbsPenalty(0.05))
    L = prob.loss.lipschitz_bound().value
    gamma = 0.9 / L
    tr = pg_solve(prob, SolverConfig(gamma=gamma, max_iter=8, stop_tol=0.0, lipschitz_L=L), x0)
    x, p = tr.points[k], tr.perturbations[k]
    sols = brute_force_set_valued_solve(prob, "S_PG", p, (x - 2.0, x + 2.0),
                                        gamma=gamma, cells=cells)
    d = sorted(np.linalg.norm(s - x) for s in sols)
    assert len(d) == 2 and d[0] <= 1e-12 and 0.1 < d[1] < 0.13, d


@pytest.mark.parametrize("g,count", [(ZeroPenalty(), 67), (L1Penalty(0.5), 9)],
                         ids=["zero", "l1"])
def test_root_merge_keeps_what_the_pairwise_loop_kept(g, count, monkeypatch):
    # on a continuum every kept cell holds its own root, so the merge sees
    # many roots; the reference compares each root with every point kept
    roots, solve = [], oracle._solve_in_cell

    def recording(*args):
        found = solve(*args)
        roots.extend(found)
        return found

    monkeypatch.setattr(oracle, "_solve_in_cell", recording)
    prob = ProblemSpec(2, QuadraticLoss(np.ones((2, 2)), -np.ones(2)), g)
    S = brute_force_stationary_set(prob, (np.full(2, -3.0), np.full(2, 3.0)), cells=40)
    roots.sort(key=lambda t: (t[1], tuple(t[0])))
    want = []
    for x, _res in roots:
        if not any(np.linalg.norm(x - p) <= oracle.POINT_RADIUS for p in want):
            want.append(x)
    want.sort(key=tuple)
    assert len(roots) >= len(want) == count
    assert np.array_equal(S.points, np.array(want))
