import zlib

import numpy as np
import pytest

from calmkit.calmness import (CertificateError, check_foscms, check_nnamcq,
                              check_polyhedral, estimate_calmness_modulus,
                              is_proximal_stationary)
from calmkit.core import ProblemSpec, SolverConfig
from calmkit.instances import (example_5_1_cases, scad_case_i, scad_case_ii,
                               scad_case_iii)
from calmkit.losses import LogisticLoss, QuadraticLoss, SigmoidNNLoss
from calmkit.penalties import (GroupLasso, L1Penalty, NegAbsPenalty,
                               ScadPenalty, ZeroPenalty)
from calmkit.solvers import pg_solve


def lasso2():
    return ProblemSpec(2, QuadraticLoss(np.eye(2), np.array([-4.0, 0.0])),
                       L1Penalty(1.0))


# ---------------------------------------------------------------------------
# stationarity

def test_soft_threshold_fixed_point_is_stationary():
    assert is_proximal_stationary(lasso2(), np.array([3.0, 0.0]), 1e-9)


def test_unshrunk_point_is_not_stationary():
    assert not is_proximal_stationary(lasso2(), np.array([4.0, 0.0]), 1e-6)


def test_negabs_kink_is_not_proximal_stationary():
    prob = ProblemSpec(1, QuadraticLoss([[1.0]], [0.0]), NegAbsPenalty(1.0))
    assert not is_proximal_stationary(prob, np.array([0.0]), 1e-6)


def test_group_lasso_stationarity():
    prob = ProblemSpec(2, QuadraticLoss(np.eye(2), np.array([-4.0, 0.0])),
                       GroupLasso([[0, 1]], [1.0]))
    # block solution: (1 - 1/||c||) c with c = (4, 0) -> (3, 0)
    assert is_proximal_stationary(prob, np.array([3.0, 0.0]), 1e-9)


# ---------------------------------------------------------------------------
# certificates on the worked cases

def test_case_i_isolated_calmness():
    case = scad_case_i()
    rep = check_foscms(case.prob, case.z_bar)
    assert rep.condition == "isolated-calmness"
    assert rep.verdict == "holds"


def test_case_ii_nondegenerate_foscms_holds():
    case = scad_case_ii(degenerate=False)
    rep = check_foscms(case.prob, case.z_bar)
    assert rep.verdict == "holds"


def test_case_ii_degenerate_inconclusive_with_witness():
    case = scad_case_ii(degenerate=True)
    rep = check_foscms(case.prob, case.z_bar)
    assert rep.verdict == "inconclusive"
    w, xi, eta = rep.witnesses[0]
    H = case.prob.loss.hessian(case.z_bar)
    # the surviving multiplier satisfies the adjoint equation to 1e-9
    assert np.linalg.norm(np.asarray(xi) - H @ np.asarray(eta)) <= 1e-9
    assert np.linalg.norm(eta) > 0.9
    # and follows the u*(1, a-1) family on the slanted coordinate
    a = case.params["a"]
    assert np.asarray(eta)[1] == pytest.approx(np.asarray(xi)[1] * (a - 1.0), rel=1e-8)


def test_case_iii_nnamcq_holds():
    case = scad_case_iii()
    rep = check_nnamcq(case.prob, case.z_bar)
    assert rep.verdict == "holds"


def test_l1_origin_hand_enumeration():
    # 1-D: eta = xi via H = I, constrained to R x {0} -> only zero
    prob = ProblemSpec(1, QuadraticLoss([[1.0]], [0.0]), L1Penalty(1.0))
    rep = check_nnamcq(prob, np.array([0.0]))
    assert rep.verdict == "holds"


def test_nnamcq_holds_at_vertical_segment_interior():
    # flat loss at the l1 kink with 0 strictly inside [-lam, lam]: the
    # limiting normal is horizontal there, so only eta = 0 survives
    prob = ProblemSpec(1, QuadraticLoss([[0.0]], [0.0]), L1Penalty(1.0))
    assert check_nnamcq(prob, np.array([0.0])).verdict == "holds"


def test_nnamcq_failure_produces_valid_witness():
    # concave quadratic with -f'(0) = lam: the graph vertex (0, lam) admits
    # the sector multiplier (xi, eta) = t(-1, 1) with xi = H eta (H = -1)
    prob = ProblemSpec(1, QuadraticLoss([[-1.0]], [-1.0]), L1Penalty(1.0))
    rep = check_nnamcq(prob, np.array([0.0]))
    assert rep.verdict == "fails"
    xi, eta = (np.asarray(v) for v in rep.witnesses[0])
    H = prob.loss.hessian(np.zeros(1))
    assert np.linalg.norm(xi - H @ eta) <= 1e-12
    from calmkit.graphs_cones import limiting_normal_cone
    G = prob.penalty.graph()
    assert limiting_normal_cone(G, (0.0, 1.0)).contains_vector(
        (float(xi[0]), float(eta[0])), tol=1e-9)


def test_nnamcq_implies_foscms():
    for case in example_5_1_cases():
        n_rep = check_nnamcq(case.prob, case.z_bar)
        if n_rep.verdict == "holds":
            f_rep = check_foscms(case.prob, case.z_bar)
            assert f_rep.verdict == "holds"


def test_certificates_reject_non_stationary_points():
    with pytest.raises(CertificateError, match="stationary"):
        check_nnamcq(lasso2(), np.array([0.0, 0.0]))


def test_certificates_accept_pg_limit_within_their_tolerance():
    # PG stopped at 1e-10 leaves its limit ~1e-10 off the SCAD graph; the
    # point passes the stationarity gate at tol, so the cone atoms must be
    # taken at tol as well instead of rejecting the point as off-graph
    Q = np.array([[2.0, 0.3, 0.1, 0.0], [0.3, 1.5, 0.2, 0.1],
                  [0.1, 0.2, 1.8, 0.3], [0.0, 0.1, 0.3, 1.2]])
    prob = ProblemSpec(4, QuadraticLoss(Q, np.array([-3.1, 0.4, -0.9, 2.7])),
                       ScadPenalty(0.8, 3.7))
    L = prob.loss.lipschitz_bound().value
    cfg = SolverConfig(gamma=0.4, max_iter=2000, stop_tol=1e-10, lipschitz_L=L)
    x = pg_solve(prob, cfg, np.zeros(4)).final
    assert check_nnamcq(prob, x).verdict in ("holds", "fails", "inconclusive")
    assert check_foscms(prob, x).verdict in ("holds", "fails", "inconclusive")


def test_certificates_reject_untwice_differentiable_loss():
    nn = SigmoidNNLoss(1, [[1.0]], [0.5])
    prob = ProblemSpec(2, nn, L1Penalty(1.0))
    with pytest.raises(CertificateError):
        check_nnamcq(prob, np.zeros(2))


def test_certificates_reject_high_dimension():
    n = 9
    prob = ProblemSpec(n, QuadraticLoss(np.eye(n), np.zeros(n)), L1Penalty(1.0))
    with pytest.raises(CertificateError, match="empirical"):
        check_nnamcq(prob, np.zeros(n))


# ---------------------------------------------------------------------------
# polyhedral test

def test_polyhedral_quadratic_l1_holds():
    assert check_polyhedral(lasso2()).verdict == "holds"


def test_polyhedral_logistic_scad_fails():
    prob = ProblemSpec(1, LogisticLoss([[1.0]], [1.0]), ScadPenalty(1.0, 3.0))
    assert check_polyhedral(prob).verdict == "fails"


def test_polyhedral_group_lasso_fails():
    prob = ProblemSpec(2, QuadraticLoss(np.eye(2), np.zeros(2)),
                       GroupLasso([[0, 1]], [1.0]))
    assert check_polyhedral(prob).verdict == "fails"


# ---------------------------------------------------------------------------
# empirical modulus

def test_modulus_identity_hessian_is_one():
    prob = ProblemSpec(1, QuadraticLoss([[1.0]], [-1.0]), ZeroPenalty())
    est = estimate_calmness_modulus(prob, np.array([1.0]), "S_cano",
                                    radius=0.1, grid=7, cells=120)
    assert est.kappa_hat == pytest.approx(1.0, abs=1e-4)


def test_modulus_lasso_bounded_by_one():
    est = estimate_calmness_modulus(lasso2(), np.array([3.0, 0.0]), "S_cano",
                                    radius=0.1, grid=5, cells=120)
    assert est.kappa_hat <= 1.0 + 1e-4
    assert est.samples > 0


def test_modulus_calm_despite_singular_hessian():
    # f = x1^2/2 in 2-D, g = 0: stationary set is the x2-axis; the distance
    # ratio stays 1 along the flat direction (calm-despite-singularity control)
    from calmkit.core import StationarySetApprox
    Q = np.diag([1.0, 0.0])
    prob = ProblemSpec(2, QuadraticLoss(Q, np.zeros(2)), ZeroPenalty())
    ys = np.linspace(-1.5, 1.5, 30001)
    axis = StationarySetApprox(np.stack([np.zeros_like(ys), ys], axis=1),
                               0.0, "analytic")
    for radius in (1e-1, 1e-2):
        est = estimate_calmness_modulus(prob, np.zeros(2), "S_cano",
                                        radius=radius, grid=5, cells=100,
                                        S=axis)
        assert est.kappa_hat <= 1.0 + 1e-2


def test_isolated_calmness_single_point_localization():
    import itertools
    from calmkit.oracle import brute_force_set_valued_solve
    case = scad_case_i()
    rep = check_foscms(case.prob, case.z_bar)
    assert rep.condition == "isolated-calmness"
    est = estimate_calmness_modulus(case.prob, case.z_bar, "S_cano",
                                    radius=1e-3, grid=5, cells=120,
                                    loc_radius=0.2)
    # every sampled solution stays within kappa*||p|| of z_bar itself
    box = (case.z_bar - 0.2, case.z_bar + 0.2)
    for p in itertools.product(np.linspace(-1e-3, 1e-3, 5), repeat=2):
        p = np.array(p)
        if np.linalg.norm(p) < 1e-14:
            continue
        for x in brute_force_set_valued_solve(case.prob, "S_cano", p, box,
                                              cells=120):
            assert np.linalg.norm(x - case.z_bar) <= \
                (est.kappa_hat + 1e-6) * np.linalg.norm(p) + 1e-6


def test_spg_modulus_finite_when_certified():
    # calmness of the canonical map implies the PG-induced map is calm too
    prob = lasso2()
    assert check_polyhedral(prob).verdict == "holds"
    est = estimate_calmness_modulus(prob, np.array([3.0, 0.0]), "S_PG",
                                    radius=0.05, grid=5, gamma=0.5, cells=120)
    assert np.isfinite(est.kappa_hat)
    assert est.samples > 0


def test_modulus_rejects_high_dimension():
    prob = ProblemSpec(3, QuadraticLoss(np.eye(3), np.zeros(3)), L1Penalty(1.0))
    with pytest.raises(CertificateError):
        estimate_calmness_modulus(prob, np.zeros(3), "S_cano", radius=0.1, grid=3)


def test_nnamcq_lp_fallback_detects_surviving_multiplier():
    # 4-D all-sector combination: concave quadratic with every coordinate at
    # the upper graph kink leaves eta >= 0 feasible (inequality-only system
    # with a 4-dimensional null space, exercising the LP path)
    n = 4
    prob = ProblemSpec(n, QuadraticLoss(-np.eye(n), -np.ones(n)), L1Penalty(1.0))
    rep = check_nnamcq(prob, np.zeros(n))
    assert rep.verdict == "fails"
    xi, eta = (np.asarray(v) for v in rep.witnesses[0])
    assert np.linalg.norm(xi + eta) <= 1e-9  # xi = H eta = -eta
    from calmkit.graphs_cones import limiting_normal_cone
    G = prob.penalty.graph()
    for i in range(n):
        assert limiting_normal_cone(G, (0.0, 1.0)).contains_vector(
            (float(xi[i]), float(eta[i])), tol=1e-8)


def test_nnamcq_lp_fallback_certifies_zero_only():
    # same kinks but convex quadratic: the sector rows force eta = 0 in every
    # inequality-only combination, so the LP path must certify only zero
    n = 4
    prob = ProblemSpec(n, QuadraticLoss(np.eye(n), -np.ones(n)), L1Penalty(1.0))
    rep = check_nnamcq(prob, np.zeros(n))
    assert rep.verdict == "holds"
    assert rep.pieces_examined == 3 ** n


# ---------------------------------------------------------------------------
# the multiplier test on null spaces of dimension three and higher

def _box_lp_has_nonzero(E, C):
    """Reference: maximise each +-z_j over {E z = 0, C z >= 0, |z_j| <= 1}."""
    from scipy.optimize import linprog
    n = E.shape[1]
    for j in range(n):
        for sign in (1.0, -1.0):
            c = np.zeros(n)
            c[j] = -sign
            res = linprog(c, A_ub=-C if C.shape[0] else None,
                          b_ub=np.zeros(C.shape[0]) if C.shape[0] else None,
                          A_eq=E if E.shape[0] else None,
                          b_eq=np.zeros(E.shape[0]) if E.shape[0] else None,
                          bounds=[(-1.0, 1.0)] * n, method="highs")
            assert res.status == 0
            if -res.fun > 1e-7:
                return True
    return False


def _random_cone_system(rng, kind):
    """(E, C) in R^n whose equalities leave a d >= 3 dimensional subspace,
    on which C cuts out a pointed cone, a cone with a lineality space, the
    cone {0}, or whatever random rows give."""
    d = int(rng.integers(3, 7))
    n = d + int(rng.integers(0, 7 - d))
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    N, P = basis[:, :d], basis[:, d:]
    E = (P @ rng.standard_normal((n - d, n - d))).T
    rows = rng.standard_normal((int(rng.integers(d, 2 * d + 2)), d))
    if kind == "pointed":
        y0 = rng.standard_normal(d)
        rows *= np.sign(rows @ y0)[:, None]
    elif kind == "lineality":
        line = rng.standard_normal((int(rng.integers(1, d - 1)), d))
        Q, _ = np.linalg.qr(line.T)
        rows -= (rows @ Q) @ Q.T
    elif kind == "zero":
        rows = np.vstack([rows, -rows.sum(axis=0)])
    return E, rows @ N.T


@pytest.mark.parametrize("kind", ["pointed", "lineality", "zero", "random"])
def test_nonzero_in_cone_matches_box_lp_reference(kind):
    from calmkit.calmness import FEAS_TOL, _nonzero_in_cone, _reduce
    rng = np.random.default_rng(zlib.crc32(kind.encode()))
    found = 0
    for _ in range(50):
        E, C = _random_cone_system(rng, kind)
        z = _nonzero_in_cone(*_reduce(E, C)[2:])
        assert (z is not None) == _box_lp_has_nonzero(E, C)
        if z is None:
            continue
        found += 1
        z = z / np.linalg.norm(z)
        En = E / np.linalg.norm(E, axis=1, keepdims=True)
        Cn = C / np.linalg.norm(C, axis=1, keepdims=True)
        assert np.all(np.abs(En @ z) <= FEAS_TOL)
        assert np.all(Cn @ z >= -FEAS_TOL)
    expected = {"pointed": 50, "lineality": 50, "zero": 0}
    if kind in expected:
        assert found == expected[kind]


def _l1_all_vertex(n, seed):
    # dense positive definite Q; q puts every coordinate at a graph vertex
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((2 * n, n))
    Q = A.T @ A / (2 * n) + 0.5 * np.eye(n)
    signs = rng.choice([-1.0, 1.0], size=n)
    return ProblemSpec(n, QuadraticLoss(0.5 * (Q + Q.T), -signs), L1Penalty(1.0))


def test_multiplier_systems_cost_at_most_one_lp_each(monkeypatch):
    import calmkit.calmness as calmness
    calls = []
    real = calmness.linprog

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(calmness, "linprog", counting)
    rep = check_nnamcq(_l1_all_vertex(5, 3), np.zeros(5))
    assert rep.pieces_examined == 3 ** 5
    assert 0 < len(calls) <= rep.pieces_examined


def test_unsolved_multiplier_lp_raises(monkeypatch):
    import types
    import calmkit.calmness as calmness
    monkeypatch.setattr(calmness, "linprog", lambda *a, **k: types.SimpleNamespace(
        status=4, message="numerical difficulties"))
    # the positive orthant of R^3 is pointed, so only the LP can decide it
    with pytest.raises(CertificateError, match="status 4"):
        calmness._nonzero_in_cone(np.eye(3), np.eye(3))


# ---------------------------------------------------------------------------
# angular-sampling cross-check of the multiplier engine (n = 2)
#
# Random stationary instances are synthesized by choosing a point pattern,
# picking admissible subgradient targets, and back-solving the linear term
# of a random (possibly indefinite) quadratic loss.  A dense angular sweep
# over eta (and w) then provides an enumeration-free referee for the
# exhaustive atom-combination engine.

def _random_stationary_instance(rng, penalty):
    from calmkit.penalties import IntervalSet
    n = 2
    Q = rng.normal(size=(n, n))
    Q = 0.5 * (Q + Q.T)
    x_bar = np.empty(n)
    targets = np.empty(n)
    bps = penalty.breakpoints() + [0.0]
    for i in range(n):
        if rng.random() < 0.5:
            x_bar[i] = float(rng.choice(bps))
        else:
            x_bar[i] = float(rng.uniform(-4, 4))
        iv = penalty.prox_subdiff(float(x_bar[i]))
        if iv.is_empty:
            x_bar[i] = float(rng.uniform(0.5, 3.0))
            iv = penalty.prox_subdiff(float(x_bar[i]))
        lo, hi = iv.intervals[0][0], iv.intervals[-1][1]
        lo = max(lo, -10.0)
        hi = min(hi, 10.0)
        pick = rng.choice([lo, hi, 0.5 * (lo + hi)])
        targets[i] = float(pick)
    q = -targets - Q @ x_bar   # ensures -grad f(x_bar) = targets
    prob = ProblemSpec(n, QuadraticLoss(Q, q), penalty)
    return prob, x_bar


def _sweep_has_nonzero_multiplier(prob, x_bar, sweep=7200):
    from calmkit.graphs_cones import limiting_normal_cone
    G = prob.penalty.graph()
    H = prob.loss.hessian(x_bar)
    grad = prob.loss.gradient(x_bar)
    cones = [limiting_normal_cone(G, (float(x_bar[i]), float(-grad[i])))
             for i in range(2)]
    for k in range(sweep):
        ang = 2 * np.pi * k / sweep
        eta = np.array([np.cos(ang), np.sin(ang)])
        xi = H @ eta
        if all(cones[i].contains_vector((float(xi[i]), float(eta[i])), tol=1e-12)
               for i in range(2)):
            return True
    return False


def _sweep_has_critical_direction(prob, x_bar, sweep=7200):
    from calmkit.graphs_cones import tangent_cone
    G = prob.penalty.graph()
    H = prob.loss.hessian(x_bar)
    grad = prob.loss.gradient(x_bar)
    cones = [tangent_cone(G, (float(x_bar[i]), float(-grad[i])))
             for i in range(2)]
    for k in range(sweep):
        ang = 2 * np.pi * k / sweep
        w = np.array([np.cos(ang), np.sin(ang)])
        Hw = H @ w
        if all(cones[i].contains_vector((float(w[i]), float(-Hw[i])), tol=1e-12)
               for i in range(2)):
            return True
    return False


@pytest.mark.parametrize("family", ["l1", "scad", "mcp"])
def test_nnamcq_engine_matches_angular_sweep(family):
    from calmkit.penalties import McpPenalty as _M, ScadPenalty as _S, L1Penalty as _L
    make = {"l1": lambda: _L(1.0), "scad": lambda: _S(1.0, 3.0),
            "mcp": lambda: _M(1.0, 2.0)}[family]
    rng = np.random.default_rng(zlib.crc32(family.encode()))
    agreements = 0
    for _ in range(40):
        prob, x_bar = _random_stationary_instance(rng, make())
        rep = check_nnamcq(prob, x_bar)
        sweep_nonzero = _sweep_has_nonzero_multiplier(prob, x_bar)
        if rep.verdict == "fails":
            assert sweep_nonzero or rep.witnesses  # witness already validated
        # a sweep hit always means the engine must report failure
        if sweep_nonzero:
            assert rep.verdict == "fails", (prob.loss.Q, prob.loss.q, x_bar)
        agreements += 1
    assert agreements == 40


@pytest.mark.parametrize("family", ["l1", "scad", "mcp"])
def test_foscms_stage1_matches_angular_sweep(family):
    from calmkit.penalties import McpPenalty as _M, ScadPenalty as _S, L1Penalty as _L
    make = {"l1": lambda: _L(1.0), "scad": lambda: _S(1.0, 3.0),
            "mcp": lambda: _M(1.0, 2.0)}[family]
    rng = np.random.default_rng(zlib.crc32(family.encode()) + 5)
    for _ in range(40):
        prob, x_bar = _random_stationary_instance(rng, make())
        rep = check_foscms(prob, x_bar)
        sweep_critical = _sweep_has_critical_direction(prob, x_bar)
        if rep.condition == "isolated-calmness":
            # engine found no critical direction: the sweep must not either
            assert not sweep_critical, (prob.loss.Q, prob.loss.q, x_bar)
        if sweep_critical:
            assert rep.condition != "isolated-calmness"
