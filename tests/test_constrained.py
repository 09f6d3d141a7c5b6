import math

import numpy as np
import pytest

from calmkit.constrained_solvers import (ConvexTerm, KKTTrace, LinearlyConstrainedProblem,
                                         SaddleProblem, gpadmm_solve, pdhg_solve,
                                         term_from_json)
from calmkit.core import ConfigError, SolverConfig
from calmkit.losses import operator_norm
from calmkit.oracle import brute_force_prox
from calmkit.penalties import (ARRAY_MIN_N, BoxIndicator, GroupLasso, L1Penalty,
                               ZeroPenalty)


def quad_term(n, diag=1.0):
    return ConvexTerm(n, quadratic=(diag * np.eye(n), np.zeros(n)))


def cfg(iters, tol=0.0, theory_mode=False):
    return SolverConfig(gamma=1.0, max_iter=iters, stop_tol=tol,
                        lipschitz_L=1.0, theory_mode=theory_mode)


def two_variable_qp():
    return LinearlyConstrainedProblem(quad_term(1), quad_term(1),
                                      [[1.0]], [[1.0]], [1.0])


def test_admm_two_variable_qp_converges_to_kkt():
    tr = gpadmm_solve(two_variable_qp(), 1.0, None, None, cfg(300, 1e-15),
                      (np.zeros(1), np.zeros(1), np.zeros(1)))
    x, y, lam = tr.final
    # KKT of min x^2/2 + y^2/2 s.t. x + y = 1
    assert abs(x[0] - 0.5) < 1e-10
    assert abs(y[0] - 0.5) < 1e-10
    assert abs(lam[0] - 0.5) < 1e-10


def test_admm_inclusion_residual_every_iteration():
    tr = gpadmm_solve(two_variable_qp(), 1.0, None, None, cfg(100),
                      (np.array([2.0]), np.array([-1.0]), np.array([0.3])))
    assert max(tr.inclusion_residuals) <= 1e-8
    assert all(tr.inclusion_flags)


def test_admm_fixed_point_start_keeps_zero_perturbations():
    start = (np.array([0.5]), np.array([0.5]), np.array([0.5]))
    tr = gpadmm_solve(two_variable_qp(), 1.0, None, None, cfg(5), start)
    for k in range(1, len(tr)):
        assert tr.pnorm(k) == 0.0


def test_admm_d2_zero_rows_have_exactly_zero_perturbation():
    tr = gpadmm_solve(two_variable_qp(), 1.0, np.array([[0.3]]), None, cfg(60),
                      (np.array([2.0]), np.array([1.0]), np.zeros(1)))
    for m in tr.mapped[1:]:
        assert float(np.linalg.norm(m[1])) == 0.0


def test_admm_perturbation_norms_decrease_to_zero():
    tr = gpadmm_solve(two_variable_qp(), 1.0, None, None, cfg(200),
                      (np.array([5.0]), np.array([-3.0]), np.array([1.0])))
    pn = tr.pnorms()
    assert pn[-1] <= 1e-10
    assert pn[-1] <= pn[1]


def test_admm_strongly_convex_contraction_factor():
    tr = gpadmm_solve(two_variable_qp(), 1.0, None, None, cfg(80),
                      (np.array([5.0]), np.array([-3.0]), np.array([1.0])))
    ref = np.array([0.5, 0.5, 0.5])
    errs = [np.linalg.norm(np.concatenate(it) - ref) for it in tr.iterates]
    rates = [errs[k + 1] / errs[k] for k in range(10, 30) if errs[k] > 1e-12]
    assert max(rates) < 1.0


def linearized_lasso_admm(beta=1.0, lam=0.4):
    # min lam||x||_1 + 0.5||y - c||^2  s.t.  A x - y = 0
    A = np.array([[1.0, 0.4], [0.2, 1.1], [-0.3, 0.5]])
    c = np.array([1.0, -0.5, 0.8])
    theta1 = ConvexTerm(2, penalty=L1Penalty(lam))
    theta2 = ConvexTerm(3, quadratic=(np.eye(3), -c))
    prob = LinearlyConstrainedProblem(theta1, theta2, A, -np.eye(3), np.zeros(3))
    tau = beta * operator_norm(A) ** 2 * 1.05
    D1 = tau * np.eye(2) - beta * A.T @ A
    return prob, D1, beta, tau, A


def test_linearized_admm_x_step_is_l1_prox():
    prob, D1, beta, tau, A = linearized_lasso_admm()
    x = np.array([0.5, -0.2])
    y = np.array([0.1, 0.2, -0.1])
    lam_vec = np.array([0.05, -0.02, 0.03])
    tr = gpadmm_solve(prob, beta, D1, None, cfg(1), (x, y, lam_vec))
    x1 = tr.iterates[1][0]
    # reference: prox of the l1 term at the linearized point, checked
    # against the brute-force scalar prox oracle
    u = x - (beta * A.T @ (A @ x - y) - A.T @ lam_vec) / tau
    for i in range(2):
        pts = brute_force_prox(L1Penalty(0.4), float(u[i]), 1.0 / tau,
                               window=4.0, grid=1e-5)
        assert abs(x1[i] - pts[0]) <= 1e-4


def test_linearized_admm_runs_to_tolerance():
    prob, D1, beta, _tau, _A = linearized_lasso_admm()
    tr = gpadmm_solve(prob, beta, D1, None, cfg(4000, 1e-12),
                      (np.zeros(2), np.zeros(3), np.zeros(3)))
    assert max(tr.inclusion_residuals) <= 1e-8
    assert tr.pnorms()[-1] <= 1e-10


def test_admm_rejects_bad_weights():
    with pytest.raises(ConfigError):
        gpadmm_solve(two_variable_qp(), 1.0, np.array([[-1.0]]), None, cfg(5),
                     (np.zeros(1), np.zeros(1), np.zeros(1)))
    with pytest.raises(ConfigError):
        gpadmm_solve(two_variable_qp(), -0.5, None, None, cfg(5),
                     (np.zeros(1), np.zeros(1), np.zeros(1)))
    # symmetric part PSD, but the x-step solves with D itself
    prob = LinearlyConstrainedProblem(quad_term(2), quad_term(2), np.eye(2), np.eye(2),
                                      np.ones(2))
    with pytest.raises(ConfigError, match="symmetric PSD"):
        gpadmm_solve(prob, 1.0, np.array([[1.0, 0.5], [-0.5, 1.0]]), None, cfg(5),
                     (np.zeros(2), np.zeros(2), np.zeros(2)))


@pytest.mark.parametrize("solve", ["admm", "pdhg"])
@pytest.mark.parametrize("iters, tol, msg", [(0, 0.0, "max_iter must be positive"),
                                             (5, -1.0, "stop_tol must be nonnegative")])
def test_constrained_solvers_check_iteration_settings(solve, iters, tol, msg):
    with pytest.raises(ConfigError, match=msg):
        if solve == "admm":
            gpadmm_solve(two_variable_qp(), 1.0, None, None, cfg(iters, tol),
                         (np.zeros(1), np.zeros(1), np.zeros(1)))
        else:
            pdhg_solve(SaddleProblem(quad_term(1), quad_term(1), [[1.0]]), 0.5, 0.5,
                       cfg(iters, tol), (np.zeros(1), np.zeros(1)))


def _group_shrink(u, gamma, groups, w):
    out = u.copy()
    for g in groups:
        nrm = np.linalg.norm(u[g])
        out[g] = 0.0 if nrm <= gamma * w else (1.0 - gamma * w / nrm) * u[g]
    return out


@pytest.mark.parametrize("family", ["l1", "box", "zero", "group"])
def test_admm_x_step_above_array_min_n_is_the_closed_form_prox(family):
    n, m, beta = 20, 30, 1.0
    assert n >= ARRAY_MIN_N
    rng = np.random.default_rng(4)
    A = rng.standard_normal((m, n)) / math.sqrt(m)
    groups = [list(range(i, i + 4)) for i in range(0, n, 4)]
    pen, closed = {
        "l1": (L1Penalty(0.3),
               lambda u, g: np.sign(u) * np.maximum(np.abs(u) - 0.3 * g, 0.0)),
        "box": (BoxIndicator(-0.4, 0.6), lambda u, g: np.clip(u, -0.4, 0.6)),
        "zero": (ZeroPenalty(), lambda u, g: u),
        "group": (GroupLasso(groups, [0.8] * len(groups)),
                  lambda u, g: _group_shrink(u, g, groups, 0.8)),
    }[family]
    prob = LinearlyConstrainedProblem(ConvexTerm(n, penalty=pen),
                                      ConvexTerm(m, quadratic=(np.eye(m), np.zeros(m))),
                                      A, -np.eye(m), np.zeros(m))
    tau = beta * operator_norm(A) ** 2 * 1.05
    D1 = tau * np.eye(n) - beta * A.T @ A
    x, y, lam = rng.standard_normal(n), rng.standard_normal(m), rng.standard_normal(m)
    tr = gpadmm_solve(prob, beta, D1, None, cfg(1), (x, y, lam))
    u = (A.T @ lam - beta * A.T @ (-y) + D1 @ x) / tau
    want = closed(u, 1.0 / tau)
    assert np.allclose(tr.iterates[1][0], want, rtol=1e-12, atol=1e-12)
    if family != "zero":
        assert 0 < np.count_nonzero(want != u)   # the prox acts on some coordinate


def test_admm_mapped_perturbation_matches_the_matrix_product_form():
    n, m, beta = 20, 30, 0.7
    rng = np.random.default_rng(11)
    A = rng.standard_normal((m, n)) / math.sqrt(m)
    B = rng.standard_normal((m, m)) / math.sqrt(m) + np.eye(m)
    prob = LinearlyConstrainedProblem(ConvexTerm(n, penalty=L1Penalty(0.1)),
                                      ConvexTerm(m, quadratic=(np.eye(m), np.zeros(m))),
                                      A, B, rng.standard_normal(m))
    D1 = beta * operator_norm(A) ** 2 * 1.05 * np.eye(n) - beta * A.T @ A
    tr = gpadmm_solve(prob, beta, D1, None, cfg(30),
                      (np.zeros(n), np.zeros(m), np.zeros(m)))
    for p, mapped in zip(tr.perturbations[1:], tr.mapped[1:]):
        want = D1 @ p[0] - beta * A.T @ B @ p[1]
        assert np.linalg.norm(mapped[0] - want) <= 1e-12 * np.linalg.norm(want)


def test_pdhg_quadratic_step_is_the_linear_solve():
    n, m, tau, sigma = 12, 5, 0.3, 0.4
    rng = np.random.default_rng(9)
    G = rng.standard_normal((n, n))
    Q, q = G @ G.T / n, rng.standard_normal(n)
    K = rng.standard_normal((m, n))
    sp = SaddleProblem(ConvexTerm(n, quadratic=(0.5 * (Q + Q.T), q)),
                       ConvexTerm(m, quadratic=(np.eye(m), np.zeros(m))), K)
    x, y = rng.standard_normal(n), rng.standard_normal(m)
    tr = pdhg_solve(sp, tau, sigma, cfg(1), (x, y))
    want = np.linalg.solve(np.eye(n) + tau * sp.phi1.Q, x - tau * (K.T @ y) - tau * q)
    assert np.allclose(tr.iterates[1][0], want, rtol=1e-12, atol=1e-12)


def test_kkt_trace_pnorm_sums_left_to_right():
    tr = KKTTrace(("x", "y", "lambda"))
    tr.append((np.zeros(1),) * 3, (np.array([1e8]), np.array([1.0]), np.array([1.0])))
    # (1e16 + 1) + 1 rounds to 1e16; a compensated sum would give 1e16 + 2
    assert tr.pnorm(0) == math.sqrt((1e16 + 1.0) + 1.0) == 1e8
    assert math.sqrt(math.fsum([1e16, 1.0, 1.0])) != 1e8


def test_admm_rejects_prox_step_without_identity_form():
    prob, _D1, beta, _tau, _A = linearized_lasso_admm()
    with pytest.raises(ConfigError, match="tau I"):
        gpadmm_solve(prob, beta, None, None, cfg(5),
                     (np.zeros(2), np.zeros(3), np.zeros(3)))


# ---------------------------------------------------------------------------
# PDHG

def test_pdhg_quadratic_saddle_converges():
    sp = SaddleProblem(quad_term(1), quad_term(1), [[1.0]])
    tr = pdhg_solve(sp, 0.5, 0.5, cfg(200, 1e-14, theory_mode=True),
                    (np.array([1.0]), np.array([-1.0])))
    x, y = tr.final
    assert abs(x[0]) < 1e-9 and abs(y[0]) < 1e-9
    assert max(tr.inclusion_residuals) <= 1e-8


def test_pdhg_fixed_point_start():
    sp = SaddleProblem(quad_term(1), quad_term(1), [[1.0]])
    tr = pdhg_solve(sp, 0.5, 0.5, cfg(5, theory_mode=True), (np.zeros(1), np.zeros(1)))
    assert all(tr.pnorm(k) == 0.0 for k in range(1, len(tr)))


def test_pdhg_l1_primal_box_dual():
    # phi1 = 0.6|x|, phi2 the box indicator on [-1, 1] (dual of an interval)
    from calmkit.penalties import BoxIndicator
    sp = SaddleProblem(ConvexTerm(1, penalty=L1Penalty(0.6)),
                       ConvexTerm(1, penalty=BoxIndicator(-1.0, 1.0)), [[1.0]])
    tr = pdhg_solve(sp, 0.7, 0.7, cfg(500, 1e-13, theory_mode=True),
                    (np.array([2.0]), np.array([0.0])))
    assert max(tr.inclusion_residuals) <= 1e-8
    x, y = tr.final
    # saddle: 0 in d(0.6|x|) + y and 0 in N_[-1,1](y) - x -> x = 0, |y| <= 0.6
    assert abs(x[0]) <= 1e-8 and abs(y[0]) <= 0.6 + 1e-8


def test_pdhg_step_rule_enforced():
    sp = SaddleProblem(quad_term(1), quad_term(1), [[2.0]])
    with pytest.raises(ConfigError, match="step condition"):
        pdhg_solve(sp, 0.5, 0.5, cfg(5, theory_mode=True), (np.zeros(1), np.zeros(1)))
    # without theory mode it runs anyway
    pdhg_solve(sp, 0.5, 0.5, cfg(5), (np.zeros(1), np.zeros(1)))


def test_kkt_trace_csv(tmp_path):
    tr = gpadmm_solve(two_variable_qp(), 1.0, None, None, cfg(20),
                      (np.array([2.0]), np.zeros(1), np.zeros(1)))
    path = tmp_path / "kkt.csv"
    tr.write_csv(path, reference=(np.array([0.5]), np.array([0.5]), np.array([0.5])))
    with open(path) as fh:
        header = fh.readline().strip()
    assert header == "k,xnorm-err,ynorm-err,lamnorm-err,pnorm,inclusion_resid"


def test_term_json_round_trip():
    t = term_from_json({"family": "quadratic", "Q": [[2.0]], "q": [1.0]}, 1)
    assert t.kind == "quadratic"
    t2 = term_from_json({"family": "l1", "lambda": 0.3}, 2)
    assert t2.kind == "l1"
    with pytest.raises(ConfigError):
        term_from_json({"family": "scad", "lambda": 1.0, "a": 3.0}, 1)
    # symmetric part I, but the x-step would solve with Q itself
    with pytest.raises(ConfigError, match="symmetric"):
        term_from_json({"family": "quadratic", "Q": [[1.0, 1.0], [-1.0, 1.0]],
                        "q": [0.0, 0.0]}, 2)
