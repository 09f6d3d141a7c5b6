import numpy as np
import pytest

from calmkit import solvers
from calmkit.core import ConfigError, NumericAbort, ProblemSpec, SolverConfig
from calmkit.diagnostics import classify_stationarity, kappa1, residual
from calmkit.losses import Box, ExponentialLoss, LogisticLoss, QuadraticLoss
from calmkit.oracle import brute_force_stationary_set
from calmkit.penalties import L1Penalty, NegAbsPenalty, ScadPenalty, ZeroPenalty
from calmkit.solvers import pg_solve, ppa_solve


def lasso2():
    return ProblemSpec(2, QuadraticLoss(np.eye(2), np.array([-4.0, 0.0])),
                       L1Penalty(1.0))


def test_pg_first_step_hand_computation():
    cfg = SolverConfig(gamma=0.5, max_iter=1, stop_tol=0.0, lipschitz_L=1.0)
    tr = pg_solve(lasso2(), cfg, np.zeros(2))
    assert np.allclose(tr.points[1], [1.5, 0.0], atol=1e-14)


def test_pg_reduces_to_gradient_descent_for_zero_penalty():
    prob = ProblemSpec(2, QuadraticLoss(np.eye(2), np.array([-4.0, 0.0])),
                       ZeroPenalty())
    cfg = SolverConfig(gamma=0.3, max_iter=20, stop_tol=0.0, lipschitz_L=1.0)
    tr = pg_solve(prob, cfg, np.array([1.0, -2.0]))
    x = np.array([1.0, -2.0])
    for k in range(1, 21):
        x = x - 0.3 * (x - np.array([4.0, 0.0]))
        assert np.array_equal(tr.points[k], x)


def test_pg_sufficient_descent_along_trace():
    prob = lasso2()
    gamma, L = 0.5, 1.0
    cfg = SolverConfig(gamma=gamma, max_iter=200, stop_tol=0.0, lipschitz_L=L)
    tr = pg_solve(prob, cfg, np.array([-3.0, 5.0]))
    k1 = kappa1(gamma, L)
    for k in range(1, len(tr)):
        p2 = float(np.dot(tr.perturbations[k], tr.perturbations[k]))
        assert tr.objectives[k] - tr.objectives[k - 1] <= -k1 * p2 \
            + 1e-9 * (1 + abs(tr.objectives[k - 1]))


def test_pg_perturbation_identity_membership():
    # p_{k+1}/gamma - grad f(x^k) in prox-subdiff g(x^{k+1}) per coordinate
    prob = ProblemSpec(2, QuadraticLoss(np.eye(2), np.array([-4.0, 0.0])),
                       ScadPenalty(1.0, 3.0))
    gamma = 0.5
    cfg = SolverConfig(gamma=gamma, max_iter=100, stop_tol=0.0, lipschitz_L=1.0)
    tr = pg_solve(prob, cfg, np.array([2.0, -1.5]))
    for k in range(1, len(tr)):
        xk1 = tr.points[k]
        xk = tr.points[k - 1]
        p = tr.perturbations[k]
        lhs = p / gamma - prob.loss.gradient(xk1 + p)  # = grad f(x^k)
        # identity: p/gamma in grad f(x^{k+1} + p) + prox-subdiff g(x^{k+1})
        for i in range(2):
            d = prob.penalty.prox_subdiff(float(xk1[i])).distance(float(lhs[i]))
            assert d <= 1e-8
        assert np.array_equal(p, xk - xk1)


@pytest.mark.parametrize("penalty", [L1Penalty(1.0), ScadPenalty(1.0, 3.0),
                                     NegAbsPenalty(0.5)], ids=lambda g: g.family)
def test_pg_trace_residual_is_the_residual_of_its_point(penalty):
    # the loop reuses each iterate's prox sets for its residual and its step
    prob = ProblemSpec(2, QuadraticLoss([[1.0, 0.3], [0.3, 2.0]], [-2.0, 0.5]),
                       penalty)
    gamma = 0.4
    cfg = SolverConfig(gamma=gamma, max_iter=60, stop_tol=0.0, lipschitz_L=2.1)
    tr = pg_solve(prob, cfg, np.array([2.5, -1.5]))
    for k in range(len(tr)):
        assert tr.residuals[k] == residual(prob, tr.points[k], gamma)


def test_pg_fixed_point_stays():
    prob = lasso2()
    cfg = SolverConfig(gamma=0.5, max_iter=5, stop_tol=0.0, lipschitz_L=1.0)
    tr = pg_solve(prob, cfg, np.array([3.0, 0.0]))
    for k in range(len(tr)):
        assert np.allclose(tr.points[k], [3.0, 0.0], atol=1e-15)


def test_pg_negabs_accumulation_is_proximal_never_limiting_only():
    # instance built so the limiting stationary set strictly contains the
    # proximal one (f'(0) = -lam hits the kink's limiting subdifferential)
    lam = 1.0
    prob = ProblemSpec(1, QuadraticLoss([[1.0]], [-lam]), NegAbsPenalty(lam))
    Sp = brute_force_stationary_set(prob, (np.array([-8.0]), np.array([8.0])),
                                    cells=300)
    Sl = brute_force_stationary_set(prob, (np.array([-8.0]), np.array([8.0])),
                                    cells=300, limiting=True)
    assert Sl.points.shape[0] > Sp.points.shape[0]  # X^L \ X^pi nonempty
    cfg = SolverConfig(gamma=0.9, max_iter=300, stop_tol=1e-12, lipschitz_L=1.0)
    rng = np.random.default_rng(11)
    for _ in range(100):
        tr = pg_solve(prob, cfg, rng.uniform(-6, 6, size=1))
        assert classify_stationarity(prob, tr.final, 1e-7) == "proximal"


def test_pg_aborts_outside_lipschitz_box():
    loss = ExponentialLoss([[1.0]], [1.0])
    box = Box.cube(1, -0.5, 0.5)
    L = loss.lipschitz_bound(box).value
    prob = ProblemSpec(1, loss, ZeroPenalty())
    cfg = SolverConfig(gamma=0.9 / L, max_iter=2000, stop_tol=0.0,
                       lipschitz_L=L, lipschitz_box=box)
    with pytest.raises(NumericAbort, match="box"):
        pg_solve(prob, cfg, np.array([0.0]))  # exp(-x) drives x off to +inf


def test_pg_aborts_on_non_finite_objective():
    # x^k = 1.9^k 1e150 until F = -x^2 / 2 overflows to -inf
    prob = ProblemSpec(1, QuadraticLoss([[-1.0]], [0.0]), ZeroPenalty())
    cfg = SolverConfig(gamma=0.9, max_iter=100, stop_tol=0.0, lipschitz_L=1.0)
    with np.errstate(over="ignore"), pytest.raises(NumericAbort, match="non-finite objective"):
        pg_solve(prob, cfg, np.array([1e150]))


def test_pg_requires_theory_gamma():
    with pytest.raises(ConfigError):
        pg_solve(lasso2(), SolverConfig(gamma=2.0, max_iter=5, lipschitz_L=1.0),
                 np.zeros(2))


# ---------------------------------------------------------------------------
# PPA

def test_ppa_quadratic_average():
    prob = ProblemSpec(1, QuadraticLoss([[1.0]], [0.0]), ZeroPenalty())
    cfg = SolverConfig(gamma=1.0, max_iter=1, stop_tol=0.0, theory_mode=False)
    tr = ppa_solve(prob, cfg, np.array([4.0]))
    assert tr.points[1][0] == pytest.approx(2.0, abs=1e-12)


def test_ppa_reduces_to_prox_for_zero_loss():
    prob = ProblemSpec(1, QuadraticLoss([[0.0]], [0.0]), L1Penalty(1.0))
    cfg = SolverConfig(gamma=1.0, max_iter=1, stop_tol=0.0, theory_mode=False)
    tr = ppa_solve(prob, cfg, np.array([3.0]))
    assert tr.points[1][0] == pytest.approx(2.0, abs=1e-12)


def test_ppa_2d_objective_non_increasing():
    Q = np.array([[2.0, 0.5], [0.5, 1.0]])
    prob = ProblemSpec(2, QuadraticLoss(Q, np.array([-1.0, 2.0])), L1Penalty(0.7))
    cfg = SolverConfig(gamma=0.8, max_iter=12, stop_tol=0.0, theory_mode=False)
    tr = ppa_solve(prob, cfg, np.array([2.0, 2.0]), oracle_window=8.0)
    diffs = np.diff(tr.objectives)
    assert np.all(diffs <= 1e-9)


def _dense_f_prox_1d(prob, gamma, xk, window):
    """argmin of F(t) + (t - xk)^2 / (2 gamma): a 1e-3 grid over the window,
    then a 1e-7 grid around its best point."""
    def subproblem(t):
        T = t[:, None]
        return prob.loss.value_many(T) + prob.penalty.value_many(T) + (t - xk) ** 2 / (2.0 * gamma)

    t = np.linspace(xk - window, xk + window, int(round(2.0 * window / 1e-3)) + 1)
    best = t[np.argmin(subproblem(t))]
    t = np.linspace(best - 2e-3, best + 2e-3, 40001)
    return t[np.argmin(subproblem(t))]


def test_ppa_1d_oracle_prox_matches_dense_minimization():
    prob = ProblemSpec(1, LogisticLoss([[1.0], [-0.5], [2.0], [0.3]], [1, 1, -1, 1]),
                       ScadPenalty(0.3, 3.7))
    cfg = SolverConfig(gamma=1.0, max_iter=3, stop_tol=0.0, theory_mode=False)
    tr = ppa_solve(prob, cfg, np.array([3.0]))
    assert len(tr.points) == 4
    assert np.all(np.diff(tr.objectives) <= 0.0)
    for xk, x_next in zip(tr.points[:-1], tr.points[1:]):
        window = 20.0 * (1.0 + abs(float(xk[0])))
        assert abs(x_next[0] - _dense_f_prox_1d(prob, 1.0, float(xk[0]), window)) <= 1e-6


def test_ppa_rejects_large_nonseparable_problems():
    prob = ProblemSpec(3, QuadraticLoss(np.eye(3) + 0.1, np.zeros(3)), L1Penalty(1.0))
    cfg = SolverConfig(gamma=1.0, max_iter=2, theory_mode=False)
    with pytest.raises(ConfigError):
        ppa_solve(prob, cfg, np.zeros(3))


def test_ppa_exact_f_prox_only_for_an_exactly_diagonal_q(monkeypatch):
    # off-diagonal entries of 5e-9 pass np.allclose against the diagonal, but
    # the exact separable F-prox would drop them
    Q = np.eye(3) + 5e-9 * (np.ones((3, 3)) - np.eye(3))
    cfg = SolverConfig(gamma=1.0, max_iter=1, stop_tol=0.0, theory_mode=False)
    prob = ProblemSpec(3, QuadraticLoss(Q, np.array([-1.0, 0.5, 2.0])), L1Penalty(0.3))
    with pytest.raises(ConfigError):
        ppa_solve(prob, cfg, np.zeros(3))
    calls = []
    oracle = solvers._f_prox_oracle
    monkeypatch.setattr(solvers, "_f_prox_oracle", lambda *a: calls.append(a) or oracle(*a))
    prob2 = ProblemSpec(2, QuadraticLoss(Q[:2, :2], np.array([-1.0, 0.5])), L1Penalty(0.3))
    ppa_solve(prob2, cfg, np.zeros(2), oracle_window=4.0)
    assert len(calls) == 1
