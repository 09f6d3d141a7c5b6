import math

import numpy as np
import pytest

from calmkit.core import IterateTrace, ProblemSpec, SolverConfig, StationarySetApprox
from calmkit.diagnostics import (check_kl_half, check_kl_half_problem,
                                 check_proper_separation, classify_stationarity,
                                 estimate_error_bound_constant, fit_linear_rate,
                                 kappa1, kappa2, predicted_sigma, residual,
                                 subdiff_distance, verify_cost_to_go,
                                 verify_sufficient_descent)
from calmkit.losses import QuadraticLoss
from calmkit.oracle import brute_force_stationary_set
from calmkit.penalties import L1Penalty, NegAbsPenalty, ScadPenalty, ZeroPenalty
from calmkit.solvers import pg_solve


def lasso2():
    return ProblemSpec(2, QuadraticLoss(np.eye(2), np.array([-4.0, 0.0])),
                       L1Penalty(1.0))


def test_kappa_formulas():
    assert kappa1(0.25, 2.0) == pytest.approx(1.0)
    assert kappa2(0.25, 2.0) == pytest.approx(5.5)  # max{4 + 1.5, 1 + 2}


def test_sufficient_descent_vacuous_on_constant_trace():
    tr = IterateTrace(1)
    for _ in range(4):
        tr.append(np.array([1.0]), 0.5, 0.0)
    rep = verify_sufficient_descent(tr, 0.25, 2.0)
    assert rep.ok and rep.checked == 3


def test_descent_and_cost_to_go_on_lasso_run():
    prob = lasso2()
    gamma, L = 0.5, 1.0
    cfg = SolverConfig(gamma=gamma, max_iter=500, stop_tol=0.0, lipschitz_L=L)
    tr = pg_solve(prob, cfg, np.array([-5.0, 7.0]))
    assert verify_sufficient_descent(tr, gamma, L).ok
    rng = np.random.default_rng(0)
    probes = rng.normal(scale=2.0, size=(100, 2))
    rep = verify_cost_to_go(prob, tr, gamma, L, probes)
    assert rep.ok and rep.checked == 100 * (len(tr) - 1)


def test_cost_to_go_probe_at_next_iterate():
    # x = x^{k+1} reduces the right side to the kappa2 ||p||^2 term alone
    prob = lasso2()
    cfg = SolverConfig(gamma=0.5, max_iter=30, stop_tol=0.0, lipschitz_L=1.0)
    tr = pg_solve(prob, cfg, np.array([2.0, -2.0]))
    k2 = kappa2(0.5, 1.0)
    for k in range(1, len(tr)):
        p2 = float(np.dot(tr.perturbations[k], tr.perturbations[k]))
        assert 0.0 <= k2 * p2 + 1e-12


def test_residual_values():
    prob = lasso2()
    assert residual(prob, np.array([3.0, 0.0]), 0.5) <= 1e-15
    prob1 = ProblemSpec(1, QuadraticLoss([[1.0]], [-4.0]), L1Penalty(1.0))
    assert residual(prob1, np.array([0.0]), 0.5) == pytest.approx(1.5)


def test_residual_negabs_two_point_prox():
    prob = ProblemSpec(1, QuadraticLoss([[1.0]], [0.0]), NegAbsPenalty(1.0))
    # u = 0 at x=0: prox set {-gamma, gamma} with gamma=0.5: distance 0.5
    assert residual(prob, np.array([0.0]), 0.5) == pytest.approx(0.5)


def test_error_bound_constant_on_closed_form_contraction():
    # g = 0, f = (x-4)^2/2, gamma = 0.25: x^{k+1} = (1-gamma) x^k + gamma*4,
    # so dist(x^{k+1}, 4) = (1-gamma)|x^k - 4| and ||p|| = gamma |x^k - 4|:
    # the ratio is (1-gamma)/gamma = 3 at every step
    prob = ProblemSpec(1, QuadraticLoss([[1.0]], [-4.0]), ZeroPenalty())
    cfg = SolverConfig(gamma=0.25, max_iter=40, stop_tol=0.0, lipschitz_L=1.0)
    tr = pg_solve(prob, cfg, np.array([0.0]))
    S = StationarySetApprox(np.array([[4.0]]), 0.0, "analytic")
    est = estimate_error_bound_constant(tr, S, window=np.inf)
    assert est.kappa_hat == pytest.approx(3.0, rel=1e-9)
    assert est.samples > 10


def test_error_bound_no_informative_steps():
    tr = IterateTrace(1)
    for _ in range(3):
        tr.append(np.array([4.0]), 0.0, 0.0)
    S = StationarySetApprox(np.array([[4.0]]), 0.0, "analytic")
    est = estimate_error_bound_constant(tr, S, window=1.0)
    assert est.note == "no informative steps"
    assert math.isnan(est.kappa_hat)


def test_rate_fit_exact_geometric():
    tr = IterateTrace(1)
    for k in range(60):
        tr.append(np.array([2.0 ** -k]), 2.0 ** -k, 0.0)
    fit = fit_linear_rate(tr, 0.0, np.array([0.0]), burn_in=5)
    assert fit.sigma_hat == pytest.approx(0.5, rel=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.rho_hat == pytest.approx(0.5, rel=1e-6)


def test_rate_fit_report_ignores_rounding_in_the_objectives():
    # ulp-level changes in F move sigma_hat from about its sixth digit on:
    # scaling the objectives of the table-1 case-8 trace by 1 + 4e-16 and
    # 1 - 4e-16 in turn moves the attributes, not the 5-digit report
    from calmkit.instances import scenario_instance
    prob, box, x0 = scenario_instance(8, seed=0)
    L = prob.loss.lipschitz_bound(box).value
    cfg = SolverConfig(gamma=0.9 / L, max_iter=2000, stop_tol=1e-12, lipschitz_L=L,
                       lipschitz_box=box)
    tr = pg_solve(prob, cfg, x0)
    base = fit_linear_rate(tr, tr.objectives[-1], tr.final)
    assert base.to_json()["sigma_hat"] == float("%.5g" % base.sigma_hat)
    for sign in (1.0, -1.0):
        scaled = IterateTrace(prob.n)
        for k, (x, F, r) in enumerate(zip(tr.points, tr.objectives, tr.residuals)):
            scaled.append(x, F * (1.0 + sign * (-1) ** k * 4e-16), r)
        fit = fit_linear_rate(scaled, scaled.objectives[-1], scaled.final)
        assert fit.sigma_hat != base.sigma_hat
        assert fit.to_json() == base.to_json()


def test_predicted_sigma_formula():
    # kappa1 = 1, kappa2 = 5.5, kappa = 1 -> 1/(1 + 1/11) = 11/12
    assert predicted_sigma(0.25, 2.0, 1.0) == pytest.approx(11.0 / 12.0)


def test_rate_fit_needs_enough_points():
    tr = IterateTrace(1)
    for k in range(5):
        tr.append(np.array([2.0 ** -k]), 2.0 ** -k, 0.0)
    with pytest.raises(ValueError, match="10 usable"):
        fit_linear_rate(tr, 0.0, np.array([0.0]))


def test_lasso_rate_fit_below_prediction():
    prob = lasso2()
    gamma, L = 0.5, 1.0
    cfg = SolverConfig(gamma=gamma, max_iter=200, stop_tol=0.0, lipschitz_L=L)
    tr = pg_solve(prob, cfg, np.array([-5.0, 7.0]))
    S = StationarySetApprox(np.array([[3.0, 0.0]]), 0.0, "analytic")
    est = estimate_error_bound_constant(tr, S, window=np.inf)
    fit = fit_linear_rate(tr, prob.objective(np.array([3.0, 0.0])),
                          np.array([3.0, 0.0]), gamma=gamma, L=L,
                          kappa_hat=est.kappa_hat)
    assert fit.sigma_hat < 1.0 and fit.r_squared > 0.99
    assert fit.within_prediction


# ---------------------------------------------------------------------------
# KL checks

def test_kl_quadratic_analytic_kappa():
    # F = x^2/2: kappa * |x| / sqrt(x^2/2) = kappa*sqrt(2) >= 1 iff kappa >= 1/sqrt(2)
    value = lambda x: 0.5 * float(x[0]) ** 2
    dist = lambda x: abs(float(x[0]))
    rep = check_kl_half(value, dist, np.zeros(1), 0.1, 400, seed=1)
    assert rep.kappa_min == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-6)
    rep2 = check_kl_half(value, dist, np.zeros(1), 0.1, 400, seed=1,
                         kappa=1.0)
    assert rep2.violation_fraction == 0.0


def test_kl_quartic_control_diverges():
    # x^4 and F0 = 0 evaluate without cancellation: the strict definitional
    # inequality applies (gap_floor=0) and kappa grows exactly 10x per decade
    value = lambda x: float(x[0]) ** 4
    dist = lambda x: 4.0 * abs(float(x[0])) ** 3
    kmins = [check_kl_half(value, dist, np.zeros(1), eps, 400, seed=2,
                           gap_floor=0.0).kappa_min
             for eps in (1e-1, 1e-2, 1e-3)]
    assert kmins[1] >= 10.0 * kmins[0] * 0.999
    assert kmins[2] >= 10.0 * kmins[1] * 0.999


def test_kl_lasso_stable_kappa():
    # exponent 1/2 holds: the minimal kappa never grows as the ball shrinks
    prob = lasso2()
    x_bar = np.array([3.0, 0.0])
    kmins = [check_kl_half_problem(prob, x_bar, eps, 2000, seed=3).kappa_min
             for eps in (1e-1, 1e-2, 1e-3)]
    assert all(np.isfinite(k) and k > 0 for k in kmins)
    assert kmins[1] <= kmins[0] * 1.05 and kmins[2] <= kmins[1] * 1.05


# ---------------------------------------------------------------------------
# separation and classification

def test_proper_separation_isolated_point():
    prob = lasso2()
    S = StationarySetApprox(np.array([[3.0, 0.0]]), 0.0, "analytic")
    assert check_proper_separation(S, prob, np.array([3.0, 0.0]), 1.0)


def test_proper_separation_convex_solution_set():
    # non-compact optimal line shares the optimal value
    from calmkit.instances import group_lasso_noncompact
    prob, sol = group_lasso_noncompact()
    pts = np.stack([sol["solution_base"] + t * sol["free_direction"]
                    for t in np.linspace(-2, 2, 11)])
    S = StationarySetApprox(pts, 0.0, "analytic")
    assert check_proper_separation(S, prob, sol["solution_base"], 5.0)


def test_proper_separation_fails_on_two_valued_instance():
    # mu (c - x) crossing two branches gives stationary values 3.5 and 2
    mu, c = 0.2, 6.0
    prob = ProblemSpec(1, QuadraticLoss([[mu]], [-mu * c]), ScadPenalty(1.0, 3.0))
    S = brute_force_stationary_set(prob, (np.array([-10.0]), np.array([10.0])),
                                   cells=400)
    assert S.points.shape[0] == 2
    assert not check_proper_separation(S, prob, np.array([1.0]), 10.0)
    assert check_proper_separation(S, prob, np.array([1.0]), 1.0)


def test_classify_stationarity_variants():
    lam = 1.0
    prob = ProblemSpec(1, QuadraticLoss([[1.0]], [-lam]), NegAbsPenalty(lam))
    assert classify_stationarity(prob, np.array([0.0]), 1e-8) == "limiting-only"
    assert classify_stationarity(prob, np.array([2.0]), 1e-8) == "proximal"
    assert classify_stationarity(prob, np.array([0.7]), 1e-8) == "none"
    sc = ProblemSpec(1, QuadraticLoss([[0.2]], [-1.2]), ScadPenalty(1.0, 3.0))
    assert classify_stationarity(sc, np.array([1.0]), 1e-8) == "proximal"


def test_subdiff_distance_uses_limiting():
    prob = ProblemSpec(1, QuadraticLoss([[1.0]], [-1.0]), NegAbsPenalty(1.0))
    # at the kink the limiting subdifferential {-1, 1} absorbs -grad f = 1
    assert subdiff_distance(prob, np.array([0.0])) <= 1e-15


def test_luo_tseng_bound_implies_pointwise_residual_bound():
    # convex instance: fit the global sublevel-set constant by sampling,
    # then confirm the same constant works pointwise near the solution
    prob = lasso2()
    gamma = 0.5
    x_bar = np.array([3.0, 0.0])
    S = StationarySetApprox(np.array([[3.0, 0.0]]), 0.0, "analytic")
    from calmkit.core import distance_to_set
    rng = np.random.default_rng(17)
    kappa_lt = 0.0
    fit_sample = [rng.uniform(-6, 6, size=2) for _ in range(1500)] + \
        [x_bar + rng.uniform(-1.0, 1.0, size=2) for _ in range(500)]
    for x in fit_sample:
        r = residual(prob, x, gamma)
        if 1e-12 < r <= 1.0:   # residual window of the global bound
            kappa_lt = max(kappa_lt, distance_to_set(x, S) / r)
    assert kappa_lt > 0
    for _ in range(200):   # fresh near-solution points, 5% sampling slack
        x = x_bar + rng.uniform(-0.2, 0.2, size=2)
        r = residual(prob, x, gamma)
        assert distance_to_set(x, S) <= 1.05 * kappa_lt * r + 1e-9


def _cost_to_go_reference(prob, trace, gamma, L, probes):
    """verify_cost_to_go as a double loop over iterates and probes."""
    k2 = kappa2(gamma, L)
    probe_F = [prob.objective(x) for x in probes]
    checked, violations = 0, []
    for k in range(1, len(trace)):
        xk1 = trace.points[k]
        p2 = float(np.dot(trace.perturbations[k], trace.perturbations[k]))
        tol = 1e-9 * (1.0 + abs(trace.objectives[k]))
        for j, (x, Fx) in enumerate(zip(probes, probe_F)):
            checked += 1
            slack = (trace.objectives[k] - Fx) - k2 * (float(np.dot(x - xk1, x - xk1)) + p2)
            if slack > tol:
                violations.append((k, j, slack))
    return checked, violations


@pytest.mark.parametrize("n", [1, 3, 40])
def test_cost_to_go_matches_the_double_loop(n):
    rng = np.random.default_rng(n)
    A = rng.standard_normal((2 * n, n))
    prob = ProblemSpec(n, QuadraticLoss(A.T @ A / (2 * n), rng.standard_normal(n)),
                       ScadPenalty(0.5, 3.7))
    gamma, L = 0.4, 1.0
    scale = kappa2(gamma, L) * 3.0 * n
    tr = IterateTrace(n)
    for _ in range(15):
        # objectives inflated at random, so that some probes violate the inequality
        x = rng.standard_normal(n)
        tr.append(x, prob.objective(x) + scale * rng.uniform(0.0, 2.0), 0.0)
    probes = [rng.standard_normal(n) for _ in range(25)]
    rep = verify_cost_to_go(prob, tr, gamma, L, probes)
    checked, violations = _cost_to_go_reference(prob, tr, gamma, L, probes)
    assert 0 < len(violations) < checked
    assert rep.checked == checked
    assert [k for k, _ in rep.violations] == [k for k, _, _ in violations]
    # the slacks come in probe order within each k
    for (_, got), (_, _, want) in zip(rep.violations, violations):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_kappa_hat_and_predicted_sigma_print_five_digits():
    # kappa_hat divides distances to S near zero: a 1e-11 relative move of it
    # stays in the attributes and the prediction, not in the report
    from calmkit.calmness import ModulusEstimate
    tr = IterateTrace(1)
    for k in range(60):
        tr.append(np.array([2.0 ** -k]), 2.0 ** -k, 0.0)
    kappa = 1.2345678901234
    reports = []
    for scale in (1.0, 1.0 + 1e-11):
        est = ModulusEstimate(kappa * scale, 3, None, None)
        fit = fit_linear_rate(tr, 0.0, np.array([0.0]), burn_in=5,
                              gamma=0.5, L=1.0, kappa_hat=est.kappa_hat)
        assert fit.predicted_sigma == predicted_sigma(0.5, 1.0, kappa * scale)
        reports.append((est.to_json(), fit.to_json()))
    assert reports[0] == reports[1]
    est_json, fit_json = reports[0]
    assert est_json["kappa_hat"] == 1.2346
    assert fit_json["predicted_sigma"] == float("%.5g" % fit.predicted_sigma)
    assert fit_json["within_prediction"] == fit.within_prediction
    assert math.isnan(ModulusEstimate(math.nan, 0, None, None).to_json()["kappa_hat"])
    unpredicted = fit_linear_rate(tr, 0.0, np.array([0.0]), burn_in=5)
    assert unpredicted.to_json()["predicted_sigma"] is None


def test_kappa_hat_names_the_first_ratio_within_its_tolerance():
    # an exactly linear trace rounded: step 2's ratio d/||p|| beats step 1's
    # by about 1e-15 relative, and the first of the two is the one named
    S = StationarySetApprox(points=np.zeros((1, 1)), radius=1e-12, method="analytic")
    tr = IterateTrace(1)
    for x in (4.0, 2.0, 1.0 + 4 * np.finfo(float).eps):
        tr.append(np.array([x]), 0.0, 0.0)
    r1, r2 = (float(tr.points[k][0] / tr.perturbations[k][0]) for k in (1, 2))
    assert 0.0 < r2 - r1 <= 2e-15 * r1
    est = estimate_error_bound_constant(tr, S, window=np.inf)
    assert est.kappa_hat == r2 and est.samples == 2
    assert est.max_ratio_point is tr.points[1]
    assert est.max_ratio_perturbation is tr.perturbations[1]
