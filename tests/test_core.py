import json

import numpy as np
import pytest

from calmkit.core import (ConfigError, IterateTrace, ProblemSpec, SolverConfig,
                          StationarySetApprox, distance_to_set,
                          problem_from_json)
from calmkit.losses import QuadraticLoss
from calmkit.penalties import L1Penalty
from calmkit.solvers import pg_solve


def lasso_problem():
    return ProblemSpec(2, QuadraticLoss(np.eye(2), np.array([-4.0, 0.0])),
                       L1Penalty(1.0))


def test_distance_to_set_identity():
    S = StationarySetApprox(np.array([[0.0, 0.0]]), 0.0, "analytic")
    assert distance_to_set(np.array([0.0, 0.0]), S) == 0.0


def test_distance_to_set_345():
    S = StationarySetApprox(np.array([[0.0, 0.0]]), 0.0, "analytic")
    assert distance_to_set(np.array([3.0, 4.0]), S) == pytest.approx(5.0)


def test_distance_to_set_nearest_of_two():
    S = StationarySetApprox(np.array([[0.0, 0.0], [2.0, 0.0]]), 0.0, "analytic")
    assert distance_to_set(np.array([1.0, 0.0]), S) == pytest.approx(1.0)


def test_distance_empty_set_errors():
    S = StationarySetApprox(np.zeros((0, 2)), 0.0, "analytic")
    with pytest.raises(ValueError, match="empty stationary set"):
        distance_to_set(np.zeros(2), S)


def test_theory_mode_requires_gamma_below_inverse_L():
    with pytest.raises(ConfigError, match="gamma < 1/L"):
        SolverConfig(gamma=1.0, max_iter=10, lipschitz_L=1.0).validate()
    SolverConfig(gamma=0.99, max_iter=10, lipschitz_L=1.0).validate()
    # permissive mode allows any gamma
    SolverConfig(gamma=5.0, max_iter=10, theory_mode=False).validate()


def test_dimension_mismatch_rejected():
    with pytest.raises(ConfigError):
        ProblemSpec(3, QuadraticLoss(np.eye(2), np.zeros(2)), L1Penalty(1.0))


def test_trace_reconstruction_is_exact():
    prob = lasso_problem()
    cfg = SolverConfig(gamma=0.37, max_iter=60, stop_tol=0.0, lipschitz_L=1.0)
    tr = pg_solve(prob, cfg, np.array([0.123, -0.456]))
    assert tr.check_reconstruction()
    for k in range(1, len(tr)):
        assert np.array_equal(tr.perturbations[k],
                              tr.points[k - 1] - tr.points[k])
        # re-adding the perturbation recovers the previous iterate to 1 ulp
        back = tr.points[k] + tr.perturbations[k]
        assert np.all(np.abs(back - tr.points[k - 1])
                      <= np.spacing(np.abs(tr.points[k - 1]) + 1e-300))


def test_traces_are_deterministic():
    prob = lasso_problem()
    cfg = SolverConfig(gamma=0.37, max_iter=40, stop_tol=0.0, lipschitz_L=1.0)
    t1 = pg_solve(prob, cfg, np.zeros(2))
    t2 = pg_solve(prob, cfg, np.zeros(2))
    assert all(np.array_equal(a, b) for a, b in zip(t1.points, t2.points))
    assert t1.objectives == t2.objectives


def test_trace_csv_round_trip_bitwise(tmp_path):
    prob = lasso_problem()
    cfg = SolverConfig(gamma=0.37, max_iter=50, stop_tol=0.0, lipschitz_L=1.0)
    tr = pg_solve(prob, cfg, np.array([0.1, 0.2]))
    path = tmp_path / "trace.csv"
    tr.write_csv(path)
    back = IterateTrace.read_csv(path)
    assert len(back) == len(tr)
    for a, b in zip(tr.points, back.points):
        assert np.array_equal(a, b)
    assert back.objectives == tr.objectives
    assert back.residuals == tr.residuals
    with open(path) as fh:
        header = fh.readline().strip()
    assert header == "k,x_0,x_1,F,pnorm,residual"


def test_problem_json_round_trip():
    prob = lasso_problem()
    back = problem_from_json(json.loads(json.dumps(prob.to_json())))
    assert back.n == prob.n
    x = np.array([0.3, -0.7])
    assert back.objective(x) == prob.objective(x)


def test_bad_problem_json_is_config_error():
    with pytest.raises(ConfigError):
        problem_from_json({"n": 2, "loss": {"family": "nope"}, "penalty": {}})


def test_stationary_set_warnings_default_to_empty():
    assert StationarySetApprox(np.zeros((1, 2)), 0.0, "analytic").warnings == []
