import json

import numpy as np
import pytest

from calmkit.cli import main
from calmkit.core import IterateTrace

LASSO = {"n": 2,
         "loss": {"family": "quadratic", "Q": [[1.0, 0.0], [0.0, 1.0]],
                  "q": [-4.0, 0.0]},
         "penalty": {"family": "l1", "lambda": 1.0}}

ADMM = {"theta1": {"family": "quadratic", "Q": [[1.0]], "q": [0.0]},
        "theta2": {"family": "quadratic", "Q": [[1.0]], "q": [0.0]},
        "A": [[1.0]], "B": [[1.0]], "b": [1.0], "beta": 1.0}

PDHG = {"phi1": {"family": "quadratic", "Q": [[1.0]], "q": [0.0]},
        "phi2": {"family": "quadratic", "Q": [[1.0]], "q": [0.0]},
        "K": [[1.0]], "tau": 0.5, "sigma": 0.5}


def write(tmp_path, name, obj):
    p = tmp_path / name
    with open(p, "w") as fh:
        json.dump(obj, fh)
    return str(p)


def test_solve_pg_writes_trace_and_summary(tmp_path, capsys):
    prob = write(tmp_path, "p.json", LASSO)
    out = str(tmp_path / "trace.csv")
    summ = str(tmp_path / "s.json")
    rc = main(["solve", "--problem", prob, "--solver", "pg", "--gamma", "0.5",
               "--max-iter", "200", "--out", out, "--summary", summ])
    assert rc == 0
    with open(summ) as fh:
        s = json.load(fh)
    tr = IterateTrace.read_csv(out)
    assert len(tr) == s["iterations"] + 1
    assert s["final_F"] == pytest.approx(-4.5, abs=1e-9)


def test_solve_rejects_large_gamma_in_theory_mode(tmp_path):
    prob = write(tmp_path, "p.json", LASSO)
    rc = main(["solve", "--problem", prob, "--solver", "pg", "--gamma", "1.5",
               "--max-iter", "10", "--out", str(tmp_path / "t.csv")])
    assert rc == 2


def test_admm_qp_reaches_kkt(tmp_path):
    prob = write(tmp_path, "a.json", ADMM)
    out = str(tmp_path / "kkt.csv")
    summ = str(tmp_path / "s.json")
    rc = main(["solve", "--problem", prob, "--solver", "admm",
               "--max-iter", "400", "--stop-tol", "1e-15",
               "--out", out, "--summary", summ])
    assert rc == 0
    with open(out) as fh:
        rows = fh.read().strip().splitlines()
    last = rows[-1].split(",")
    # final errors vs (reference = final iterate) are zero; inclusion <= 1e-8
    assert float(last[-1]) <= 1e-8


def test_pdhg_runs(tmp_path):
    prob = write(tmp_path, "p.json", PDHG)
    rc = main(["solve", "--problem", prob, "--solver", "pdhg",
               "--max-iter", "300", "--stop-tol", "1e-14",
               "--out", str(tmp_path / "t.csv"),
               "--x0", "1.0,-1.0"])
    assert rc == 0


def test_pdhg_step_rule_follows_permissive(tmp_path, capsys):
    # tau*sigma*||K||^2 = 0.5 * 0.5 * 4 = 1 breaks the strict step rule
    prob = write(tmp_path, "p.json", dict(PDHG, K=[[2.0]]))
    argv = ["solve", "--problem", prob, "--solver", "pdhg", "--max-iter", "5",
            "--out", str(tmp_path / "t.csv")]
    assert main(argv) == 2
    assert "step condition" in capsys.readouterr().err
    assert main(argv + ["--permissive"]) == 0


def test_diagnose_round_trip_reproduces_in_process(tmp_path, capsys):
    from calmkit.core import SolverConfig, problem_from_json
    from calmkit.diagnostics import verify_sufficient_descent
    from calmkit.solvers import pg_solve
    prob_path = write(tmp_path, "p.json", LASSO)
    out = str(tmp_path / "trace.csv")
    main(["solve", "--problem", prob_path, "--solver", "pg", "--gamma", "0.5",
          "--max-iter", "100", "--out", out])
    capsys.readouterr()
    rep_path = str(tmp_path / "rep.json")
    rc = main(["diagnose", "--trace", out, "--problem", prob_path,
               "--gamma", "0.5", "--oracle-box=-6,6", "--probes", "10",
               "--out", rep_path])
    assert rc == 0
    with open(rep_path) as fh:
        rep = json.load(fh)
    assert rep["kappa1"] == 0.5 and rep["kappa2"] == 3.0
    assert rep["sufficient_descent"]["ok"]
    assert rep["cost_to_go"]["ok"]
    assert rep["classification"] == "proximal"
    assert "kappa_hat" in rep and "rate_fit" in rep
    # bit-for-bit: the same checks in process give identical results
    prob = problem_from_json(LASSO)
    tr = pg_solve(prob, SolverConfig(gamma=0.5, max_iter=100, lipschitz_L=1.0),
                  np.zeros(2))
    in_proc = verify_sufficient_descent(tr, 0.5, 1.0)
    assert in_proc.to_json() == rep["sufficient_descent"]


def test_diagnose_without_oracle_box_has_skip_marker(tmp_path, capsys):
    prob_path = write(tmp_path, "p.json", LASSO)
    out = str(tmp_path / "trace.csv")
    main(["solve", "--problem", prob_path, "--solver", "pg", "--gamma", "0.5",
          "--max-iter", "60", "--out", out])
    capsys.readouterr()
    rc = main(["diagnose", "--trace", out, "--problem", prob_path,
               "--gamma", "0.5"])
    captured = capsys.readouterr().out
    assert rc == 0
    rep = json.loads(captured)
    assert "skipped" in rep["kappa_hat"]


def test_certify_cli(tmp_path, capsys):
    prob_path = write(tmp_path, "p.json", LASSO)
    pt = write(tmp_path, "x.json", {"x": [3.0, 0.0]})
    rc = main(["certify", "--problem", prob_path, "--point", pt,
               "--conditions", "nnamcq,foscms,polyhedral"])
    assert rc == 0
    reports = json.loads(capsys.readouterr().out)
    assert [r["verdict"] for r in reports] == ["holds", "holds", "holds"]


def test_certify_non_stationary_point_exit_4(tmp_path, capsys):
    prob_path = write(tmp_path, "p.json", LASSO)
    pt = write(tmp_path, "x.json", {"x": [0.0, 0.0]})
    rc = main(["certify", "--problem", prob_path, "--point", pt,
               "--conditions", "nnamcq"])
    assert rc == 4


def test_oracle_prox_cli(capsys):
    rc = main(["oracle", "prox", "--family", "negabs", "--lambda", "1.0",
               "--u", "0.0", "--gamma", "1.0", "--window", "5.0"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["minimizers"]) == 2


def test_explain_dumps_cone_atoms(capsys):
    rc = main(["explain", "--penalty", '{"family":"scad","lambda":1.0,"a":3.0}',
               "--point", "0,1", "--direction", "0,-1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["classification"]["kind"] == "vertex"
    assert any(a["kind"] == "sector" for a in out["limiting_normal"])
    assert out["directional_normal"][0]["kind"] == "line"


def test_reproduce_example_5_1(capsys):
    rc = main(["reproduce", "example-5-1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert all(c["matches"] for c in out["cases"])
    assert "reflection" in " ".join(out["notes"])


def test_reproduce_table_1_case_6_box_scoped(capsys):
    rc = main(["reproduce", "table-1", "--case", "6", "--max-iter", "6000"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["L_scope"] == "box"
    assert out["sufficient_descent"]["ok"]
    assert out["classification"] == "proximal"


def test_reproduce_table_1_fits_a_rate_only_after_convergence(capsys):
    # at the default --max-iter 2000, case 6 (seed 0) stops with residual ~1e-5
    assert main(["reproduce", "table-1", "--case", "6"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["iterations"] == 2000 and out["converged"] is False
    assert list(out["rate_fit"]) == ["skipped"]
    assert "--max-iter 2000" in out["rate_fit"]["skipped"]
    assert main(["reproduce", "table-1", "--case", "6", "--max-iter", "6000"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["converged"] is True and out["iterations"] < 6000
    assert out["rate_fit"]["r_squared"] > 0.99


def test_reproduce_table_1_converged_on_the_last_allowed_iteration(capsys):
    # case 5 (seed 0) meets stop_tol at its 123rd step: one step fewer is a
    # cut, exactly 123 is convergence
    reports = []
    for max_iter in ("122", "123"):
        assert main(["reproduce", "table-1", "--case", "5", "--max-iter", max_iter]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    cut, done = reports
    assert cut["iterations"] == 122 and cut["converged"] is False
    assert "skipped" in cut["rate_fit"]
    assert done["iterations"] == 123 and done["converged"] is True
    assert "sigma_hat" in done["rate_fit"]


@pytest.mark.parametrize("case", [5, 6, 7, 8])
def test_reproduce_table_1_runs_at_every_seed(tmp_path, case):
    # exponential data that are separable (seed 9) or whose loss minimizer
    # lies far outside the Lipschitz box (seed 7) are drawn again rather
    # than driving PG out of the box (exit 3)
    for seed in range(12):
        out = str(tmp_path / ("t-%d.json" % seed))
        assert main(["reproduce", "table-1", "--case", str(case), "--seed", str(seed),
                     "--out", out]) == 0, seed


def test_separable_exponential_data_have_no_minimizer_within_reach():
    # along x = (1, 0) both margins are 1e-7 > 0, so the loss has no
    # minimizer, although its gradient at 0 (norm 2e-7) passes a solver's
    # stopping test there
    from calmkit.instances import _minimizer_within_reach
    from calmkit.losses import Box, ExponentialLoss
    box = Box.cube(2, -2.0, 2.0)
    assert not _minimizer_within_reach(
        ExponentialLoss([[1e-7, 1.0], [1e-7, -1.0]], [1.0, 1.0]), box)
    assert _minimizer_within_reach(
        ExponentialLoss([[1.0, 1.0], [1.0, -1.0], [-1.0, 0.0]], [1.0, 1.0, 1.0]), box)


def test_foscms_internal_error_is_not_a_certificate_error(tmp_path, monkeypatch):
    # eta = w failing the directional check is a bug (traceback, exit 1),
    # not an infeasible certificate input (exit 4)
    from calmkit.graphs_cones import Atom
    from calmkit.instances import scad_case_ii
    case = scad_case_ii(degenerate=True)
    monkeypatch.setattr("calmkit.calmness.directional_limiting_normal_atoms",
                        lambda *args, **kwargs: [Atom("zero")])
    prob = write(tmp_path, "p.json", {"n": 2, "loss": case.prob.loss.to_json(),
                                      "penalty": case.prob.penalty.to_json()})
    pt = write(tmp_path, "x.json", {"x": case.z_bar.tolist()})
    with pytest.raises(RuntimeError, match="eta = w"):
        main(["certify", "--problem", prob, "--point", pt, "--conditions", "foscms"])


def test_internal_value_error_is_not_a_configuration_error(tmp_path, monkeypatch):
    # a bug inside calmkit propagates (traceback, exit 1) instead of exit 2
    def broken(*args, **kwargs):
        raise ValueError("internal failure")

    monkeypatch.setattr("calmkit.cli.pg_solve", broken)
    prob = write(tmp_path, "p.json", LASSO)
    with pytest.raises(ValueError, match="internal failure"):
        main(["solve", "--problem", prob, "--solver", "pg", "--gamma", "0.5",
              "--out", str(tmp_path / "t.csv")])


@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "{bad}", "--solver", "pg", "--gamma", "0.5", "--x0", "1,x"],
    ["solve", "--problem", "{bad}", "--solver", "pg", "--gamma", "0.5", "--box", "1"],
    ["solve", "--problem", "{notjson}", "--solver", "pg", "--gamma", "0.5"],
    ["solve", "--problem", "{admm}", "--solver", "admm"],
    ["certify", "--problem", "{bad}", "--point", "{notjson}"],
    ["explain", "--penalty", '{"family": "l1"}', "--point", "0,0"],
    ["explain", "--penalty", '{"family": "l1", "lambda": 1.0}', "--point", "1,0"],
    ["reproduce", "table-1", "--case", "9"],
    ["oracle", "prox", "--family", "l1", "--u", "0.5", "--gamma", "1.0"],
    ["solve", "--problem", "{admm_ok}", "--solver", "admm", "--max-iter", "0"],
    ["solve", "--problem", "{admm_ok}", "--solver", "admm", "--stop-tol", "-1"],
    ["solve", "--problem", "{pdhg}", "--solver", "pdhg", "--max-iter", "0"],
    ["solve", "--problem", "{pdhg}", "--solver", "pdhg", "--stop-tol", "-1"],
])
def test_malformed_user_input_exits_2(tmp_path, capsys, argv):
    files = {"{bad}": write(tmp_path, "p.json", LASSO),
             "{admm}": write(tmp_path, "a.json", {k: v for k, v in ADMM.items()
                                                 if k != "beta"}),
             "{admm_ok}": write(tmp_path, "a_ok.json", ADMM),
             "{pdhg}": write(tmp_path, "d.json", PDHG)}
    notjson = tmp_path / "n.json"
    notjson.write_text("{not json")
    files["{notjson}"] = str(notjson)
    argv = [files.get(a, a) for a in argv] + ["--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "{missing}", "--solver", "pg"],
    ["solve", "--problem", "{missing}", "--solver", "admm"],
    ["diagnose", "--trace", "{missing}", "--problem", "{ok}", "--gamma", "0.5"],
    ["diagnose", "--trace", "{missing}", "--problem", "{missing}", "--gamma", "0.5"],
    ["certify", "--problem", "{ok}", "--point", "{missing}"],
    ["certify", "--problem", "{missing}", "--point", "{missing}"],
    ["oracle", "stationary-set", "--problem", "{missing}", "--box=-6,6"],
])
def test_missing_input_file_exits_2(tmp_path, capsys, argv):
    files = {"{ok}": write(tmp_path, "p.json", LASSO),
             "{missing}": str(tmp_path / "nope.json")}
    argv = [files.get(a, a) for a in argv] + ["--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert "cannot read" in capsys.readouterr().err


def _solved_lasso(tmp_path, capsys):
    """Problem, trace and point files of the README lasso."""
    files = {"{ok}": write(tmp_path, "p.json", LASSO),
             "{trace}": str(tmp_path / "t.csv"),
             "{point}": write(tmp_path, "x.json", {"x": [3.0, 0.0]})}
    assert main(["solve", "--problem", files["{ok}"], "--solver", "pg",
                 "--gamma", "0.5", "--lipschitz", "1", "--max-iter", "60",
                 "--out", files["{trace}"]]) == 0
    capsys.readouterr()
    return files


@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "{ok}", "--solver", "pg", "--gamma", "0.5",
     "--lipschitz", "1", "--out", "{unwritable}"],
    ["solve", "--problem", "{ok}", "--solver", "pg", "--gamma", "0.5",
     "--lipschitz", "1", "--out", "{trace}", "--summary", "{unwritable}"],
    ["diagnose", "--trace", "{trace}", "--problem", "{ok}", "--gamma", "0.5",
     "--probes", "5", "--out", "{unwritable}"],
    ["certify", "--problem", "{ok}", "--point", "{point}", "--out", "{unwritable}"],
])
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    files = _solved_lasso(tmp_path, capsys)
    files["{unwritable}"] = str(tmp_path / "no-such-dir" / "out")
    assert main([files.get(a, a) for a in argv]) == 2
    assert "cannot write" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["certify", "--problem", "{latin}", "--point", "{point}"],
    ["diagnose", "--trace", "{trace}", "--problem", "{latin}", "--gamma", "0.5"],
    ["oracle", "stationary-set", "--problem", "{latin}", "--box=-6,6"],
])
def test_problem_file_not_utf8_exits_2(tmp_path, capsys, argv):
    files = _solved_lasso(tmp_path, capsys)
    latin = tmp_path / "latin.json"
    latin.write_bytes(b"\xff\xfe{")
    files["{latin}"] = str(latin)
    assert main([files.get(a, a) for a in argv] + ["--out", str(tmp_path / "o")]) == 2
    assert "not JSON" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["oracle", "stationary-set", "--problem", "{n3}", "--box=-6,6"],
    ["oracle", "stationary-set", "--problem", "{group}", "--box=-6,6"],
    ["oracle", "stationary-set", "--problem", "{ok}", "--box=1,-1"],
    ["oracle", "stationary-set", "--problem", "{ok}", "--box=-6,6", "--cells", "0"],
    ["oracle", "stationary-set", "--problem", "{ok}", "--box=-6,6", "--cells", "-3"],
    ["oracle", "prox", "--family", "l1", "--lambda", "1", "--u", "0.5", "--gamma", "-1"],
    ["oracle", "prox", "--family", "l1", "--lambda", "1", "--u", "0.5", "--gamma", "1",
     "--grid", "0"],
], ids=["n3", "group-lasso", "empty-box", "cells-0", "cells-negative", "gamma-negative",
        "grid-0"])
def test_unsupported_oracle_input_exits_2(tmp_path, capsys, argv):
    n3 = {"n": 3, "loss": {"family": "quadratic", "Q": np.eye(3).tolist(), "q": [1.0, 0.0, -1.0]},
          "penalty": {"family": "l1", "lambda": 1.0}}
    group = dict(LASSO, penalty={"family": "group-lasso", "groups": [[0, 1]], "weights": [1.0]})
    files = {"{ok}": write(tmp_path, "p.json", LASSO), "{n3}": write(tmp_path, "n3.json", n3),
             "{group}": write(tmp_path, "g.json", group)}
    with np.errstate(all="raise"):   # no division warning on the way to the error
        assert main([files.get(a, a) for a in argv] + ["--out", str(tmp_path / "o")]) == 2
    assert "configuration error: " in capsys.readouterr().err
