"""Command-line surface: solve, diagnose, certify, reproduce, oracle.

Exit codes: 0 ok, 1 internal error (with a traceback), 2 configuration
error, 3 numeric abort, 4 infeasible certificate input.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

import numpy as np

from . import calmness, diagnostics, instances
from .calmness import CertificateError
from .constrained_solvers import (LinearlyConstrainedProblem, SaddleProblem,
                                  gpadmm_solve, pdhg_solve, term_from_json)
from .core import (ConfigError, IterateTrace, NumericAbort, SolverConfig,
                   load_problem, problem_from_json)
from .graphs_cones import (GraphPointError, directional_limiting_normal_cone,
                           limiting_normal_cone, tangent_cone)
from .losses import Box, LossError
from .oracle import OracleError, brute_force_prox, brute_force_stationary_set
from .penalties import PenaltyError, penalty_from_json
from .solvers import pg_solve, ppa_solve

CONFIG_ERRORS = (ConfigError, PenaltyError, LossError, GraphPointError)


@contextlib.contextmanager
def _user_input(what):
    """Report unreadable or malformed user input as a ConfigError."""
    try:
        yield
    except CONFIG_ERRORS:
        raise
    except OSError as exc:
        raise ConfigError("cannot read %s: %s" % (what, exc)) from exc
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError("malformed %s: %s" % (what, exc)) from exc


def _parse_vector(text, n=None):
    with _user_input("vector %r" % text):
        v = np.array([float(t) for t in text.split(",")])
    if n is not None and v.size != n:
        raise ConfigError("expected %d components, got %d" % (n, v.size))
    return v


@contextlib.contextmanager
def _user_output(path):
    """Report an unwritable output path as a ConfigError."""
    try:
        yield
    except OSError as exc:
        raise ConfigError("cannot write %s: %s" % (path, exc)) from exc


def _emit(obj, path=None):
    text = json.dumps(obj, indent=2, default=str)
    if path:
        with _user_output(path), open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _solver_config(args, L=None, box=None):
    return SolverConfig(gamma=args.gamma, max_iter=args.max_iter,
                        stop_tol=args.stop_tol, lipschitz_L=L or 0.0,
                        theory_mode=not args.permissive,
                        lipschitz_box=box)


def _lipschitz(prob, args):
    box = None
    if args.box:
        lo, hi = _parse_vector(args.box, 2)
        box = Box.cube(prob.n, lo, hi)
    if args.lipschitz is not None:
        return args.lipschitz, box
    lb = prob.loss.lipschitz_bound(box)
    return lb.value, box


def cmd_solve(args) -> int:
    with _user_input("problem file %s" % args.problem), open(args.problem) as fh:
        raw = json.load(fh)
    if args.solver in ("pg", "ppa"):
        prob = problem_from_json(raw)
        L, box = _lipschitz(prob, args)
        cfg = _solver_config(args, L, box)
        x0 = _parse_vector(args.x0, prob.n) if args.x0 else np.zeros(prob.n)
        solver = pg_solve if args.solver == "pg" else ppa_solve
        tr = solver(prob, cfg, x0)
        summary = {"solver": args.solver, "iterations": len(tr) - 1,
                   "final_F": tr.objectives[-1], "final_residual": tr.residuals[-1],
                   "final_pnorm": float(tr.pnorms()[-1]), "L": L}
    elif args.solver == "admm":
        with _user_input("problem file %s" % args.problem):
            n1 = len(raw["A"][0])
            n2 = len(raw["B"][0])
            lcp = LinearlyConstrainedProblem(
                term_from_json(raw["theta1"], n1), term_from_json(raw["theta2"], n2),
                raw["A"], raw["B"], raw["b"])
            beta = float(raw["beta"])
            D1, D2 = (None if raw.get(k) is None else np.asarray(raw[k], dtype=float)
                      for k in ("D1", "D2"))
        cfg = _solver_config(args)
        m = len(raw["b"])
        start = (np.zeros(n1), np.zeros(n2), np.zeros(m))
        if args.x0:
            v = _parse_vector(args.x0, n1 + n2 + m)
            start = (v[:n1], v[n1:n1 + n2], v[n1 + n2:])
        tr = gpadmm_solve(lcp, beta, D1, D2, cfg, start)
        summary = {"solver": "admm", "iterations": len(tr) - 1,
                   "final_pnorm": float(tr.pnorms()[-1]),
                   "max_inclusion_residual": max(tr.inclusion_residuals[1:], default=0.0)}
    elif args.solver == "pdhg":
        with _user_input("problem file %s" % args.problem):
            n = len(raw["K"][0])
            m = len(raw["K"])
            sp = SaddleProblem(term_from_json(raw["phi1"], n),
                               term_from_json(raw["phi2"], m), raw["K"])
            tau, sigma = float(raw["tau"]), float(raw["sigma"])
        cfg = _solver_config(args)
        start = (np.zeros(n), np.zeros(m))
        if args.x0:
            v = _parse_vector(args.x0, n + m)
            start = (v[:n], v[n:])
        tr = pdhg_solve(sp, tau, sigma, cfg, start)
        summary = {"solver": "pdhg", "iterations": len(tr) - 1,
                   "final_pnorm": float(tr.pnorms()[-1]),
                   "max_inclusion_residual": max(tr.inclusion_residuals[1:], default=0.0)}
    else:
        raise ConfigError("unknown solver %r" % args.solver)
    with _user_output(args.out):
        tr.write_csv(args.out)
    _emit(summary, args.summary)
    return 0


def cmd_diagnose(args) -> int:
    prob = load_problem(args.problem)
    with _user_input("trace file %s" % args.trace):
        trace = IterateTrace.read_csv(args.trace)
    L, _ = _lipschitz(prob, args)
    gamma = args.gamma
    rng = np.random.default_rng(args.seed)
    report = {"gamma": gamma, "L": L,
              "kappa1": diagnostics.kappa1(gamma, L),
              "kappa2": diagnostics.kappa2(gamma, L)}
    report["sufficient_descent"] = diagnostics.verify_sufficient_descent(
        trace, gamma, L).to_json()
    probes = [trace.final + rng.normal(scale=0.5, size=prob.n)
              for _ in range(args.probes)]
    report["cost_to_go"] = diagnostics.verify_cost_to_go(
        prob, trace, gamma, L, probes).to_json()
    report["classification"] = diagnostics.classify_stationarity(
        prob, trace.final, 1e-6)
    if args.oracle_box and prob.n <= 2 and prob.penalty.separable:
        lo, hi = _parse_vector(args.oracle_box, 2)
        S = brute_force_stationary_set(prob, (np.full(prob.n, lo), np.full(prob.n, hi)))
        if S.is_empty:
            raise ConfigError("no stationary point in --oracle-box %s" % args.oracle_box)
        est = diagnostics.estimate_error_bound_constant(trace, S, window=np.inf)
        report["kappa_hat"] = est.to_json()
        j = int(np.argmin(np.linalg.norm(S.points - trace.final[None, :], axis=1)))
        x_bar = S.points[j]
        F_star = prob.objective(x_bar)
        prediction = {"gamma": gamma, "L": L, "kappa_hat": est.kappa_hat}
    else:
        report["kappa_hat"] = {"skipped": "needs --oracle-box, n <= 2 and a separable penalty"}
        x_bar, F_star, prediction = trace.final, trace.objectives[-1], {}
    try:
        report["rate_fit"] = diagnostics.fit_linear_rate(
            trace, F_star, x_bar, **prediction).to_json()
    except ValueError as exc:
        report["rate_fit"] = {"skipped": str(exc)}
    _emit(report, args.out)
    return 0


def cmd_certify(args) -> int:
    prob = load_problem(args.problem)
    with _user_input("point file %s" % args.point), open(args.point) as fh:
        data = json.load(fh)
        x = np.array(data["x"] if isinstance(data, dict) else data, dtype=float)
    reports = []
    for cond in args.conditions.split(","):
        cond = cond.strip().lower()
        if cond == "nnamcq":
            reports.append(calmness.check_nnamcq(prob, x, args.tol).to_json())
        elif cond == "foscms":
            reports.append(calmness.check_foscms(prob, x, args.tol).to_json())
        elif cond == "polyhedral":
            reports.append(calmness.check_polyhedral(prob).to_json())
        else:
            raise ConfigError("unknown condition %r" % cond)
    _emit(reports, args.out)
    return 0


def cmd_reproduce(args) -> int:
    if args.what == "example-5-1":
        out = {"cases": [], "notes": []}
        for case in instances.example_5_1_cases():
            rep_f = calmness.check_foscms(case.prob, case.z_bar)
            rep_n = calmness.check_nnamcq(case.prob, case.z_bar)
            if case.expected == "NNAMCQ-holds":
                matches = rep_n.verdict == "holds"
            elif case.expected == "inconclusive":
                matches = rep_f.verdict == "inconclusive"
            else:
                matches = rep_f.verdict == "holds"
            out["cases"].append({
                "name": case.name, "params": case.params,
                "z_bar": case.z_bar.tolist(),
                "nnamcq": rep_n.to_json(), "foscms": rep_f.to_json(),
                "stated_conclusion": case.expected, "matches": bool(matches)})
        lam, a = 1.0, 3.0
        from .penalties import ScadPenalty
        G = ScadPenalty(lam, a).graph()
        zmid = 0.5 * (lam + a * lam)
        slant = (1.0, 1.0 / (1.0 - a))
        out["cones"] = {
            "directional_at_lower_kink_up": directional_limiting_normal_cone(
                G, (0.0, -lam), (0.0, 1.0)).to_json(),
            "directional_on_slant": directional_limiting_normal_cone(
                G, (zmid, (a * lam - zmid) / (a - 1.0)), slant).to_json(),
            "limiting_interior_vertical": limiting_normal_cone(
                G, (0.0, 0.3 * lam)).to_json(),
            "limiting_interior_flat": limiting_normal_cone(G, (0.5 * lam, lam)).to_json(),
            "tangent_at_upper_kink": tangent_cone(G, (0.0, lam)).to_json(),
        }
        out["notes"].append(
            "The upper-kink tangent cone follows the drawn graph geometry "
            "(rays (1,0) and (0,-1)); the text of the two-dimensional example "
            "states its reflection (rays (-1,0) and (0,1)). Both orientations "
            "give the same isolated-calmness conclusion, re-derived here from "
            "the graph.")
        _emit(out, args.out)
        return 0
    if args.what == "table-1":
        if args.case not in instances.SCENARIOS:
            raise ConfigError("table-1 needs --case {5,6,7,8}")
        prob, box, x0 = instances.scenario_instance(args.case, seed=args.seed)
        L = prob.loss.lipschitz_bound(box).value
        gamma = 0.9 / L
        cfg = SolverConfig(gamma=gamma, max_iter=args.max_iter, stop_tol=1e-12,
                           lipschitz_L=L, lipschitz_box=box)
        tr = pg_solve(prob, cfg, x0)
        # pg_solve stops early exactly when its last step met stop_tol
        converged = len(tr) > 1 and float(np.linalg.norm(tr.perturbations[-1])) <= cfg.stop_tol
        rep = {"case": args.case, "L": L, "L_scope": "box" if box else "global",
               "gamma": gamma, "iterations": len(tr) - 1, "converged": converged,
               "final_F": tr.objectives[-1],
               "final_residual": tr.residuals[-1],
               "classification": diagnostics.classify_stationarity(prob, tr.final, 1e-6),
               "sufficient_descent": diagnostics.verify_sufficient_descent(
                   tr, gamma, L).to_json()}
        if not converged:
            rep["rate_fit"] = {"skipped": "PG reached --max-iter %d before a step of at "
                                          "most %g; no rate is fitted to the transient"
                                          % (args.max_iter, cfg.stop_tol)}
        else:
            try:
                fit = diagnostics.fit_linear_rate(tr, tr.objectives[-1], tr.final)
                rep["rate_fit"] = fit.to_json()
            except ValueError as exc:
                rep["rate_fit"] = {"skipped": str(exc)}
        _emit(rep, args.out)
        return 0
    raise ConfigError("unknown reproduce target %r" % args.what)


def cmd_explain(args) -> int:
    """Dump the cone calculus at one point of a penalty's subdifferential graph."""
    with _user_input("--penalty"):
        g = penalty_from_json(json.loads(args.penalty))
    G = g.graph()
    p = tuple(_parse_vector(args.point, 2))
    from .graphs_cones import classify_point, regular_normal_cone
    cl = classify_point(G, p)
    out = {"classification": cl.to_json(),
           "tangent": tangent_cone(G, p).to_json(),
           "regular_normal": regular_normal_cone(G, p).to_json(),
           "limiting_normal": limiting_normal_cone(G, p).to_json()}
    if args.direction:
        d = tuple(_parse_vector(args.direction, 2))
        out["directional_normal"] = directional_limiting_normal_cone(G, p, d).to_json()
        out["direction"] = list(d)
    _emit(out, args.out)
    return 0


def cmd_oracle(args) -> int:
    if args.oracle_cmd == "prox":
        spec = {"family": args.family}
        if args.lam is not None:
            spec["lambda"] = args.lam
        if args.a is not None:
            spec["a"] = args.a
        if args.family == "box-indicator":
            spec["lower"], spec["upper"] = args.lower, args.upper
        with _user_input("penalty options"):
            g = penalty_from_json(spec)
        pts = brute_force_prox(g, args.u, args.gamma, window=args.window,
                               grid=args.grid)
        _emit({"minimizers": pts}, args.out)
        return 0
    if args.oracle_cmd == "stationary-set":
        prob = load_problem(args.problem)
        lo, hi = _parse_vector(args.box, 2)
        S = brute_force_stationary_set(
            prob, (np.full(prob.n, lo), np.full(prob.n, hi)),
            cells=args.cells, limiting=args.limiting)
        _emit({"points": S.points.tolist(), "radius": S.radius,
               "method": S.method, "warnings": S.warnings}, args.out)
        return 0
    raise ConfigError("unknown oracle subcommand")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="calmkit",
                                 description="first-order solvers with "
                                 "perturbation-based convergence diagnostics")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("solve", help="run a solver and write a trace")
    sp.add_argument("--problem", required=True)
    sp.add_argument("--solver", required=True, choices=("pg", "ppa", "admm", "pdhg"))
    sp.add_argument("--gamma", type=float, default=0.1)
    sp.add_argument("--max-iter", type=int, default=1000)
    sp.add_argument("--stop-tol", type=float, default=1e-10)
    sp.add_argument("--x0", default=None, help="comma-separated start point")
    sp.add_argument("--lipschitz", type=float, default=None)
    sp.add_argument("--box", default=None, help="lo,hi cube for box-scoped L")
    sp.add_argument("--permissive", action="store_true",
                    help="disable the theory checks: gamma < 1/L (pg, ppa) "
                    "and tau*sigma*||K||^2 < 1 (pdhg)")
    sp.add_argument("--out", required=True)
    sp.add_argument("--summary", default=None)
    sp.set_defaults(fn=cmd_solve)

    dp = sub.add_parser("diagnose", help="verify inequalities along a trace")
    dp.add_argument("--trace", required=True)
    dp.add_argument("--problem", required=True)
    dp.add_argument("--gamma", type=float, required=True)
    dp.add_argument("--lipschitz", type=float, default=None)
    dp.add_argument("--box", default=None)
    dp.add_argument("--oracle-box", default=None, help="lo,hi box for the stationary-set oracle")
    dp.add_argument("--probes", type=int, default=100)
    dp.add_argument("--seed", type=int, default=0)
    dp.add_argument("--out", default=None)
    dp.set_defaults(fn=cmd_diagnose)

    cp = sub.add_parser("certify", help="point-based calmness certificates")
    cp.add_argument("--problem", required=True)
    cp.add_argument("--point", required=True, help="JSON file with the point")
    cp.add_argument("--conditions", default="nnamcq,foscms,polyhedral")
    cp.add_argument("--tol", type=float, default=1e-8)
    cp.add_argument("--out", default=None)
    cp.set_defaults(fn=cmd_certify)

    rp = sub.add_parser("reproduce", help="rebuild the worked examples")
    rp.add_argument("what", choices=("example-5-1", "table-1"))
    rp.add_argument("--case", type=int, default=None)
    rp.add_argument("--seed", type=int, default=0)
    rp.add_argument("--max-iter", type=int, default=2000)
    rp.add_argument("--out", default=None)
    rp.set_defaults(fn=cmd_reproduce)

    ep = sub.add_parser("explain", help="cone calculus at a graph point")
    ep.add_argument("--penalty", required=True, help="penalty JSON descriptor")
    ep.add_argument("--point", required=True, help="graph point, e.g. '0,1'")
    ep.add_argument("--direction", default=None)
    ep.add_argument("--out", default=None)
    ep.set_defaults(fn=cmd_explain)

    op = sub.add_parser("oracle", help="brute-force ground-truth queries")
    osub = op.add_subparsers(dest="oracle_cmd", required=True)
    opx = osub.add_parser("prox")
    opx.add_argument("--family", required=True)
    opx.add_argument("--lambda", dest="lam", type=float, default=None)
    opx.add_argument("--a", type=float, default=None)
    opx.add_argument("--lower", type=float, default=None)
    opx.add_argument("--upper", type=float, default=None)
    opx.add_argument("--u", type=float, required=True)
    opx.add_argument("--gamma", type=float, required=True)
    opx.add_argument("--window", type=float, default=None)
    opx.add_argument("--grid", type=float, default=1e-5)
    opx.add_argument("--out", default=None)
    opx.set_defaults(fn=cmd_oracle)
    ost = osub.add_parser("stationary-set")
    ost.add_argument("--problem", required=True)
    ost.add_argument("--box", required=True)
    ost.add_argument("--cells", type=int, default=400)
    ost.add_argument("--limiting", action="store_true")
    ost.add_argument("--out", default=None)
    ost.set_defaults(fn=cmd_oracle)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except CertificateError as exc:
        print("certificate error: %s" % exc, file=sys.stderr)
        return 4
    except NumericAbort as exc:
        print("numeric abort: %s" % exc, file=sys.stderr)
        return 3
    except OracleError as exc:
        print("oracle error: %s" % exc, file=sys.stderr)
        return 3
    except CONFIG_ERRORS as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
