"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Expected values marked as derived in the module tests come from
the brute-force oracles; quantities with closed forms are checked exactly.
"""

import math

import numpy as np

import cone_oracle
from calmkit.calmness import check_foscms, check_nnamcq, check_polyhedral
from calmkit.constrained_solvers import (ConvexTerm, LinearlyConstrainedProblem,
                                         SaddleProblem, gpadmm_solve, pdhg_solve)
from calmkit.core import ProblemSpec, SolverConfig
from calmkit.diagnostics import (check_kl_half, check_kl_half_problem,
                                 classify_stationarity,
                                 estimate_error_bound_constant, fit_linear_rate,
                                 predicted_sigma, verify_cost_to_go,
                                 verify_sufficient_descent)
from calmkit.graphs_cones import (ConeUnion2, atom_ray, classify_point,
                                  directional_limiting_normal_cone,
                                  limiting_normal_cone, regular_normal_cone,
                                  tangent_cone)
from calmkit.instances import (example_5_1_cases, group_lasso_noncompact,
                               negabs_battery)
from calmkit.losses import (ExponentialLoss, LogisticLoss, QuadraticLoss,
                            SigmoidNNLoss, StructuredCompositeLoss, operator_norm)
from calmkit.oracle import (brute_force_prox, brute_force_scalar_min,
                            brute_force_stationary_set)
from calmkit.penalties import (BoxIndicator, GroupLasso, L1Penalty, McpPenalty,
                               NegAbsPenalty, ScadPenalty, ZeroPenalty)
from calmkit.solvers import pg_solve


def _report(num, desc, ok):
    print("\nACCEPTANCE %2d %s: %s" % (num, "PASS" if ok else "FAIL", desc))
    assert ok, "criterion %d failed: %s" % (num, desc)


# ---------------------------------------------------------------------------
# shared battery for criteria 1-2

def _random_psd(rng, n, floor=0.1):
    A = rng.normal(size=(n + 2, n))
    return A.T @ A / (n + 2) + floor * np.eye(n)


def _battery_instance(scenario, rng):
    if scenario == "quad-l1":
        n = 6
        loss = QuadraticLoss(_random_psd(rng, n), rng.normal(size=n))
        pen = L1Penalty(float(rng.uniform(0.2, 1.0)))
    elif scenario == "quad-group":
        n = 6
        loss = QuadraticLoss(_random_psd(rng, n), rng.normal(size=n))
        pen = GroupLasso([[0, 1, 2], [3, 4], [5]],
                         rng.uniform(0.2, 1.0, size=3).tolist())
    elif scenario == "logistic-scad":
        n = 5
        C = rng.normal(scale=0.5, size=(12, n))
        d = rng.choice([-1.0, 1.0], size=12)
        loss = LogisticLoss(C, d)
        pen = ScadPenalty(float(rng.uniform(0.1, 0.6)), float(rng.uniform(2.2, 4.0)))
    else:
        n = 5
        C = rng.normal(scale=0.5, size=(12, n))
        d = rng.choice([-1.0, 1.0], size=12)
        loss = LogisticLoss(C, d)
        pen = McpPenalty(float(rng.uniform(0.1, 0.6)), float(rng.uniform(1.5, 3.0)))
    prob = ProblemSpec(n, loss, pen)
    x0 = rng.normal(size=n)
    return prob, x0


_BATTERY_CACHE = {}


def battery_traces():
    if "runs" in _BATTERY_CACHE:
        return _BATTERY_CACHE["runs"]
    rng = np.random.default_rng(2024)
    runs = []
    for scenario in ("quad-l1", "quad-group", "logistic-scad", "logistic-mcp"):
        for _ in range(20):
            prob, x0 = _battery_instance(scenario, rng)
            L = prob.loss.lipschitz_bound().value
            gamma = 0.9 / L
            cfg = SolverConfig(gamma=gamma, max_iter=150, stop_tol=1e-13,
                               lipschitz_L=L)
            tr = pg_solve(prob, cfg, x0)
            runs.append((scenario, prob, gamma, L, tr))
    _BATTERY_CACHE["runs"] = runs
    return runs


def test_acceptance_01_sufficient_descent():
    import time
    t0 = time.time()
    bad = 0
    for _scenario, _prob, gamma, L, tr in battery_traces():
        rep = verify_sufficient_descent(tr, gamma, L)
        bad += len(rep.violations)
    elapsed = time.time() - t0
    _report(1, "sufficient descent with kappa1 = 1/(2 gamma) - L/2 on 80 runs "
               "(violations: %d, %.1f s)" % (bad, elapsed),
            bad == 0 and elapsed < 30.0)


def test_acceptance_02_cost_to_go():
    rng = np.random.default_rng(7)
    bad = 0
    for _scenario, prob, gamma, L, tr in battery_traces():
        probes = tr.final[None, :] + rng.normal(scale=1.0, size=(100, prob.n))
        rep = verify_cost_to_go(prob, tr, gamma, L, probes)
        bad += len(rep.violations)
    _report(2, "cost-to-go with kappa2 = max{1/gamma + (L+1)/2, L/2 + 1/(2 gamma)}, "
               "100 probes per trace (violations: %d)" % bad, bad == 0)


def test_acceptance_03_prox_oracle_equivalence():
    rng = np.random.default_rng(99)
    families = [ZeroPenalty(), L1Penalty(0.8), ScadPenalty(0.9, 3.1),
                McpPenalty(0.7, 2.3), NegAbsPenalty(0.6), BoxIndicator(-1.2, 1.7)]
    ok = True
    for g in families:
        lam = getattr(g, "lam", 1.0)
        a = getattr(g, "a", 3.0)
        for _ in range(1000):
            u = float(rng.uniform(-6.0, 6.0))
            gam = float(rng.uniform(0.05, 2.5))
            window = 1.0 + gam * lam * a + 0.3 * abs(u)
            if g.family == "box-indicator":
                window = max(window, abs(u) + 3.0)
            pts = g.prox_scalar(u, gam)
            oracle = brute_force_prox(g, u, gam, window=window, grid=2e-4,
                                      refine_tol=1e-8)
            if len(pts) != len(oracle) or any(
                    abs(t - o) > 1e-4 for t, o in zip(sorted(pts), sorted(oracle))):
                ok = False
    # group lasso blockwise formula vs the radial scalar reduction
    gl = GroupLasso([[0, 1]], [0.8])
    for _ in range(1000):
        u = rng.uniform(-4.0, 4.0, size=2)
        gam = float(rng.uniform(0.05, 2.5))
        x = gl.prox_vector(u, gam)
        nu = float(np.linalg.norm(u))
        rad, _, _ = brute_force_scalar_min(
            lambda r: 0.8 * r + (r - nu) ** 2 / (2 * gam), 0.0, nu + 1.0, 2e-4,
            fn_scalar=lambda r: 0.8 * r + (r - nu) ** 2 / (2 * gam),
            refine_tol=1e-8)
        r_star = max(rad, key=lambda r: -abs(r))  # unique minimizer
        want = (r_star / nu) * u if nu > 0 else u * 0.0
        if np.linalg.norm(x - want) > 1e-4:
            ok = False
    # negabs at u = 0 returns exactly the pair (-gamma lam, +gamma lam)
    for gam in (0.3, 1.0, 2.0):
        pts = NegAbsPenalty(0.6).prox_scalar(0.0, gam)
        if len(pts) != 2 or abs(pts[0] + gam * 0.6) > 1e-12 \
                or abs(pts[1] - gam * 0.6) > 1e-12:
            ok = False
    _report(3, "prox sets match the dense-grid oracle within 1e-4 "
               "(1000 samples per family); negabs tie pair exact", ok)


def test_acceptance_04_headline_stationarity():
    rng = np.random.default_rng(5)
    ok = True
    for prob, box, lam, c in negabs_battery(10):
        Sp = brute_force_stationary_set(prob, box, cells=240)
        Sl = brute_force_stationary_set(prob, box, cells=240, limiting=True)
        if Sl.points.shape[0] <= Sp.points.shape[0]:
            ok = False  # battery must realize X^L strictly larger than X^pi
        cfg = SolverConfig(gamma=0.9, max_iter=400, stop_tol=1e-12, lipschitz_L=1.0)
        for _ in range(100):
            x0 = rng.uniform(box[0], box[1])
            tr = pg_solve(prob, cfg, x0)
            if classify_stationarity(prob, tr.final, 1e-7) != "proximal":
                ok = False
    _report(4, "all PG accumulation points on the downward-kink battery are "
               "proximal-stationary (10 instances x 100 starts)", ok)


def test_acceptance_05_group_lasso_linear_rate_noncompact():
    prob, sol = group_lasso_noncompact()
    L = prob.loss.lipschitz_bound().value
    cfg = SolverConfig(gamma=0.02, max_iter=700, stop_tol=0.0, lipschitz_L=L)
    x0 = np.array([6.0, 4.0, -2.0])
    tr = pg_solve(prob, cfg, x0)
    base = sol["solution_base"].copy()
    base[2] = x0[2]  # nearest point on the unbounded solution line
    F_star = prob.objective(base)
    fit = fit_linear_rate(tr, F_star, base, burn_in=60, tail=200)
    ok = fit.sigma_hat < 1.0 and fit.r_squared > 0.99 and 0 < fit.rho_hat < 1.0
    _report(5, "group-LASSO with rank-deficient design (non-compact optima): "
               "sigma_hat=%.4f r2=%.5f rho_hat=%.4f" %
            (fit.sigma_hat, fit.r_squared, fit.rho_hat), ok)


def test_acceptance_06_rate_formula_consistency():
    rng = np.random.default_rng(31)
    ok = True
    for _ in range(5):
        Q = _random_psd(rng, 2, floor=0.3)
        prob = ProblemSpec(2, QuadraticLoss(Q, rng.normal(size=2)), L1Penalty(0.5))
        if check_polyhedral(prob).verdict != "holds":
            ok = False
        L = prob.loss.lipschitz_bound().value
        gamma = 0.15 / L   # slow enough to leave a usable fitting window
        cfg = SolverConfig(gamma=gamma, max_iter=600, stop_tol=0.0, lipschitz_L=L)
        tr = pg_solve(prob, cfg, rng.normal(size=2))
        S = brute_force_stationary_set(prob, (np.full(2, -9.0), np.full(2, 9.0)),
                                       cells=250)
        est = estimate_error_bound_constant(tr, S, window=np.inf)
        x_bar = S.points[int(np.argmin(np.linalg.norm(S.points - tr.final, axis=1)))]
        fit = fit_linear_rate(tr, prob.objective(x_bar), x_bar, gamma=gamma, L=L,
                              kappa_hat=est.kappa_hat)
        if not (fit.sigma_hat <= predicted_sigma(gamma, L, est.kappa_hat) + 0.05):
            ok = False
    _report(6, "fitted sigma below the predicted "
               "1/(1 + kappa1/(kappa2 (kappa^2+1))) + 0.05 on certified-calm "
               "convex instances", ok)


def test_acceptance_07_example_reproduction():
    ok = True
    cases = {c.name: c for c in example_5_1_cases()}
    rep_i = check_foscms(cases["case-i"].prob, cases["case-i"].z_bar)
    ok &= rep_i.condition == "isolated-calmness" and rep_i.verdict == "holds"
    rep_ii = check_foscms(cases["case-ii"].prob, cases["case-ii"].z_bar)
    ok &= rep_ii.verdict == "holds"
    deg = cases["case-ii-degenerate"]
    rep_deg = check_foscms(deg.prob, deg.z_bar)
    ok &= rep_deg.verdict == "inconclusive" and bool(rep_deg.witnesses)
    w, xi, eta = (np.asarray(v) for v in rep_deg.witnesses[0])
    H = deg.prob.loss.hessian(deg.z_bar)
    ok &= float(np.linalg.norm(xi - H @ eta)) <= 1e-9
    rep_iii = check_nnamcq(cases["case-iii"].prob, cases["case-iii"].z_bar)
    ok &= rep_iii.verdict == "holds"

    # displayed cones, checked exactly against the graph calculus
    lam, a = 1.0, 3.0
    G = ScadPenalty(lam, a).graph()
    ok &= directional_limiting_normal_cone(G, (0.0, -lam), (0.0, 1.0)).equals(
        ConeUnion2.line((1.0, 0.0)))                                # R x {0}
    zmid = 2.0
    slant_pt = (zmid, (a * lam - zmid) / (a - 1.0))
    ok &= directional_limiting_normal_cone(G, slant_pt, (1.0, 1.0 / (1.0 - a))).equals(
        ConeUnion2.line((1.0, a - 1.0)))                            # u(1, a-1)
    ok &= limiting_normal_cone(G, (0.0, 0.4 * lam)).equals(
        ConeUnion2.line((1.0, 0.0)))                                # R x {0}
    ok &= limiting_normal_cone(G, (0.5 * lam, lam)).equals(
        ConeUnion2.line((0.0, 1.0)))                                # {0} x R
    # the kink tangent cone follows the drawn graph geometry; the stated
    # reflection is documented in the reproduce report
    kink = tangent_cone(G, (0.0, lam))
    ok &= kink.equals(ConeUnion2.from_atoms([atom_ray((1.0, 0.0)), atom_ray((0.0, -1.0))]))
    reflected = ConeUnion2.from_atoms([atom_ray((-1.0, 0.0)), atom_ray((0.0, 1.0))])
    ok &= not kink.equals(reflected)
    from calmkit.cli import main as cli_main
    import io
    import contextlib
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli_main(["reproduce", "example-5-1"])
    ok &= rc == 0 and "reflection" in buf.getvalue()
    _report(7, "worked two-dimensional cases: isolated calmness / FOSCMS / "
               "degenerate multiplier / NNAMCQ verdicts and displayed cones", ok)


def test_acceptance_08_kl_exponent_check():
    prob = ProblemSpec(2, QuadraticLoss(np.eye(2), np.array([-4.0, 0.0])),
                       L1Penalty(1.0))
    x_bar = np.array([3.0, 0.0])
    kmins = [check_kl_half_problem(prob, x_bar, eps, 2000, seed=3).kappa_min
             for eps in (1e-1, 1e-2, 1e-3)]
    stable = all(np.isfinite(k) and k > 0 for k in kmins) \
        and kmins[1] <= kmins[0] * 1.05 and kmins[2] <= kmins[1] * 1.05
    quart = [check_kl_half(lambda x: float(x[0]) ** 4,
                           lambda x: 4.0 * abs(float(x[0])) ** 3,
                           np.zeros(1), eps, 400, seed=2, gap_floor=0.0).kappa_min
             for eps in (1e-1, 1e-2, 1e-3)]
    diverges = quart[1] >= 10.0 * quart[0] * 0.999 and \
        quart[2] >= 10.0 * quart[1] * 0.999
    _report(8, "KL-1/2: lasso kappa stable over eps decades %s; quartic "
               "control grows >= 10x per decade %s" %
            (np.round(kmins, 4).tolist(), np.round(quart, 2).tolist()),
            stable and diverges)


def test_acceptance_09_admm_perturbation_identity():
    ok = True
    qp = LinearlyConstrainedProblem(
        ConvexTerm(1, quadratic=(np.eye(1), np.zeros(1))),
        ConvexTerm(1, quadratic=(np.eye(1), np.zeros(1))),
        [[1.0]], [[1.0]], [1.0])
    cfg = SolverConfig(gamma=1.0, max_iter=200, stop_tol=0.0,
                       lipschitz_L=1.0, theory_mode=False)
    tr = gpadmm_solve(qp, 1.0, None, None, cfg,
                      (np.array([2.0]), np.array([-1.0]), np.array([0.5])))
    ok &= max(tr.inclusion_residuals) <= 1e-8
    ok &= all(float(np.linalg.norm(m[1])) == 0.0 for m in tr.mapped[1:])
    x, y, lam_v = tr.final
    ok &= abs(x[0] - 0.5) < 1e-8 and abs(y[0] - 0.5) < 1e-8 and abs(lam_v[0] - 0.5) < 1e-8

    A = np.array([[1.0, 0.4], [0.2, 1.1], [-0.3, 0.5]])
    c = np.array([1.0, -0.5, 0.8])
    beta = 1.0
    tau = beta * operator_norm(A) ** 2 * 1.05
    lasso = LinearlyConstrainedProblem(
        ConvexTerm(2, penalty=L1Penalty(0.4)),
        ConvexTerm(3, quadratic=(np.eye(3), -c)),
        A, -np.eye(3), np.zeros(3))
    cfg2 = SolverConfig(gamma=1.0, max_iter=3000, stop_tol=1e-13,
                        lipschitz_L=1.0, theory_mode=False)
    tr2 = gpadmm_solve(lasso, beta, tau * np.eye(2) - beta * A.T @ A, None, cfg2,
                       (np.zeros(2), np.zeros(3), np.zeros(3)))
    ok &= max(tr2.inclusion_residuals) <= 1e-8
    ok &= all(float(np.linalg.norm(m[1])) == 0.0 for m in tr2.mapped[1:])
    _report(9, "H p^k stays in the KKT map to 1e-8 on the QP and the "
               "linearized-ADMM instance; D2 = 0 rows carry zero perturbation",
            ok)


def test_acceptance_10_pdhg_saddle():
    P = np.array([[1.0, 0.2], [0.2, 0.8]])
    R = np.array([[1.1, -0.1], [-0.1, 0.9]])
    K = np.array([[1.0, 0.3], [-0.2, 0.8]])
    p = np.array([0.4, -0.3])
    r = np.array([-0.2, 0.5])
    # saddle: P x + p + K^T y = 0, R y + r - K x = 0
    M = np.block([[P, K.T], [-K, R]])
    sol = np.linalg.solve(M, -np.concatenate([p, r]))
    x_star, y_star = sol[:2], sol[2:]
    nk = operator_norm(K)
    tau = sigma = math.sqrt(0.9) / nk
    sp = SaddleProblem(ConvexTerm(2, quadratic=(P, p)),
                       ConvexTerm(2, quadratic=(R, r)), K)
    cfg = SolverConfig(gamma=1.0, max_iter=2000, stop_tol=0.0,
                       lipschitz_L=1.0, theory_mode=False)
    tr = pdhg_solve(sp, tau, sigma, cfg, (np.zeros(2), np.zeros(2)))
    x, y = tr.final
    err = max(float(np.linalg.norm(x - x_star)), float(np.linalg.norm(y - y_star)))
    ok = err <= 1e-8 and max(tr.inclusion_residuals) <= 1e-8
    _report(10, "PDHG at tau*sigma*||K||^2 = 0.9 reaches the analytic saddle "
                "point to 1e-8 within 2000 iterations (err=%.2e)" % err, ok)


def test_acceptance_11_cone_oracle_equivalence():
    ok = True
    graphs = [ScadPenalty(1.0, 3.0).graph(), McpPenalty(1.0, 2.0).graph(),
              L1Penalty(1.0).graph()]
    for G in graphs:
        for v in G.vertices():
            tan = tangent_cone(G, v)
            reg = regular_normal_cone(G, v)
            lim = limiting_normal_cone(G, v)
            ok &= cone_oracle.arcs_match(cone_oracle.tangent_arcs(G, v), tan)
            ok &= cone_oracle.arcs_match(cone_oracle.regular_arcs(G, v), reg)
            ok &= cone_oracle.arcs_match(cone_oracle.limiting_arcs(G, v), lim)
            cl = classify_point(G, v)
            dirs = list(cl.out_directions) + [(0.0, 0.0)]
            for d in dirs:
                dc = directional_limiting_normal_cone(G, v, d)
                ok &= cone_oracle.arcs_match(cone_oracle.directional_arcs(G, v, d), dc)
                # containment chain (see notes: regular is compared inside
                # the limiting cone; each directional cone sits inside it,
                # with d = 0 recovering it exactly)
                ok &= dc.subset_of(lim, tol=1e-9)
            ok &= reg.subset_of(lim, tol=1e-9)
            ok &= directional_limiting_normal_cone(G, v, (0.0, 0.0)).equals(lim)
    _report(11, "tangent/regular/limiting/directional cones match the "
                "sampling oracle at every breakpoint (tol 1e-6); containment "
                "chain holds", ok)


def test_acceptance_12_gradient_checks():
    rng = np.random.default_rng(77)
    fams = [
        QuadraticLoss(_random_psd(rng, 4), rng.normal(size=4)),
        StructuredCompositeLoss(rng.normal(size=(5, 4)), rng.normal(size=4),
                                np.diag(rng.uniform(0.5, 2.0, size=5)),
                                rng.normal(size=5)),
        LogisticLoss(rng.normal(scale=0.5, size=(8, 4)),
                     rng.choice([-1.0, 1.0], size=8)),
        ExponentialLoss(rng.normal(scale=0.4, size=(8, 4)),
                        rng.choice([-1.0, 1.0], size=8)),
        SigmoidNNLoss(2, rng.normal(size=(6, 3)), rng.uniform(0, 1, size=6)),
    ]
    ok = True
    for loss in fams:
        for _ in range(100):
            x = rng.normal(scale=0.7, size=loss.n)
            g = loss.gradient(x)
            fd = np.zeros_like(x)
            h = 1e-6
            for i in range(x.size):
                e = np.zeros_like(x)
                e[i] = h
                fd[i] = (loss.value(x + e) - loss.value(x - e)) / (2 * h)
            if np.max(np.abs(g - fd)) > 1e-6 * (1.0 + np.max(np.abs(g))):
                ok = False
            if loss.twice_differentiable:
                H = loss.hessian(x)
                hh = 1e-5
                for i in range(x.size):
                    e = np.zeros_like(x)
                    e[i] = hh
                    col = (loss.gradient(x + e) - loss.gradient(x - e)) / (2 * hh)
                    if np.max(np.abs(H[:, i] - col)) > 1e-4:
                        ok = False
    _report(12, "all loss families pass finite-difference gradient (1e-6) and "
                "Hessian (1e-4) checks at 100 random points", ok)
