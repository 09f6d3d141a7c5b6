"""The four benchmark workloads: seeded inputs, operations and output checks.

Each builder takes (seed, size, workdir) and returns a Workload.  Set-up work
(inputs, problem files, the Lipschitz bounds the operations need) happens in
the builder; every operation is a closure that calls calmkit and returns its
outputs, and every check recomputes what it can without the code under test.

Known defects are not timed: each has a probe that runs once per run after
the timed loop.  A probe is a hit when it shows exactly the known defect,
clear when the output is correct, and failed on any other outcome.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.spatial import ConvexHull

import calmkit
from calmkit import calmness, cli, diagnostics, instances, oracle, solvers
from calmkit.core import ProblemSpec, SolverConfig

FULL = "full"
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "certify_reference.json")


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]   # None when the output is correct


@dataclass
class Probe:
    """One run of a known defect's reproduction.

    run() returns ("hit" | "clear" | "failed", detail): the defect showed,
    the output was correct, or something other than the defect went wrong.
    """
    defect: str
    run: Callable[[], tuple]


@dataclass
class Workload:
    name: str
    ops: list
    warm_up: list                 # ops run once before timing
    probes: list = field(default_factory=list)
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# shared input generators

def dense_quadratic(rng, n):
    """Q = A^T A / (2n) + 0.5 I with A Gaussian 2n x n, and q Gaussian."""
    A = rng.standard_normal((2 * n, n))
    Q = A.T @ A / (2 * n) + 0.5 * np.eye(n)
    return 0.5 * (Q + Q.T), rng.standard_normal(n)


FAMILIES = (
    ("l1", {"family": "l1", "lambda": 0.2}),
    ("scad", {"family": "scad", "lambda": 0.2, "a": 3.7}),
    ("mcp", {"family": "mcp", "lambda": 0.2, "a": 2.5}),
    ("negabs", {"family": "negabs", "lambda": 0.05}),
)


def _outside(points, lo, hi, slack=1e-9):
    """Number of rows of points that leave the box [lo, hi]."""
    P = np.asarray(points, dtype=float).reshape(-1, len(lo))
    bad = np.any((P < np.asarray(lo) - slack) | (P > np.asarray(hi) + slack), axis=1)
    return int(np.count_nonzero(bad))


# ---------------------------------------------------------------------------
# pg-n1000: proximal gradient plus in-process diagnostics at n = 1000

def pg_n1000(seed, size, workdir):
    n = 1000 if size == FULL else 100
    rng = np.random.default_rng(seed)
    Q, q = dense_quadratic(rng, n)
    loss = calmkit.QuadraticLoss(Q, q)
    L = loss.lipschitz_bound().value
    L_exact = float(np.linalg.eigvalsh(Q)[-1])   # the checks' own constant
    gamma = 0.9 / L
    probes = [rng.standard_normal(n) for _ in range(100)]
    max_iter = 5000

    def make(spec, iters):
        prob = ProblemSpec(n, loss, calmkit.penalty_from_json(spec))
        cfg = SolverConfig(gamma=gamma, max_iter=iters, stop_tol=1e-10, lipschitz_L=L)

        def run():
            tr = solvers.pg_solve(prob, cfg, np.zeros(n))
            descent = diagnostics.verify_sufficient_descent(tr, gamma, L)
            ctg = diagnostics.verify_cost_to_go(prob, tr, gamma, L, probes)
            cls = diagnostics.classify_stationarity(prob, tr.final, 1e-6)
            try:
                rate = diagnostics.fit_linear_rate(tr, tr.objectives[-1], tr.final)
            except ValueError:
                rate = None
            return tr, descent, ctg, cls, rate

        return run

    def check(out):
        tr, _descent, ctg, cls, rate = out
        if len(tr) - 1 >= max_iter:
            return "PG did not converge in %d iterations" % max_iter
        if cls != "proximal":
            return "limit point classified %r, expected 'proximal'" % cls
        # F(x^k+1) - F(x^k) <= -kappa1 ||x^k+1 - x^k||^2, recomputed here
        kappa1 = 0.5 / gamma - 0.5 * L_exact
        F = np.array(tr.objectives)
        steps = np.diff(np.array(tr.points), axis=0)
        slack = np.diff(F) + kappa1 * np.einsum("ij,ij->i", steps, steps)
        bad = np.flatnonzero(slack > 1e-9 * (1.0 + np.abs(F[:-1])))
        if bad.size:
            return "sufficient descent fails with eigvalsh L at steps %s" % (bad[:3] + 1)
        if not ctg.ok:
            return "cost-to-go inequality fails at %d probes" % len(ctg.violations)
        if rate is None or not 0.0 < rate.sigma_hat < 1.0:
            return "no linear rate fitted"
        return None

    ops, warm = [], []
    for fam, spec in FAMILIES:
        ops.append(Op(fam, make(spec, max_iter), check))
        warm.append(Op("warm-" + fam, make(spec, 3), lambda out: None))
    return Workload("pg-n1000", ops, warm,
                    info={"n": n, "L": L, "L_eigvalsh": L_exact, "gamma": gamma})


# ---------------------------------------------------------------------------
# cli-small: solve -> diagnose -> certify through calmkit.cli.main

CLI_ROWS = 12
OVERLAP_MARGIN = 0.4
# Certificates need the point on the penalty's graph to 1e-10.  PG's default
# stop tolerance (1e-10) leaves it up to ~1e-9 off, which is the known defect
# that the certify-offgraph probe reproduces; the timed pipeline stops
# tighter, so the certificate work it measures does not depend on the defect.
CLI_STOP_TOL = "1e-13"
CLI_MAX_ITER = "20000"
OFFGRAPH_DEFECT = "certify-offgraph"
OUT_OF_BOX_DEFECT = "oracle-out-of-box"
MISSED_POINT_DEFECT = "oracle-misses-point"
KNOWN_DEFECTS = (OFFGRAPH_DEFECT, OUT_OF_BOX_DEFECT, MISSED_POINT_DEFECT)


def call_cli(argv):
    """calmkit.cli.main in-process; returns (exit code, stderr text)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse rejects its arguments
            code = exc.code
    return code, err.getvalue().strip()


def _last_point(csv_path, n):
    with open(csv_path, "rb") as fh:
        fh.seek(0, os.SEEK_END)
        fh.seek(max(fh.tell() - 64 * (n + 4), 0))
        last = fh.read().decode().strip().splitlines()[-1]
    return [float(v) for v in last.split(",")[1:1 + n]]


def _overlapping_rows(rng, n):
    """Random rows C and labels d whose rows d_i c_i surround the origin.

    The origin must lie inside conv{d_i c_i} at distance OVERLAP_MARGIN from
    its boundary.  Then along every direction some margin d_i c_i.x falls
    at that rate, the logistic loss grows at least linearly, and F has a
    minimizer near the origin whatever the penalty.  Draws below the margin
    are (nearly) separable: with SCAD or MCP, which stay bounded, PG then
    runs thousands of iterations out along the separating direction.
    """
    while True:
        C = rng.standard_normal((CLI_ROWS, n))
        d = rng.choice([-1.0, 1.0], size=CLI_ROWS)
        hull = ConvexHull(d[:, None] * C)
        normals, offsets = hull.equations[:, :-1], hull.equations[:, -1]
        if np.min(-offsets / np.linalg.norm(normals, axis=1)) >= OVERLAP_MARGIN:
            return C, d


def _cli_problems(rng, dims, per_combo, workdir):
    out = []
    for n in dims:
        for loss_kind in ("quadratic", "logistic"):
            for fam, spec in FAMILIES:
                if loss_kind == "logistic" and fam == "negabs":
                    continue   # unbounded below: -lambda|x| against a loss bounded below
                for _ in range(per_combo):
                    if loss_kind == "quadratic":
                        C = rng.standard_normal((CLI_ROWS, n))
                        b = rng.standard_normal(CLI_ROWS)
                        Q = C.T @ C / CLI_ROWS + 0.5 * np.eye(n)
                        loss = calmkit.QuadraticLoss(Q, -C.T @ b / CLI_ROWS)
                    else:
                        loss = calmkit.LogisticLoss(*_overlapping_rows(rng, n))
                    prob = ProblemSpec(n, loss, calmkit.penalty_from_json(spec))
                    i = len(out)
                    path = os.path.join(workdir, "problem-%d.json" % i)
                    calmkit.save_problem(prob, path)
                    L = loss.lipschitz_bound().value
                    out.append({"i": i, "n": n, "loss": loss_kind, "family": fam,
                                "path": path, "L": L, "gamma": 0.9 / L})
    return out


def _pipeline(p, workdir, stop_tol=CLI_STOP_TOL):
    base = os.path.join(workdir, "run-%d" % p["i"])
    g, L = repr(p["gamma"]), repr(p["L"])
    files = {k: "%s.%s" % (base, k) for k in ("csv", "summary", "point", "diag", "cert")}
    codes = {}

    def run():
        codes["solve"] = call_cli(["solve", "--problem", p["path"], "--solver", "pg",
                                   "--gamma", g, "--lipschitz", L, "--stop-tol", stop_tol,
                                   "--max-iter", CLI_MAX_ITER, "--out", files["csv"],
                                   "--summary", files["summary"]])
        if codes["solve"][0] != 0:
            return dict(codes)
        with open(files["point"], "w") as fh:
            json.dump({"x": _last_point(files["csv"], p["n"])}, fh)
        codes["diagnose"] = call_cli(["diagnose", "--problem", p["path"], "--trace",
                                      files["csv"], "--gamma", g, "--lipschitz", L,
                                      "--out", files["diag"]])
        codes["certify"] = call_cli(["certify", "--problem", p["path"], "--point",
                                     files["point"], "--conditions",
                                     "nnamcq,foscms,polyhedral", "--out", files["cert"]])
        return dict(codes)

    return run, files


def _check_pipeline(p, files, codes):
    for step, (code, msg) in codes.items():
        if code != 0:
            return "%s exited %d: %s" % (step, code, msg[:160])
    with open(files["summary"]) as fh:
        summary = json.load(fh)
    if summary["iterations"] >= int(CLI_MAX_ITER):
        return "PG did not converge"
    with open(files["diag"]) as fh:
        diag = json.load(fh)
    if diag["classification"] != "proximal":
        return "limit point classified %r" % diag["classification"]
    if not diag["sufficient_descent"]["ok"] or not diag["cost_to_go"]["ok"]:
        return "descent or cost-to-go inequality violated"
    with open(files["cert"]) as fh:
        reports = json.load(fh)
    verdicts = [r["verdict"] for r in reports]
    if len(reports) != 3 or not set(verdicts) <= {"holds", "fails", "inconclusive"}:
        return "malformed certificate reports %s" % verdicts
    want = "holds" if p["loss"] == "quadratic" else "fails"
    if reports[2]["verdict"] != want:
        return "polyhedral verdict %r, expected %r" % (reports[2]["verdict"], want)
    return None


def _offgraph_probe(p, workdir):
    """Certify PG's own limit point at the CLI's default stop tolerance."""
    run, files = _pipeline(p, workdir, stop_tol="1e-10")

    def probe():
        codes = run()
        code, msg = codes.get("certify", (None, ""))
        if code == 2 and "not on graph (distance" in msg:
            dist = float(msg.rsplit("distance", 1)[1].strip(" )"))
            if dist <= 1e-8:   # inside the stationarity tolerance certify accepted
                return "hit", msg
        err = _check_pipeline(p, files, codes)
        return ("clear", "") if err is None else ("failed", err)

    return Probe(OFFGRAPH_DEFECT, probe)


def cli_small(seed, size, workdir):
    rng = np.random.default_rng(seed)
    dims, per_combo = ((2, 3, 4), 12) if size == FULL else ((2, 3), 1)
    problems = _cli_problems(rng, dims, per_combo, workdir)
    ops = []
    for p in problems:
        run, files = _pipeline(p, workdir)
        ops.append(Op("pipeline-%d-n%d-%s-%s" % (p["i"], p["n"], p["loss"], p["family"]), run,
                      lambda codes, p=p, files=files: _check_pipeline(p, files, codes)))
    for case in (5, 6, 7, 8):
        out = os.path.join(workdir, "table-1-%d.json" % case)
        # the CLI's own instance: other --seed values can draw separable data,
        # on which the exponential-loss cases leave their Lipschitz box (exit 3)
        argv = ["reproduce", "table-1", "--case", str(case), "--out", out]

        def check(res, out=out):
            if res[0] != 0:
                return "reproduce exited %d: %s" % res
            with open(out) as fh:
                rep = json.load(fh)
            if not rep["sufficient_descent"]["ok"]:
                return "sufficient descent violated"
            return None

        ops.append(Op("table-1-case-%d" % case, lambda argv=argv: call_cli(argv), check))
    largest = [p for p in problems if p["n"] == dims[-1]][::per_combo]
    probe_dir = os.path.join(workdir, "probe")
    os.makedirs(probe_dir, exist_ok=True)
    probes = [_offgraph_probe(p, probe_dir) for p in largest]
    return Workload("cli-small", ops, [ops[0]], probes,
                    info={"pipelines": len(problems), "table_1_cases": 4})


# ---------------------------------------------------------------------------
# certify-n6: NNAMCQ / FOSCMS by exhaustive atom enumeration at n = 6

def _scad_slope(t, lam, a):
    """The SCAD derivative at t, where it exists (every kink of its graph)."""
    s, r = math.copysign(1.0, t), abs(t)
    return s * (lam if r <= lam else max(a * lam - r, 0.0) / (a - 1.0))


def certify_instances(seed, n):
    """An l1 instance with every coordinate at a graph vertex and a SCAD
    instance with every coordinate at a kink, both with dense Q."""
    rng = np.random.default_rng(seed)
    lam, a = 0.2, 3.7
    Q, _ = dense_quadratic(rng, n)
    signs = rng.choice([-1.0, 1.0], size=n)
    l1 = ProblemSpec(n, calmkit.QuadraticLoss(Q, -lam * signs), calmkit.L1Penalty(lam))
    kinks = rng.choice([lam, a * lam], size=n) * rng.choice([-1.0, 1.0], size=n)
    slope = np.array([_scad_slope(t, lam, a) for t in kinks])
    scad = ProblemSpec(n, calmkit.QuadraticLoss(Q, -Q @ kinks - slope),
                       calmkit.ScadPenalty(lam, a))
    return [("l1-vertex", l1, np.zeros(n)), ("scad-kink", scad, kinks)]


CHECKS = (("nnamcq", "check_nnamcq"), ("foscms", "check_foscms"))


def _stated_conclusion_holds(case, check, rep):
    """Example 5.1's stated conclusion, tested on the report it concerns."""
    if case.expected == "NNAMCQ-holds":
        return check != "nnamcq" or rep.verdict == "holds"
    if check != "foscms":
        return True
    if case.expected == "inconclusive":
        return rep.verdict == "inconclusive"
    if case.expected == "isolated-calmness":
        return rep.verdict == "holds" and rep.condition == "isolated-calmness"
    return rep.verdict == "holds"


CERTIFY_DRAWS = 3   # per kind: 12 n=6 checks against the 8 of Example 5.1


def certify_n6(seed, size, workdir):
    """The median op lands among the n=6 FOSCMS checks (~10 ms) rather than
    among Example 5.1's millisecond checks, whose latency is timer jitter."""
    n = 6 if size == FULL else 4
    with open(REFERENCE_FILE) as fh:
        reference = json.load(fh)
    ops = []
    items = [("%s-%d" % (kind, j), kind, prob, x, None)
             for j, draw in enumerate(np.random.default_rng(seed).integers(
                 0, 2 ** 31, size=CERTIFY_DRAWS))
             for kind, prob, x in certify_instances(int(draw), n)]
    items += [(c.name, c.name, c.prob, c.z_bar, c) for c in instances.example_5_1_cases()]
    for name, kind, prob, x, case in items:
        for check_name, fn_name in CHECKS:
            want = reference[kind][check_name]

            def run(prob=prob, x=x, fn_name=fn_name):
                return getattr(calmness, fn_name)(prob, x)

            def check(rep, want=want, case=case, check_name=check_name):
                got = {"verdict": rep.verdict, "condition": rep.condition}
                if got != want:
                    return "%s, expected %s" % (got, want)
                if case is not None and not _stated_conclusion_holds(case, check_name, rep):
                    return "contradicts the stated conclusion %r" % case.expected
                return None

            ops.append(Op("%s-%s" % (check_name, name), run, check))
    warm = [op for op in ops if op.name.startswith("foscms-")]
    return Workload("certify-n6", ops, warm, info={"n": n})


# ---------------------------------------------------------------------------
# oracle-2d: brute-force stationary sets, perturbed solves and modulus

def _oracle_points_op(name, prob, lo, hi, cells, limiting=False, expect=None,
                      after=None):
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)

    def run():
        return oracle.brute_force_stationary_set(prob, (lo, hi), cells=cells,
                                                 limiting=limiting)

    def check(S):
        if _outside(S.points, lo, hi):
            return "%d of %d points outside the box" % (_outside(S.points, lo, hi),
                                                        len(S.points))
        if expect is not None:
            d = np.min(np.linalg.norm(S.points - expect[None, :], axis=1), initial=np.inf)
            if not d <= 1e-6:
                return "z_bar not found (nearest point at %.3g)" % d
        return after(S) if after else None

    return Op(name, run, check)


def oracle_2d(seed, size, workdir):
    full = size == FULL
    rng = np.random.default_rng(seed)
    ops = []
    # calmkit's own battery, like the Example 5.1 cases: its n=1 and n=2
    # instances differ in cost by 10x, so reseeding it would move the
    # percentiles between clusters of ops; the seed draws the 2-D quadratic
    battery = instances.negabs_battery() if full else instances.negabs_battery(count=4)
    for j, (prob, box, _lam, _c) in enumerate(battery):
        sizes = {}

        def record(S, sizes=sizes):
            sizes["proximal"] = len(S.points)
            return None

        def larger(S, sizes=sizes):
            if not len(S.points) > sizes.get("proximal", math.inf):
                return "|X^L| = %d is not larger than |X^pi| = %s" % (
                    len(S.points), sizes.get("proximal"))
            return None

        cells = 240 if full else 60
        ops.append(_oracle_points_op("battery-%d-proximal" % j, prob, box[0], box[1],
                                     cells, after=record))
        ops.append(_oracle_points_op("battery-%d-limiting" % j, prob, box[0], box[1],
                                     cells, limiting=True, after=larger))
    for case in instances.example_5_1_cases():
        ops.append(_oracle_points_op("example-%s" % case.name, case.prob,
                                     case.z_bar - 0.2, case.z_bar + 0.2,
                                     120 if full else 40, expect=case.z_bar))
    case_i = instances.scad_case_i()

    def modulus():
        return calmness.estimate_calmness_modulus(case_i.prob, case_i.z_bar, "S_cano",
                                                  radius=1e-3, grid=5 if full else 3)

    def check_modulus(est):
        if not (est.samples > 0 and math.isfinite(est.kappa_hat) and est.kappa_hat > 0):
            return "no usable modulus estimate (%d samples)" % est.samples
        return None

    ops.append(Op("modulus-case-i", modulus, check_modulus))
    Q, q = dense_quadratic(rng, 2)
    for fam, spec in FAMILIES:
        prob = ProblemSpec(2, calmkit.QuadraticLoss(Q, 0.5 * q),
                           calmkit.penalty_from_json(spec))
        ops.append(_oracle_points_op("quadratic-%s" % fam, prob, [-6.0, -6.0],
                                     [6.0, 6.0], 400 if full else 100))
    case_iii = instances.scad_case_iii()
    lo, hi = case_iii.z_bar - 2.0, case_iii.z_bar + 2.0

    def out_of_box_probe():
        S = oracle.brute_force_stationary_set(case_iii.prob, (lo, hi), cells=8)
        bad = _outside(S.points, lo, hi)
        found = np.min(np.linalg.norm(S.points - case_iii.z_bar, axis=1),
                       initial=np.inf) <= 1e-6
        if bad:
            return "hit", "%d of %d points outside the box" % (bad, len(S.points))
        return ("clear", "") if found else ("failed", "z_bar not found")

    return Workload("oracle-2d", ops, [ops[0]],
                    [Probe(OUT_OF_BOX_DEFECT, out_of_box_probe), _missed_point_probe()],
                    info={"battery": len(battery)})


def _missed_point_probe():
    """A 2-D quadratic + MCP problem whose only stationary point in [-6, 6]^2
    the oracle discards: its stencil refinement stalls above the acceptance
    residual (found while building the quadratic-mcp op, seed 35)."""
    Q = np.array([[0.7848, 0.4799], [0.4799, 1.9193]])
    q = np.array([0.2076, -0.3004])
    lam, a = 0.2, 2.5
    prob = ProblemSpec(2, calmkit.QuadraticLoss(Q, q), calmkit.McpPenalty(lam, a))
    # on 0 < |x_i| < a lam the MCP slope is lam sign(x_i) - x_i / a, so with
    # signs s the stationarity equation is linear: (Q - I/a) x = -q - lam s
    signs = np.array([-1.0, 1.0])
    x_star = np.linalg.solve(Q - np.eye(2) / a, -q - lam * signs)
    assert np.all(np.sign(x_star) == signs) and np.all(np.abs(x_star) < a * lam)
    lo, hi = np.full(2, -6.0), np.full(2, 6.0)

    def probe():
        S = oracle.brute_force_stationary_set(prob, (lo, hi), cells=400)
        if _outside(S.points, lo, hi):
            return "failed", "points outside the box"
        d = np.min(np.linalg.norm(S.points - x_star, axis=1), initial=np.inf)
        if d <= 1e-6:
            return "clear", ""
        return "hit", "stationary point %s missing; %s" % (x_star.round(6).tolist(),
                                                           "; ".join(S.warnings))

    return Probe(MISSED_POINT_DEFECT, probe)


BUILDERS = {"pg-n1000": pg_n1000, "cli-small": cli_small,
            "certify-n6": certify_n6, "oracle-2d": oracle_2d}
