import itertools
import math
import os
import zlib

import numpy as np
import pytest

import cone_oracle
from calmkit.calmness import (CertificateError, check_foscms, check_nnamcq,
                              check_polyhedral, estimate_calmness_modulus,
                              is_proximal_stationary)
from calmkit.core import ProblemSpec, SolverConfig
from calmkit.graphs_cones import (directional_limiting_normal_atoms,
                                  limiting_normal_atoms, tangent_atoms)
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
    G = prob.penalty.graph()
    assert cone_oracle.holds_vector(limiting_normal_atoms(G, (0.0, 1.0)),
                                    (float(xi[0]), float(eta[0])), tol=1e-9)


# (verdict, condition, pieces_examined, notes) and witnesses of Example 5.1
EXAMPLE_5_1_REPORTS = {
    ("case-i", "nnamcq"): (("holds", "NNAMCQ", 3, ""), []),
    ("case-i", "foscms"): (("holds", "isolated-calmness", 2,
                            "no nonzero linearized critical direction"), []),
    ("case-ii", "nnamcq"): (("holds", "NNAMCQ", 3, ""), []),
    ("case-ii", "foscms"): (("holds", "isolated-calmness", 2,
                             "no nonzero linearized critical direction"), []),
    ("case-ii-degenerate", "nnamcq"): (
        ("fails", "NNAMCQ", 2,
         "nonzero multiplier (xi, eta); membership residual 0.00e+00"),
        [[[-0.5643823935199818, 0.49999999999999994], [0.0, 1.0]]]),
    ("case-ii-degenerate", "foscms"): (
        ("inconclusive", "FOSCMS", 2,
         "eta = w is a multiplier along the critical direction w "
         "(membership residual 0.00e+00)"),
        [[[0.0, 1.0], [-0.5643823935199818, 0.49999999999999994], [0.0, 1.0]]]),
    ("case-iii", "nnamcq"): (("holds", "NNAMCQ", 1, ""), []),
    ("case-iii", "foscms"): (("holds", "isolated-calmness", 1,
                              "no nonzero linearized critical direction"), []),
}


def test_example_5_1_reports_are_pinned():
    seen = set()
    for case in example_5_1_cases():
        for name, check in (("nnamcq", check_nnamcq), ("foscms", check_foscms)):
            rep = check(case.prob, case.z_bar)
            head, witnesses = EXAMPLE_5_1_REPORTS[case.name, name]
            seen.add((case.name, name))
            assert (rep.verdict, rep.condition, rep.pieces_examined, rep.notes) == head
            assert [len(group) for group in rep.witnesses] == [len(g) for g in witnesses]
            for got, want in zip(rep.witnesses, witnesses):
                for g, w in zip(got, want):
                    np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-12)
    assert seen == set(EXAMPLE_5_1_REPORTS)


def test_nnamcq_implies_foscms():
    # a critical direction w would make (H w, w) a nonzero NNAMCQ multiplier,
    # so NNAMCQ holding leaves the critical cone {0}: isolated calmness
    for case in example_5_1_cases():
        n_rep = check_nnamcq(case.prob, case.z_bar)
        if n_rep.verdict == "holds":
            f_rep = check_foscms(case.prob, case.z_bar)
            assert f_rep.verdict == "holds"
            assert f_rep.condition == "isolated-calmness"


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


def _l1_origin(n):
    return ProblemSpec(n, QuadraticLoss(np.eye(n), np.zeros(n)), L1Penalty(1.0))


def test_certificates_reject_high_dimension():
    # NNAMCQ enumerates 3^n multiplier systems and stops above n = 8; FOSCMS
    # enumerates 2^n tangent systems and stops above n = 12
    with pytest.raises(CertificateError, match="empirical"):
        check_nnamcq(_l1_origin(9), np.zeros(9))
    with pytest.raises(CertificateError, match="empirical"):
        check_foscms(_l1_origin(13), np.zeros(13))


def test_foscms_runs_above_the_nnamcq_cap():
    for n in (9, 12):
        rep = check_foscms(_l1_origin(n), np.zeros(n))
        assert (rep.verdict, rep.condition) == ("holds", "isolated-calmness")


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
    # with a 4-dimensional null space, exercising the extreme-ray test)
    n = 4
    prob = ProblemSpec(n, QuadraticLoss(-np.eye(n), -np.ones(n)), L1Penalty(1.0))
    rep = check_nnamcq(prob, np.zeros(n))
    assert rep.verdict == "fails"
    xi, eta = (np.asarray(v) for v in rep.witnesses[0])
    assert np.linalg.norm(xi + eta) <= 1e-9  # xi = H eta = -eta
    G = prob.penalty.graph()
    for i in range(n):
        assert cone_oracle.holds_vector(limiting_normal_atoms(G, (0.0, 1.0)),
                                        (float(xi[i]), float(eta[i])), tol=1e-8)


def test_nnamcq_lp_fallback_certifies_zero_only():
    # same kinks but convex quadratic: the sector rows force eta = 0 in every
    # inequality-only combination, so the extreme-ray test must certify only zero
    n = 4
    prob = ProblemSpec(n, QuadraticLoss(np.eye(n), -np.ones(n)), L1Penalty(1.0))
    rep = check_nnamcq(prob, np.zeros(n))
    assert rep.verdict == "holds"
    assert rep.pieces_examined == 3 ** n


# ---------------------------------------------------------------------------
# the cone test and the cone generators

def _box_lp_max(c, E, C):
    """Reference: the largest c . z over {E z = 0, C z >= 0, |z_j| <= 1}."""
    from scipy.optimize import linprog
    n = E.shape[1]
    res = linprog(-c, A_ub=-C if C.shape[0] else None,
                  b_ub=np.zeros(C.shape[0]) if C.shape[0] else None,
                  A_eq=E if E.shape[0] else None,
                  b_eq=np.zeros(E.shape[0]) if E.shape[0] else None,
                  bounds=[(-1.0, 1.0)] * n, method="highs")
    assert res.status == 0
    return -res.fun


def _box_lp_has_nonzero(E, C):
    """Reference: maximise each +-z_j over {E z = 0, C z >= 0, |z_j| <= 1}."""
    n = E.shape[1]
    return any(_box_lp_max(sign * np.eye(n)[j], E, C) > 1e-7
               for j in range(n) for sign in (1.0, -1.0))


def _embed(rng, d, extra):
    """An orthonormal basis N of a random d-dimensional subspace of R^(d +
    extra) and equality rows E whose null space it is."""
    n = d + extra
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    N, P = basis[:, :d], basis[:, d:]
    return N, (P @ rng.standard_normal((n - d, n - d))).T


def _random_cone_system(rng, kind):
    """(E, C) in R^n whose equalities leave a d >= 3 dimensional subspace,
    on which C cuts out a pointed cone, a cone with a lineality space, the
    cone {0}, or whatever random rows give.  The "duplicated" and
    "rank-deficient" kinds are pointed cones whose rows repeat, or crowd
    into a plane, so that many (d - 1)-row subsets have rank below d - 1;
    half of the rank-deficient ones are closed to {0} by minus their sum."""
    d = int(rng.integers(3, 7))
    N, E = _embed(rng, d, int(rng.integers(0, 7 - d)))
    rows = rng.standard_normal((int(rng.integers(d, 2 * d + 2)), d))
    if kind == "duplicated":
        rows = np.vstack([rows, rows[rng.integers(0, len(rows), size=d)]])
    elif kind == "rank-deficient":
        plane = rng.standard_normal((2, d))
        rows = np.vstack([rows, rng.standard_normal((d, 2)) @ plane])
    if kind in ("pointed", "duplicated", "rank-deficient"):
        y0 = rng.standard_normal(d)
        rows *= np.sign(rows @ y0)[:, None]
        if kind == "rank-deficient" and rng.random() < 0.5:
            rows = np.vstack([rows, -rows.sum(axis=0)])
    elif kind == "lineality":
        line = rng.standard_normal((int(rng.integers(1, d - 1)), d))
        Q, _ = np.linalg.qr(line.T)
        rows -= (rows @ Q) @ Q.T
    elif kind == "zero":
        rows = np.vstack([rows, -rows.sum(axis=0)])
    return E, rows @ N.T


def _nonzero_in_cone(E, C):
    """The stacked kernel on a batch of one: its unit z != 0 of the system
    {E z = 0, C z >= 0}, or None when only z = 0 solves it."""
    from calmkit.calmness import _nonzero_in_cones
    found, Z, _ = _nonzero_in_cones(np.asarray(E, dtype=float)[None],
                                    np.asarray(C, dtype=float)[None])
    return Z[0] if found[0] else None


@pytest.mark.parametrize("kind", ["pointed", "lineality", "zero", "random",
                                  "duplicated", "rank-deficient"])
def test_nonzero_in_cone_matches_box_lp_reference(kind):
    from calmkit.calmness import FEAS_TOL
    rng = np.random.default_rng(zlib.crc32(kind.encode()))
    found = 0
    for _ in range(50):
        E, C = _random_cone_system(rng, kind)
        z = _nonzero_in_cone(E, C)
        assert (z is not None) == _box_lp_has_nonzero(E, C)
        if z is None:
            continue
        found += 1
        z = z / np.linalg.norm(z)
        En = E / np.linalg.norm(E, axis=1, keepdims=True)
        Cn = C / np.linalg.norm(C, axis=1, keepdims=True)
        assert np.all(np.abs(En @ z) <= FEAS_TOL)
        assert np.all(Cn @ z >= -FEAS_TOL)
    expected = {"pointed": 50, "lineality": 50, "zero": 0, "duplicated": 50}
    if kind in expected:
        assert found == expected[kind]
    if kind == "rank-deficient":
        assert 0 < found < 50


def _low_dim_cone_system(rng, kind, d):
    """(E, C) in R^n whose equalities leave a d = 1 or 2 dimensional
    subspace, on which C cuts out a pointed sector (a ray when d = 1), a
    half-plane from one row or from parallel rows, the line {c y = 0}, the
    cone {0}, or, with no rows, the whole subspace."""
    N, E = _embed(rng, d, int(rng.integers(0, 4)))
    c = rng.standard_normal((1, d))
    if kind == "sector":
        rows = rng.standard_normal((int(rng.integers(2, 5)), d))
        rows *= np.sign(rows @ rng.standard_normal(d))[:, None]
    elif kind == "half-plane":
        rows = c
    elif kind == "parallel":
        rows = rng.uniform(0.5, 2.0, size=(int(rng.integers(2, 4)), 1)) * c
    elif kind == "line":
        rows = np.vstack([c, -c])
    elif kind == "zero":
        rows = rng.standard_normal((d + 1, d))
        rows = np.vstack([rows, -rows.sum(axis=0)])
    else:
        rows = np.zeros((0, d))
    return E, rows @ N.T


@pytest.mark.parametrize("kind", ["sector", "half-plane", "parallel", "line",
                                  "zero", "no-rows"])
def test_nonzero_in_cone_matches_box_lp_in_one_and_two_dimensions(kind):
    from calmkit.calmness import FEAS_TOL
    from cone_reference import _reduce
    rng = np.random.default_rng(zlib.crc32(("low-" + kind).encode()))
    for d in (1, 2):
        found = 0
        for _ in range(20):
            E, C = _low_dim_cone_system(rng, kind, d)
            N, Cc = _reduce(E, C)[2:]
            assert N.shape[1] == d
            z = _nonzero_in_cone(E, C)
            assert (z is not None) == _box_lp_has_nonzero(E, C)
            if z is None:
                continue
            found += 1
            z = z / np.linalg.norm(z)
            En = E / np.linalg.norm(E, axis=1, keepdims=True)
            Cn = C / np.linalg.norm(C, axis=1, keepdims=True)
            assert np.all(np.abs(En @ z) <= FEAS_TOL)
            assert np.all(Cn @ z >= -FEAS_TOL)
        nonzero = kind != "zero" and not (kind == "line" and d == 1)
        assert found == (20 if nonzero else 0)


def _random_cone(rng, kind):
    """(E, C) in R^n whose equalities leave a d = 1..5 dimensional subspace,
    on which C cuts out a pointed cone, a cone with a lineality space of
    dimension 1..d-1, the whole subspace, or {0}."""
    d = int(rng.integers(2 if kind == "lineality" else 1, 6))
    N, E = _embed(rng, d, int(rng.integers(0, 3)))
    rows = rng.standard_normal((int(rng.integers(1, 2 * d + 2)), d))
    if kind == "lineality":
        Q, _ = np.linalg.qr(rng.standard_normal((d, int(rng.integers(1, d)))))
        rows -= (rows @ Q) @ Q.T
    if kind in ("pointed", "lineality"):
        rows *= np.sign(rows @ rng.standard_normal(d))[:, None]
    elif kind == "full":
        rows = np.zeros((0, d))
    else:
        rows = rng.standard_normal((d + 1, d))
        rows = np.vstack([rows, -rows.sum(axis=0)])
    return E, rows @ N.T


@pytest.mark.parametrize("kind", ["pointed", "lineality", "full", "zero"])
def test_cone_generators_generate_their_cone(kind):
    # _nonzero_in_cone returns one generator of its cone: None exactly when
    # the box LP finds only zero, else a unit vector of the cone.  Below full
    # rank that vector spans part of the lineality space (it comes before
    # any QR); at full rank it is an extreme ray, where the active rows have
    # rank d - 1.
    from calmkit.calmness import FEAS_TOL
    from cone_reference import _reduce
    rng = np.random.default_rng(zlib.crc32(("generators-" + kind).encode()))
    for _ in range(50):
        E, C = _random_cone(rng, kind)
        N, Cc = _reduce(E, C)[2:]
        z = _nonzero_in_cone(E, C)
        assert (z is not None) == _box_lp_has_nonzero(E, C)
        if z is None:
            assert kind == "zero"
            continue
        assert np.linalg.norm(z) == pytest.approx(1.0, abs=1e-12)
        En = E / np.linalg.norm(E, axis=1, keepdims=True)
        Cn = C / np.linalg.norm(C, axis=1, keepdims=True)
        assert np.all(np.abs(En @ z) <= FEAS_TOL)
        assert np.all(Cn @ z >= -FEAS_TOL)
        d = N.shape[1]
        active = Cn[np.abs(Cn @ z) <= FEAS_TOL]
        rank = np.linalg.matrix_rank(Cn, tol=FEAS_TOL) if len(Cn) else 0
        if rank < d:
            assert len(active) == len(Cn)
        else:
            assert (np.linalg.matrix_rank(active, tol=FEAS_TOL) if len(active) else 0) == d - 1


def test_cone_generators_on_hand_made_cones():
    def generator(C, d):
        C = np.asarray(C, dtype=float).reshape(-1, d)
        z = _nonzero_in_cone(np.zeros((0, d)), C)
        return None if z is None else np.round(z, 12).tolist()

    # the orthant, each row twice: pointed, so the edge that the first two
    # rows leave
    assert generator(np.vstack([np.eye(3), np.eye(3)]), 3) == [0.0, 0.0, 1.0]
    # the half-plane y2 >= 0 and the line y1 = y2: their lineality spaces
    assert generator([[0, 1]], 2) in ([1.0, 0.0], [-1.0, 0.0])
    s = round(1 / math.sqrt(2), 12)
    assert generator([[1, -1], [-1, 1]], 2) in ([s, s], [-s, -s])
    # the whole plane, and {0}
    assert generator([], 2) == [1.0, 0.0]
    assert generator([[1, 0], [0, 1], [-1, -1]], 2) is None


def test_svd_rank_follows_the_null_space_rule_of_scipy():
    from scipy.linalg import null_space
    from calmkit.calmness import _svd_ranks

    def _svd_rank(A):
        ranks, Vt = _svd_ranks(A[None])    # a batch of one
        return ranks[0], Vt[0]

    rng = np.random.default_rng(11)
    for _ in range(100):
        m, d = (int(k) for k in rng.integers(1, 9, size=2))
        k = int(rng.integers(1, min(m, d) + 1))    # rank k, often below min(m, d)
        A = rng.standard_normal((m, k)) @ rng.standard_normal((k, d))
        rank, Vt = _svd_rank(A)
        assert rank == k
        assert np.array_equal(Vt[rank:].T, null_space(A))
    assert _svd_rank(np.zeros((0, 3)))[0] == 0


def _l1_all_vertex(n, seed):
    # dense positive definite Q; q puts every coordinate at a graph vertex
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((2 * n, n))
    Q = A.T @ A / (2 * n) + 0.5 * np.eye(n)
    signs = rng.choice([-1.0, 1.0], size=n)
    return ProblemSpec(n, QuadraticLoss(0.5 * (Q + Q.T), -signs), L1Penalty(1.0))


def _scad_all_kink(n, seed, lam=0.2, a=3.7):
    # dense positive definite Q; every coordinate at a kink of the SCAD graph
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((2 * n, n))
    Q = A.T @ A / (2 * n) + 0.5 * np.eye(n)
    x = rng.choice([lam, a * lam], size=n) * rng.choice([-1.0, 1.0], size=n)
    slope = np.where(np.abs(x) <= lam, lam * np.sign(x), 0.0)
    return ProblemSpec(n, QuadraticLoss(0.5 * (Q + Q.T), -Q @ x - slope),
                       ScadPenalty(lam, a)), x


def test_multiplier_systems_call_no_lp(monkeypatch):
    import scipy.optimize
    import calmkit.calmness as calmness

    def no_lp(*args, **kwargs):
        raise AssertionError("linprog called")

    monkeypatch.setattr(calmness, "linprog", no_lp)
    monkeypatch.setattr(scipy.optimize, "linprog", no_lp)
    rep = check_nnamcq(_l1_all_vertex(5, 3), np.zeros(5))
    assert rep.verdict == "holds"
    assert rep.pieces_examined == 3 ** 5


def test_extreme_ray_test_on_hand_made_cones():
    from calmkit.calmness import FEAS_TOL

    def nonzero(C):
        C = np.asarray(C, dtype=float)
        return _nonzero_in_cone(np.zeros((0, C.shape[1])), C)

    # the positive orthant of R^3 is pointed, so only the extreme rays decide it
    z = nonzero(np.eye(3))
    assert z is not None and np.linalg.norm(z) > 0.5
    assert np.all(z >= -FEAS_TOL)
    # y1, y2 >= 0 and y1 + y2 <= 0 leave exactly the ray (0, 0, 1)
    z = nonzero([[1, 0, 0], [0, 1, 0], [-1, -1, 0], [0, 0, 1]])
    assert z is not None
    assert np.allclose(z / np.linalg.norm(z), [0.0, 0.0, 1.0], atol=1e-12)
    # rows plus minus their own sum: only y = 0
    assert nonzero([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]) is None
    rows = np.random.default_rng(5).standard_normal((4, 3))
    assert nonzero(np.vstack([rows, -rows.sum(axis=0)])) is None


@pytest.mark.parametrize("name", ["l1-vertex", "scad-kink"])
def test_nonzero_in_cone_matches_box_lp_on_every_multiplier_system(name):
    from cone_reference import _coordinate_rows, _reduce
    n = 5
    if name == "l1-vertex":
        prob, x_bar = _l1_all_vertex(n, 3), np.zeros(n)
    else:
        prob, x_bar = _scad_all_kink(n, 3)
    assert is_proximal_stationary(prob, x_bar, 1e-8)
    G = prob.penalty.graph()
    H = prob.loss.hessian(x_bar)
    grad = prob.loss.gradient(x_bar)
    atoms = [limiting_normal_atoms(G, (float(x_bar[i]), float(-grad[i])), 1e-8)
             for i in range(n)]
    emb = [(H[i], np.eye(n)[i]) for i in range(n)]
    blocks = [_coordinate_rows(a, r_s, r_t) for a, (r_s, r_t) in zip(atoms, emb)]
    systems = wide = 0
    for combo, rows in zip(itertools.product(*atoms), itertools.product(*blocks)):
        E = np.vstack([e for e, _ in rows])
        C = np.vstack([c for _, c in rows])
        N, Cc = _reduce(E, C)[2:]
        systems += 1
        wide += N.shape[1] >= 3 and Cc.shape[0] > 0
        assert (_nonzero_in_cone(E, C) is not None) == _box_lp_has_nonzero(E, C), combo
    assert systems == 3 ** n
    assert wide > 0


# ---------------------------------------------------------------------------
# angular-sampling cross-check of the multiplier engine (n = 2)
#
# Random stationary instances are synthesized by choosing a point pattern,
# picking admissible subgradient targets, and back-solving the linear term
# of a random (possibly indefinite) quadratic loss.  A dense angular sweep
# over eta (and w) then provides an enumeration-free referee for the
# exhaustive atom-combination engine.

def _random_stationary_instance(rng, penalty, Q=None):
    if Q is None:
        Q = rng.normal(size=(2, 2))
        Q = 0.5 * (Q + Q.T)
    n = len(Q)
    x_bar = np.empty(n)
    targets = np.empty(n)
    bps = penalty.breakpoints() + [0.0]
    pieces = penalty.scalar_pieces()
    dom_lo, dom_hi = pieces[0][0], pieces[-1][1]
    for i in range(n):
        if rng.random() < 0.5:
            x_bar[i] = float(rng.choice(bps))
        else:
            x_bar[i] = float(rng.uniform(-4, 4))
        iv = penalty.prox_subdiff(float(x_bar[i]))
        if iv.is_empty:   # redraw, clipped into the penalty's domain
            x_bar[i] = float(np.clip(rng.uniform(0.5, 3.0), dom_lo, dom_hi))
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
    G = prob.penalty.graph()
    H = prob.loss.hessian(x_bar)
    grad = prob.loss.gradient(x_bar)
    cones = [limiting_normal_atoms(G, (float(x_bar[i]), float(-grad[i])))
             for i in range(2)]
    for k in range(sweep):
        ang = 2 * np.pi * k / sweep
        eta = np.array([np.cos(ang), np.sin(ang)])
        xi = H @ eta
        if all(cone_oracle.holds_vector(cones[i], (float(xi[i]), float(eta[i])), tol=1e-12)
               for i in range(2)):
            return True
    return False


def _sweep_has_critical_direction(prob, x_bar, sweep=7200):
    G = prob.penalty.graph()
    H = prob.loss.hessian(x_bar)
    grad = prob.loss.gradient(x_bar)
    cones = [tangent_atoms(G, (float(x_bar[i]), float(-grad[i])))
             for i in range(2)]
    for k in range(sweep):
        ang = 2 * np.pi * k / sweep
        w = np.array([np.cos(ang), np.sin(ang)])
        Hw = H @ w
        if all(cone_oracle.holds_vector(cones[i], (float(w[i]), float(-Hw[i])), tol=1e-12)
               for i in range(2)):
            return True
    return False


@pytest.mark.parametrize("family", ["l1", "scad", "mcp", "box-indicator"])
def test_nnamcq_engine_matches_angular_sweep(family):
    from calmkit.penalties import (BoxIndicator as _B, McpPenalty as _M,
                                   ScadPenalty as _S, L1Penalty as _L)
    make = {"l1": lambda: _L(1.0), "scad": lambda: _S(1.0, 3.0),
            "mcp": lambda: _M(1.0, 2.0), "box-indicator": lambda: _B(-1.0, 2.0)}[family]
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


@pytest.mark.parametrize("family", ["l1", "scad", "mcp", "box-indicator"])
def test_foscms_stage1_matches_angular_sweep(family):
    from calmkit.penalties import (BoxIndicator as _B, McpPenalty as _M,
                                   ScadPenalty as _S, L1Penalty as _L)
    make = {"l1": lambda: _L(1.0), "scad": lambda: _S(1.0, 3.0),
            "mcp": lambda: _M(1.0, 2.0), "box-indicator": lambda: _B(-1.0, 2.0)}[family]
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


# ---------------------------------------------------------------------------
# FOSCMS: the critical cone decides it

def _stationary_instances(seed, count):
    """Random stationary instances at n = 2..6 over l1, SCAD(1, 3) and
    MCP(1, 2), with positive definite, indefinite and rank-1 Q in turn."""
    from calmkit.penalties import McpPenalty
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = 2 + k % 5
        penalty = (L1Penalty(1.0), ScadPenalty(1.0, 3.0), McpPenalty(1.0, 2.0))[k // 5 % 3]
        A = rng.standard_normal((n, n))
        Q = (A @ A.T / n + 0.1 * np.eye(n), 0.5 * (A + A.T), np.outer(A[0], A[0]))[k // 15 % 3]
        yield _random_stationary_instance(rng, penalty, Q)


_BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _perfbench_workloads():
    import importlib.util
    import sys
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  os.path.join(_BENCH, "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


def _certify_workload_instances():
    """The certify-n6 benchmark instances (and their n = 4 variants), with
    the verdicts that perfbench/certify_reference.json pins for them."""
    import json
    workloads = _perfbench_workloads()
    with open(os.path.join(_BENCH, "certify_reference.json")) as fh:
        pins = json.load(fh)
    return [(prob, x, pins[name]["foscms"]) for n in (4, 6) for seed in range(10)
            for name, prob, x in workloads.certify_instances(seed, n)]


def _separable_penalties():
    from calmkit.penalties import BoxIndicator, McpPenalty
    return [ZeroPenalty(), L1Penalty(1.0), ScadPenalty(1.0, 3.0),
            McpPenalty(1.0, 2.0), NegAbsPenalty(1.0), BoxIndicator(-1.0, 2.0)]


def test_r_map_sends_tangent_directions_into_directional_normal_cones():
    # R(a, b) = (-b, a) maps each tangent direction d of a polyline graph
    # into the directional limiting normal cone along d: the fact that makes
    # eta = w a multiplier along every critical direction w
    checked = 0
    for penalty in _separable_penalties():
        G = penalty.graph()
        points = list(G.vertices())
        for pc in G.pieces:
            lo, hi = pc.t0, pc.t1
            t = (0.5 * (lo + hi) if math.isfinite(lo) and math.isfinite(hi)
                 else lo + 1.0 if math.isfinite(lo) else hi - 1.0 if math.isfinite(hi)
                 else 0.0)
            points.append(pc.point_at(t))
        for p in points:
            for atom in tangent_atoms(G, p):
                dirs = [atom.g1] + ([(-atom.g1[0], -atom.g1[1])] if atom.kind == "line" else [])
                for d in dirs:
                    cone = directional_limiting_normal_atoms(G, p, d)
                    assert cone_oracle.holds_vector(cone, (-d[1], d[0])), (penalty.family, p, d)
                    checked += 1
    assert checked >= 40


def test_foscms_matches_the_directional_multiplier_enumeration():
    from foscms_reference import reference_foscms
    from calmkit.calmness import FEAS_TOL
    cases = [(prob, x, None) for prob, x in _stationary_instances(11, 150)]
    cases += [(c.prob, c.z_bar, None) for c in example_5_1_cases()]
    cases += _certify_workload_instances()
    directions = 0
    for prob, x_bar, pin in cases:
        rep = check_foscms(prob, x_bar)
        condition, verdict, w = reference_foscms(prob, x_bar)
        assert (rep.condition, rep.verdict) == (condition, verdict)
        if pin is not None:
            assert pin == {"condition": rep.condition, "verdict": rep.verdict}
        if w is None:
            continue
        directions += 1
        got_w, xi, eta = (np.asarray(v) for v in rep.witnesses[0])
        assert np.array_equal(got_w, w) and np.array_equal(eta, w)
        assert np.array_equal(xi, prob.loss.hessian(x_bar) @ w)
        assert float(rep.notes.rsplit("residual ", 1)[1].rstrip(")")) <= FEAS_TOL
    assert directions >= 20


def test_foscms_inconclusive_implies_nnamcq_does_not_hold():
    # (H w, w) is a nonzero NNAMCQ multiplier for a critical direction w
    inconclusive = 0
    for prob, x_bar in _stationary_instances(12, 150):
        if check_foscms(prob, x_bar).verdict == "inconclusive":
            inconclusive += 1
            assert check_nnamcq(prob, x_bar).verdict != "holds"
    assert inconclusive >= 20



# ---------------------------------------------------------------------------
# the stacked kernel against the per-combination chain of tests/cone_reference.py

def _certificate_systems(prob, x_bar):
    """The NNAMCQ multiplier atoms with their embedding (H, I), and the
    FOSCMS tangent atoms with theirs (I, -H)."""
    from calmkit.calmness import MAX_FOSCMS_DIM, _certificate_setup
    x_bar, G, H, points = _certificate_setup(prob, x_bar, 1e-8, MAX_FOSCMS_DIM)
    eye = np.eye(prob.n)
    yield [limiting_normal_atoms(G, p, 1e-8) for p in points], H, eye
    yield [tangent_atoms(G, p, 1e-8) for p in points], eye, -H


def _stacked(atoms, R_s, R_t):
    from calmkit.calmness import _combinations
    found, Z, res = (np.concatenate(a) for a in zip(*_combinations(atoms, R_s, R_t)))
    return found, Z, res


def test_stacked_kernel_matches_the_per_combination_chain():
    # certify-n6's instances at n = 2..6 and seeds 0..9, Example 5.1, and
    # random stationary instances, whose systems often have a solution
    from cone_reference import _multipliers
    workloads = _perfbench_workloads()
    cases = [(prob, x) for seed in range(10) for n in range(2, 7)
             for _, prob, x in workloads.certify_instances(seed, n)]
    cases += [(c.prob, c.z_bar) for c in example_5_1_cases()]
    cases += list(_stationary_instances(11, 150))
    systems = found = 0
    for prob, x_bar in cases:
        for atoms, R_s, R_t in _certificate_systems(prob, x_bar):
            emb = list(zip(R_s, R_t))
            got, Z, res = _stacked(atoms, R_s, R_t)
            want = list(_multipliers(atoms, emb))
            assert len(want) == len(got)
            for k, (z, r) in enumerate(want):
                assert got[k] == (z is not None)
                if z is None:
                    assert res[k] == 0.0 and not Z[k].any()
                    continue
                assert np.array_equal(Z[k], z) and res[k] == r
                found += 1
            systems += len(want)
    assert systems >= 27000
    assert found >= 1000


def _random_stacked_systems(rng, B, n, mE, mC):
    """B systems of normalised rows E (B, mE, n), C (B, mC, n): some E are
    rank-deficient, and some C rows lie in the row space of E, so that C N
    drops them; half the C are closed to {0} by minus their sum."""
    E = rng.standard_normal((B, mE, n))
    C = rng.standard_normal((B, mC, n))
    for b in range(B):
        if mE > 1 and rng.random() < 0.4:
            E[b, -1] = E[b, 0]
        if mE and mC and rng.random() < 0.3:
            C[b, 0] = E[b, 0] * rng.uniform(0.5, 2.0)
        if mC > 1 and rng.random() < 0.5:
            C[b] *= np.sign(C[b] @ rng.standard_normal(n))[:, None]
        elif mC > 1:
            C[b, -1] = -C[b, :-1].sum(axis=0)
    E /= np.linalg.norm(E, axis=2, keepdims=True)
    C /= np.linalg.norm(C, axis=2, keepdims=True)
    return E, C


@pytest.mark.parametrize("shape", [(2, 0, 3), (3, 0, 2), (4, 1, 4), (4, 2, 5), (5, 2, 6),
                                   (3, 3, 0), (6, 1, 8), (5, 0, 7)])
def test_stacked_kernel_decides_each_system_of_a_batch_as_alone(shape):
    # one batch mixes null-space dimensions, kept-row masks, lineality
    # spaces, pointed cones and {0}; each system's answer is the chain's
    from calmkit.calmness import _membership_residual, _nonzero_in_cones
    from cone_reference import _nonzero_in_cone as chain, _reduce
    n, mE, mC = shape
    rng = np.random.default_rng(zlib.crc32(repr(shape).encode()))
    E, C = _random_stacked_systems(rng, 60, n, mE, mC)
    found, Z, res = _nonzero_in_cones(E, C)
    for b in range(len(E)):
        z = chain(*_reduce(E[b], C[b])[2:])
        assert found[b] == (z is not None)
        if z is not None:
            z = z / np.linalg.norm(z)
            assert np.array_equal(Z[b], z) and res[b] == _membership_residual(E[b], C[b], z)
    if mC > n - mE or mE >= n:     # enough rows to leave only z = 0
        assert 0 < found.sum() < len(E)
    else:
        assert found.all()


def test_chunks_and_qr_batches_do_not_change_the_answers(monkeypatch):
    import calmkit.calmness as calmness
    cases = [(_l1_all_vertex(4, 3), np.zeros(4)), _scad_all_kink(5, 4)]
    cases += list(itertools.islice(_stationary_instances(13, 150), 4, 40, 5))
    want = [_stacked(*system) for prob, x in cases for system in _certificate_systems(prob, x)]
    monkeypatch.setattr(calmness, "FIRST_CHUNK", 2)
    monkeypatch.setattr(calmness, "CERT_CHUNK", 7)
    monkeypatch.setattr(calmness, "QR_SUBSETS", 1)
    got = [_stacked(*system) for prob, x in cases for system in _certificate_systems(prob, x)]
    for a, b in zip(want, got):
        assert all(np.array_equal(u, v) for u, v in zip(a, b))
    assert sum(int(found.sum()) for found, _, _ in want) > 0


def _l1_vertex_singular(n, seed, j):
    # Q e_j = 0: eta = e_j gives ((Q eta)_j, eta_j) = (0, 1), on coordinate
    # j's line {xi_j = 0}, and (0, 0) elsewhere, so every combination that
    # takes that line has a nonzero multiplier
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((2 * n, n))
    Q = A.T @ A / (2 * n) + 0.5 * np.eye(n)
    Q[j, :] = Q[:, j] = 0.0
    signs = rng.choice([-1.0, 1.0], size=n)
    return ProblemSpec(n, QuadraticLoss(Q, -signs), L1Penalty(1.0))


@pytest.mark.parametrize("n", [6, 8])
def test_nnamcq_fails_where_the_reference_fails(n):
    from cone_reference import reference_nnamcq
    examined = []
    for j in (0, 1, n - 1):
        prob = _l1_vertex_singular(n, 4, j)
        rep, ref = check_nnamcq(prob, np.zeros(n)), reference_nnamcq(prob, np.zeros(n))
        assert rep.verdict == ref.verdict == "fails"
        assert rep.pieces_examined == ref.pieces_examined
        assert rep.notes == ref.notes
        assert all(np.array_equal(a, b) for a, b in zip(rep.witnesses[0], ref.witnesses[0]))
        assert rep.to_json() == ref.to_json()
        examined.append(rep.pieces_examined)
    assert min(examined) <= 2
    if n == 8:
        assert max(examined) > 9 + 729    # past the first two passes
