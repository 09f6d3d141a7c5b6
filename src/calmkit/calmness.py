"""Point-based calmness certificates via exact cone calculus, plus empirical
calmness-modulus estimation for the canonically and PG-perturbed maps.

The multiplier systems of the separable criteria constrain, per coordinate,
the planar vector ((H eta)_i, eta_i) (or (w_i, -(H w)_i) for critical
directions) to an atom of a normal (or tangent) cone.  Each atom reduces to
at most two linear equality/inequality rows; feasibility of a nonzero
solution is decided through the null space of the equalities: by planar ray
enumeration when it has dimension at most two (Example 5.1 and other
small cases), and otherwise (the all-vertex instances at n = 6 reach this)
by a lineality test followed by an exact extreme-ray test: a pointed cone
other than {0} has an extreme ray, the null vector of d - 1 independent
constraint rows, so checking the null vector of every (d - 1)-row subset
decides it without an LP.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import linprog  # noqa: F401  (perfbench/tracing.py wraps calmness.linprog)

from .core import ProblemSpec
from .graphs_cones import (Atom, directional_limiting_normal_atoms,
                           limiting_normal_atoms, tangent_atoms)
from .oracle import brute_force_set_valued_solve, brute_force_stationary_set

MAX_CERT_DIM = 8
FEAS_TOL = 1e-9


class CertificateError(ValueError):
    """Unsupported or infeasible certificate input (CLI exit code 4)."""


@dataclass
class CertificateReport:
    condition: str            # 'NNAMCQ' | 'FOSCMS' | 'isolated-calmness' | 'polyhedral'
    verdict: str              # 'holds' | 'fails' | 'inconclusive'
    witnesses: list = field(default_factory=list)
    pieces_examined: int = 0
    notes: str = ""

    def to_json(self):
        return {"condition": self.condition, "verdict": self.verdict,
                "witnesses": [[np.asarray(w).tolist() for w in group]
                              for group in self.witnesses],
                "pieces_examined": self.pieces_examined, "notes": self.notes}


@dataclass
class ModulusEstimate:
    kappa_hat: float
    samples: int
    max_ratio_point: np.ndarray | None
    max_ratio_perturbation: np.ndarray | None
    note: str = ""

    def to_json(self):
        return {"kappa_hat": self.kappa_hat, "samples": self.samples,
                "max_ratio_point": None if self.max_ratio_point is None
                else np.asarray(self.max_ratio_point).tolist(),
                "max_ratio_perturbation": None if self.max_ratio_perturbation is None
                else np.asarray(self.max_ratio_perturbation).tolist(),
                "note": self.note}


# ---------------------------------------------------------------------------
# stationarity test

def is_proximal_stationary(prob: ProblemSpec, x, tol: float) -> bool:
    """0 in grad f(x) + prox-subdiff g(x), coordinate/block-wise within tol."""
    x = np.asarray(x, dtype=float)
    gr = prob.loss.gradient(x)
    return bool(np.max(prob.penalty.subdiff_distances(x, -gr)) <= tol)


# ---------------------------------------------------------------------------
# planar atom constraints and nonzero-solution search

def _atom_rows(atom: Atom):
    """Equality and inequality rows (c . v = 0 / >= 0) for a planar atom."""
    if atom.kind == "zero":
        return [(1.0, 0.0), (0.0, 1.0)], []
    if atom.kind == "full":
        return [], []
    g1 = atom.g1
    if atom.kind == "line":
        return [(-g1[1], g1[0])], []
    if atom.kind == "ray":
        return [(-g1[1], g1[0])], [(g1[0], g1[1])]
    # sector / half: cross(g1, v) >= 0 and cross(v, g2) >= 0
    g2 = atom.g2
    return [], [(-g1[1], g1[0]), (g2[1], -g2[0])]


def _assemble(combo, emb_rows):
    """Stack constraint rows in z-space for one atom combination.

    emb_rows[i] = (r_s, r_t): planar embedding v_i(z) = (r_s . z, r_t . z).
    """
    eqs, ineqs = [], []
    for atom, (r_s, r_t) in zip(combo, emb_rows):
        e, q = _atom_rows(atom)
        for c in e:
            eqs.append(c[0] * r_s + c[1] * r_t)
        for c in q:
            ineqs.append(c[0] * r_s + c[1] * r_t)
    E = np.array(eqs) if eqs else np.zeros((0, len(emb_rows[0][0])))
    C = np.array(ineqs) if ineqs else np.zeros((0, len(emb_rows[0][0])))
    return E, C


def _normalize_rows(M):
    if M.shape[0] == 0:
        return M
    norms = np.linalg.norm(M, axis=1)
    keep = norms > 1e-13
    return M[keep] / norms[keep, None]


def _reduce(E, C):
    """Normalised rows E, C, a null-space basis N of E, and Cc = C N.

    {E z = 0, C z >= 0} is the image under N of the cone {y : Cc y >= 0}.
    """
    E = _normalize_rows(E)
    C = _normalize_rows(C)
    N = null_space(E) if E.shape[0] else np.eye(E.shape[1])
    Cc = _normalize_rows(C @ N) if C.shape[0] and N.shape[1] else np.zeros((0, N.shape[1]))
    return E, C, N, Cc


def _planar_feasible(Cc):
    """Candidate rays of the planar cone {Cc u >= 0} that lie in it."""
    cands = [np.array(v) for v in ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))]
    for c in Cc:
        cands.append(np.array([c[1], -c[0]]))
        cands.append(np.array([-c[1], c[0]]))
    return [u for u in cands if np.all(Cc @ u >= -FEAS_TOL)]


def _nonzero_in_cone(N, Cc):
    """A nonzero z = N y with Cc y >= 0, or None if only y = 0 qualifies.

    (N, Cc) is the reduction of {E z = 0, C z >= 0} made by _reduce.
    """
    d = N.shape[1]
    if d == 0:
        return None
    if Cc.shape[0] == 0:
        return N[:, 0]
    if d == 1:
        for s in (1.0, -1.0):
            if np.all(s * Cc[:, 0] >= -FEAS_TOL):
                return s * N[:, 0]
        return None
    if d == 2:
        feas = _planar_feasible(Cc)
        return N @ feas[0] if feas else None
    # d >= 3: a direction of the lineality space {Cc y = 0} qualifies.
    # Unit rows bound the largest singular value by sqrt(rows), so the rank
    # cutoff keeps |Cc y| <= FEAS_TOL, the tolerance of the planar tests.
    lineal = null_space(Cc, rcond=FEAS_TOL / math.sqrt(Cc.shape[0]))
    if lineal.shape[1]:
        return N @ lineal[:, 0]
    # Otherwise the cone is pointed, and if it is not {0} it has an extreme
    # ray: a unit null vector of d - 1 independent rows of Cc.  As in the
    # planar test, each (d - 1)-row subset offers its null vector y and -y.
    # The last column of a complete QR of the subset's transpose is a unit
    # vector orthogonal to all its rows, whatever the subset's rank.
    A = Cc[_row_subsets(Cc.shape[0], d - 1)]
    Y = np.linalg.qr(A.transpose(0, 2, 1), mode="complete")[0][:, :, -1]
    P = Cc @ Y.T
    pos = np.all(P >= -FEAS_TOL, axis=0)
    neg = np.all(P <= FEAS_TOL, axis=0)
    hits = np.flatnonzero(pos | neg)
    if not hits.size:
        return None
    k = hits[0]
    return N @ (Y[k] if pos[k] else -Y[k])


@functools.lru_cache(maxsize=None)
def _row_subsets(m, k):
    """Index array of all k-subsets of range(m), in lexicographic order."""
    return np.array(list(itertools.combinations(range(m), k)), dtype=np.intp)


def _cone_generators(N, Cc):
    """Extreme rays plus one interior direction of the reduced cone N {Cc y >= 0}.

    In three or more dimensions only one nonzero direction is returned.
    """
    d = N.shape[1]
    if d and Cc.shape[0] == 0:
        gens = [s * N[:, j] for j in range(d) for s in (1.0, -1.0)]
        if d > 1:
            mix = N @ (np.arange(1, d + 1) / math.sqrt(d))
            gens += [mix, -mix]
        return gens
    if d == 2:
        # dedupe in the plane, then add midpoints of adjacent extreme rays
        uniq = []
        for u in _planar_feasible(Cc):
            u = u / np.linalg.norm(u)
            if not any(np.dot(u, v) > 1.0 - 1e-12 for v in uniq):
                uniq.append(u)
        gens = [N @ u for u in uniq]
        for a, b in itertools.combinations(uniq, 2):
            m = a + b
            nm = np.linalg.norm(m)
            if nm > 1e-9 and np.all(Cc @ (m / nm) >= -FEAS_TOL):
                gens.append(N @ (m / nm))
        return gens
    z = _nonzero_in_cone(N, Cc)
    return [] if z is None else [z]


def _membership_residual(E, C, z):
    """Largest violation of the normalised rows E z = 0, C z >= 0 at z."""
    r = 0.0
    if E.shape[0]:
        r = max(r, float(np.max(np.abs(E @ z))))
    if C.shape[0]:
        r = max(r, float(np.max(np.maximum(-(C @ z), 0.0))))
    return r


def _systems(atoms, emb_rows):
    """Reduce the system of each combination of one atom per coordinate."""
    for combo in itertools.product(*atoms):
        yield _reduce(*_assemble(combo, emb_rows))


def _multipliers(atoms, emb_rows):
    """Per combination: a unit z != 0 of its system with the membership
    residual of z in that same system, or (None, 0.0) when only zero exists."""
    for E, C, N, Cc in _systems(atoms, emb_rows):
        z = _nonzero_in_cone(N, Cc)
        if z is None:
            yield None, 0.0
            continue
        z = z / np.linalg.norm(z)
        yield z, _membership_residual(E, C, z)


# ---------------------------------------------------------------------------
# certificates

def _certificate_setup(prob: ProblemSpec, x_bar, tol):
    if prob.n > MAX_CERT_DIM:
        raise CertificateError("n > %d: use empirical estimation" % MAX_CERT_DIM)
    if not prob.loss.twice_differentiable:
        raise CertificateError("certificates need a twice differentiable loss")
    if not prob.penalty.separable:
        raise CertificateError("cone certificates need a separable penalty")
    x_bar = np.asarray(x_bar, dtype=float)
    if not is_proximal_stationary(prob, x_bar, tol):
        raise CertificateError("reference point is not proximal-stationary at tol %g" % tol)
    G = prob.penalty.graph()
    grad = prob.loss.gradient(x_bar)
    H = prob.loss.hessian(x_bar)
    points = [(float(x_bar[i]), float(-grad[i])) for i in range(prob.n)]
    return x_bar, G, H, points


def check_nnamcq(prob: ProblemSpec, x_bar, tol: float = 1e-8) -> CertificateReport:
    """No-nonzero-abnormal-multiplier CQ on the separable adjoint system.

    Enumerates one limiting-normal-cone atom per coordinate and decides,
    per combination, whether eta != 0 can satisfy
    ((H eta)_i, eta_i) in atom_i for every i.  Holds iff none can.
    """
    x_bar, G, H, points = _certificate_setup(prob, x_bar, tol)
    n = prob.n
    atoms = [limiting_normal_atoms(G, p, tol) for p in points]
    emb = [(H[i], np.eye(n)[i]) for i in range(n)]
    examined = suspect = 0
    for z, res in _multipliers(atoms, emb):
        examined += 1
        if z is None:
            continue
        if res > 1e-9:
            suspect += 1   # near-degenerate system: keep enumerating
            continue
        return CertificateReport(
            condition="NNAMCQ", verdict="fails",
            witnesses=[[H @ z, z]], pieces_examined=examined,
            notes="nonzero multiplier (xi, eta); membership residual %.2e" % res)
    if suspect:
        return CertificateReport(condition="NNAMCQ", verdict="inconclusive",
                                 pieces_examined=examined,
                                 notes="%d near-degenerate multiplier systems" % suspect)
    return CertificateReport(condition="NNAMCQ", verdict="holds",
                             pieces_examined=examined)


def check_foscms(prob: ProblemSpec, x_bar, tol: float = 1e-8) -> CertificateReport:
    """First-order sufficient condition for metric subregularity.

    Stage 1 enumerates tangent-atom combinations for the linearized
    critical directions w != 0 with (w_i, -(H w)_i) in T_i; an empty
    critical cone upgrades the verdict to isolated calmness.  Stage 2
    re-runs the multiplier test against directional limiting normal cones
    along each critical direction (extreme rays plus an interior one).
    """
    x_bar, G, H, points = _certificate_setup(prob, x_bar, tol)
    n = prob.n
    t_atoms = [tangent_atoms(G, p, tol) for p in points]
    emb_w = [(np.eye(n)[i], -H[i]) for i in range(n)]
    examined = 0
    directions = []
    for _, _, N, Cc in _systems(t_atoms, emb_w):
        examined += 1
        for w in _cone_generators(N, Cc):
            nw = np.linalg.norm(w)
            if nw < 1e-12:
                continue
            w = w / nw
            # w and -w are kept separately: their directional cones differ
            if not any(np.dot(w, v) > 1.0 - 1e-10 for v in directions):
                directions.append(w)
    if not directions:
        return CertificateReport(condition="isolated-calmness", verdict="holds",
                                 pieces_examined=examined,
                                 notes="no nonzero linearized critical direction")
    emb_eta = [(H[i], np.eye(n)[i]) for i in range(n)]
    for w in directions:
        Hw = H @ w
        d_atoms = [directional_limiting_normal_atoms(G, points[i], (w[i], -Hw[i]), tol)
                   for i in range(n)]
        for z, res in _multipliers(d_atoms, emb_eta):
            examined += 1
            if z is not None:
                return CertificateReport(
                    condition="FOSCMS", verdict="inconclusive",
                    witnesses=[[w, H @ z, z]], pieces_examined=examined,
                    notes="multiplier survives along a critical direction "
                          "(membership residual %.2e)" % res)
    return CertificateReport(condition="FOSCMS", verdict="holds",
                             pieces_examined=examined,
                             witnesses=[[w] for w in directions],
                             notes="critical directions examined: %d" % len(directions))


AFFINE_GRADIENT_FAMILIES = ("quadratic", "structured-composite")


def check_polyhedral(prob: ProblemSpec) -> CertificateReport:
    """Robinson polyhedral-multifunction test: affine gradient + polyline graph.

    Every separable family is a table of quadratic pieces, so its
    subdifferential graph is a polyline.
    """
    affine = prob.loss.family in AFFINE_GRADIENT_FAMILIES
    polyline = prob.penalty.separable
    if affine and polyline:
        return CertificateReport(condition="polyhedral", verdict="holds",
                                 notes="gradient affine, subdifferential graph polyhedral")
    why = []
    if not affine:
        why.append("gradient of %r is not piecewise affine" % prob.loss.family)
    if not polyline:
        why.append("penalty %r has no polyhedral subdifferential graph" % prob.penalty.family)
    return CertificateReport(condition="polyhedral", verdict="fails",
                             notes="; ".join(why))


# ---------------------------------------------------------------------------
# empirical modulus

def estimate_calmness_modulus(prob: ProblemSpec, x_bar, map_kind: str,
                              radius: float, grid: int, gamma: float | None = None,
                              loc_radius: float | None = None,
                              cells: int = 160, S=None) -> ModulusEstimate:
    """Sampled bound on dist(x, X^pi) <= kappa ||p|| near x_bar.

    Perturbations p run over a grid in [-radius, radius]^n; the solutions
    of the perturbed inclusion come from the brute-force oracle (n <= 2).
    A caller-supplied stationary set S (e.g. an analytic one, densely
    sampled for continua) replaces the oracle's.
    """
    x_bar = np.asarray(x_bar, dtype=float)
    n = prob.n
    if n > 2:
        raise CertificateError("empirical estimation supports n <= 2 only")
    if map_kind not in ("S_cano", "S_PG"):
        raise CertificateError("map must be S_cano or S_PG")
    if map_kind == "S_PG" and gamma is None:
        raise CertificateError("S_PG needs gamma")
    if loc_radius is None:
        loc_radius = max(0.25, 10.0 * radius)
    box = (x_bar - loc_radius, x_bar + loc_radius)
    if S is None:
        S = brute_force_stationary_set(prob, box, cells=cells)
    if S.is_empty:
        raise CertificateError("oracle found no stationary point near x_bar")
    from .core import distance_to_set
    axes = [np.linspace(-radius, radius, grid)] * n
    best = None
    samples = 0
    for p in itertools.product(*axes):
        p = np.array(p)
        if np.linalg.norm(p) < 1e-14:
            continue
        sols = brute_force_set_valued_solve(prob, map_kind, p, box, gamma=gamma,
                                            cells=cells)
        for x in sols:
            if np.linalg.norm(x - x_bar) > loc_radius:
                continue
            samples += 1
            ratio = distance_to_set(x, S) / float(np.linalg.norm(p))
            if best is None or ratio > best[0]:
                best = (ratio, x, p)
    if best is None:
        raise CertificateError("oracle found no perturbed solutions in the window")
    return ModulusEstimate(kappa_hat=best[0], samples=samples,
                           max_ratio_point=best[1], max_ratio_perturbation=best[2])
