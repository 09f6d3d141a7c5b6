"""Point-based calmness certificates via exact cone calculus, plus empirical
calmness-modulus estimation for the canonically and PG-perturbed maps.

The multiplier systems of the separable criteria constrain, per coordinate,
the planar vector ((H eta)_i, eta_i) (or (w_i, -(H w)_i) for critical
directions) to an atom of a normal (or tangent) cone.  Each atom reduces to
at most two linear equality/inequality rows; feasibility of a nonzero
solution is decided exactly through the null space of the equalities plus
planar ray enumeration (an LP fallback covers null spaces of dimension
three and higher, which the paper-scale examples never reach).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import linprog

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


def _planar_candidates(Cc):
    cands = [np.array(v) for v in ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))]
    for c in Cc:
        cands.append(np.array([c[1], -c[0]]))
        cands.append(np.array([-c[1], c[0]]))
    return cands


def _nonzero_in_cone(E, C):
    """A nonzero z with E z = 0 and C z >= 0, or None if only zero exists."""
    n = E.shape[1] if E.size else C.shape[1]
    E = _normalize_rows(E)
    C = _normalize_rows(C)
    N = null_space(E) if E.shape[0] else np.eye(n)
    d = N.shape[1]
    if d == 0:
        return None
    Cc = _normalize_rows(C @ N) if C.shape[0] else np.zeros((0, d))
    if Cc.shape[0] == 0:
        return N[:, 0]
    if d == 1:
        for s in (1.0, -1.0):
            if np.all(s * Cc[:, 0] >= -FEAS_TOL):
                return s * N[:, 0]
        return None
    if d == 2:
        feas = [u for u in _planar_candidates(Cc) if np.all(Cc @ u >= -FEAS_TOL)]
        if feas:
            return N @ feas[0]
        return None
    # higher-dimensional fallback: bounded LPs per coordinate direction
    for j in range(d):
        for sign in (1.0, -1.0):
            cvec = np.zeros(d)
            cvec[j] = -sign
            res = linprog(cvec, A_ub=-Cc, b_ub=np.zeros(Cc.shape[0]),
                          bounds=[(-1.0, 1.0)] * d, method="highs")
            if res.status == 0 and -res.fun > 1e-7:
                z = res.x
                if np.all(Cc @ z >= -FEAS_TOL) and np.linalg.norm(z) > 1e-7:
                    return N @ z
    return None


def _cone_generators(E, C):
    """Extreme rays plus one interior direction of {E z = 0, C z >= 0}."""
    n = E.shape[1] if E.size else C.shape[1]
    E = _normalize_rows(E)
    C = _normalize_rows(C)
    N = null_space(E) if E.shape[0] else np.eye(n)
    d = N.shape[1]
    if d == 0:
        return []
    Cc = _normalize_rows(C @ N) if C.shape[0] else np.zeros((0, d))
    gens = []
    if Cc.shape[0] == 0:
        for j in range(d):
            gens.append(N[:, j])
            gens.append(-N[:, j])
        if d > 1:
            mix = N @ (np.arange(1, d + 1) / math.sqrt(d))
            gens.append(mix)
            gens.append(-mix)
        return gens
    if d == 1:
        for s in (1.0, -1.0):
            if np.all(s * Cc[:, 0] >= -FEAS_TOL):
                gens.append(s * N[:, 0])
        return gens
    if d == 2:
        feas = [u for u in _planar_candidates(Cc) if np.all(Cc @ u >= -FEAS_TOL)]
        # dedupe in the plane, then add midpoints of adjacent extreme rays
        uniq = []
        for u in feas:
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
    z = _nonzero_in_cone(np.zeros((0, d)), Cc)
    return [N @ (z / np.linalg.norm(z))] if z is not None else []


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


def _witness_membership_residual(combo, emb_rows, z):
    """Largest violation of the constraint rows at z (for witness validation)."""
    E, C = _assemble(combo, emb_rows)
    r = 0.0
    if E.shape[0]:
        r = max(r, float(np.max(np.abs(_normalize_rows(E) @ z))))
    if C.shape[0]:
        r = max(r, float(np.max(np.maximum(-( _normalize_rows(C) @ z), 0.0))))
    return r


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
    examined = 0
    suspect = 0
    for combo in itertools.product(*atoms):
        examined += 1
        E, C = _assemble(combo, emb)
        z = _nonzero_in_cone(E, C)
        if z is not None:
            z = z / np.linalg.norm(z)
            xi = H @ z
            res = _witness_membership_residual(combo, emb, z)
            if res > 1e-9:
                suspect += 1   # near-degenerate system: keep enumerating
                continue
            return CertificateReport(
                condition="NNAMCQ", verdict="fails",
                witnesses=[[xi, z]], pieces_examined=examined,
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
    for combo in itertools.product(*t_atoms):
        examined += 1
        E, C = _assemble(combo, emb_w)
        for w in _cone_generators(E, C):
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
        for combo in itertools.product(*d_atoms):
            examined += 1
            E, C = _assemble(combo, emb_eta)
            z = _nonzero_in_cone(E, C)
            if z is not None:
                z = z / np.linalg.norm(z)
                res = _witness_membership_residual(combo, emb_eta, z)
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
