"""Point-based calmness certificates via exact cone calculus, plus empirical
calmness-modulus estimation for the canonically and PG-perturbed maps (the
oracle's solutions on a grid of perturbations, fed to diagnostics.sampled_modulus).

The multiplier systems of the separable criteria constrain, per coordinate,
the planar vector ((H eta)_i, eta_i) (or (w_i, -(H w)_i) for critical
directions) to an atom of a normal (or tangent) cone.  Each atom reduces to
at most two linear equality/inequality rows, mapped into z-space once per
atom; a combination stacks one such block per coordinate, and
_nonzero_in_cone decides, in any dimension and without an LP, whether the
cone they cut out is {0}.

R(a, b) = (-b, a) maps the tangent embedding (w_i, -(H w)_i) onto the
multiplier embedding ((H w)_i, w_i), and a tangent direction along a piece
of a polyline graph into that piece's normal line, which the directional
limiting normal cone along it contains.  So eta = w is a directional
multiplier along every critical direction w (the symmetric case of Gfrerer
2013 and Gfrerer & Ye 2017): FOSCMS is "inconclusive" as soon as the
critical cone holds a w != 0, never "holds", and (H w, w) then fails NNAMCQ
too, so NNAMCQ holding implies isolated calmness.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import null_space  # noqa: F401  (perfbench/tracing.py wraps calmness.null_space)
from scipy.optimize import linprog  # noqa: F401  (perfbench/tracing.py wraps calmness.linprog)

from .core import ProblemSpec
from .diagnostics import ModulusEstimate, is_proximal_stationary, sampled_modulus
from .graphs_cones import (Atom, directional_limiting_normal_atoms,
                           limiting_normal_atoms, tangent_atoms)
from .oracle import brute_force_set_valued_solve, brute_force_stationary_set

MAX_CERT_DIM = 8       # NNAMCQ enumerates 3^n multiplier systems
MAX_FOSCMS_DIM = 12    # FOSCMS enumerates 2^n tangent systems
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


def _coordinate_rows(atoms, r_s, r_t):
    """Normalised rows (E, C) in z-space of each atom of one coordinate,
    whose planar vector is v(z) = (r_s . z, r_t . z)."""
    blocks = []
    for atom in atoms:
        E, C = (np.reshape(rows, (-1, 2)) for rows in _atom_rows(atom))
        blocks.append((_normalize_rows(E[:, :1] * r_s + E[:, 1:] * r_t),
                       _normalize_rows(C[:, :1] * r_s + C[:, 1:] * r_t)))
    return blocks


def _normalize_rows(M):
    if M.shape[0] == 0:
        return M
    norms = np.linalg.norm(M, axis=1)
    keep = norms > 1e-13
    return M[keep] / norms[keep, None]


def _svd_rank(A, rcond=None):
    """Rank and right singular vectors Vt of A from one SVD.

    The rank counts the singular values above rcond times the largest
    (default eps * max(A.shape)), the rule of scipy.linalg.null_space.
    Vt[rank:] is an orthonormal basis of the null space of A and Vt[:rank]
    one of its row space; a matrix with no rows has rank 0 and Vt = I.
    """
    m, d = A.shape
    if m == 0:
        return 0, np.eye(d)
    _, s, Vt = np.linalg.svd(A)
    if rcond is None:
        rcond = np.finfo(float).eps * max(m, d)
    return int(np.count_nonzero(s > rcond * s[0])), Vt


def _reduce(E, C):
    """Normalised rows E, C as given, a null-space basis N of E, and Cc = C N.

    {E z = 0, C z >= 0} is the image under N of the cone {y : Cc y >= 0}.
    """
    rank, Vt = _svd_rank(E)
    N = Vt[rank:].T
    Cc = _normalize_rows(C @ N) if C.shape[0] and N.shape[1] else np.zeros((0, N.shape[1]))
    return E, C, N, Cc


@functools.lru_cache(maxsize=None)
def _row_subsets(m, k):
    """Index array of all k-subsets of range(m), in lexicographic order."""
    return np.array(list(itertools.combinations(range(m), k)), dtype=np.intp)


def _nonzero_in_cone(N, Cc):
    """A nonzero z = N y with Cc y >= 0, y a unit generator of the cone, or
    None if only y = 0 qualifies; (N, Cc) is the reduction made by _reduce.

    Below full rank, y is the first basis vector of the lineality space
    {Cc y = 0} from one SVD: unit rows bound the largest singular value by
    sqrt(rows), so the rank cutoff keeps |Cc y| <= FEAS_TOL.  At full rank r
    the cone is pointed, and unless it is {0} it has an extreme ray, a unit
    null vector u of r - 1 rows: the last column of a complete QR of each
    (r - 1)-row subset's transpose (rank-deficient subsets give rays that
    need not be extreme, never a point outside the cone), and y is the first
    of +-u in the cone.  One point is all either certificate needs: a
    multiplier fails NNAMCQ, and a critical direction settles FOSCMS.
    """
    d = N.shape[1]
    if d == 0:
        return None
    m = Cc.shape[0]
    rank, Vt = _svd_rank(Cc, FEAS_TOL / math.sqrt(max(m, 1)))
    if rank < d:
        return N @ Vt[rank]
    U = np.linalg.qr(Cc[_row_subsets(m, rank - 1)].transpose(0, 2, 1),
                     mode="complete")[0][:, :, -1]
    P = Cc @ U.T
    pos = np.all(P >= -FEAS_TOL, axis=0)
    neg = np.all(P <= FEAS_TOL, axis=0)
    hits = np.flatnonzero(pos | neg)
    if not hits.size:
        return None
    k = hits[0]
    return N @ (U[k] if pos[k] else -U[k])


def _membership_residual(E, C, z):
    """Largest violation of the normalised rows E z = 0, C z >= 0 at z."""
    r = 0.0
    if E.shape[0]:
        r = max(r, float(np.max(np.abs(E @ z))))
    if C.shape[0]:
        r = max(r, float(np.max(np.maximum(-(C @ z), 0.0))))
    return r


def _systems(atoms, emb_rows):
    """Reduce the system of each combination of one atom per coordinate,
    stacking rows that are built once per atom."""
    blocks = [_coordinate_rows(a, r_s, r_t) for a, (r_s, r_t) in zip(atoms, emb_rows)]
    for combo in itertools.product(*blocks):
        yield _reduce(np.vstack([E for E, _ in combo]), np.vstack([C for _, C in combo]))


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

def _certificate_setup(prob: ProblemSpec, x_bar, tol, max_dim):
    if prob.n > max_dim:
        raise CertificateError("n > %d: use empirical estimation" % max_dim)
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
    x_bar, G, H, points = _certificate_setup(prob, x_bar, tol, MAX_CERT_DIM)
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


def _planar_residual(atoms, v):
    """Membership residual of the planar vector v in its best-fitting atom."""
    return min(_membership_residual(*(np.reshape(rows, (-1, 2)) for rows in _atom_rows(a)), v)
               for a in atoms)


def check_foscms(prob: ProblemSpec, x_bar, tol: float = 1e-8) -> CertificateReport:
    """First-order sufficient condition for metric subregularity.

    Enumerates tangent-atom combinations up to the first critical direction
    w != 0 with (w_i, -(H w)_i) in T_i; with none, isolated calmness holds.
    Otherwise eta = w is a directional multiplier along w (module
    docstring): one membership check confirms it, and the report is
    "inconclusive" with the witness [w, H w, w].  A failed check is a bug,
    raised as RuntimeError, not a verdict.
    """
    x_bar, G, H, points = _certificate_setup(prob, x_bar, tol, MAX_FOSCMS_DIM)
    n = prob.n
    t_atoms = [tangent_atoms(G, p, tol) for p in points]
    emb_w = [(np.eye(n)[i], -H[i]) for i in range(n)]
    examined = 0
    for _, _, N, Cc in _systems(t_atoms, emb_w):
        examined += 1
        w = _nonzero_in_cone(N, Cc)
        if w is not None:
            break
    else:
        return CertificateReport(condition="isolated-calmness", verdict="holds",
                                 pieces_examined=examined,
                                 notes="no nonzero linearized critical direction")
    w = w / np.linalg.norm(w)
    Hw = H @ w
    res = max(_planar_residual(directional_limiting_normal_atoms(G, p, (wi, -hi), tol),
                               np.array([hi, wi])) for p, wi, hi in zip(points, w, Hw))
    if res > FEAS_TOL:
        raise RuntimeError("eta = w = %s is no directional multiplier (membership "
                           "residual %.2e)" % (w.tolist(), res))
    return CertificateReport(
        condition="FOSCMS", verdict="inconclusive",
        witnesses=[[w, Hw, w]], pieces_examined=examined,
        notes="eta = w is a multiplier along the critical direction w "
              "(membership residual %.2e)" % res)


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
    grid_p = map(np.array, itertools.product(*[np.linspace(-radius, radius, grid)] * n))
    solutions = ((x, p) for p in grid_p if np.linalg.norm(p) >= 1e-14
                 for x in brute_force_set_valued_solve(prob, map_kind, p, box, gamma=gamma,
                                                       cells=cells)
                 if np.linalg.norm(x - x_bar) <= loc_radius)
    est = sampled_modulus(solutions, S)
    if est is None:
        raise CertificateError("oracle found no perturbed solutions in the window")
    return est
