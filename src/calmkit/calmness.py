"""Point-based calmness certificates via exact cone calculus, plus empirical
calmness-modulus estimation for the canonically and PG-perturbed maps (the
oracle's solutions on a grid of perturbations, fed to diagnostics.sampled_modulus).

The multiplier systems of the separable criteria constrain, per coordinate,
the planar vector ((H eta)_i, eta_i) (or (w_i, -(H w)_i) for critical
directions) to an atom of a normal (or tangent) cone.  Each atom reduces to
at most two linear equality/inequality rows, mapped into z-space once per
atom; a combination stacks one such block per coordinate.  The stacked
kernel _nonzero_in_cones decides every combination of one shape (numbers
of equality and inequality rows) in one batched SVD/QR pass, in any
dimension and without an LP: is the cone they cut out {0}?

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

from .core import ProblemSpec, distance_to_set
from .diagnostics import ModulusEstimate, is_proximal_stationary, sampled_modulus
from .graphs_cones import (Atom, directional_limiting_normal_atoms,
                           limiting_normal_atoms, tangent_atoms)
from .oracle import brute_force_set_valued_solve, brute_force_stationary_set

MAX_CERT_DIM = 8       # NNAMCQ enumerates 3^n multiplier systems
MAX_FOSCMS_DIM = 12    # FOSCMS enumerates 2^n tangent systems
FEAS_TOL = 1e-9
CERT_CHUNK = 729       # combinations decided per stacked pass, in product order,
FIRST_CHUNK = 9        # after a first small pass, so that an early witness stops early
QR_SUBSETS = 8192      # row subsets per batched QR (at least one system's)


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


def _atom_table(atoms, R_s, R_t):
    """The normalised rows in z-space of every atom of every coordinate, in
    coordinate order, where coordinate i's planar vector is
    v(z) = (R_s[i] . z, R_t[i] . z); rows of norm <= 1e-13 are dropped.
    Also, per atom in that order, the table indices of its E rows (pad[0])
    and of its C rows (pad[1]), padded with -1: shape (2, atoms, 2).
    """
    planar, coordinate, slot = [], [], []
    a = 0
    for i, coordinate_atoms in enumerate(atoms):
        for atom in coordinate_atoms:
            for j, rows in enumerate(_atom_rows(atom)):
                planar += rows
                coordinate += [i] * len(rows)
                slot += [(j, a, k) for k in range(len(rows))]
            a += 1
    P = np.array(planar, dtype=float).reshape(-1, 2)
    coordinate = np.array(coordinate, dtype=np.intp)
    M = P[:, :1] * R_s[coordinate] + P[:, 1:] * R_t[coordinate]
    norms = np.sqrt((M * M).sum(axis=1))
    keep = norms > 1e-13
    index = keep.cumsum() - 1
    index[~keep] = -1
    pad = np.full((2, a, 2), -1, dtype=np.intp)
    pad[tuple(np.array(slot, dtype=np.intp).reshape(-1, 3).T)] = index
    return M[keep] / norms[keep, None], pad


def _svd_ranks(A, rcond=None):
    """Ranks (B,) and right singular vectors Vt (B, d, d) of a stack A of
    shape (B, m, d), from one batched SVD.

    Each rank counts the singular values above rcond times the largest
    (default eps * max(m, d)), the rule of scipy.linalg.null_space.
    Vt[b, rank:] is an orthonormal basis of the null space of A[b] and
    Vt[b, :rank] one of its row space; matrices with no rows have rank 0
    and Vt = I.
    """
    B, m, d = A.shape
    if m == 0:
        return np.zeros(B, dtype=np.intp), np.broadcast_to(np.eye(d), (B, d, d))
    _, s, Vt = np.linalg.svd(A)
    if rcond is None:
        rcond = np.finfo(float).eps * max(m, d)
    return (s > rcond * s[:, :1]).sum(axis=1), Vt


@functools.lru_cache(maxsize=None)
def _row_subsets(m, k):
    """Index array of all k-subsets of range(m), in lexicographic order."""
    return np.array(list(itertools.combinations(range(m), k)), dtype=np.intp)


def _groups(keys):
    """(key, indices) per distinct value of the integer array keys."""
    if keys.size == 1 or (keys == keys[0]).all():
        return [(int(keys[0]), np.arange(keys.size))]
    return [(k, np.flatnonzero(keys == k)) for k in np.unique(keys).tolist()]


def _cone_points(N, Cc):
    """A point z = N y of each system of a stack, with y a unit generator of
    the cone {y : Cc y >= 0}, and whether that cone is not {0}: z (b, n)
    and ok (b,) for N (b, n, d) and unit rows Cc (b, m, d).

    Below full rank, y is the first basis vector of the lineality space
    {Cc y = 0} from one SVD: unit rows bound the largest singular value by
    sqrt(m), so the rank cutoff keeps |Cc y| <= FEAS_TOL.  At full rank d the
    cone is pointed, and unless it is {0} it has an extreme ray, a unit null
    vector u of d - 1 rows: the last column of a complete QR of each
    (d - 1)-row subset's transpose (rank-deficient subsets give rays that
    need not be extreme, never a point outside the cone), and y is the first
    of +-u, in subset order, in the cone.  The QR runs over the subsets of
    as many systems at once as QR_SUBSETS allows, which bounds its memory.
    N u reads u in place, as a column of Q, and N (-u) from a copy: BLAS's
    matrix-vector product rounds differently at the two strides, and these
    are the strides at which z was always computed.
    """
    b, m, d = Cc.shape
    rank, Vt = _svd_ranks(Cc, FEAS_TOL / math.sqrt(max(m, 1)))
    Y = Vt[np.arange(b), np.minimum(rank, d - 1)]    # full-rank rows are replaced below
    Z = (N @ Y[:, :, None])[:, :, 0]
    ok = np.ones(b, dtype=bool)
    full = np.flatnonzero(rank == d)
    if not full.size:
        return Z, ok
    subsets = _row_subsets(m, d - 1)
    step = max(1, QR_SUBSETS // len(subsets))
    for lo in range(0, full.size, step):
        at = full[lo:lo + step]
        Cf = Cc[at]
        Q = np.linalg.qr(Cf[:, subsets].transpose(0, 1, 3, 2), mode="complete")[0]
        P = Cf @ Q[..., -1].transpose(0, 2, 1)
        pos = (P >= -FEAS_TOL).all(axis=1)
        hits = pos | (P <= FEAS_TOL).all(axis=1)
        i, k = np.arange(at.size), hits.argmax(axis=1)
        ok[at] = hits[i, k]
        Q, pos = Q[i, k], pos[i, k]
        Z[at[pos]] = (N[at[pos]] @ Q[pos][:, :, -1:])[:, :, 0]
        Z[at[~pos]] = (N[at[~pos]] @ -Q[~pos][:, :, -1:])[:, :, 0]
    return Z, ok


def _nonzero_in_cones(E, C):
    """Decide a stack of systems {E z = 0, C z >= 0} in one batched pass.

    E (B, mE, n) and C (B, mC, n) hold normalised rows.  Returns found (B,),
    a unit z (B, n) of each system that has a nonzero solution (zero rows
    elsewhere) and the membership residual of z in its system (B,), 0.0
    where none was found.  One point is all either certificate needs: a
    multiplier fails NNAMCQ, and a critical direction settles FOSCMS.

    A batched SVD gives each system a null-space basis N of E; the systems
    are grouped by its dimension d.  {E z = 0, C z >= 0} is the image under N
    of the cone {y : Cc y >= 0}, where Cc = C N with its rows normalised and
    rows of norm <= 1e-13 dropped; the systems are grouped again by which
    rows they keep, and _cone_points decides each group.
    """
    B, mE, n = E.shape
    mC = C.shape[1]
    found = np.zeros(B, dtype=bool)
    Z = np.zeros((B, n))
    rank, Vt = _svd_ranks(E)
    for r, at in _groups(rank):
        if r == n:
            continue
        N = Vt[at, r:].transpose(0, 2, 1)
        M = C[at] @ N
        norms = np.sqrt((M * M).sum(axis=2))
        keep = norms > 1e-13
        for _, g in _groups(keep @ (1 << np.arange(mC))):
            rows = keep[g[0]]
            z, ok = _cone_points(N[g], M[g][:, rows] / norms[g][:, rows, None])
            found[at[g[ok]]] = True
            Z[at[g[ok]]] = z[ok]
    res = np.zeros(B)
    hit = np.flatnonzero(found)
    if hit.size:
        z = Z[hit]
        z = z / np.sqrt(z[:, None, :] @ z[:, :, None])[:, 0]
        Z[hit] = z
        z = z[:, :, None]
        if mE:
            res[hit] = np.max(np.abs(E[hit] @ z), axis=(1, 2))
        if mC:
            res[hit] = np.maximum(res[hit], np.max(np.maximum(-(C[hit] @ z), 0.0), axis=(1, 2)))
    return found, Z, res


def _membership_residual(E, C, z):
    """Largest violation of the normalised rows E z = 0, C z >= 0 at z."""
    r = 0.0
    if E.shape[0]:
        r = max(r, float(np.max(np.abs(E @ z))))
    if C.shape[0]:
        r = max(r, float(np.max(np.maximum(-(C @ z), 0.0))))
    return r


def _combinations(atoms, R_s, R_t):
    """Decide the system of each combination of one atom per coordinate, in
    itertools.product order: yields (found, z, residual) of _nonzero_in_cones
    for the first FIRST_CHUNK combinations, then per chunk of CERT_CHUNK.
    Coordinate i's planar vector is v(z) = (R_s[i] . z, R_t[i] . z).

    The table of _atom_table lists the rows in coordinate order, so a
    combination's rows are its atoms' table indices in ascending order; each
    chunk's systems go to the kernel grouped by their numbers of equality
    and inequality rows.
    """
    table, pad = _atom_table(atoms, R_s, R_t)
    sizes = [len(a) for a in atoms]
    first = np.array([0, *itertools.accumulate(sizes[:-1])])
    total = math.prod(sizes)
    width = 2 * len(sizes)
    bounds = [0, *range(min(FIRST_CHUNK, total), total, CERT_CHUNK), total]
    for lo, hi in zip(bounds, bounds[1:]):
        digits = np.unravel_index(np.arange(lo, hi), sizes)
        idx = pad[:, np.transpose(digits) + first].reshape(2, -1, width)
        idx.sort(axis=2)    # pads first, then each system's rows in order
        mE, mC = (idx >= 0).sum(axis=2)
        b = len(mE)
        found, Z, res = np.zeros(b, dtype=bool), np.zeros((b, table.shape[1])), np.zeros(b)
        for key, g in _groups(mE * (width + 1) + mC):
            e, c = divmod(key, width + 1)
            found[g], Z[g], res[g] = _nonzero_in_cones(table[idx[0, g, width - e:]],
                                                       table[idx[1, g, width - c:]])
        yield found, Z, res


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
    examined = suspect = 0
    for found, Z, res in _combinations(atoms, H, np.eye(n)):
        hits = np.flatnonzero(found)
        near = res[hits] > FEAS_TOL    # near-degenerate systems: keep enumerating
        if near.all():
            examined += found.size
            suspect += hits.size
            continue
        k = hits[np.argmin(near)]
        z = Z[k]
        return CertificateReport(
            condition="NNAMCQ", verdict="fails",
            witnesses=[[H @ z, z]], pieces_examined=examined + int(k) + 1,
            notes="nonzero multiplier (xi, eta); membership residual %.2e" % res[k])
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
    examined = 0
    for found, W, _ in _combinations(t_atoms, np.eye(n), -H):
        if found.any():
            k = int(np.argmax(found))
            examined += k + 1
            w = W[k]
            break
        examined += found.size
    else:
        return CertificateReport(condition="isolated-calmness", verdict="holds",
                                 pieces_examined=examined,
                                 notes="no nonzero linearized critical direction")
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
    solutions = ((x, p, distance_to_set(x, S))
                 for p in grid_p if np.linalg.norm(p) >= 1e-14
                 for x in brute_force_set_valued_solve(prob, map_kind, p, box, gamma=gamma,
                                                       cells=cells)
                 if np.linalg.norm(x - x_bar) <= loc_radius)
    est = sampled_modulus(solutions)
    if est is None:
        raise CertificateError("oracle found no perturbed solutions in the window")
    return est
