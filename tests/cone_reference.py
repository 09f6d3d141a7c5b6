"""Reference for calmness._nonzero_in_cones: the per-combination chain.

Before the certificates decided every system of one shape in one stacked
SVD/QR pass, calmkit.calmness reduced and decided one combination at a time
with the functions below (_systems -> _reduce -> _nonzero_in_cone ->
_multipliers, the per-coordinate rows _coordinate_rows and _normalize_rows,
and the rank rule _svd_rank).  They are kept here verbatim so that tests
can compare the stacked kernel with them, system by system.
reference_nnamcq is check_nnamcq's body as it ran on that chain.
"""

import itertools
import math

import numpy as np

from calmkit.calmness import (FEAS_TOL, MAX_CERT_DIM, CertificateReport, _atom_rows,
                              _certificate_setup, _membership_residual, _row_subsets)
from calmkit.graphs_cones import limiting_normal_atoms


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


def reference_nnamcq(prob, x_bar, tol=1e-8):
    """check_nnamcq as it ran on the per-combination chain.

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
