"""Reference for check_foscms: the directional multiplier enumeration.

check_foscms stops at the first linearized critical direction w and checks
that eta = w is a directional multiplier along it.  Before that shortcut,
FOSCMS enumerated one directional-limiting-normal atom per coordinate at w
and asked each combination for a nonzero multiplier; this module keeps that
enumeration so that tests can compare the two verdicts.
"""

import numpy as np

from calmkit.calmness import MAX_FOSCMS_DIM, _certificate_setup
from calmkit.graphs_cones import directional_limiting_normal_atoms, tangent_atoms

from cone_reference import _multipliers, _nonzero_in_cone, _systems


def reference_foscms(prob, x_bar, tol=1e-8):
    """(condition, verdict, w) with w the first unit critical direction
    (None when the critical cone is {0})."""
    x_bar, G, H, points = _certificate_setup(prob, x_bar, tol, MAX_FOSCMS_DIM)
    n = prob.n
    t_atoms = [tangent_atoms(G, p, tol) for p in points]
    emb_w = [(np.eye(n)[i], -H[i]) for i in range(n)]
    for _, _, N, Cc in _systems(t_atoms, emb_w):
        w = _nonzero_in_cone(N, Cc)
        if w is not None:
            break
    else:
        return "isolated-calmness", "holds", None
    w = w / np.linalg.norm(w)
    Hw = H @ w
    d_atoms = [directional_limiting_normal_atoms(G, points[i], (w[i], -Hw[i]), tol)
               for i in range(n)]
    emb_eta = [(H[i], np.eye(n)[i]) for i in range(n)]
    for z, _ in _multipliers(d_atoms, emb_eta):
        if z is not None:
            return "FOSCMS", "inconclusive", w
    return "FOSCMS", "holds", w
