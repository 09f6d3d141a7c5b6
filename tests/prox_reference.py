"""The prox enumeration that the compiled prox map replaced, kept as a reference.

_scalar_prox_candidates is verbatim the per-coordinate enumeration calmkit
used before penalties.compile_prox: every piece's clamped vertex and every
finite piece end, the values within TIE_REL_TOL of the best, deduplicated
at 1e-11 relative.  prox_step is verbatim the generic per-set step that
Penalty.prox_step was: select_closest (verbatim the per-coordinate loop
that penalties.select_nearest replaced) on each coordinate's set, and
coordinate_sets_distance to the whole product.  tests/test_prox_kernel.py
checks the compiled map and the selection kernel against them, and
tests/test_penalties.py the group lasso's prox_step.
"""

import math

import numpy as np

from calmkit.penalties import TIE_REL_TOL, _sum


def select_closest(cands, ref):
    """Closest candidate to ref; ties broken toward the smaller value."""
    best = None
    for c in sorted(cands):
        d = abs(c - ref)
        if best is None or d < best[0] - 1e-15:
            best = (d, c)
    return best[1]


def _scalar_prox_candidates(pieces, u, gamma):
    """Global argmin set of phi(t) + (t-u)^2/(2 gamma) over quadratic pieces.

    Each piece is (lo, hi, a2, a1, a0) with phi(t) = a2 t^2 + a1 t + a0 on
    [lo, hi].  Returns the sorted argmin tuple.
    """
    inv2g = 0.5 / gamma

    def total(t, a2, a1, a0):
        d = t - u
        return a2 * t * t + a1 * t + a0 + inv2g * (d * d)

    cands = []
    for lo, hi, a2, a1, a0 in pieces:
        lead = a2 + inv2g
        if lead > 0.0:
            t = (u / gamma - a1) / (2.0 * lead)
            t = min(max(t, lo), hi)
            if math.isfinite(t):
                cands.append((t, total(t, a2, a1, a0)))
        for t in (lo, hi):
            if math.isfinite(t):
                cands.append((t, total(t, a2, a1, a0)))
    best = min(v for _, v in cands)
    if best == math.inf:
        # every value overflowed: the quadratic term dominates, so the
        # candidate nearest u wins
        ts = [t for t, _ in cands]
        return ((max(ts) if u > 0 else min(ts)),)
    tol = TIE_REL_TOL * (1.0 + abs(best))
    mins = sorted(t for t, v in cands if v <= best + tol)
    out = []
    for t in mins:
        if not out or t - out[-1] > 1e-11 * (1.0 + abs(t)):
            out.append(t)
    return tuple(out)


def coordinate_sets_distance(x, sets) -> float:
    """Euclidean distance from x to the product of finite coordinate sets."""
    return math.sqrt(_sum([min(d * d for d in (xi - c for c in s))
                           for xi, s in zip(x, sets)]))


def prox_step(g, x, u, gamma):
    """(x_next, dist(x, Prox(u))) from one evaluation of g's prox sets.

    x_next is the minimizer closest to x, coordinate by coordinate (ties
    toward the smaller value); the distance is to the whole set.
    """
    x = np.asarray(x, dtype=float)
    sets = g.prox_coordinate_sets(np.asarray(u, dtype=float), gamma)
    x_next = np.array([select_closest(s, xi) for s, xi in zip(sets, x)])
    return x_next, coordinate_sets_distance(x, sets)
