"""Reference for oracle._cell_roots: one Gauss-Newton solve per combination.

Before the oracle solved every (cell, combination) system of a scan as the
rows of one stacked Gauss-Newton loop, calmkit.oracle solved each kept
cell's combinations one at a time with _solve_in_cell below, one lstsq per
step.  It is kept here verbatim, with its helper _strictly_inside, so that
tests can compare the stacked solve with it, cell by cell.  target_jac is
the one-point Jacobian it was written for: pass
lambda x: batched_jac(x[None])[0].
"""

import itertools
import math

import numpy as np

from calmkit.oracle import ACCEPT_TOL, EPS, NEWTON_MAX_ITER


def _strictly_inside(t, lo, hi):
    """t lies in (lo, hi), farther than 1e-12 (1 + |end|) from each finite end."""
    return ((math.isinf(lo) or t - lo > 1e-12 * (1.0 + abs(lo)))
            and (math.isinf(hi) or hi - t > 1e-12 * (1.0 + abs(hi))))


def _solve_in_cell(penalty, target, target_jac, lo, hi, options, limiting):
    """Every solution in the closed cell [lo, hi]: one Gauss-Newton solve
    per combination of the coordinates' options, started at the cell centre.

    On the free coordinates the equations are target_i(x) = 2 a2 x_i + a1,
    with Jacobian target_jac restricted to them minus diag(2 a2).  Steps are
    minimum-norm, so a singular Jacobian (a continuum of roots) returns the
    centre's projection onto the continuum.  The solve stops at a
    non-finite residual, at a step below 4 eps (1 + |x|) on every free
    coordinate, or after NEWTON_MAX_ITER steps.
    """
    found = []
    edge_slack = [4.0 * EPS * (1.0 + np.abs(e)) for e in (lo, hi)]
    for combo in itertools.product(*options):
        free = [i for i, o in enumerate(combo) if isinstance(o, tuple)]
        x = np.array([0.5 * (a + b) if isinstance(o, tuple) else o
                      for a, b, o in zip(lo, hi, combo)])
        if free:
            a2, a1 = (np.array([combo[i][k] for i in free]) for k in (2, 3))
            sub, curvature = np.ix_(free, free), np.diag(2.0 * a2)
            for _ in range(NEWTON_MAX_ITER):
                r = target(x[None, :])[0][free] - (2.0 * a2 * x[free] + a1)
                if not np.all(np.isfinite(r)):
                    break
                step = np.linalg.lstsq(target_jac(x)[sub] - curvature, -r, rcond=None)[0]
                x[free] += step
                if np.all(np.abs(step) <= 4.0 * EPS * (1.0 + np.abs(x[free]))):
                    break
        if not (np.all(lo - edge_slack[0] <= x) and np.all(x <= hi + edge_slack[1])):
            continue
        x = np.clip(x, lo, hi)
        if not all(_strictly_inside(x[i], *combo[i][:2]) for i in free):
            continue   # a root at a piece end is its breakpoint option's to accept
        res = max(penalty.subdiff_distances(x, target(x[None, :])[0], limiting))
        if res <= ACCEPT_TOL:
            found.append((x, res))
    return found
