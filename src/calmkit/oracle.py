"""Brute-force ground truth: scalar global minimization, stationary sets,
and perturbed stationary-set solves on boxes (n <= 2).

Every derived expected value in the test suite traces back to these
routines, which never share code paths with the analytic implementations
they check.
"""

from __future__ import annotations

import math

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class OracleError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# one-dimensional global minimization

def _golden_refine(fn, lo, hi, tol=1e-12, max_iter=200):
    a, b = lo, hi
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(max_iter):
        if b - a <= tol * (1.0 + abs(a) + abs(b)):
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = fn(x2)
    xs = [a, 0.5 * (a + b), b]
    vs = [fn(x) for x in xs]
    i = int(np.argmin(vs))
    return xs[i], vs[i]


def brute_force_scalar_min(fn, lo, hi, grid, chunk=2_000_000, fn_scalar=None,
                           refine_tol=1e-12):
    """All global minimizers of a scalar function on [lo, hi].

    fn must accept numpy arrays (fn_scalar, when given, is a cheap scalar
    variant used during refinement).  Dense scan at step `grid`,
    golden-section refinement of every local basin, then value filtering.
    Returns (points, value, boundary_flag): boundary_flag is set when the
    optimum sits on the scan boundary.
    """
    m = int(math.ceil((hi - lo) / grid)) + 1
    if m < 5:
        m = 5
    cand_idx = []
    start = 0
    scalar = fn_scalar if fn_scalar is not None \
        else (lambda t: float(fn(np.array([t]))[0]))
    while start < m:
        stop = min(start + chunk, m)
        idx = np.arange(max(start - 1, 0), min(stop + 1, m))
        ts = lo + idx * grid
        vs = fn(ts)
        interior = np.arange(1, len(idx) - 1)
        loc = interior[(vs[interior] <= vs[interior - 1]) & (vs[interior] <= vs[interior + 1])]
        loc = loc[np.isfinite(vs[loc])]
        cand_idx.extend(int(idx[i]) for i in loc)
        if start == 0 and vs[0] <= vs[1] and math.isfinite(vs[0]):
            cand_idx.append(int(idx[0]))
        if stop == m and vs[-1] <= vs[-2] and math.isfinite(vs[-1]):
            cand_idx.append(int(idx[-1]))
        start = stop
    if not cand_idx:
        return [], math.inf, True   # nothing finite in the window: expand
    refined = []
    for i in sorted(set(cand_idx)):
        a = lo + max(i - 1, 0) * grid
        b = lo + min(i + 1, m - 1) * grid
        t, v = _golden_refine(scalar, a, b, tol=refine_tol)
        refined.append((t, v))
    best = min(v for _, v in refined)
    if not math.isfinite(best):
        return [], best, True   # whole window infeasible: expand
    tol = 1e-9 * (1.0 + abs(best))
    pts = sorted(t for t, v in refined if v <= best + tol)
    out = []
    for t in pts:
        if not out or abs(t - out[-1]) > max(2.0 * grid, 1e-10):
            out.append(t)
    edge = max(2.0 * grid, 1e-9 * (1.0 + max(abs(lo), abs(hi))))
    boundary = any(t <= lo + edge or t >= hi - edge for t in out)
    return out, best, boundary


def brute_force_prox(penalty, u, gamma, window=None, grid=1e-5,
                     refine_tol=1e-12):
    """Global argmin set of phi(t) + (t-u)^2/(2 gamma) for a scalar penalty.

    Defaults: window 50*(1+|u|), grid 1e-5.  The window auto-expands once
    if the optimum hits the boundary.
    """
    if not penalty.separable:
        raise OracleError("scalar prox oracle needs a separable penalty")
    u = float(u)
    if window is None:
        window = 50.0 * (1.0 + abs(u))

    def fn(ts):
        return penalty.value_many(ts[:, None]) + (ts - u) ** 2 / (2.0 * gamma)

    def fn_scalar(t):
        return penalty.scalar_value(t) + (t - u) ** 2 / (2.0 * gamma)

    for _attempt in range(2):
        lo, hi = u - window, u + window
        pts, _val, boundary = brute_force_scalar_min(fn, lo, hi, grid,
                                                     fn_scalar=fn_scalar,
                                                     refine_tol=refine_tol)
        if not boundary:
            return pts
        window *= 2.0
    raise OracleError("prox oracle window exhausted (argmin on boundary)")


# ---------------------------------------------------------------------------
# stationary sets and perturbed solves on boxes (n <= 2)

def _grid_centers(box_lo, box_hi, cells):
    axes = [np.linspace(lo + (hi - lo) / (2 * cells), hi - (hi - lo) / (2 * cells), cells)
            for lo, hi in zip(box_lo, box_hi)]
    return axes


def _cartesian(axes):
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1)


def _exact_residual(penalty, target, x, limiting=False):
    """max_i dist(target_i(x), subdiff(x_i)) with exact interval sets."""
    sd = penalty.limiting_subdiff if limiting else penalty.prox_subdiff
    t = target(x[None, :])[0]
    return max(sd(float(xi)).distance(float(ti)) for xi, ti in zip(x, t))


def _refine_candidate(penalty, target, center, radius, limiting, accept_tol):
    """Shrinking stencil descent on the membership residual, to radius 1e-8.

    The residual can dip discontinuously exactly on kink hyperplanes (the
    subdifferential widens only there), so every stencil round also probes
    coordinates snapped onto breakpoints within the current radius.
    Acceptance is decided by the snap stage afterwards.
    """
    import itertools as _it
    n = len(center)
    bps = penalty.breakpoints()
    x = np.array(center, dtype=float)
    r = radius
    best = _exact_residual(penalty, target, x, limiting)
    for _ in range(4000):
        if r <= 1e-8:
            break
        axis_cands = []
        for i in range(n):
            vals = [x[i] - r, x[i], x[i] + r]
            vals.extend(b for b in bps if abs(b - x[i]) <= r)
            axis_cands.append(vals)
        improved = False
        for c in _it.product(*axis_cands):
            v = _exact_residual(penalty, target, np.array(c), limiting)
            if v < best:
                best = v
                x = np.array(c)
                improved = True
        if not improved:
            r *= 0.5
    return x, best


def _snap_and_accept(penalty, target, x, res, limiting, accept_tol, lip,
                     snap_radius=1e-6):
    """Kink-aware acceptance of a refined candidate.

    Membership residuals can vanish in the limit toward a breakpoint whose
    own subdifferential excludes the target (the downward kink); candidates
    that collapsed onto a breakpoint are therefore re-tested exactly at it
    and discarded when the breakpoint fails.
    """
    bps = penalty.breakpoints()
    snapped = np.array(x, dtype=float)
    moved = 0.0
    for i, xi in enumerate(x):
        for b in bps:
            if abs(xi - b) <= snap_radius:
                snapped[i] = b
                moved = max(moved, abs(xi - b))
                break
    if moved > 0.0:
        res_s = _exact_residual(penalty, target, snapped, limiting)
        if res_s <= accept_tol + 4.0 * (lip + 1.0) * moved:
            return snapped, res_s
        if moved <= 1e-7:
            return None, res     # collapsed onto an inadmissible breakpoint
    if res <= accept_tol:
        return np.array(x, dtype=float), res
    return None, res


def _membership_scan(prob, target, box_lo, box_hi, cells, limiting, lip_bound,
                     accept_tol=1e-7, dedup_radius=None):
    """All x in the box with target_i(x) in subdiff(g_i)(x_i) per coordinate.

    target maps an (N, n) array of points to an (N, n) array of required
    subgradient values.  Candidate cells come from a vectorized hull test
    with a Lipschitz margin; each candidate is refined by shrinking stencil
    descent on the exact residual.
    """
    penalty = prob.penalty
    if not penalty.separable:
        raise OracleError("membership scan needs a separable penalty")
    n = len(box_lo)
    axes = _grid_centers(box_lo, box_hi, cells)
    half = [(hi - lo) / (2 * cells) for lo, hi in zip(box_lo, box_hi)]
    cell_radius = math.sqrt(sum(h * h for h in half))
    margin = lip_bound * cell_radius * 1.05 + 1e-12

    # per-axis subdifferential hulls over each cell (breakpoint-aware; the
    # inclusion test is padded so breakpoints on shared cell edges count
    # for both neighbors)
    hulls = []
    for ax, h in zip(axes, half):
        probes = [ax - h, ax, ax + h]
        for b in penalty.breakpoints():
            pad = 1e-9 * (1.0 + abs(b)) + 1e-6 * h
            inside = (ax - h - pad <= b) & (b <= ax + h + pad)
            for off in (-1e-3 * h, 0.0, 1e-3 * h):
                pt = np.where(inside, b + off, ax)
                probes.append(pt)
        los, his = [], []
        for pvec in probes:
            lo_b, hi_b = penalty.subdiff_bounds_array(pvec, limiting)
            los.append(lo_b)
            his.append(hi_b)
        hulls.append((np.min(np.stack(los), axis=0), np.max(np.stack(his), axis=0)))

    X = _cartesian(axes)
    T = target(X)
    shape = tuple(len(a) for a in axes)
    keep = np.ones(X.shape[0], dtype=bool)
    for i in range(n):
        lo_h, hi_h = hulls[i]
        idx = np.unravel_index(np.arange(X.shape[0]), shape)[i]
        keep &= (T[:, i] + margin >= lo_h[idx]) & (T[:, i] - margin <= hi_h[idx])
    centers = X[keep]

    results, discarded = [], 0
    for c in centers:
        x, res = _refine_candidate(penalty, target, c, cell_radius, limiting,
                                   accept_tol)
        x, res = _snap_and_accept(penalty, target, x, res, limiting,
                                  accept_tol, lip_bound)
        if x is not None:
            results.append((x, res))
        else:
            discarded += 1

    if dedup_radius is None:
        dedup_radius = 2.0 * cell_radius
    results.sort(key=lambda t: (t[1], tuple(t[0])))
    points = []
    for x, _res in results:
        if not any(np.linalg.norm(x - p) <= dedup_radius for p in points):
            points.append(x)
    points.sort(key=tuple)
    warnings = []
    if discarded:
        warnings.append("%d candidate cells discarded (residual above %g "
                        "after refinement to radius 1e-8)" % (discarded, accept_tol))
    for p in points:
        if any(p[i] <= box_lo[i] + 2 * half[i] or p[i] >= box_hi[i] - 2 * half[i]
               for i in range(n)):
            warnings.append("solution %s near box boundary" % (p.tolist(),))
    return points, warnings


def _lipschitz_for_scan(prob, box_lo, box_hi):
    from .losses import Box
    loss = prob.loss
    box = Box(np.asarray(box_lo, dtype=float), np.asarray(box_hi, dtype=float))
    if loss.needs_box:
        return loss.lipschitz_bound(box).value
    return loss.lipschitz_bound().value


def brute_force_stationary_set(prob, box, cells=400, limiting=False,
                               dedup_radius=None):
    """Proximal (or limiting) stationary points of F = f + g inside a box.

    box: pair of arrays (lo, hi).  Returns a StationarySetApprox backed by
    the cell scan; boundary hits are reported on the result's warnings.
    """
    from .core import StationarySetApprox
    box_lo, box_hi = (np.asarray(b, dtype=float) for b in box)
    if prob.n > 2:
        raise OracleError("stationary-set oracle supports n <= 2 only")
    target = lambda X: -prob.loss.gradient_many(X)
    lip = _lipschitz_for_scan(prob, box_lo, box_hi)
    pts, warnings = _membership_scan(prob, target, box_lo, box_hi, cells,
                                     limiting, lip, dedup_radius=dedup_radius)
    return StationarySetApprox(points=np.array(pts).reshape(-1, prob.n),
                               radius=1e-6, method="oracle-grid", warnings=warnings)


def brute_force_set_valued_solve(prob, map_kind, p, box, gamma=None, cells=400,
                                 dedup_radius=None):
    """Solutions of the perturbed inclusions on a box (n <= 2).

    map_kind 'S_cano':  p in grad f(x) + prox-subdiff g(x)
    map_kind 'S_PG':    p/gamma in grad f(x + p) + prox-subdiff g(x)
    Returns a (possibly empty) list of solution vectors.
    """
    box_lo, box_hi = (np.asarray(b, dtype=float) for b in box)
    if prob.n > 2:
        raise OracleError("set-valued solve supports n <= 2 only")
    p = np.asarray(p, dtype=float)
    if map_kind == "S_cano":
        target = lambda X: p[None, :] - prob.loss.gradient_many(X)
    elif map_kind == "S_PG":
        if gamma is None:
            raise OracleError("S_PG needs gamma")
        target = lambda X: (p / gamma)[None, :] - prob.loss.gradient_many(X + p[None, :])
    else:
        raise OracleError("unknown map kind %r" % map_kind)
    lip = _lipschitz_for_scan(prob, box_lo - np.abs(p), box_hi + np.abs(p))
    pts, _warnings = _membership_scan(prob, target, box_lo, box_hi, cells,
                                      False, lip, dedup_radius=dedup_radius)
    return pts
