"""Brute-force ground truth: scalar global minimization, stationary sets,
and perturbed stationary-set solves on boxes (n <= 2).

One scan serves the stationary set S(0) = S_cano(0) and the perturbed maps
S_cano(p) and S_PG(p).  Each axis has one option table: the penalty's
pieces, where the inclusion is an equation, then its breakpoints, where the
coordinate is fixed, and a mask of the options each cell side has.  The
scan keeps the grid cells whose target lies near the hull of the options'
values, solves every combination of a kept cell's options once, and counts
a root only if it lies in the closed cell and passes the exact residual
(subdiff_distances).  A root on an edge two cells share can come out of
either cell's solve a few ulps outside it, so a root within
4 eps (1 + |edge|) of the cell is clipped onto the cell (the box keeps every
point) and judged there.  Roots within POINT_RADIUS of each other are one
point.

Each combination is solved by Gauss-Newton from the cell centre, with the
target's own Jacobian: minus the loss's Hessian (central differences of the
target for a loss without one) less the pieces' curvature.  A scan solves
all of its kept cells' combinations as the rows of one stacked loop: each
step evaluates the target and the Jacobian once on every row still running
and takes a stacked minimum-norm step, and each row stops on its own rule.
Minimum-norm steps solve an affine system in one step, and a continuum of
roots (a singular Jacobian) yields the projection of the centre onto it.
The Jacobian only steers the solve; the residual alone accepts a root.

Every derived expected value in the test suite traces back to these
routines.  They read a penalty only through its piece table, its values and
its subdifferentials, and share no prox, solver or cone code with what they
check.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ConfigError, StationarySetApprox
from .losses import EPS, Box
from .penalties import TIE_REL_TOL

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_MAX_ITER = 200
SCAN_CHUNK = 2_000_000   # grid points per vectorized evaluation of the scalar scan
ACCEPT_TOL = 1e-7   # exact residual at which a cell root counts as a solution
NEWTON_MAX_ITER = 60
FD_STEP = 1e-6      # central-difference step of the target's Jacobian without a Hessian
POINT_RADIUS = 1e-6   # localization radius of an oracle point: roots this close are one


class OracleError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# one-dimensional global minimization

def _golden_refine(fn, lo, hi, tol=1e-12):
    a, b = lo, hi
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(GOLDEN_MAX_ITER):
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


def brute_force_scalar_min(fn, lo, hi, grid, fn_scalar=None, refine_tol=1e-12,
                           kinks=()):
    """All global minimizers of a scalar function on [lo, hi].

    fn must accept numpy arrays (fn_scalar, when given, is a cheap scalar
    variant used during refinement).  Dense scan at step `grid`,
    golden-section refinement of every local basin (a kink in the bracket,
    a point where fn may be nonsmooth, wins a tie: its value is exact), then
    value filtering at the prox's tie tolerance TIE_REL_TOL * (1 + |best|).
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
        stop = min(start + SCAN_CHUNK, m)
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
        at_kinks = [(k, scalar(k)) for k in kinks if a <= k <= b]
        refined.append(min(at_kinks + [_golden_refine(scalar, a, b, tol=refine_tol)],
                           key=lambda tv: tv[1]))
    best = min(v for _, v in refined)
    if not math.isfinite(best):
        return [], best, True   # whole window infeasible: expand
    tol = TIE_REL_TOL * (1.0 + abs(best))
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
        raise ConfigError("the prox oracle needs a separable penalty")
    if not (gamma > 0 and grid > 0 and (window is None or window > 0)):
        raise ConfigError("the prox oracle needs gamma, grid and window > 0")
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
                                                     refine_tol=refine_tol,
                                                     kinks=penalty.breakpoints())
        if not boundary:
            return pts
        window *= 2.0
    raise OracleError("prox oracle window exhausted (argmin on boundary)")


# ---------------------------------------------------------------------------
# stationary sets and perturbed solves on boxes (n <= 2)

def _cartesian(axes):
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1)


def _option_table(penalty, left, right, limiting):
    """One axis's option table over its cell sides [left, right].

    The options are rows (lo, hi, a2, a1): the pieces, then each breakpoint
    t as (t, t, 0, 0).  A piece (lo < hi) whose open interval meets a side
    makes the inclusion the equation target_i(x) = 2 a2 x_i + a1 there; a
    breakpoint on the closed side fixes x_i = t and leaves membership to the
    exact residual.  Returns the options, the (cells, options) mask of the
    ones each side has, and each side's hull of its options' values (a
    piece's slope at the ends of its overlap with the side, the
    subdifferential at a breakpoint), empty as (+inf, -inf).
    """
    plo, phi, a2, a1 = np.array([piece[:4] for piece in penalty.pieces]).T
    t = np.array(penalty.breakpoints(), dtype=float)
    options = np.vstack([np.column_stack([plo, phi, a2, a1]),
                         np.column_stack([t, t, 0.0 * t, 0.0 * t])])
    L, R = left[:, None], right[:, None]
    has = np.hstack([(plo < R) & (phi > L), (L <= t) & (t <= R)])
    ends = [2.0 * a2 * np.maximum(plo, L) + a1, 2.0 * a2 * np.minimum(phi, R) + a1]
    bl, bh = (np.broadcast_to(b, (len(left), len(t)))
              for b in penalty.subdiff_bounds_array(t, limiting))
    lo_h = np.where(has, np.hstack([np.minimum(*ends), bl]), math.inf).min(axis=1)
    hi_h = np.where(has, np.hstack([np.maximum(*ends), bh]), -math.inf).max(axis=1)
    return options, has, lo_h, hi_h


def _strictly_inside(t, lo, hi):
    """t lies in (lo, hi), farther than 1e-12 (1 + |end|) from each finite end."""
    return ((np.isinf(lo) | (t - lo > 1e-12 * (1.0 + np.abs(lo))))
            & (np.isinf(hi) | (hi - t > 1e-12 * (1.0 + np.abs(hi)))))


def _cell_roots(penalty, target, target_jac, lo, hi, options, has, limiting):
    """Every accepted root of the cells [lo, hi] (rows of (C, n) arrays):
    one Gauss-Newton solve per combination of each cell's options, all
    combinations of all cells stacked as the rows of one solve.

    has holds one (C, options) mask per axis.  A row starts at the cell
    centre on its free coordinates (pieces) and at the breakpoint on its
    fixed ones.  On the free coordinates the equations are
    target_i(x) = 2 a2 x_i + a1, with Jacobian target_jac restricted to them
    minus diag(2 a2).  Steps are minimum-norm with lstsq's cutoff, eps times
    the free count, so a singular Jacobian (a continuum of roots) returns
    the centre's projection onto the continuum.  A row stops at a
    non-finite residual, at a step of at most 4 eps (1 + |x|) on every free
    coordinate, or after NEWTON_MAX_ITER steps.  A root within that slack
    of its cell is clipped onto it; it counts when it lies strictly inside
    its pieces and its exact residual (subdiff_distances) is at most
    ACCEPT_TOL.  Returns the roots, their residuals and their cells' rows.
    """
    n = lo.shape[1]
    combos = np.indices((len(options),) * n).reshape(n, -1).T   # itertools.product order
    valid = has[0][:, combos[:, 0]]   # the cell side has every option of the combination
    for i in range(1, n):
        valid = valid & has[i][:, combos[:, i]]
    cell, combo = np.nonzero(valid)
    plo, phi, a2, a1 = np.moveaxis(options[combos[combo]], -1, 0)
    lo, hi = lo[cell], hi[cell]
    free = plo < phi
    X = np.where(free, 0.5 * (lo + hi), plo)
    rcond = np.where(free, EPS, 0.0).sum(axis=1)   # eps per free coordinate
    diag = np.arange(n)
    act = np.flatnonzero(free.any(axis=1))
    for _ in range(NEWTON_MAX_ITER):
        if not len(act):
            break
        x, f = X[act], free[act]
        r = np.where(f, target(x) - (2.0 * a2[act] * x + a1[act]), 0.0)
        finite = np.isfinite(r).all(axis=1)
        act, x, f, r = act[finite], x[finite], f[finite], r[finite]
        if not len(act):
            break
        J = target_jac(x)
        J[:, diag, diag] -= 2.0 * a2[act]
        J = np.where(f[:, :, None] & f[:, None, :], J, 0.0)
        step = np.where(f, -(np.linalg.pinv(J, rcond[act]) @ r[:, :, None])[:, :, 0], 0.0)
        X[act] = x = np.where(f, x + step, x)
        act = act[~np.all(np.abs(step) <= 4.0 * EPS * (1.0 + np.abs(x)), axis=1)]
    inside = np.flatnonzero(np.all((lo - 4.0 * EPS * (1.0 + np.abs(lo)) <= X)
                                   & (X <= hi + 4.0 * EPS * (1.0 + np.abs(hi))), axis=1))
    X = np.clip(X[inside], lo[inside], hi[inside])
    # a root at a piece end is its breakpoint option's to accept
    ok = np.all(~free[inside] | _strictly_inside(X, plo[inside], phi[inside]), axis=1)
    X, cell = X[ok], cell[inside[ok]]
    res = (penalty.subdiff_distances(X, target(X), limiting).max(axis=1) if len(X)
           else np.zeros(0))
    accepted = res <= ACCEPT_TOL
    return X[accepted], res[accepted], cell[accepted]


def _membership_scan(penalty, target, target_jac, box_lo, box_hi, cells, limiting,
                     lip_bound):
    """All x in the box with target_i(x) in subdiff(g_i)(x_i) per coordinate.

    target maps an (N, n) array of points to an (N, n) array of required
    subgradient values, and target_jac to the (N, n, n) Jacobians there.  A
    cell is a candidate when, on every axis, the target at its centre lies
    within a Lipschitz margin of the hull of its side's options
    (_option_table); every combination of the candidate cells' options is
    solved in one stacked solve (_cell_roots), and a root is kept when it
    lies in the closed cell and passes the exact residual.  A root within
    POINT_RADIUS of one with a smaller residual is the same point.
    """
    n = len(box_lo)
    # one edge array per axis, so neighbouring cells share their edge floats
    edges = [np.linspace(lo, hi, cells + 1) for lo, hi in zip(box_lo, box_hi)]
    half = [(hi - lo) / (2 * cells) for lo, hi in zip(box_lo, box_hi)]
    cell_radius = math.sqrt(sum(h * h for h in half))
    margin = lip_bound * cell_radius * 1.05 + 1e-12
    tables = [_option_table(penalty, e[:-1], e[1:], limiting) for e in edges]

    shape = (cells,) * n
    T = target(_cartesian([0.5 * (e[:-1] + e[1:]) for e in edges])).reshape(shape + (n,))
    keep = np.ones(shape, dtype=bool)
    for i, (_options, _has, lo_h, hi_h) in enumerate(tables):
        along = tuple(cells if j == i else 1 for j in range(n))   # broadcast on axis i
        keep &= (T[..., i] + margin >= lo_h.reshape(along)) \
            & (T[..., i] - margin <= hi_h.reshape(along))

    kept = np.stack(np.nonzero(keep), axis=1)
    lo, hi = (np.stack([e[kept[:, i] + k] for i, e in enumerate(edges)], axis=1)
              for k in (0, 1))
    has = [table[1][kept[:, i]] for i, table in enumerate(tables)]
    X, res, owner = _cell_roots(penalty, target, target_jac, lo, hi, tables[0][0], has,
                                limiting)
    discarded = len(kept) - len(set(owner.tolist()))

    keys = list(zip(res.tolist(), X.tolist()))   # by residual, then coordinates
    X = X[sorted(range(len(keys)), key=keys.__getitem__)]
    merged = np.ones(len(X), dtype=bool)
    for i in range(len(X)):   # each kept root knocks out the later ones it holds
        if merged[i]:
            merged[i + 1:] &= np.linalg.norm(X[i + 1:] - X[i], axis=1) > POINT_RADIUS
    points = sorted(X[merged], key=tuple)
    warnings = []
    if discarded:
        warnings.append("%d candidate cells discarded (no solution in the cell "
                        "with residual at most %g)" % (discarded, ACCEPT_TOL))
    for p in points:
        if any(p[i] <= box_lo[i] + 2 * half[i] or p[i] >= box_hi[i] - 2 * half[i]
               for i in range(n)):
            warnings.append("solution %s near box boundary" % (p.tolist(),))
    return points, warnings


def _targets(loss, map_kind, p, gamma=None):
    """(target, target_jac) of S_cano(p) or S_PG(p): the batched map of
    points to required subgradients, and its batched Jacobian, from the
    loss's Hessian or, without one, central differences of the target (one
    target call on 2n rows per point)."""
    if map_kind == "S_cano":
        target = lambda X: p[None, :] - loss.gradient_many(X)
        hessian_many = loss.hessian_many
    elif map_kind == "S_PG":
        if gamma is None or not gamma > 0:
            raise ConfigError("S_PG needs gamma > 0")
        target = lambda X: (p / gamma)[None, :] - loss.gradient_many(X + p[None, :])
        hessian_many = lambda Y: loss.hessian_many(Y + p[None, :])
    else:
        raise ConfigError("unknown map kind %r" % map_kind)
    if loss.twice_differentiable:
        return target, lambda Y: -hessian_many(Y)
    n = len(p)
    steps = FD_STEP * np.eye(n)

    def target_jac(Y):
        shifted = Y[:, None, :] + np.stack([steps, -steps])[:, None]   # (2, N, n, n)
        T = target(shifted.reshape(-1, n)).reshape(shifted.shape)
        return np.swapaxes(T[0] - T[1], 1, 2) / (2.0 * FD_STEP)

    return target, target_jac


def _scan(prob, map_kind, p, box, cells, limiting=False, gamma=None):
    """(points, warnings) of S_cano(p) or S_PG(p) on a box; the margin's L
    bounds the loss on the box widened by |p| (a global bound ignores it)."""
    if prob.n > 2 or not prob.penalty.separable:
        raise ConfigError("the oracle needs n <= 2 and a separable penalty")
    box_lo, box_hi = (np.asarray(b, dtype=float) for b in box)
    if not (cells >= 1 and np.all(box_lo < box_hi)):
        raise ConfigError("the oracle needs cells >= 1 and lo < hi on every axis")
    p = np.asarray(p, dtype=float)
    target, target_jac = _targets(prob.loss, map_kind, p, gamma)
    lip = prob.loss.lipschitz_bound(Box(box_lo - np.abs(p), box_hi + np.abs(p))).value
    return _membership_scan(prob.penalty, target, target_jac, box_lo, box_hi, cells,
                            limiting, lip)


def brute_force_stationary_set(prob, box, cells=400, limiting=False):
    """Proximal (or limiting) stationary points S(0) = S_cano(0) in a box.

    box: pair of arrays (lo, hi).  Returns a StationarySetApprox backed by
    the cell scan; boundary hits are reported on the result's warnings.
    """
    pts, warnings = _scan(prob, "S_cano", np.zeros(prob.n), box, cells, limiting)
    return StationarySetApprox(points=np.array(pts).reshape(-1, prob.n),
                               radius=POINT_RADIUS, method="oracle-grid", warnings=warnings)


def brute_force_set_valued_solve(prob, map_kind, p, box, gamma=None, cells=400):
    """Solutions of the perturbed inclusions on a box (n <= 2).

    map_kind 'S_cano':  p in grad f(x) + prox-subdiff g(x)
    map_kind 'S_PG':    p/gamma in grad f(x + p) + prox-subdiff g(x)
    Returns a (possibly empty) list of solution vectors.
    """
    return _scan(prob, map_kind, p, box, cells, gamma=gamma)[0]
