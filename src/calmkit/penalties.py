"""Nonsmooth regularizers: values, exact set-valued prox, subdifferentials, graphs.

Separable families expose a scalar piece phi with g(x) = sum_i phi(x_i).
The prox of a scalar piece is computed by exact enumeration of the finitely
many quadratic pieces of phi(t) + (t - u)^2 / (2*gamma), so it is correct
for every admissible step size, including tie cases where the prox is
set-valued.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .graphs_cones import Piece, PolylineGraph, segment

TIE_REL_TOL = 1e-12  # relative tolerance for declaring multiple global prox minimizers
KINK_REL_TOL = 1e-12  # one-sided slopes this close meet smoothly (no kink)
# Separable families switch from the per-coordinate scalar routines to the
# array kernels (prox and value) at this dimension; both give bit-identical
# results.  Crossover of prox_step, microseconds scalar/array (min of 15
# runs, 2-core x86-64, numpy 2.4, one BLAS thread):
#   n = 8:  l1 96/116, scad 207/122, mcp 138/118, negabs 56/71,   box 48/74
#   n = 12: l1 126/156, scad 251/97, mcp 192/159, negabs 148/120, box 119/117
#   n = 16: l1 180/94, scad 303/119, mcp 226/107, negabs 147/125, box 143/118
# value (scad) costs 4-18 us scalar and 14-25 us array for n = 2..16.
ARRAY_MIN_N = 12


class PenaltyError(ValueError):
    pass


# ---------------------------------------------------------------------------
# interval sets

@dataclass(frozen=True)
class IntervalSet:
    """Finite union of closed intervals (possibly degenerate, possibly empty)."""

    intervals: tuple  # sorted, disjoint (lo, hi) pairs; +-inf endpoints allowed

    @staticmethod
    def empty() -> "IntervalSet":
        return IntervalSet(())

    @staticmethod
    def point(v: float) -> "IntervalSet":
        return IntervalSet(((v, v),))

    @staticmethod
    def closed(lo: float, hi: float) -> "IntervalSet":
        if lo > hi:
            raise ValueError("empty interval bounds")
        return IntervalSet(((lo, hi),))

    @staticmethod
    def of(*pairs) -> "IntervalSet":
        iv = sorted((float(a), float(b)) for a, b in pairs)
        merged = []
        for lo, hi in iv:
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        return IntervalSet(tuple(merged))

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def distance(self, v: float) -> float:
        if not self.intervals:
            return math.inf
        return min(max(lo - v, v - hi, 0.0) for lo, hi in self.intervals)

    def hull(self):
        if not self.intervals:
            return None
        return (self.intervals[0][0], self.intervals[-1][1])

    def equals(self, other: "IntervalSet", tol: float = 1e-12) -> bool:
        if len(self.intervals) != len(other.intervals):
            return False
        for (a, b), (c, d) in zip(self.intervals, other.intervals):
            for x, y in ((a, c), (b, d)):
                if math.isinf(x) or math.isinf(y):
                    if x != y:
                        return False
                elif abs(x - y) > tol:
                    return False
        return True


_EMPTY = IntervalSet.empty()


@dataclass(frozen=True)
class ProxResult:
    """Exact global solution set of the proximal subproblem."""

    minimizers: tuple          # tuple of numpy vectors
    objective_value: float     # common optimal value of g(x) + ||x-u||^2/(2*gamma)


# ---------------------------------------------------------------------------
# scalar piecewise-quadratic machinery

def _scalar_prox_candidates(pieces, u, gamma):
    """Global argmin set of phi(t) + (t-u)^2/(2 gamma) over quadratic pieces.

    Each piece is (lo, hi, a2, a1, a0) with phi(t) = a2 t^2 + a1 t + a0 on
    [lo, hi].  Returns (sorted argmin tuple, optimal value).
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
        return ((max(ts) if u > 0 else min(ts)),), best
    tol = TIE_REL_TOL * (1.0 + abs(best))
    mins = sorted(t for t, v in cands if v <= best + tol)
    out = []
    for t in mins:
        if not out or t - out[-1] > 1e-11 * (1.0 + abs(t)):
            out.append(t)
    return tuple(out), best


def select_closest(cands, ref):
    """Closest candidate to ref; ties broken toward the smaller value."""
    best = None
    for c in sorted(cands):
        d = abs(c - ref)
        if best is None or d < best[0] - 1e-15:
            best = (d, c)
    return best[1]


def _sum(terms) -> float:
    """Left-to-right float sum.

    The builtin sum is compensated from Python 3.12 on, so the scalar and
    array paths share this one to agree on every version.
    """
    acc = np.add.accumulate(np.asarray(terms, dtype=float))
    return float(acc[-1]) if acc.size else 0.0


# ---------------------------------------------------------------------------
# penalty families

class Penalty:
    """Base class; vector ops are implemented per family or via scalar pieces."""

    family = "abstract"
    gamma_max = math.inf   # prox-boundedness threshold gamma_g
    separable = False

    def value(self, x) -> float:
        raise NotImplementedError

    def prox_coordinate_sets(self, u, gamma):
        raise NotImplementedError

    def subdiff_distances(self, x, v, limiting=False) -> np.ndarray:
        """Exact distances from v to the (limiting) subdifferential at x.

        One entry per coordinate for separable families, one per group for
        the group lasso; stationarity gates take their maximum.
        """
        raise NotImplementedError

    def prox(self, u, gamma) -> ProxResult:
        if gamma <= 0:
            raise PenaltyError("gamma must be positive")
        if gamma >= self.gamma_max:
            raise PenaltyError("not prox-bounded at this step size")
        u = np.asarray(u, dtype=float)
        sets = self.prox_coordinate_sets(u, gamma)
        count = 1
        for s in sets:
            count *= len(s)
            if count > 128:
                raise PenaltyError("prox tie combinatorics exceed cap")
        minimizers = tuple(np.array(c, dtype=float)
                           for c in itertools.product(*sets))
        x0 = minimizers[0]
        val = self.value(x0) + float(np.dot(x0 - u, x0 - u)) / (2.0 * gamma)
        return ProxResult(minimizers, val)

    def prox_step(self, x, u, gamma):
        """(x_next, dist(x, Prox(u))) from one evaluation of the prox sets.

        x_next is the minimizer closest to x, coordinate by coordinate (ties
        toward the smaller value); the distance is to the whole set.
        """
        x = np.asarray(x, dtype=float)
        sets = self.prox_coordinate_sets(np.asarray(u, dtype=float), gamma)
        x_next = np.array([select_closest(s, xi) for s, xi in zip(sets, x)])
        return x_next, coordinate_sets_distance(x, sets)

    def prox_distance(self, x, u, gamma) -> float:
        """dist(x, Prox(u)) using the exact per-coordinate argmin sets."""
        return self.prox_step(x, u, gamma)[1]

    def graph(self) -> PolylineGraph:
        raise PenaltyError("family %r has no one-dimensional graph" % self.family)

    def to_json(self) -> dict:
        raise NotImplementedError


def coordinate_sets_distance(x, sets) -> float:
    """Euclidean distance from x to the product of finite coordinate sets."""
    return math.sqrt(_sum([min(d * d for d in (xi - c for c in s))
                           for xi, s in zip(x, sets)]))


def _slope(piece, t):
    """phi'(t) on one quadratic piece (lo, hi, a2, a1, a0)."""
    return 2.0 * piece[2] * t + piece[3]


class SeparablePenalty(Penalty):
    """g(x) = sum_i phi(x_i) for one scalar piece phi.

    A family is its scalar_pieces() table.  The constructor compiles the
    table once: value, prox, both subdifferentials, their bounds and the
    subdifferential graph all follow from it.
    """

    separable = True

    def __init__(self):
        self.pieces = pieces = tuple(self.scalar_pieces())
        self._lo, self._hi = pieces[0][0], pieces[-1][1]
        # theta lies in region bisect_left(_cuts, theta): region j + 1 is
        # inside piece j, regions 0 and len(pieces) + 1 outside the domain
        self._cuts = (self._lo,) + tuple(pc[1] for pc in pieces)
        self._slopes = (None,) + tuple((2.0 * pc[2], pc[3]) for pc in pieces) + (None,)
        # one-sided slopes (dl, dr) at each finite piece end; the domain
        # ends border no piece on their outer side
        self._joins = joins = {}
        if math.isfinite(self._lo):
            joins[self._lo] = (-math.inf, _slope(pieces[0], self._lo))
        for left, right in zip(pieces, pieces[1:]):
            b = left[1]
            dl, dr = _slope(left, b), _slope(right, b)
            if abs(dl - dr) <= KINK_REL_TOL * (1.0 + abs(dl) + abs(dr)):
                # smooth join, up to rounding: take the side of constant
                # slope, whose derivative a1 carries no rounding at all
                dl = dr = dl if left[2] == 0.0 else dr
            joins[b] = (dl, dr)
        if math.isfinite(self._hi):
            joins[self._hi] = (_slope(pieces[-1], self._hi), math.inf)
        # [dl, dr] at a convex kink or smooth join; at a concave kink no
        # proximal subgradient, and the two slopes as limiting ones
        self._prox_at_knot = {b: IntervalSet(((dl, dr),)) if dl <= dr else _EMPTY
                              for b, (dl, dr) in joins.items()}
        self._limiting_at_knot = {
            b: IntervalSet(((dl, dr),)) if dl <= dr else IntervalSet.of((dr, dr), (dl, dl))
            for b, (dl, dr) in joins.items()}
        # value: piece searchsorted(_his, theta) holds theta, from _lo on
        self._his = np.array([pc[1] for pc in pieces])
        self._coef = np.array([pc[2:] for pc in pieces]).T
        # prox candidates in _scalar_prox_candidates' order: per piece its
        # clamped vertex (end = nan), then each finite end with its coefficients
        cols = []
        for lo, hi, a2, a1, a0 in pieces:
            cols.append((math.nan, lo, hi, a2, a1, a0))
            cols += [(t, lo, hi, a2, a1, a0) for t in (lo, hi) if math.isfinite(t)]
        self._prox_table = np.array(cols).T

    def scalar_pieces(self):
        """Quadratic pieces (lo, hi, a2, a1, a0) of phi, left to right, covering its domain."""
        raise NotImplementedError

    def breakpoints(self):
        return sorted(self._joins)

    def scalar_value(self, theta: float) -> float:
        for lo, hi, a2, a1, a0 in self.pieces:
            if lo <= theta <= hi:
                return a2 * theta * theta + a1 * theta + a0
        return math.inf

    def _phi(self, theta):
        """phi at every entry of theta, as scalar_value computes it: on the
        first piece whose right end is at or after theta, +inf off the domain."""
        j = np.searchsorted(self._his, theta)
        a2, a1, a0 = self._coef[:, np.minimum(j, len(self.pieces) - 1)]
        vals = a2 * theta * theta + a1 * theta + a0
        return np.where((theta >= self._lo) & (j < len(self.pieces)), vals, math.inf)

    def value(self, x) -> float:
        theta = np.atleast_1d(np.asarray(x, dtype=float))
        if theta.size < ARRAY_MIN_N:
            return _sum([self.scalar_value(float(t)) for t in theta])
        return _sum(self._phi(theta))

    def value_many(self, X):
        """value of each row of X, bit-identical to value(X[i])."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.add.accumulate(self._phi(X), axis=1)[:, -1]

    def prox_scalar(self, u: float, gamma: float):
        return _scalar_prox_candidates(self.pieces, float(u), gamma)[0]

    def prox_coordinate_sets(self, u, gamma):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if u.size < ARRAY_MIN_N:
            return [self.prox_scalar(float(ui), gamma) for ui in u]
        P = self._prox_array(u, gamma)
        return [tuple(r[:c]) for r, c in zip(P.tolist(), np.isfinite(P).sum(axis=1).tolist())]

    def prox_step(self, x, u, gamma):
        u = np.asarray(u, dtype=float)
        if u.size < ARRAY_MIN_N:
            return super().prox_step(x, u, gamma)
        x = np.asarray(x, dtype=float)
        P = self._prox_array(u, gamma)
        # select_closest over each row; the +inf padding never wins
        x_next = P[:, 0].copy()
        best = np.abs(x_next - x)
        for c in P.T[1:]:
            d = np.abs(c - x)
            closer = d < best - 1e-15
            x_next[closer] = c[closer]
            best[closer] = d[closer]
        D = x[:, None] - P
        sq = (D * D).min(axis=1)
        return x_next, math.sqrt(_sum(sq))

    def _prox_array(self, u, gamma):
        """Every coordinate's prox minimizers, ascending, padded with +inf.

        The array form of _scalar_prox_candidates over the candidate table,
        operation for operation, so the sets are bit-identical to it.
        """
        end, lo, hi, a2, a1, a0 = self._prox_table
        inv2g = 0.5 / gamma
        lead = a2 + inv2g
        vertex = np.isnan(end)
        cols = ~vertex | (lead > 0.0)
        end, lo, hi, a2, a1, a0, lead, vertex = (
            a[cols] for a in (end, lo, hi, a2, a1, a0, lead, vertex))
        T = np.empty((u.size, end.size))
        T[:, ~vertex] = end[~vertex]
        t = (u[:, None] / gamma - a1[vertex]) / (2.0 * lead[vertex])
        # Python's min(max(t, lo), hi), which keeps t (and its signed zero) on a tie
        t = np.where(lo[vertex] > t, lo[vertex], t)
        T[:, vertex] = np.where(hi[vertex] < t, hi[vertex], t)
        D = T - u[:, None]
        V = a2 * T * T + a1 * T + a0 + inv2g * (D * D)
        finite = np.isfinite(T)
        best = np.where(finite, V, math.inf).min(axis=1)
        tie = finite & (V <= (best + TIE_REL_TOL * (1.0 + np.abs(best)))[:, None])
        over = (best == math.inf) & finite.any(axis=1)
        if over.any():
            # as in _scalar_prox_candidates: the candidate nearest u wins
            Tf = np.where(finite, T, math.nan)[over]
            near = np.where(u[over] > 0, np.nanmax(Tf, axis=1), np.nanmin(Tf, axis=1))
            tie[over] = Tf == near[:, None]
        # stable sort: equal values (0.0 and -0.0) keep the enumeration order
        S = np.sort(np.where(tie, T, math.inf), axis=1, kind="stable")
        S = S[:, :max(int(tie.sum(axis=1).max()), 1)]
        # keep a value only if it clears the last *kept* one
        last = S[:, 0]
        for j in range(1, S.shape[1]):
            c = S[:, j]
            drop = ~(c - last > 1e-11 * (1.0 + np.abs(c)))
            S[drop, j] = math.inf
            last = np.where(drop, last, c)
        S = np.sort(S, axis=1)
        return S[:, :max(int(np.isfinite(S).sum(axis=1).max()), 1)]

    def _subdiff(self, theta, at_knot):
        s = at_knot.get(theta)
        if s is None:
            c = self._slopes[bisect_left(self._cuts, theta)]
            if c is None:
                return _EMPTY
            v = c[0] * theta + c[1]
            s = IntervalSet(((v, v),))
        return s

    def prox_subdiff(self, theta: float) -> IntervalSet:
        """Proximal subdifferential of phi at theta: empty at a concave kink."""
        return self._subdiff(theta, self._prox_at_knot)

    def limiting_subdiff(self, theta: float) -> IntervalSet:
        """Limiting subdifferential: the two one-sided slopes at a concave kink."""
        return self._subdiff(theta, self._limiting_at_knot)

    def subdiff_distances(self, x, v, limiting=False) -> np.ndarray:
        x, v = (np.atleast_1d(np.asarray(a, dtype=float)) for a in (x, v))
        lo, hi = self.subdiff_bounds_array(x, limiting)
        d = np.maximum(np.maximum(lo - v, v - hi), 0.0)
        if limiting:
            for b, (dl, dr) in self._joins.items():
                if dl > dr:   # concave kink: the two slopes, not their hull
                    d = np.where(x == b, np.minimum(np.abs(v - dr), np.abs(v - dl)), d)
        return d

    def subdiff_bounds_array(self, theta, limiting=False):
        """Per-point hull [lo, hi] of the subdifferential; empty as (+inf, -inf).

        The hull is the subdifferential itself except for the limiting one
        at a concave kink, a two-point set; subdiff_distances corrects for
        that case.
        """
        theta = np.asarray(theta, dtype=float)
        r = np.searchsorted(self._cuts, theta)
        coef = np.array([s or (0.0, 0.0) for s in self._slopes])[r]
        slope = coef[..., 0] * theta + coef[..., 1]
        inside = (r > 0) & (r <= len(self.pieces))
        lo = np.where(inside, slope, math.inf)
        hi = np.where(inside, slope, -math.inf)
        for b, s in (self._limiting_at_knot if limiting else self._prox_at_knot).items():
            at = theta == b
            h = s.hull() or (math.inf, -math.inf)
            lo = np.where(at, h[0], lo)
            hi = np.where(at, h[1], hi)
        return lo, hi

    def graph(self) -> PolylineGraph:
        """Closure of the graph of the limiting subdifferential, left to right.

        Each piece becomes a segment or ray of (theta, phi'(theta)); a convex
        kink adds the vertical segment between its one-sided slopes, and a
        finite domain end a vertical ray.
        """
        joins = self._joins
        out = []
        if math.isfinite(self._lo):
            out.append(Piece((self._lo, joins[self._lo][1]), (0.0, -1.0), 0.0, math.inf))
        for j, (lo, hi, a2, a1, _a0) in enumerate(self.pieces):
            if j > 0 and joins[lo][0] < joins[lo][1]:
                out.append(segment((lo, joins[lo][0]), (lo, joins[lo][1])))
            if math.isfinite(lo) and math.isfinite(hi):
                out.append(segment((lo, joins[lo][1]), (hi, joins[hi][0])))
            elif math.isfinite(hi):
                # 0.0 - 2 a2 keeps the flat ray's direction at +0.0
                out.append(Piece((hi, joins[hi][0]), (-1.0, 0.0 - 2.0 * a2), 0.0, math.inf))
            elif math.isfinite(lo):
                out.append(Piece((lo, joins[lo][1]), (1.0, 2.0 * a2), 0.0, math.inf))
            else:
                out.append(Piece((0.0, a1), (1.0, 2.0 * a2), -math.inf, math.inf))
        if math.isfinite(self._hi):
            out.append(Piece((self._hi, joins[self._hi][0]), (0.0, 1.0), 0.0, math.inf))
        return PolylineGraph(tuple(out))


class ZeroPenalty(SeparablePenalty):
    family = "zero"

    def scalar_pieces(self):
        return [(-math.inf, math.inf, 0.0, 0.0, 0.0)]

    def prox_scalar(self, u, gamma):
        return (float(u),)   # identity, bit-exact (PG must reduce to plain GD)

    def _prox_array(self, u, gamma):
        return u[:, None]    # the vertex formula (u/gamma)/(2 (0.5/gamma)) is not always u

    def to_json(self):
        return {"family": "zero"}


class L1Penalty(SeparablePenalty):
    family = "l1"

    def __init__(self, lam: float):
        if lam <= 0:
            raise PenaltyError("lambda must be positive")
        self.lam = float(lam)
        super().__init__()

    def scalar_pieces(self):
        lam = self.lam
        return [(-math.inf, 0.0, 0.0, -lam, 0.0), (0.0, math.inf, 0.0, lam, 0.0)]

    def to_json(self):
        return {"family": "l1", "lambda": self.lam}


class ScadPenalty(SeparablePenalty):
    family = "scad"

    def __init__(self, lam: float, a: float):
        if lam <= 0 or a <= 2:
            raise PenaltyError("SCAD needs lambda > 0 and a > 2")
        self.lam = float(lam)
        self.a = float(a)
        super().__init__()

    def scalar_pieces(self):
        lam, a = self.lam, self.a
        c = (a + 1.0) * lam * lam / 2.0
        q2 = -0.5 / (a - 1.0)
        q0 = -lam * lam / (2.0 * (a - 1.0))
        s = a * lam / (a - 1.0)
        return [
            (-math.inf, -a * lam, 0.0, 0.0, c),
            (-a * lam, -lam, q2, -s, q0),
            (-lam, 0.0, 0.0, -lam, 0.0),
            (0.0, lam, 0.0, lam, 0.0),
            (lam, a * lam, q2, s, q0),
            (a * lam, math.inf, 0.0, 0.0, c),
        ]

    def to_json(self):
        return {"family": "scad", "lambda": self.lam, "a": self.a}


class McpPenalty(SeparablePenalty):
    family = "mcp"

    def __init__(self, lam: float, a: float):
        if lam <= 0 or a <= 1:
            raise PenaltyError("MCP needs lambda > 0 and a > 1")
        self.lam = float(lam)
        self.a = float(a)
        super().__init__()

    def scalar_pieces(self):
        lam, a = self.lam, self.a
        c = a * lam * lam / 2.0
        q2 = -0.5 / a
        return [
            (-math.inf, -a * lam, 0.0, 0.0, c),
            (-a * lam, 0.0, q2, -lam, 0.0),
            (0.0, a * lam, q2, lam, 0.0),
            (a * lam, math.inf, 0.0, 0.0, c),
        ]

    def to_json(self):
        return {"family": "mcp", "lambda": self.lam, "a": self.a}


class NegAbsPenalty(SeparablePenalty):
    """phi(theta) = -lambda * |theta|: the downward kink at 0 has empty
    proximal subdifferential while the limiting one is {-lambda, lambda}."""

    family = "negabs"

    def __init__(self, lam: float):
        if lam <= 0:
            raise PenaltyError("lambda must be positive")
        self.lam = float(lam)
        super().__init__()

    def scalar_pieces(self):
        lam = self.lam
        return [(-math.inf, 0.0, 0.0, lam, 0.0), (0.0, math.inf, 0.0, -lam, 0.0)]

    def to_json(self):
        return {"family": "negabs", "lambda": self.lam}


class BoxIndicator(SeparablePenalty):
    """Indicator of [lower, upper]^n (one shared scalar interval)."""

    family = "box-indicator"

    def __init__(self, lower: float, upper: float):
        if not lower < upper:
            raise PenaltyError("box needs lower < upper")
        self.lower = float(lower)
        self.upper = float(upper)
        super().__init__()

    def scalar_pieces(self):
        return [(self.lower, self.upper, 0.0, 0.0, 0.0)]

    def to_json(self):
        return {"family": "box-indicator", "lower": self.lower, "upper": self.upper}


class GroupLasso(Penalty):
    """g(x) = sum_J w_J ||x_J||_2 over a disjoint partition of coordinates."""

    family = "group-lasso"
    separable = False

    def __init__(self, groups, weights):
        groups = [tuple(int(i) for i in g) for g in groups]
        weights = [float(w) for w in weights]
        if len(groups) != len(weights):
            raise PenaltyError("one weight per group required")
        if any(w < 0 for w in weights):
            raise PenaltyError("weights must be nonnegative")
        flat = sorted(i for g in groups for i in g)
        if flat != list(range(len(flat))):
            raise PenaltyError("groups must partition 0..n-1 disjointly")
        self.groups = tuple(groups)
        self.weights = tuple(weights)

    def value(self, x) -> float:
        return float(self.value_many(x)[0])

    def value_many(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        tot = np.zeros(X.shape[0])
        for g, w in zip(self.groups, self.weights):
            tot += w * np.linalg.norm(X[:, list(g)], axis=1)
        return tot

    def prox_vector(self, u, gamma):
        u = np.asarray(u, dtype=float)
        out = np.array(u, dtype=float)
        for g, w in zip(self.groups, self.weights):
            idx = list(g)
            nrm = np.linalg.norm(u[idx])
            scale = 0.0 if nrm <= gamma * w else 1.0 - gamma * w / nrm
            out[idx] = scale * u[idx]
        return out

    def prox_coordinate_sets(self, u, gamma):
        x = self.prox_vector(u, gamma)
        return [(float(v),) for v in x]

    def prox_step(self, x, u, gamma):
        # the prox is single-valued, so it is both the step and the set
        x_next = self.prox_vector(u, gamma)
        d = np.asarray(x, dtype=float) - x_next
        return x_next, math.sqrt(_sum(d * d))

    def subdiff_distances(self, x, v, limiting=False) -> np.ndarray:
        """Per group, dist(v_J, d(w_J ||.||)(x_J)); convex, so limiting is proximal."""
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        out = []
        for g, w in zip(self.groups, self.weights):
            idx = list(g)
            xg, vg = x[idx], v[idx]
            nrm = np.linalg.norm(xg)
            if nrm > 0:
                out.append(np.linalg.norm(vg - w * xg / nrm))
            else:
                out.append(max(np.linalg.norm(vg) - w, 0.0))
        return np.array(out)

    def to_json(self):
        return {"family": "group-lasso",
                "groups": [list(g) for g in self.groups],
                "weights": list(self.weights)}


# ---------------------------------------------------------------------------
# spec-facing operations

def penalty_value(g: Penalty, x):
    return g.value(x)


def prox(g: Penalty, u, gamma: float) -> ProxResult:
    return g.prox(u, gamma)


def prox_subdiff_scalar(g: Penalty, theta: float) -> IntervalSet:
    if not g.separable:
        raise PenaltyError("scalar subdifferential requires a separable family")
    return g.prox_subdiff(float(theta))


def limiting_subdiff_scalar(g: Penalty, theta: float) -> IntervalSet:
    if not g.separable:
        raise PenaltyError("scalar subdifferential requires a separable family")
    return g.limiting_subdiff(float(theta))


def graph(g: Penalty) -> PolylineGraph:
    return g.graph()


def penalty_from_json(d: dict) -> Penalty:
    fam = d.get("family")
    if fam == "zero":
        return ZeroPenalty()
    if fam == "l1":
        return L1Penalty(d["lambda"])
    if fam == "scad":
        return ScadPenalty(d["lambda"], d["a"])
    if fam == "mcp":
        return McpPenalty(d["lambda"], d["a"])
    if fam == "negabs":
        return NegAbsPenalty(d["lambda"])
    if fam == "box-indicator":
        return BoxIndicator(d["lower"], d["upper"])
    if fam == "group-lasso":
        return GroupLasso(d["groups"], d["weights"])
    raise PenaltyError("unknown penalty family %r" % fam)
