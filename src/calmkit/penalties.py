"""Nonsmooth regularizers: values, exact set-valued prox, subdifferentials, graphs.

Separable families expose a scalar piece phi with g(x) = sum_i phi(x_i), a
table of quadratic pieces; compile_prox turns it, at each step size, into the
exact prox as a monotone piecewise-affine map of u, set-valued at its jumps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graphs_cones import Piece, PolylineGraph, segment

TIE_REL_TOL = 1e-12  # relative tolerance for declaring multiple global prox minimizers
KINK_REL_TOL = 1e-12  # one-sided slopes this close meet smoothly (no kink)
# A separable family's value switches from the per-coordinate scalar_value
# to the array kernel _phi at this dimension; both give bit-identical sums.
# value (scad) costs 4-18 us scalar and 14-25 us array for n = 2..16
# (2-core x86-64, numpy 2.4, one BLAS thread).
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
# the compiled prox map

def _formula(a1, l2, lo, hi, end, u, gamma):
    """A prox formula at u: end if not nan, else the vertex (u/gamma - a1) / l2
    clamped as min(max(t, lo), hi) does, keeping t (and its sign) on a tie."""
    t = (u / gamma - a1) / l2
    t = np.where(hi < t, hi, np.where(lo > t, lo, t))
    return np.where(np.isnan(end), t, end)


class ProxMap(NamedTuple):
    """Segment k of the prox is _formula of rows[:, k]; edges holds thr -+ w per
    threshold, w > 0 only at a jump, whose tie band holds both formulas."""

    gamma: float
    edges: np.ndarray
    rows: np.ndarray

    def points(self, u):
        """The prox of each u: a column, and one padded with +inf for tie bands."""
        j = np.searchsorted(self.edges, u)
        t = _formula(*self.rows[:, j >> 1], u, self.gamma)
        if not (j & 1).any():
            return t[:, None]
        t2 = _formula(*self.rows[:, (j >> 1) + (j & 1)], u, self.gamma)
        return np.column_stack([t, np.where(j & 1, t2, math.inf)])


def compile_prox(pieces, gamma) -> ProxMap:
    """The prox of phi(t) + (t - u)^2 / (2 gamma) as a map of u; phi is a2 t^2
    + a1 t + a0 on each of the touching pieces (lo, hi, a2, a1, a0).

    The candidates are each piece's clamped vertex (if lead = a2 + 1/(2 gamma)
    > 0) and each finite knot.  Less u^2/(2 gamma) each value is quadratic in
    s = u/gamma, so the lowest changes only at clamp points and crossings.  A
    vertex meets its own knots, and its neighbour's vertex but at a concave
    kink, only tangentially, at double roots good to sqrt(eps): those pairs
    are left out.  Where t jumps from t- to t+ at thr with value V*, the two
    values are within the tie tolerance, to first order, for |u - thr| <=
    gamma TIE_REL_TOL (1 + |V*|) / (t+ - t-).
    """
    lo, hi, a2, a1, a0 = np.array(pieces, dtype=float).reshape(-1, 5).T
    m, k, inv2g = lo.size, np.arange(lo.size), 0.5 / gamma
    l2 = 2.0 * (a2 + inv2g)
    arc = l2 > 0.0
    # branch b < m is piece b's vertex, m + b the knot ending piece b - 1 (its
    # value from that piece) and starting piece b.  Per branch: a1, 2 lead (1
    # at a knot: none divides by 2 lead <= 0), lo, hi, end (nan at a vertex), a2, a0
    knot = np.append(lo[:1], hi)
    live = np.append(arc, np.isfinite(knot))
    e = np.where(live[m:], knot, 0.0)
    F = np.array([a1, np.where(arc, l2, 1.0), lo, hi, np.full(m, math.nan), a2, a0])
    F = np.concatenate([F, F[:, np.append(np.maximum(k - 1, 0), m - 1)]], axis=1)
    F[1, m:], F[4, m:] = 1.0, e
    # each branch's value A s^2 + B s + C on its range [slo, shi]
    A = np.append(-0.5 / F[1, :m], np.zeros(m + 1))
    B = np.append(a1 / F[1, :m], -e)
    C = np.append(a0 - 0.5 * a1 * a1 / F[1, :m],
                  F[5, m:] * e * e + F[0, m:] * e + F[6, m:] + inv2g * e * e)
    slo = np.where(live, np.append(l2 * lo + a1, np.full(m + 1, -math.inf)), math.inf)
    shi = np.where(live, np.append(l2 * hi + a1, np.full(m + 1, math.inf)), -math.inf)
    tangent = np.zeros((2 * m + 1, 2 * m + 1), dtype=bool)
    tangent[k, m + k] = tangent[k, m + k + 1] = True
    dl, dr = 2.0 * a2[:-1] * hi[:-1] + a1[:-1], 2.0 * a2[1:] * hi[:-1] + a1[1:]
    tangent[k[:-1], k[1:]] = dl - dr <= KINK_REL_TOL * (1.0 + np.abs(dl) + np.abs(dr))
    dA, dB, dC = A[:, None] - A, B[:, None] - B, C[:, None] - C
    disc = dB * dB - 4.0 * dA * dC
    q = -0.5 * (dB + np.copysign(np.sqrt(np.maximum(disc, 0.0)), dB))
    s = np.stack([np.divide(q, dA, out=np.full_like(q, math.nan), where=dA != 0.0),
                  np.divide(dC, q, out=np.full_like(q, math.nan), where=q != 0.0)])
    ok = ((disc >= 0.0) & ~(tangent | tangent.T) & (s >= np.maximum(slo[:, None], slo))
          & (s <= np.minimum(shi[:, None], shi)))
    thr = gamma * np.concatenate([s[ok], slo[:m], shi[:m]])    # crossings, clamp points
    thr = np.sort(thr[np.isfinite(thr)])
    # one of each run of duplicates, exact or from root rounding
    thr = thr[np.diff(thr, prepend=-math.inf) > 1e-13 * (1.0 + np.abs(thr))]
    # every branch inside each segment (even rows of x) and at each threshold
    # (odd rows); the lowest value wins a segment, a vertex first on a tie
    x = np.zeros((2 * thr.size + 1, 1))
    if thr.size:
        x[1::2, 0], x[2:-1:2, 0] = thr, 0.5 * (thr[1:] + thr[:-1])
        x[0], x[-1] = thr[0] - 1.0 - abs(thr[0]), thr[-1] + 1.0 + abs(thr[-1])
    T = _formula(*F[:5, None, :], x, gamma)
    val = np.where(live, F[5] * T * T + F[0] * T + F[6] + inv2g * (T - x) ** 2, math.inf)
    win = np.argmin(val, axis=1)[::2]
    keep = win[1:] != win[:-1]
    at, thr, left, right = 2 * np.flatnonzero(keep) + 1, thr[keep], win[:-1][keep], win[1:][keep]
    tl, tr = T[at, left], T[at, right]
    w = np.divide(gamma * TIE_REL_TOL * (1.0 + np.abs(val[at, left])), tr - tl,
                  out=np.zeros_like(thr), where=tr - tl > 1e-9 * (1.0 + np.abs(tl) + np.abs(tr)))
    half = 0.5 * np.concatenate([[math.inf], thr[1:] - thr[:-1], [math.inf]])
    w = np.minimum(w, np.minimum(half[:-1], half[1:]))     # bands never overlap
    return ProxMap(gamma, np.stack([thr - w, thr + w], axis=1).ravel(),
                   F[:5, np.concatenate([win[:1], right])])


def select_nearest(P, x):
    """(x_next, dist(x, P)) for padded prox points P (ProxMap.points): per sorted
    row the point closest to x_i, the smaller unless the larger is closer by
    over 1e-15 (+inf padding never wins), and the distance to all rows' product."""
    D = np.asarray(x, dtype=float)[:, None] - P
    x_next = P[:, 0] if P.shape[1] == 1 else \
        np.where(np.abs(D[:, 1]) < np.abs(D[:, 0]) - 1e-15, P[:, 1], P[:, 0])
    return x_next, math.sqrt(_sum((D * D).min(axis=1)))


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
    convex = False

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
        raise NotImplementedError

    def prox_distance(self, x, u, gamma) -> float:
        """dist(x, Prox(u)) using the exact per-coordinate argmin sets."""
        return self.prox_step(x, u, gamma)[1]

    def graph(self) -> PolylineGraph:
        raise PenaltyError("family %r has no one-dimensional graph" % self.family)

    def to_json(self) -> dict:
        raise NotImplementedError


def _slope(piece, t):
    """phi'(t) on one quadratic piece (lo, hi, a2, a1, a0)."""
    return 2.0 * piece[2] * t + piece[3]


class SeparablePenalty(Penalty):
    """g(x) = sum_i phi(x_i) for one scalar piece phi.

    A family is its scalar_pieces() table: value, prox (compile_prox, on
    first use at each step size), both subdifferentials, their bounds and the
    subdifferential graph all follow from it.
    """

    separable = True
    _prox_map = None

    def __init__(self):
        self.pieces = pieces = tuple(self.scalar_pieces())
        self._lo, self._hi = pieces[0][0], pieces[-1][1]
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
        # convex pieces joined at convex kinks or smoothly
        self.convex = all(pc[2] >= 0.0 for pc in pieces) and \
            all(dl <= dr for dl, dr in joins.values())
        # _piece: value and subdifferentials locate theta by searchsorted(_his, theta)
        self._his = np.array([pc[1] for pc in pieces])
        self._coef = np.array([pc[2:] for pc in pieces]).T

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

    def _piece(self, theta):
        """(j, (a2, a1, a0)) at every entry of theta: piece j is the first
        whose right end is at or after theta, j = len(pieces) past the domain."""
        j = np.searchsorted(self._his, theta)
        return j, self._coef[:, np.minimum(j, len(self.pieces) - 1)]

    def _phi(self, theta):
        """phi at every entry of theta, as scalar_value computes it: on its
        _piece, +inf off the domain."""
        j, (a2, a1, a0) = self._piece(theta)
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

    def _prox_points(self, u, gamma):
        """ProxMap.points, compiled on first use and kept for the last gamma."""
        if self._prox_map is None or self._prox_map.gamma != gamma:
            self._prox_map = compile_prox(self.pieces, gamma)
        return self._prox_map.points(np.atleast_1d(np.asarray(u, dtype=float)))

    def prox_scalar(self, u: float, gamma: float):
        return self.prox_coordinate_sets(u, gamma)[0]

    def prox_coordinate_sets(self, u, gamma):
        P = self._prox_points(u, gamma)
        return [tuple(r[:c]) for r, c in zip(P.tolist(), np.isfinite(P).sum(axis=1).tolist())]

    def prox_step(self, x, u, gamma):
        return select_nearest(self._prox_points(u, gamma), x)

    def prox_subdiff(self, theta: float) -> IntervalSet:
        """Proximal subdifferential of phi at theta: empty at a concave kink."""
        return self._subdiff_at(theta, False)

    def limiting_subdiff(self, theta: float) -> IntervalSet:
        """Limiting subdifferential: the two one-sided slopes at a concave kink."""
        return self._subdiff_at(theta, True)

    def _subdiff_at(self, theta, limiting):
        """The one-point case of subdiff_bounds_array, as an IntervalSet; the
        limiting set at a concave kink is its two slopes, not their hull."""
        dl, dr = self._joins.get(theta, (0.0, 0.0))
        if limiting and dl > dr:
            return IntervalSet(((dr, dr), (dl, dl)))
        lo, hi = (float(a) for a in self.subdiff_bounds_array(theta, limiting))
        return _EMPTY if lo > hi else IntervalSet(((lo, hi),))

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
        j, (a2, a1, _a0) = self._piece(theta)
        slope = 2.0 * a2 * np.where(a2 == 0.0, 0.0, theta) + a1   # a flat piece: a1, at +-inf too
        # strictly past _lo: a finite _lo is a knot, and -inf holds no piece
        inside = (theta > self._lo) & (j < len(self.pieces))
        lo = np.where(inside, slope, math.inf)
        hi = np.where(inside, slope, -math.inf)
        # [dl, dr] at a convex kink or smooth join; at a concave kink no
        # proximal subgradient, and the hull of the two limiting ones
        for b, (dl, dr) in self._joins.items():
            if dl > dr:
                dl, dr = (dr, dl) if limiting else (math.inf, -math.inf)
            at = theta == b
            lo = np.where(at, dl, lo)
            hi = np.where(at, dr, hi)
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

    def _prox_points(self, u, gamma):
        # the identity, bit-exact (PG must reduce to plain GD); the vertex
        # formula (u/gamma)/(2 (0.5/gamma)) is not always u
        return np.array(u, dtype=float, ndmin=1)[:, None]

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
    convex = True

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
