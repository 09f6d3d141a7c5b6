"""Exact cone calculus on piecewise-linear subdifferential graphs in the plane.

A subdifferential graph is stored as a union of line pieces (segments or
rays).  Tangent, regular normal, limiting normal and directional limiting
normal cones at a point of the graph are all finite unions of polyhedral
cones in R^2, represented canonically as merged angular arcs so that
equality and containment are decided exactly.

classify_point sees every graph point as a vertex with incident half-pieces;
a segment-interior point has two, along u and -u.  Each cone is built once,
from its atom routine: tangent_atoms, limiting_normal_atoms and
directional_limiting_normal_atoms list convex atoms, _uncovered drops every
atom that lies inside another, and the cone is ConeUnion2.from_atoms of the
list.  The regular normal cone is the polar of the half-piece directions,
read off their angular gaps: each cyclic gap a -> b of at least pi gives the
arc [a + pi/2, b - pi/2], and no such gap gives {0}.  Every membership
question (a vector in a cone, an atom in an atom, a cone in a cone) is one
test, _arcs_within.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

TWO_PI = 2.0 * math.pi
ANGLE_TOL = 1e-10  # canonical-form comparison tolerance (radians)
DIR_TOL = 1e-9     # a direction follows a half-piece within this, per component


class GraphPointError(ValueError):
    """Raised when a query point does not lie on the graph."""


def _unit(v):
    n = math.hypot(v[0], v[1])
    if n == 0.0:
        raise ValueError("zero direction")
    return (v[0] / n, v[1] / n)


def _angle(v) -> float:
    a = math.atan2(v[1], v[0])
    if a < 0.0:
        a += TWO_PI
    return a % TWO_PI


def _from_angle(a: float):
    return (math.cos(a), math.sin(a))


# ---------------------------------------------------------------------------
# graph pieces

@dataclass(frozen=True)
class Piece:
    """One line piece {anchor + t*direction : t0 <= t <= t1}; t may be infinite."""

    anchor: tuple
    direction: tuple  # nonzero, not necessarily unit
    t0: float
    t1: float

    def point_at(self, t: float):
        return (self.anchor[0] + t * self.direction[0],
                self.anchor[1] + t * self.direction[1])

    def project_param(self, p) -> float:
        d = self.direction
        dd = d[0] * d[0] + d[1] * d[1]
        t = ((p[0] - self.anchor[0]) * d[0] + (p[1] - self.anchor[1]) * d[1]) / dd
        return min(max(t, self.t0), self.t1)

    def distance(self, p) -> float:
        q = self.point_at(self.project_param(p))
        return math.hypot(p[0] - q[0], p[1] - q[1])

    def unit_direction(self):
        return _unit(self.direction)

    def finite_endpoints(self):
        pts = []
        for t in (self.t0, self.t1):
            if math.isfinite(t):
                pts.append(self.point_at(t))
        return pts


def segment(p0, p1) -> Piece:
    d = (p1[0] - p0[0], p1[1] - p0[1])
    return Piece(anchor=tuple(p0), direction=d, t0=0.0, t1=1.0)


@dataclass(frozen=True)
class PolylineGraph:
    """Closed union of line pieces; vertical pieces are allowed (not a function graph)."""

    pieces: tuple

    def distance(self, p) -> float:
        return min(pc.distance(p) for pc in self.pieces)

    def vertices(self):
        """Finite piece endpoints, deduplicated."""
        pts = []
        for pc in self.pieces:
            for q in pc.finite_endpoints():
                if not any(math.hypot(q[0] - r[0], q[1] - r[1]) < 1e-12 for r in pts):
                    pts.append(q)
        return pts


# ---------------------------------------------------------------------------
# cones

@dataclass(frozen=True)
class Atom:
    """A convex piece of a planar cone.

    kind: 'zero' | 'ray' | 'line' | 'sector' | 'half' | 'full'
    g1/g2: generators; for 'sector'/'half', g1 -> g2 counterclockwise with
    angle <= pi ('half' means exactly pi).
    """

    kind: str
    g1: tuple = (0.0, 0.0)
    g2: tuple = (0.0, 0.0)

    def to_json(self):
        d = {"kind": self.kind}
        if self.kind in ("ray", "line"):
            d["generator"] = list(self.g1)
        elif self.kind in ("sector", "half"):
            d["g1"] = list(self.g1)
            d["g2"] = list(self.g2)
        return d


def atom_ray(v) -> Atom:
    return Atom("ray", _unit(v))


def atom_line(v) -> Atom:
    return Atom("line", _unit(v))


def atom_sector(v1, v2) -> Atom:
    """Counterclockwise sector from v1 to v2 (angle in (0, pi])."""
    u1, u2 = _unit(v1), _unit(v2)
    width = (_angle(u2) - _angle(u1)) % TWO_PI
    kind = "half" if abs(width - math.pi) <= ANGLE_TOL else "sector"
    return Atom(kind, u1, u2)


def _atom_arcs(atom: Atom):
    """Atom as a list of closed angular arcs (start, end), end - start <= 2*pi."""
    if atom.kind == "zero":
        return []
    if atom.kind == "full":
        return [(0.0, TWO_PI)]
    a1 = _angle(atom.g1)
    if atom.kind == "ray":
        return [(a1, a1)]
    if atom.kind == "line":
        return [(a1, a1), ((a1 + math.pi) % TWO_PI, (a1 + math.pi) % TWO_PI)]
    width = (_angle(atom.g2) - a1) % TWO_PI
    if width == 0.0 and atom.kind in ("sector", "half"):
        width = math.pi if atom.kind == "half" else 0.0
    return [(a1, a1 + width)]


def _arcs_within(arcs, others, tol):
    """Whether each arc lies within tol inside one arc of others."""
    for s, e in arcs:
        for s2, e2 in others:
            if e2 - s2 >= TWO_PI - tol or (s - s2 + tol) % TWO_PI + e - s <= e2 - s2 + 2.0 * tol:
                break
        else:
            return False
    return True


class ConeUnion2:
    """Finite union of polyhedral cones in the plane, canonical angular form.

    Stored as merged closed arcs [start, start+length] with start in
    [0, 2*pi); the zero cone has no arcs; the full plane is one arc of
    length 2*pi.  All cones contain the origin by convention.
    """

    def __init__(self, arcs):
        self.arcs = self._canonicalize(arcs)

    # -- construction -------------------------------------------------------

    @staticmethod
    def zero() -> "ConeUnion2":
        return ConeUnion2([])

    @staticmethod
    def full() -> "ConeUnion2":
        return ConeUnion2([(0.0, TWO_PI)])

    @staticmethod
    def from_atoms(atoms) -> "ConeUnion2":
        arcs = []
        for a in atoms:
            arcs.extend(_atom_arcs(a))
        return ConeUnion2(arcs)

    @staticmethod
    def line(v) -> "ConeUnion2":
        return ConeUnion2.from_atoms([atom_line(v)])

    # -- canonical form -----------------------------------------------------

    @staticmethod
    def _canonicalize(arcs, tol=ANGLE_TOL):
        cleaned = []
        for (s, e) in arcs:
            length = e - s
            if length < 0:
                raise ValueError("arc with negative length")
            if length >= TWO_PI - tol:
                return ((0.0, TWO_PI),)
            cleaned.append((s % TWO_PI, length))
        if not cleaned:
            return ()
        cleaned.sort()
        merged = []
        for s, ln in cleaned:
            if merged and s <= merged[-1][0] + merged[-1][1] + tol:
                ps, pl = merged[-1]
                merged[-1] = (ps, max(pl, s + ln - ps))
            else:
                merged.append((s, ln))
        # wrap-around merge between last and first
        while len(merged) > 1:
            s0, l0 = merged[0]
            s1, l1 = merged[-1]
            if s1 + l1 >= s0 + TWO_PI - tol:
                new_len = max(l1, s0 + l0 + TWO_PI - s1)
                if new_len >= TWO_PI - tol:
                    return ((0.0, TWO_PI),)
                merged = merged[1:-1] + [(s1, new_len)]
                merged.sort()
            else:
                break
        return tuple(sorted((s, s + ln) for s, ln in merged))

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.arcs

    @property
    def is_full(self) -> bool:
        return len(self.arcs) == 1 and self.arcs[0][1] - self.arcs[0][0] >= TWO_PI - ANGLE_TOL

    def contains_vector(self, v, tol=ANGLE_TOL) -> bool:
        n = math.hypot(v[0], v[1])
        if n <= 1e-300:
            return True
        a = _angle((v[0] / n, v[1] / n))
        return _arcs_within([(a, a)], self.arcs, tol)

    def union(self, other: "ConeUnion2") -> "ConeUnion2":
        return ConeUnion2(list(self.arcs) + list(other.arcs))

    def subset_of(self, other: "ConeUnion2", tol=1e-9) -> bool:
        """Exact containment: canonical arcs are merged, so a connected arc
        inside their union lies (within tol) inside one of them."""
        return _arcs_within(self.arcs, other.arcs, tol)

    def equals(self, other: "ConeUnion2", tol=ANGLE_TOL) -> bool:
        if len(self.arcs) != len(other.arcs):
            return False
        for (s1, e1), (s2, e2) in zip(self.arcs, other.arcs):
            ds = min(abs(s1 - s2), TWO_PI - abs(s1 - s2))
            if ds > tol or abs((e1 - s1) - (e2 - s2)) > tol:
                return False
        return True

    # -- conversions --------------------------------------------------------

    def to_atoms(self):
        """Decompose into Atom records (arcs longer than pi are split)."""
        if self.is_zero:
            return [Atom("zero")]
        if self.is_full:
            return [Atom("full")]
        atoms = []
        # pair each degenerate arc with its first antipodal mate into a line
        deg = [s for s, e in self.arcs if e - s <= ANGLE_TOL]
        while deg:
            s = deg.pop(0)
            mate = next((j for j, t in enumerate(deg)
                         if abs((t - s) % TWO_PI - math.pi) <= ANGLE_TOL), None)
            if mate is not None:
                deg.pop(mate)
            atoms.append(Atom("ray" if mate is None else "line", _from_angle(s)))
        for s, e in self.arcs:
            w = e - s
            if w <= ANGLE_TOL:
                continue
            if w <= math.pi + ANGLE_TOL:
                kind = "half" if abs(w - math.pi) <= ANGLE_TOL else "sector"
                atoms.append(Atom(kind, _from_angle(s), _from_angle(e)))
            else:
                mid = s + w / 2.0
                atoms.append(Atom("sector", _from_angle(s), _from_angle(mid)))
                atoms.append(Atom("sector", _from_angle(mid), _from_angle(e)))
        return atoms

    def to_json(self):
        return [a.to_json() for a in self.to_atoms()]

    def __repr__(self):
        if self.is_zero:
            return "ConeUnion2(zero)"
        if self.is_full:
            return "ConeUnion2(full)"
        return "ConeUnion2(%s)" % ", ".join(
            "[%.6f, %.6f]" % (s, e) for s, e in self.arcs)


def polar_of_directions(dirs) -> ConeUnion2:
    """Polar cone {v : <v, d> <= 0 for all d} of a finite set of directions.

    Read off the angular gaps between the sorted directions: v is polar iff
    every direction lies within the half-circle opposite v, so the polar is
    nonzero only across a cyclic gap a -> b of at least pi, where it is the
    arc [a + pi/2, b - pi/2] (a single point when the gap is pi).  With no
    such gap the polar is {0}; one direction gives a half-plane, and two
    opposite directions leave two gaps of pi, whose points form the normal
    line.
    """
    if not dirs:
        return ConeUnion2.full()
    angles = sorted(_angle(_unit(d)) for d in dirs)
    return ConeUnion2([(a + math.pi / 2.0, max(a, b - math.pi) + math.pi / 2.0)
                       for a, b in zip(angles, angles[1:] + [angles[0] + TWO_PI])
                       if b - a >= math.pi - ANGLE_TOL])


# ---------------------------------------------------------------------------
# point classification

@dataclass
class Classification:
    kind: str                 # 'segment-interior' | 'vertex'
    point: tuple              # snapped to the graph
    pieces: list              # incident pieces
    out_directions: list = field(default_factory=list)  # unit directions into each piece

    def to_json(self):
        return {"kind": self.kind, "point": list(self.point),
                "out_directions": [list(d) for d in self.out_directions]}


def classify_point(G: PolylineGraph, p, tol=1e-10) -> Classification:
    """Locate p on the graph: interior of a piece, or a vertex with its incident pieces."""
    hits = []
    for pc in G.pieces:
        t = pc.project_param(p)
        q = pc.point_at(t)
        if math.hypot(p[0] - q[0], p[1] - q[1]) <= tol:
            hits.append((pc, t, q))
    if not hits:
        raise GraphPointError("point (%g, %g) not on graph (distance %g)"
                              % (p[0], p[1], G.distance(p)))
    snapped = hits[0][2]
    # snap tolerance in parameter space, per piece
    interior_hits, endpoint_hits = [], []
    for pc, t, _q in hits:
        dd = math.hypot(*pc.direction)
        tp = tol / dd * 4.0 + 1e-14
        at_end = (math.isfinite(pc.t0) and abs(t - pc.t0) <= tp) or \
                 (math.isfinite(pc.t1) and abs(t - pc.t1) <= tp)
        if at_end:
            endpoint_hits.append((pc, t))
        else:
            interior_hits.append((pc, t))
    if interior_hits and not endpoint_hits:
        # two incident half-pieces, along u and -u
        pc, t = interior_hits[0]
        u = pc.unit_direction()
        return Classification("segment-interior", snapped, [pc, pc], [u, (-u[0], -u[1])])
    # vertex: outgoing direction per incident piece
    pieces, outs = [], []
    for pc, t in endpoint_hits:
        u = pc.unit_direction()
        if math.isfinite(pc.t0) and abs(t - pc.t0) <= abs(t - pc.t1):
            outs.append(u)
        else:
            outs.append((-u[0], -u[1]))
        pieces.append(pc)
    return Classification("vertex", snapped, pieces, outs)


# ---------------------------------------------------------------------------
# cone operations

def tangent_atoms(G: PolylineGraph, p, tol=1e-10):
    """Tangent cone as convex atoms: one ray per incident half-piece, with
    opposite rays joined into a line."""
    dirs = classify_point(G, p, tol).out_directions
    atoms, mates = [], set()
    for i, u in enumerate(dirs):
        if i in mates:
            continue
        mate = next((j for j in range(i + 1, len(dirs)) if j not in mates
                     and abs(u[0] + dirs[j][0]) < 1e-12 and abs(u[1] + dirs[j][1]) < 1e-12),
                    None)
        mates.add(mate)
        atoms.append(atom_ray(u) if mate is None else atom_line(u))
    return atoms


def tangent_cone(G: PolylineGraph, p, tol=1e-10) -> ConeUnion2:
    """Bouligand tangent cone to the graph at p."""
    return ConeUnion2.from_atoms(tangent_atoms(G, p, tol))


def regular_normal_cone(G: PolylineGraph, p, tol=1e-10) -> ConeUnion2:
    """Regular (Frechet) normal cone: polar of the tangent cone."""
    return polar_of_directions(classify_point(G, p, tol).out_directions)


def _normal_line(pc: Piece) -> Atom:
    d = pc.unit_direction()
    return atom_line((-d[1], d[0]))


def _uncovered(atoms):
    """The atoms that lie inside no other atom; of equal atoms, the first."""
    arcs = [_atom_arcs(a) for a in atoms]
    out = []
    for i, x in enumerate(arcs):
        for j, y in enumerate(arcs):
            if j != i and _arcs_within(x, y, 1e-12) and (j < i or not _arcs_within(y, x, 1e-12)):
                break
        else:
            out.append(atoms[i])
    return out


def limiting_normal_atoms(G: PolylineGraph, p, tol=1e-10):
    """Limiting normal cone as convex atoms: the normal line of each incident
    piece and the regular cone, less the atoms that another one covers."""
    cl = classify_point(G, p, tol)
    lines = [_normal_line(pc) for pc in dict.fromkeys(cl.pieces)]
    return _uncovered(lines + polar_of_directions(cl.out_directions).to_atoms())


def limiting_normal_cone(G: PolylineGraph, p, tol=1e-10) -> ConeUnion2:
    return ConeUnion2.from_atoms(limiting_normal_atoms(G, p, tol))


def directional_limiting_normal_atoms(G: PolylineGraph, p, d, tol=1e-10):
    """Directional limiting normal cone in direction d, as convex atoms.

    d = 0 gives the limiting cone; d outside the tangent cone gives {0};
    d along an incident half-piece gives that piece's normal line (polyline
    geometry: points p + td eventually lie in that piece's relative
    interior).
    """
    nd = math.hypot(d[0], d[1])
    if nd <= DIR_TOL:
        return limiting_normal_atoms(G, p, tol)
    u = (d[0] / nd, d[1] / nd)
    cl = classify_point(G, p, tol)
    lines = [_normal_line(pc) for pc, out in zip(cl.pieces, cl.out_directions)
             if abs(u[0] - out[0]) <= DIR_TOL and abs(u[1] - out[1]) <= DIR_TOL]
    return _uncovered(lines) or [Atom("zero")]


def directional_limiting_normal_cone(G: PolylineGraph, p, d, tol=1e-10) -> ConeUnion2:
    return ConeUnion2.from_atoms(directional_limiting_normal_atoms(G, p, d, tol))
