"""Exact cone calculus on piecewise-linear subdifferential graphs in the plane.

A subdifferential graph is stored as a union of line pieces (segments or
rays).  Tangent, regular normal, limiting normal and directional limiting
normal cones at a point of the graph are all finite unions of convex atoms
(ray, line, sector, half-plane, {0} or the plane), and the atom lists are the
output of the calculus: their generators are the graph's own unit directions
and their 90-degree rotations, so a generator that a piece makes
axis-aligned is exactly axis-aligned, and the certificate rows read from
Atom.g1/g2 carry no rounding that the data do not have.

classify_point sees every graph point as a vertex with incident half-pieces;
a segment-interior point has two, along u and -u.  tangent_atoms gives one
ray per half-piece.  polar_of_directions gives the regular normal cone, read
off the angular gaps between the sorted directions: a gap u -> v of more
than pi gives the sector from u rotated by +90 degrees to v rotated by -90
degrees, and a gap of pi gives the ray u rotated by +90 degrees.  In both,
opposite rays join into a line (_rays_and_lines).  limiting_normal_atoms and
directional_limiting_normal_atoms add each incident piece's normal line, and
_uncovered drops every atom that lies inside another.

Angles only sort directions and decide whether one atom lies inside
another: _uncovered reads each atom as closed angular arcs (_atom_arcs) and
asks one arc-in-arc test, _arcs_within.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

TWO_PI = 2.0 * math.pi
ANGLE_TOL = 1e-10  # angular tolerance (radians): a gap or width of pi
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


def _rays_and_lines(gens):
    """One ray per generator, with each opposite pair joined into a line."""
    atoms, mates = [], set()
    for i, u in enumerate(gens):
        if i in mates:
            continue
        mate = next((j for j in range(i + 1, len(gens)) if j not in mates
                     and abs(u[0] + gens[j][0]) < 1e-12 and abs(u[1] + gens[j][1]) < 1e-12),
                    None)
        mates.add(mate)
        atoms.append(atom_ray(u) if mate is None else atom_line(u))
    return atoms


def polar_of_directions(dirs):
    """Polar cone {v : <v, d> <= 0 for all d} of a finite set of directions,
    as convex atoms.

    v is polar iff every direction lies within the half-circle opposite v, so
    the polar is nonzero only across a cyclic gap u -> v of at least pi
    between the sorted directions.  A gap of more than pi gives the sector
    from (-u_y, u_x) to (v_y, -v_x), a half-plane when the gap is 2*pi (one
    direction); a gap of pi gives the ray (-u_y, u_x), and two opposite
    directions leave two such rays, which join into the normal line.  No
    direction gives the plane, and no gap of at least pi gives {0}.
    """
    if not dirs:
        return [Atom("full")]
    ring = sorted((_angle(u), u) for u in map(_unit, dirs))
    sectors, rays = [], []
    for (a, u), (b, v) in zip(ring, ring[1:] + [(ring[0][0] + TWO_PI, ring[0][1])]):
        if b - a > math.pi + ANGLE_TOL:
            sectors.append(atom_sector((-u[1], u[0]), (v[1], -v[0])))
        elif b - a >= math.pi - ANGLE_TOL:
            rays.append((-u[1], u[0]))
    return sectors + _rays_and_lines(rays) or [Atom("zero")]


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
    return _rays_and_lines(classify_point(G, p, tol).out_directions)


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
    """Limiting normal cone as convex atoms: at a segment-interior point the
    piece's normal line; at a vertex the normal line of each incident piece
    and the regular cone's atoms, less the atoms that another one covers."""
    cl = classify_point(G, p, tol)
    if cl.kind == "segment-interior":
        return [_normal_line(cl.pieces[0])]
    return _uncovered([_normal_line(pc) for pc in cl.pieces]
                      + polar_of_directions(cl.out_directions))


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
