"""Definition-based sampling oracle for planar cones on polyline graphs.

Independent of the analytic cone calculus: the oracle runs no calmkit code.
It reads a graph only through each piece's anchor, direction and parameter
range, samples graph points at shrinking radii with its own arithmetic, and
clusters the difference directions.  Its polar intersects the half-circles
opposite the directions one by one, a different method from calmkit's, which
reads the polar off the angular gaps between the directions.  Results are
plain sorted arc lists.

calmkit's cones are atom lists.  The comparator reads each atom as data
(kind and generators) into closed arcs and merges them with this file's own
merge, so every equality, containment and membership question about
calmkit's cones in the tests is decided here: same_cone, cone_within,
holds_vector and, against the sampled arcs, arcs_match.
"""

import math

TWO_PI = 2.0 * math.pi
SCALES = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


def _angle_of(v):
    a = math.atan2(v[1], v[0])
    return a + TWO_PI if a < 0 else a


def _cluster_angles(angles, tol=1e-7):
    out = []
    for a in sorted(angles):
        if not out or min(abs(a - out[-1]), TWO_PI - abs(a - out[-1])) > tol:
            out.append(a)
    if len(out) > 1 and TWO_PI - abs(out[-1] - out[0]) <= tol:
        out.pop()
    return out


def sample_points(G, center, radius, per_piece):
    """Graph points within radius of center: per_piece evenly spaced
    parameters on the stretch of each piece that the disc can reach."""
    out = []
    for pc in G.pieces:
        (x0, y0), (dx, dy) = pc.anchor, pc.direction
        tc = ((center[0] - x0) * dx + (center[1] - y0) * dy) / (dx * dx + dy * dy)
        tc = min(max(tc, pc.t0), pc.t1)
        span = radius / math.hypot(dx, dy)
        lo, hi = max(pc.t0, tc - span), min(pc.t1, tc + span)
        if lo > hi:
            continue
        step = (hi - lo) / (per_piece - 1)
        for k in range(per_piece):
            t = hi if k == per_piece - 1 else lo + k * step
            q = (x0 + t * dx, y0 + t * dy)
            if math.hypot(q[0] - center[0], q[1] - center[1]) <= radius:
                out.append(q)
    return out


def sample_tangent_directions(G, p, scale, per_piece=200):
    dirs = []
    for q in sample_points(G, p, scale, per_piece):
        d = (q[0] - p[0], q[1] - p[1])
        nd = math.hypot(*d)
        if nd > 1e-12 * (1.0 + scale):
            dirs.append(_angle_of((d[0] / nd, d[1] / nd)))
    return _cluster_angles(dirs)


def tangent_arcs(G, p):
    """Tangent cone as degenerate arcs: directions present at every scale."""
    common = None
    for s in SCALES:
        cur = sample_tangent_directions(G, p, s)
        if common is None:
            common = cur
        else:
            common = [a for a in common
                      if any(min(abs(a - b), TWO_PI - abs(a - b)) < 1e-6 for b in cur)]
    return [(a, a) for a in sorted(common)]


def polar_arcs(dir_angles):
    """Polar of a set of ray directions: the intersection of the closed
    half-circles [a + pi/2, a + 3 pi/2] opposite each direction a."""
    if not dir_angles:
        return [(0.0, TWO_PI)]
    arcs = [(0.0, TWO_PI)]
    for a in dir_angles:
        lo, hi = a + math.pi / 2.0, a + 3.0 * math.pi / 2.0
        nxt = []
        for s, e in arcs:
            for shift in (-TWO_PI, 0.0, TWO_PI):
                s2, e2 = max(s, lo + shift), min(e, hi + shift)
                if s2 <= e2 + 1e-12:
                    nxt.append((s2, max(s2, e2)))
        arcs = nxt
        if not arcs:
            return []
    return arcs


def regular_arcs(G, p, scale=1e-6):
    """Regular normal cone: polar of the sampled tangent directions."""
    return polar_arcs(sample_tangent_directions(G, p, scale))


def _merge_arcs(arcs, tol=1e-9):
    if not arcs:
        return []
    norm = []
    for s, e in arcs:
        if e - s >= TWO_PI - tol:
            return [(0.0, TWO_PI)]
        norm.append((s % TWO_PI, e - s))
    norm.sort()
    merged = []
    for s, ln in norm:
        if merged and s <= merged[-1][0] + merged[-1][1] + tol:
            ps, pl = merged[-1]
            merged[-1] = (ps, max(pl, s + ln - ps))
        else:
            merged.append((s, ln))
    while len(merged) > 1:
        s0, l0 = merged[0]
        s1, l1 = merged[-1]
        if s1 + l1 >= s0 + TWO_PI - tol:
            ln = max(l1, s0 + l0 + TWO_PI - s1)
            if ln >= TWO_PI - tol:
                return [(0.0, TWO_PI)]
            merged = merged[1:-1] + [(s1, ln)]
            merged.sort()
        else:
            break
    return [(s, s + ln) for s, ln in merged]


def limiting_arcs(G, p, scale=1e-4):
    """Union of sampled regular cones over graph points near p, plus at p."""
    arcs = list(regular_arcs(G, p))
    for q in sample_points(G, p, scale, 60):
        if math.hypot(q[0] - p[0], q[1] - p[1]) < 1e-12:
            continue
        arcs.extend(regular_arcs(G, q, scale=min(1e-7, scale * 1e-3)))
    return _merge_arcs(arcs)


def directional_arcs(G, p, d, scale=1e-5, angle_window=1e-3):
    """Directional limiting normal cone by sampling along the direction."""
    nd = math.hypot(d[0], d[1])
    if nd < 1e-12:
        return limiting_arcs(G, p)
    ad = _angle_of((d[0] / nd, d[1] / nd))
    arcs = []
    found = False
    for s in (scale, scale * 0.1):
        for q in sample_points(G, p, 1.5 * s, 400):
            dq = (q[0] - p[0], q[1] - p[1])
            nq = math.hypot(*dq)
            if nq < 0.5 * s or nq > 1.5 * s:
                continue
            aq = _angle_of((dq[0] / nq, dq[1] / nq))
            if min(abs(aq - ad), TWO_PI - abs(aq - ad)) > angle_window:
                continue
            found = True
            arcs.extend(regular_arcs(G, q, scale=s * 1e-3))
    if not found:
        return []   # direction leaves the graph: zero cone
    return _merge_arcs(arcs)


def _atom_arcs(atom):
    """A calmkit Atom, read as data through kind, g1 and g2, as closed arcs
    (start, end): a ray gives one direction, a line two, and a sector or
    half-plane the counterclockwise arc g1 -> g2 (a half pi wide even when
    g1 and g2 coincide)."""
    if atom.kind == "zero":
        return []
    if atom.kind == "full":
        return [(0.0, TWO_PI)]
    a1 = _angle_of(atom.g1) % TWO_PI
    if atom.kind == "ray":
        return [(a1, a1)]
    if atom.kind == "line":
        a2 = (a1 + math.pi) % TWO_PI
        return [(a1, a1), (a2, a2)]
    width = (_angle_of(atom.g2) - a1) % TWO_PI
    if width == 0.0 and atom.kind == "half":
        width = math.pi
    return [(a1, a1 + width)]


def cone_arcs(atoms, tol=1e-10):
    """The merged arcs of the union of a list of atoms."""
    arcs = []
    for atom in atoms:
        arcs.extend(_atom_arcs(atom))
    return _merge_arcs(arcs, tol)


def _same_arcs(ours, theirs, tol):
    """Two merged arc lists agree: as many arcs, and each of ours has one in
    theirs whose start (around the circle) and length are within tol, so a
    start that a merge moved across angle 0 still matches."""
    return len(ours) == len(theirs) and all(
        any(min(abs(s1 - s2), TWO_PI - abs(s1 - s2)) <= tol
            and abs((e1 - s1) - (e2 - s2)) <= tol for s2, e2 in theirs)
        for s1, e1 in ours)


def _arcs_within(arcs, others, tol):
    """arcs lie in others: merging them into others leaves others as it is."""
    theirs = _merge_arcs(others, tol)
    return _same_arcs(_merge_arcs(arcs + theirs, tol), theirs, tol)


def same_cone(a, b, tol=1e-10):
    """Two atom lists span the same cone, within tol radians."""
    return _same_arcs(cone_arcs(a), cone_arcs(b), tol)


def cone_within(a, b, tol=1e-9):
    """The cone of atom list a lies in that of b, within tol radians."""
    return _arcs_within(cone_arcs(a), cone_arcs(b), tol)


def holds_vector(atoms, v, tol=1e-10):
    """v lies in the cone of the atoms, within tol radians; 0 always does."""
    if math.hypot(v[0], v[1]) <= 1e-300:
        return True
    a = _angle_of(v) % TWO_PI
    return _arcs_within([(a, a)], cone_arcs(atoms), tol)


def arcs_match(oracle_arcs, atoms, tol=1e-6):
    """Compare an oracle arc list against a calmkit atom list."""
    return _same_arcs(_merge_arcs(list(oracle_arcs), tol=tol), cone_arcs(atoms), tol)
