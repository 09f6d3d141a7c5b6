import math

import numpy as np
import pytest

import cone_oracle as oracle
from calmkit import graphs_cones
from calmkit.graphs_cones import (Atom, GraphPointError, atom_line, atom_ray,
                                  atom_sector, classify_point,
                                  directional_limiting_normal_atoms,
                                  limiting_normal_atoms, polar_of_directions,
                                  tangent_atoms)
from calmkit.penalties import (BoxIndicator, L1Penalty, McpPenalty, NegAbsPenalty,
                               ScadPenalty, ZeroPenalty)

SCAD = ScadPenalty(1.0, 3.0).graph()
MCP = McpPenalty(1.0, 2.0).graph()
L1 = L1Penalty(1.0).graph()


# ---------------------------------------------------------------------------
# classification

def test_classify_interior_vertical():
    cl = classify_point(SCAD, (0.0, 0.3))
    assert cl.kind == "segment-interior"
    assert np.allclose(cl.point, (0.0, 0.3))


def test_classify_vertex():
    cl = classify_point(SCAD, (0.0, 1.0))
    assert cl.kind == "vertex"
    assert len(cl.pieces) == 2


def test_classify_tail_interior():
    cl = classify_point(SCAD, (5.0, 0.0))
    assert cl.kind == "segment-interior"


def test_classify_off_graph_errors():
    with pytest.raises(GraphPointError, match="not on graph"):
        classify_point(SCAD, (0.5, 0.5))


def test_classify_snaps_to_graph():
    cl = classify_point(SCAD, (1e-11, 0.3))
    assert cl.point[0] == 0.0


# ---------------------------------------------------------------------------
# cones at spec reference points

def regular_normal_atoms(G, p):
    return polar_of_directions(classify_point(G, p).out_directions)


def test_tangent_interior_vertical_is_vertical_line():
    c = tangent_atoms(SCAD, (0.0, 0.3))
    assert oracle.same_cone(c, [atom_line((0.0, 1.0))])


def test_tangent_on_slanted_branch():
    a = 3.0
    z = 2.0  # between lam and a*lam
    c = tangent_atoms(SCAD, (z, (a - z) / (a - 1.0)))
    assert oracle.same_cone(c, [atom_line((1.0, 1.0 / (1.0 - a)))])


def test_tangent_at_l1_vertex_two_rays():
    c = tangent_atoms(L1, (0.0, 1.0))
    assert oracle.same_cone(c, [atom_ray((0.0, -1.0)), atom_ray((1.0, 0.0))])
    # definition-based sampling oracle agrees
    assert oracle.arcs_match(oracle.tangent_arcs(L1, (0.0, 1.0)), c)


def test_regular_normal_interior_pieces():
    assert oracle.same_cone(regular_normal_atoms(SCAD, (0.5, 1.0)), [atom_line((0.0, 1.0))])
    assert oracle.same_cone(regular_normal_atoms(SCAD, (0.0, 0.3)), [atom_line((1.0, 0.0))])
    a = 3.0
    c = regular_normal_atoms(SCAD, (2.0, (a - 2.0) / (a - 1.0)))
    assert oracle.same_cone(c, [atom_line((1.0, a - 1.0))])


def test_limiting_normal_interior_matches_displayed_cones():
    # interior vertical point -> R x {0}; interior flat point -> {0} x R
    assert oracle.same_cone(limiting_normal_atoms(SCAD, (0.0, 0.3)), [atom_line((1.0, 0.0))])
    assert oracle.same_cone(limiting_normal_atoms(SCAD, (0.5, 1.0)), [atom_line((0.0, 1.0))])


def test_limiting_normal_at_l1_vertex():
    c = limiting_normal_atoms(L1, (0.0, 1.0))
    sector = polar_of_directions([(0.0, -1.0), (1.0, 0.0)])
    assert oracle.same_cone(c, [atom_line((1.0, 0.0)), atom_line((0.0, 1.0))] + sector)
    assert oracle.arcs_match(oracle.limiting_arcs(L1, (0.0, 1.0)), c)


def test_directional_normal_examples():
    # kink (0,-lam), direction up the vertical segment -> R x {0}
    c = directional_limiting_normal_atoms(SCAD, (0.0, -1.0), (0.0, 1.0))
    assert oracle.same_cone(c, [atom_line((1.0, 0.0))])
    # slanted piece along its own direction -> its normal line
    a = 3.0
    c2 = directional_limiting_normal_atoms(SCAD, (2.0, 0.5), (1.0, 1.0 / (1.0 - a)))
    assert oracle.same_cone(c2, [atom_line((1.0, a - 1.0))])
    # off-tangent direction -> zero cone
    c3 = directional_limiting_normal_atoms(SCAD, (0.0, 1.0), (0.3, 0.9))
    assert oracle.same_cone(c3, [Atom("zero")])


def test_directional_zero_direction_is_limiting():
    for p in ((0.0, 1.0), (0.0, 0.3), (3.0, 0.0)):
        czero = directional_limiting_normal_atoms(SCAD, p, (0.0, 0.0))
        assert oracle.same_cone(czero, limiting_normal_atoms(SCAD, p))


# ---------------------------------------------------------------------------
# invariants

ALL_GRAPHS = [("scad", SCAD), ("mcp", MCP), ("l1", L1),
              ("box", BoxIndicator(-1.0, 2.0).graph())]


def _sample_graph_points(G):
    pts = list(G.vertices())
    for pc in G.pieces:
        t0 = pc.t0 if math.isfinite(pc.t0) else pc.t1 - 2.0
        t1 = pc.t1 if math.isfinite(pc.t1) else pc.t0 + 2.0
        pts.append(pc.point_at(0.5 * (t0 + t1)))
    return pts


def test_containment_chain():
    for _name, G in ALL_GRAPHS:
        for p in _sample_graph_points(G):
            reg = regular_normal_atoms(G, p)
            lim = limiting_normal_atoms(G, p)
            assert oracle.cone_within(reg, lim, tol=1e-9)
            assert oracle.same_cone(directional_limiting_normal_atoms(G, p, (0.0, 0.0)), lim)
            cl = classify_point(G, p)
            for d in cl.out_directions + [(0.55, 0.835)]:
                dc = directional_limiting_normal_atoms(G, p, d)
                assert oracle.cone_within(dc, lim, tol=1e-9)


def test_polarity_at_vertices():
    for _name, G in ALL_GRAPHS:
        for v in G.vertices():
            reg = regular_normal_atoms(G, v)
            cl = classify_point(G, v)
            # pairwise inner products <= 0 against every tangent direction
            for s, e in oracle.cone_arcs(reg):
                for ang in np.linspace(s, e, 5):
                    vvec = (math.cos(ang), math.sin(ang))
                    for u in cl.out_directions:
                        assert vvec[0] * u[0] + vvec[1] * u[1] <= 1e-9
            # maximality: polar of the tangent rays equals the regular cone
            rays = [g for a in tangent_atoms(G, v)
                    for g in ((a.g1, (-a.g1[0], -a.g1[1])) if a.kind == "line" else (a.g1,))]
            assert oracle.same_cone(reg, polar_of_directions(rays))


def test_oracle_equivalence_at_all_breakpoints():
    for _name, G in ALL_GRAPHS[:3]:
        for v in G.vertices():
            assert oracle.arcs_match(oracle.tangent_arcs(G, v), tangent_atoms(G, v))
            assert oracle.arcs_match(oracle.regular_arcs(G, v),
                                     regular_normal_atoms(G, v))
            assert oracle.arcs_match(oracle.limiting_arcs(G, v),
                                     limiting_normal_atoms(G, v))
            cl = classify_point(G, v)
            for d in cl.out_directions:
                assert oracle.arcs_match(
                    oracle.directional_arcs(G, v, d),
                    directional_limiting_normal_atoms(G, v, d))


def test_atom_counts_stay_small():
    # at most 3 convex atoms per point for these graphs (certificate budget)
    for _name, G in ALL_GRAPHS:
        for p in _sample_graph_points(G):
            assert len(limiting_normal_atoms(G, p)) <= 3
            assert len(tangent_atoms(G, p)) <= 2


# ---------------------------------------------------------------------------
# cone algebra

def test_cone_union_canonical_merging():
    c = [atom_ray((1.0, 0.0)), atom_ray((-1.0, 0.0))]
    assert oracle.same_cone(c, [atom_line((1.0, 0.0))])


def test_cone_full_plane_detection():
    up = polar_of_directions([(0.0, -1.0)])
    down = polar_of_directions([(0.0, 1.0)])
    assert oracle.same_cone(up + down, [Atom("full")])


def test_polar_of_opposite_rays_is_perpendicular_line():
    c = polar_of_directions([(1.0, 0.0), (-1.0, 0.0)])
    assert oracle.same_cone(c, [atom_line((0.0, 1.0))])


def test_polar_matches_the_oracle_on_random_direction_sets():
    # off any graph: single directions, exact opposite pairs, repeats and
    # sets that span more than a half-plane.  A gap within 1e-6 of pi between
    # directions that are not exact opposites is skipped: the oracle decides
    # it at 1e-12 and calmkit at ANGLE_TOL = 1e-10.
    rng = np.random.default_rng(25)
    seen = {"single": 0, "pair": 0, "repeat": 0, "zero": 0, "checked": 0}
    for _ in range(500):
        dirs = []
        for _ in range(rng.integers(1, 6)):
            r = rng.random()
            if dirs and r < 0.2:
                u = dirs[rng.integers(len(dirs))]
                dirs.append((-u[0], -u[1]))
                seen["pair"] += 1
            elif dirs and r < 0.35:
                dirs.append(dirs[rng.integers(len(dirs))])
                seen["repeat"] += 1
            else:
                t = rng.uniform(0.0, 2.0 * math.pi)
                dirs.append((math.cos(t), math.sin(t)))
        ring = sorted((oracle._angle_of(d), d) for d in dirs)
        gaps = zip(ring, ring[1:] + [(ring[0][0] + 2.0 * math.pi, ring[0][1])])
        if any(abs(b - a - math.pi) <= 1e-6 and v != (-u[0], -u[1])
               for (a, u), (b, v) in gaps):
            continue
        cone = polar_of_directions(dirs)
        assert oracle.arcs_match(oracle.polar_arcs([a for a, _ in ring]), cone), (dirs, cone)
        seen["single"] += len(dirs) == 1
        seen["zero"] += not oracle.cone_arcs(cone)
        seen["checked"] += 1
    assert seen["checked"] >= 490 and min(seen.values()) >= 30, seen


def test_cone_json_atoms():
    kinds = sorted(a.to_json()["kind"] for a in limiting_normal_atoms(L1, (0.0, 1.0)))
    assert kinds == ["line", "line", "sector"]


def _generators(atoms):
    return [g for a in atoms for g in ((a.g1,) if a.kind in ("ray", "line") else
                                       (a.g1, a.g2) if a.kind in ("sector", "half") else ())]


def test_generators_are_the_graph_directions_exactly():
    # generators are the pieces' unit directions and their 90-degree
    # rotations: no angle round trip, so what a piece makes axis-aligned is
    # exactly axis-aligned (no 6e-17 components) ...
    for G in (L1, SCAD):
        for v in G.vertices():
            dirs = classify_point(G, v).out_directions
            cones = [tangent_atoms(G, v), polar_of_directions(dirs),
                     limiting_normal_atoms(G, v)]
            cones += [directional_limiting_normal_atoms(G, v, d) for d in dirs]
            gens = [g for atoms in cones for g in _generators(atoms)]
            assert gens and all(c == 0.0 or abs(c) > 1e-9 for g in gens for c in g), (v, gens)
    # ... a sector and a normal line along one direction carry the same bits
    lines = {a.g1 for a in limiting_normal_atoms(SCAD, (1.0, 1.0)) if a.kind == "line"}
    (sector,) = polar_of_directions(classify_point(SCAD, (1.0, 1.0)).out_directions)
    assert sector.kind == "sector"
    hexes = {tuple(c.hex() for c in g) for g in lines}
    assert {tuple(c.hex() for c in g) for g in (sector.g1, sector.g2)} == hexes
    # ... and a segment-interior point has its piece's normal line, once
    for p, normal in (((0.0, 0.3), (-1.0, 0.0)), ((0.5, 1.0), (-0.0, 1.0))):
        assert limiting_normal_atoms(L1, p) == [atom_line(normal)]


def test_cone_wrap_around_merging():
    # two sectors meeting across the zero angle merge into one arc
    u = [atom_sector((1.0, -0.5), (1.0, 0.0)), atom_sector((1.0, 0.0), (1.0, 0.5))]
    assert len(oracle.cone_arcs(u)) == 1
    assert oracle.holds_vector(u, (1.0, 0.0))
    assert oracle.holds_vector(u, (1.0, 0.45))
    assert oracle.holds_vector(u, (1.0, -0.45))
    assert not oracle.holds_vector(u, (-1.0, 0.0))
    # a sector whose interior crosses the zero angle still tests membership
    c = [atom_sector((math.cos(-0.4), math.sin(-0.4)), (math.cos(0.4), math.sin(0.4)))]
    assert oracle.holds_vector(c, (1.0, 0.0))
    assert not oracle.holds_vector(c, (0.0, 1.0))


def test_subset_of_is_exact():
    # the arc-in-arc rule by which _uncovered drops an atom inside another:
    # a gap of 4e-4 rad is not covered, however fine an angular sampling is
    def within(a, b):
        return graphs_cones._arcs_within(a, b, 1e-9)

    whole = [(0.0, 0.6)]
    split = [(0.0, 0.3), (0.3004, 0.6)]
    assert not within(whole, split)
    assert within(split, whole)
    assert within([(0.1, 0.2999999999)], split)
    # arcs across the zero angle, on either side
    wrap = [(6.0, 6.5)]
    assert within([(0.1, 0.2)], wrap)
    assert within([(6.1, 6.3)], wrap)
    assert not within([(0.1, 0.3)], wrap)
    assert not within(wrap, [(0.0, 0.2), (6.0, 6.28)])
    # the full plane contains everything and lies in nothing smaller
    full, zero = [(0.0, 2.0 * math.pi)], []
    for c in (whole, split, wrap, zero, full):
        assert within(c, full)
        assert within(zero, c)
    assert not within(full, [(0.0, 6.28)])
    assert not within(full, zero)


FAMILY_GRAPHS = ALL_GRAPHS + [("negabs", NegAbsPenalty(1.0).graph()),
                              ("zero", ZeroPenalty().graph())]


def _vertices_and_interior_samples(G, per_piece=7):
    pts = list(G.vertices())
    for pc in G.pieces:
        t0 = pc.t0 if math.isfinite(pc.t0) else min(pc.t1, 0.0) - 3.0
        t1 = pc.t1 if math.isfinite(pc.t1) else max(pc.t0, 0.0) + 3.0
        pts += [pc.point_at(t0 + (t1 - t0) * k / (per_piece + 1.0))
                for k in range(1, per_piece + 1)]
    return pts


@pytest.mark.parametrize("name,G", FAMILY_GRAPHS, ids=[n for n, _ in FAMILY_GRAPHS])
def test_every_cone_is_built_from_its_atoms(name, G):
    for p in _vertices_and_interior_samples(G):
        atoms = limiting_normal_atoms(G, p)
        for i, a in enumerate(atoms):
            for j, b in enumerate(atoms):
                assert i == j or not oracle.cone_within([a], [b]), (name, p, a, b)
