import math

import numpy as np
import pytest

import cone_oracle as oracle
from calmkit.graphs_cones import (ConeUnion2, GraphPointError, atom_ray,
                                  classify_point,
                                  directional_limiting_normal_atoms,
                                  directional_limiting_normal_cone,
                                  limiting_normal_atoms, limiting_normal_cone,
                                  polar_of_directions, regular_normal_cone,
                                  tangent_atoms, tangent_cone)
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

def test_tangent_interior_vertical_is_vertical_line():
    c = tangent_cone(SCAD, (0.0, 0.3))
    assert c.equals(ConeUnion2.line((0.0, 1.0)))


def test_tangent_on_slanted_branch():
    a = 3.0
    z = 2.0  # between lam and a*lam
    c = tangent_cone(SCAD, (z, (a - z) / (a - 1.0)))
    assert c.equals(ConeUnion2.line((1.0, 1.0 / (1.0 - a))))


def test_tangent_at_l1_vertex_two_rays():
    c = tangent_cone(L1, (0.0, 1.0))
    expected = ConeUnion2.from_atoms([atom_ray((0.0, -1.0)), atom_ray((1.0, 0.0))])
    assert c.equals(expected)
    # definition-based sampling oracle agrees
    assert oracle.arcs_match(oracle.tangent_arcs(L1, (0.0, 1.0)), c)


def test_regular_normal_interior_pieces():
    assert regular_normal_cone(SCAD, (0.5, 1.0)).equals(ConeUnion2.line((0.0, 1.0)))
    assert regular_normal_cone(SCAD, (0.0, 0.3)).equals(ConeUnion2.line((1.0, 0.0)))
    a = 3.0
    c = regular_normal_cone(SCAD, (2.0, (a - 2.0) / (a - 1.0)))
    assert c.equals(ConeUnion2.line((1.0, a - 1.0)))


def test_limiting_normal_interior_matches_displayed_cones():
    # interior vertical point -> R x {0}; interior flat point -> {0} x R
    assert limiting_normal_cone(SCAD, (0.0, 0.3)).equals(ConeUnion2.line((1.0, 0.0)))
    assert limiting_normal_cone(SCAD, (0.5, 1.0)).equals(ConeUnion2.line((0.0, 1.0)))


def test_limiting_normal_at_l1_vertex():
    c = limiting_normal_cone(L1, (0.0, 1.0))
    sector = polar_of_directions([(0.0, -1.0), (1.0, 0.0)])
    expected = ConeUnion2.line((1.0, 0.0)).union(
        ConeUnion2.line((0.0, 1.0))).union(sector)
    assert c.equals(expected)
    assert oracle.arcs_match(oracle.limiting_arcs(L1, (0.0, 1.0)), c)


def test_directional_normal_examples():
    # kink (0,-lam), direction up the vertical segment -> R x {0}
    c = directional_limiting_normal_cone(SCAD, (0.0, -1.0), (0.0, 1.0))
    assert c.equals(ConeUnion2.line((1.0, 0.0)))
    # slanted piece along its own direction -> its normal line
    a = 3.0
    c2 = directional_limiting_normal_cone(SCAD, (2.0, 0.5), (1.0, 1.0 / (1.0 - a)))
    assert c2.equals(ConeUnion2.line((1.0, a - 1.0)))
    # off-tangent direction -> zero cone
    c3 = directional_limiting_normal_cone(SCAD, (0.0, 1.0), (0.3, 0.9))
    assert c3.is_zero


def test_directional_zero_direction_is_limiting():
    for p in ((0.0, 1.0), (0.0, 0.3), (3.0, 0.0)):
        czero = directional_limiting_normal_cone(SCAD, p, (0.0, 0.0))
        assert czero.equals(limiting_normal_cone(SCAD, p))


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
            reg = regular_normal_cone(G, p)
            lim = limiting_normal_cone(G, p)
            assert reg.subset_of(lim, tol=1e-9)
            assert directional_limiting_normal_cone(G, p, (0.0, 0.0)).equals(lim)
            cl = classify_point(G, p)
            for d in cl.out_directions + [(0.55, 0.835)]:
                dc = directional_limiting_normal_cone(G, p, d)
                assert dc.subset_of(lim, tol=1e-9)


def test_polarity_at_vertices():
    for _name, G in ALL_GRAPHS:
        for v in G.vertices():
            reg = regular_normal_cone(G, v)
            cl = classify_point(G, v)
            # pairwise inner products <= 0 against every tangent direction
            for s, e in reg.arcs:
                for ang in np.linspace(s, e, 5):
                    vvec = (math.cos(ang), math.sin(ang))
                    for u in cl.out_directions:
                        assert vvec[0] * u[0] + vvec[1] * u[1] <= 1e-9
            # maximality: polar of the tangent rays equals the regular cone
            assert reg.equals(polar_of_directions(cl.out_directions))


def test_oracle_equivalence_at_all_breakpoints():
    for _name, G in ALL_GRAPHS[:3]:
        for v in G.vertices():
            assert oracle.arcs_match(oracle.tangent_arcs(G, v), tangent_cone(G, v))
            assert oracle.arcs_match(oracle.regular_arcs(G, v),
                                     regular_normal_cone(G, v))
            assert oracle.arcs_match(oracle.limiting_arcs(G, v),
                                     limiting_normal_cone(G, v))
            cl = classify_point(G, v)
            for d in cl.out_directions:
                assert oracle.arcs_match(
                    oracle.directional_arcs(G, v, d),
                    directional_limiting_normal_cone(G, v, d))


def test_atom_counts_stay_small():
    # at most 3 convex atoms per point for these graphs (certificate budget)
    for _name, G in ALL_GRAPHS:
        for p in _sample_graph_points(G):
            assert len(limiting_normal_atoms(G, p)) <= 3
            assert len(tangent_atoms(G, p)) <= 2


# ---------------------------------------------------------------------------
# cone algebra

def test_cone_union_canonical_merging():
    c = ConeUnion2.from_atoms([atom_ray((1.0, 0.0))]).union(
        ConeUnion2.from_atoms([atom_ray((-1.0, 0.0))]))
    assert c.equals(ConeUnion2.line((1.0, 0.0)))


def test_cone_full_plane_detection():
    up = polar_of_directions([(0.0, -1.0)])
    down = polar_of_directions([(0.0, 1.0)])
    assert up.union(down).is_full


def test_polar_of_opposite_rays_is_perpendicular_line():
    c = polar_of_directions([(1.0, 0.0), (-1.0, 0.0)])
    assert c.equals(ConeUnion2.line((0.0, 1.0)))


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
        seen["zero"] += cone.is_zero
        seen["checked"] += 1
    assert seen["checked"] >= 490 and min(seen.values()) >= 30, seen


def test_cone_json_atoms():
    c = limiting_normal_cone(L1, (0.0, 1.0))
    kinds = sorted(a["kind"] for a in c.to_json())
    assert kinds == ["ray", "ray", "sector"]


def test_cone_wrap_around_merging():
    import math as m
    from calmkit.graphs_cones import atom_sector
    # two sectors meeting across the zero angle merge into one arc
    a = ConeUnion2.from_atoms([atom_sector((1.0, -0.5), (1.0, 0.0))])
    b = ConeUnion2.from_atoms([atom_sector((1.0, 0.0), (1.0, 0.5))])
    u = a.union(b)
    assert len(u.arcs) == 1
    assert u.contains_vector((1.0, 0.0))
    assert u.contains_vector((1.0, 0.45))
    assert u.contains_vector((1.0, -0.45))
    assert not u.contains_vector((-1.0, 0.0))
    # a sector whose interior crosses the zero angle still tests membership
    c = ConeUnion2.from_atoms([atom_sector((m.cos(-0.4), m.sin(-0.4)),
                                           (m.cos(0.4), m.sin(0.4)))])
    assert c.contains_vector((1.0, 0.0))
    assert not c.contains_vector((0.0, 1.0))
    # canonical form survives the atom round trip
    assert ConeUnion2.from_atoms(c.to_atoms()).equals(c)
    assert ConeUnion2.from_atoms(u.to_atoms()).equals(u)


def test_subset_of_is_exact():
    # a gap of 4e-4 rad is not covered, however fine an angular sampling is
    whole = ConeUnion2([(0.0, 0.6)])
    split = ConeUnion2([(0.0, 0.3), (0.3004, 0.6)])
    assert not whole.subset_of(split)
    assert split.subset_of(whole)
    assert ConeUnion2([(0.1, 0.2999999999)]).subset_of(split)
    # arcs across the zero angle, on either side
    wrap = ConeUnion2([(6.0, 6.5)])
    assert ConeUnion2([(0.1, 0.2)]).subset_of(wrap)
    assert ConeUnion2([(6.1, 6.3)]).subset_of(wrap)
    assert not ConeUnion2([(0.1, 0.3)]).subset_of(wrap)
    assert not wrap.subset_of(ConeUnion2([(0.0, 0.2), (6.0, 6.28)]))
    # the full plane contains everything and lies in nothing smaller
    full, zero = ConeUnion2.full(), ConeUnion2.zero()
    for c in (whole, split, wrap, zero, full):
        assert c.subset_of(full)
        assert zero.subset_of(c)
    assert not full.subset_of(ConeUnion2([(0.0, 6.28)]))
    assert not full.subset_of(zero)


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
        assert tangent_cone(G, p).arcs == ConeUnion2.from_atoms(tangent_atoms(G, p)).arcs
        atoms = limiting_normal_atoms(G, p)
        for i, a in enumerate(atoms):
            for j, b in enumerate(atoms):
                assert i == j or not ConeUnion2.from_atoms([a]).subset_of(
                    ConeUnion2.from_atoms([b])), (name, p, a, b)
        dirs = classify_point(G, p).out_directions + [(0.0, 0.0), (0.55, 0.835)]
        for d in dirs:
            assert directional_limiting_normal_cone(G, p, d).arcs == ConeUnion2.from_atoms(
                directional_limiting_normal_atoms(G, p, d)).arcs
