import pytest

from conftest import read_fixture
from shortlinks import (
    Graph,
    Quadrillage,
    Zone,
    cube,
    dual_cuboctahedron,
    embeddable_by_zones,
    grid,
    partial_cube,
    quadrillage_type,
    torus,
    zone_band,
    zone_is_convex,
    zone_is_simple,
    zones,
)
from shortlinks.formats import parse_quadrillage


def banana() -> Quadrillage:
    """Spherical quadrangulation with skeleton K_{2,3}: one non-simple zone."""
    return Quadrillage(5, [(1, 3, 2, 4), (1, 4, 2, 5), (1, 5, 2, 3)])


def cylinder(p: int, q: int) -> Quadrillage:
    """p-by-q grid wrapped in the q direction only: q open zones across
    the p rows and p closed zones around the cylinder."""
    def vid(i, j):
        return i * q + j % q + 1

    return Quadrillage((p + 1) * q, [(vid(i, j), vid(i + 1, j), vid(i + 1, j + 1),
                                      vid(i, j + 1))
                                     for i in range(p) for j in range(q)])


def disjoint_grids(p: int, q: int) -> Quadrillage:
    """Two copies of grid(p, q) on disjoint vertex sets."""
    g = grid(p, q)
    n = g.num_vertices
    return Quadrillage(2 * n, list(g.faces)
                       + [tuple(v + n for v in f) for f in g.faces])


class TestQuadrillageBasics:
    def test_cube_counts(self):
        Q = cube()
        assert (Q.num_vertices, Q.num_edges, Q.num_faces) == (8, 12, 6)
        assert Q.is_closed
        assert Q.euler_characteristic() == 2

    def test_torus_counts(self):
        Q = torus(3, 4)
        assert (Q.num_vertices, Q.num_edges, Q.num_faces) == (12, 24, 12)
        assert Q.is_closed
        assert Q.euler_characteristic() == 0
        assert quadrillage_type(Q) == {4}

    def test_dual_cuboctahedron_counts(self):
        Q = dual_cuboctahedron()
        assert (Q.num_vertices, Q.num_edges, Q.num_faces) == (14, 24, 12)
        assert Q.is_closed

    def test_dual_cuboctahedron_matches_fixture(self):
        assert dual_cuboctahedron() == parse_quadrillage(
            read_fixture("dual_cuboctahedron.txt"))

    def test_grid_boundary(self):
        Q = grid(2, 3)
        assert not Q.is_closed
        assert Q.num_vertices == 12 and Q.num_faces == 6
        assert Q.euler_characteristic() == 1
        assert len(Q.boundary_edges()) == 10

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            grid(0, 2)
        with pytest.raises(ValueError):
            torus(2, 4)

    def test_face_validation(self):
        with pytest.raises(ValueError):
            Quadrillage(4, [(1, 2, 3, 3)])
        with pytest.raises(ValueError):
            Quadrillage(3, [(1, 2, 3, 4)])
        with pytest.raises(ValueError):
            Quadrillage(6, [(1, 2, 3, 4), (2, 1, 4, 3)])  # same face twice

    def test_edge_in_three_faces_rejected(self):
        with pytest.raises(ValueError):
            Quadrillage(8, [(1, 2, 3, 4), (1, 2, 5, 6), (1, 2, 7, 8)])

    def test_canonical_face_storage(self):
        Q = Quadrillage(4, [(3, 4, 1, 2)])
        assert Q.faces == ((1, 2, 3, 4),)

    def test_skeleton_built_once(self):
        Q = grid(2, 2)
        assert Q.skeleton() is Q.skeleton()

    def test_skeleton(self):
        G = cube().skeleton()
        assert G.num_vertices == 8 and G.num_edges == 12
        assert all(G.degree(v) == 3 for v in G.vertices)


class TestZones:
    def test_cube_three_zones_of_four(self):
        zs = zones(cube())
        assert len(zs) == 3
        assert all(z.closed and z.length == 4 for z in zs)

    @pytest.mark.parametrize("p,q", [(3, 4), (4, 4), (3, 3)])
    def test_torus_zone_count_and_partition(self, p, q):
        Q = torus(p, q)
        zs = zones(Q)
        assert len(zs) == p + q
        covered = [e for z in zs for e in z.edges]
        assert len(covered) == Q.num_edges
        assert set(covered) == set(Q.edge_faces)

    def test_dual_cuboctahedron_four_hexagonal_zones(self):
        zs = zones(dual_cuboctahedron())
        assert len(zs) == 4
        assert all(z.length == 6 for z in zs)

    def test_grid_zones_are_paths(self):
        zs = zones(grid(2, 3))
        assert len(zs) == 5
        assert all(not z.closed for z in zs)
        assert sorted(z.length for z in zs) == [3, 3, 3, 4, 4]

    def test_single_cell(self):
        zs = zones(grid(1, 1))
        assert len(zs) == 2
        assert all(z.length == 2 and not z.closed for z in zs)

    def test_edge_partition_invariant(self):
        for Q in (cube(), grid(3, 3), dual_cuboctahedron(), torus(4, 4),
                  banana()):
            zs = zones(Q)
            covered = [e for z in zs for e in set(z.edges)]
            assert len(covered) == Q.num_edges
            assert set(covered) == set(Q.edge_faces)

    @pytest.mark.parametrize("p,q", [(1, 3), (3, 4), (2, 6)])
    def test_cylinder_has_open_and_closed_zones(self, p, q):
        Q = cylinder(p, q)
        zs = zones(Q)
        assert [z.closed for z in zs] == [True] * p + [False] * q
        assert all(z.length == q and len(z.faces) == q for z in zs[:p])
        assert all(z.length == p + 1 and len(z.faces) == p for z in zs[p:])
        assert sorted(e for z in zs for e in map(sorted, z.edges)) == \
            sorted(map(sorted, Q.edges))

    def test_each_call_returns_a_fresh_list(self):
        Q = grid(2, 3)
        first = zones(Q)
        expected = list(first)
        first.reverse()
        first.pop()
        assert zones(Q) == expected
        assert zones(Q) is not zones(Q)

    def test_banana_zone_not_simple(self):
        zs = zones(banana())
        assert len(zs) == 1
        assert zs[0].length == 6
        assert not zone_is_simple(banana(), zs[0])


class TestZoneGeometry:
    def test_cube_zones_simple_and_convex(self):
        Q = cube()
        for z in zones(Q):
            assert zone_is_simple(Q, z)
            assert zone_is_convex(Q, z)

    def test_cube_zone_band_is_whole_skeleton(self):
        Q = cube()
        band = zone_band(Q, zones(Q)[0])
        assert band.num_edges == 12

    def test_grid_zones_convex(self):
        Q = grid(3, 3)
        for z in zones(Q):
            assert zone_is_convex(Q, z)

    def test_dual_cuboctahedron_zones_convex(self):
        Q = dual_cuboctahedron()
        for z in zones(Q):
            assert zone_is_simple(Q, z)
            assert zone_is_convex(Q, z)

    def test_torus_zones_simple(self):
        Q = torus(4, 4)
        for z in zones(Q):
            assert zone_is_simple(Q, z)

    def test_convexity_requires_simple(self):
        Q = cube()
        fake = Zone(edges=zones(Q)[0].edges,
                    faces=(0, 1, 0, 1), closed=True)
        with pytest.raises(ValueError):
            zone_is_convex(Q, fake)


class TestDisconnectedSkeleton:
    # one face on vertices 1-4 of 6: vertices 5 and 6 are isolated
    Q = Quadrillage(6, [(1, 2, 3, 4)])

    def test_zones_are_convex_in_their_component(self):
        zs = zones(self.Q)
        assert len(zs) == 2
        assert all(zone_is_convex(self.Q, z) for z in zs)

    def test_verdicts_unchanged_by_a_disjoint_face(self):
        # nine faces of the 3-by-4 torus, connected, with a simple zone that
        # is not convex; a face on four new vertices changes no verdict
        faces = [(1, 2, 6, 5), (1, 2, 10, 9), (1, 4, 12, 9), (2, 3, 7, 6),
                 (3, 4, 8, 7), (3, 4, 12, 11), (5, 6, 10, 9), (5, 8, 12, 9),
                 (7, 8, 12, 11)]
        Q = Quadrillage(12, faces)
        both = Quadrillage(16, faces + [(13, 14, 15, 16)])
        verdict = {z.edges: zone_is_convex(Q, z) for z in zones(Q)
                   if zone_is_simple(Q, z)}
        assert False in verdict.values() and True in verdict.values()
        for z in zones(both):
            if z.edges in verdict:
                assert zone_is_convex(both, z) == verdict.pop(z.edges)
        assert verdict == {}

    def test_one_graph_per_band_and_skeleton(self, monkeypatch):
        Q = disjoint_grids(4, 4)
        built = []
        init = Graph.__init__
        monkeypatch.setattr(Graph, "__init__", lambda self, *a: built.append(a)
                            or init(self, *a))
        zs = zones(Q)
        assert len(zs) == 16
        assert all(zone_is_convex(Q, z) for z in zs)
        # the skeleton, then one band per zone: no component is rebuilt
        assert len(built) == 1 + 16

    def test_zone_criterion_needs_a_connected_skeleton(self):
        with pytest.raises(ValueError, match="disconnected"):
            embeddable_by_zones(self.Q)


class TestEmbeddableByZones:
    def test_cube(self):
        assert embeddable_by_zones(cube())

    def test_dual_cuboctahedron(self):
        assert embeddable_by_zones(dual_cuboctahedron())

    def test_grids(self):
        assert embeddable_by_zones(grid(2, 3))

    def test_banana_not_embeddable(self):
        assert not embeddable_by_zones(banana())

    def test_torus_warns_not_spherical(self):
        with pytest.warns(UserWarning, match="sphere"):
            embeddable_by_zones(torus(4, 4))

    @pytest.mark.parametrize("p,q,odd", [(3, 3, True), (3, 4, True),
                                         (4, 4, False)])
    def test_torus_warns_when_not_bipartite(self, p, q, odd):
        with pytest.warns(UserWarning) as caught:
            embeddable_by_zones(torus(p, q))
        messages = [str(w.message) for w in caught]
        assert any("sphere" in m for m in messages)
        assert any("bipartite" in m for m in messages) == odd

    def test_agrees_with_partial_cube_on_planar_fixtures(self):
        import warnings
        fixtures = [cube(), grid(1, 1), grid(2, 3), grid(3, 3),
                    dual_cuboctahedron(), banana()]
        for Q in fixtures:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # planar fixtures must not warn
                verdict = embeddable_by_zones(Q)
            assert verdict == (partial_cube(Q.skeleton()) is not None)


class TestQuadrillageType:
    def test_cube_type(self):
        assert quadrillage_type(cube()) == {3}

    def test_dual_cuboctahedron_type(self):
        assert quadrillage_type(dual_cuboctahedron()) == {3, 4}

    def test_open_complex_rejected(self):
        with pytest.raises(ValueError):
            quadrillage_type(grid(2, 2))


class TestPartialCubeCrossChecks:
    def test_cube_dimension_3(self):
        assert partial_cube(cube().skeleton()).dimension == 3

    def test_dual_cuboctahedron_dimension_4(self):
        assert partial_cube(dual_cuboctahedron().skeleton()).dimension == 4

    def test_torus_even_even_is_partial_cube(self):
        assert partial_cube(torus(4, 4).skeleton()) is not None
        assert partial_cube(torus(4, 6).skeleton()) is not None

    def test_torus_odd_side_is_not(self):
        assert partial_cube(torus(3, 4).skeleton()) is None
        assert partial_cube(torus(3, 3).skeleton()) is None
