import itertools
from collections import Counter, defaultdict

import pytest

from shortlinks import (
    Partition,
    SimplicialComplex,
    are_isomorphic,
    build_kp,
    characteristic_partition,
    classify,
    complex_type,
    enumerate_partitions,
    euler_characteristic,
    faces_of_dim,
    is_closed_pseudomanifold,
    link_of_face,
    make_face,
    product_dual,
    skeleton,
)
from conftest import read_fixture
from shortlinks import _bijections, simplicial
from shortlinks.formats import parse_complex


def tetrahedron_boundary():
    return SimplicialComplex(2, itertools.combinations(range(1, 5), 3))


def octahedron():
    return build_kp(Partition.from_spec("1|2|3"))


def figure1():
    return parse_complex(read_fixture("figure1.txt"))


def same_cycle(a, b) -> bool:
    """Cyclic sequences equal up to rotation and reflection."""
    if len(a) != len(b):
        return False
    doubled = list(b) + list(b)
    fwd = any(doubled[i:i + len(a)] == list(a) for i in range(len(b)))
    rev = list(reversed(a))
    bwd = any(doubled[i:i + len(a)] == rev for i in range(len(b)))
    return fwd or bwd


class TestFaceBasics:
    def test_make_face_sorted_set(self):
        assert make_face([3, 1, 2]) == frozenset({1, 2, 3})

    def test_make_face_rejects_duplicates(self):
        with pytest.raises(ValueError):
            make_face([1, 1, 2])

    def test_make_face_rejects_empty(self):
        with pytest.raises(ValueError):
            make_face([])

    def test_make_face_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            make_face([0, 1])

    def test_complex_purity_enforced(self):
        with pytest.raises(ValueError):
            SimplicialComplex(2, [[1, 2, 3], [4, 5]])

    def test_complex_deduplicates_facets(self):
        K = SimplicialComplex(1, [[1, 2], [2, 1], [2, 3], [1, 3]])
        assert K.num_facets == 3


class TestFacesOfDim:
    def test_tetrahedron_edges(self):
        assert len(faces_of_dim(tetrahedron_boundary(), 1)) == 6

    def test_octahedron_vertices(self):
        assert len(faces_of_dim(octahedron(), 0)) == 6

    def test_figure1_edge_count(self):
        # 13 facets span every pair on 7 vertices except one
        assert len(faces_of_dim(figure1(), 1)) == 20

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            faces_of_dim(octahedron(), 3)
        with pytest.raises(ValueError):
            faces_of_dim(octahedron(), -1)


class TestClosedness:
    def test_octahedron_closed(self):
        assert is_closed_pseudomanifold(octahedron()).is_closed

    def test_single_triangle_boundary(self):
        verdict = is_closed_pseudomanifold(SimplicialComplex(2, [[1, 2, 3]]))
        assert verdict.status == "boundary"
        assert len(verdict.boundary) == 3

    def test_figure1_closed(self):
        assert is_closed_pseudomanifold(figure1()).is_closed

    def test_overfull_ridge_detected(self):
        K = SimplicialComplex(2, [[1, 2, 3], [1, 2, 4], [1, 2, 5]])
        verdict = is_closed_pseudomanifold(K)
        assert verdict.status == "bad"
        assert verdict.bad_face == frozenset({1, 2})
        assert verdict.bad_count == 3


class TestLinks:
    def test_octahedron_vertex_link_is_square(self):
        K = octahedron()
        report = link_of_face(K, [1])
        assert report.sizes == (4,)

    def test_figure1_link_of_67(self):
        report = link_of_face(figure1(), [6, 7])
        assert report.sizes == (5,)
        assert same_cycle(report.cycles[0], (1, 2, 3, 4, 5))

    def test_simplex_boundary_links_are_triangles(self):
        assert link_of_face(tetrahedron_boundary(), [1]).sizes == (3,)
        four_simplex_boundary = SimplicialComplex(
            3, itertools.combinations(range(1, 6), 4))
        assert link_of_face(four_simplex_boundary, [1, 2]).sizes == (3,)

    def test_edge_count_conservation(self):
        K = figure1()
        for face in faces_of_dim(K, K.dim - 2):
            report = link_of_face(K, face)
            containing = sum(1 for f in K.facets if face <= f)
            assert sum(report.sizes) == containing

    def test_wrong_size_face_rejected(self):
        with pytest.raises(ValueError):
            link_of_face(octahedron(), [1, 2])

    def test_non_face_rejected(self):
        with pytest.raises(ValueError):
            link_of_face(octahedron(), [99])

    def test_boundary_complex_link_fails(self):
        K = SimplicialComplex(2, [[1, 2, 3]])
        with pytest.raises(ValueError):
            link_of_face(K, [1])


def scanned_face_facets(K) -> dict:
    """Reference for the face index: scan every facet for every (n-2)-face."""
    faces = faces_of_dim(K, K.dim - 2) if K.dim >= 2 else {frozenset()}
    return {face: {f for f in K.facets if face <= f} for face in faces}


SIMPLICIAL_FIXTURES = ["c5_join_triangle.txt", "figure1.txt", "kp_1_23.txt",
                       "octahedron.txt", "simplex3.txt"]


class TestFaceIndex:
    @pytest.mark.parametrize("K", [
        *(parse_complex(read_fixture(name)) for name in SIMPLICIAL_FIXTURES),
        *(build_kp(p) for m in range(2, 6) for p in enumerate_partitions(m)),
    ])
    def test_matches_facet_scan(self, K):
        ridges, faces = K._ridge_table(), K._face_table()
        decoded = {K._face(mask): {K._face(mask | e) for e in edges}
                   for mask, edges in faces.items()}
        assert decoded == scanned_face_facets(K)
        # each link edge is two vertices outside its face, listed once
        assert all(e.bit_count() == 2 and not e & mask and edges.count(e) == 1
                   for mask, edges in faces.items() for e in edges)
        assert ({K._face(r): c for r, c in ridges.items()}
                == Counter(f - {v} for f in K.facets for v in f))

    def test_dim1_disjoint_triangle_and_square(self):
        K = SimplicialComplex(1, [[1, 2], [2, 3], [1, 3],
                                  [4, 5], [5, 6], [6, 7], [4, 7]])
        assert list(K._face_table()) == [0]
        assert complex_type(K) == {3, 4}

    def test_boundary_complex_good_and_bad_links(self):
        # a square pyramid without its base: vertex 1's link is a 4-cycle,
        # every other vertex lies on the boundary
        K = SimplicialComplex(2, [[1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 2]])
        for _ in range(2):
            with pytest.raises(ValueError):
                link_of_face(K, [2])
        assert link_of_face(K, [1]).sizes == (4,)
        assert link_of_face(K, [1]) is link_of_face(K, [1])
        with pytest.raises(ValueError):
            link_of_face(K, [2])


def reference_cycles(edges) -> list:
    """The frozenset link walk: decompose edges into cycles, or raise."""
    adj = defaultdict(list)
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    for v, nb in adj.items():
        if len(nb) != 2:
            raise ValueError(
                f"link edges do not decompose into cycles: vertex {v} has "
                f"degree {len(nb)} (complex is not closed)")
    cycles = []
    remaining = {frozenset(e) for e in edges}
    while remaining:
        a, b = sorted(min(remaining, key=sorted))
        cyc = [a, b]
        remaining.discard(frozenset((a, b)))
        while True:
            prev, cur = cyc[-2], cyc[-1]
            nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
            remaining.discard(frozenset((cur, nxt)))
            if nxt == cyc[0]:
                break
            cyc.append(nxt)
        cycles.append(tuple(cyc))
    cycles.sort(key=lambda c: (len(c), c))
    return cycles


def reference_links(K) -> dict:
    """Each (n-2)-face, in first-seen order of a facet scan, mapped to its
    link cycles, or to the text of the ValueError its walk raises."""
    edges = {}
    for f in K.facets:
        for pair in itertools.combinations(f, 2):
            edges.setdefault(f.difference(pair), []).append(tuple(sorted(pair)))
    links = {}
    for face, es in edges.items():
        try:
            links[face] = tuple(reference_cycles(es))
        except ValueError as exc:
            links[face] = str(exc)
    return links


def reference_partition(K, links, delta) -> Partition:
    """The characteristic partition read from ``reference_links``."""
    verts = sorted(delta)
    if K.dim == 1:
        if isinstance(links[frozenset()], str):
            raise ValueError(links[frozenset()])
        cyc = next(c for c in links[frozenset()] if delta <= set(c))
        if len(cyc) not in (3, 4):
            raise ValueError(f"complex type is not within {{3, 4}}: "
                             f"link of the empty face has length {len(cyc)}")
        return Partition([verts] if len(cyc) == 3 else [[verts[0]], [verts[1]]])
    closed = {v: {v} for v in verts}
    for i, j in itertools.combinations(verts, 2):
        cycles = links[delta - {i, j}]
        if isinstance(cycles, str):
            raise ValueError(cycles)
        sizes = tuple(sorted(len(c) for c in cycles))
        if len(cycles) != 1 or sizes[0] not in (3, 4):
            raise ValueError(
                f"complex type is not within {{3, 4}}: link of "
                f"{sorted(delta - {i, j})} has sizes {sizes}")
        if sizes == (3,):
            closed[i].add(j)
            closed[j].add(i)
    if any(closed[w] != nb for nb in closed.values() for w in nb):
        raise ValueError("the 3-link graph on the facet is not a union of "
                         "cliques (corrupt input)")
    return Partition(set(map(frozenset, closed.values())))


def cycle_join(a: int, b: int) -> SimplicialComplex:
    """The join of the cycles C_a (vertices 1..a) and C_b (a+1..a+b)."""
    ea = [(i, i % a + 1) for i in range(1, a + 1)]
    eb = [(a + i, a + i % b + 1) for i in range(1, b + 1)]
    return SimplicialComplex(3, [e + f for e in ea for f in eb])


def outcome(call):
    try:
        return call()
    except ValueError as exc:
        return str(exc)


CLOSED_CASES = [
    *(parse_complex(read_fixture(name)) for name in SIMPLICIAL_FIXTURES),
    *(make(p) for m in range(2, 7) for p in enumerate_partitions(m)
      for make in (build_kp, product_dual)),
    *(cycle_join(a, b) for a in range(3, 8) for b in range(3, 8)),
    SimplicialComplex(1, [[1, 2], [2, 3], [1, 3], [4, 5], [5, 6], [4, 6]]),
    SimplicialComplex(1, [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [1, 6]]),
    SimplicialComplex(1, [[1, 2], [2, 3], [1, 3], [4, 5], [5, 6], [6, 7], [4, 7]]),
]
OPEN_CASES = [
    SimplicialComplex(2, [[1, 2, 3]]),
    SimplicialComplex(2, [[1, 2, 3], [1, 2, 4], [1, 2, 5]]),
    SimplicialComplex(2, [[1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 2]]),
    SimplicialComplex(1, [[1, 2], [2, 3], [1, 3], [1, 4]]),
    SimplicialComplex(3, sorted(build_kp(Partition.from_spec("1|2,3|4")).facets,
                                key=sorted)[1:]),
    SimplicialComplex(3, [*cycle_join(3, 5).facets, [1, 2, 4, 9]]),
]


class TestReferenceLinks:
    @pytest.mark.parametrize("K", CLOSED_CASES + OPEN_CASES)
    def test_links_type_and_partitions_match_the_frozenset_walk(self, K):
        links = reference_links(K)
        for face, cycles in links.items():
            if isinstance(cycles, str):
                with pytest.raises(ValueError) as info:
                    link_of_face(K, face)
                assert str(info.value) == cycles
            else:
                report = link_of_face(K, face)
                assert report.cycles == cycles
                assert report.sizes == tuple(sorted(len(c) for c in cycles))
        errors = [c for c in links.values() if isinstance(c, str)]
        expected = errors[0] if errors else {len(c) for cs in links.values() for c in cs}
        assert outcome(lambda: complex_type(K)) == expected
        for delta in K.facets:
            assert (outcome(lambda: characteristic_partition(K, delta))
                    == outcome(lambda: reference_partition(K, links, delta)))

    def test_dim1_two_triangles_against_a_hexagon(self):
        two, hexagon = CLOSED_CASES[-3], CLOSED_CASES[-2]
        assert link_of_face(two, []).sizes == (3, 3)
        assert link_of_face(hexagon, []).sizes == (6,)
        assert link_of_face(hexagon, []).cycles == ((1, 2, 3, 4, 5, 6),)

    @pytest.mark.parametrize("K", OPEN_CASES)
    def test_open_complexes_are_rejected(self, K):
        assert not is_closed_pseudomanifold(K).is_closed
        assert any(isinstance(c, str) for c in reference_links(K).values())


def test_types_and_partitions_decode_no_cycles(monkeypatch):
    def refuse(K, F):
        raise AssertionError(f"cycles of {sorted(F)} decoded")

    monkeypatch.setattr(simplicial, "link_of_face", refuse)
    for spec in ("1|2|3", "1|2,3|4,5"):
        p = Partition.from_spec(spec)
        K = build_kp(p)
        assert complex_type(K) == ({4} if spec == "1|2|3" else {3, 4})
        assert all(characteristic_partition(K, f).sizes == p.sizes for f in K.facets)
        assert classify(K) == p
    assert complex_type(figure1()) == {3, 4, 5}


class TestComplexType:
    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_simplex_type(self, m):
        K = build_kp(Partition([range(1, m + 1)]))
        assert complex_type(K) == {3}

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_hyperoctahedron_type(self, m):
        K = build_kp(Partition([[i] for i in range(1, m + 1)]))
        assert complex_type(K) == {4}

    def test_dual_triangular_prism_type(self):
        assert complex_type(build_kp(Partition.from_spec("1|2,3"))) == {3, 4}

    def test_dim1_triangle_and_square(self):
        assert complex_type(build_kp(Partition.from_spec("1,2"))) == {3}
        assert complex_type(build_kp(Partition.from_spec("1|2"))) == {4}

    def test_figure1_type(self):
        assert complex_type(figure1()) == {3, 4, 5}


class TestSkeleton:
    def test_simplex_skeleton_complete(self):
        G = skeleton(tetrahedron_boundary())
        assert G.num_vertices == 4 and G.num_edges == 6

    def test_octahedron_skeleton_cocktail_party(self):
        G = skeleton(octahedron())
        assert G.num_vertices == 6 and G.num_edges == 12
        non_edges = [(u, v) for u, v in itertools.combinations(G.vertices, 2)
                     if not G.has_edge(u, v)]
        assert len(non_edges) == 3
        assert len({v for e in non_edges for v in e}) == 6  # disjoint pairs

    def test_figure1_skeleton_misses_exactly_25(self):
        G = skeleton(figure1())
        non_edges = [(u, v) for u, v in itertools.combinations(G.vertices, 2)
                     if not G.has_edge(u, v)]
        assert non_edges == [(2, 5)]


class TestEuler:
    def test_octahedron(self):
        assert euler_characteristic(octahedron()) == 2

    def test_triangle_boundary(self):
        assert euler_characteristic(build_kp(Partition.from_spec("1,2"))) == 0

    @pytest.mark.parametrize("spec", ["1,2,3,4", "1|2,3,4", "1,2|3,4",
                                      "1|2|3,4", "1|2|3|4"])
    def test_three_sphere_chi_zero(self, spec):
        assert euler_characteristic(build_kp(Partition.from_spec(spec))) == 0

    @pytest.mark.parametrize("K", [
        *(parse_complex(read_fixture(name)) for name in SIMPLICIAL_FIXTURES),
        *(build_kp(p) for m in range(2, 6) for p in enumerate_partitions(m)),
        SimplicialComplex(2, [[1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 2]]),
    ])
    def test_matches_alternating_face_counts(self, K):
        expected = sum((-1) ** k * len(faces_of_dim(K, k))
                       for k in range(K.dim + 1))
        assert euler_characteristic(K) == expected


class TestCharacteristicPartition:
    def test_octahedron_all_singletons(self):
        K = octahedron()
        facet = next(iter(K.facets))
        assert characteristic_partition(K, facet).sizes == (1, 1, 1)

    def test_simplex_single_part(self):
        K = tetrahedron_boundary()
        facet = next(iter(K.facets))
        assert characteristic_partition(K, facet).sizes == (3,)

    def test_dual_prism_exact_parts(self):
        K = build_kp(Partition.from_spec("1|2,3"))
        cp = characteristic_partition(K, [1, 2, 3])
        assert cp == Partition([[1], [2, 3]])

    def test_rejects_non_facet(self):
        with pytest.raises(ValueError):
            characteristic_partition(octahedron(), [1, 2, 3, 4])

    def test_rejects_long_links(self):
        K = figure1()
        facet = next(iter(sorted(K.facets, key=sorted)))
        with pytest.raises(ValueError):
            characteristic_partition(K, facet)


class TestIsomorphism:
    def test_same_skeleton_different_complexes(self):
        K1 = build_kp(Partition.from_spec("1,2|3,4,5,6"))
        K2 = build_kp(Partition.from_spec("1,2,3|4,5,6"))
        for K in (K1, K2):
            G = skeleton(K)
            assert G.num_vertices == 8 and G.num_edges == 28  # K8
        assert are_isomorphic(K1, K2) is None

    def test_relabeled_partitions_isomorphic(self):
        K1 = build_kp(Partition.from_spec("1|2,3"))
        K2 = build_kp(Partition([[2], [1, 3]]))
        phi = are_isomorphic(K1, K2)
        assert phi is not None
        assert {frozenset(phi[v] for v in f) for f in K1.facets} == K2.facets

    def test_different_facet_counts(self):
        assert are_isomorphic(tetrahedron_boundary(), octahedron()) is None

    def test_identity_case(self):
        K = octahedron()
        phi = are_isomorphic(K, K)
        assert phi is not None
        assert {frozenset(phi[v] for v in f) for f in K.facets} == K.facets

    def test_audit_rejects_a_non_isomorphism(self, monkeypatch):
        K1 = build_kp(Partition.from_spec("1|2,3"))
        K2 = build_kp(Partition([[2], [1, 3]]))
        assert are_isomorphic(K1, K2) is not None
        # the identity on 1..5 does not carry K1's facets onto K2's
        assert K1.facets != K2.facets
        monkeypatch.setattr(_bijections._Search, "first",
                            lambda self, cands: tuple(range(self.n)))
        with pytest.raises(AssertionError, match="audit"):
            are_isomorphic(K1, K2)
