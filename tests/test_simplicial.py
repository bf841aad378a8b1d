import itertools
import math
import random
from collections import Counter, defaultdict

import pytest

from shortlinks import (
    Graph,
    Partition,
    Quadrillage,
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
from shortlinks import _bijections, partitions, simplicial, symmetry
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


CONSTRUCTOR_ERRORS = [
    (2, [[1, 2, 2]], "duplicate vertices in face [1, 2, 2]"),
    (2, [[0, 1, 2]], "vertex ids must be positive integers: [0, 1, 2]"),
    (2, [[1, -3, 2]], "vertex ids must be positive integers: [-3, 1, 2]"),
    (2, [[1, 2, 3], [4, 5]], "facet [4, 5] has 2 vertices, expected 3"),
    (2, [[1, 2, 3], [4, 3, 2, 1]], "facet [1, 2, 3, 4] has 4 vertices, expected 3"),
    (2, [[1, 2, 3], []], "a face must be nonempty"),
    (2, [], "a complex needs at least one facet"),
    (0, [[1]], "dimension must be >= 1, got 0"),
    (-1, [], "dimension must be >= 1, got -1"),
    # several bad facets: the first in input order names the error
    (2, [[1, 2, 3], [4, 5], [6, 6, 7]], "facet [4, 5] has 2 vertices, expected 3"),
    (2, [[1, 2, 3], [6, 6, 7], [4, 5]], "duplicate vertices in face [6, 6, 7]"),
    (2, [[1, 2], [0, 1, 2]], "facet [1, 2] has 2 vertices, expected 3"),
    (2, [[0, 1, 2], [1, 2]], "vertex ids must be positive integers: [0, 1, 2]"),
    (1, [[1, 2], [3, 4, 5], [0, 1]], "facet [3, 4, 5] has 3 vertices, expected 2"),
]
FACET_KINDS = {
    "lists": lambda facets: facets,
    "tuples": lambda facets: tuple(map(tuple, facets)),
    "generators": lambda facets: (iter(f) for f in facets),
    "frozensets": lambda facets: list(map(frozenset, facets)),
}


class TestConstructorErrors:
    # a frozenset cannot repeat a vertex
    @pytest.mark.parametrize("dim,facets,message,kind", [
        (dim, facets, message, kind) for dim, facets, message in CONSTRUCTOR_ERRORS
        for kind in FACET_KINDS
        if kind != "frozensets" or all(len(set(f)) == len(f) for f in facets)])
    def test_message(self, dim, facets, message, kind):
        with pytest.raises(ValueError) as info:
            SimplicialComplex(dim, FACET_KINDS[kind](facets))
        assert type(info.value) is ValueError and str(info.value) == message

    @pytest.mark.parametrize("kind", FACET_KINDS)
    def test_every_kind_gives_one_complex(self, kind):
        facets = [[3, 1, 2], [1, 2, 4], [2, 3, 4], [1, 3, 4], [2, 1, 3]]
        K = SimplicialComplex(2, FACET_KINDS[kind](facets))
        assert K == tetrahedron_boundary() and K.vertices == (1, 2, 3, 4)


FROM_FACETS_ERRORS = [
    ([], "a complex needs at least one facet"),
    ([[]], "a face must be nonempty"),
    ([[1, 2, 2], [1, 2, 3]], "duplicate vertices in face [1, 2, 2]"),
    ([[0, 1, 2], [1, 2]], "vertex ids must be positive integers: [0, 1, 2]"),
    ([[1, 2, 3], [4, 5]], "facet [4, 5] has 2 vertices, expected 3"),
    # several bad facets: the first in input order names the error
    ([[1, 2, 3], [4, 5], [6, 6, 7]], "facet [4, 5] has 2 vertices, expected 3"),
    ([[1, 2, 3], [6, 6, 7], [4, 5]], "duplicate vertices in face [6, 6, 7]"),
    ([[1, 2], [0, 1, 2]], "vertex ids must be positive integers: [0, 1, 2]"),
    ([[1, 2], [3, 4, 5], [0, 1]], "facet [3, 4, 5] has 3 vertices, expected 2"),
]


class TestFromFacets:
    """The dimension is read off the first facet; the constructor checks
    every facet, once, and names the first bad one in input order."""

    @pytest.mark.parametrize("facets,message,kind", [
        (facets, message, kind) for facets, message in FROM_FACETS_ERRORS
        for kind in FACET_KINDS
        if kind != "frozensets" or all(len(set(f)) == len(f) for f in facets)])
    def test_message(self, facets, message, kind):
        with pytest.raises(ValueError) as info:
            SimplicialComplex.from_facets(FACET_KINDS[kind](facets))
        assert type(info.value) is ValueError and str(info.value) == message

    @pytest.mark.parametrize("kind", FACET_KINDS)
    def test_every_kind_gives_one_complex(self, kind):
        facets = [[3, 1, 2], [1, 2, 4], [2, 3, 4], [1, 3, 4], [2, 1, 3]]
        K = SimplicialComplex.from_facets(FACET_KINDS[kind](facets))
        assert K == tetrahedron_boundary() and K.vertices == (1, 2, 3, 4)

    def test_empty_generator(self):
        with pytest.raises(ValueError, match="^a complex needs at least one facet$"):
            SimplicialComplex.from_facets(f for f in ())

    @pytest.mark.parametrize("m", range(2, 9))
    def test_equals_the_constructor_on_kp(self, m):
        for p in enumerate_partitions(m):
            K = build_kp(p)
            for make in FACET_KINDS.values():
                facets = make([sorted(f) for f in K.facets])
                assert SimplicialComplex.from_facets(facets) == K


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


def reference_classify(K) -> Partition:
    """``classify`` as one characteristic partition per facet, in sorted
    facet order, each read from ``reference_links``."""
    verdict = is_closed_pseudomanifold(K)
    if not verdict.is_closed:
        raise ValueError(f"complex is not closed ({verdict.status})")
    links = reference_links(K)
    ty = {len(c) for cycles in links.values() for c in cycles}
    if not ty <= {3, 4}:
        raise ValueError(f"complex type is {sorted(ty)}, not within {{3, 4}}")
    sizes = None
    for facet in sorted(K.facets, key=sorted):
        cp = reference_partition(K, links, facet)
        if sizes is None:
            sizes = cp.sizes
        elif cp.sizes != sizes:
            raise ValueError("not of the K(P) form: facets disagree on the "
                             "characteristic partition")
    bounds = list(itertools.accumulate(sizes, initial=1))
    if (len(K.vertices) != sum(sizes) + len(sizes)
            or K.num_facets != math.prod(s + 1 for s in sizes)):
        raise ValueError("not of the K(P) form: vertex or facet count does "
                         "not match its characteristic partition")
    return Partition(range(a, b) for a, b in zip(bounds, bounds[1:]))


def relabelled(K, seed) -> SimplicialComplex:
    """``K`` with its vertices sent to distinct labels drawn from 1..3|V|."""
    rng = random.Random(seed)
    label = dict(zip(K.vertices, rng.sample(range(1, 3 * len(K.vertices) + 1),
                                            len(K.vertices))))
    return SimplicialComplex(K.dim, [[label[v] for v in f] for f in K.facets])


def disjoint_union(K1, K2) -> SimplicialComplex:
    shift = max(K1.vertices)
    return SimplicialComplex(K1.dim, [*K1.facets, *({v + shift for v in f}
                                                    for f in K2.facets)])


def wedge(K1, K2, size) -> SimplicialComplex:
    """``K1`` and ``K2`` glued along a ``size``-vertex face of each: the
    last of ``K1``'s last facet, the first of ``K2``'s first facet."""
    face1 = sorted(max(K1.facets, key=sorted))[-size:]
    face2 = sorted(min(K2.facets, key=sorted))[:size]
    label = dict(zip(face2, face1))
    fresh = itertools.count(max(K1.vertices) + 1)
    label.update((v, next(fresh)) for v in K2.vertices if v not in label)
    return SimplicialComplex(K1.dim, [*K1.facets,
                                      *([label[v] for v in f] for f in K2.facets)])


def cycles(*lengths) -> SimplicialComplex:
    """Disjoint cycles of the given lengths, as one 1-complex."""
    facets, start = [], 1
    for n in lengths:
        facets += [[start + i, start + (i + 1) % n] for i in range(n)]
        start += n
    return SimplicialComplex(1, facets)


KP = {p.to_spec(): build_kp(p) for m in range(2, 9) for p in enumerate_partitions(m)}
CLASSIFY_CASES = {
    "relabelled_kp_and_duals": [
        relabelled(make(p), p.to_spec()) for m in range(2, 9)
        for p in enumerate_partitions(m) for make in (build_kp, product_dual)],
    "kp_minus_one_facet": [
        SimplicialComplex(K.dim, sorted(K.facets, key=sorted)[1:] if i % 2 else
                          sorted(K.facets, key=sorted)[:-1])
        for i, K in enumerate(KP.values())],
    "disjoint_unions": [
        disjoint_union(KP[a.to_spec()], KP[b.to_spec()]) for m in range(2, 6)
        for a, b in itertools.combinations_with_replacement(enumerate_partitions(m), 2)],
    "cycle_joins": [cycle_join(a, b) for a in range(3, 7) for b in range(3, 7)],
    "dim1_unions": [cycles(*lengths) for lengths in [
        (3,), (4,), (5,), (3, 3), (3, 4), (4, 3), (4, 4), (4, 4, 3), (3, 3, 3),
        (4, 3, 4), (3, 5), (6, 4), (3, 4, 6)]],
    "fixtures": [parse_complex(read_fixture(name)) for name in SIMPLICIAL_FIXTURES],
    # closed, type within {3, 4}: one (n-2)-face with a link of two cycles,
    # or (glued at a vertex in dimension 3) no K(P) count
    "wedges": [wedge(KP[a], KP[b], size) for a, b, size in [
        ("1|2|3", "1|2|3", 1), ("1|2|3", "1,2,3", 1), ("1,2,3", "1|2|3", 1),
        ("1|2,3", "1,2,3", 1),
        ("1|2|3|4", "1,2|3,4", 2), ("1,2,3,4", "1|2,3,4", 2),
        ("1|2|3|4", "1|2|3|4", 1), ("1|2|3|4|5", "1|2,3|4,5", 3)]],
}


def test_classify_matches_the_per_facet_loop():
    mismatches, verdicts = [], set()
    for group, cases in CLASSIFY_CASES.items():
        for K in cases:
            got = outcome(lambda: classify(K))
            want = outcome(lambda: reference_classify(K))
            verdicts.add(want if isinstance(want, str) else "ok")
            if got != want:
                mismatches.append((group, K, got, want))
    assert mismatches == []
    assert {"ok", "complex is not closed (boundary)",
            "complex type is [3, 4, 5], not within {3, 4}",
            "complex type is not within {3, 4}: link of [6] has sizes (4, 4)",
            "not of the K(P) form: facets disagree on the characteristic partition",
            "not of the K(P) form: vertex or facet count does not match its "
            "characteristic partition"} <= verdicts


def join_facets(blocks) -> set:
    """The facets of the join of the simplex boundaries on ``blocks``: all
    vertices but one of each block."""
    every = frozenset().union(*blocks)
    return {every - frozenset(choice) for choice in itertools.product(*blocks)}


def test_join_blocks_exactly_when_the_per_facet_loop_accepts():
    mismatches = []
    for group, cases in CLASSIFY_CASES.items():
        for K in cases:
            blocks = partitions._join_blocks(K)
            want = outcome(lambda: reference_classify(K))
            sizes = None if blocks is None else tuple(sorted(len(b) - 1 for b in blocks))
            if sizes != (None if isinstance(want, str) else want.sizes) or (
                    blocks is not None and join_facets(blocks) != K.facets):
                mismatches.append((group, K, blocks))
    assert mismatches == []


def test_clique_parts_rejects_a_path():
    assert sorted(simplicial._clique_parts(0b1111, [0b0011, 0b1010, 0b1000 | 0b0001])
                  ) == [0b0100, 0b1011]
    with pytest.raises(ValueError, match="not a union of cliques"):
        simplicial._clique_parts(0b111, [0b011, 0b110])


def test_types_and_partitions_decode_no_cycles(monkeypatch):
    def refuse(*args):
        raise AssertionError("a link's cycles were decoded")

    for name in ("link_of_face", "_link_cycles"):
        monkeypatch.setattr(simplicial, name, refuse)
    for spec in ("1|2|3", "1|2,3|4,5", "1|2|3|4|5|6|7|8", "1|2,3|4,5,6|7,8"):
        p = Partition.from_spec(spec)
        K = build_kp(p)
        assert complex_type(K) == ({4} if p.h == p.m else {3, 4})
        assert all(characteristic_partition(K, f).sizes == p.sizes for f in K.facets)
        assert classify(K).sizes == p.sizes
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

    def test_second_call_reads_only_cached_lengths(self, monkeypatch):
        K, partial = figure1(), figure1()  # partial: one link read first
        link_of_face(partial, min(map(partial._face, partial._face_table()), key=sorted))
        assert complex_type(K) == complex_type(partial) == {3, 4, 5}

        def refuse(*args):
            raise AssertionError("a link was read again")
        monkeypatch.setattr(simplicial, "_link_sizes", refuse)
        assert complex_type(K) == complex_type(partial) == {3, 4, 5}


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


def random_pure(seed, n, dim, extra) -> SimplicialComplex:
    """A seeded pure ``dim``-complex on exactly n vertices: one facet through
    each vertex, then ``extra`` random facets, relabelled from 1..3n."""
    rng = random.Random(seed)
    facets = [[v, *rng.sample([u for u in range(1, n + 1) if u != v], dim)]
              for v in range(1, n + 1)]
    facets += (rng.sample(range(1, n + 1), dim + 1) for _ in range(extra))
    return relabelled(SimplicialComplex(dim, facets), seed)


def cone(K) -> SimplicialComplex:
    """The cone over ``K`` (its vertices moved up by one) with apex 1, the
    lowest vertex."""
    return SimplicialComplex(K.dim + 1, [[1, *(v + 1 for v in f)] for f in K.facets])


# on both sides of the 16-vertex switch between the bitset and the level walk
EULER_SWITCH_CASES = [
    *(relabelled(build_kp(Partition.from_spec(spec)), spec) for spec in
      ("1,2|3|4|5|6|7|8", "1|2|3|4|5|6|7|8", "1,2|3|4|5|6|7|8|9",
       "1|2|3|4|5|6|7|8|9")),
    *(random_pure(f"{n} {dim} {extra}", n, dim, extra) for n in (15, 16, 17, 18)
      for dim in range(2, 6) for extra in (0, 120)),
    *(cone(relabelled(build_kp(Partition.from_spec(spec)), spec))
      for spec in ("1|2|3", "1|2|3|4|5|6|7", "1,2|3|4|5|6|7|8")),
    SimplicialComplex(1, [*cycles(9, 10).facets, [1, 12]]),  # 19 vertices
]


class TestEuler:
    def test_octahedron(self):
        assert euler_characteristic(octahedron()) == 2

    def test_triangle_boundary(self):
        assert euler_characteristic(build_kp(Partition.from_spec("1,2"))) == 0

    @pytest.mark.parametrize("spec", ["1,2,3,4", "1|2,3,4", "1,2|3,4",
                                      "1|2|3,4", "1|2|3|4"])
    def test_three_sphere_chi_zero(self, spec):
        assert euler_characteristic(build_kp(Partition.from_spec(spec))) == 0

    @pytest.mark.parametrize("tables", ["cold", "warm"])
    @pytest.mark.parametrize("K", [
        *(parse_complex(read_fixture(name)) for name in SIMPLICIAL_FIXTURES),
        *(relabelled(build_kp(p), p.to_spec()) for m in range(2, 8)
          for p in enumerate_partitions(m)),
        *OPEN_CASES,  # a ridge in three facets among them
        *CLOSED_CASES[-3:],  # unions of dim-1 cycles
        *EULER_SWITCH_CASES,
    ])
    def test_matches_alternating_face_counts(self, K, tables):
        K = SimplicialComplex(K.dim, K.facets)  # nothing cached yet
        if tables == "warm":
            K._ridge_table(), K._face_table()
        expected = sum((-1) ** k * len(faces_of_dim(K, k))
                       for k in range(K.dim + 1))
        assert euler_characteristic(K) == expected

    @pytest.mark.parametrize("K", [
        KP["1|2|3|4|5|6|7|8"],  # 16 vertices
        SimplicialComplex(7, sorted(KP["1|2|3|4|5|6|7|8"].facets, key=sorted)[1:]),
        random_pure("dense", 16, 5, 120),
    ])
    def test_bitset_count_builds_no_link_table(self, K):
        K = SimplicialComplex(K.dim, K.facets)  # nothing cached yet
        assert len(K.vertices) <= 16
        euler_characteristic(K)
        assert K._faces is None and K._ridges is None


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

    def test_counts_decide_before_the_search(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the search ran")
        monkeypatch.setattr(symmetry, "find_bijection", refuse)
        square = SimplicialComplex(1, [(1, 2), (2, 3), (3, 4), (1, 4)])
        assert are_isomorphic(square, tetrahedron_boundary()) is None  # dimension
        # 6 vertices and 8 or 7 facets; 4 facets on 6 or 4 vertices
        assert are_isomorphic(octahedron(), SimplicialComplex(
            2, list(octahedron().facets)[:7])) is None
        assert are_isomorphic(SimplicialComplex(1, [(1, 2), (3, 4), (5, 6), (1, 6)]),
                              square) is None

    def test_exhausted_search_proves_non_isomorphism(self):
        # equal counts and vertex signatures, so only the search tells them apart
        c6 = [(k, k % 6 + 1) for k in range(1, 7)]
        triangles = [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]

        def suspension(edges):
            return [(*e, apex) for e in edges for apex in (7, 8)]

        for dim, A, B in ((1, c6, triangles),
                          (2, suspension(c6), suspension(triangles))):
            K1, K2 = SimplicialComplex(dim, A), SimplicialComplex(dim, B)
            assert is_closed_pseudomanifold(K1).is_closed
            assert is_closed_pseudomanifold(K2).is_closed
            assert _bijections._compatible(_bijections._Instance(K1.facets),
                                           _bijections._Instance(K2.facets))
            assert are_isomorphic(K1, K2) is None
            assert are_isomorphic(K2, K1) is None

    def test_signatures_tell_a_path_from_a_triangle_and_an_edge(self):
        # equal vertex, edge and degree counts; an end of the path has a
        # neighbour of degree 2, an end of the lone edge only one of degree 1
        path = SimplicialComplex(1, [(1, 2), (2, 3), (3, 4), (4, 5)])
        triangle_edge = SimplicialComplex(1, [(1, 2), (2, 3), (1, 3), (4, 5)])
        assert not _bijections._compatible(_bijections._Instance(path.facets),
                                           _bijections._Instance(triangle_edge.facets))
        assert are_isomorphic(path, triangle_edge) is None

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


@pytest.mark.parametrize("build, rebuild, text", [
    (lambda: Graph([1, 2, 3], [(1, 2), (1, 3)]),
     lambda: Graph((3, 2, 1), [(3, 1), (2, 1), (1, 2)]),
     "Graph(3 vertices, 2 edges)"),
    (octahedron, lambda: SimplicialComplex(2, [sorted(f, reverse=True)
                                               for f in octahedron().facets]),
     "SimplicialComplex(dim=2, facets=8, vertices=6)"),
    (lambda: Partition([[3, 1], [2]]), lambda: Partition.from_spec("2|1,3"),
     "Partition('2|1,3')"),
    (lambda: Quadrillage(5, [(1, 2, 3, 4)]), lambda: Quadrillage(5, [(3, 2, 1, 4)]),
     "Quadrillage(5 vertices, 4 edges, 1 faces)"),
], ids=["Graph", "SimplicialComplex", "Partition", "Quadrillage"])
def test_value_types_are_immutable_and_hash_by_value(build, rebuild, text):
    a, b = build(), rebuild()
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert repr(a) == repr(b) == text
    for name in ("vertices", "new_name"):
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(a, name, None)
    assert a == b
