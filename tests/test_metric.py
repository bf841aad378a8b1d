import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, read_fixture
from shortlinks import (
    CutDecomposition,
    GonalVector,
    Graph,
    GuardExceeded,
    Partition,
    a_m,
    build_kp,
    complete_graph,
    complete_minus_cycle,
    complete_minus_matching,
    cube,
    cut_cone_decompose,
    cycle_graph,
    dual_cuboctahedron,
    embedding_from_cuts,
    enumerate_partitions,
    find_scaled_embedding,
    grid,
    hypercube_graph,
    is_isometric_cycle,
    kgonal_violations,
    link_of_face,
    partial_cube,
    skeleton,
    torus,
)
from shortlinks import metric
from shortlinks.exactlp import solve_nonnegative
from shortlinks.formats import parse_complex, parse_graph, parse_quadrillage
from shortlinks.metric import CUT_CONE_VERTEX_GUARD


def k5_minus_triangle() -> Graph:
    edges = [e for e in itertools.combinations(range(1, 6), 2)
             if not (e[0] <= 3 and e[1] <= 3)]
    return Graph(range(1, 6), edges)


def k23() -> Graph:
    return Graph(range(1, 6), [(a, b) for a in (1, 2) for b in (3, 4, 5)])


def complete_bipartite(p: int, q: int) -> Graph:
    return Graph(range(1, p + q + 1), [(a, b) for a in range(1, p + 1)
                                       for b in range(p + 1, p + q + 1)])


class TestGraphBasics:
    def test_constructors(self):
        assert complete_minus_matching(5, 1).num_edges == 9
        assert complete_minus_cycle(7, 5).num_edges == 16
        assert hypercube_graph(3).num_edges == 12
        assert cycle_graph(5).num_edges == 5
        assert complete_graph(4).num_edges == 6

    def test_constructor_ranges(self):
        with pytest.raises(ValueError):
            complete_minus_matching(5, 3)
        with pytest.raises(ValueError):
            complete_minus_cycle(4, 5)
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_distances(self):
        G = cycle_graph(6)
        assert G.distance(1, 4) == 3
        assert G.distance(2, 2) == 0

    def test_disconnected_metric_fails(self):
        G = Graph([1, 2, 3, 4, 5], [(1, 2), (3, 4), (4, 5)])
        assert not G.is_connected()
        assert G.distance(1, 2) == 1 and G.distance(3, 5) == 2
        with pytest.raises(ValueError, match="disconnected"):
            G.distance(1, 3)
        with pytest.raises(ValueError, match="disconnected"):
            kgonal_violations(G, 2)
        with pytest.raises(ValueError, match="disconnected"):
            cut_cone_decompose(G)

    def test_rows_are_built_when_first_needed(self):
        G = Graph(range(1, 7), [(1, 2), (3, 4), (4, 5)])
        built = lambda: [i for i, row in enumerate(G._rows) if row is not None]
        assert not G.is_connected() and built() == [0]
        assert G.distance(3, 5) == 2 and built() == [0, 2]
        assert G.distance(5, 3) == 2 and built() == [0, 2, 4]
        with pytest.raises(ValueError, match="disconnected"):
            G.distance(6, 1)
        assert built() == [0, 2, 4, 5]
        with pytest.raises(ValueError, match="connected graph"):
            partial_cube(G)
        with pytest.raises(ValueError, match="disconnected"):
            kgonal_violations(G, 2)
        assert built() == [0, 2, 4, 5]
        C = cycle_graph(6)
        assert C._distance_rows() == [[min(abs(i - j), 6 - abs(i - j))
                                       for j in range(6)] for i in range(6)]

    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph([1, 2], [(1, 1)])


class TestIsometricCycle:
    def test_cycle_in_itself(self):
        assert is_isometric_cycle(cycle_graph(6), (1, 2, 3, 4, 5, 6))

    def test_figure1_link_not_isometric(self):
        G = skeleton(parse_complex(read_fixture("figure1.txt")))
        assert not is_isometric_cycle(G, (1, 2, 3, 4, 5))

    def test_octahedron_vertex_link_isometric(self):
        K = build_kp(Partition.from_spec("1|2|3"))
        G = skeleton(K)
        cyc = link_of_face(K, [1]).cycles[0]
        assert is_isometric_cycle(G, cyc)

    def test_non_cycle_rejected(self):
        G = cycle_graph(5)
        with pytest.raises(ValueError):
            is_isometric_cycle(G, (1, 3, 5))


class TestGonal:
    def test_k5_minus_triangle_violated(self):
        violations = kgonal_violations(k5_minus_triangle(), 2)
        witness = {1: 1, 2: 1, 3: 1, 4: -1, 5: -1}
        assert any(dict(v.coefficients) == witness for v in violations)
        value = next(v for v in violations if dict(v.coefficients) == witness)
        assert value.value(k5_minus_triangle()) == 1

    def test_complete_graph_clean(self):
        assert kgonal_violations(complete_graph(5), 2) == []

    def test_k7_c5_hypermetric_to_bound_3(self):
        assert kgonal_violations(complete_minus_cycle(7, 5), 3) == []

    def test_k23_violated(self):
        assert kgonal_violations(k23(), 2) != []

    @pytest.mark.parametrize("name", ["k5_k3.txt", "k7_c5.txt"])
    def test_bound_2_is_the_short_part_of_bound_3(self, name):
        G = parse_graph(read_fixture(name))
        short = [v for v in kgonal_violations(G, 3)
                 if sum(abs(c) for _, c in v.coefficients) <= 5]
        assert short == kgonal_violations(G, 2)

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            kgonal_violations(complete_graph(3), 1)

    def test_violation_implies_cut_cone_infeasible(self):
        for G in (k5_minus_triangle(), k23()):
            assert kgonal_violations(G, 2) != []
            assert cut_cone_decompose(G) is None


def reference_kgonal_violations(G: Graph, bound: int) -> list:
    """Every whole coefficient vector, zeros included, scored at its leaf."""
    budget = 2 * bound + 1
    verts = G.vertices
    n = len(verts)
    violations = []
    coeffs = [0] * n

    def extend(i: int, left: int, total: int):
        if i == n:
            if total == 1:
                vec = GonalVector(tuple(
                    (verts[k], coeffs[k]) for k in range(n) if coeffs[k]))
                if vec.value(G) > 0:
                    violations.append(vec)
            return
        for c in range(-left, left + 1):
            rest = left - abs(c)
            if abs(1 - (total + c)) > rest:
                continue
            if i == n - 1 and total + c != 1:
                continue
            coeffs[i] = c
            extend(i + 1, rest, total + c)
        coeffs[i] = 0

    extend(0, budget, 0)
    violations.sort(key=lambda v: v.coefficients)
    return violations


def adjacency(G: Graph) -> dict:
    adj = {v: set() for v in G.vertices}
    for u, v in G.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    """Each pair an edge with probability 1/2, then every vertex joined to 1."""
    edges = [e for e in itertools.combinations(range(1, n + 1), 2)
             if rng.random() < 0.5]
    G = Graph(range(1, n + 1), edges)
    while not G.is_connected():
        adj = adjacency(G)
        reach = {1}
        stack = [1]
        while stack:
            for w in adj[stack.pop()]:
                if w not in reach:
                    reach.add(w)
                    stack.append(w)
        outside = sorted(set(G.vertices) - reach)
        edges.append((rng.choice(sorted(reach)), outside[0]))
        G = Graph(range(1, n + 1), edges)
    return G


RANDOM_GRAPHS = [random_connected_graph(random.Random(seed), 5 + seed % 5)
                 for seed in range(20)]

GRAPH_FIXTURES = ["k5_k2.txt", "k5_k3.txt", "k6_3k2.txt", "k7_c5.txt"]


class TestKgonalAgainstReference:
    @pytest.mark.parametrize("name", GRAPH_FIXTURES)
    @pytest.mark.parametrize("bound", [2, 3])
    def test_graph_fixtures(self, name, bound):
        G = parse_graph(read_fixture(name))
        assert kgonal_violations(G, bound) == reference_kgonal_violations(G, bound)

    @pytest.mark.parametrize("p", [p for m in range(2, 6)
                                   for p in enumerate_partitions(m)],
                             ids=lambda p: p.to_spec())
    def test_kp_skeletons(self, p):
        G = skeleton(build_kp(p))
        assert kgonal_violations(G, 3) == reference_kgonal_violations(G, 3)

    @pytest.mark.parametrize("Q", [cube(), torus(3, 3), grid(1, 3)],
                             ids=["cube", "torus_3x3", "grid_1x3"])
    def test_quad_skeletons(self, Q):
        G = Q.skeleton()
        assert kgonal_violations(G, 3) == reference_kgonal_violations(G, 3)

    @pytest.mark.parametrize("G", [k23(), k5_minus_triangle()],
                             ids=["k23", "k5_k3"])
    @pytest.mark.parametrize("bound", [2, 3, 4])
    def test_violated_graphs_at_three_bounds(self, G, bound):
        found = kgonal_violations(G, bound)
        assert found and found == reference_kgonal_violations(G, bound)

    def test_random_connected_graphs(self):
        with_violations = 0
        for G in RANDOM_GRAPHS:
            found = kgonal_violations(G, 3)
            assert found == reference_kgonal_violations(G, 3)
            with_violations += bool(found)
        assert with_violations >= 3

    def test_dual_cuboctahedron_bound_3_is_clean(self):
        assert kgonal_violations(dual_cuboctahedron().skeleton(), 3) == []

    def test_single_vertex(self):
        assert kgonal_violations(Graph([1], []), 3) == []

    def test_disconnected_graph_raises(self):
        with pytest.raises(ValueError, match="disconnected"):
            kgonal_violations(Graph([1, 2, 3, 4], [(1, 2), (3, 4)]), 2)

    def test_audit_rejects_a_disagreeing_score(self, monkeypatch):
        monkeypatch.setattr(GonalVector, "value", lambda self, G: 0)
        with pytest.raises(AssertionError, match="audit"):
            kgonal_violations(k23(), 2)


def petersen_graph() -> Graph:
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)]  # a pentagram
    return Graph(range(1, 11), outer + spokes + inner)


def cycle_product(*lengths) -> Graph:
    """The Cartesian product of cycles of the given lengths."""
    points = list(itertools.product(*map(range, lengths)))
    index = {x: i + 1 for i, x in enumerate(points)}
    edges = [(index[x], index[x[:k] + ((x[k] + 1) % m,) + x[k + 1:]])
             for x in points for k, m in enumerate(lengths)]
    return Graph(index.values(), edges)


def with_trivial_chain(G: Graph) -> Graph:
    """A copy of G whose chain holds only the identity at each level, so
    the k-gonal search runs without the group."""
    H = Graph(G.vertices, G.edges)
    identity = tuple(range(H.num_vertices))
    object.__setattr__(H, "_chain", [(i, [identity], []) for i in range(H.num_vertices)])
    return H


SYMMETRIC_GRAPHS = {
    "K2,3": (k23(), 3),
    "K2,4": (complete_bipartite(2, 4), 3),
    "K3,3": (complete_bipartite(3, 3), 3),
    "petersen": (petersen_graph(), 2),
    **{f"K{m}-C{h}": (complete_minus_cycle(m, h), 3)
       for m in range(3, 9) for h in range(3, m + 1)
       if complete_minus_cycle(m, h).is_connected()},
    **{f"K{m}-{h}K2" if h else f"K{m}": (complete_minus_matching(m, h), 3)
       for m in range(3, 9) for h in range(m // 2 + 1)},
    **{f"C{m}": (cycle_graph(m), 3) for m in range(3, 10)},
    "Q3": (hypercube_graph(3), 3),
    "torus_3x3": (torus(3, 3).skeleton(), 3),
    "torus_3x4": (torus(3, 4).skeleton(), 3),
}


class TestKgonalUpToAutomorphisms:
    @pytest.mark.parametrize("name", SYMMETRIC_GRAPHS)
    def test_equals_the_search_without_the_group(self, name):
        G, bound = SYMMETRIC_GRAPHS[name]
        assert any(len(level) > 1 for _, level, _ in metric._automorphism_chain(G))
        found = kgonal_violations(G, bound)
        assert found == kgonal_violations(with_trivial_chain(G), bound)
        if G.num_vertices <= 8:
            assert found == reference_kgonal_violations(G, bound)

    def test_orbit_expansion_is_exercised(self):
        violated = [name for name, (G, bound) in SYMMETRIC_GRAPHS.items()
                    if kgonal_violations(G, bound)]
        assert {"K2,3", "K2,4", "K3,3", "K5-C3", "K6-C3"} <= set(violated)

    @pytest.mark.parametrize("lengths", [(5, 5), (3, 3, 3)], ids=["C5xC5", "C3xC3xC3"])
    def test_vertex_transitive_products_are_clean_to_bound_3(self, lengths):
        # 25 and 27 vertices, |Aut| = 200 and 1296
        assert kgonal_violations(cycle_product(*lengths), 3) == []

    def test_two_searches_build_one_chain(self, chain_builds):
        G = complete_minus_cycle(7, 5)
        assert kgonal_violations(G, 2) == kgonal_violations(G, 3) == []
        assert chain_builds == [G.edges]

    def test_cut_cone_then_search_build_one_chain(self, chain_builds):
        G = complete_minus_cycle(7, 5)
        assert cut_cone_decompose(G) is None
        assert kgonal_violations(G, 3) == []
        assert chain_builds == [G.edges]


class TestPartialCube:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_hypercubes_recognized(self, n):
        labeling = partial_cube(hypercube_graph(n))
        assert labeling is not None and labeling.dimension == n

    def test_even_cycle(self):
        labeling = partial_cube(cycle_graph(6))
        assert labeling is not None and labeling.dimension == 3

    def test_k23_rejected(self):
        assert partial_cube(k23()) is None

    def test_odd_cycle_rejected(self):
        assert partial_cube(cycle_graph(5)) is None

    def test_labeling_is_isometric(self):
        G = hypercube_graph(3)
        lab = partial_cube(G)
        for u, v in itertools.combinations(G.vertices, 2):
            hamming = sum(a != b for a, b in zip(lab.address[u], lab.address[v]))
            assert hamming == G.distance(u, v)

    def test_partial_cube_gives_scale1_certificate(self):
        for G in (hypercube_graph(3), cycle_graph(6), cycle_graph(4)):
            lab = partial_cube(G)
            assert lab is not None
            cuts = {}
            for k in range(lab.dimension):
                side = frozenset(v for v in G.vertices if lab.address[v][k])
                cuts[side] = cuts.get(side, Fraction(0)) + 1
            dec = CutDecomposition(
                weights=cuts, vertices=G.vertices,
                metric={(u, v): G.distance(u, v)
                        for u, v in itertools.combinations(G.vertices, 2)})
            scale, _ = embedding_from_cuts(dec)
            assert scale == 1
            assert cut_cone_decompose(G) is not None


def separation(dec: CutDecomposition, u, v) -> Fraction:
    """Total weight of the cuts of ``dec`` with u and v on opposite sides."""
    return sum((w for S, w in dec.weights.items() if (u in S) != (v in S)),
               Fraction(0))


class TestCutCone:
    def test_c5_feasible_and_known_certificate(self):
        G = cycle_graph(5)
        dec = cut_cone_decompose(G)
        assert dec is not None
        # the classic certificate: weight 1/2 on the five consecutive pairs
        known = {frozenset({i, i % 5 + 1}): Fraction(1, 2) for i in range(1, 6)}
        hand = CutDecomposition(weights=known, vertices=G.vertices,
                                metric=dec.metric)
        for (u, v), d in dec.metric.items():
            assert separation(hand, u, v) == d

    def test_k7_c5_infeasible(self):
        assert cut_cone_decompose(complete_minus_cycle(7, 5)) is None

    def test_table1_skeletons_feasible(self):
        seen = set()
        for m in (3, 4, 5):
            from shortlinks import enumerate_partitions, kp_summary
            for p in enumerate_partitions(m):
                s = kp_summary(p)
                key = (s.skeleton_m, s.skeleton_h)
                if key in seen:
                    continue
                seen.add(key)
                G = complete_minus_matching(*key)
                assert cut_cone_decompose(G) is not None, key

    def test_km_hk2_sweep_5gonal_and_feasible(self):
        for m in range(3, 11):
            for h in range(0, m // 2 + 1):
                G = complete_minus_matching(m, h)
                assert kgonal_violations(G, 2) == []
                if m <= 8:
                    assert cut_cone_decompose(G) is not None

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            cut_cone_decompose(complete_graph(14))

    def test_single_vertex_has_no_cuts(self):
        dec = cut_cone_decompose(Graph([7], []))
        assert dec == CutDecomposition(weights={}, vertices=(7,), metric={})
        assert embedding_from_cuts(dec) == (1, {7: ()})


def reference_cut_cone(G: Graph):
    """One column per cut and one row per vertex pair: the solution or None."""
    verts = G.vertices
    pairs = list(itertools.combinations(verts, 2))
    rhs = [G.distance(u, v) for u, v in pairs]
    columns = []
    for r in range(1, len(verts)):
        for combo in itertools.combinations(verts[1:], r):
            S = frozenset(combo)
            columns.append([1 if ((u in S) != (v in S)) else 0
                            for u, v in pairs])
    return solve_nonnegative(columns, rhs)


def complete_minus_families(m_max: int) -> dict:
    """Every connected K_m - hK_2 and K_m - C_h with m <= m_max, by name."""
    graphs = {}
    for m in range(2, m_max + 1):
        for h in range(m // 2 + 1):
            graphs[f"K{m}-{h}K2"] = complete_minus_matching(m, h)
        for h in range(3, m + 1):
            graphs[f"K{m}-C{h}"] = complete_minus_cycle(m, h)
    return {name: G for name, G in graphs.items() if G.is_connected()}


FAMILIES = complete_minus_families(9)
SMALL_RANDOM_GRAPHS = [random_connected_graph(random.Random(100 + seed),
                                              5 + seed % 4)
                       for seed in range(20)]
QUAD_FIXTURES = ["cube.txt", "dual_cuboctahedron.txt", "grid_2x3.txt",
                 "torus_3x4.txt"]


def assert_audited(G: Graph, dec: CutDecomposition) -> None:
    assert dec.vertices == G.vertices
    assert all(w > 0 for w in dec.weights.values())
    for u, v in itertools.combinations(G.vertices, 2):
        assert separation(dec, u, v) == G.distance(u, v)


class TestCutConeAgainstReference:
    @pytest.mark.parametrize("name", GRAPH_FIXTURES)
    def test_graph_fixtures(self, name):
        G = parse_graph(read_fixture(name))
        dec = cut_cone_decompose(G)
        assert (dec is None) == (reference_cut_cone(G) is None)
        if dec is not None:
            assert_audited(G, dec)

    def test_complete_minus_families(self):
        verdicts = {}
        for name, G in FAMILIES.items():
            dec = cut_cone_decompose(G)
            assert (dec is None) == (reference_cut_cone(G) is None), name
            verdicts[name] = dec is not None
        # both verdicts occur: K7 - C5 is outside the cut cone
        assert not verdicts["K7-C5"] and verdicts["K9-4K2"]

    def test_random_connected_graphs(self):
        infeasible = 0
        for G in SMALL_RANDOM_GRAPHS:
            dec = cut_cone_decompose(G)
            assert (dec is None) == (reference_cut_cone(G) is None)
            infeasible += dec is None
        assert 0 < infeasible < len(SMALL_RANDOM_GRAPHS)

    @pytest.mark.parametrize("m", [10, 11, 12, 13])
    def test_km_hk2_past_ten_feasible_and_audited(self, m):
        for h in range(m // 2 + 1):
            G = complete_minus_matching(m, h)
            dec = cut_cone_decompose(G)
            assert dec is not None, (m, h)
            assert_audited(G, dec)

    def test_decomposition_is_constant_on_cut_orbits(self):
        # the swap of 1 and 2 (the missing edge) fixes K6 - K2
        dec = cut_cone_decompose(complete_minus_matching(6, 1))
        swap = {1: 2, 2: 1}
        weight = dec.weights.get
        for S, w in dec.weights.items():
            image = frozenset(swap.get(v, v) for v in S)
            if 1 in image:
                image = frozenset(dec.vertices) - image
            assert weight(image) == w

    def test_audit_rejects_a_wrong_weight(self, monkeypatch):
        def off_by_one(columns, rhs):
            solution = solve_nonnegative(columns, rhs)
            solution[solution.index(max(solution))] += 1
            return solution
        monkeypatch.setattr(metric, "solve_nonnegative", off_by_one)
        with pytest.raises(AssertionError, match="audit"):
            cut_cone_decompose(complete_minus_matching(6, 1))


def relabelled(G: Graph, rng: random.Random) -> Graph:
    """G on shuffled labels drawn from a wider range."""
    n = G.num_vertices
    label = dict(zip(G.vertices, rng.sample(range(1, 4 * n), n)))
    return Graph(label.values(), [(label[u], label[v]) for u, v in G.edges])


def assert_hadamard_audited(G: Graph, m: int, h: int) -> None:
    found = metric.hadamard_embedding(G)
    assert found is not None, (m, h)
    scale, address = found
    dim = 1 << (m - h - 1).bit_length()  # the least power of two >= m - h
    assert scale == dim // 2
    assert sorted(address) == list(G.vertices)
    assert {len(a) for a in address.values()} == {dim}
    for u, v in itertools.combinations(G.vertices, 2):
        ham = sum(a != b for a, b in zip(address[u], address[v]))
        assert ham == scale * G.distance(u, v), (m, h, u, v)


class TestHadamardEmbedding:
    @pytest.mark.parametrize("m", range(3, 33))
    def test_complete_minus_matchings_and_relabelled_copies(self, m):
        rng = random.Random(m)
        for h in range(m // 2 + 1):
            G = complete_minus_matching(m, h)
            assert_hadamard_audited(G, m, h)
            assert_hadamard_audited(relabelled(G, rng), m, h)

    def test_other_graphs_are_declined(self):
        declined = [complete_minus_cycle(m, h) for m in range(3, 12)
                    for h in range(3, m + 1)]
        declined += [k5_minus_triangle(), cycle_graph(5), hypercube_graph(3),
                     complete_bipartite(3, 3), Graph([1], []),
                     Graph([1, 2], []), Graph([1, 2], [(1, 2)])]
        for G in declined:
            assert metric.hadamard_embedding(G) is None, G

    def test_accepted_graphs_are_in_the_cut_cone(self):
        graphs = [*FAMILIES.values(), *SMALL_RANDOM_GRAPHS,
                  *(complete_minus_matching(10, h) for h in range(6))]
        accepted = [G for G in graphs if metric.hadamard_embedding(G) is not None]
        assert len(accepted) == sum(
            metric.identify_complete_minus_matching(G) is not None
            and G.num_vertices >= 3 for G in graphs) >= 32
        for G in accepted:
            assert G.num_vertices <= 10
            assert cut_cone_decompose(G) is not None

    def test_audit_rejects_the_addresses(self, monkeypatch):
        monkeypatch.setattr(metric, "_is_scaled_embedding", lambda *args: False)
        with pytest.raises(AssertionError, match="audit"):
            metric.hadamard_embedding(complete_minus_matching(6, 1))


def is_two_colourable(G: Graph) -> bool:
    """Colour each component from its first vertex, alternating along edges."""
    adj, colour = adjacency(G), {}
    for s in G.vertices:
        if s in colour:
            continue
        colour[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in colour:
                    colour[w] = 1 - colour[u]
                    stack.append(w)
                elif colour[w] == colour[u]:
                    return False
    return True


def reference_partial_cube(G: Graph):
    """Bipartiteness first, then each edge's split from four distance calls
    per vertex; the labeling (audited) or None."""
    if not G.is_connected():
        raise ValueError("partial-cube recognition needs a connected graph")
    if not is_two_colourable(G):
        return None
    verts = G.vertices
    splits = {}
    for u, v in G.edges:
        side_u = frozenset(w for w in verts
                           if G.distance(w, u) < G.distance(w, v))
        side_v = frozenset(w for w in verts
                           if G.distance(w, v) < G.distance(w, u))
        key = (side_u, side_v) if min(side_u) < min(side_v) else (side_v, side_u)
        splits.setdefault(key, []).append((u, v))
    classes = sorted(splits, key=lambda key: sorted(map(min, key)))
    base = verts[0]
    address = {}
    for v in verts:
        bits = []
        for side_a, side_b in classes:
            if v in side_a:
                bits.append(0 if base in side_a else 1)
            elif v in side_b:
                bits.append(0 if base in side_b else 1)
            else:
                return None  # split does not cover the graph
        address[v] = tuple(bits)
    for u, v in itertools.combinations(verts, 2):
        if sum(map(int.__ne__, address[u], address[v])) != G.distance(u, v):
            return None
    return metric.PartialCubeLabeling(dimension=len(classes), address=address)


def random_sparse_graph(rng: random.Random, n: int) -> Graph:
    """A random tree on 1..n plus up to three more edges: connected, and
    both bipartite and not."""
    edges = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges.update(rng.sample(pairs, rng.randint(0, 3)))
    return Graph(range(1, n + 1), edges)


def fixture_graphs() -> dict:
    """Every graph fixture and the skeleton of every quad fixture, by file name."""
    graphs = {}
    for path in sorted(FIXTURES.glob("*.txt")):
        text = path.read_text(encoding="utf-8")
        keyword = text.split(maxsplit=1)[0]
        if keyword == "graph":
            graphs[path.name] = parse_graph(text)
        elif keyword == "quad":
            graphs[path.name] = parse_quadrillage(text).skeleton()
    return graphs


FIXTURE_GRAPHS = fixture_graphs()


def assert_same_partial_cube(G: Graph) -> bool:
    """partial_cube agrees with the reference; True for a partial cube."""
    if not G.is_connected():
        for recognize in (partial_cube, reference_partial_cube):
            with pytest.raises(ValueError, match="connected graph"):
                recognize(G)
        return False
    lab, ref = partial_cube(G), reference_partial_cube(G)
    assert (lab is None) == (ref is None)
    if lab is not None:
        assert (lab.dimension, lab.address) == (ref.dimension, ref.address)
    return lab is not None


class TestPartialCubeAgainstReference:
    @pytest.mark.parametrize("name", sorted(FIXTURE_GRAPHS))
    def test_fixtures(self, name):
        assert_same_partial_cube(FIXTURE_GRAPHS[name])

    def test_cycles_hypercubes_and_complete_minus_matchings(self):
        graphs = [cycle_graph(k) for k in range(3, 10)]
        graphs += [hypercube_graph(d) for d in range(1, 5)]
        graphs += [complete_minus_matching(m, h)
                   for m in range(1, 10) for h in range(m // 2 + 1)]
        verdicts = [assert_same_partial_cube(G) for G in graphs]
        assert verdicts[:7] == [k % 2 == 0 for k in range(3, 10)]
        assert all(verdicts[7:11])

    def test_grid_and_torus_skeletons(self):
        for p in range(1, 5):
            for q in range(1, 5):
                assert assert_same_partial_cube(grid(p, q).skeleton())
        for p in range(3, 6):
            for q in range(3, 6):
                assert assert_same_partial_cube(torus(p, q).skeleton()) == (
                    p % 2 == q % 2 == 0)

    def test_random_sparse_graphs(self):
        verdicts = [assert_same_partial_cube(
            random_sparse_graph(random.Random(seed), 5 + seed % 5))
            for seed in range(40)]
        assert 0 < sum(verdicts) < len(verdicts)

    def test_bipartite_graphs_that_are_not_partial_cubes(self, monkeypatch):
        # every vertex is strictly nearer one end of each edge, so None
        # comes from the Hamming audit, not from the early return
        audits = []
        audit = metric._is_scaled_embedding

        def recorded(*args):
            audits.append(audit(*args))
            return audits[-1]

        monkeypatch.setattr(metric, "_is_scaled_embedding", recorded)
        cube = hypercube_graph(3)
        graphs = [k23(), complete_bipartite(2, 4), complete_bipartite(3, 3),
                  complete_bipartite(3, 4),
                  Graph(cube.vertices, cube.edges + ((1, 8),)),
                  Graph(cube.vertices, [e for e in cube.edges if e != (1, 2)]
                        + [(1, 8)])]
        for G in graphs:
            assert is_two_colourable(G)
            assert not assert_same_partial_cube(G)
        assert audits == [False] * len(graphs)

    def test_decides_without_a_bipartiteness_test(self):
        assert partial_cube(cycle_graph(5)) is None
        assert partial_cube(complete_graph(3)) is None
        assert partial_cube(cycle_graph(6)).dimension == 3
        assert partial_cube(hypercube_graph(3)).dimension == 3


class TestL1ImpliesHypermetric:
    """The implication the CLI relies on to skip the k-gonal search."""

    def test_partial_cubes_and_feasible_cut_cones_are_hypermetric(self):
        graphs = [parse_graph(read_fixture(name)) for name in GRAPH_FIXTURES]
        graphs += [parse_quadrillage(read_fixture(name)).skeleton()
                   for name in QUAD_FIXTURES]
        graphs += list(FAMILIES.values()) + SMALL_RANDOM_GRAPHS
        l1 = 0
        for G in graphs:
            if partial_cube(G) is not None or (
                    G.num_vertices <= CUT_CONE_VERTEX_GUARD
                    and cut_cone_decompose(G) is not None):
                l1 += 1
                assert kgonal_violations(G, 3) == []
        assert 0 < l1 < len(graphs)


def reference_embedding_from_cuts(dec: CutDecomposition):
    """Address tuples built list by list, cut by cut, and audited against
    the Fraction separation: (scale, address dict), or AssertionError."""
    scale = 1
    for w in dec.weights.values():
        scale = scale * w.denominator // math.gcd(scale, w.denominator)
    order = sorted(dec.weights, key=lambda S: (len(S), sorted(S)))
    address = {}
    for v in dec.vertices:
        bits = []
        for S in order:
            bits.extend([1 if v in S else 0] * int(dec.weights[S] * scale))
        address[v] = tuple(bits)
    for (u, v), d in dec.metric.items():
        if separation(dec, u, v) != d:
            raise AssertionError("reference audit failed")
    return scale, address


def k4_half_cuts() -> CutDecomposition:
    G = complete_graph(4)
    weights = {frozenset(S): Fraction(1, 2) for S in [(1, 2), (1, 3), (1, 4)]}
    return CutDecomposition(
        weights=weights, vertices=G.vertices,
        metric={(u, v): 1 for u, v in itertools.combinations(G.vertices, 2)})


def rejected(build, dec) -> bool:
    try:
        build(dec)
    except AssertionError:
        return True
    return False


FEASIBLE_DECOMPOSITIONS = {name: dec for name, dec in (
    (name, cut_cone_decompose(G)) for name, G in FAMILIES.items())
    if dec is not None}


class TestEmbeddingFromCutsAgainstReference:
    def test_c5_and_k4_half_cuts(self):
        for dec in (cut_cone_decompose(cycle_graph(5)), k4_half_cuts()):
            assert embedding_from_cuts(dec) == reference_embedding_from_cuts(dec)

    def test_complete_minus_families(self):
        for name, dec in FEASIBLE_DECOMPOSITIONS.items():
            assert embedding_from_cuts(dec) == \
                reference_embedding_from_cuts(dec), name

    def test_perturbed_decompositions(self):
        perturbed = [k4_half_cuts()]
        for dec in FEASIBLE_DECOMPOSITIONS.values():
            order = sorted(dec.weights, key=lambda S: (len(S), sorted(S)))
            for S in order[:1] + order[-1:]:
                for w in (dec.weights[S] / 2, dec.weights[S] + Fraction(1, 3)):
                    perturbed.append(replace(dec, weights={**dec.weights, S: w}))
                perturbed.append(replace(dec, weights={
                    T: w for T, w in dec.weights.items() if T != S}))
        verdicts = [rejected(embedding_from_cuts, dec) for dec in perturbed]
        assert verdicts == [rejected(reference_embedding_from_cuts, dec)
                            for dec in perturbed]
        assert not verdicts[0] and all(verdicts[1:])


class TestEmbeddingFromCuts:
    def test_c5_scale_two(self):
        dec = cut_cone_decompose(cycle_graph(5))
        scale, address = embedding_from_cuts(dec)
        assert scale == 2
        G = cycle_graph(5)
        for u, v in itertools.combinations(G.vertices, 2):
            ham = sum(a != b for a, b in zip(address[u], address[v]))
            assert ham == scale * G.distance(u, v)

    def test_k4_half_cuts(self):
        scale, address = embedding_from_cuts(k4_half_cuts())
        assert scale == 2
        assert len(next(iter(address.values()))) == 3

    def test_unit_cuts_scale_one(self):
        G = hypercube_graph(2)
        dec = cut_cone_decompose(G)
        scale, _ = embedding_from_cuts(dec)
        assert scale == 1

    def test_audit_rejects_a_wrong_decomposition(self):
        G = complete_graph(3)
        dec = CutDecomposition(
            weights={frozenset([2]): Fraction(1)}, vertices=G.vertices,
            metric={(u, v): 1 for u, v in itertools.combinations(G.vertices, 2)})
        with pytest.raises(AssertionError, match="audit"):
            embedding_from_cuts(dec)


class TestScaledEmbedding:
    def test_k5_minus_k2(self):
        G = complete_minus_matching(5, 1)
        address = find_scaled_embedding(G, 2, 4)
        assert address is not None
        for u, v in itertools.combinations(G.vertices, 2):
            ham = sum(a != b for a, b in zip(address[u], address[v]))
            assert ham == 2 * G.distance(u, v)

    def test_k6_minus_3k2(self):
        G = complete_minus_matching(6, 3)
        assert find_scaled_embedding(G, 2, 4) is not None

    def test_k3_odd_parity_fails(self):
        G = complete_graph(3)
        for dim in (2, 3, 4):
            assert find_scaled_embedding(G, 1, dim) is None

    def test_audit_rejects_bad_addresses(self, monkeypatch):
        monkeypatch.setattr(metric, "_address_search",
                            lambda need, dim: [0] * len(need))
        with pytest.raises(AssertionError, match="audit"):
            find_scaled_embedding(complete_minus_matching(5, 1), 2, 4)

    def test_parameters_are_checked_before_the_guards(self):
        big = complete_graph(9)  # past the vertex guard
        with pytest.raises(ValueError, match="scale must be a positive integer"):
            find_scaled_embedding(big, 0, 4)
        with pytest.raises(ValueError, match="dim must be a non-negative integer"):
            find_scaled_embedding(big, 1, -1)
        with pytest.raises(ValueError, match="dim must be a non-negative integer"):
            find_scaled_embedding(complete_graph(1), 1, -1)

    def test_guards(self):
        with pytest.raises(GuardExceeded):
            find_scaled_embedding(complete_graph(9), 2, 4)
        with pytest.raises(GuardExceeded):
            find_scaled_embedding(complete_graph(4), 2, 13)

    def test_matches_partial_cube_on_small_graphs(self):
        # spot-check the two recognizers against each other
        for G in (cycle_graph(6), cycle_graph(5), k23(), hypercube_graph(3)):
            assert (find_scaled_embedding(G, 1, 6) is not None) == \
                (partial_cube(G) is not None)


class TestAm:
    @pytest.mark.parametrize("m,value", [(3, 2), (4, 2), (5, 6), (6, 6)])
    def test_values(self, m, value):
        assert a_m(m) == value

    def test_range(self):
        with pytest.raises(ValueError):
            a_m(2)


class TestAmIsAnUpperBound:
    @pytest.mark.parametrize("m,formula", [(6, 6), (7, 6), (8, 20)])
    def test_complete_minus_an_edge_embeds_at_scale_4(self, m, formula):
        # K_m - K_2 is a_{m-1}'s graph; audited addresses beat the formula
        G = complete_minus_matching(m, 1)
        assert a_m(m - 1) == formula > 4
        address = find_scaled_embedding(G, 4, 8)
        assert address is not None
        for u, v in itertools.combinations(G.vertices, 2):
            ham = sum(a != b for a, b in zip(address[u], address[v]))
            assert ham == 4 * G.distance(u, v)


@st.composite
def connected_graph(draw, max_n=6):
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    edges = [e for e, keep in zip(pairs, mask) if keep]
    # connect stragglers to vertex 1 so the metric exists
    G = Graph(range(1, n + 1), edges)
    adj = adjacency(G)
    missing = set()
    for v in G.vertices:
        reach = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in reach:
                    reach.add(w)
                    stack.append(w)
        if 1 not in reach:
            missing.add(v)
    if missing:
        edges.extend((1, v) for v in sorted(missing))
        G = Graph(range(1, n + 1), edges)
    return G


class TestOracleProperty:
    @given(connected_graph())
    @settings(max_examples=60, deadline=None)
    def test_partial_cube_matches_exhaustive_search(self, G):
        assert (partial_cube(G) is not None) == \
            (find_scaled_embedding(G, 1, 6) is not None)
