import itertools
import math
import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shortlinks import (
    GuardExceeded,
    Partition,
    Permutation,
    SimplicialComplex,
    automorphism_count,
    automorphisms,
    build_kp,
    coxeter_order_bruteforce,
    complete_minus_cycle,
    complete_minus_matching,
    coxeter_presentation,
    cube,
    cycle_graph,
    dual_cuboctahedron,
    enumerate_partitions,
    grid,
    hypercube_graph,
    kp_summary,
    orbits,
    product_dual,
    skeleton,
    torus,
)
from shortlinks import _bijections
from shortlinks._bijections import (_audit, _compatible, _Instance, _Search,
                                    automorphism_generators, find_bijection,
                                    orbit_closure, permutation_group_order)
from conftest import read_fixture
from shortlinks.formats import parse_complex
from shortlinks.symmetry import stabilizer_chain


def aut_formula(p: Partition) -> int:
    base = math.prod(math.factorial(s + 1) for s in p.sizes)
    sym = math.prod(math.factorial(c) for c in p.size_counts().values())
    return base * sym


def cox_formula(p: Partition) -> int:
    return math.prod(math.factorial(s + 1) for s in p.sizes)


class TestPermutation:
    def test_identity_and_apply(self):
        e = Permutation({1: 1, 2: 2, 3: 3})
        assert e(2) == 2
        assert e.apply(frozenset({1, 3})) == frozenset({1, 3})

    def test_non_bijection_rejected(self):
        with pytest.raises(ValueError):
            Permutation({1: 2, 2: 2})

    def test_hashable(self):
        assert len({Permutation({1: 2, 2: 1}), Permutation({2: 1, 1: 2})}) == 1

    def test_equal_only_as_mappings(self):
        assert Permutation({1: 2, 2: 1}) != Permutation({3: 4, 4: 3})
        assert Permutation({1: 1}) != Permutation({2: 2})
        assert repr(Permutation({1: 2, 2: 1, 3: 3})) == "Permutation({1: 2, 2: 1})"

    def test_mapping_is_a_copy(self):
        g = Permutation({3: 1, 1: 3, 2: 2})
        assert list(g.mapping.items()) == [(1, 3), (2, 2), (3, 1)]
        g.mapping[1] = 1
        assert g(1) == 3
        with pytest.raises(AttributeError):
            g.mapping = {}

    @pytest.mark.parametrize("spec", ["1|2,3", "1,2|3,4", "1|2|3|4"])
    def test_automorphisms_equal_permutations_built_from_dicts(self, spec):
        K = build_kp(Partition.from_spec(spec))
        for g in automorphisms(K):
            h = Permutation({v: g(v) for v in reversed(K.vertices)})
            assert g == h and hash(g) == hash(h)
            assert repr(g) == repr(h)
            assert g.mapping == h.mapping
            assert list(g.mapping) == list(h.mapping) == list(K.vertices)
            assert all(g.apply(f) == h.apply(f) for f in K.facets)


class TestAutomorphisms:
    @pytest.mark.parametrize("spec,order", [
        ("1,2,3", 24),
        ("1,2|3,4", 72),
        ("1|2|3|4", 384),
    ])
    def test_table_orders(self, spec, order):
        K = build_kp(Partition.from_spec(spec))
        perms = automorphisms(K)
        assert len(perms) == order
        assert automorphism_count(K) == order

    @pytest.mark.parametrize("spec", ["1|2,3", "1,2|3,4", "1|2|3|4", "1,2,3,4,5"])
    def test_sorted_by_images(self, spec):
        K = build_kp(Partition.from_spec(spec))
        images = [tuple(g(v) for v in K.vertices) for g in automorphisms(K)]
        assert images == sorted(set(images))

    def test_permutations_preserve_facets(self):
        K = build_kp(Partition.from_spec("1|2,3"))
        for p in automorphisms(K):
            assert {p.apply(f) for f in K.facets} == K.facets

    def test_guard(self):
        K = build_kp(Partition.from_spec("1|2|3|4|5|6|7"))  # 14 vertices
        with pytest.raises(GuardExceeded):
            automorphisms(K)

    def test_formula_small_sweep(self):
        for m in range(2, 6):
            for p in enumerate_partitions(m):
                K = build_kp(p)
                assert automorphism_count(K) == aut_formula(p)


def _sorted_perms(verts, image_tuples) -> list:
    perms = [Permutation(dict(zip(verts, (verts[i] for i in im))))
             for im in image_tuples]
    perms.sort(key=lambda p: sorted(p.mapping.items()))
    return perms


def bruteforce_automorphisms(K) -> list:
    """Every vertex permutation of K tried against the facet set."""
    verts = K.vertices
    idx = {v: i for i, v in enumerate(verts)}
    facets = [[idx[v] for v in f] for f in K.facets]
    masks = {sum(1 << v for v in f) for f in facets}
    found = [im for im in itertools.permutations(range(len(verts)))
             if all(sum(1 << im[v] for v in f) in masks for f in facets)]
    return _sorted_perms(verts, found)


def skeleton_bitmasks(inst, facets) -> list:
    """Skeleton bitmasks of ``facets`` on the positions of ``inst``."""
    adj = [0] * inst.n
    for f in facets:
        for a, b in itertools.combinations([inst.idx[v] for v in f], 2):
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    return adj


def reference_order(inst) -> list:
    """The seed's base order: each step rescans every family member for
    every unplaced vertex, and places the one that completes the most
    members, then the one in the most members, then the smallest."""
    order = []
    placed = set()
    famsets = inst.family
    while len(order) < inst.n:
        best, best_key = -1, None
        for v in range(inst.n):
            if v in placed:
                continue
            completes = sum(1 for f in famsets if v in f and f - placed == {v})
            key = (completes, inst.memb[v], -v)
            if best_key is None or key > best_key:
                best, best_key = v, key
        order.append(best)
        placed.add(best)
    return order


def leaf_walk_images(src, dst, order, src_adj, dst_adj):
    """The seed's full backtracking walk, yielding every valid bijection.

    The skeleton bitmasks are passed in and the (membership, degree)
    signatures are built here, so the walk reads only the family and its
    counts from the code under test.
    """
    n = src.n
    pos = {v: i for i, v in enumerate(order)}
    triggers = defaultdict(list)
    for f in src.family:
        triggers[max(pos[v] for v in f)].append(sorted(f, key=pos.get))
    trig = [triggers.get(d, ()) for d in range(n)]

    src_counts = {src.pair[a][b] for a in range(n) for b in range(n) if a != b}
    dst_counts = {dst.pair[a][b] for a in range(n) for b in range(n) if a != b}
    pair_constant = src_counts == dst_counts and len(src_counts) <= 1
    src_pair, dst_pair = src.pair, dst.pair
    dst_masks = dst.fam_masks
    src_sig = [(src.memb[v], bin(src_adj[v]).count("1")) for v in range(n)]
    dst_sig = [(dst.memb[v], bin(dst_adj[v]).count("1")) for v in range(n)]
    cands = [[w for w in range(n) if dst_sig[w] == src_sig[v]] for v in range(n)]
    img = [-1] * n

    def rec(depth: int, used: int):
        if depth == n:
            yield tuple(img)
            return
        v = order[depth]
        av = src_adj[v]
        for w in cands[v]:
            bit = 1 << w
            if used & bit:
                continue
            aw = dst_adj[w]
            ok = True
            for i in range(depth):
                u = order[i]
                iu = img[u]
                if ((av >> u) & 1) != ((aw >> iu) & 1):
                    ok = False
                    break
                if not pair_constant and src_pair[v][u] != dst_pair[w][iu]:
                    ok = False
                    break
            if not ok:
                continue
            img[v] = w
            ok = True
            for f in trig[depth]:
                m = 0
                for u in f:
                    m |= 1 << img[u]
                if m not in dst_masks:
                    ok = False
                    break
            if ok:
                yield from rec(depth + 1, used | bit)
        img[v] = -1

    yield from rec(0, 0)


def reference_automorphisms(K) -> list:
    """Brute force up to 8 vertices, the full leaf walk for 9-12."""
    if len(K.vertices) <= 8:
        return bruteforce_automorphisms(K)
    inst = _Instance(K.facets)
    adj = skeleton_bitmasks(inst, K.facets)
    return _sorted_perms(K.vertices,
                         leaf_walk_images(inst, inst, reference_order(inst), adj, adj))


def small_kp_and_duals() -> list:
    cases = []
    for m in range(2, 7):
        for p in enumerate_partitions(m):
            cases += [(f"K({p.to_spec()})", build_kp(p)),
                      (f"dual({p.to_spec()})", product_dual(p))]
    return cases


def kp_minus_one_facet() -> list:
    cases = []
    for m in range(3, 6):
        for p in enumerate_partitions(m):
            K = build_kp(p)
            facets = sorted(K.facets, key=sorted)
            cases.append((f"K({p.to_spec()})-facet", SimplicialComplex(K.dim, facets[1:])))
    return cases


def random_pure_complexes() -> list:
    rng = random.Random(20260)
    cases = []
    for k in range(24):
        n = rng.randint(6, 11)
        dim = rng.choice((1, 2, 2, 3))
        faces = list(itertools.combinations(range(1, n + 1), dim + 1))
        chosen = rng.sample(faces, rng.randint(n, min(len(faces), 3 * n)))
        if len(frozenset().union(*map(frozenset, chosen))) == n:
            cases.append((f"random{k}-n{n}-d{dim}", SimplicialComplex(dim, chosen)))
    return cases


# the edges of these have more symmetry than their triangles, with the
# same number of triangles on each edge, so only the facet check rejects
EDGE_SYMMETRIC = [
    ("edges4-aut2", SimplicialComplex(2, [(1, 2, 6), (1, 3, 5), (1, 4, 6),
                                          (1, 5, 6), (2, 3, 6), (2, 4, 5)])),
    ("edges8-aut4", SimplicialComplex(2, [(1, 2, 6), (1, 3, 4), (1, 5, 6),
                                          (2, 3, 4), (2, 3, 5), (4, 5, 6)])),
]

# the fewest vertices a complex has, and a facet whose complement is empty
SMALLEST = [("one-edge", SimplicialComplex(1, [(1, 2)])),
            ("one-triangle", SimplicialComplex(2, [(1, 2, 3)]))]

CHAIN_CASES = (small_kp_and_duals()
               + [("figure1", parse_complex(read_fixture("figure1.txt")))]
               + kp_minus_one_facet()
               + random_pure_complexes()
               + EDGE_SYMMETRIC
               + SMALLEST)


class TestStabilizerChain:
    @pytest.mark.parametrize("name,K", CHAIN_CASES, ids=[c[0] for c in CHAIN_CASES])
    def test_matches_reference(self, name, K):
        expected = reference_automorphisms(K)
        assert automorphisms(K) == expected
        assert automorphism_count(K) == len(expected)

    def test_cases_include_small_and_trivial_groups(self):
        orders = [automorphism_count(K) for name, K in random_pure_complexes()]
        assert len(orders) >= 15
        assert orders.count(1) >= 3
        assert any(1 < o <= 12 for o in orders)

    @given(st.sampled_from([p for m in range(2, 6) for p in enumerate_partitions(m)]),
           st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_relabelled_kp(self, p, rnd):
        K = build_kp(p)
        labels = rnd.sample(range(1, 40), len(K.vertices))
        phi = dict(zip(K.vertices, labels))
        K2 = SimplicialComplex(K.dim, [[phi[v] for v in f] for f in K.facets])
        conjugated = [Permutation({phi[v]: phi[g(v)] for v in K.vertices})
                      for g in automorphisms(K)]
        conjugated.sort(key=lambda q: sorted(q.mapping.items()))
        assert automorphisms(K2) == conjugated
        assert automorphism_count(K2) == aut_formula(p)

    def test_built_once_per_complex(self, chain_builds):
        K = build_kp(Partition.from_spec("1|2,3"))
        assert automorphism_count(K) == 12
        assert len(orbits(automorphisms(K), K.vertices)) == 2
        assert chain_builds == [K.facets]

    def test_audit_rejects_a_non_automorphism(self, monkeypatch):
        K = build_kp(Partition.from_spec("1|2,3"))
        swap = {v: v for v in K.vertices} | {1: 2, 2: 1}
        assert {frozenset(swap[v] for v in f) for f in K.facets} != K.facets
        inst = _Instance(K.facets)
        wrong = tuple(inst.idx[swap[v]] for v in inst.verts)
        monkeypatch.setattr(_bijections._Search, "first", lambda self, cands: wrong)
        with pytest.raises(AssertionError, match="audit"):
            automorphism_count(K)
        with pytest.raises(AssertionError, match="audit"):
            automorphisms(K)

    def test_audit_rejects_a_non_bijection(self, monkeypatch):
        K = build_kp(Partition.from_spec("1|2|3"))
        monkeypatch.setattr(_bijections._Search, "first",
                            lambda self, cands: (0,) * self.n)
        with pytest.raises(AssertionError, match="audit"):
            automorphism_count(K)


def random_graph_edges(rng: random.Random) -> list:
    """Edges of a random graph on 4 to 10 vertices, at least one edge."""
    n = rng.randint(4, 10)
    density = rng.choice((0.3, 0.5, 0.7))
    edges = [e for e in itertools.combinations(range(1, n + 1), 2)
             if rng.random() < density]
    return edges or [(1, 2)]


SIGNATURE_CASES = ([build_kp(p).facets for m in range(2, 6)
                    for p in enumerate_partitions(m)]
                   + [product_dual(p).facets for m in range(2, 5)
                      for p in enumerate_partitions(m)])


class TestSignatures:
    def test_invariant_under_relabelling(self):
        rng = random.Random(20)
        families = SIGNATURE_CASES + [random_graph_edges(rng) for _ in range(60)]
        for facets in families:
            verts = sorted(frozenset().union(*map(frozenset, facets)))
            phi = dict(zip(verts, rng.sample(range(1, 100), len(verts))))
            a = _Instance(facets)
            b = _Instance([[phi[v] for v in f] for f in facets])
            assert [a.sig[a.idx[v]] for v in verts] == \
                [b.sig[b.idx[phi[v]]] for v in verts]
            assert _compatible(a, b)

    def test_determine_the_skeleton_degree(self):
        rng = random.Random(21)
        families = SIGNATURE_CASES + [random_graph_edges(rng) for _ in range(60)]
        for facets in families:
            inst = _Instance(facets)
            degree = [bin(d).count("1") for d in skeleton_bitmasks(inst, facets)]
            by_sig = defaultdict(set)
            for v in range(inst.n):
                by_sig[repr(inst.sig[v])].add(degree[v])
            assert all(len(d) == 1 for d in by_sig.values())

    def test_facet_sizes_must_agree(self):
        # the 3-sets avoiding an edge of C5 keep the edges as their
        # complement family, the same family as C5's own
        c5 = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
        avoiding = [sorted({1, 2, 3, 4, 5} - set(e)) for e in c5]
        assert _Instance(avoiding).family == _Instance(c5).family
        assert find_bijection(avoiding, c5) is None
        assert find_bijection(c5, avoiding) is None

    def test_grid_chain_runs_few_searches(self, searches):
        chain = _bijections._stabilizer_chain(grid(5, 5).edges)
        assert math.prod(len(level) for _, level, _ in chain) == 8
        assert 0 < len(searches) <= 3

    def test_simplex_boundary_chain_runs_one_search_per_level(self, searches):
        # Aut is S_8: each level needs one element the deeper ones lack
        K = build_kp(Partition.from_spec("1,2,3,4,5,6,7"))
        _bijections._stabilizer_chain(K.facets)
        assert len(searches) == 7

    def test_cross_polytope_chain_skips_reached_images(self, searches):
        _bijections._stabilizer_chain(build_kp(Partition.from_spec("1|2|3|4")).facets)
        assert 0 < len(searches) <= 4

    def test_long_cycle_chain_skips_images_the_prefix_rules_out(self, searches):
        # with b_0..b_{d-1} fixed, a w whose co-family counts with them
        # differ from b_d's is rejected before any search
        chain = _bijections._stabilizer_chain(cycle_graph(200).edges)
        assert math.prod(len(level) for _, level, _ in chain) == 400
        assert 0 < len(searches) <= 2

    def test_hypercube_chain_runs_few_searches(self, searches):
        chain = _bijections._stabilizer_chain(hypercube_graph(4).edges)
        assert math.prod(len(level) for _, level, _ in chain) == 384
        assert 0 < len(searches) <= 4


def _edges(G) -> list:
    return sorted(tuple(sorted(e)) for e in G.edges)


BASE_ORDER_CASES = {
    "kp-and-duals": [build(p).facets for m in range(2, 8)
                     for p in enumerate_partitions(m)
                     for build in (build_kp, product_dual)],
    "kp-and-dual-skeletons": [_edges(skeleton(build(p))) for m in range(2, 8)
                              for p in enumerate_partitions(m)
                              for build in (build_kp, product_dual)],
    "complete-minus": [_edges(G) for m in range(4, 10)
                       for G in [complete_minus_matching(m, h)
                                 for h in range(m // 2 + 1)]
                       + [complete_minus_cycle(m, h) for h in range(3, m + 1)]],
    "quad-skeletons": [_edges(Q.skeleton()) for Q in (
        grid(2, 4), grid(5, 5), torus(3, 4), torus(4, 4), torus(5, 5),
        cube(), dual_cuboctahedron())],
    "random-graphs": [random_graph_edges(random.Random(seed)) for seed in range(80)],
}


class TestBaseOrder:
    """The one-pass set-up against the seed's rescanning rule."""

    @pytest.mark.parametrize("group", BASE_ORDER_CASES)
    def test_order_and_triggers_match_the_rescan(self, group):
        for facets in BASE_ORDER_CASES[group]:
            inst = _Instance(facets)
            search = _Search(inst, inst)
            assert search.order == reference_order(inst)
            # each member is checked once, at its last vertex, in family order
            pos = {v: d for d, v in enumerate(search.order)}
            expected = [[] for _ in range(inst.n)]
            for f in inst.family:
                expected[max(map(pos.get, f))].append(f)
            assert search.trig == expected


def generated_group(gens, n: int) -> set:
    """Closure of the image tuples ``gens`` under composition."""
    group = {tuple(range(n))}
    todo = list(group)
    while todo:
        h = todo.pop()
        for g in gens:
            gh = tuple(g[i] for i in h)
            if gh not in group:
                group.add(gh)
                todo.append(gh)
    return group


GENERATOR_CASES = (
    [(name, K.facets) for name, K in CHAIN_CASES
     if automorphism_count(K) <= 5000]
    + [("P3", [(1, 2), (2, 3)]),
       ("C7", cycle_graph(7).edges), ("Q3", hypercube_graph(3).edges),
       ("K6-3K2", complete_minus_matching(6, 3).edges)])


class TestGenerators:
    @pytest.mark.parametrize("name,facets", GENERATOR_CASES,
                             ids=[c[0] for c in GENERATOR_CASES])
    def test_generate_the_whole_group(self, name, facets):
        inst = _Instance(facets)
        chain = _bijections._stabilizer_chain(facets)
        gens = automorphism_generators(chain)
        identity = tuple(range(inst.n))
        for g in gens:
            assert g != identity
            assert {frozenset(g[inst.idx[v]] for v in f) for f in facets} == \
                {frozenset(inst.idx[v] for v in f) for f in facets}
        assert len(generated_group(gens, inst.n)) == math.prod(
            len(level) for _, level, _ in chain)

    def test_fewer_than_the_transversal_elements(self):
        facets = build_kp(Partition.from_spec("1|2|3|4")).facets
        chain = _bijections._stabilizer_chain(facets)
        assert len(automorphism_generators(chain)) < sum(
            len(level) - 1 for _, level, _ in chain)

    def test_one_facet_complex(self):
        # the complement of the only facet is empty; the facet family is used
        assert automorphism_count(SimplicialComplex(2, [(1, 2, 3)])) == 6


def top_down_chain(facets) -> list:
    """Levels (b_d, T_d) built from the top: one first-solution search for
    every candidate image of every base point, b_0..b_{d-1} fixed."""
    inst = _Instance(facets)
    search = _Search(inst, inst)
    cands = list(search.cands)
    chain = []
    for d, v in enumerate(search.order):
        level = [tuple(range(inst.n))]
        for w in search.cands[v]:
            if w != v and w not in search.order[:d]:
                cands[v] = (w,)
                images = search.first(cands)
                if images is not None:
                    level.append(images)
        cands[v] = (v,)
        chain.append((v, level))
    return chain


def greedy_generators(chain) -> list:
    """Elements of a top-down chain, deepest level first, each kept when it
    sends b_d outside the orbit regrown from the ones kept before it."""
    gens = []
    for base, level in reversed(chain):
        orbit = {base}
        for t in level[1:]:
            if t[base] not in orbit:
                gens.append(t)
                orbit = set(orbit_closure([base], [g.__getitem__ for g in gens])[0])
    return gens


CHAIN_FAMILIES = dict(BASE_ORDER_CASES,
                      generator_cases=[facets for _, facets in GENERATOR_CASES])


class TestChainLevels:
    """The deepest-first builder against a top-down one, level by level."""

    @pytest.mark.parametrize("group", CHAIN_FAMILIES)
    def test_same_generators_orbits_and_transversal_sizes(self, group):
        for facets in CHAIN_FAMILIES[group]:
            chain = _bijections._stabilizer_chain(facets)
            expected = top_down_chain(facets)
            assert automorphism_generators(chain) == greedy_generators(expected)
            assert [(b, {t[b] for t in T}, len(T)) for b, T, _ in chain] == \
                [(b, {t[b] for t in T}, len(T)) for b, T in expected]

    @pytest.mark.parametrize("group", CHAIN_FAMILIES)
    def test_every_transversal_element_passes_the_audit(self, group):
        for facets in CHAIN_FAMILIES[group]:
            inst = _Instance(facets)
            chain = _bijections._stabilizer_chain(facets)
            for d, (b, T, _) in enumerate(chain):
                assert T[0] == tuple(range(inst.n))
                assert len({t[b] for t in T}) == len(T)
                for t in T:
                    _audit(inst, inst, t)
                    assert all(t[u] == u for u, _, _ in chain[:d])


def closure_orbits(perms, domain) -> list:
    """Orbits by breadth-first closure under ``perms``, smallest first."""
    todo = set(domain)
    result = []
    while todo:
        orbit = frontier = {min(todo)}
        while frontier:
            frontier = {g(x) for x in frontier for g in perms} - orbit
            orbit = orbit | frontier
        result.append(orbit)
        todo -= orbit
    return result


class TestOrbits:
    def test_octahedron_vertices_one_orbit(self):
        K = build_kp(Partition.from_spec("1|2|3"))
        assert len(orbits(automorphisms(K), K.vertices)) == 1

    def test_dual_prism_two_vertex_orbits(self):
        K = build_kp(Partition.from_spec("1|2,3"))
        assert len(orbits(automorphisms(K), K.vertices)) == 2

    @pytest.mark.parametrize("m", range(2, 6))
    def test_isohedral(self, m):
        for p in enumerate_partitions(m):
            K = build_kp(p)
            assert len(orbits(automorphisms(K), list(K.facets))) == 1

    def test_generators_suffice(self):
        # a single 5-cycle generates the cyclic group acting transitively
        g = Permutation({i: i % 5 + 1 for i in range(1, 6)})
        assert len(orbits([g], range(1, 6))) == 1

    def test_domain_not_closed(self):
        g = Permutation({1: 2, 2: 1})
        with pytest.raises(ValueError):
            orbits([g], [1])

    def test_elements_outside_a_domain(self):
        swap12, swap34 = Permutation({1: 2, 2: 1}), Permutation({3: 4, 4: 3})
        with pytest.raises(ValueError, match="vertex 3 is outside"):
            orbits([swap12], [3])
        with pytest.raises(ValueError, match="vertex 1 is outside"):
            orbits([swap12, swap34], [1, 2, 3, 4])
        with pytest.raises(ValueError, match="vertex 3 is outside"):
            orbits([swap12], [[1, 3]])

    def test_subset_domains_not_closed(self):
        K = build_kp(Partition.from_spec("1|2,3"))
        perms = automorphisms(K)
        with pytest.raises(ValueError, match="not closed"):
            orbits(perms, K.vertices[1:])
        with pytest.raises(ValueError, match="not closed"):
            orbits(perms, sorted(K.facets, key=sorted)[1:])

    def test_subset_domain_closed(self):
        # an orbit of the vertex set is a domain of its own
        K = build_kp(Partition.from_spec("1|2,3"))
        perms = automorphisms(K)
        for orbit in orbits(perms, K.vertices):
            assert orbits(perms, sorted(orbit)) == [orbit]

    def test_no_permutations(self):
        assert orbits([], [3, 1, 2]) == [{1}, {2}, {3}]

    @pytest.mark.parametrize("p", [p for m in range(2, 7)
                                   for p in enumerate_partitions(m)],
                             ids=lambda p: p.to_spec())
    def test_blocks_match_closure_on_generators(self, p):
        K = build_kp(p)
        verts = K.vertices
        gens = [Permutation(dict(zip(verts, map(verts.__getitem__, g))))
                for g in automorphism_generators(stabilizer_chain(K))]
        expected = closure_orbits(gens, verts)
        assert orbits(gens, verts) == expected
        assert orbits(gens, reversed(verts)) == expected
        assert len(expected) == kp_summary(p).vertex_orbit_count

    def test_orbit_count_rule_matches_bruteforce(self):
        for m in range(2, 6):
            for p in enumerate_partitions(m):
                K = build_kp(p)
                counted = len(orbits(automorphisms(K), K.vertices))
                assert counted == kp_summary(p).vertex_orbit_count


class TestCoxeterPresentation:
    def test_single_part_all_threes(self):
        pres = coxeter_presentation(Partition.from_spec("1,2,3"))
        off = [pres.exponent(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j]
        assert set(off) == {3}

    def test_singletons_all_twos(self):
        pres = coxeter_presentation(Partition.from_spec("1|2|3"))
        off = [pres.exponent(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j]
        assert set(off) == {2}

    def test_mixed(self):
        pres = coxeter_presentation(Partition.from_spec("1|2,3"))
        assert pres.exponent(2, 3) == 3
        assert pres.exponent(1, 2) == 2
        assert pres.exponent(1, 1) == 1

    def test_matrix_symmetric(self):
        pres = coxeter_presentation(Partition.from_spec("1|2,3|4,5,6"))
        n = len(pres.generators)
        for a in range(n):
            for b in range(n):
                assert pres.matrix[a][b] == pres.matrix[b][a]


class TestCoxeterOrder:
    @pytest.mark.parametrize("spec,order", [
        ("1,2|3,4", 36),
        ("1|2|3|4,5", 48),
        ("1,2,3,4,5", 720),
    ])
    def test_table_orders(self, spec, order):
        assert coxeter_order_bruteforce(Partition.from_spec(spec)) == order

    def test_matches_formula_small(self):
        for m in range(2, 7):
            for p in enumerate_partitions(m):
                expected = math.prod(math.factorial(s + 1) for s in p.sizes)
                assert coxeter_order_bruteforce(p) == expected

    def test_eleven_points_one_part(self):
        assert coxeter_order_bruteforce(Partition([range(1, 12)])) == math.factorial(12)

    @pytest.mark.parametrize("spec", [
        "1,2,3,4,5,6,7,8,9",                          # S_10
        "1,2,3,4,5,6,7,8,9,10,11,12",                 # S_13
        "1|2|3,4|5,6|7,8,9|10,11,12",                 # six parts, 18 points
    ])
    def test_large_orders_match_the_closed_form(self, spec):
        p = Partition.from_spec(spec)
        assert coxeter_order_bruteforce(p) == cox_formula(p)


def cox_generators(p: Partition) -> tuple:
    """The transpositions of coxeter_order_bruteforce, and the domain size."""
    points = sorted(p.ground_set)
    size = len(points) + p.t
    gens = []
    for j, part in enumerate(p.parts):
        for i in sorted(part):
            images = list(range(size))
            a, b = points.index(i), len(points) + j
            images[a], images[b] = b, a
            gens.append(tuple(images))
    return gens, size


def random_generators(rng: random.Random, n: int) -> list:
    """Up to four permutations of range(n), each moving a random subset."""
    gens = []
    for _ in range(rng.randint(0, 4)):
        moved = rng.sample(range(n), rng.randint(2, n))
        images = list(range(n))
        for a, b in zip(moved, rng.sample(moved, len(moved))):
            images[a] = b
        gens.append(tuple(images))
    return gens


SMALL_COX = [p for m in range(2, 8) for p in enumerate_partitions(m)
             if cox_formula(p) <= 10 ** 5]


class TestSchreierSims:
    @pytest.mark.parametrize("p", SMALL_COX, ids=lambda p: p.to_spec())
    def test_cox_generators_match_the_closure(self, p):
        gens, size = cox_generators(p)
        order = len(generated_group(gens, size))
        assert permutation_group_order(gens, size) == order
        assert coxeter_order_bruteforce(p) == order

    def test_random_subgroups_of_symmetric_groups(self):
        rng = random.Random(70)
        orders = set()
        for _ in range(300):
            n = rng.randint(2, 7)
            gens = random_generators(rng, n)
            order = len(generated_group(gens, n))
            assert permutation_group_order(gens, n) == order, (gens, n)
            orders.add(order)
        # the groups range from trivial to the whole of S_7
        assert 1 in orders and math.factorial(7) in orders
        assert len(orders) >= 15

    def test_structured_groups(self):
        cycle = tuple(range(1, 12)) + (0,)
        flip = tuple(range(11, -1, -1))
        assert permutation_group_order([cycle], 12) == 12
        assert permutation_group_order([cycle, flip], 12) == 24
        # the Klein four-group, and the identity listed as a generator
        a, b = (1, 0, 3, 2), (2, 3, 0, 1)
        assert permutation_group_order([a, b, (0, 1, 2, 3)], 4) == 4
        assert permutation_group_order([], 5) == 1


class TestGroupRelations:
    def test_cox_divides_aut_and_equality_iff_distinct_sizes(self):
        for m in range(2, 7):
            for p in enumerate_partitions(m):
                s = kp_summary(p)
                assert s.aut_order % s.cox_order == 0
                distinct = len(set(p.sizes)) == len(p.sizes)
                assert (s.aut_order == s.cox_order) == distinct

    def test_equality_cases_brute_force(self):
        eq = Partition.from_spec("1|2,3")       # distinct part sizes
        ne = Partition.from_spec("1,2|3,4")     # repeated part sizes
        assert automorphism_count(build_kp(eq)) == coxeter_order_bruteforce(eq)
        assert automorphism_count(build_kp(ne)) == 2 * coxeter_order_bruteforce(ne)

    def test_cox_determines_partition(self):
        # equal size multisets imply equal canonical partitions
        for m in range(2, 8):
            seen = {}
            for p in enumerate_partitions(m):
                key = tuple(sorted(s + 1 for s in p.sizes))
                assert key not in seen
                seen[key] = p
