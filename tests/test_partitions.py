import itertools
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shortlinks import (
    KpSummary,
    Partition,
    are_isomorphic,
    build_kp,
    characteristic_partition,
    classify,
    complex_type,
    enumerate_partitions,
    is_closed_pseudomanifold,
    kp_summary,
    product_dual,
    skeleton,
)
from shortlinks import partitions


@pytest.fixture
def classify_refused(monkeypatch):
    """Make ``classify`` raise in every module holding it, so that a test
    passing under this fixture never consulted the classifier."""
    def refuse(K):
        raise AssertionError("classify was consulted")
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "shortlinks" and \
                getattr(module, "classify", None) is classify:
            monkeypatch.setattr(module, "classify", refuse)


def partition_of_sizes(sizes) -> Partition:
    """The partition of {1..m} into consecutive parts of the given sizes."""
    bounds = list(itertools.accumulate(sizes, initial=1))
    return Partition(range(a, b) for a, b in zip(bounds, bounds[1:]))


def random_partition_strategy(max_m=7):
    """Random partitions of {1..m} as shuffled part assignments."""

    @st.composite
    def build(draw):
        m = draw(st.integers(min_value=2, max_value=max_m))
        labels = draw(st.lists(st.integers(min_value=0, max_value=m - 1),
                               min_size=m, max_size=m))
        parts = {}
        for i, lab in enumerate(labels, start=1):
            parts.setdefault(lab, []).append(i)
        return Partition(parts.values())

    return build()


class TestPartitionType:
    def test_canonical_order(self):
        p = Partition([[4, 5], [1], [2, 3]])
        assert [sorted(part) for part in p.parts] == [[1], [2, 3], [4, 5]]

    def test_derived_quantities(self):
        p = Partition.from_spec("1|2|3,4,5|6,7")
        assert p.m == 7 and p.t == 4 and p.h == 2
        assert p.sizes == (1, 1, 2, 3)
        assert p.size_counts()[1] == 2

    def test_spec_round_trip(self):
        for spec in ("1,2,3", "1|2,3", "1|2|3|4,5"):
            assert Partition.from_spec(spec).to_spec() == spec

    def test_bad_specs(self):
        for spec in ("", "a|b", "1||2", "0|1", "1,,2"):
            with pytest.raises(ValueError):
                Partition.from_spec(spec)

    def test_overlapping_parts(self):
        with pytest.raises(ValueError):
            Partition([[1, 2], [2, 3]])

    # from_spec only splits and checks digits; the constructor checks the rest
    @pytest.mark.parametrize("make,message", [
        (lambda: Partition([[1], []]), "empty part in partition"),
        (lambda: Partition([[1], [0, 2]]),
         "partition elements must be positive integers: [0, 2]"),
        (lambda: Partition([[1, 2], [2, 3]]), "parts are not disjoint: [2] repeated"),
        (lambda: Partition([]), "partition needs at least one part"),
        (lambda: Partition.from_spec("0|1"),
         "partition elements must be positive integers: [0]"),
        (lambda: Partition.from_spec("1,2|2"), "parts are not disjoint: [2] repeated"),
        (lambda: Partition.from_spec("1||2"), "bad partition spec '1||2'"),
        (lambda: Partition.from_spec("-1|2"), "bad partition spec '-1|2'"),
        (lambda: Partition.from_spec("1|\u00b2"), "bad partition spec '1|\u00b2'"),
    ], ids=["empty-part", "non-positive", "overlap", "no-parts", "spec-zero",
            "spec-overlap", "spec-empty-part", "spec-negative", "spec-superscript"])
    def test_rejection_message(self, make, message):
        with pytest.raises(ValueError) as info:
            make()
        assert type(info.value) is ValueError and str(info.value) == message

    def test_equality_ignores_input_order(self):
        assert Partition([[2, 3], [1]]) == Partition([[1], [3, 2]])


def folded_facets(p: Partition) -> set:
    """K(P) as a list fold over all 2^m sign patterns: the primed vertex i'
    goes to the vertex of i's part, and an image repeating a vertex is
    dropped."""
    part_vertex = {i: p.m + j for j, part in enumerate(p.parts, start=1) for i in part}
    images = [[]]
    for i in range(1, p.m + 1):
        images = [image + [v] for image in images for v in (i, part_vertex[i])]
    return {frozenset(image) for image in images if len(set(image)) == p.m}


def dealt(p: Partition, seed) -> Partition:
    """A partition with the part sizes of ``p`` over shuffled elements."""
    elements = list(range(1, p.m + 1))
    random.Random(seed).shuffle(elements)
    bounds = list(itertools.accumulate(p.sizes, initial=0))
    return Partition(elements[a:b] for a, b in zip(bounds, bounds[1:]))


class TestBuildKp:
    @pytest.mark.parametrize("m", range(2, 10))
    def test_matches_the_list_fold(self, m):
        for p in enumerate_partitions(m):
            for q in (p, dealt(p, p.to_spec())):
                K = build_kp(q)
                assert K.dim == m - 1 and K.facets == folded_facets(q)

    def test_dual_triangular_prism_facets(self):
        K = build_kp(Partition.from_spec("1|2,3"))
        expected = {frozenset(f) for f in
                    [(1, 2, 3), (4, 2, 3), (1, 5, 3), (1, 2, 5), (4, 5, 3),
                     (4, 2, 5)]}
        assert K.facets == expected

    def test_octahedron_eight_facets(self):
        assert build_kp(Partition.from_spec("1|2|3")).num_facets == 8

    def test_simplex_boundary(self):
        K = build_kp(Partition.from_spec("1,2,3"))
        assert K.num_facets == 4
        assert complex_type(K) == {3}

    def test_gap_partition_rejected(self):
        with pytest.raises(ValueError):
            build_kp(Partition([[1], [3]]))

    @pytest.mark.parametrize("m", range(2, 9))
    def test_facet_count_formula(self, m):
        for p in enumerate_partitions(m):
            K = build_kp(p)
            assert K.num_facets == math.prod(s + 1 for s in p.sizes)

    @pytest.mark.parametrize("m", range(2, 8))
    def test_skeleton_is_complete_minus_singleton_matching(self, m):
        for p in enumerate_partitions(m):
            G = skeleton(build_kp(p))
            assert G.num_vertices == p.m + p.t
            part_vertex = {j: p.m + j for j in range(1, p.t + 1)}
            expected_non_edges = {
                frozenset({next(iter(part)), part_vertex[j]})
                for j, part in enumerate(p.parts, start=1) if len(part) == 1}
            non_edges = {frozenset(e) for e in
                         itertools.combinations(G.vertices, 2)
                         if not G.has_edge(*e)}
            assert non_edges == expected_non_edges

    def test_type_three_iff_single_part(self):
        for m in range(2, 7):
            for p in enumerate_partitions(m):
                ty = complex_type(build_kp(p))
                assert (ty == {3}) == (p.t == 1)
                assert (ty == {4}) == (p.t == p.m)


class TestKpSummary:
    @pytest.mark.parametrize("spec,expected", [
        ("1,2|3,4", KpSummary(9, 6, 0, 72, 36, 1)),
        ("1|2|3|4|5", KpSummary(32, 10, 5, 3840, 32, 1)),
        ("1|2,3,4,5", KpSummary(10, 7, 1, 240, 240, 2)),
    ])
    def test_table_rows(self, spec, expected):
        assert kp_summary(Partition.from_spec(spec)) == expected

    def test_counts_match_construction(self):
        for m in range(2, 7):
            for p in enumerate_partitions(m):
                s = kp_summary(p)
                K = build_kp(p)
                assert s.facet_count == K.num_facets
                assert s.skeleton_m == len(K.vertices)


class TestProductDual:
    @pytest.mark.parametrize("spec", ["1,2,3", "1|2", "1|2,3"])
    def test_examples_isomorphic_to_kp(self, spec):
        p = Partition.from_spec(spec)
        assert are_isomorphic(build_kp(p), product_dual(p)) is not None

    def test_counts(self):
        p = Partition.from_spec("1,2|3,4,5")
        D = product_dual(p)
        assert len(D.vertices) == p.m + p.t
        assert D.num_facets == math.prod(s + 1 for s in p.sizes)

    @pytest.mark.usefixtures("classify_refused")
    @pytest.mark.parametrize("m", range(2, 7))
    def test_isomorphic_for_all_small_partitions(self, m):
        for p in enumerate_partitions(m):
            K, D = build_kp(p), product_dual(p)
            phi = are_isomorphic(K, D)
            assert phi is not None
            assert {frozenset(phi[v] for v in f) for f in K.facets} == D.facets


class TestIsomorphismClasses:
    @pytest.mark.usefixtures("classify_refused")
    @pytest.mark.parametrize("m", range(2, 7))
    def test_distinct_canonical_partitions_not_isomorphic(self, m):
        ps = enumerate_partitions(m)
        complexes = [build_kp(p) for p in ps]
        for (pa, Ka), (pb, Kb) in itertools.combinations(zip(ps, complexes), 2):
            assert pa.sizes != pb.sizes
            assert are_isomorphic(Ka, Kb) is None, (pa, pb)

    @pytest.mark.usefixtures("classify_refused")
    @pytest.mark.parametrize("sizes_a,sizes_b", [((7, 2, 2), (5, 5, 1)),
                                                 ((7, 2, 2, 1), (5, 5, 1, 1))])
    def test_equal_counts_different_sizes(self, sizes_a, sizes_b):
        # the only such pairs with m <= 12: dimension, vertex count and
        # facet count agree, so only the search can tell them apart
        Ka, Kb = (build_kp(partition_of_sizes(s)) for s in (sizes_a, sizes_b))
        assert (Ka.dim, len(Ka.vertices), Ka.num_facets) == \
            (Kb.dim, len(Kb.vertices), Kb.num_facets)
        assert are_isomorphic(Ka, Kb) is None

    def test_equal_size_multisets_isomorphic(self):
        # relabellings of the same size multiset give isomorphic complexes
        variants = [Partition([[3], [1, 2]]), Partition([[2], [1, 3]]),
                    Partition([[1], [2, 3]])]
        complexes = [build_kp(p) for p in variants]
        for Ka, Kb in itertools.combinations(complexes, 2):
            assert are_isomorphic(Ka, Kb) is not None


class TestClassify:
    def test_recovers_part_sizes(self):
        p = Partition.from_spec("1,2|3,4,5")
        assert classify(build_kp(p)).sizes == (2, 3)

    def test_octahedron(self):
        assert classify(build_kp(Partition.from_spec("1|2|3"))).sizes == (1, 1, 1)

    def test_round_trip_canonical(self):
        for m in range(2, 7):
            for p in enumerate_partitions(m):
                assert classify(build_kp(p)) == p

    def test_rejects_long_link_types(self):
        from shortlinks.formats import parse_complex
        from conftest import read_fixture
        with pytest.raises(ValueError, match="3, 4"):
            classify(parse_complex(read_fixture("figure1.txt")))

    def test_rejects_disjoint_union(self):
        from shortlinks import SimplicialComplex
        K1 = build_kp(Partition.from_spec("1|2|3"))
        shifted = {frozenset(v + 10 for v in f) for f in K1.facets}
        with pytest.raises(ValueError, match="not of the K\\(P\\) form"):
            classify(SimplicialComplex(2, K1.facets | shifted))

    @pytest.mark.parametrize("spec", ["1|2|3|4|5|6|7|8", "1|2,3|4,5,6|7,8"])
    def test_one_characteristic_partition_per_call(self, spec, monkeypatch):
        facets = []

        def counted(K, delta):
            facets.append(delta)
            return characteristic_partition(K, delta)

        monkeypatch.setattr(partitions, "characteristic_partition", counted)
        K = build_kp(Partition.from_spec(spec))
        assert classify(K).sizes == Partition.from_spec(spec).sizes
        assert facets == [min(K.facets, key=sorted)]

    def test_join_blocks_are_the_parts_with_their_merged_vertex(self):
        # build_kp numbers the vertex of the j-th part m + j
        for m in range(2, 10):
            for p in enumerate_partitions(m):
                assert partitions._join_blocks(build_kp(p)) == {
                    frozenset(part) | {m + j} for j, part in enumerate(p.parts, start=1)}

    def test_join_blocks_of_the_product_dual(self):
        for m in range(2, 10):
            for p in enumerate_partitions(m):
                bounds = list(itertools.accumulate((s + 1 for s in p.sizes), initial=1))
                assert partitions._join_blocks(product_dual(p)) == {
                    frozenset(range(a, b)) for a, b in zip(bounds, bounds[1:])}

    def test_lemma_same_partition_on_every_facet(self):
        for m in range(2, 7):
            for p in enumerate_partitions(m):
                K = build_kp(p)
                for facet in K.facets:
                    assert characteristic_partition(K, facet).sizes == p.sizes


class TestEnumerate:
    @pytest.mark.parametrize("m,count", [(3, 3), (4, 5), (5, 7), (6, 11), (7, 15)])
    def test_partition_numbers(self, m, count):
        assert len(enumerate_partitions(m)) == count

    def test_order_single_part_first(self):
        ps = enumerate_partitions(5)
        assert ps[0].sizes == (5,)
        assert ps[-1].sizes == (1, 1, 1, 1, 1)
        assert [p.t for p in ps] == sorted(p.t for p in ps)

    def test_all_cover_range(self):
        for p in enumerate_partitions(6):
            assert p.covers_range()

    def test_too_small(self):
        with pytest.raises(ValueError):
            enumerate_partitions(1)


class TestRandomizedInvariants:
    @given(random_partition_strategy(max_m=7))
    @settings(max_examples=40, deadline=None)
    def test_built_complex_is_closed_type_34(self, p):
        K = build_kp(p)
        assert is_closed_pseudomanifold(K).is_closed
        assert complex_type(K) <= {3, 4}
        assert K.num_facets == math.prod(s + 1 for s in p.sizes)

    @given(random_partition_strategy(max_m=6))
    @settings(max_examples=25, deadline=None)
    def test_classify_recovers_sizes(self, p):
        # classify returns the canonical representative of the size multiset
        assert classify(build_kp(p)).sizes == p.sizes
