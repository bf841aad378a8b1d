import math

import pytest

from shortlinks import (
    GuardExceeded,
    Partition,
    Permutation,
    automorphism_count,
    automorphisms,
    build_kp,
    coxeter_order_bruteforce,
    coxeter_presentation,
    enumerate_partitions,
    kp_summary,
    orbits,
)


def aut_formula(p: Partition) -> int:
    base = math.prod(math.factorial(s + 1) for s in p.sizes)
    sym = math.prod(math.factorial(c) for c in p.size_counts().values())
    return base * sym


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

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            coxeter_order_bruteforce(Partition([range(1, 12)]))


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
