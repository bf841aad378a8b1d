"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line once its assertions hold (run with
``pytest tests/test_acceptance.py -v -s`` to see them); stated runtime
budgets are asserted with a wall clock.
"""

import itertools
import math
import time

import pytest

from conftest import FIXTURES
from shortlinks import (
    Partition,
    a_m,
    are_isomorphic,
    automorphism_count,
    build_kp,
    characteristic_partition,
    complete_minus_cycle,
    complete_minus_matching,
    complex_type,
    coxeter_order_bruteforce,
    cube,
    cut_cone_decompose,
    dual_cuboctahedron,
    embeddable_by_zones,
    enumerate_partitions,
    euler_characteristic,
    find_scaled_embedding,
    grid,
    hypercube_graph,
    is_closed_pseudomanifold,
    is_isometric_cycle,
    kgonal_violations,
    kp_summary,
    link_of_face,
    partial_cube,
    product_dual,
    skeleton,
    torus,
    zone_is_convex,
    zone_is_simple,
    zones,
)
from shortlinks.cli import main
from shortlinks.formats import parse_complex
from shortlinks.quadrillage import Quadrillage
from test_simplicial import same_cycle

# (sizes) -> facets, (skeleton m, h), |Aut|, vertex orbits, |Cox|
TABLE1 = {
    (3,): (4, (4, 0), 24, 1, 24),
    (1, 2): (6, (5, 1), 12, 2, 12),
    (1, 1, 1): (8, (6, 3), 48, 1, 8),
    (4,): (5, (5, 0), 120, 1, 120),
    (1, 3): (8, (6, 1), 48, 2, 48),
    (2, 2): (9, (6, 0), 72, 1, 36),
    (1, 1, 2): (12, (7, 2), 48, 2, 24),
    (1, 1, 1, 1): (16, (8, 4), 384, 1, 16),
    (5,): (6, (6, 0), 720, 1, 720),
    (1, 4): (10, (7, 1), 240, 2, 240),
    (2, 3): (12, (7, 0), 144, 2, 144),
    (1, 1, 3): (16, (8, 2), 192, 2, 96),
    (1, 2, 2): (18, (8, 1), 144, 2, 72),
    (1, 1, 1, 2): (24, (9, 3), 288, 2, 48),
    (1, 1, 1, 1, 1): (32, (10, 5), 3840, 1, 32),
}


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: PASS — {text}")


def test_criterion_1_table1_reproduction(capsys):
    start = time.monotonic()
    rows = [p for m in (3, 4, 5) for p in enumerate_partitions(m)]
    assert len(rows) == 15
    for p in rows:
        s = kp_summary(p)
        facets, (sm, sh), aut, orb, cox = TABLE1[p.sizes]
        assert s.facet_count == facets, p
        assert (s.skeleton_m, s.skeleton_h) == (sm, sh), p
        assert s.aut_order == aut, p
        assert s.vertex_orbit_count == orb, p
        assert s.cox_order == cox, p
    assert main(["table", "--max-dim", "4"]) == 0
    out = capsys.readouterr().out
    golden = (FIXTURES / "table_dim4.tsv").read_text(encoding="utf-8")
    assert out == golden
    elapsed = time.monotonic() - start
    assert elapsed < 10
    report(1, f"15 partitions match Table 1 exactly, golden TSV byte-identical "
              f"({elapsed:.1f}s)")


def test_criterion_2_formula_vs_bruteforce():
    start = time.monotonic()
    checked = 0
    for m in range(2, 10):
        for p in enumerate_partitions(m):
            if p.m + p.t > 10:
                continue
            aut_expected = (math.prod(math.factorial(s + 1) for s in p.sizes)
                            * math.prod(math.factorial(c)
                                        for c in p.size_counts().values()))
            assert automorphism_count(build_kp(p)) == aut_expected, p
            cox_expected = math.prod(math.factorial(s + 1) for s in p.sizes)
            assert coxeter_order_bruteforce(p) == cox_expected, p
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120
    report(2, f"{checked} partitions with <=10 vertices: brute-force Aut and "
              f"Cox orders match the closed forms ({elapsed:.1f}s)")


def test_criterion_3_classification_soundness():
    for m in range(2, 8):
        for p in enumerate_partitions(m):
            K = build_kp(p)
            assert is_closed_pseudomanifold(K).is_closed, p
            assert complex_type(K) <= {3, 4}, p
            for facet in K.facets:
                assert characteristic_partition(K, facet).sizes == p.sizes, p
    pairs = 0
    for m in range(2, 7):
        for p in enumerate_partitions(m):
            phi = are_isomorphic(build_kp(p), product_dual(p))
            assert phi is not None, p
            pairs += 1
    report(3, f"all partitions m<=7 closed of type within {{3,4}} with uniform "
              f"characteristic partitions; {pairs} product duals isomorphic")


def test_criterion_4_same_skeleton_not_isomorphic():
    K1 = build_kp(Partition.from_spec("1,2|3,4,5,6"))
    K2 = build_kp(Partition.from_spec("1,2,3|4,5,6"))
    for K in (K1, K2):
        G = skeleton(K)
        assert G.num_vertices == 8
        assert G.num_edges == 28  # complete
    assert are_isomorphic(K1, K2) is None
    report(4, "K(12|3456) and K(123|456) share the K8 skeleton yet are "
              "not isomorphic")


def test_criterion_5_figure1_artifact():
    K = parse_complex((FIXTURES / "figure1.txt").read_text(encoding="utf-8"))
    assert K.dim == 3 and K.num_facets == 13
    assert is_closed_pseudomanifold(K).is_closed
    G = skeleton(K)
    non_edges = [e for e in itertools.combinations(G.vertices, 2)
                 if not G.has_edge(*e)]
    assert non_edges == [(2, 5)]
    link = link_of_face(K, [6, 7])
    assert link.sizes == (5,)
    assert same_cycle(link.cycles[0], (1, 2, 3, 4, 5))
    assert not is_isometric_cycle(G, link.cycles[0])
    assert kgonal_violations(G, 2) == []
    assert kgonal_violations(G, 3) == []
    assert cut_cone_decompose(G) is not None
    report(5, "13-facet fixture: closed, skeleton K7 minus {2,5}, "
              "non-isometric C5 link at {6,7}, embeddable skeleton")


def test_criterion_6_obstructions():
    from shortlinks import Graph

    start = time.monotonic()
    k5_k3 = Graph(range(1, 6),
                  [e for e in itertools.combinations(range(1, 6), 2)
                   if not (e[0] <= 3 and e[1] <= 3)])
    violations = kgonal_violations(k5_k3, 2)
    witness = {1: 1, 2: 1, 3: 1, 4: -1, 5: -1}
    matches = [v for v in violations if dict(v.coefficients) == witness]
    assert matches and matches[0].value(k5_k3) == 1
    k7_c5 = complete_minus_cycle(7, 5)
    assert kgonal_violations(k7_c5, 3) == []
    assert cut_cone_decompose(k7_c5) is None
    elapsed = time.monotonic() - start
    assert elapsed < 30
    report(6, f"K5-K3 violates the 5-gonal inequality by exactly +1; K7-C5 "
              f"is hypermetric to bound 3 yet outside the cut cone "
              f"({elapsed:.1f}s)")


def test_criterion_7_scaled_embeddings():
    for G in (complete_minus_matching(5, 1), complete_minus_matching(6, 3)):
        address = find_scaled_embedding(G, 2, 4)
        assert address is not None, G
        for u, v in itertools.combinations(G.vertices, 2):
            ham = sum(a != b for a, b in zip(address[u], address[v]))
            assert ham == 2 * G.distance(u, v)
    assert a_m(4) == 2 and a_m(3) == 2 and a_m(6) == 6
    report(7, "scale-2 embeddings of K5-K2 and K6-3K2 in the 4-cube verified "
              "bit by bit; a_m values correct")


def test_criterion_8_partial_cube_oracle_equivalence():
    from shortlinks import Graph

    start = time.monotonic()
    checked = agreed_present = 0
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
            G = Graph(range(1, n + 1), edges)
            if not G.is_connected():
                continue
            fast = partial_cube(G) is not None
            brute = find_scaled_embedding(G, 1, 6) is not None
            assert fast == brute, (n, edges)
            checked += 1
            agreed_present += fast
    for N in range(1, 7):
        labeling = partial_cube(hypercube_graph(N))
        assert labeling is not None and labeling.dimension == N
    elapsed = time.monotonic() - start
    report(8, f"partial-cube recognizer agrees with exhaustive search on "
              f"{checked} connected graphs (<=6 vertices, {agreed_present} "
              f"embeddable); Q_N recognized with dimension N for N<=6 "
              f"({elapsed:.0f}s)")


def test_criterion_9_zones():
    cube_zones = zones(cube())
    assert len(cube_zones) == 3
    for z in cube_zones:
        assert z.length == 4
        assert zone_is_simple(cube(), z) and zone_is_convex(cube(), z)
    for p, q in ((3, 4), (4, 4), (3, 5)):
        Q = torus(p, q)
        zs = zones(Q)
        assert len(zs) == p + q
        covered = [e for z in zs for e in z.edges]
        assert len(covered) == Q.num_edges and set(covered) == set(Q.edge_faces)
    dc = dual_cuboctahedron()
    dc_zones = zones(dc)
    assert len(dc_zones) == 4 and all(z.length == 6 for z in dc_zones)
    banana = Quadrillage(5, [(1, 3, 2, 4), (1, 4, 2, 5), (1, 5, 2, 3)])
    planar_fixtures = [cube(), grid(1, 1), grid(2, 3), grid(3, 3), dc, banana]
    for Q in planar_fixtures:
        assert embeddable_by_zones(Q) == (partial_cube(Q.skeleton()) is not None)
    report(9, "cube 3x(simple, convex, length 4); torus p+q zones partition "
              "the edges; dual cuboctahedron 4x6; zone criterion matches the "
              "partial-cube oracle on all planar bipartite fixtures")


def test_criterion_10_euler_characteristic():
    checked = 0
    for m in range(2, 7):
        for p in enumerate_partitions(m):
            n = m - 1
            assert euler_characteristic(build_kp(p)) == 1 + (-1) ** n, p
            checked += 1
    report(10, f"chi(K(P)) = 1+(-1)^n for all {checked} partitions with "
               f"n <= 5")
