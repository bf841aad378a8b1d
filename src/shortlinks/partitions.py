"""The K(P) construction and its classification invariants.

Every closed simplicial complex whose (n-2)-face links all have length 3
or 4 arises, up to isomorphism, from a partition P of {1..n+1}: fold the
n-hyperoctahedron by merging the primed vertices within each part and
rejecting the facets that become degenerate.  This module builds K(P),
its closed-form combinatorial summary, the dual-of-a-product-of-simplices
model of the same complex, and the inverse direction: recovering the
partition from a complex.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .simplicial import (Partition, SimplicialComplex, characteristic_partition,
                         complex_type, is_closed_pseudomanifold)


@dataclass(frozen=True)
class KpSummary:
    """Closed-form combinatorial data of K(P)."""

    facet_count: int
    skeleton_m: int
    skeleton_h: int
    aut_order: int
    cox_order: int
    vertex_orbit_count: int


def _require_range_partition(p: Partition) -> None:
    if not p.covers_range():
        raise ValueError(
            f"partition must cover {{1..{p.m}}} with no gaps, got {p.to_spec()}")
    if p.m < 2:
        raise ValueError("partition must have at least two elements (n >= 1)")


def build_kp(p: Partition) -> SimplicialComplex:
    """Fold the (m-1)-hyperoctahedron along the partition ``p``.

    Vertices are 1..m for the unprimed hyperoctahedron vertices plus one
    vertex m+j for each part P_j (in canonical part order).  Each of the
    2^m sign patterns (hyperoctahedron facets) maps the primed vertex i' to
    the vertex of i's part; its image, as a vertex mask, is kept only if
    its popcount is m, i.e. its m entries stay distinct.
    """
    _require_range_partition(p)
    m = p.m
    images = [(0, ())]
    for j, part in enumerate(p.parts, start=m + 1):
        for i in part:
            images = [(mask | 1 << v, face + (v,))
                      for mask, face in images for v in (i, j)]
    return SimplicialComplex(
        m - 1, [face for mask, face in images if mask.bit_count() == m])


def kp_summary(p: Partition) -> KpSummary:
    """Closed-form counts for K(P); no complex is built."""
    _require_range_partition(p)
    sizes = p.sizes
    facet_count = math.prod(s + 1 for s in sizes)
    cox = math.prod(math.factorial(s + 1) for s in sizes)
    aut = cox * math.prod(math.factorial(c) for c in p.size_counts().values())
    return KpSummary(
        facet_count=facet_count,
        skeleton_m=p.m + p.t,
        skeleton_h=p.h,
        aut_order=aut,
        cox_order=cox,
        vertex_orbit_count=len(set(sizes)),
    )


def product_dual(p: Partition) -> SimplicialComplex:
    """The dual of the product of simplices with dimensions |P_1|..|P_t|.

    Block j carries |P_j|+1 vertices (one simplex per part); every choice
    of one vertex per block yields the facet consisting of all remaining
    vertices.  Isomorphic to build_kp(p).
    """
    _require_range_partition(p)
    blocks = []
    next_id = 1
    for part in p.parts:
        blocks.append(tuple(range(next_id, next_id + len(part) + 1)))
        next_id += len(part) + 1
    all_vertices = frozenset(range(1, next_id))
    facets = set()
    for choice in itertools.product(*blocks):
        facets.add(all_vertices - frozenset(choice))
    return SimplicialComplex(p.m - 1, facets)


def classify(K: SimplicialComplex) -> Partition:
    """Recover the partition P with K isomorphic to K(P).

    The characteristic partition of the first facet in sorted order gives
    the part sizes; K is K(P) when its facets are the join of one simplex
    boundary per part on blocks of those sizes plus one (:func:`_join_blocks`).
    Otherwise the first other facet in sorted order that fails, or else the
    vertex and facet counts, name the error.  The returned partition is the
    canonical one on {1..n+1} with those part sizes.
    """
    verdict = is_closed_pseudomanifold(K)
    if not verdict.is_closed:
        raise ValueError(f"complex is not closed ({verdict.status})")
    ty = complex_type(K)
    if not ty <= {3, 4}:
        raise ValueError(f"complex type is {sorted(ty)}, not within {{3, 4}}")
    sizes = characteristic_partition(K, min(K.facets, key=sorted)).sizes
    blocks = _join_blocks(K)
    if blocks is not None and sorted(len(b) - 1 for b in blocks) == list(sizes):
        return _canonical_partition(sizes)
    for facet in sorted(K.facets, key=sorted)[1:]:
        # raises the facet's own error if it has no characteristic partition
        if characteristic_partition(K, facet).sizes != sizes:
            raise ValueError(
                "not of the K(P) form: facets disagree on the characteristic "
                "partition")
    expected = kp_summary(_canonical_partition(sizes))
    if (len(K.vertices) != expected.skeleton_m
            or K.num_facets != expected.facet_count):
        raise ValueError(
            "not of the K(P) form: vertex or facet count does not match its "
            "characteristic partition")
    raise ValueError(
        "not of the K(P) form: its facets are not the join of one simplex "
        "boundary per part")


def _join_blocks(K: SimplicialComplex):
    """The blocks B_j when the facets of ``K`` are the join of the boundaries
    of the simplices on them, otherwise None.

    v's block is v and every vertex that no facet misses along with v, so a
    facet's missing set c meets it only in v for each v in c.  Disjoint
    blocks as many as |c| make each c one vertex per block, and as many
    facets as such choices make them all: K(P) with parts |B_j| - 1.  The
    join's own blocks, of two or more vertices each, are found exactly.
    """
    every = frozenset(K.vertices)
    beside = {v: set() for v in every}
    for facet in K.facets:
        missing = every - facet
        for v in missing:
            beside[v] |= missing
    blocks = {every - near | {v} for v, near in beside.items()}
    return blocks if (sum(map(len, blocks)) == len(every)
                      and len(blocks) == len(every) - K.dim - 1
                      and K.num_facets == math.prod(map(len, blocks))) else None


def _canonical_partition(sizes) -> Partition:
    parts = []
    start = 1
    for s in sorted(sizes):
        parts.append(range(start, start + s))
        start += s
    return Partition(parts)


def enumerate_partitions(m: int) -> list:
    """Canonical partitions of {1..m}, one per multiset of part sizes.

    Ordered by number of parts, then lexicographically by sorted sizes;
    the count is the integer-partition number p(m).
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")

    def int_partitions(rest: int, least: int):
        if rest == 0:
            yield ()
            return
        for k in range(least, rest + 1):
            for tail in int_partitions(rest - k, k):
                yield (k, *tail)

    all_sizes = sorted(int_partitions(m, 1), key=lambda s: (len(s), s))
    return [_canonical_partition(s) for s in all_sizes]
