"""Symmetry groups and isomorphisms of small complexes, found by search.

Aut(K) is built as a stabilizer chain: along a base of vertices, one
first-solution backtracking search per candidate image decides each
basic orbit and supplies its transversal element.  |Aut| is the product
of the transversal sizes, and the automorphisms are the products of one
element per transversal, so neither needs a walk over every group
element.  Isomorphisms come from the same search stopped at its first
solution; orbits are computed from generator applications.
The reflection group Cox(K) attached to a partition is realized on a
small permutation domain and its order is obtained by explicit closure,
so the closed-form orders elsewhere in the package can be checked against
something that does not share their algebra.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from ._bijections import (all_automorphism_images, automorphism_group_order,
                          find_bijection)
from .errors import GuardExceeded
from .partitions import classify
from .simplicial import Partition, SimplicialComplex

AUTOMORPHISM_VERTEX_GUARD = 12
COXETER_ORDER_GUARD = 10 ** 7


class Permutation:
    """A bijection on a finite set of vertex ids."""

    __slots__ = ("mapping", "_key")

    def __init__(self, mapping: dict) -> None:
        if set(mapping) != set(mapping.values()):
            raise ValueError("mapping is not a bijection on its domain")
        object.__setattr__(self, "mapping", dict(mapping))
        # the images in domain order determine a bijection: its domain is their set
        object.__setattr__(self, "_key", tuple(mapping[v] for v in sorted(mapping)))

    @classmethod
    def _from_images(cls, verts, images) -> "Permutation":
        """``verts[i] -> verts[images[i]]``, for sorted ``verts`` and an
        ``images`` tuple already known to be a permutation of the indices."""
        perm = object.__new__(cls)
        key = tuple(map(verts.__getitem__, images))
        object.__setattr__(perm, "mapping", dict(zip(verts, key)))
        object.__setattr__(perm, "_key", key)
        return perm

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    def __call__(self, v):
        return self.mapping[v]

    def apply(self, element):
        """Image of a vertex or of a face (any iterable of vertices)."""
        if isinstance(element, int):
            return self.mapping[element]
        return frozenset(self.mapping[v] for v in element)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        moved = {v: w for v, w in sorted(self.mapping.items()) if v != w}
        return f"Permutation({moved or 'id'})"


def _check_vertex_guard(K: SimplicialComplex) -> None:
    if len(K.vertices) > AUTOMORPHISM_VERTEX_GUARD:
        raise GuardExceeded(
            f"automorphism search is limited to {AUTOMORPHISM_VERTEX_GUARD} "
            f"vertices, complex has {len(K.vertices)}")


def automorphisms(K: SimplicialComplex) -> list:
    """All vertex permutations of ``K`` preserving its facet set."""
    _check_vertex_guard(K)
    verts = K.vertices
    perms = [Permutation._from_images(verts, im)
             for im in all_automorphism_images(K.facets)]
    perms.sort(key=lambda p: p._key)
    return perms


def automorphism_count(K: SimplicialComplex) -> int:
    """Order of Aut(K) from the stabilizer chain behind :func:`automorphisms`.

    The order is the product of the transversal sizes; no group element
    beyond the transversals is built, so the cost is at most one
    first-solution search per base point and candidate image, whatever
    the group order.
    """
    _check_vertex_guard(K)
    return automorphism_group_order(K.facets)


def are_isomorphic(K1: SimplicialComplex, K2: SimplicialComplex):
    """A vertex bijection mapping facets onto facets, or None.

    Cheap invariants (dimension, vertex/facet counts, degree sequences)
    rule out most non-isomorphic pairs; for complexes that both classify
    as type {3, 4} the characteristic partitions decide (two such
    complexes are isomorphic exactly when their part-size multisets
    agree).  A positive answer is always returned as an explicit
    bijection found by backtracking.
    """
    if K1.dim != K2.dim:
        return None
    if len(K1.vertices) != len(K2.vertices) or K1.num_facets != K2.num_facets:
        return None
    try:
        p1, p2 = classify(K1), classify(K2)
    except ValueError:
        pass
    else:
        if p1.sizes != p2.sizes:
            return None
    return find_bijection(K1.facets, K2.facets)


def orbits(perms, domain) -> list:
    """Orbits of the group generated by ``perms`` on ``domain``.

    Domain elements are vertices (ints) or faces (iterables of vertices);
    the given permutations are treated as generators, so callers need not
    pass a whole group.  Orbits are returned sorted by their smallest
    element.
    """
    norm = [e if isinstance(e, int) else frozenset(e) for e in domain]
    pending = set(norm)
    result = []
    while pending:
        seed = min(pending, key=_orbit_sort_key)
        orbit = {seed}
        queue = deque([seed])
        while queue:
            x = queue.popleft()
            for p in perms:
                y = p.apply(x)
                if y not in orbit:
                    if y not in pending:
                        raise ValueError(
                            f"domain is not closed under the permutations: "
                            f"reached {y}")
                    orbit.add(y)
                    queue.append(y)
        result.append(orbit)
        pending -= orbit
    result.sort(key=lambda o: _orbit_sort_key(min(o, key=_orbit_sort_key)))
    return result


def _orbit_sort_key(x):
    return (0, x, ()) if isinstance(x, int) else (1, min(x), tuple(sorted(x)))


@dataclass(frozen=True)
class CoxeterPresentation:
    """Generators g_i and exponents m_ij with (g_i g_j)^(m_ij) = 1.

    m_ii = 1, and m_ij is 3 when i and j share a part of the partition,
    otherwise 2.
    """

    generators: tuple
    matrix: tuple

    def exponent(self, i: int, j: int) -> int:
        return self.matrix[self.generators.index(i)][self.generators.index(j)]


def coxeter_presentation(p: Partition) -> CoxeterPresentation:
    """Presentation of the reflection group attached to K(P)."""
    gens = tuple(sorted(p.ground_set))
    part_of = {}
    for k, part in enumerate(p.parts):
        for i in part:
            part_of[i] = k
    matrix = tuple(
        tuple(1 if a == b else (3 if part_of[a] == part_of[b] else 2)
              for b in gens)
        for a in gens)
    return CoxeterPresentation(generators=gens, matrix=matrix)


def coxeter_order_bruteforce(p: Partition) -> int:
    """Order of the generated permutation group realizing the presentation.

    Each generator g_i (i in part P_j) acts as the transposition (i, aux_j)
    on P_j plus one auxiliary point per part; the group is closed by
    breadth-first products.  Must equal the product of (|P_i|+1)!.
    """
    expected = math.prod(math.factorial(len(part) + 1) for part in p.parts)
    if expected > COXETER_ORDER_GUARD:
        raise GuardExceeded(
            f"coxeter closure is limited to {COXETER_ORDER_GUARD} elements, "
            f"presentation would generate {expected}")
    points = sorted(p.ground_set)
    index = {v: k for k, v in enumerate(points)}
    size = len(points) + p.t
    tables = []
    for j, part in enumerate(p.parts):
        aux = len(points) + j
        for i in sorted(part):
            table = list(range(size))
            table[index[i]], table[aux] = table[aux], table[index[i]]
            tables.append(bytes(table) + bytes(range(size, 256)))
    identity = bytes(range(size))
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for element in frontier:
            for table in tables:
                product = element.translate(table)
                if product not in seen:
                    seen.add(product)
                    new.append(product)
        frontier = new
    return len(seen)
