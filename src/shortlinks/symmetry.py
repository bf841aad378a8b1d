"""Symmetry groups and isomorphisms of small complexes, found by search.

Aut(K) is built as a stabilizer chain, deepest level first: one
first-solution backtracking search per candidate image that the
generators so far do not reach supplies a generator, and their products
fill each transversal.  The chain is built once per complex and kept on
it (:func:`stabilizer_chain`), and |Aut|, the automorphisms and the
CLI's table check all read that one chain.  |Aut| is the product of the
transversal sizes, and the automorphisms are the products of one element
per transversal, each formed in C by an ``operator.itemgetter``, so
neither needs a walk over every group element.  A :class:`Permutation`
is its tuple of images; the permutations of one :func:`automorphisms`
call share a single vertex-to-position index, and a mapping dict is
built only on request.  Isomorphisms come from the same search stopped
at its first solution, with no help from the classifier whose answers
they are used to check.  Orbits are computed from generator
applications: on the vertex set the orbits are merged as blocks, a
permutation that keeps every block in place costs one comparison, and
the merging stops at the first single block.
The reflection group Cox(K) attached to a partition is realized on a
small permutation domain by transpositions, and its order is computed by
the Schreier–Sims algorithm from those generators alone, so the
closed-form orders elsewhere in the package can be checked against
something that does not share their algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._bijections import (_stabilizer_chain, all_automorphism_images,
                          find_bijection, orbit_closure,
                          permutation_group_order)
from .errors import GuardExceeded
from .simplicial import Partition, SimplicialComplex

AUTOMORPHISM_VERTEX_GUARD = 12


class Permutation:
    """A bijection on a finite set of vertex ids.

    ``_key`` lists the images in sorted domain order, which determines
    the bijection (its domain is the set of the images); ``_pos`` maps
    each domain vertex to its position in ``_key``.
    """

    __slots__ = ("_key", "_pos")

    def __init__(self, mapping: dict) -> None:
        if set(mapping) != set(mapping.values()):
            raise ValueError("mapping is not a bijection on its domain")
        verts = sorted(mapping)
        object.__setattr__(self, "_key", tuple(map(mapping.__getitem__, verts)))
        object.__setattr__(self, "_pos", {v: i for i, v in enumerate(verts)})

    @classmethod
    def _from_keys(cls, keys, pos) -> list:
        """One permutation ``v -> key[pos[v]]`` per key, all sharing ``pos``,
        which indexes the sorted domain; each key must already be known to
        be a permutation of that domain."""
        new, set_key, set_pos = object.__new__, cls._key.__set__, cls._pos.__set__
        perms = []
        for key in keys:
            perm = new(cls)
            set_key(perm, key)
            set_pos(perm, pos)
            perms.append(perm)
        return perms

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @property
    def mapping(self) -> dict:
        """A new dict ``vertex -> image``, in sorted vertex order."""
        return dict(zip(self._pos, self._key))

    def __call__(self, v):
        return self._key[self._pos[v]]

    def apply(self, element):
        """Image of a vertex or of a face (any iterable of vertices)."""
        key, pos = self._key, self._pos
        if isinstance(element, int):
            return key[pos[element]]
        return frozenset(key[pos[v]] for v in element)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        moved = {v: w for v, w in zip(self._pos, self._key) if v != w}
        return f"Permutation({moved or 'id'})"


def stabilizer_chain(K: SimplicialComplex) -> list:
    """The stabilizer chain of Aut(K), built on first use and kept on ``K``.

    Levels are ``(b_d, T_d, S_d)`` as made by :mod:`shortlinks._bijections`:
    base points, transversal image tuples and the generators found at
    that level, on positions in ``K.vertices``.  Complexes above the
    vertex guard raise :class:`GuardExceeded` before any search.
    """
    if len(K.vertices) > AUTOMORPHISM_VERTEX_GUARD:
        raise GuardExceeded(
            f"automorphism search is limited to {AUTOMORPHISM_VERTEX_GUARD} "
            f"vertices, complex has {len(K.vertices)}")
    if K._chain is None:
        object.__setattr__(K, "_chain", _stabilizer_chain(K.facets))
    return K._chain


def automorphisms(K: SimplicialComplex) -> list:
    """All vertex permutations of ``K`` preserving its facet set."""
    verts = K.vertices
    pos = {v: i for i, v in enumerate(verts)}
    return Permutation._from_keys(
        sorted(all_automorphism_images(stabilizer_chain(K), verts)), pos)


def automorphism_count(K: SimplicialComplex) -> int:
    """Order of Aut(K) from the stabilizer chain behind :func:`automorphisms`.

    The order is the product of the transversal sizes; no group element
    beyond the transversals is built, so the cost is at most one
    first-solution search per base point and candidate image not already
    reached, whatever the group order, paid once per complex.
    """
    return math.prod(len(level) for _, level, _ in stabilizer_chain(K))


def are_isomorphic(K1: SimplicialComplex, K2: SimplicialComplex):
    """A vertex bijection mapping facets onto facets, or None.

    Cheap invariants (dimension, vertex/facet counts, the multiset of
    vertex signatures) rule out most non-isomorphic pairs, and the
    backtracking search decides the rest; the classifier is not
    consulted, so it can be checked against this.  A signature is a
    vertex's membership count with its (membership, co-member count)
    pairs to every vertex, on the facets or their complements.  For K(P)
    and K(P') with F facets each, the membership counts already differ
    when the part sizes do: a vertex in a part of size s lies in F·s/(s+1)
    facets.  A positive answer is always a bijection found by search.
    """
    if K1.dim != K2.dim:
        return None
    if len(K1.vertices) != len(K2.vertices) or K1.num_facets != K2.num_facets:
        return None
    return find_bijection(K1.facets, K2.facets)


def orbits(perms, domain) -> list:
    """Orbits of the group generated by ``perms`` on ``domain``.

    Domain elements are vertices (ints) or faces (iterables of vertices);
    the given permutations are treated as generators, so callers need not
    pass a whole group.  Orbits are returned as sets sorted by their
    smallest element.  A domain that the permutations map outside of
    raises ``ValueError``.
    """
    norm = [e if isinstance(e, int) else frozenset(e) for e in domain]
    perms = list(perms)
    if perms and _is_common_vertex_set(perms, norm):
        return _vertex_blocks(perms)
    members = set(norm)
    result = []
    try:
        closure = orbit_closure(sorted(members, key=_orbit_sort_key),
                                [p.apply for p in perms])
    except KeyError as exc:
        raise ValueError(f"vertex {exc} is outside a permutation's domain") from None
    for orbit in closure:
        outside = [y for y in orbit if y not in members]
        if outside:
            raise ValueError(f"domain is not closed under the permutations: "
                             f"reached {outside[0]}")
        result.append(set(orbit))
    return result


def _orbit_sort_key(x):
    return (0, x, ()) if isinstance(x, int) else (1, min(x), tuple(sorted(x)))


def _is_common_vertex_set(perms, norm) -> bool:
    """Is ``norm`` exactly the domain of every permutation, listed once each?"""
    pos = perms[0]._pos
    if len(norm) != len(pos) or not all(type(e) is int for e in norm):
        return False
    return set(norm) == pos.keys() and all(
        p._pos is pos or p._pos.keys() == pos.keys() for p in perms)


def _vertex_blocks(perms) -> list:
    """Orbits on the common vertex set, by merging the blocks of v and p(v).

    ``block[v]`` is the smallest vertex of v's block and ``labels`` lists
    the blocks of the vertices in order.  Once p(v) shares a block with v
    for every v, p maps each block into itself, so a permutation whose
    image labels equal ``labels`` is skipped, and once one block is left
    no further permutation can change it.
    """
    verts = list(perms[0]._pos)
    block = {v: v for v in verts}
    members = {v: [v] for v in verts}
    labels = verts[:]
    for p in perms:
        if list(map(block.__getitem__, p._key)) == labels:
            continue
        for v, w in zip(verts, p._key):
            a, b = block[v], block[w]
            if a != b:
                if a > b:
                    a, b = b, a
                for u in members[b]:
                    block[u] = a
                members[a] += members.pop(b)
        if len(members) == 1:
            break
        labels = list(map(block.__getitem__, verts))
    return [set(members[a]) for a in sorted(members)]


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
    on P_j plus one auxiliary point per part; the order of the group they
    generate is computed by Schreier–Sims from these transpositions alone.
    Must equal the product of (|P_i|+1)!.
    """
    points = sorted(p.ground_set)
    index = {v: k for k, v in enumerate(points)}
    size = len(points) + p.t
    gens = []
    for j, part in enumerate(p.parts):
        aux = len(points) + j
        for i in sorted(part):
            images = list(range(size))
            images[index[i]], images[aux] = aux, index[i]
            gens.append(tuple(images))
    return permutation_group_order(gens, size)
