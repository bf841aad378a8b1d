"""Pure simplicial n-complexes stored by their facets.

A complex is determined by its set of facets (maximal faces, all of
cardinality n+1); lower-dimensional faces are enumerated on demand.  The
central notion is the link of an (n-2)-face: the cycles formed by the
edges that complete it to a facet.  Faces are vertex bitmasks; every link
is read from one mask-keyed index of the (n-2)-faces.  Closedness, type
and classification need only cycle lengths: a cycle has at least 3 edges,
so a 2-regular link of fewer than 6 edges is one cycle, and only longer
links are walked.  A complex whose links all have length 3 or 4 induces
a partition of each facet's vertices (its characteristic partition): the
cliques of its triangle-linked vertex pairs, by :func:`_clique_parts`.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass

from .metric import Graph

Face = frozenset  # a face is a frozenset of positive integer vertex ids


def make_face(vertices) -> Face:
    """Build a face from an iterable of distinct positive vertex ids."""
    vs = list(vertices)
    face = frozenset(vs)
    if not face:
        raise ValueError("a face must be nonempty")
    if len(face) != len(vs):
        raise ValueError(f"duplicate vertices in face {sorted(vs)}")
    if any(not isinstance(v, int) or v < 1 for v in face):
        raise ValueError(f"vertex ids must be positive integers: {sorted(vs)}")
    return face


class SimplicialComplex:
    """A pure simplicial complex of dimension ``dim`` given by its facets.

    Facets are deduplicated frozensets of vertex ids, each of cardinality
    ``dim + 1``; the vertex set is their union.  They are validated all at
    once, and one by one only to name the first bad facet in input order.
    Instances are immutable and hashable.
    Vertex i of the sorted ``vertices`` is bit ``1 << i`` of a face mask.
    Cached on first use, by mask: each ridge's facet count
    (:meth:`_ridge_table`, its own pass, so rejecting a complex for its
    boundary builds nothing more), the edges completing each (n-2)-face
    (:meth:`_face_table`, the only face index) and each link's cycle
    lengths.  Cycles are decoded only for :func:`link_of_face`, for links
    of 6 or more edges and for links of several cycles.  On at most 16
    vertices :func:`euler_characteristic` reads neither table; its walk
    starts from them only above 16 vertices.  The stabilizer
    chain of Aut(K) is cached in ``_chain``, which
    :mod:`shortlinks.symmetry` fills on first use.
    """

    __slots__ = ("dim", "facets", "vertices", "_bit", "_ridges", "_faces",
                 "_sizes", "_links", "_chain")

    def __init__(self, dim: int, facets) -> None:
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        rows = list(map(tuple, facets))
        sets = list(map(frozenset, rows))
        union = frozenset().union(*sets)
        if ({*map(len, rows), *map(len, sets)} != {dim + 1}
                or not all(isinstance(v, int) and v >= 1 for v in union)):
            for row in rows:  # name the first bad facet in input order
                if len(make_face(row)) != dim + 1:
                    raise ValueError(f"facet {sorted(row)} has {len(row)} "
                                     f"vertices, expected {dim + 1}")
            raise ValueError("a complex needs at least one facet")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "facets", frozenset(sets))
        object.__setattr__(self, "vertices", tuple(sorted(union)))
        object.__setattr__(self, "_bit",
                           {v: 1 << i for i, v in enumerate(self.vertices)})
        object.__setattr__(self, "_ridges", None)
        object.__setattr__(self, "_faces", None)
        object.__setattr__(self, "_sizes", {})
        object.__setattr__(self, "_links", {})
        object.__setattr__(self, "_chain", None)

    def __setattr__(self, name, value):
        raise AttributeError("SimplicialComplex is immutable")

    @classmethod
    def from_facets(cls, facets) -> "SimplicialComplex":
        """Infer the dimension from the first facet; the constructor checks
        every facet, and rejects an empty family."""
        rows = list(map(tuple, facets))
        return cls(len(make_face(rows[0])) - 1 if rows else 1, rows)

    @property
    def num_facets(self) -> int:
        return len(self.facets)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.dim == other.dim and self.facets == other.facets

    def __hash__(self) -> int:
        return hash((self.dim, self.facets))

    def __repr__(self) -> str:
        return (f"SimplicialComplex(dim={self.dim}, "
                f"facets={self.num_facets}, vertices={len(self.vertices)})")

    def _ridge_table(self) -> dict:
        """Ridge mask -> number of facets containing the ridge."""
        if self._ridges is None:
            bit = self._bit
            object.__setattr__(self, "_ridges", Counter(
                mask ^ bit[v] for f in self.facets
                for mask in (sum(bit[v] for v in f),) for v in f))
        return self._ridges

    def _face_table(self) -> dict:
        """(n-2)-face mask -> the edges completing it to a facet, as masks,
        in first-seen order of a scan of the facets and of their vertices.
        For ``dim == 1`` the only (n-2)-face is the empty face, mask 0."""
        if self._faces is None:
            bit, faces = self._bit, defaultdict(list)
            for f in self.facets:
                bits = [bit[v] for v in f]
                mask = sum(bits)
                for a, b in itertools.combinations(bits, 2):
                    faces[mask ^ a ^ b].append(a | b)
            object.__setattr__(self, "_faces", dict(faces))
        return self._faces

    def _face(self, mask: int) -> Face:
        """The vertices whose bits are set in ``mask``."""
        return frozenset(v for i, v in enumerate(self.vertices) if mask >> i & 1)


@dataclass(frozen=True)
class ClosednessReport:
    """Verdict of the pseudomanifold check.

    ``status`` is ``"closed"`` (every ridge in exactly two facets),
    ``"boundary"`` (some ridges in exactly one, none in more), or
    ``"bad"`` (some ridge in three or more facets).
    """

    status: str
    boundary: tuple = ()
    bad_face: Face | None = None
    bad_count: int = 0

    @property
    def is_closed(self) -> bool:
        return self.status == "closed"


@dataclass(frozen=True)
class LinkReport:
    """The link of an (n-2)-face: a family of vertex cycles.

    ``cycles`` are cyclic vertex sequences (each of length >= 3); ``sizes``
    is the sorted multiset of their lengths.  The total number of edges on
    the cycles equals the number of facets containing the face.
    """

    face: Face
    cycles: tuple
    sizes: tuple


def faces_of_dim(K: SimplicialComplex, k: int) -> set:
    """All k-dimensional faces of ``K`` (the (k+1)-subsets of its facets)."""
    if not 0 <= k <= K.dim:
        raise ValueError(f"face dimension {k} out of range [0, {K.dim}]")
    return {frozenset(comb) for f in K.facets
            for comb in itertools.combinations(f, k + 1)}


def is_closed_pseudomanifold(K: SimplicialComplex) -> ClosednessReport:
    """Check that every (n-1)-face lies in exactly two facets."""
    ridges = K._ridge_table()
    for ridge, count in ridges.items():
        if count > 2:
            return ClosednessReport("bad", bad_face=K._face(ridge), bad_count=count)
    boundary = sorted((K._face(r) for r, c in ridges.items() if c == 1), key=sorted)
    if boundary:
        return ClosednessReport("boundary", boundary=tuple(boundary))
    return ClosednessReport("closed")


def _link_sizes(K: SimplicialComplex, mask: int) -> tuple:
    """Sorted cycle lengths of the link of the (n-2)-face ``mask``, cached.

    ``once`` and ``twice`` hold the vertices on at least one and two edges;
    each must be on exactly two, or the request raises, every time.  A
    cycle has at least 3 edges, so a link of fewer than 6 is one cycle.
    """
    sizes = K._sizes.get(mask)
    if sizes is None:
        edges = K._face_table()[mask]
        once = twice = over = 0
        for e in edges:
            over |= twice & e
            twice |= once & e
            once |= e
        if over or once != twice:
            degree = Counter(K.vertices[b.bit_length() - 1]
                             for e in edges for b in (e & -e, e & (e - 1)))
            v, d = next((v, d) for v, d in degree.items() if d != 2)
            raise ValueError(
                f"link edges do not decompose into cycles: vertex {v} has "
                f"degree {d} (complex is not closed)")
        sizes = ((len(edges),) if len(edges) < 6 else
                 tuple(sorted(map(len, _link_cycles(edges)))))
        K._sizes[mask] = sizes
    return sizes


def _link_cycles(edges) -> list:
    """The cycles of a 2-regular list of edge masks, as lists of vertex
    bits: each starts at its lowest bit, then goes to the lower neighbour."""
    adj = defaultdict(int)
    for e in edges:
        low = e & -e
        adj[low] |= e ^ low
        adj[e ^ low] |= low
    cycles, rest = [], sum(adj)
    while rest:
        first = prev = rest & -rest
        cyc, cur = [first], adj[first] & -adj[first]
        while cur != first:
            cyc.append(cur)
            prev, cur = cur, adj[cur] ^ prev
        rest ^= sum(cyc)
        cycles.append(cyc)
    return cycles


def link_of_face(K: SimplicialComplex, F) -> LinkReport:
    """Link of the (n-2)-face ``F``: cycles of the completing edges.

    Each facet containing ``F`` contributes the unique edge that extends
    ``F`` to it.  For ``dim == 1`` the only (n-2)-face is the empty face,
    whose link is the whole complex (a union of cycles).  The report is
    cached on ``K``; a link that is not a union of cycles raises on every
    request.  Each cycle starts at its smallest vertex, then its smaller
    neighbour; cycles are sorted by length, then by vertex sequence.
    """
    face = frozenset(F)
    report = K._links.get(face)
    if report is not None:
        return report
    want = K.dim - 1
    if len(face) != want:
        raise ValueError(
            f"expected an (n-2)-face with {want} vertices, got {sorted(face)}")
    mask = sum(K._bit[v] for v in face) if face.issubset(K._bit) else -1
    if mask not in K._face_table():
        raise ValueError(f"{sorted(face)} is not a face of the complex")
    sizes = _link_sizes(K, mask)
    cycles = sorted((tuple(K.vertices[b.bit_length() - 1] for b in cyc)
                     for cyc in _link_cycles(K._faces[mask])),
                    key=lambda c: (len(c), c))
    report = LinkReport(face=face, cycles=tuple(cycles), sizes=sizes)
    K._links[face] = report
    return report


def complex_type(K: SimplicialComplex) -> set:
    """The set of all link cycle lengths over the (n-2)-faces of ``K``;
    once every link is cached, only the cached lengths are read."""
    faces = K._face_table()
    if len(K._sizes) < len(faces):
        for mask in faces:
            _link_sizes(K, mask)
    return set(itertools.chain.from_iterable(K._sizes.values()))


def long_link_faces(K: SimplicialComplex, least: int) -> list:
    """The (n-2)-faces whose link is one cycle of at least ``least`` edges,
    sorted by their sorted vertices; no cycle is decoded."""
    return sorted((K._face(mask) for mask in K._face_table()
                   if len(sizes := _link_sizes(K, mask)) == 1 and sizes[0] >= least),
                  key=sorted)


def skeleton(K: SimplicialComplex) -> Graph:
    """The graph of vertices and 1-faces of ``K``."""
    edges = {tuple(sorted(e)) for f in K.facets
             for e in itertools.combinations(f, 2)}
    return Graph(K.vertices, edges)


_BITSET_VERTICES = 16  # a bitset with one bit per vertex mask: 8 KB at 16


@functools.cache
def _subset_patterns(n: int) -> tuple:
    """Bitsets over the vertex masks 0..2**n-1: for each vertex bit i the
    masks that contain it, and the masks of odd popcount (Thue-Morse)."""
    contains, odd = [], 0
    for i in range(n):
        h = 1 << i
        p, w = ((1 << h) - 1) << h, 2 * h  # the masks below 2h that hold bit i
        while w < 1 << n:
            p, w = p | p << w, 2 * w
        contains.append(p)
        odd ^= p  # a mask's parity is the XOR of its bits
    return tuple(contains), odd


def euler_characteristic(K: SimplicialComplex) -> int:
    """Alternating sum of face counts over all dimensions.

    On at most 16 vertices the faces are the down-closure of the facets
    on a bitset indexed by vertex masks: one AND, shift and OR per vertex
    moves every face holding that vertex to the face without it (the OR
    zeta transform over the subset lattice), and the odd-popcount faces
    count positively.  The bitset costs 2**n bits however few faces there
    are, so above 16 vertices a walk whose cost follows the faces builds
    each dimension from the one above it: the (k-1)-faces are the k-faces
    with one set bit cleared, from the face table's (n-2)-faces down to
    the edges.
    """
    if K.dim == 1:
        return len(K.vertices) - K.num_facets
    n = len(K.vertices)
    if n <= _BITSET_VERTICES:
        contains, odd = _subset_patterns(n)
        bit, buf = K._bit, bytearray(1 << (n - 3))  # n >= 3 as dim >= 2
        for f in K.facets:
            mask = sum(map(bit.__getitem__, f))
            buf[mask >> 3] |= 1 << (mask & 7)
        faces = int.from_bytes(buf, "little")
        for i, p in enumerate(contains):
            faces |= (faces & p) >> (1 << i)
        return 2 * (faces & odd).bit_count() - faces.bit_count() + 1  # mask 0 is no face
    k, level = K.dim - 2, K._face_table().keys()
    chi = (-1) ** K.dim * (K.num_facets - len(K._ridge_table()))
    while k:
        chi += (-1) ** k * len(level)
        lower = set()
        for mask in level:
            rest = mask
            while rest:
                low = rest & -rest
                lower.add(mask ^ low)
                rest ^= low
        level = lower
        k -= 1
    return chi + n


class Partition:
    """An ordered partition of a finite set of positive integers.

    Parts are stored in canonical order (by size, then smallest element).
    Equality and hashing are on the canonical form.
    """

    __slots__ = ("parts",)

    def __init__(self, parts) -> None:
        norm = []
        seen = set()
        for p in parts:
            fp = frozenset(p)
            if not fp:
                raise ValueError("empty part in partition")
            if any(not isinstance(v, int) or v < 1 for v in fp):
                raise ValueError(f"partition elements must be positive integers: {sorted(fp)}")
            if seen & fp:
                raise ValueError(f"parts are not disjoint: {sorted(seen & fp)} repeated")
            seen |= fp
            norm.append(fp)
        if not norm:
            raise ValueError("partition needs at least one part")
        norm.sort(key=lambda p: (len(p), min(p)))
        object.__setattr__(self, "parts", tuple(norm))

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @property
    def ground_set(self) -> frozenset:
        return frozenset().union(*self.parts)

    @property
    def m(self) -> int:
        """Number of elements partitioned (n+1 for a dimension-n complex)."""
        return len(self.ground_set)

    @property
    def t(self) -> int:
        """Number of parts."""
        return len(self.parts)

    @property
    def sizes(self) -> tuple:
        """Sorted part sizes."""
        return tuple(len(p) for p in self.parts)

    @property
    def h(self) -> int:
        """Number of singleton parts."""
        return sum(1 for p in self.parts if len(p) == 1)

    def size_counts(self) -> Counter:
        """m_u: how many parts have size u."""
        return Counter(len(p) for p in self.parts)

    def covers_range(self) -> bool:
        """True when the ground set is exactly {1..m}."""
        return self.ground_set == frozenset(range(1, self.m + 1))

    @classmethod
    def from_spec(cls, text: str) -> "Partition":
        """Parse the CLI syntax, e.g. ``"1,2|3,4,5"``."""
        parts = [[s.strip() for s in chunk.split(",")] for chunk in text.split("|")]
        if not all(s.isdecimal() for part in parts for s in part):
            raise ValueError(f"bad partition spec {text!r}")
        return cls([[int(s) for s in part] for part in parts])

    def to_spec(self) -> str:
        return "|".join(",".join(str(v) for v in sorted(p)) for p in self.parts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition({self.to_spec()!r})"


def _clique_parts(mask: int, pairs) -> set:
    """The parts of the facet ``mask`` as vertex masks, given its
    triangle-linked vertex pairs as 2-bit masks: the cliques of the pairs,
    which must have equal closed neighbourhoods at both ends of each pair
    (or the input is corrupt), and each vertex on no pair alone."""
    closed = {}  # vertex bit -> closed neighbourhood
    for e in pairs:
        for b in (e & -e, e & (e - 1)):
            closed[b] = closed.get(b, b) | e
    if any(closed[e & -e] != closed[e & (e - 1)] for e in pairs):
        raise ValueError(
            "the 3-link graph on the facet is not a union of cliques "
            "(corrupt input)")
    parts = set(closed.values())
    rest = mask ^ sum(parts)
    while rest:
        parts.add(rest & -rest)
        rest &= rest - 1
    return parts


def characteristic_partition(K: SimplicialComplex, delta):
    """Partition of a facet's vertices induced by the length-3 links.

    Vertices i, j of the facet fall in the same part exactly when the link
    of the facet minus {i, j} is a triangle (for ``dim == 1``, when the
    facet's cycle is).  Defined for closed complexes of type within
    {3, 4}; the induced graph must be a disjoint union of cliques
    (:func:`_clique_parts`), otherwise the input is rejected as corrupt.
    """
    delta = frozenset(delta)
    if delta not in K.facets:
        raise ValueError(f"{sorted(delta)} is not a facet of the complex")
    verts = sorted(delta)
    bit = K._bit
    mask = sum(bit[v] for v in verts)
    pairs = []
    if K.dim == 1:
        # the empty face is the only (n-2)-face: check its link, take delta's cycle
        _link_sizes(K, 0)
        size = next(len(c) for c in _link_cycles(K._faces[0]) if sum(c) & mask == mask)
        if size not in (3, 4):
            raise ValueError(f"complex type is not within {{3, 4}}: "
                             f"link of the empty face has length {size}")
        if size == 3:
            pairs.append(mask)
    else:
        for i, j in itertools.combinations(verts, 2):
            e = bit[i] | bit[j]
            sizes = _link_sizes(K, mask ^ e)
            if len(sizes) != 1 or sizes[0] not in (3, 4):
                raise ValueError(
                    f"complex type is not within {{3, 4}}: link of "
                    f"{sorted(delta - {i, j})} has sizes {sizes}")
            if sizes[0] == 3:
                pairs.append(e)
    return Partition(map(K._face, _clique_parts(mask, pairs)))
