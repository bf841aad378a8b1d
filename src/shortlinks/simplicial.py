"""Pure simplicial n-complexes stored by their facets.

A complex is determined by its set of facets (maximal faces, all of
cardinality n+1); lower-dimensional faces are enumerated on demand.  The
central notion is the link of an (n-2)-face: the cycles formed by the
edges that complete it to a facet.  Every link is read from one index of
the (n-2)-faces.  A complex whose links all have length 3 or 4 induces a
partition of each facet's vertices (its characteristic partition); the
complexes themselves are classified in :mod:`shortlinks.partitions`.
"""

from __future__ import annotations

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
    ``dim + 1``; the vertex set is their union.  Instances are immutable
    and hashable.  Cached on first use: the ridge incidences
    (:meth:`ridge_facets`), the (n-2)-face index (:meth:`face_facets`),
    and the link of each (n-2)-face asked for through :func:`link_of_face`.
    Both incidence maps hold the facet frozensets themselves, not copies.
    """

    __slots__ = ("dim", "facets", "_ridge_facets", "_face_facets", "_links")

    def __init__(self, dim: int, facets) -> None:
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        fset = frozenset(make_face(f) for f in facets)
        if not fset:
            raise ValueError("a complex needs at least one facet")
        for f in fset:
            if len(f) != dim + 1:
                raise ValueError(
                    f"facet {sorted(f)} has {len(f)} vertices, expected {dim + 1}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "facets", fset)
        object.__setattr__(self, "_ridge_facets", None)
        object.__setattr__(self, "_face_facets", None)
        object.__setattr__(self, "_links", {})

    def __setattr__(self, name, value):
        raise AttributeError("SimplicialComplex is immutable")

    @classmethod
    def from_facets(cls, facets) -> "SimplicialComplex":
        """Infer the dimension from the first facet."""
        facets = [make_face(f) for f in facets]
        if not facets:
            raise ValueError("a complex needs at least one facet")
        return cls(len(facets[0]) - 1, facets)

    @property
    def vertices(self) -> tuple:
        return tuple(sorted(frozenset.union(*self.facets)))

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

    def ridge_facets(self) -> dict:
        """Map each (n-1)-face to the sorted list of facets containing it."""
        if self._ridge_facets is None:
            inc = defaultdict(list)
            for f in self.facets:
                for v in f:
                    inc[f - {v}].append(f)
            object.__setattr__(self, "_ridge_facets", dict(inc))
        return self._ridge_facets

    def face_facets(self) -> dict:
        """Map each (n-2)-face to the list of facets containing it.

        For ``dim == 1`` the only (n-2)-face is the empty face, which every
        facet contains.
        """
        if self._face_facets is None:
            inc = defaultdict(list)
            for f in self.facets:
                for pair in itertools.combinations(f, 2):
                    inc[f.difference(pair)].append(f)
            object.__setattr__(self, "_face_facets", dict(inc))
        return self._face_facets


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
    boundary = []
    for ridge, facs in K.ridge_facets().items():
        if len(facs) > 2:
            return ClosednessReport("bad", bad_face=ridge, bad_count=len(facs))
        if len(facs) == 1:
            boundary.append(ridge)
    if boundary:
        boundary.sort(key=sorted)
        return ClosednessReport("boundary", boundary=tuple(boundary))
    return ClosednessReport("closed")


def _cycles_from_edges(edges) -> list:
    """Decompose a set of edges into cycles; raise if not 2-regular."""
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


def link_of_face(K: SimplicialComplex, F) -> LinkReport:
    """Link of the (n-2)-face ``F``: cycles of the completing edges.

    Each facet containing ``F`` contributes the unique edge that extends
    ``F`` to it.  For ``dim == 1`` the only (n-2)-face is the empty face,
    whose link is the whole complex (a union of cycles).  The facets come
    from :meth:`SimplicialComplex.face_facets` and the report is cached on
    ``K``; a link that is not a union of cycles raises on every request.
    """
    face = frozenset(F)
    report = K._links.get(face)
    if report is not None:
        return report
    want = K.dim - 1
    if len(face) != want:
        raise ValueError(
            f"expected an (n-2)-face with {want} vertices, got {sorted(face)}")
    facets = K.face_facets().get(face)
    if facets is None:
        raise ValueError(f"{sorted(face)} is not a face of the complex")
    cycles = _cycles_from_edges([tuple(sorted(f - face)) for f in facets])
    sizes = tuple(sorted(len(c) for c in cycles))
    report = LinkReport(face=face, cycles=tuple(cycles), sizes=sizes)
    K._links[face] = report
    return report


def complex_type(K: SimplicialComplex) -> set:
    """The set of all link cycle lengths over the (n-2)-faces of ``K``."""
    sizes = set()
    for face in K.face_facets():
        sizes.update(link_of_face(K, face).sizes)
    return sizes


def skeleton(K: SimplicialComplex) -> Graph:
    """The graph of vertices and 1-faces of ``K``."""
    edges = {tuple(sorted(e)) for f in K.facets
             for e in itertools.combinations(f, 2)}
    return Graph(K.vertices, edges)


def euler_characteristic(K: SimplicialComplex) -> int:
    """Alternating sum of face counts over all dimensions.

    Faces are vertex bitmasks; the (k-1)-faces are the k-faces with one
    set bit cleared, so each dimension is built from the one above it.
    """
    bit = {v: 1 << i for i, v in enumerate(K.vertices)}
    level = {sum(bit[v] for v in f) for f in K.facets}
    chi = 0
    for k in range(K.dim, -1, -1):
        chi += (-1) ** k * len(level)
        lower = set()
        for mask in level:
            rest = mask
            while rest:
                low = rest & -rest
                lower.add(mask ^ low)
                rest ^= low
        level = lower
    return chi


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
        parts = []
        for chunk in text.split("|"):
            items = [s.strip() for s in chunk.split(",")]
            if any(not s.isdigit() or int(s) < 1 for s in items):
                raise ValueError(f"bad partition spec {text!r}")
            parts.append([int(s) for s in items])
        return cls(parts)

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


def characteristic_partition(K: SimplicialComplex, delta):
    """Partition of a facet's vertices induced by the length-3 links.

    Vertices i, j of the facet fall in the same part exactly when the link
    of the facet minus {i, j} is a triangle.  Defined for closed complexes
    of type within {3, 4}; the induced graph must be a disjoint union of
    cliques, otherwise the input is rejected as corrupt.  It is one exactly
    when adjacent vertices share their closed neighbourhoods, and the parts
    are then those neighbourhoods.
    """
    delta = frozenset(delta)
    if delta not in K.facets:
        raise ValueError(f"{sorted(delta)} is not a facet of the complex")
    verts = sorted(delta)
    if K.dim == 1:
        # the empty face is the unique (n-2)-face; use the cycle through delta
        report = link_of_face(K, ())
        for cyc in report.cycles:
            if delta <= set(cyc):
                break
        else:  # pragma: no cover - delta is an edge of some cycle by closedness
            raise ValueError("facet not on any link cycle")
        if len(cyc) not in (3, 4):
            raise ValueError(f"complex type is not within {{3, 4}}: "
                             f"link of the empty face has length {len(cyc)}")
        parts = [tuple(verts)] if len(cyc) == 3 else [(verts[0],), (verts[1],)]
        return Partition(parts)

    closed = {v: {v} for v in verts}  # closed neighbourhoods in the 3-link graph
    for i, j in itertools.combinations(verts, 2):
        report = link_of_face(K, delta - {i, j})
        if len(report.cycles) != 1 or report.sizes[0] not in (3, 4):
            raise ValueError(
                f"complex type is not within {{3, 4}}: link of "
                f"{sorted(delta - {i, j})} has sizes {report.sizes}")
        if report.sizes[0] == 3:
            closed[i].add(j)
            closed[j].add(i)
    if any(closed[w] != nb for nb in closed.values() for w in nb):
        raise ValueError(
            "the 3-link graph on the facet is not a union of cliques "
            "(corrupt input)")
    return Partition(set(map(frozenset, closed.values())))
