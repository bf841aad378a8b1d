"""Two-dimensional cubical complexes (quadrillages) and their zones.

A quadrillage is a complex of quadrilateral faces given as cyclic
4-tuples; a zone is a maximal chain of edges in which consecutive edges
are opposite sides of a shared face.  On a sphere or disk with bipartite
skeleton, the skeleton embeds isometrically in a hypercube exactly when
every zone is simple (never crosses a face twice) and convex (its band of
faces is isometric in the skeleton); this module implements that
criterion together with the fixtures used to exercise it.
"""

from __future__ import annotations

import itertools
import warnings
from collections import defaultdict
from dataclasses import dataclass

from .metric import Graph


def _canonical_face(face) -> tuple:
    """Least rotation/reflection of a cyclic 4-tuple."""
    f = tuple(face)
    if len(f) != 4 or len(set(f)) != 4:
        raise ValueError(f"a quad face needs 4 distinct vertices, got {f}")
    variants = [tuple(f[(i + k) % 4] for k in range(4)) for i in range(4)]
    rev = tuple(reversed(f))
    variants += [tuple(rev[(i + k) % 4] for k in range(4)) for i in range(4)]
    return min(variants)


def _face_edges(face) -> list:
    return [frozenset((face[i], face[(i + 1) % 4])) for i in range(4)]


def _opposite_edge(face, edge) -> frozenset:
    edges = _face_edges(face)
    return edges[edges.index(edge) ^ 2]


class Quadrillage:
    """Quad faces as cyclic 4-tuples; every edge must lie in at most 2 faces.

    The skeleton, the zones and each zone's convexity verdict are cached on
    the quadrillage, so every caller shares one graph, its distance rows
    and one zone trace.
    """

    __slots__ = ("num_vertices", "faces", "edge_faces", "_skeleton", "_zones",
                 "_convex")

    def __init__(self, num_vertices: int, faces) -> None:
        canon = sorted(_canonical_face(f) for f in faces)
        if not canon:
            raise ValueError("a quadrillage needs at least one face")
        if len(set(canon)) != len(canon):
            raise ValueError("duplicate faces")
        for f in canon:
            for v in f:
                if not 1 <= v <= num_vertices:
                    raise ValueError(
                        f"vertex {v} outside 1..{num_vertices} in face {f}")
        edge_faces = defaultdict(list)
        for k, f in enumerate(canon):
            for e in _face_edges(f):
                edge_faces[e].append(k)
        for e, fs in edge_faces.items():
            if len(fs) > 2:
                raise ValueError(
                    f"edge {sorted(e)} lies in {len(fs)} faces (at most 2 allowed)")
        object.__setattr__(self, "num_vertices", num_vertices)
        object.__setattr__(self, "faces", tuple(canon))
        object.__setattr__(self, "edge_faces", dict(edge_faces))
        object.__setattr__(self, "_skeleton", None)
        object.__setattr__(self, "_zones", None)
        object.__setattr__(self, "_convex", {})

    def __setattr__(self, name, value):
        raise AttributeError("Quadrillage is immutable")

    @property
    def edges(self) -> tuple:
        return tuple(sorted(self.edge_faces, key=sorted))

    @property
    def num_edges(self) -> int:
        return len(self.edge_faces)

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    @property
    def is_closed(self) -> bool:
        return all(len(fs) == 2 for fs in self.edge_faces.values())

    def boundary_edges(self) -> tuple:
        return tuple(sorted((e for e, fs in self.edge_faces.items()
                             if len(fs) == 1), key=sorted))

    def euler_characteristic(self) -> int:
        return self.num_vertices - self.num_edges + self.num_faces

    def skeleton(self) -> Graph:
        if self._skeleton is None:
            object.__setattr__(self, "_skeleton", Graph(
                range(1, self.num_vertices + 1),
                map(tuple, self.edge_faces)))
        return self._skeleton

    def __eq__(self, other) -> bool:
        if not isinstance(other, Quadrillage):
            return NotImplemented
        return (self.num_vertices == other.num_vertices
                and self.faces == other.faces)

    def __hash__(self) -> int:
        return hash((self.num_vertices, self.faces))

    def __repr__(self) -> str:
        return (f"Quadrillage({self.num_vertices} vertices, "
                f"{self.num_edges} edges, {self.num_faces} faces)")


@dataclass(frozen=True)
class Zone:
    """Maximal chain of edges, consecutive ones opposite in a shared face.

    ``faces`` lists the face indices crossed between consecutive edges;
    closed zones are circuits (the chain returns to its start), open ones
    run from boundary edge to boundary edge.
    """

    edges: tuple
    faces: tuple
    closed: bool

    @property
    def length(self) -> int:
        return len(self.edges)


def zones(Q: Quadrillage) -> list:
    """Partition the edges of ``Q`` into zones.

    One walker traces every zone: from an edge into a face, across to the
    opposite edge and on into that edge's other face.  It stops at a
    boundary edge (an open zone) or when the starting (edge, face) pair
    comes back (a closed one).  Walks start from the boundary edges first,
    so each open zone is traced from one of its ends.  Every edge belongs
    to exactly one zone.  The zones are traced once per quadrillage and
    cached on it; each call returns a new list.
    """
    if Q._zones is not None:
        return list(Q._zones)
    used = set()
    out = []
    for e in Q.boundary_edges() + Q.edges:
        if e in used:
            continue
        edge, face = e, min(Q.edge_faces[e])
        start = (edge, face)
        edges, faces = [edge], []
        while True:
            faces.append(face)
            edge = _opposite_edge(Q.faces[face], edge)
            owners = Q.edge_faces[edge]
            if len(owners) == 1:
                edges.append(edge)
                break
            face = owners[0] if owners[1] == face else owners[1]
            if (edge, face) == start:
                break
            edges.append(edge)
        used.update(edges)
        out.append(Zone(tuple(edges), tuple(faces), closed=len(owners) == 2))
    out.sort(key=lambda z: (not z.closed, sorted(sorted(e) for e in z.edges)))
    object.__setattr__(Q, "_zones", tuple(out))
    return out


def zone_is_simple(Q: Quadrillage, zone: Zone) -> bool:
    """A zone is simple when it crosses no face twice."""
    return len(set(zone.faces)) == len(zone.faces)


def zone_band(Q: Quadrillage, zone: Zone) -> Graph:
    """Subgraph formed by all edges of all faces the zone crosses."""
    edges = {e for k in set(zone.faces) for e in _face_edges(Q.faces[k])}
    return Graph(itertools.chain.from_iterable(edges), map(tuple, edges))


def zone_is_convex(Q: Quadrillage, zone: Zone) -> bool:
    """Is the zone band isometric in the skeleton?

    Every pair of band vertices must be as close inside the band as in the
    skeleton.  The band is connected, so it lies in one component of the
    skeleton, and the skeleton's distances between band vertices are
    defined even when the skeleton is disconnected.  Only defined for
    simple zones.  The verdict is cached on ``Q``.
    """
    if not zone_is_simple(Q, zone):
        raise ValueError("convexity is only defined for simple zones")
    verdict = Q._convex.get(zone)
    if verdict is None:
        band = zone_band(Q, zone)
        skel = Q.skeleton()
        verdict = all(band.distance(u, v) == skel.distance(u, v)
                      for u, v in itertools.combinations(band.vertices, 2))
        Q._convex[zone] = verdict
    return verdict


def embeddable_by_zones(Q: Quadrillage) -> bool:
    """Zone criterion for the skeleton being an isometric hypercube subgraph.

    True exactly when all zones are simple and convex.  The criterion is
    stated for sphere or disk quadrillages with bipartite skeleton; inputs
    that fail those preconditions are flagged with a warning and the
    verdict is still computed.  It is a claim about the metric of the whole
    skeleton, so a disconnected skeleton raises ``ValueError``.
    """
    skel = Q.skeleton()
    first, index = skel._distance_rows()[0], skel._index
    chi = Q.euler_characteristic()
    expected = 2 if Q.is_closed else 1
    if chi != expected:
        warnings.warn(
            f"quadrillage is not a sphere or disk (Euler characteristic "
            f"{chi}, expected {expected}); the zone criterion may not apply",
            stacklevel=2)
    # an edge with both ends equally far from one vertex closes an odd cycle
    if any(first[index[u]] == first[index[v]] for u, v in skel.edges):
        warnings.warn("skeleton is not bipartite; the zone criterion may "
                      "not apply", stacklevel=2)
    for zone in zones(Q):
        if not zone_is_simple(Q, zone):
            return False
        if not zone_is_convex(Q, zone):
            return False
    return True


def quadrillage_type(Q: Quadrillage) -> set:
    """Set of per-vertex face counts (the 2-dimensional link sizes)."""
    if not Q.is_closed:
        raise ValueError("type is only defined for closed quadrillages")
    count = defaultdict(int)
    for f in Q.faces:
        for v in f:
            count[v] += 1
    return set(count.values())


def cube() -> Quadrillage:
    """Boundary of the 3-cube: 8 vertices, 12 edges, 6 faces."""
    return Quadrillage(8, [
        (1, 2, 3, 4), (5, 6, 7, 8),
        (1, 2, 6, 5), (2, 3, 7, 6), (3, 4, 8, 7), (4, 1, 5, 8),
    ])


def grid(p: int, q: int) -> Quadrillage:
    """Bounded p-by-q quadrillage of a rectangle (has a boundary)."""
    if p < 1 or q < 1:
        raise ValueError("grid needs p, q >= 1")

    def vid(i, j):
        return i * (q + 1) + j + 1

    faces = [(vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1))
             for i in range(p) for j in range(q)]
    return Quadrillage((p + 1) * (q + 1), faces)


def torus(p: int, q: int) -> Quadrillage:
    """Closed p-by-q quadrillage of the torus (product of two cycles)."""
    if p < 3 or q < 3:
        raise ValueError("torus needs p, q >= 3")

    def vid(i, j):
        return (i % p) * q + (j % q) + 1

    faces = [(vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1))
             for i in range(p) for j in range(q)]
    return Quadrillage(p * q, faces)


def dual_cuboctahedron() -> Quadrillage:
    """Dual of the cuboctahedron (the rhombic dodecahedron as a quadrillage).

    The cuboctahedron's faces are the dual vertices: square (axis, s),
    holding the vertices with that coordinate equal to s, is 1 + 2*axis
    (+1 when s = -1), and the triangle of sign vector t is 7 plus the
    index of t in ``product((1, -1), repeat=3)``.  Each cuboctahedron
    vertex, t with coordinate k set to 0, gives one quad: its faces
    alternate square, triangle, square, triangle around it.
    """
    def square(axis, s):
        return 1 + 2 * axis + (s < 0)

    def triangle(t):
        return 7 + sum(4 >> axis for axis in range(3) if t[axis] < 0)

    faces = []
    for t in itertools.product((1, -1), repeat=3):
        for k in range(3):
            if t[k] > 0:
                i, j = (axis for axis in range(3) if axis != k)
                flipped = t[:k] + (-1,) + t[k + 1:]
                faces.append((square(i, t[i]), triangle(t),
                              square(j, t[j]), triangle(flipped)))
    return Quadrillage(14, faces)
