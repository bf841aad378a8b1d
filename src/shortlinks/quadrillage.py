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
    for i in range(4):
        if frozenset((face[i], face[(i + 1) % 4])) == edge:
            return frozenset((face[(i + 2) % 4], face[(i + 3) % 4]))
    raise ValueError(f"{sorted(edge)} is not an edge of face {face}")


class Quadrillage:
    """Quad faces as cyclic 4-tuples; every edge must lie in at most 2 faces.

    The skeleton and each zone's convexity verdict are cached on the
    quadrillage, so every caller shares one graph and its distance rows.
    """

    __slots__ = ("num_vertices", "faces", "edge_faces", "_skeleton", "_convex")

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
                (tuple(sorted(e)) for e in self.edge_faces)))
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

    Boundary-to-boundary paths are traced first, then the remaining edges
    fall into circuits.  Every edge belongs to exactly one zone.
    """
    used = set()
    out = []
    for e in Q.boundary_edges():
        if e in used:
            continue
        face = Q.edge_faces[e][0]
        path_edges = [e]
        path_faces = []
        used.add(e)
        while True:
            nxt = _opposite_edge(Q.faces[face], path_edges[-1])
            path_faces.append(face)
            path_edges.append(nxt)
            used.add(nxt)
            owners = Q.edge_faces[nxt]
            if len(owners) == 1:
                break
            face = owners[0] if owners[1] == face else owners[1]
        out.append(Zone(tuple(path_edges), tuple(path_faces), closed=False))
    for e in Q.edges:
        if e in used:
            continue
        start = (e, min(Q.edge_faces[e]))
        cur_edge, cur_face = start
        circ_edges = []
        circ_faces = []
        while True:
            circ_edges.append(cur_edge)
            circ_faces.append(cur_face)
            used.add(cur_edge)
            nxt = _opposite_edge(Q.faces[cur_face], cur_edge)
            owners = Q.edge_faces[nxt]
            nxt_face = owners[0] if owners[1] == cur_face else owners[1]
            cur_edge, cur_face = nxt, nxt_face
            if (cur_edge, cur_face) == start:
                break
        out.append(Zone(tuple(circ_edges), tuple(circ_faces), closed=True))
    out.sort(key=lambda z: (not z.closed, sorted(sorted(e) for e in z.edges)))
    return out


def zone_is_simple(Q: Quadrillage, zone: Zone) -> bool:
    """A zone is simple when it crosses no face twice."""
    return len(set(zone.faces)) == len(zone.faces)


def zone_band(Q: Quadrillage, zone: Zone) -> Graph:
    """Subgraph formed by all edges of all faces the zone crosses."""
    edges = set()
    for k in set(zone.faces):
        edges.update(_face_edges(Q.faces[k]))
    verts = sorted(set(itertools.chain.from_iterable(edges)))
    return Graph(verts, (tuple(sorted(e)) for e in edges))


def zone_is_convex(Q: Quadrillage, zone: Zone) -> bool:
    """Is the zone band isometric in the skeleton?

    Every pair of band vertices must be as close inside the band as in the
    skeleton.  The band is connected, so distances are read in its own
    component of the skeleton, which is defined even when the skeleton is
    disconnected.  Only defined for simple zones.  The verdict is cached
    on ``Q``.
    """
    if not zone_is_simple(Q, zone):
        raise ValueError("convexity is only defined for simple zones")
    verdict = Q._convex.get(zone)
    if verdict is None:
        band = zone_band(Q, zone)
        part = Q.skeleton().component(band.vertices[0])
        verdict = all(band.distance(u, v) == part.distance(u, v)
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
    if not skel.is_connected():
        raise ValueError("graph is disconnected; the path-metric is undefined")
    chi = Q.euler_characteristic()
    expected = 2 if Q.is_closed else 1
    if chi != expected:
        warnings.warn(
            f"quadrillage is not a sphere or disk (Euler characteristic "
            f"{chi}, expected {expected}); the zone criterion may not apply",
            stacklevel=2)
    if not skel.is_bipartite():
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

    Built by dualizing the combinatorial cuboctahedron: one dual vertex
    per face (6 squares, 8 triangles), one quad per cuboctahedron vertex.
    """
    coords = sorted(set(itertools.permutations((1, 1, 0)))
                    | set(itertools.permutations((1, -1, 0)))
                    | set(itertools.permutations((-1, -1, 0))))
    vid = {c: k + 1 for k, c in enumerate(coords)}

    squares = []
    for axis in range(3):
        for s in (1, -1):
            ring = [c for c in coords if c[axis] == s]
            # cyclic order: walk by adjacency (squared distance 2)
            cyc = [ring.pop()]
            while ring:
                last = cyc[-1]
                nxt = next(c for c in ring
                           if sum((a - b) ** 2 for a, b in zip(c, last)) == 2)
                ring.remove(nxt)
                cyc.append(nxt)
            squares.append(tuple(vid[c] for c in cyc))
    triangles = []
    for sx, sy, sz in itertools.product((1, -1), repeat=3):
        tri = ((sx, sy, 0), (sx, 0, sz), (0, sy, sz))
        triangles.append(tuple(vid[c] for c in tri))
    dual = _dual_faces(len(coords), squares + triangles)
    return Quadrillage(len(squares) + len(triangles), dual)


def _dual_faces(num_vertices: int, faces) -> list:
    """Faces of the dual complex: incident primal faces walked around each vertex.

    The primal complex must be closed (each edge in exactly two faces) with
    disk vertex stars, e.g. any polyhedron boundary.
    """
    edge_faces = defaultdict(list)
    for k, f in enumerate(faces):
        m = len(f)
        for i in range(m):
            edge_faces[frozenset((f[i], f[(i + 1) % m]))].append(k)
    for e, fs in edge_faces.items():
        if len(fs) != 2:
            raise ValueError(f"edge {sorted(e)} lies in {len(fs)} faces; "
                             "dualization needs a closed complex")
    dual = []
    for v in range(1, num_vertices + 1):
        incident = [k for k, f in enumerate(faces) if v in f]
        walk = [min(incident)]
        f = faces[walk[0]]
        i = f.index(v)
        cross = frozenset((v, f[(i + 1) % len(f)]))
        while True:
            a, b = edge_faces[cross]
            nxt = b if a == walk[-1] else a
            if nxt == walk[0]:
                break
            walk.append(nxt)
            f = faces[nxt]
            # leave through the other edge of f at v
            i = f.index(v)
            before = frozenset((v, f[(i - 1) % len(f)]))
            after = frozenset((v, f[(i + 1) % len(f)]))
            cross = after if before == cross else before
        if len(walk) != len(incident):
            raise ValueError(f"vertex {v} star is not a disk")
        dual.append(tuple(k + 1 for k in walk))
    return dual
