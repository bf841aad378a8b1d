"""Text formats for complexes, graphs, and quadrillages.

All three formats share the same shape: a header line naming the kind and
one size parameter, then one item per line; ``#`` starts a comment line
and blank lines are ignored.  Parsing and serialization round-trip
exactly.
"""

from __future__ import annotations

from .errors import FormatError
from .metric import Graph
from .quadrillage import Quadrillage
from .simplicial import SimplicialComplex


def _content_lines(text: str) -> list:
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            lines.append(line)
    return lines


def _header(lines, keyword: str):
    if not lines:
        raise FormatError("empty input")
    tokens = lines[0].split()
    if len(tokens) != 2 or tokens[0] != keyword:
        raise FormatError(f"expected header '{keyword} <n>', got {lines[0]!r}")
    try:
        n = int(tokens[1])
    except ValueError:
        raise FormatError(f"bad header count {tokens[1]!r}") from None
    return n, lines[1:]


def _int_row(line: str) -> list:
    try:
        return [int(tok) for tok in line.split()]
    except ValueError:
        raise FormatError(f"expected integers, got {line!r}") from None


def detect_format(text: str) -> str:
    """Keyword of the first content line: simplicial, graph, or quad."""
    lines = _content_lines(text)
    if not lines:
        raise FormatError("empty input")
    keyword = lines[0].split()[0]
    if keyword not in ("simplicial", "graph", "quad"):
        raise FormatError(f"unknown format keyword {keyword!r}")
    return keyword


def parse_complex(text: str) -> SimplicialComplex:
    """Parse the 'simplicial <n>' format: one facet of n+1 vertex ids per line."""
    dim, rows = _header(_content_lines(text), "simplicial")
    if dim < 1:
        raise FormatError(f"dimension must be >= 1, got {dim}")
    facets = []
    for line in rows:
        ids = _int_row(line)
        if len(ids) != dim + 1:
            raise FormatError(
                f"facet {line!r} has {len(ids)} vertices, expected {dim + 1}")
        facets.append(ids)
    if not facets:
        raise FormatError("no facets")
    try:
        return SimplicialComplex(dim, facets)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def serialize_complex(K: SimplicialComplex) -> str:
    lines = [f"simplicial {K.dim}"]
    for facet in sorted(K.facets, key=sorted):
        lines.append(" ".join(str(v) for v in sorted(facet)))
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    """Parse the 'graph <num_vertices>' format: one 'u v' edge per line, 1-based."""
    n, rows = _header(_content_lines(text), "graph")
    if n < 1:
        raise FormatError(f"vertex count must be >= 1, got {n}")
    edges = []
    for line in rows:
        ids = _int_row(line)
        if len(ids) != 2:
            raise FormatError(f"expected 'u v', got {line!r}")
        u, v = ids
        if not (1 <= u <= n and 1 <= v <= n):
            raise FormatError(f"edge ({u}, {v}) outside 1..{n}")
        edges.append((u, v))
    try:
        return Graph(range(1, n + 1), edges)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def serialize_graph(G: Graph) -> str:
    n = G.vertices[-1]
    if G.vertices != tuple(range(1, n + 1)):
        raise ValueError("graph format requires contiguous vertex ids 1..n")
    lines = [f"graph {n}"]
    for u, v in G.edges:
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def parse_quadrillage(text: str) -> Quadrillage:
    """Parse the 'quad <num_vertices>' format: one cyclic 4-tuple per line."""
    n, rows = _header(_content_lines(text), "quad")
    if n < 1:
        raise FormatError(f"vertex count must be >= 1, got {n}")
    faces = []
    for line in rows:
        ids = _int_row(line)
        if len(ids) != 4:
            raise FormatError(f"expected 4 vertex ids, got {line!r}")
        faces.append(tuple(ids))
    if not faces:
        raise FormatError("no faces")
    try:
        return Quadrillage(n, faces)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def serialize_quadrillage(Q: Quadrillage) -> str:
    lines = [f"quad {Q.num_vertices}"]
    for face in Q.faces:
        lines.append(" ".join(str(v) for v in face))
    return "\n".join(lines) + "\n"

