"""Text formats for complexes, graphs, and quadrillages.

All three formats share the same shape: a header line naming the kind and
one size parameter, then one item per line; ``#`` starts a comment line
and blank lines are ignored.  Parsing and serialization round-trip
exactly.  This module only tokenizes (the header, integer rows, two ids
per edge line); each type's constructor is the one validator of the rest,
and :func:`_read` re-raises its ``ValueError`` as a :class:`FormatError`
with the same text.
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


def _edge_row(line: str) -> list:
    ids = _int_row(line)
    if len(ids) != 2:
        raise FormatError(f"expected 'u v', got {line!r}")
    return ids


def _read(text: str, keyword: str, build, row=_int_row):
    """Tokenize a file; ``build(n, rows)`` validates and constructs."""
    n, lines = _header(_content_lines(text), keyword)
    rows = [row(line) for line in lines]
    try:
        return build(n, rows)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def _write(keyword: str, n: int, rows) -> str:
    return "".join([f"{keyword} {n}\n",
                    *(" ".join(map(str, r)) + "\n" for r in rows)])


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
    return _read(text, "simplicial", SimplicialComplex)


def serialize_complex(K: SimplicialComplex) -> str:
    return _write("simplicial", K.dim, sorted(map(sorted, K.facets)))


def parse_graph(text: str) -> Graph:
    """Parse the 'graph <num_vertices>' format: one 'u v' edge per line, 1-based."""
    return _read(text, "graph", lambda n, rows: Graph(range(1, n + 1), rows),
                 row=_edge_row)


def serialize_graph(G: Graph) -> str:
    n = G.vertices[-1]
    if G.vertices != tuple(range(1, n + 1)):
        raise ValueError("graph format requires contiguous vertex ids 1..n")
    return _write("graph", n, G.edges)


def parse_quadrillage(text: str) -> Quadrillage:
    """Parse the 'quad <num_vertices>' format: one cyclic 4-tuple per line."""
    return _read(text, "quad", Quadrillage)


def serialize_quadrillage(Q: Quadrillage) -> str:
    return _write("quad", Q.num_vertices, Q.faces)
