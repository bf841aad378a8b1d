"""Graph path-metrics and hypercube embeddability.

A graph embeds in a hypercube up to scale lambda when its vertices map to
binary addresses whose Hamming distances are exactly lambda times the
path-metric; scale 1 is the partial-cube case.  Necessary conditions come
from the hypermetric (in particular 5-gonal) inequalities; the exact
decision is membership of the metric in the cut cone, solved here as an
exact rational feasibility problem.  The metric is invariant under Aut(G),
kept on the Graph as one stabilizer chain that both searches read: the LP
is posed on orbits of cuts and of vertex pairs (an Aut-invariant
decomposition exists whenever any does), and the k-gonal search visits
its vectors up to Aut(G).  What they find is expanded to whole orbits and
audited without using the group.  K_m - hK_2, which every K(P) skeleton
is, needs neither: :func:`hadamard_embedding` gives it addresses from the
rows of a Sylvester-Hadamard matrix and their complements.

Every certificate has one audit: its addresses, packed as ints with the
first coordinate in the top bit, must differ in scale * distance bits.  A
cut decomposition is audited as the addresses that repeat each cut
scale * weight times; their Hamming distances are scale times its
separations.  Public results give addresses as 0/1 tuples.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from operator import add, itemgetter

from ._bijections import _stabilizer_chain, automorphism_generators, orbit_closure
from .errors import GuardExceeded
from .exactlp import solve_nonnegative

CUT_CONE_VERTEX_GUARD = 13
EMBED_VERTEX_GUARD = 8
EMBED_DIMENSION_GUARD = 12
_DISCONNECTED = "graph is disconnected; the path-metric is undefined"


class Graph:
    """Simple undirected graph whose hop distances are BFS rows, each built
    the first time a question needs it, so connectivity reads one row and a
    disconnected graph builds only the rows its questions touch.  Only a
    distance across two components, or the metric of such a graph, raises.
    """

    __slots__ = ("vertices", "edges", "_index", "_adj", "_rows", "_chain")

    def __init__(self, vertices, edges) -> None:
        verts = tuple(sorted(set(vertices)))
        if not verts:
            raise ValueError("graph needs at least one vertex")
        vset = set(verts)
        eset = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if u not in vset or v not in vset:
                raise ValueError(f"edge ({u}, {v}) leaves the vertex set")
            eset.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", tuple(sorted(eset)))
        object.__setattr__(self, "_index", {v: i for i, v in enumerate(verts)})
        adj = {v: set() for v in verts}
        for u, v in eset:
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(self, "_adj", {v: frozenset(nb) for v, nb in adj.items()})
        object.__setattr__(self, "_rows", [None] * len(verts))
        object.__setattr__(self, "_chain", None)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, v) -> int:
        return len(self._adj[v])

    def has_edge(self, u, v) -> bool:
        return v in self._adj[u]

    def _row(self, i: int) -> list:
        """Hop distances from vertex position i, by one BFS on first use;
        -1 marks an unreachable vertex."""
        row = self._rows[i]
        if row is None:
            index = self._index
            row = [-1] * len(index)
            row[i] = 0
            queue = [self.vertices[i]]
            for u in queue:
                du = row[index[u]] + 1
                for w in self._adj[u]:
                    if row[index[w]] < 0:
                        row[index[w]] = du
                        queue.append(w)
            self._rows[i] = row
        return row

    def _distance_rows(self) -> list:
        """The whole path-metric, which only a connected graph has."""
        if not self.is_connected():
            raise ValueError(_DISCONNECTED)
        return list(map(self._row, range(len(self.vertices))))

    def distance(self, u, v) -> int:
        """Path-metric (number of hops on a shortest path); u and v must lie
        in one component."""
        d = self._row(self._index[u])[self._index[v]]
        if d < 0:
            raise ValueError(_DISCONNECTED)
        return d

    def is_connected(self) -> bool:
        return -1 not in self._row(0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"Graph({self.num_vertices} vertices, {self.num_edges} edges)"


def _automorphism_chain(G: Graph) -> list:
    """Aut(G) as the stabilizer chain of its edges, built once and kept on G.
    Its positions are G's only for a connected graph with an edge."""
    if G._chain is None:
        if not G.is_connected():
            raise ValueError(_DISCONNECTED)
        chain = _stabilizer_chain(G.edges) if G.edges else [(0, [(0,)], [])]
        object.__setattr__(G, "_chain", chain)
    return G._chain


def identify_complete_minus_matching(G: Graph):
    """(m, h) if the graph is K_m - hK_2, else None: it is exactly when no
    vertex misses more than one other, that is, every degree is >= m - 2."""
    m = G.num_vertices
    if any(G.degree(v) < m - 2 for v in G.vertices):
        return None
    return m, m * (m - 1) // 2 - G.num_edges


def complete_graph(m: int) -> Graph:
    """K_m on vertices 1..m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return Graph(range(1, m + 1), itertools.combinations(range(1, m + 1), 2))


def complete_minus_matching(m: int, h: int) -> Graph:
    """K_m - hK_2: the complete graph minus h disjoint edges {2k-1, 2k}."""
    if not 0 <= 2 * h <= m:
        raise ValueError(f"need 0 <= h <= m/2, got m={m}, h={h}")
    removed = {(2 * k + 1, 2 * k + 2) for k in range(h)}
    edges = set(itertools.combinations(range(1, m + 1), 2)) - removed
    return Graph(range(1, m + 1), edges)


def complete_minus_cycle(m: int, h: int) -> Graph:
    """K_m - C_h: the complete graph minus a cycle on vertices 1..h."""
    if not 3 <= h <= m:
        raise ValueError(f"need 3 <= h <= m, got m={m}, h={h}")
    removed = {tuple(sorted((k + 1, (k + 1) % h + 1))) for k in range(h)}
    edges = set(itertools.combinations(range(1, m + 1), 2)) - removed
    return Graph(range(1, m + 1), edges)


def cycle_graph(m: int) -> Graph:
    """C_m on vertices 1..m."""
    if m < 3:
        raise ValueError("cycle needs m >= 3")
    return Graph(range(1, m + 1),
                 (tuple(sorted((k + 1, (k + 1) % m + 1))) for k in range(m)))


def hypercube_graph(dim: int) -> Graph:
    """Q_dim on vertices 1..2^dim; vertex v encodes address v-1."""
    if dim < 1:
        raise ValueError("hypercube dimension must be >= 1")
    n = 1 << dim
    edges = []
    for a in range(n):
        for b in range(dim):
            c = a ^ (1 << b)
            if a < c:
                edges.append((a + 1, c + 1))
    return Graph(range(1, n + 1), edges)


def is_isometric_cycle(G: Graph, cycle) -> bool:
    """Is the cycle's own metric equal to the graph metric on its vertices?"""
    cyc = list(cycle)
    L = len(cyc)
    if L < 3 or len(set(cyc)) != L:
        raise ValueError("cycle must list at least 3 distinct vertices")
    for k in range(L):
        if not G.has_edge(cyc[k], cyc[(k + 1) % L]):
            raise ValueError(
                f"({cyc[k]}, {cyc[(k + 1) % L]}) is not an edge of the graph")
    for i, j in itertools.combinations(range(L), 2):
        around = min(j - i, L - (j - i))
        if G.distance(cyc[i], cyc[j]) != around:
            return False
    return True


@dataclass(frozen=True)
class GonalVector:
    """Integer vertex weights b with sum 1, as in the hypermetric inequalities."""

    coefficients: tuple  # sorted tuple of (vertex, nonzero coefficient)

    def __post_init__(self):
        if sum(c for _, c in self.coefficients) != 1:
            raise ValueError("gonal vector coefficients must sum to 1")

    def value(self, G: Graph) -> int:
        """Left-hand side sum b_i b_j d(i, j); positive means violated."""
        total = 0
        for (u, bu), (v, bv) in itertools.combinations(self.coefficients, 2):
            total += bu * bv * G.distance(u, v)
        return total


@functools.cache
def _kgonal_moves(budget: int) -> list:
    """moves[left][total]: the (c, total + c, left - |c|) that leave budget
    for at least one more nonzero coefficient and for reaching a sum of 1"""
    return [{total: [(c, total + c, left - abs(c))
                     for c in range(1 - left, left)
                     if c and abs(1 - total - c) <= left - abs(c)]
             for total in range(-budget, budget + 1)}
            for left in range(budget + 1)]


def kgonal_violations(G: Graph, bound: int = 3) -> list:
    """All violated k-gonal inequalities with sum |b_i| <= 2*bound + 1.

    Bound 2 covers the 5-gonal inequalities, bound 3 adds the 7-gonal
    ones, and so on.  An empty list certifies "hypermetric up to the
    bound"; full hypermetricity is an infinite family and is not decided
    here.

    Every integer vector b on the vertices with sum b_i = 1 and
    sum |b_i| <= 2*bound + 1 is considered; the result lists those with
    sum_{i<j} b_i b_j d(i, j) > 0, sorted by their coefficients.  Vertices
    are read in the base order b_0, b_1, ... of the graph's stabilizer
    chain, and a vector is kept only if its value at each b_d is at least
    its value on the basic orbit {t(b_d) : t in T_d}, 0 counting below
    every nonzero value and nonzero values ascending.  The greatest vector
    of each Aut-orbit, read in base order, is kept, as t in T_d fixes
    b_0..b_{d-1} (Sims 1970; Seress 2003).  The search recurses on the
    next nonzero position only and carries the score as running sums: the
    value of the vector so far and ``cross[p] = sum_k b_k d(k, p)`` for
    the positions p still free, so placing c at p adds ``c * cross[p]``.
    The last coefficient is forced to 1 - (sum so far), and one max/min
    over ``cross`` decides whether any position can take it with a
    violation.  Each violation found is expanded to its orbit under the
    chain's generators, and every image is audited with the independent
    :meth:`GonalVector.value`.  A disconnected graph raises ``ValueError``.
    """
    if bound < 2:
        raise ValueError("bound must be >= 2")
    budget = 2 * bound + 1
    dist = G._distance_rows()
    chain = _automorphism_chain(G)
    order = [b for b, _, _ in chain]  # the vertex position at each base index
    n = len(order)
    rank = {b: d for d, b in enumerate(order)}
    above = [[] for _ in range(n)]  # the d < q whose basic orbit holds b_q
    for d, (b, level, _) in enumerate(chain):
        for t in level[1:]:
            above[rank[t[b]]].append(d)
    # scaled[p][c][q - p - 1] = c * d(b_p, b_q) for the base indices q > p
    scaled = [{c: [c * dist[b][q] for q in order[p + 1:]]
               for c in range(-budget, budget + 1) if c} for p, b in enumerate(order)]
    moves = _kgonal_moves(budget)
    found, vec = [], [0] * n  # found by vertex position, vec by base index

    def allowed(q: int, options) -> list:
        """The options whose coefficient may stand at base index q."""
        tops = [vec[d] for d in above[q]]
        top = -budget - 1 if 0 in tops else min(tops)
        return [move for move in options if move[0] <= top]

    def extend(start: int, left: int, total: int, value: int, cross: list):
        # cross[p - start] is the running sum for base index p >= start
        last = 1 - total
        if last and abs(last) <= left:
            best = max(cross) if last > 0 else min(cross)
            if value + last * best > 0:
                for p in range(start, n):
                    if (value + last * cross[p - start] > 0
                            and (not above[p] or allowed(p, [(last,)]))):
                        vec[p] = last
                        found.append(tuple(vec[rank[b]] for b in range(n)))
                        vec[p] = 0
        options = moves[left][total]
        if not options:
            return
        for p in range(start, n - 1):
            here = cross[p - start]
            tail = cross[p + 1 - start:]
            rows = scaled[p]
            for c, now, rest in allowed(p, options) if above[p] else options:
                vec[p] = c
                extend(p + 1, rest, now, value + c * here,
                       list(map(add, tail, rows[c])))
            vec[p] = 0

    extend(0, budget, 0, 0, [0] * n)
    gens = [itemgetter(*g) for g in automorphism_generators(chain)]
    violations = []
    for orbit in orbit_closure(found, gens):
        for image in orbit:
            gonal = GonalVector(tuple((v, b) for v, b in zip(G.vertices, image) if b))
            if not gonal.value(G) > 0:
                raise AssertionError("k-gonal violation failed its audit")
            violations.append(gonal)
    violations.sort(key=lambda v: v.coefficients)
    return violations


@dataclass(frozen=True)
class PartialCubeLabeling:
    """Scale-1 hypercube addresses: Hamming distance equals the path-metric."""

    dimension: int
    address: dict


def _is_scaled_embedding(masks, scale: int, rows) -> bool:
    """Do the packed addresses ``masks[i]`` and ``masks[j]`` differ in
    ``scale * rows[i][j]`` bits for every i < j?  This decides or audits
    every certificate."""
    return all((a ^ b).bit_count() == scale * d
               for i, (a, row) in enumerate(zip(masks, rows))
               for b, d in zip(masks[i + 1:], row[i + 1:]))


def _pack(columns, n: int) -> list:
    """Addresses of positions 0..n-1 from ``(side, copies)`` columns: each
    column adds ``copies`` coordinates that are 1 on the positions in the
    bitmask ``side``; the first column gives the most significant bits."""
    masks, shift = [0] * n, 0
    for side, copies in reversed(columns):
        ones = ((1 << copies) - 1) << shift
        while side:
            low = side & -side
            masks[low.bit_length() - 1] |= ones
            side ^= low
        shift += copies
    return masks


def _unpack(vertices, masks, dim: int) -> dict:
    """The 0/1 address tuple of each vertex, first coordinate first."""
    shifts = range(dim - 1, -1, -1)
    return {v: tuple([m >> b & 1 for b in shifts]) for v, m in zip(vertices, masks)}


def partial_cube(G: Graph):
    """Recognize isometric hypercube subgraphs and label them.

    Each edge uv splits the vertices into those strictly nearer u and
    those strictly nearer v (the Djoković–Winkler relation), read from the
    two endpoint rows of the graph's distances.  In a bipartite graph
    every vertex is strictly nearer one end of each edge, so a vertex
    equidistant from both ends proves an odd cycle and None is returned at
    once.  One split is computed per class: an edge whose ends an earlier
    split already separates is skipped, because in a partial cube an edge
    crossing a split lies in that split's class.  Each split is one
    coordinate, set to 1 on the side away from the base vertex (the
    smallest one); coordinates are ordered by the smallest vertex of that
    side.  The labeling is returned only if every pairwise Hamming distance
    reproduces the path-metric, which certifies the verdict; if the graph
    is not a partial cube this check necessarily fails and None is
    returned.
    """
    if not G.is_connected():
        raise ValueError("partial-cube recognition needs a connected graph")
    index, rows = G._index, G._distance_rows()
    splits = []  # bitmask of the side away from the base, one per class
    for u, v in G.edges:
        iu, iv = index[u], index[v]
        for side in splits:
            if (side >> iu ^ side >> iv) & 1:
                break  # an earlier split already separates u and v
        else:
            # near is the end nearer the base vertex (position 0)
            near, far = sorted((rows[iu], rows[iv]))
            side = 0
            for i, (a, b) in enumerate(zip(near, far)):
                if a == b:
                    return None
                if b < a:
                    side |= 1 << i
            splits.append(side)
    classes = sorted(splits, key=lambda side: side & -side)
    masks = _pack([(side, 1) for side in classes], len(rows))
    if not _is_scaled_embedding(masks, 1, rows):
        return None
    return PartialCubeLabeling(dimension=len(classes),
                               address=_unpack(G.vertices, masks, len(classes)))


def hadamard_embedding(G: Graph):
    """(scale, addresses) of K_m - hK_2 in the N-cube at scale N/2, or None
    when G has fewer than 3 vertices or is not K_m - hK_2.

    Each missing edge is one pair and each vertex of full degree is one
    pair, numbered in vertex order; N is the least power of two >= the
    number k = m - h of pairs.  Pair i gets row i of the Sylvester-Hadamard
    matrix of order N, whose coordinate j is the parity of popcount(i & j),
    and the other end of a missing edge gets its complement.  Two distinct
    rows differ in N/2 coordinates and a row and its complement in N, so
    the Hamming distances are N/2 times the path-metric (Deza & Laurent
    1997); the addresses are audited against it all the same.
    """
    ident = identify_complete_minus_matching(G)
    if G.num_vertices < 3 or ident is None:
        return None
    m, h = ident
    dim = 1 << (m - h - 1).bit_length()
    masks, pairs = [None] * m, 0
    for i, v in enumerate(G.vertices):
        if masks[i] is None:
            masks[i] = sum(((pairs & j).bit_count() & 1) << (dim - 1 - j)
                           for j in range(dim))
            pairs += 1
            if G.degree(v) < m - 1:
                u = next(u for u in G.vertices if u != v and not G.has_edge(v, u))
                masks[G._index[u]] = masks[i] ^ ((1 << dim) - 1)
    scale = dim // 2
    if not _is_scaled_embedding(masks, scale, G._distance_rows()):
        raise AssertionError("Hadamard embedding failed its audit")
    return scale, _unpack(G.vertices, masks, dim)


@dataclass(frozen=True)
class CutDecomposition:
    """Nonnegative cut weights reproducing a graph metric exactly.

    Cuts are identified with their side not containing the base vertex
    (the smallest one); ``sum w_S * delta_S(i, j)`` equals the metric for
    every pair.
    """

    weights: dict          # frozenset -> positive Fraction
    vertices: tuple
    metric: dict           # (u, v) with u < v -> int


def _cut_mover(images, n: int):
    """The action of a vertex permutation on cuts as bitmasks with bit 0 clear.

    The mask is mapped one byte at a time through tables of 2^min(8, n - lo)
    entries (the image of each subset of vertices lo..lo+7), then replaced
    by its complement if the image side holds vertex 0.
    """
    tables = []
    for lo in range(0, n, 8):
        table = [0]
        for b in range(lo, min(lo + 8, n)):
            bit = 1 << images[b]
            table += [t | bit for t in table]
        tables.append((lo, table))
    full = (1 << n) - 1

    def move(S: int) -> int:
        T = 0
        for lo, table in tables:
            T |= table[S >> lo & 255]
        return T ^ full if T & 1 else T

    return move


def cut_cone_decompose(G: Graph):
    """Exact cut-cone membership of the path-metric, solved on cut orbits.

    The path-metric d is invariant under Aut(G), so averaging any
    decomposition d = sum w_S delta_S (w >= 0) over the group gives one
    that is constant on each orbit of cuts.  The exact phase-1 simplex
    therefore solves a reduced system: one column per cut orbit (the sum
    of its delta_S) and one row per orbit of vertex pairs (the equations
    of one orbit coincide).  Generators of Aut(G) come from the stabilizer
    chain of the edges as 2-sets; cuts are bitmasks of their side without
    the base vertex, mapped through each generator by per-byte lookup
    tables.  Every cut of an orbit gets that orbit's weight, and the
    decomposition is audited over all pairs without using the group.

    Returns the decomposition, or None when the metric is provably outside
    the cut cone (hence not L1-embeddable, hence not hypercube-embeddable
    at any scale).  The decomposition is Aut-invariant, so it may differ
    from a one-column-per-cut solution, and :func:`embedding_from_cuts`
    may give it a different scale or dimension.
    """
    n = G.num_vertices
    if n > CUT_CONE_VERTEX_GUARD:
        raise GuardExceeded(
            f"cut-cone solver is limited to {CUT_CONE_VERTEX_GUARD} vertices, "
            f"graph has {n}")
    verts = G.vertices
    dist = G._distance_rows()
    pairs = list(itertools.combinations(range(n), 2))
    metric = {(verts[i], verts[j]): dist[i][j] for i, j in pairs}
    gens = automorphism_generators(_automorphism_chain(G))
    # a cut is the bitmask of its side without vertex 0: bit 0 is clear
    cut_orbits = orbit_closure(range(2, 1 << n, 2), [_cut_mover(g, n) for g in gens])
    pair_movers = [lambda p, g=g: tuple(sorted((g[p[0]], g[p[1]]))) for g in gens]
    reps = [orbit[0] for orbit in orbit_closure(pairs, pair_movers)]
    columns = [[sum((S >> i ^ S >> j) & 1 for S in orbit) for i, j in reps]
               for orbit in cut_orbits]
    solution = solve_nonnegative(columns, [dist[i][j] for i, j in reps])
    if solution is None:
        return None
    weights = {}
    for orbit, w in zip(cut_orbits, solution):
        if w > 0:
            for S in orbit:
                weights[frozenset(verts[b] for b in range(1, n) if S >> b & 1)] = w
    dec = CutDecomposition(weights=weights, vertices=verts, metric=metric)
    _cut_addresses(dec)  # the audit
    return dec


def _cut_addresses(dec: CutDecomposition):
    """(scale, dimension, audited addresses of the sorted vertices): each
    cut, by size and then by its sorted vertices, repeated scale * weight
    times."""
    scale = math.lcm(*(w.denominator for w in dec.weights.values()))
    verts = sorted(dec.vertices)
    bit = {v: 1 << i for i, v in enumerate(verts)}
    columns = [(sum(map(bit.__getitem__, S)), int(dec.weights[S] * scale))
               for S in sorted(dec.weights, key=lambda S: (len(S), sorted(S)))]
    masks = _pack(columns, len(verts))
    rows = [[dec.metric[u, v] if u < v else 0 for v in verts] for u in verts]
    if not _is_scaled_embedding(masks, scale, rows):
        raise AssertionError("cut decomposition failed its audit")
    return scale, sum(copies for _, copies in columns), masks


def embedding_from_cuts(dec: CutDecomposition):
    """Turn a cut decomposition into scaled binary addresses.

    The scale is the least common multiple of the weight denominators;
    each cut contributes scale*weight coordinates that are 1 exactly on
    its side.  Returns (scale, address dict); the Hamming distances are
    audited against scale times the metric.
    """
    scale, dim, masks = _cut_addresses(dec)
    return scale, _unpack(sorted(dec.vertices), masks, dim)


def _address_search(need, dim: int):
    """Masks in {0,1}^dim whose pairwise Hamming distances are ``need``, or
    None.  The first mask is 0 and the second left-packed, which are free
    normalizations; the others are found by backtracking."""
    n = len(need)
    masks_by_weight = [[] for _ in range(dim + 1)]
    for mask in range(1 << dim):
        masks_by_weight[mask.bit_count()].append(mask)
    assigned = [0] * n
    if n > 1:
        assigned[1] = (1 << need[0][1]) - 1  # unique up to column order

    def rec(k: int):
        if k >= n:
            return True
        nk = need[k]
        for mask in masks_by_weight[nk[0]]:
            for i in range(1, k):
                if (assigned[i] ^ mask).bit_count() != nk[i]:
                    break
            else:
                assigned[k] = mask
                if rec(k + 1):
                    return True
        return False

    return assigned if rec(2) else None


def find_scaled_embedding(G: Graph, scale: int, dim: int):
    """Search for addresses in {0,1}^dim with Hamming = scale * distance.

    Exhaustive backtracking over vertex addresses, vertices in decreasing
    degree order.  Returns an address dict, audited against scale times the
    metric, or None when no embedding exists at exactly these parameters.
    """
    if scale < 1:
        raise ValueError("scale must be a positive integer")
    if dim < 0:
        raise ValueError("dim must be a non-negative integer")
    if G.num_vertices > EMBED_VERTEX_GUARD:
        raise GuardExceeded(
            f"embedding search is limited to {EMBED_VERTEX_GUARD} vertices, "
            f"graph has {G.num_vertices}")
    if dim > EMBED_DIMENSION_GUARD:
        raise GuardExceeded(
            f"embedding search is limited to dimension "
            f"{EMBED_DIMENSION_GUARD}, requested {dim}")
    rows, index = G._distance_rows(), G._index
    order = sorted(G.vertices, key=lambda v: (-G.degree(v), v))
    n = len(order)
    need = [[scale * rows[index[u]][index[v]] for v in order] for u in order]
    if any(need[i][j] > dim for i in range(n) for j in range(n)):
        return None
    found = _address_search(need, dim)
    if found is None:
        return None
    by_vertex = dict(zip(order, found))
    masks = [by_vertex[v] for v in G.vertices]
    if not _is_scaled_embedding(masks, scale, rows):
        raise AssertionError("scaled embedding failed its audit")
    return _unpack(G.vertices, masks, dim)


def a_m(m: int) -> int:
    """The paper's scale for K_{m+1}-K_2 and K_{2m}-mK_2 as transcribed here:
    an upper bound, not the minimum (K6-K2, K7-K2, K8-K2 embed at scale 4)."""
    if m < 3:
        raise ValueError("m must be >= 3")
    if m % 2 == 0:
        return math.comb(m - 2, m // 2 - 1)
    return 2 * math.comb(m - 2, (m - 3) // 2)
