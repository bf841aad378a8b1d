"""The three benchmark workloads: their inputs, their queries and their verdict gate.

A workload is a fixed catalogue of input shapes.  The seed chooses the
vertex relabelling of every input, the facet removed from each negative
input, the non-isomorphic partners and the query order, so every seed
measures the same amount of work on different concrete inputs.

Each query is a dict with an ``id``, a ``kind`` and the data that
determines it; :func:`run_query` answers it with the library (the timed
part) and :func:`check` compares the answer with the known one (untimed).
``check`` returns ``"decided"``, ``"refused"`` (a size guard answered
instead of a verdict) or raises :class:`Mismatch`.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
from collections import deque
from pathlib import Path

WORKLOADS = ("classify", "symmetry", "analyze")

# the benchmark's own copy of the seed's `table` materialisation limit, so
# the query stays the same if the program's limit moves
AUT_MATERIALIZE_LIMIT = 100_000
# Every pass asks at least 100 distinct queries, so that p90 over the
# queries has ten beyond it.  Cheap shapes appear in several copies, each
# with its own relabelling; besides raising the count, the copies put p50
# and p90 inside runs of queries of similar cost rather than at the edge
# between two such runs, where machine noise would flip them.

# classify: partitions of m = 3..8 once, and of m = 3..6 once more
CLASSIFY_SECOND_COPY_MAX_M = 6
# symmetry: every K(P) on at most 12 vertices with |Aut| up to this cap;
# those with |Aut| <= SYMMETRY_CHEAP_AUT in SYMMETRY_CHEAP_COPIES copies
SYMMETRY_AUT_CAP = 6000
SYMMETRY_CHEAP_AUT = 300
SYMMETRY_CHEAP_COPIES = 7
# the largest |Aut| that fits a pass: 8! = 40320
SYMMETRY_LARGE = ("1,2,3,4,5,6,7",)
# above the 12-vertex automorphism guard: refused at the seed
SYMMETRY_REFUSED = ("1|2|3|4|5|6,7", "1|2|3|4|5|6|7", "1|2|3,4|5,6|7,8")
# analyze: (copies per pass, shapes), cheapest first.  The one-copy shapes
# are LP-bound (8 to 10 vertices) or beyond the 13-vertex cut-cone guard
# (14 and 15 vertices)
KP_SHAPES = ((6, ("1|2", "1,2,3", "1|2,3")),
             (7, ("1|2|3", "1,2|3,4", "1,2,3,4,5")),
             (3, ("1|2|3,4",)),
             (2, ("1|2|3|4",)),
             (1, ("1|2,3,4,5,6,7,8",)))
FIGURE1_COPIES = 3
QUAD_SHAPES = ((6, (("grid", 1, 1),)),
               (7, (("grid", 1, 2),)),
               (2, (("grid", 1, 3), ("cube",))),
               (1, (("torus", 3, 3), ("dual_cuboctahedron",), ("grid", 2, 4))))
# these ask for the 5-gonal bound only: the bound-3 search takes 8-20 s
# each on the quads at the seed, and on K10 - K2 it would outweigh the LP
BOUND2_SHAPES = (("dual_cuboctahedron",), ("grid", 2, 4), "1|2,3,4,5,6,7,8")
GRAPH_SHAPES = ((6, (("cmm", 4, 2), ("cmm", 5, 1), ("k5_k3",))),
                (7, (("cmm", 6, 3), ("cmc", 6, 4))),
                (3, (("cmc", 7, 5),)),
                (2, (("hypercube", 3),)),
                (1, (("cmm", 8, 4), ("cmc", 9, 5))))
SCALED_MAX_VERTICES = 8


class Mismatch(AssertionError):
    """A query's verdict differs from its known answer."""


class Refused(Exception):
    """A size guard refused the query; carries the guard message."""


# ----------------------------------------------------------------- helpers

def canonical_spec(sizes) -> str:
    """Spec of the partition of {1..m} into consecutive runs of these sizes."""
    parts, start = [], 1
    for s in sorted(sizes):
        parts.append(",".join(str(v) for v in range(start, start + s)))
        start += s
    return "|".join(parts)


def spec_sizes(spec: str) -> tuple:
    return tuple(sorted(len(part.split(",")) for part in spec.split("|")))


def kp_type(sizes) -> set:
    """Link lengths of K(P): 3 inside a part, 4 across parts."""
    ty = set()
    if max(sizes) >= 2:
        ty.add(3)
    if len(sizes) >= 2:
        ty.add(4)
    return ty


def skeleton_name(m: int, h: int) -> str:
    return f"K{m}" if h == 0 else f"K{m}-K2" if h == 1 else f"K{m}-{h}K2"


def distances(n: int, edges) -> list:
    """All-pairs hop distances on vertices 1..n by breadth-first search."""
    adj = [[] for _ in range(n + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    rows = [None]
    for s in range(1, n + 1):
        row = [-1] * (n + 1)
        row[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if row[w] < 0:
                    row[w] = row[u] + 1
                    queue.append(w)
        rows.append(row)
    return rows


def is_bipartite(n: int, edges) -> bool:
    rows = distances(n, edges)
    return all(rows[1][u] % 2 != rows[1][v] % 2 for u, v in edges)


def permutation(rng: random.Random, n: int) -> list:
    """perm[v-1] is the new label of vertex v."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return perm


def relabel_facets(facets, perm) -> list:
    return sorted(sorted(perm[v - 1] for v in f) for f in facets)


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


# ----------------------------------------------------------------- classify

def classify_inputs(sl, rng: random.Random, root: Path, tiny: bool) -> list:
    figure1 = sl.formats.parse_complex(
        (root / "fixtures" / "figure1.txt").read_text(encoding="utf-8"))
    queries = []
    if tiny:
        shapes = [p for m in (3, 4) for p in sl.enumerate_partitions(m)]
    else:
        shapes = [p for m in range(3, 9) for p in sl.enumerate_partitions(m)]
        shapes += [p for p in shapes if p.m <= CLASSIFY_SECOND_COPY_MAX_M]
    for index, p in enumerate(shapes):
        n_vertices = p.m + p.t
        queries.append({"kind": "kp", "partition": p.to_spec(),
                        "perm": permutation(rng, n_vertices)})
        if index % 3 == 0:  # a quarter of the queries are negatives
            facets = sl.kp_summary(p).facet_count
            queries.append({"kind": "boundary", "partition": p.to_spec(),
                            "perm": permutation(rng, n_vertices),
                            "drop": rng.randrange(facets)})
    queries.append({"kind": "figure1", "facets": relabel_facets(
        figure1.facets, permutation(rng, len(figure1.vertices)))})
    return queries


def _relabel(sl, K, perm):
    return sl.SimplicialComplex(K.dim, [[perm[v - 1] for v in f] for f in K.facets])


def _relabelled_kp(sl, spec, perm):
    return _relabel(sl, sl.build_kp(sl.Partition.from_spec(spec)), perm)


def classify_query(sl, q):
    if q["kind"] == "figure1":
        K = sl.SimplicialComplex.from_facets(q["facets"])
    else:
        K = _relabelled_kp(sl, q["partition"], q["perm"])
        if q["kind"] == "boundary":
            facets = sorted(K.facets, key=sorted)
            del facets[q["drop"]]
            K = sl.SimplicialComplex(K.dim, facets)
    status = sl.is_closed_pseudomanifold(K).status
    ty = sorted(sl.complex_type(K)) if status == "closed" else None
    try:
        found = sl.classify(K).to_spec()
    except ValueError:
        found = None
    return {"status": status, "type": ty, "classified": found,
            "euler": sl.euler_characteristic(K), "facets": K.num_facets}


def classify_check(sl, q, v) -> str:
    if q["kind"] == "figure1":
        # closed 3-pseudomanifold on 7 vertices, 20 edges, 26 triangles, 13 facets
        expect(v["status"] == "closed", "figure1 must be closed")
        expect(v["type"] == [3, 4, 5], f"figure1 type {v['type']} != [3, 4, 5]")
        expect(v["classified"] is None, "figure1 must not classify")
        expect(v["euler"] == 0, f"figure1 euler {v['euler']} != 0")
        return "decided"
    sizes = spec_sizes(q["partition"])
    n = sum(sizes) - 1
    facets = sl.kp_summary(sl.Partition.from_spec(q["partition"])).facet_count
    if q["kind"] == "boundary":
        expect(v["status"] == "boundary", f"status {v['status']} != boundary")
        expect(v["classified"] is None, "a complex with boundary must not classify")
        # removing one top face from chi = 1+(-1)^n leaves 1
        expect(v["euler"] == 1, f"euler {v['euler']} != 1")
        expect(v["facets"] == facets - 1, "facet count")
        return "decided"
    expect(v["status"] == "closed", f"status {v['status']} != closed")
    expect(v["facets"] == facets, f"facets {v['facets']} != {facets}")
    expect(v["type"] == sorted(kp_type(sizes)), f"type {v['type']}")
    expect(v["classified"] is not None
           and spec_sizes(v["classified"]) == sizes,
           f"classified as {v['classified']}, want sizes {sizes}")
    expect(v["euler"] == 1 + (-1) ** n, f"euler {v['euler']} != {1 + (-1) ** n}")
    return "decided"


# ----------------------------------------------------------------- symmetry

def symmetry_inputs(sl, rng: random.Random, root: Path, tiny: bool) -> list:
    if tiny:
        specs = ["1|2", "1,2,3", "1|2|3", "1,2|3,4"]
        refused = list(SYMMETRY_REFUSED[:1])
    else:
        specs = []
        for m in range(2, 10):
            for p in sl.enumerate_partitions(m):
                aut = sl.kp_summary(p).aut_order
                if p.m + p.t <= 12 and aut <= SYMMETRY_AUT_CAP:
                    copies = SYMMETRY_CHEAP_COPIES if aut <= SYMMETRY_CHEAP_AUT else 1
                    specs += [p.to_spec()] * copies
        specs += SYMMETRY_LARGE
        refused = list(SYMMETRY_REFUSED)
    queries = []
    for index, spec in enumerate(specs + refused):
        p = sl.Partition.from_spec(spec)
        # same dimension and vertex count, different part sizes
        others = [o.to_spec() for o in sl.enumerate_partitions(p.m)
                  if o.t == p.t and o.sizes != p.sizes]
        if index % 2 and others:
            partner = rng.choice(others)
            partner_vertices = p.m + p.t
        else:
            partner = "dual"
            partner_vertices = sum(s + 1 for s in p.sizes)
        queries.append({"kind": "kp", "partition": spec,
                        "perm": permutation(rng, p.m + p.t),
                        "partner": partner,
                        "partner_perm": permutation(rng, partner_vertices)})
    return queries


def symmetry_query(sl, q):
    p = sl.Partition.from_spec(q["partition"])
    K = _relabelled_kp(sl, q["partition"], q["perm"])
    try:
        aut = sl.automorphism_count(K)
        cox = sl.coxeter_order_bruteforce(p)
    except sl.GuardExceeded as exc:
        raise Refused(str(exc)) from None
    orbit_count = None
    if aut <= AUT_MATERIALIZE_LIMIT:
        orbit_count = len(sl.orbits(sl.automorphisms(K), K.vertices))
    if q["partner"] == "dual":
        K2 = _relabel(sl, sl.product_dual(p), q["partner_perm"])
    else:
        K2 = _relabelled_kp(sl, q["partner"], q["partner_perm"])
    phi = sl.are_isomorphic(K, K2)
    return {"aut": aut, "cox": cox, "orbits": orbit_count, "phi": phi,
            "K": K, "K2": K2}


def symmetry_check(sl, q, v) -> str:
    s = sl.kp_summary(sl.Partition.from_spec(q["partition"]))
    expect(v["aut"] == s.aut_order, f"|Aut| {v['aut']} != {s.aut_order}")
    expect(v["cox"] == s.cox_order, f"|Cox| {v['cox']} != {s.cox_order}")
    if s.aut_order <= AUT_MATERIALIZE_LIMIT:
        expect(v["orbits"] == s.vertex_orbit_count,
               f"orbits {v['orbits']} != {s.vertex_orbit_count}")
    phi = v["phi"]
    if q["partner"] == "dual":
        expect(phi is not None, "K(P) and its product dual must be isomorphic")
        image = {frozenset(phi[x] for x in f) for f in v["K"].facets}
        expect(image == set(v["K2"].facets), "isomorphism fails its audit")
    else:
        expect(phi is None, f"K({q['partition']}) ~ K({q['partner']}) claimed")
    return "decided"


# ------------------------------------------------------------------ analyze

def _quad(sl, shape):
    name, *params = shape
    return {"grid": sl.grid, "torus": sl.torus, "cube": sl.cube,
            "dual_cuboctahedron": sl.dual_cuboctahedron}[name](*params)


def _graph(sl, shape):
    name, *params = shape
    if name == "k5_k3":
        return sl.Graph(range(1, 6), [e for e in itertools.combinations(range(1, 6), 2)
                                      if not (e[0] <= 3 and e[1] <= 3)])
    return {"cmm": sl.complete_minus_matching, "cmc": sl.complete_minus_cycle,
            "hypercube": sl.hypercube_graph}[name](*params)


def _shape_name(shape) -> str:
    name, *params = shape
    return name + "".join(f"_{x}" for x in params)


def analyze_inputs(sl, rng: random.Random, root: Path, tiny: bool) -> list:
    """Query descriptors; each carries the text of the file it analyses."""
    figure1 = sl.formats.parse_complex(
        (root / "fixtures" / "figure1.txt").read_text(encoding="utf-8"))
    def expand(catalogue):
        if tiny:
            return list(catalogue[0][1])
        return [shape for copies, shapes in catalogue for shape in shapes * copies]

    kp, quads, graphs = expand(KP_SHAPES), expand(QUAD_SHAPES), expand(GRAPH_SHAPES)
    queries = []
    for spec in kp:
        K = sl.build_kp(sl.Partition.from_spec(spec))
        perm = permutation(rng, len(K.vertices))
        queries.append(_simplicial_query("kp", K.dim, relabel_facets(K.facets, perm),
                                         partition=spec, args=_bound_args(spec)))
    for _ in range(1 if tiny else FIGURE1_COPIES):
        perm = permutation(rng, len(figure1.vertices))
        queries.append(_simplicial_query("figure1", figure1.dim,
                                         relabel_facets(figure1.facets, perm)))
    for shape in quads:
        Q = _quad(sl, shape)
        perm = permutation(rng, Q.num_vertices)
        faces = [[perm[v - 1] for v in f] for f in Q.faces]
        edges = sorted({tuple(sorted((f[i], f[(i + 1) % 4])))
                        for f in faces for i in range(4)})
        text = f"quad {Q.num_vertices}\n" + "".join(
            " ".join(map(str, f)) + "\n" for f in faces)
        args = _bound_args(shape)
        queries.append({"kind": "quad", "shape": list(shape), "cmd": "analyze",
                        "args": args, "n": Q.num_vertices, "edges": edges,
                        "text": text})
    for shape in graphs:
        G = _graph(sl, shape)
        perm = permutation(rng, G.num_vertices)
        edges = sorted(tuple(sorted((perm[u - 1], perm[v - 1]))) for u, v in G.edges)
        text = f"graph {G.num_vertices}\n" + "".join(f"{u} {v}\n" for u, v in edges)
        args = ["--graph"]
        if G.num_vertices <= SCALED_MAX_VERTICES:
            args += ["--scale", "2", "--dim", str(_scaled_dim(shape))]
        queries.append({"kind": "graph", "shape": list(shape), "cmd": "embed",
                        "args": args, "n": G.num_vertices, "edges": edges,
                        "text": text})
    return queries


def _scaled_dim(shape) -> int:
    """Dimension asked for at scale 2 = a_3 = a_4 (see the README)."""
    return {"cmm": 4, "hypercube": 6, "k5_k3": 4}.get(shape[0], 6)


def _bound_args(shape) -> list:
    return ["--hypermetric-bound", "2"] if shape in BOUND2_SHAPES else []


def _simplicial_query(kind, dim, facets, partition=None, args=()) -> dict:
    text = f"simplicial {dim}\n" + "".join(" ".join(map(str, f)) + "\n"
                                           for f in facets)
    q = {"kind": kind, "cmd": "analyze", "args": list(args), "text": text}
    if partition is not None:
        q["partition"] = partition
    return q


def query_file_name(q) -> str:
    return f"q{q['id']:03d}.txt"


def analyze_query(sl, q, workdir: Path):
    argv = [q["cmd"], str(workdir / query_file_name(q)), *q["args"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = sl.cli.main(argv)
    if rc == 3:
        raise Refused(err.getvalue().strip())
    verdict = {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if q["kind"] == "graph" and q["n"] <= SCALED_MAX_VERTICES:
        # at what scale does it embed: the cut-cone certificate, as a user
        # of the library would ask for it
        G = sl.formats.parse_graph(q["text"])
        dec = sl.cut_cone_decompose(G)
        verdict["cuts"] = sl.embedding_from_cuts(dec) if dec is not None else None
    return verdict


def _report(stdout: str) -> dict:
    pairs = {}
    for line in stdout.splitlines():
        if line.startswith("  ") or ": " not in line:
            continue
        key, value = line.split(": ", 1)
        pairs[key] = value
    return pairs


def _addresses(stdout: str) -> dict:
    found = {}
    for line in stdout.splitlines():
        if line.startswith("  "):
            v, bits = line.split(":")
            found[int(v)] = bits.strip()
    return found


def analyze_check(sl, q, v) -> str:
    expect(v["rc"] == 0, f"exit code {v['rc']}: {v['stderr'].strip()}")
    r = _report(v["stdout"])
    if q["kind"] in ("kp", "figure1"):
        _check_simplicial(q, r)
        n, edges = _complex_graph(q["text"])
    else:
        n, edges = q["n"], q["edges"]
        if q["kind"] == "quad":
            _check_quad(q, r, n, edges)
        else:
            _check_graph(q, r)
    _check_agreement(r, n, edges)
    if "cuts" in v:
        _check_scaled(q, v, r, n, edges)
    return "refused" if r.get("cut cone") == "skipped (vertex guard)" else "decided"


def _complex_graph(text: str):
    facets = [list(map(int, line.split())) for line in text.splitlines()[1:]]
    edges = {tuple(sorted(e)) for f in facets for e in itertools.combinations(f, 2)}
    return max(max(f) for f in facets), sorted(edges)


def _check_simplicial(q, r) -> None:
    expect(r.get("closed") == "yes", f"closed: {r.get('closed')}")
    bound = q["args"][-1] if q["args"] else "3"
    hyper = r.get(f"hypermetric (bound {bound})")
    # K_m - hK_2 is L1-embeddable, so no hypermetric inequality is violated
    expect(r.get("5-gonal") == "ok" and hyper == "ok", f"gonal: {r}")
    expect(r.get("cut cone") == "feasible (L1-embeddable)", f"cut cone: {r.get('cut cone')}")
    if q["kind"] == "figure1":
        expect(r.get("euler characteristic") == "0", "figure1 euler")
        expect(r.get("type") == "{3,4,5}", f"figure1 type {r.get('type')}")
        expect(r.get("skeleton") == "7 vertices, 20 edges (K7-K2)", "figure1 skeleton")
        expect(r.get("classification", "").startswith("failed"), "figure1 classified")
        expect(r.get("isometric link obstruction", "").startswith("none ("),
               "figure1 has no isometric long link")
        expect(r.get("partial cube") == "no", "figure1 partial cube")
        return
    sizes = spec_sizes(q["partition"])
    m, t, h = sum(sizes), len(sizes), sizes.count(1)
    n = m - 1
    vertices = m + t
    edges = vertices * (vertices - 1) // 2 - h
    expect(r.get("euler characteristic") == str(1 + (-1) ** n), "euler")
    expect(r.get("type") == "{" + ",".join(map(str, sorted(kp_type(sizes)))) + "}",
           f"type {r.get('type')}")
    expect(r.get("classification") == canonical_spec(sizes),
           f"classification {r.get('classification')}")
    expect(r.get("skeleton") == f"{vertices} vertices, {edges} edges "
                                f"({skeleton_name(vertices, h)})",
           f"skeleton {r.get('skeleton')}")
    if n >= 3:
        expect(r.get("isometric link obstruction") == "none (0 links of size >= 5)",
               "K(P) has no link longer than 4")
    c4 = vertices == 4 and h == 2
    expect(r.get("partial cube") == ("yes (dimension 2)" if c4 else "no"),
           f"partial cube {r.get('partial cube')}")


# known answers for the quadrillage shapes: closed, Euler characteristic,
# zone count and partial-cube dimension (None: not a partial cube)
def _quad_facts(shape):
    name, *params = shape
    if name == "grid":
        p, q = params
        return False, 1, p + q, p + q
    if name == "torus":
        p, q = params
        # C_p x C_q is a partial cube exactly when both cycles are even
        return True, 0, p + q, (p + q) // 2 if p % 2 == 0 and q % 2 == 0 else None
    if name == "cube":
        return True, 2, 3, 3
    return True, 2, 4, 4  # rhombic dodecahedron: four zones of length 6


def _check_quad(q, r, n, edges) -> None:
    closed, chi, zone_count, pc_dim = _quad_facts(q["shape"])
    expect(r.get("closed") == ("yes" if closed else "boundary"), "closed")
    expect(r.get("euler characteristic") == str(chi), "euler")
    expect(r.get("zones") == str(zone_count), f"zones {r.get('zones')}")
    lengths = sorted(map(int, r.get("zone lengths", "0").split(",")))
    expect(sum(lengths) == len(edges), "zones must partition the edges")
    if q["shape"][0] in ("cube", "dual_cuboctahedron"):
        expect(len(set(lengths)) == 1, f"zone lengths {lengths}")
    pc = r.get("partial cube")
    expect(pc == (f"yes (dimension {pc_dim})" if pc_dim else "no"), f"partial cube {pc}")
    if chi == (2 if closed else 1) and is_bipartite(n, edges):
        # the zone criterion applies on sphere or disk quads with bipartite skeleton
        expect(r.get("embeddable by zones") == ("yes" if pc_dim else "no"),
               "zone criterion disagrees with partial-cube recognition")


# known answers: 5-gonal verdict, cut-cone verdict, partial-cube dimension;
# None where only the agreement rules apply
def _graph_facts(shape):
    name, *params = shape
    if name == "cmm":  # K_m - hK_2 is L1-embeddable (C4 is a partial cube)
        return "ok", "feasible", 2 if params == [4, 2] else None
    if name == "k5_k3":  # violates the 5-gonal inequality by +1
        return "violated", "infeasible", None
    if name == "hypercube":
        return "ok", "feasible", params[0]
    if params == [7, 5]:  # hypermetric to bound 3 yet outside the cut cone
        return "ok", "infeasible", None
    return None, None, None


def _check_graph(q, r) -> None:
    gonal, cone, pc_dim = _graph_facts(q["shape"])
    if gonal is not None:
        expect(r.get("5-gonal", "").startswith(gonal), f"5-gonal {r.get('5-gonal')}")
    if cone is not None:
        expect(r.get("cut cone", "").startswith(cone), f"cut cone {r.get('cut cone')}")
    pc = r.get("partial cube")
    expect(pc == (f"yes (dimension {pc_dim})" if pc_dim else "no"), f"partial cube {pc}")


def _check_agreement(r, n, edges) -> None:
    """Rules that independent deciders must satisfy on every report."""
    cone = r.get("cut cone", "")
    pc_yes = r.get("partial cube", "").startswith("yes")
    violated = any(value.startswith("violated") for key, value in r.items()
                   if key == "5-gonal" or key.startswith("hypermetric"))
    if pc_yes:
        expect(not cone.startswith("infeasible"), "partial cube but cut cone infeasible")
        expect(not violated, "partial cube but a gonal inequality is violated")
        expect(is_bipartite(n, edges), "partial cube with an odd cycle")
    if violated:
        expect(not cone.startswith("feasible"), "gonal violation but cut cone feasible")


def _check_scaled(q, v, r, n, edges) -> None:
    scale, dim = int(q["args"][2]), int(q["args"][4])
    dist = distances(n, edges)
    cuts = v["cuts"]
    line = next((x for x in v["stdout"].splitlines() if x.startswith("embedding")), "")
    found = line.endswith("found")
    expect(line.endswith(("found", "none")), f"no embedding verdict: {line!r}")
    if cuts is None:
        expect(r.get("cut cone", "").startswith("infeasible"), "no cut certificate")
        expect(not found, "scaled embedding of a metric outside the cut cone")
        return
    cut_scale, address = cuts
    cut_dim = len(next(iter(address.values())))
    for a, b in itertools.combinations(range(1, n + 1), 2):
        ham = sum(x != y for x, y in zip(address[a], address[b]))
        expect(ham == cut_scale * dist[a][b], "cut embedding fails its audit")
    if scale % cut_scale == 0 and dim >= cut_dim * scale // cut_scale:
        # repeating each cut coordinate scale/cut_scale times embeds at (scale, dim)
        expect(found, f"no embedding at scale {scale} dim {dim} though the cuts give one")
    if found:
        bits = _addresses(v["stdout"])
        expect(sorted(bits) == list(range(1, n + 1)), "addresses missing")
        for a, b in itertools.combinations(range(1, n + 1), 2):
            ham = sum(x != y for x, y in zip(bits[a], bits[b]))
            expect(len(bits[a]) == dim and ham == scale * dist[a][b],
                   f"scaled embedding fails its audit at {a},{b}")


# ------------------------------------------------------------------ dispatch

_INPUTS = {"classify": classify_inputs, "symmetry": symmetry_inputs,
           "analyze": analyze_inputs}
_CHECKS = {"classify": classify_check, "symmetry": symmetry_check,
           "analyze": analyze_check}


def make_inputs(sl, workload: str, seed: int, root: Path, tiny: bool = False) -> list:
    """The workload's queries for this seed, numbered in their run order."""
    rng = random.Random(f"{workload}:{seed}")
    queries = _INPUTS[workload](sl, rng, root, tiny)
    rng.shuffle(queries)
    for i, q in enumerate(queries):
        q["id"] = i
    return queries


def write_inputs(queries, workdir: Path) -> None:
    """Write each query's input file (the analyze workload reads them back)."""
    workdir.mkdir(parents=True, exist_ok=True)
    for q in queries:
        if "text" in q:
            (workdir / query_file_name(q)).write_text(q["text"], encoding="utf-8")


def run_query(sl, workload: str, q, workdir: Path):
    if workload == "classify":
        return classify_query(sl, q)
    if workload == "symmetry":
        return symmetry_query(sl, q)
    return analyze_query(sl, q, workdir)


def check(sl, workload: str, q, verdict) -> str:
    return _CHECKS[workload](sl, q, verdict)


def describe(q) -> str:
    """One-line description of a query, for listings and mismatch reports."""
    if "partition" in q:
        what = f"K({q['partition']})"
    elif "shape" in q:
        what = _shape_name(q["shape"])
    else:
        what = "figure1"
    extra = ""
    if q.get("partner"):
        extra = f" vs {'product dual' if q['partner'] == 'dual' else 'K(' + q['partner'] + ')'}"
    if q.get("cmd"):
        extra = f" [{' '.join([q['cmd'], *q['args']])}]"
    return f"{q['id']}: {q['kind']} {what}{extra}"
