"""Command-line front end.

Subcommands: ``build-kp`` (construct K(P) and write it out), ``table``
(reproduce the classification table for small dimensions), ``analyze``
(full report on a complex or quadrillage file), and ``embed``
(embeddability probes on a graph file).

Exit codes: 0 success, 2 input error, 3 size guard exceeded.

The argument parser is built on the first ``main`` call and reused by
every later call in the same process; importing this module builds none.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings

from . import formats
from ._bijections import automorphism_generators, orbit_closure
from .errors import FormatError, GuardExceeded
from .metric import (Graph, cut_cone_decompose, find_scaled_embedding,
                     hadamard_embedding, identify_complete_minus_matching,
                     is_isometric_cycle, kgonal_violations, partial_cube)
from .partitions import build_kp, classify, enumerate_partitions, kp_summary
from .quadrillage import (Quadrillage, embeddable_by_zones, quadrillage_type,
                          zone_is_convex, zone_is_simple, zones)
from .simplicial import (Partition, SimplicialComplex, complex_type,
                         euler_characteristic, is_closed_pseudomanifold,
                         link_of_face, long_link_faces, skeleton)
from .symmetry import (automorphism_count, coxeter_order_bruteforce,
                       stabilizer_chain)

TABLE_COLUMNS = ("partition", "skeleton", "facets", "aut", "orbits", "cox",
                 "verified")


def skeleton_name(m: int, h: int) -> str:
    """Display form of K_m - hK_2."""
    if h == 0:
        return f"K{m}"
    if h == 1:
        return f"K{m}-K2"
    return f"K{m}-{h}K2"


def _print_report(pairs, tsv: bool, out) -> None:
    for key, value in pairs:
        if tsv:
            out.write(f"{key}\t{value}\n")
        else:
            out.write(f"{key}: {value}\n")


def cmd_build_kp(args) -> int:
    p = Partition.from_spec(args.partition)
    K = build_kp(p)
    text = formats.serialize_complex(K)
    s = kp_summary(p)
    summary = [
        ("partition", p.to_spec()),
        ("facets", s.facet_count),
        ("skeleton", skeleton_name(s.skeleton_m, s.skeleton_h)),
        ("aut order", s.aut_order),
        ("cox order", s.cox_order),
        ("vertex orbits", s.vertex_orbit_count),
    ]
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        _print_report(summary, tsv=False, out=sys.stdout)
    else:
        sys.stdout.write(text)
        _print_report(summary, tsv=False, out=sys.stderr)
    return 0


def _verify_row(p: Partition, s) -> str:
    """Brute-force check of one table row; "-" when a library guard refuses.

    |Aut| and the vertex orbits come from the complex's one stabilizer
    chain and its generators, so the group itself is never listed.
    """
    K = build_kp(p)
    try:
        aut_order = automorphism_count(K)
    except GuardExceeded:
        return "-"
    moves = [g.__getitem__ for g in automorphism_generators(stabilizer_chain(K))]
    checks = (
        K.num_facets == s.facet_count
        and aut_order == s.aut_order
        and len(orbit_closure(range(len(K.vertices)), moves)) == s.vertex_orbit_count
        and coxeter_order_bruteforce(p) == s.cox_order
    )
    return "yes" if checks else "MISMATCH"


def cmd_table(args) -> int:
    if not 2 <= args.max_dim <= 6:
        raise FormatError(f"--max-dim must be between 2 and 6, got {args.max_dim}")
    out = sys.stdout
    out.write("\t".join(TABLE_COLUMNS) + "\n")
    for m in range(3, args.max_dim + 2):
        for p in enumerate_partitions(m):
            s = kp_summary(p)
            row = (p.to_spec(), skeleton_name(s.skeleton_m, s.skeleton_h),
                   s.facet_count, s.aut_order, s.vertex_orbit_count,
                   s.cox_order, _verify_row(p, s))
            out.write("\t".join(str(x) for x in row) + "\n")
    return 0


def _simplicial_report(K: SimplicialComplex, bound: int):
    pairs = [
        ("format", "simplicial"),
        ("dimension", K.dim),
        ("vertices", len(K.vertices)),
        ("facets", K.num_facets),
    ]
    verdict = is_closed_pseudomanifold(K)
    pairs.append(("closed", "yes" if verdict.is_closed else verdict.status))
    pairs.append(("euler characteristic", euler_characteristic(K)))
    G = skeleton(K)
    ident = identify_complete_minus_matching(G)
    name = f" ({skeleton_name(*ident)})" if ident else ""
    pairs.append(("skeleton",
                  f"{G.num_vertices} vertices, {G.num_edges} edges{name}"))
    if not verdict.is_closed:
        if verdict.status == "boundary":
            pairs.append(("boundary faces", len(verdict.boundary)))
        else:
            pairs.append(("bad face",
                          f"{sorted(verdict.bad_face)} in {verdict.bad_count} facets"))
        pairs.append(("note", "not closed; partial report"))
        return pairs
    ty = complex_type(K)
    pairs.append(("type", "{" + ",".join(str(x) for x in sorted(ty)) + "}"))
    try:
        pairs.append(("classification", classify(K).to_spec()))
    except ValueError as exc:
        pairs.append(("classification", f"failed: {exc}"))
    if K.dim >= 3:
        long = long_link_faces(K, 5)
        flagged = [",".join(str(v) for v in sorted(face)) for face in long
                   if is_isometric_cycle(G, link_of_face(K, face).cycles[0])]
        pairs.append(("isometric link obstruction",
                      "; ".join(flagged) + " (skeleton not embeddable)" if flagged
                      else f"none ({len(long)} links of size >= 5)"))
    pairs.extend(_embeddability_report(G, bound))
    return pairs


def _embeddability_report(G: Graph, bound: int):
    """The four embeddability lines, probed in the order of their certificates.

    A partial-cube labelling is a cut decomposition with unit weights, and
    the Hadamard addresses of K_m - hK_2 embed it at scale N/2, so the
    cut-cone LP runs only when there is neither.  An L1 metric satisfies
    every hypermetric inequality, so the k-gonal search runs only when
    none of the three proves L1-embeddability.
    """
    try:
        labeling = partial_cube(G)
    except ValueError as exc:
        labeling, cube = None, f"skipped ({exc})"
    else:
        cube = f"yes (dimension {labeling.dimension})" if labeling else "no"
    l1 = labeling is not None or hadamard_embedding(G) is not None
    if l1:
        cone = "feasible (L1-embeddable)"
    else:
        try:
            l1 = cut_cone_decompose(G) is not None
        except GuardExceeded:
            cone = "skipped (vertex guard)"
        except ValueError as exc:
            cone = f"skipped ({exc})"
        else:
            cone = ("feasible (L1-embeddable)" if l1
                    else "infeasible (NOT embeddable at any scale)")
    if l1:
        gonal5 = hyper = "ok"
    else:
        try:
            found = kgonal_violations(G, bound)
        except ValueError as exc:
            gonal5 = hyper = f"skipped ({exc})"
        else:
            # the bound-2 (5-gonal) vectors: sum |b_i| <= 5, in the same order
            short = [v for v in found
                     if sum(abs(c) for _, c in v.coefficients) <= 5]
            gonal5 = (f"violated by b={dict(short[0].coefficients)}" if short
                      else "ok")
            hyper = (f"violated by b={dict(found[0].coefficients)}" if found
                     else "ok")
    return [("5-gonal", gonal5), (f"hypermetric (bound {bound})", hyper),
            ("cut cone", cone), ("partial cube", cube)]


def _quad_report(Q: Quadrillage, bound: int):
    pairs = [
        ("format", "quad"),
        ("vertices", Q.num_vertices),
        ("edges", Q.num_edges),
        ("faces", Q.num_faces),
        ("closed", "yes" if Q.is_closed else "boundary"),
        ("euler characteristic", Q.euler_characteristic()),
    ]
    if Q.is_closed:
        ty = quadrillage_type(Q)
        pairs.append(("type", "{" + ",".join(str(x) for x in sorted(ty)) + "}"))
    zs = zones(Q)
    pairs.append(("zones", len(zs)))
    pairs.append(("zone lengths", ",".join(str(z.length) for z in zs)))
    simple = all(zone_is_simple(Q, z) for z in zs)
    pairs.append(("zones simple", "yes" if simple else "no"))
    if simple:
        convex = all(zone_is_convex(Q, z) for z in zs)
        pairs.append(("zones convex", "yes" if convex else "no"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            embeddable = embeddable_by_zones(Q)
        except ValueError as exc:
            pairs.append(("embeddable by zones", f"skipped ({exc})"))
        else:
            pairs.append(("embeddable by zones", "yes" if embeddable else "no"))
    pairs.extend(_embeddability_report(Q.skeleton(), bound))
    return pairs


def cmd_analyze(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        text = fh.read()
    keyword = formats.detect_format(text)
    if keyword == "simplicial":
        pairs = _simplicial_report(formats.parse_complex(text), args.hypermetric_bound)
    elif keyword == "quad":
        pairs = _quad_report(formats.parse_quadrillage(text), args.hypermetric_bound)
    else:
        raise FormatError("analyze expects a simplicial or quad file; "
                          "use 'embed' for graph files")
    _print_report(pairs, tsv=args.tsv, out=sys.stdout)
    return 0


def cmd_embed(args) -> int:
    if not args.graph:
        raise FormatError("embed requires the --graph flag")
    if args.scale is not None or args.dim is not None:
        if args.scale is None or args.dim is None:
            raise FormatError("--scale and --dim must be given together")
        if args.scale < 1:
            raise FormatError("scale must be a positive integer")
        if args.dim < 0:
            raise FormatError("dim must be a non-negative integer")
    with open(args.file, encoding="utf-8") as fh:
        G = formats.parse_graph(fh.read())
    pairs = [("graph", f"{G.num_vertices} vertices, {G.num_edges} edges")]
    pairs.extend(_embeddability_report(G, args.hypermetric_bound))
    _print_report(pairs, tsv=False, out=sys.stdout)
    if args.scale is not None:
        head = f"embedding (scale {args.scale}, dim {args.dim})"
        try:
            found = find_scaled_embedding(G, args.scale, args.dim)
        except ValueError as exc:  # the path-metric of a disconnected graph
            sys.stdout.write(f"{head}: skipped ({exc})\n")
            return 0
        if found is None:
            sys.stdout.write(f"{head}: none\n")
        else:
            sys.stdout.write(f"{head}: found\n")
            for v in G.vertices:
                bits = "".join(str(b) for b in found[v])
                sys.stdout.write(f"  {v}: {bits}\n")
    return 0


def _hypermetric_bound(text: str) -> int:
    """``--hypermetric-bound``: an integer >= 2 (2 is the 5-gonal bound)."""
    if not text.isdecimal() or int(text) < 2:
        raise argparse.ArgumentTypeError(f"must be an integer >= 2, got {text!r}")
    return int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and read-only after."""
    parser = argparse.ArgumentParser(
        prog="shortlinks",
        description="Simplicial complexes with short links, zones, and "
                    "hypercube embeddability.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build-kp", help="construct K(P) from a partition")
    p_build.add_argument("--partition", required=True,
                         help="parts separated by '|', elements by ','")
    p_build.add_argument("-o", "--output", help="write the complex file here")
    p_build.set_defaults(func=cmd_build_kp)

    p_table = sub.add_parser("table", help="classification table as TSV")
    p_table.add_argument("--max-dim", type=int, required=True)
    p_table.set_defaults(func=cmd_table)

    p_analyze = sub.add_parser("analyze", help="full report on a complex file")
    p_analyze.add_argument("file")
    p_analyze.add_argument("--hypermetric-bound", type=_hypermetric_bound,
                           default=3)
    p_analyze.add_argument("--tsv", action="store_true",
                           help="machine-readable key<TAB>value output")
    p_analyze.set_defaults(func=cmd_analyze)

    p_embed = sub.add_parser("embed", help="embeddability probes on a graph file")
    p_embed.add_argument("file")
    p_embed.add_argument("--graph", action="store_true",
                         help="the file is in the graph format")
    p_embed.add_argument("--scale", type=int)
    p_embed.add_argument("--dim", type=int)
    p_embed.add_argument("--hypermetric-bound", type=_hypermetric_bound,
                         default=3)
    p_embed.set_defaults(func=cmd_embed)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.

    The parser is built on the first call; later calls in the same process
    only parse, so ``main`` can be called repeatedly in-process.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GuardExceeded as exc:
        print(f"instance too large: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # FormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
