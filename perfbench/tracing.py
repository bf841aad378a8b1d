"""Spans around the public functions through which the library's layers call each other.

:meth:`Tracer.install` replaces each function in :data:`TRACED` by a
wrapper, in every loaded ``shortlinks`` module that holds a reference to
it, so calls between modules go through the wrapper too.  Each wrapper
records one span ``(name, start, end, busy, parent, query id)`` in memory.
``busy`` is the time spent inside the call; it differs from
``end - start`` only for generators, whose consumer runs between the
values they yield.  A span's self time is its busy time minus the busy
time of its child spans.  Nothing under ``src/`` is changed; the
wrappers exist only while a traced run is installed.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict


# layer counters, recorded from a call's arguments and result
def _classify_facets(args, result):
    return {"partitions.facets": args[0].num_facets}


def _lp_size(args, result):
    counts = {"exactlp.columns": len(args[0]), "exactlp.rows": len(args[1])}
    if result:
        counts["exactlp.den_bits"] = max(x.denominator.bit_length() for x in result)
    return counts


# (module, function, counter); all_automorphism_images is a generator.
# Functions without a metric of their own are traced so that their time
# counts as their own layer's self time, not their caller's.
TRACED = (
    ("simplicial", "link_of_face", None),
    ("simplicial", "complex_type", None),
    ("simplicial", "is_closed_pseudomanifold", None),
    ("simplicial", "euler_characteristic", None),
    ("simplicial", "characteristic_partition", None),
    ("simplicial", "are_isomorphic", None),
    ("simplicial", "skeleton", None),
    ("partitions", "classify", _classify_facets),
    ("partitions", "build_kp", None),
    ("partitions", "product_dual", None),
    ("symmetry", "automorphism_count", None),
    ("symmetry", "automorphisms", None),
    ("symmetry", "orbits", None),
    ("symmetry", "coxeter_order_bruteforce", None),
    ("_bijections", "find_bijection", None),
    ("_bijections", "all_automorphism_images", None),
    ("metric", "kgonal_violations", None),
    ("metric", "cut_cone_decompose", None),
    ("metric", "embedding_from_cuts", None),
    ("metric", "partial_cube", None),
    ("metric", "find_scaled_embedding", None),
    ("metric", "is_isometric_cycle", None),
    ("exactlp", "solve_nonnegative", _lp_size),
    ("quadrillage", "zones", None),
    ("quadrillage", "zone_is_simple", None),
    ("quadrillage", "zone_is_convex", None),
    ("quadrillage", "embeddable_by_zones", None),
    ("quadrillage", "quadrillage_type", None),
    ("formats", "detect_format", None),
    ("formats", "parse_complex", None),
    ("formats", "parse_graph", None),
    ("formats", "parse_quadrillage", None),
    ("cli", "main", None),
)
GENERATORS = {"_bijections.all_automorphism_images": "bijections.images"}
MAXIMA = {"exactlp.den_bits"}

LAYERS = ("formats", "simplicial", "partitions", "symmetry", "bijections",
          "metric", "exactlp", "quadrillage", "cli")

# per-layer metrics: name -> (unit, how, span names or counter name)
#   time: busy time of these spans per query; self: self time per query;
#   calls: spans per query; count: counter per query; max: largest value
LAYER_METRICS = {
    "simplicial.link_s": ("s/query", "time", ["simplicial.link_of_face"]),
    "simplicial.link_calls": ("calls/query", "calls", ["simplicial.link_of_face"]),
    "simplicial.type_s": ("s/query", "time", ["simplicial.complex_type"]),
    "simplicial.closed_s": ("s/query", "time", ["simplicial.is_closed_pseudomanifold"]),
    "simplicial.euler_s": ("s/query", "time", ["simplicial.euler_characteristic"]),
    "simplicial.iso_s": ("s/query", "time", ["simplicial.are_isomorphic"]),
    "partitions.classify_s": ("s/query", "time", ["partitions.classify"]),
    "partitions.build_kp_s": ("s/query", "time", ["partitions.build_kp"]),
    "partitions.facets": ("facets/query", "count", "partitions.facets"),
    "symmetry.aut_count_s": ("s/query", "time", ["symmetry.automorphism_count"]),
    "symmetry.materialize_s": ("s/query", "time", ["symmetry.automorphisms"]),
    "symmetry.orbits_s": ("s/query", "time", ["symmetry.orbits"]),
    "symmetry.cox_order_s": ("s/query", "time", ["symmetry.coxeter_order_bruteforce"]),
    "bijections.images": ("images/query", "count", "bijections.images"),
    "bijections.find_s": ("s/query", "time", ["_bijections.find_bijection"]),
    "exactlp.solve_s": ("s/query", "time", ["exactlp.solve_nonnegative"]),
    "exactlp.columns": ("columns/query", "count", "exactlp.columns"),
    "exactlp.rows": ("rows/query", "count", "exactlp.rows"),
    "exactlp.den_bits": ("bits", "max", "exactlp.den_bits"),
    "metric.cut_cone_s": ("s/query", "time", ["metric.cut_cone_decompose"]),
    "metric.embedding_from_cuts_s": ("s/query", "time", ["metric.embedding_from_cuts"]),
    "metric.kgonal_s": ("s/query", "time", ["metric.kgonal_violations"]),
    "metric.kgonal_calls": ("calls/query", "calls", ["metric.kgonal_violations"]),
    "metric.partial_cube_s": ("s/query", "time", ["metric.partial_cube"]),
    "metric.scaled_embedding_s": ("s/query", "time", ["metric.find_scaled_embedding"]),
    "quadrillage.zones_s": ("s/query", "time", ["quadrillage.zones"]),
    "quadrillage.convex_s": ("s/query", "time", ["quadrillage.zone_is_convex"]),
    "quadrillage.criterion_s": ("s/query", "time", ["quadrillage.embeddable_by_zones"]),
    "formats.parse_s": ("s/query", "time", ["formats.detect_format", "formats.parse_complex",
                                            "formats.parse_graph", "formats.parse_quadrillage"]),
    "cli.self_s": ("s/query", "self", ["cli.main"]),
}


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0].lstrip("_")


class Tracer:
    """Span recorder; ``query`` is the id stamped on the spans being recorded."""

    def __init__(self) -> None:
        self.spans = []
        self.counters = defaultdict(int)
        self.query = None
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, counter):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, end - start, parent, self.query)
            if counter is not None:
                for key, value in counter(args, result).items():
                    if key in MAXIMA:
                        counters[key] = max(counters[key], value)
                    else:
                        counters[key] += value
            return result

        return traced

    def _wrap_generator(self, name, fn, count_key):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            start = clock()
            busy, count = 0.0, 0
            try:
                while True:
                    stack.append(idx)
                    t0 = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        break
                    finally:
                        busy += clock() - t0
                        stack.pop()
                    count += 1
                    yield item
            finally:
                spans[idx] = (name, start, clock(), busy, parent, self.query)
                counters[count_key] += count

        return traced

    def install(self, package) -> None:
        """Wrap every traced function wherever a ``shortlinks`` module refers to it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package.__name__
                                         or key.startswith(package.__name__ + "."))]
        for module_name, func_name, counter in TRACED:
            home = sys.modules.get(f"{package.__name__}.{module_name}")
            original = getattr(home, func_name, None)
            if original is None:
                continue  # renamed or removed: its metrics read 0
            name = f"{module_name}.{func_name}"
            if name in GENERATORS:
                wrapper = self._wrap_generator(name, original, GENERATORS[name])
            else:
                wrapper = self._wrap(name, original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def self_times(self) -> list:
        """Self time of every span, in span order."""
        own = [span[3] for span in self.spans]
        for span in self.spans:
            if span[4] >= 0:
                own[span[4]] -= span[3]
        return own

    def layer_metrics(self, queries: int, query_time: float) -> dict:
        """Per-layer metrics over ``queries`` traced queries taking ``query_time`` s."""
        busy = defaultdict(float)
        calls = defaultdict(int)
        own_by_span = defaultdict(float)
        own_by_layer = defaultdict(float)
        root_busy = 0.0
        for span, own in zip(self.spans, self.self_times()):
            busy[span[0]] += span[3]
            calls[span[0]] += 1
            own_by_span[span[0]] += own
            own_by_layer[layer_of(span[0])] += own
            if span[4] < 0:
                root_busy += span[3]
        per = max(queries, 1)
        out = {}
        for metric, (unit, how, source) in LAYER_METRICS.items():
            if how == "time":
                value = sum(busy[s] for s in source) / per
            elif how == "self":
                value = sum(own_by_span[s] for s in source) / per
            elif how == "calls":
                value = sum(calls[s] for s in source) / per
            elif how == "count":
                value = self.counters[source] / per
            else:
                value = self.counters[source]
            out[metric] = (value, unit)
        total = query_time or 1.0
        for layer in LAYERS:
            out[f"{layer}.self_share"] = (100.0 * own_by_layer[layer] / total, "%")
        out["bench.self_share"] = (100.0 * (query_time - root_busy) / total, "%")
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, busy, parent, query."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def tree(self) -> list:
        """Indented lines aggregating sibling spans with the same name."""
        own = self.self_times()
        children = defaultdict(list)
        for idx, span in enumerate(self.spans):
            children[span[4]].append(idx)
        lines = []

        def walk(parents, depth):
            groups = defaultdict(list)
            for p in parents:
                for c in children.get(p, ()):
                    groups[self.spans[c][0]].append(c)
            for name, members in groups.items():
                total = sum(self.spans[c][3] for c in members)
                self_total = sum(own[c] for c in members)
                lines.append(f"{'  ' * depth}{name} x{len(members)}  "
                             f"{1000 * total:.3f} ms (self {1000 * self_total:.3f} ms)")
                walk(members, depth + 1)

        walk([-1], 0)
        return lines
