"""Benchmark for shortlinks: one client asking a batch of exact questions.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload classify --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36   # one table
    python3 perfbench/run.py --workload analyze --seed 1 --list
    python3 perfbench/run.py --workload analyze --seed 1 --query 17   # one query, traced

The load is a closed loop with one client: the next query starts when the
previous verdict is back.  A run sets up (imports ``shortlinks`` from
``src/``, generates the seeded inputs and writes them under
``perfbench/_out/``), then repeats whole passes over the workload's
queries for about ``--seconds``.  A query's latency is the least of its
repetitions.  Every verdict is checked against a known answer; a mismatch
names the query and fails the run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes that record spans, and prints the per-layer
metrics and the tracing overhead.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 9
END_TO_END = {
    "setup_s": "s", "queries_per_s": "1/s", "query_p50_ms": "ms",
    "query_p90_ms": "ms", "decided_ratio": "ratio", "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The checkout cannot be benchmarked (missing sources or fixtures)."""


def import_library(root: Path):
    src = root / "src"
    if not (src / "shortlinks" / "__init__.py").is_file():
        raise BenchError(f"no shortlinks sources under {src}")
    if not (root / "fixtures" / "figure1.txt").is_file():
        raise BenchError(f"no fixtures under {root}")
    sys.path.insert(0, str(src))
    import shortlinks
    import shortlinks.cli
    import shortlinks.formats  # noqa: F401
    if not Path(shortlinks.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"shortlinks imported from {shortlinks.__file__}, not {src}")
    return shortlinks


def workdir_for(workload: str, seed: int) -> Path:
    return HERE / "_out" / f"{workload}-{seed}"


def setup(workload: str, seed: int, tiny: bool = False):
    """Import the library, generate and write the inputs; return (sl, queries, seconds)."""
    start = time.perf_counter()
    sl = import_library(ROOT)
    queries = workloads.make_inputs(sl, workload, seed, ROOT, tiny)
    workloads.write_inputs(queries, workdir_for(workload, seed))
    return sl, queries, time.perf_counter() - start


def setup_in_fresh_interpreter(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"set-up failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Phase:
    """Outcome counts and latencies of whole passes over the queries."""

    def __init__(self) -> None:
        self.latencies = []
        self.decided = self.refused = self.failed = 0
        self.query_time = 0.0
        self.passes = 0
        self.mismatches = []

    def best_latencies(self, per_pass: int) -> list:
        """Each query's least latency over the passes, in query order.

        On a shared virtual machine the speed of a fixed loop can change by
        up to 1.7x over seconds to minutes; the least of a query's
        repetitions is the one least disturbed by other load.
        """
        return [min(self.latencies[i::per_pass]) for i in range(per_pass)]

    def run_pass(self, sl, workload, queries, workdir, tracer=None) -> None:
        if tracer is not None:
            tracer.install(sl)
        try:
            for q in queries:
                run_one(sl, workload, q, workdir, self, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.passes += 1


def run_one(sl, workload, q, workdir, phase: Phase, tracer=None) -> None:
    if tracer is not None:
        tracer.query = q["id"]
    t0 = time.perf_counter()
    try:
        verdict = workloads.run_query(sl, workload, q, workdir)
        outcome = None
    except workloads.Refused:
        outcome = "refused"
    except Exception:  # a crash is an undecided query, reported, not fatal
        outcome = "failed"
        print(f"query {workloads.describe(q)} raised:\n{traceback.format_exc()}",
              file=sys.stderr)
    elapsed = time.perf_counter() - t0
    phase.latencies.append(elapsed)
    phase.query_time += elapsed
    if outcome is None:
        try:
            outcome = workloads.check(sl, workload, q, verdict)
        except workloads.Mismatch as exc:
            outcome = "decided"
            phase.mismatches.append(f"{workloads.describe(q)}: {exc}")
    if outcome == "decided":
        phase.decided += 1
    elif outcome == "refused":
        phase.refused += 1
    else:
        phase.failed += 1


def run_phases(sl, workload, queries, workdir, seconds, tracer=None):
    """Whole passes until about ``seconds`` have passed: (plain, traced or None).

    With a tracer, untraced and traced passes alternate, so both see the
    same changes in machine speed.  The run stops when one more round of
    passes would end more than half a round after ``seconds``.
    """
    plain = Phase()
    traced = Phase() if tracer is not None else None
    start = time.perf_counter()
    while True:
        plain.run_pass(sl, workload, queries, workdir)
        if traced is not None:
            traced.run_pass(sl, workload, queries, workdir, tracer)
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 0.5 / plain.passes) >= seconds:
            return plain, traced


def percentile(values, fraction) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args, queries) -> dict:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": os.cpu_count(), "commit": git_commit(ROOT),
            "src_lines": src_lines, "queries_per_pass": len(queries),
            "machine": platform.machine()}


def emit(result: dict, meta: dict, latencies: list, out_file: Path) -> None:
    """Print the metrics, the metadata and the result line; keep all of it in a file."""
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print("meta: " + json.dumps(meta, sort_keys=True))
    out_file.parent.mkdir(parents=True, exist_ok=True)
    out_file.write_text(json.dumps({**result, "meta": meta, "latencies_s": latencies},
                                   indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))


def probe(sl, args, queries, workdir) -> int:
    """Run one query traced and print its span tree."""
    chosen = [q for q in queries if q["id"] == args.query]
    if not chosen:
        print(f"no query {args.query}; use --list", file=sys.stderr)
        return 2
    q = chosen[0]
    tracer = tracing.Tracer()
    phase = Phase()
    phase.run_pass(sl, args.workload, [q], workdir, tracer)
    print(workloads.describe(q))
    print(f"latency {1000 * phase.latencies[0]:.3f} ms, "
          f"{'decided' if phase.decided else 'refused' if phase.refused else 'failed'}")
    for line in tracer.tree():
        print("  " + line)
    for m in phase.mismatches:
        print("MISMATCH " + m, file=sys.stderr)
    metrics = tracer.layer_metrics(1, phase.query_time)
    result = {"correct": not phase.mismatches, "attempted": 1, "failed": phase.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def measure(sl, workload, queries, workdir, seconds, trace, setup_samples):
    """Run the measured phases; return the result and the details behind it."""
    tracer = tracing.Tracer() if trace else None
    plain, traced = run_phases(sl, workload, queries, workdir, seconds, tracer)
    measured = traced or plain
    phases = [plain, traced] if trace else [plain]

    best = measured.best_latencies(len(queries))
    qps = len(best) / sum(best)
    details = {"passes": measured.passes, "samples": len(best),
               "refused": measured.refused, "setup_samples_s": setup_samples,
               "mismatches": [m for p in phases for m in p.mismatches],
               "latencies_s": measured.latencies}
    if trace:
        plain_best = plain.best_latencies(len(queries))
        plain_qps = len(plain_best) / sum(plain_best)
        details["untraced_queries_per_s"] = plain_qps
        metrics = tracer.layer_metrics(len(measured.latencies), measured.query_time)
        metrics["trace.overhead_pct"] = (100.0 * (plain_qps - qps) / plain_qps, "%")
        tracer.write(workdir / "spans.jsonl")
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "queries_per_s": qps,
            "query_p50_ms": 1000 * statistics.median(best),
            "query_p90_ms": 1000 * percentile(best, 0.9),
            "decided_ratio": measured.decided / len(measured.latencies),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: (v, END_TO_END[k]) for k, v in metrics.items()}
    result = {"correct": not details["mismatches"],
              "attempted": sum(len(p.latencies) for p in phases),
              "failed": sum(p.failed for p in phases),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, details


def run_workload(args) -> int:
    sl, queries, own_setup = setup(args.workload, args.seed)
    workdir = workdir_for(args.workload, args.seed)
    if args.list:
        for q in queries:
            print(workloads.describe(q))
        return 0
    if args.query is not None:
        return probe(sl, args, queries, workdir)
    samples = [own_setup] + [setup_in_fresh_interpreter(args.workload, args.seed)
                             for _ in range(SETUP_SAMPLES - 1)]
    result, details = measure(sl, args.workload, queries, workdir, args.seconds,
                              args.trace, samples)
    for m in details["mismatches"]:
        print("MISMATCH " + m, file=sys.stderr)
    latencies = details.pop("latencies_s")
    meta = {**metadata(args, queries), **details}
    emit(result, meta, latencies, workdir / f"result-trace{args.trace}.json")
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own fresh interpreter, then one table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"{workload}: no result (exit {proc.returncode})", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
            rows.append(f"{workload:9s} {name:32s} {m['value']:.6g} {m['unit']}")
    print("\n".join(rows))
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--query", type=int, help="run this query id once, traced")
    parser.add_argument("--list", action="store_true", help="list the query ids")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup(args.workload, args.seed)[2]}))
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
