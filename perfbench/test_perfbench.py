"""Tests of the benchmark itself: seeded inputs, metric names and units, the verdict gate."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def sl():
    return run.import_library(run.ROOT)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(sl, workload, tmp_path):
    first = workloads.make_inputs(sl, workload, 7, run.ROOT)
    again = workloads.make_inputs(sl, workload, 7, run.ROOT)
    other = workloads.make_inputs(sl, workload, 8, run.ROOT)
    assert first == again
    assert first != other
    # the same shapes, hence the same work, under every seed
    assert len(first) == len(other)
    for name, queries in (("a", first), ("b", again)):
        workloads.write_inputs(queries, tmp_path / name)
    written = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert written == sorted(p.name for p in (tmp_path / "b").iterdir())
    for f in written:
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_passes_gate_and_emits_every_metric(sl, workload, tmp_path):
    queries = workloads.make_inputs(sl, workload, 3, run.ROOT, tiny=True)
    workloads.write_inputs(queries, tmp_path)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result, details = run.measure(sl, workload, queries, tmp_path, 0, trace, [0.1])
        assert details["mismatches"] == []
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == len(queries) * (1 + trace)
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        assert all(type(v["value"]) in (int, float) for v in result["metrics"].values())


def test_gate_names_a_wrong_verdict(sl, tmp_path):
    queries = workloads.make_inputs(sl, "classify", 1, run.ROOT, tiny=True)
    q = next(q for q in queries if q["kind"] == "kp")
    verdict = workloads.run_query(sl, "classify", q, tmp_path)
    assert workloads.check(sl, "classify", q, verdict) == "decided"
    with pytest.raises(workloads.Mismatch):
        workloads.check(sl, "classify", q, {**verdict, "euler": verdict["euler"] + 2})
    phase = run.Phase()
    original = sl.euler_characteristic
    sl.euler_characteristic = lambda K: original(K) + 2
    try:
        run.run_one(sl, "classify", q, tmp_path, phase)
    finally:
        sl.euler_characteristic = original
    assert len(phase.mismatches) == 1 and phase.mismatches[0].startswith(f"{q['id']}: ")


def test_refused_symmetry_query_is_not_decided(sl, tmp_path):
    queries = workloads.make_inputs(sl, "symmetry", 1, run.ROOT, tiny=True)
    phase = run.Phase()
    for q in queries:
        run.run_one(sl, "symmetry", q, tmp_path, phase)
    assert phase.refused == 1 and phase.failed == 0 and not phase.mismatches
    assert phase.decided == len(queries) - 1


def test_tracer_restores_the_library_and_nests_spans(sl):
    before = sl.simplicial.link_of_face, sl.partitions.complex_type, sl.classify
    tracer = tracing.Tracer()
    tracer.install(sl)
    try:
        assert sl.partitions.complex_type is not before[1]
        tracer.query = 5
        sl.classify(sl.build_kp(sl.Partition.from_spec("1|2,3")))
    finally:
        tracer.uninstall()
    assert (sl.simplicial.link_of_face, sl.partitions.complex_type, sl.classify) == before
    names = [s[0] for s in tracer.spans]
    assert names[0] == "partitions.build_kp" and "partitions.classify" in names
    classify_idx = names.index("partitions.classify")
    children = {s[0] for s in tracer.spans if s[4] == classify_idx}
    assert {"simplicial.complex_type", "simplicial.characteristic_partition"} <= children
    own = tracer.self_times()
    assert all(t >= 0 for t in own) and {s[5] for s in tracer.spans} == {5}
    assert tracer.counters["partitions.facets"] == 6


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "classify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
