import argparse
import contextlib
import io
import itertools
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from shortlinks import (Graph, Partition, build_kp, cli, complete_minus_cycle,
                        complete_minus_matching, formats, grid, kp_summary,
                        quadrillage, symmetry)
from shortlinks.cli import _verify_row, main, skeleton_name
from shortlinks.formats import parse_complex

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def golden(name: str) -> str:
    return (FIXTURES / "golden" / name).read_text(encoding="utf-8")


class TestBuildKp:
    def test_writes_file_and_summary(self, capsys, tmp_path):
        out_file = tmp_path / "kp.txt"
        code, out, err = run_cli(capsys, "build-kp", "--partition", "1|2,3",
                                 "-o", str(out_file))
        assert code == 0
        assert "facets: 6" in out
        assert "skeleton: K5-K2" in out
        K = parse_complex(out_file.read_text())
        assert K.num_facets == 6

    def test_stdout_mode(self, capsys):
        code, out, err = run_cli(capsys, "build-kp", "--partition", "1|2|3|4|5")
        assert code == 0
        assert out.startswith("simplicial 4\n")
        assert len(out.strip().splitlines()) == 33  # header + 32 facets
        assert "facets: 32" in err

    def test_bad_partition_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "build-kp", "--partition", "1|x")
        assert code == 2
        assert "error" in err

    def test_gap_partition_exit_2(self, capsys, tmp_path):
        out_file = tmp_path / "f"
        code, out, err = run_cli(capsys, "build-kp", "--partition", "1|3",
                                 "-o", str(out_file))
        assert code == 2
        assert (out, err) == ("", "error: partition must cover {1..2} with no "
                                  "gaps, got 1|3\n")
        assert not out_file.exists()


class TestTable:
    def test_golden_dim4(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--max-dim", "4")
        assert code == 0
        golden = (FIXTURES / "table_dim4.tsv").read_text(encoding="utf-8")
        assert out == golden

    def test_golden_dim6(self, capsys):
        # the verified column reads every chain's generators; two rows
        # stay "-" past the 12-vertex guard
        code, out, _ = run_cli(capsys, "table", "--max-dim", "6")
        assert code == 0
        golden = (FIXTURES / "table_dim6.tsv").read_text(encoding="utf-8")
        assert out == golden

    def test_dim2_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--max-dim", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4  # header + p(3) rows
        assert lines[0].split("\t")[0] == "partition"

    def test_range_check(self, capsys):
        code, _, _ = run_cli(capsys, "table", "--max-dim", "9")
        assert code == 2


def golden_cases() -> list:
    """(golden file name, argv): ``analyze`` plain and ``--tsv`` on every
    simplicial and quad fixture, ``embed --graph`` on every graph fixture,
    four ``embed --scale --dim`` runs, two of which print addresses and one
    of which needs a distance above ``dim``, and the 15-cycle past the
    cut-cone vertex guard at hypermetric bound 2."""
    cases = [(f"{stem}.embed_scale{scale}_dim{dim}.txt",
              ["embed", str(FIXTURES / f"{stem}.txt"), "--graph",
               "--scale", str(scale), "--dim", str(dim)])
             for stem, scale, dim in [("k5_k2", 2, 4), ("k6_3k2", 2, 6),
                                      ("k5_k2", 1, 4), ("k5_k2", 2, 2)]]
    cases.append(("c15.embed_bound2.txt", ["embed", str(FIXTURES / "c15.txt"),
                                           "--graph", "--hypermetric-bound", "2"]))
    for path in sorted(FIXTURES.glob("*.txt")):
        keyword = path.read_text(encoding="utf-8").split(maxsplit=1)[0]
        if keyword == "graph":
            cases.append((f"{path.stem}.embed.txt", ["embed", str(path), "--graph"]))
        elif keyword in ("simplicial", "quad"):
            cases.append((f"{path.stem}.analyze.txt", ["analyze", str(path)]))
            cases.append((f"{path.stem}.analyze.tsv", ["analyze", str(path), "--tsv"]))
    return [pytest.param(name, argv, id=name) for name, argv in cases]


@pytest.mark.parametrize("name,argv", golden_cases())
def test_golden_output(capsys, name, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == golden(name)


class TestAnalyze:
    def test_figure1_report(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", str(FIXTURES / "figure1.txt"))
        assert code == 0
        assert "type: {3,4,5}" in out
        assert "closed: yes" in out
        assert "(K7-K2)" in out
        assert "classification: failed" in out
        assert "isometric link obstruction: none" in out
        assert "cut cone: feasible" in out

    def test_octahedron_report(self, capsys):
        code, out, _ = run_cli(capsys, "analyze",
                               str(FIXTURES / "octahedron.txt"))
        assert code == 0
        assert "type: {4}" in out
        assert "classification: 1|2|3" in out

    def test_quad_report(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", str(FIXTURES / "cube.txt"))
        assert code == 0
        assert "zones: 3" in out
        assert "zones simple: yes" in out
        assert "zones convex: yes" in out
        assert "embeddable by zones: yes" in out

    def test_quad_report_decides_each_zone_once(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "grid.txt"
        path.write_text(formats.serialize_quadrillage(grid(3, 4)), encoding="utf-8")
        bands, graphs = [], []
        band = quadrillage.zone_band
        monkeypatch.setattr(quadrillage, "zone_band",
                            lambda Q, z: bands.append(z) or band(Q, z))
        monkeypatch.setattr(quadrillage, "Graph",
                            lambda *a: graphs.append(a) or Graph(*a))
        code, out, _ = run_cli(capsys, "analyze", str(path))
        assert code == 0
        assert "zones: 7" in out and "embeddable by zones: yes" in out
        assert len(bands) == len(set(bands)) == 7
        # the skeleton, then one band per zone
        assert len(graphs) == 1 + 7

    def test_quad_report_traces_the_zones_once(self, capsys, monkeypatch):
        # the zone walker is the only caller of boundary_edges
        calls = []
        boundary_edges = quadrillage.Quadrillage.boundary_edges
        monkeypatch.setattr(quadrillage.Quadrillage, "boundary_edges",
                            lambda Q: calls.append(Q) or boundary_edges(Q))
        code, out, _ = run_cli(capsys, "analyze", str(FIXTURES / "grid_5x5.txt"))
        assert code == 0
        assert "zones: 10" in out and "embeddable by zones: yes" in out
        assert len(calls) == 1

    def test_tsv_mode(self, capsys):
        code, out, _ = run_cli(capsys, "analyze",
                               str(FIXTURES / "octahedron.txt"), "--tsv")
        assert code == 0
        assert "type\t{4}" in out

    def test_boundary_complex_partial_report(self, capsys, tmp_path):
        f = tmp_path / "open.txt"
        f.write_text("simplicial 2\n1 2 3\n")
        code, out, _ = run_cli(capsys, "analyze", str(f))
        assert code == 0
        assert "closed: boundary" in out
        assert "partial report" in out
        assert "type:" not in out

    def test_graph_file_rejected(self, capsys):
        code, _, err = run_cli(capsys, "analyze", str(FIXTURES / "k7_c5.txt"))
        assert code == 2
        assert "embed" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "/nonexistent/x.txt")
        assert code == 2
        assert err.startswith("error: ")

    def test_parse_error(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("simplicial 2\n1 2\n")
        code, _, _ = run_cli(capsys, "analyze", str(f))
        assert code == 2


class TestEmbed:
    def test_k7_c5_probes(self, capsys):
        code, out, _ = run_cli(capsys, "embed", str(FIXTURES / "k7_c5.txt"),
                               "--graph")
        assert code == 0
        assert "5-gonal: ok" in out
        assert "hypermetric (bound 3): ok" in out
        assert "infeasible" in out
        assert "partial cube: no" in out

    def test_k5_k3_violation_witness(self, capsys):
        code, out, _ = run_cli(capsys, "embed", str(FIXTURES / "k5_k3.txt"),
                               "--graph")
        assert code == 0
        assert "5-gonal: violated by b=" in out

    def test_scaled_embedding_addresses(self, capsys):
        code, out, _ = run_cli(capsys, "embed", str(FIXTURES / "k5_k2.txt"),
                               "--graph", "--scale", "2", "--dim", "4")
        assert code == 0
        assert "embedding (scale 2, dim 4): found" in out
        addresses = [line.split(": ")[1] for line in out.splitlines()
                     if line.startswith("  ")]
        assert len(addresses) == 5
        assert all(len(a) == 4 and set(a) <= {"0", "1"} for a in addresses)

    def test_requires_graph_flag(self, capsys):
        code, _, _ = run_cli(capsys, "embed", str(FIXTURES / "k5_k2.txt"))
        assert code == 2

    def test_scale_without_dim(self, capsys):
        code, _, _ = run_cli(capsys, "embed", str(FIXTURES / "k5_k2.txt"),
                             "--graph", "--scale", "2")
        assert code == 2

    def test_nonpositive_scale_is_an_input_error_before_the_guards(self, capsys):
        # dimension 20 is past the guard, but the scale is checked first
        code, _, err = run_cli(capsys, "embed", str(FIXTURES / "k5_k3.txt"),
                               "--graph", "--scale", "0", "--dim", "20")
        assert code == 2
        assert err == "error: scale must be a positive integer\n"

    @pytest.mark.parametrize("flags, message", [
        (["--scale", "0", "--dim", "20"], "scale must be a positive integer"),
        (["--scale", "2"], "--scale and --dim must be given together"),
        (["--dim", "3"], "--scale and --dim must be given together"),
        (["--scale", "1", "--dim", "-1"], "dim must be a non-negative integer"),
    ])
    def test_scale_and_dim_are_checked_before_any_report(self, capsys, flags,
                                                         message):
        for path in (FIXTURES / "k5_k3.txt", FIXTURES / "missing.txt"):
            code, out, err = run_cli(capsys, "embed", str(path), "--graph", *flags)
            assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_builds_one_stabilizer_chain(self, capsys, chain_builds):
        # the cut-cone LP builds the chain and the k-gonal search reads it
        code, out, _ = run_cli(capsys, "embed", str(FIXTURES / "k7_c5.txt"),
                               "--graph")
        assert code == 0 and "infeasible" in out
        assert len(chain_builds) == 1

    def test_guard_exit_3(self, capsys, tmp_path):
        from shortlinks import complete_graph
        from shortlinks.formats import serialize_graph
        f = tmp_path / "k9.txt"
        f.write_text(serialize_graph(complete_graph(9)))
        code, _, err = run_cli(capsys, "embed", str(f), "--graph",
                               "--scale", "2", "--dim", "4")
        assert code == 3
        assert "instance too large" in err


class TestCertificateOrder:
    def test_partial_cube_past_the_cut_cone_guard(self, capsys):
        code, out, err = run_cli(capsys, "analyze",
                                 str(FIXTURES / "dual_cuboctahedron.txt"))
        assert code == 0 and err == ""
        report = report_lines(out)
        assert report["vertices"] == "14"
        assert report["cut cone"] == "feasible (L1-embeddable)"
        assert report["partial cube"] == "yes (dimension 4)"
        assert report["5-gonal"] == report["hypermetric (bound 3)"] == "ok"

    def test_l1_graphs_skip_the_kgonal_search(self, capsys, tmp_path, monkeypatch):
        def refuse(G, bound):
            raise AssertionError("k-gonal search run on an L1-embeddable graph")
        monkeypatch.setattr(cli, "kgonal_violations", refuse)
        Q = grid(5, 5)  # 36 vertices, a partial cube
        f = tmp_path / "grid55.txt"
        f.write_text(f"quad {Q.num_vertices}\n"
                     + "".join(" ".join(map(str, face)) + "\n" for face in Q.faces))
        code, out, err = run_cli(capsys, "analyze", str(f))
        assert code == 0 and err == ""
        report = report_lines(out)
        assert report["partial cube"] == "yes (dimension 10)"
        assert report["cut cone"] == "feasible (L1-embeddable)"
        assert report["5-gonal"] == report["hypermetric (bound 3)"] == "ok"
        # K6 - 3K2 is not a partial cube; its cut decomposition decides
        code, out, err = run_cli(capsys, "embed", str(FIXTURES / "k6_3k2.txt"),
                                 "--graph")
        assert code == 0 and err == ""
        assert report_lines(out)["partial cube"] == "no"
        assert report_lines(out)["hypermetric (bound 3)"] == "ok"

    def test_complete_minus_matchings_skip_the_lp(self, capsys, monkeypatch):
        class LpCalled(Exception):
            pass

        def refuse(G):
            raise LpCalled
        monkeypatch.setattr(cli, "cut_cone_decompose", refuse)
        for argv in (["analyze", str(FIXTURES / "kp_1_23.txt")],
                     ["embed", str(FIXTURES / "k5_k2.txt"), "--graph"],
                     ["embed", str(FIXTURES / "k6_3k2.txt"), "--graph"]):
            code, out, err = run_cli(capsys, *argv)
            assert code == 0 and err == ""
            assert report_lines(out)["cut cone"] == "feasible (L1-embeddable)"
        # K7 - C5 is not K_m - hK_2, so the LP still decides it
        with pytest.raises(LpCalled):
            main(["embed", str(FIXTURES / "k7_c5.txt"), "--graph"])

    def test_complete_minus_matching_past_the_cut_cone_guard(self, capsys, tmp_path):
        f = tmp_path / "kp7.txt"
        f.write_text(formats.serialize_complex(
            build_kp(Partition.from_spec("1|2|3|4|5|6|7"))))
        code, out, err = run_cli(capsys, "analyze", str(f))
        assert code == 0 and err == ""
        report = report_lines(out)
        assert report["skeleton"] == "14 vertices, 84 edges (K14-7K2)"
        assert report["cut cone"] == "feasible (L1-embeddable)"
        assert report["5-gonal"] == report["hypermetric (bound 3)"] == "ok"

    @pytest.mark.parametrize("name", ["c15.embed.txt", "c15.embed_bound2.txt"])
    def test_other_graphs_past_the_guard_are_skipped(self, name):
        # the golden runs check the whole output; this names the line
        assert "cut cone: skipped (vertex guard)\n" in golden(name)

    @pytest.mark.parametrize("bound", ["1", "0", "x"])
    def test_hypermetric_bound_below_two_is_an_input_error(self, capsys, bound):
        with pytest.raises(SystemExit) as exc:
            main(["embed", str(FIXTURES / "k5_k2.txt"), "--graph",
                  "--hypermetric-bound", bound])
        assert exc.value.code == 2
        assert "--hypermetric-bound" in capsys.readouterr().err

    def test_hypermetric_bound_of_a_non_decimal_digit(self, capsys):
        # '²'.isdigit() holds but int('²') fails; the message names the flag
        with pytest.raises(SystemExit) as exc:
            main(["embed", str(FIXTURES / "k5_k2.txt"), "--graph",
                  "--hypermetric-bound", "²"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "must be an integer >= 2, got '²'" in err
        assert "_hypermetric_bound" not in err


DISCONNECTED = "skipped (graph is disconnected; the path-metric is undefined)"
EMBEDDABILITY_KEYS = ("5-gonal", "hypermetric (bound 3)", "cut cone",
                      "partial cube")


def report_lines(out: str) -> dict:
    return dict(line.split(": ", 1) for line in out.splitlines()
                if not line.startswith("  "))


class TestDisconnectedInput:
    def test_dim1_triangle_and_square(self, capsys, tmp_path):
        f = tmp_path / "tri_sq.txt"
        f.write_text("simplicial 1\n1 2\n2 3\n1 3\n4 5\n5 6\n6 7\n4 7\n")
        code, out, err = run_cli(capsys, "analyze", str(f))
        assert code == 0 and err == ""
        report = report_lines(out)
        assert report["type"] == "{3,4}"
        assert report["classification"].startswith("failed")
        assert report["5-gonal"] == DISCONNECTED
        assert report["hypermetric (bound 3)"] == DISCONNECTED
        assert report["cut cone"] == DISCONNECTED
        assert report["partial cube"].startswith("skipped")

    def test_dim1_triangle_and_square_is_not_called_corrupt(self, capsys, tmp_path):
        f = tmp_path / "tri_sq.txt"
        f.write_text("simplicial 1\n1 2\n2 3\n1 3\n4 5\n5 6\n6 7\n4 7\n")
        code, out, err = run_cli(capsys, "analyze", str(f))
        assert code == 0 and err == ""
        report = report_lines(out)
        assert report["closed"].startswith("yes")
        assert report["classification"] == (
            "failed: not of the K(P) form: facets disagree on the "
            "characteristic partition")
        assert "corrupt" not in out

    def test_quad_with_isolated_vertices(self, capsys, tmp_path):
        f = tmp_path / "quad6.txt"
        f.write_text("quad 6\n1 2 3 4\n")
        code, out, err = run_cli(capsys, "analyze", str(f))
        assert code == 0 and err == ""
        report = report_lines(out)
        assert report["zones"] == "2"
        assert report["zones convex"] == "yes"
        assert report["embeddable by zones"] == DISCONNECTED
        assert report["5-gonal"] == DISCONNECTED
        assert report["hypermetric (bound 3)"] == DISCONNECTED

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="reads the peak RSS from /proc")
    @pytest.mark.parametrize("argv, text", [
        (["embed", "--graph"], "graph 4000\n1 2\n"),
        (["analyze"], "quad 4000\n1 2 3 4\n")], ids=["graph", "quad"])
    def test_one_item_in_a_large_header_reads_few_rows(self, tmp_path, argv, text):
        # 4000 rows of 4000 cells would peak near 140 MB.  VmHWM, not
        # ru_maxrss, which keeps the peak of the process that forked it
        f = tmp_path / "large.txt"
        f.write_text(text)
        proc = run_fresh("-c", "import sys\n"
                         "from shortlinks.cli import main\n"
                         "code = main(sys.argv[1:])\n"
                         "print(open('/proc/self/status').read().split('VmHWM:')[1]"
                         ".split()[0])\n"
                         "sys.exit(code)", argv[0], str(f), *argv[1:])
        assert proc.returncode == 0 and proc.stderr == ""
        *lines, peak_kib = proc.stdout.splitlines()
        report = report_lines("\n".join(lines))
        assert [report[key] for key in EMBEDDABILITY_KEYS] == [
            DISCONNECTED, DISCONNECTED, "skipped (vertex guard)",
            "skipped (partial-cube recognition needs a connected graph)"]
        if argv[0] == "analyze":
            assert report["embeddable by zones"] == DISCONNECTED
        assert int(peak_kib) < 40 * 1024

    def test_embed_two_triangles(self, capsys, tmp_path):
        f = tmp_path / "two_triangles.txt"
        f.write_text("graph 6\n1 2\n2 3\n1 3\n4 5\n5 6\n4 6\n")
        code, out, err = run_cli(capsys, "embed", str(f), "--graph")
        assert code == 0 and err == ""
        report = report_lines(out)
        assert report["5-gonal"] == DISCONNECTED
        assert report["hypermetric (bound 3)"] == DISCONNECTED
        assert report["cut cone"] == DISCONNECTED
        assert report["partial cube"].startswith("skipped")
        code, out, err = run_cli(capsys, "embed", str(f), "--graph",
                                 "--scale", "2", "--dim", "4")
        assert code == 0 and err == ""
        assert report_lines(out)["embedding (scale 2, dim 4)"] == DISCONNECTED
        code, _, err = run_cli(capsys, "embed", str(f), "--graph",
                               "--scale", "0", "--dim", "4")
        assert code == 2 and "scale must be a positive integer" in err


@st.composite
def graph_file(draw):
    """A 'graph' file on at most 7 vertices, any edge set."""
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return "".join([f"graph {n}\n", *(f"{u} {v}\n" for u, v in edges)])


@st.composite
def cycles_file(draw):
    """A closed 1-dimensional 'simplicial' file: disjoint cycles on <= 7 vertices."""
    labels = draw(st.permutations(range(1, 8)))
    lengths = draw(st.sampled_from([(3,), (4,), (5,), (6,), (7,), (3, 3), (3, 4)]))
    lines = ["simplicial 1\n"]
    start = 0
    for length in lengths:
        cyc = labels[start:start + length]
        lines.extend(f"{cyc[k]} {cyc[(k + 1) % length]}\n" for k in range(length))
        start += length
    return "".join(lines)


def run_on_file(text: str, command: str, *flags) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.txt"
        path.write_text(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path), *flags])
    return code, out.getvalue(), err.getvalue()


class TestCliFuzz:
    @given(graph_file())
    @settings(max_examples=40, deadline=None)
    def test_embed_reports_every_section(self, text):
        code, out, err = run_on_file(text, "embed", "--graph")
        assert code == 0 and err == ""
        assert all(key in report_lines(out) for key in EMBEDDABILITY_KEYS)

    @given(cycles_file())
    @settings(max_examples=25, deadline=None)
    def test_analyze_reports_every_section(self, text):
        code, out, err = run_on_file(text, "analyze")
        assert code == 0 and err == ""
        assert all(key in report_lines(out) for key in EMBEDDABILITY_KEYS)


FUZZ_BASES = ["simplex3.txt", "octahedron.txt", "k5_k2.txt", "two_triangles.txt",
              "cube.txt", "grid_2x3.txt"]
BLANK_FILES = ["", "\n", "# nothing here\n", "# a\n\n   # b\n"]
BAD_TOKENS = ["x", "1.5", "0x3", "-", "2a", "1e3"]


def file_text(header, rows) -> str:
    return "".join(" ".join(map(str, tokens)) + "\n" for tokens in [header, *rows])


def malform(rng: random.Random, header: list, rows: list) -> None:
    """Apply one random malformation to a tokenized file, in place."""
    n = int(header[1]) if len(header) > 1 and str(header[1]).isdigit() else 4
    row = rng.choice(rows) if rows else [0]
    j = rng.randrange(len(row))
    kind = rng.randrange(11)
    if kind == 0:
        row[j] = rng.choice(BAD_TOKENS)
    elif kind == 1:
        del row[j]  # a missing id
    elif kind == 2:
        row.append(rng.randint(1, n + 2))  # an extra id
    elif kind == 3:
        row[j] = rng.choice([0, -1, -7, n + 1, n + 9])
    elif kind == 4:
        row[j] = row[j - 1]  # a repeated id: a loop on an edge line
    elif kind == 5:
        rows.append(list(row))  # a duplicate face
    elif kind == 6:
        # a new face on the edge row[0]-row[1]: on the cube, an edge in 3 quads
        rows.append([*row[:2], n + 1, n + 2])
        header[1:] = [n + 2]
    elif kind == 7:
        header[1:] = [rng.randint(0, 20)]
    elif kind == 8:
        rows.clear()
    elif kind == 9:
        header[0] = rng.choice(["simplicial", "graph", "quad", "polytope"])
    else:
        header[1:] = rng.choice([[], [n, n], [rng.choice(BAD_TOKENS)]])


def valid_quad_file(rng: random.Random) -> str:
    """A nonempty set of faces of a small quadrillage, relabelled at random."""
    Q = rng.choice([quadrillage.cube(), grid(2, 2), grid(2, 3), grid(1, 4)])
    faces = rng.sample(Q.faces, rng.randint(1, Q.num_faces))
    perm = rng.sample(range(1, Q.num_vertices + 1), Q.num_vertices)
    return file_text(["quad", Q.num_vertices], [[perm[v - 1] for v in f] for f in faces])


def fuzz_files(seed: int, count: int) -> list:
    """(text, is a valid quad file): blank files, valid quad files, and
    fixtures with one to three malformations."""
    rng = random.Random(seed)
    files = []
    for i in range(count):
        if i % 10 == 0:
            files.append((rng.choice(BLANK_FILES), False))
        elif i % 10 in (1, 2):
            files.append((valid_quad_file(rng), True))
        else:
            header, *rows = [line.split() for line in
                             (FIXTURES / rng.choice(FUZZ_BASES)).read_text().splitlines()]
            for _ in range(rng.randint(1, 3)):
                malform(rng, header, rows)
            files.append((file_text(header, rows), False))
    return files


class TestMalformedFiles:
    """Every file ends in exit code 0, 2 or 3 with at most one line of
    stderr naming the error; none ends in a traceback."""

    PREFIX = {0: None, 2: "error: ", 3: "instance too large: "}

    def test_analyze_and_embed(self):
        for text, valid_quad in fuzz_files(seed=15, count=300):
            for argv in (["analyze"], ["embed", "--graph", "--hypermetric-bound", "2"]):
                code, _, err = run_on_file(text, *argv)
                case = (argv[0], text, code, err)
                assert code in self.PREFIX, case
                if self.PREFIX[code] is None:
                    assert err == "", case
                else:
                    assert err.startswith(self.PREFIX[code]), case
                    assert err.count("\n") == 1 and err.endswith("\n"), case
                    assert "Traceback" not in err, case
                if valid_quad and argv[0] == "analyze":
                    assert code == 0, case


class TestHelpers:
    def test_skeleton_name(self):
        assert skeleton_name(6, 0) == "K6"
        assert skeleton_name(5, 1) == "K5-K2"
        assert skeleton_name(10, 5) == "K10-5K2"

    def test_rows_are_verified_without_listing_the_group(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the table listed a whole group")
        monkeypatch.setattr(symmetry, "all_automorphism_images", refuse)
        for spec in ("1,2,3,4,5", "1|2|3|4", "1,2|3,4,5|6"):
            p = Partition.from_spec(spec)
            assert _verify_row(p, kp_summary(p)) == "yes"

    def test_row_builds_one_stabilizer_chain(self, chain_builds):
        p = Partition.from_spec("1,2|3,4,5|6")
        assert _verify_row(p, kp_summary(p)) == "yes"
        assert len(chain_builds) == 1

    def test_skeleton_identified_from_degrees(self):
        def pair_scan(G):  # K_m - hK_2 exactly when the missing pairs are disjoint
            missing = [e for e in itertools.combinations(G.vertices, 2)
                       if not G.has_edge(*e)]
            touched = [v for e in missing for v in e]
            if len(set(touched)) != len(touched):
                return None
            return G.num_vertices, len(missing)

        identify = cli.identify_complete_minus_matching
        for m in range(1, 10):
            for h in range(m // 2 + 1):
                assert identify(complete_minus_matching(m, h)) == (m, h)
            for h in range(3, m + 1):
                assert identify(complete_minus_cycle(m, h)) is None
        rng = random.Random(20000)
        for _ in range(20000):
            verts = range(1, rng.randint(1, 9) + 1)
            keep = rng.choice((rng.random(), 1 - rng.random() / 4))  # often dense
            G = Graph(verts, [e for e in itertools.combinations(verts, 2)
                              if rng.random() < keep])
            assert identify(G) == pair_scan(G)

    @pytest.mark.parametrize("spec", ["1|2|3|4|5|6,7", "1|2|3|4|5|6|7"])
    def test_rows_beyond_the_vertex_guard_are_unverified(self, spec):
        # 13 and 14 vertices: the automorphism guard refuses before searching
        p = Partition.from_spec(spec)
        assert _verify_row(p, kp_summary(p)) == "-"


def run_fresh(*args) -> subprocess.CompletedProcess:
    """A fresh interpreter run with this checkout's ``src`` on its path."""
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC)})


@pytest.fixture
def parser_builds(monkeypatch) -> list:
    """One entry per ``argparse.ArgumentParser`` constructed."""
    calls = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        calls.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return calls


class TestParserReuse:
    """``main`` builds its parser once per process, and one call leaves no
    state that changes the next call's output."""

    def test_later_calls_construct_no_parser(self, capsys, parser_builds):
        argv = ["analyze", str(FIXTURES / "cube.txt")]
        run_cli(capsys, *argv)
        parser_builds.clear()
        for _ in range(2):
            code, out, _ = run_cli(capsys, *argv)
            assert (code, out) == (0, golden("cube.analyze.txt"))
        assert parser_builds == []

    def test_import_constructs_no_parser(self):
        code = ("import argparse\n"
                "calls = []\n"
                "init = argparse.ArgumentParser.__init__\n"
                "def counted(self, *a, **k):\n"
                "    calls.append(1)\n"
                "    init(self, *a, **k)\n"
                "argparse.ArgumentParser.__init__ = counted\n"
                "import shortlinks.cli\n"
                "after_import = len(calls)\n"
                "shortlinks.cli.build_parser()\n"
                "print(after_import, len(calls))\n")
        proc = run_fresh("-c", code)
        assert proc.returncode == 0, proc.stderr
        after_import, after_build = map(int, proc.stdout.split())
        assert after_import == 0 and after_build > 0

    def test_tsv_and_plain_interleaved(self, capsys):
        path = str(FIXTURES / "figure1.txt")
        for argv, name in [(["--tsv"], "figure1.analyze.tsv"),
                           ([], "figure1.analyze.txt"),
                           (["--tsv"], "figure1.analyze.tsv"),
                           ([], "figure1.analyze.txt")]:
            code, out, err = run_cli(capsys, "analyze", path, *argv)
            assert (code, out, err) == (0, golden(name), "")

    def test_scale_then_no_scale(self, capsys):
        path = str(FIXTURES / "k5_k2.txt")
        for argv, name in [(["--scale", "2", "--dim", "4"],
                            "k5_k2.embed_scale2_dim4.txt"),
                           ([], "k5_k2.embed.txt"),
                           (["--scale", "1", "--dim", "4"],
                            "k5_k2.embed_scale1_dim4.txt"),
                           ([], "k5_k2.embed.txt")]:
            code, out, err = run_cli(capsys, "embed", path, "--graph", *argv)
            assert (code, out, err) == (0, golden(name), "")

    def test_rejected_call_then_valid_call(self, capsys):
        path = str(FIXTURES / "cube.txt")
        with pytest.raises(SystemExit) as exc:
            main(["analyze", path, "--hypermetric-bound", "1"])
        assert exc.value.code == 2
        rejected = capsys.readouterr()
        assert rejected.out == ""
        assert "--hypermetric-bound: must be an integer >= 2" in rejected.err
        code, out, err = run_cli(capsys, "analyze", path)
        assert (code, out, err) == (0, golden("cube.analyze.txt"), "")

    def test_output_file_then_stdout(self, capsys, tmp_path):
        out_file = tmp_path / "kp.txt"
        argv = ["build-kp", "--partition", "1|2,3"]
        code, summary, _ = run_cli(capsys, *argv, "-o", str(out_file))
        assert code == 0
        result = run_cli(capsys, *argv)
        alone = run_fresh("-m", "shortlinks", *argv)
        assert result == (alone.returncode, alone.stdout, alone.stderr)
        assert result[1] == out_file.read_text(encoding="utf-8")
        assert result[2] == summary


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = run_fresh("-m", "shortlinks", "table", "--max-dim", "2")
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1].startswith("1,2,3\t")
