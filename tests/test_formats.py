import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import read_fixture
from shortlinks import (
    FormatError,
    Graph,
    Partition,
    Quadrillage,
    SimplicialComplex,
    build_kp,
    cube,
    cycle_graph,
    enumerate_partitions,
)
from shortlinks.formats import (
    detect_format,
    parse_complex,
    parse_graph,
    parse_quadrillage,
    serialize_complex,
    serialize_graph,
    serialize_quadrillage,
)

FIXTURE_KINDS = {
    "figure1.txt": "simplicial",
    "simplex3.txt": "simplicial",
    "octahedron.txt": "simplicial",
    "kp_1_23.txt": "simplicial",
    "k7_c5.txt": "graph",
    "k5_k3.txt": "graph",
    "k5_k2.txt": "graph",
    "k6_3k2.txt": "graph",
    "cube.txt": "quad",
    "grid_2x3.txt": "quad",
    "torus_3x4.txt": "quad",
    "dual_cuboctahedron.txt": "quad",
    "ridge_in_three.txt": "simplicial",
    "c15.txt": "graph",
}


class TestDetection:
    def test_fixture_kinds(self):
        for name, kind in FIXTURE_KINDS.items():
            assert detect_format(read_fixture(name)) == kind

    def test_unknown_keyword(self):
        with pytest.raises(FormatError):
            detect_format("polytope 3\n")

    def test_empty(self):
        with pytest.raises(FormatError):
            detect_format("# nothing here\n")


class TestRoundTrips:
    def test_fixture_files_round_trip_bytes(self):
        serializers = {
            "simplicial": (parse_complex, serialize_complex),
            "graph": (parse_graph, serialize_graph),
            "quad": (parse_quadrillage, serialize_quadrillage),
        }
        for name, kind in FIXTURE_KINDS.items():
            text = read_fixture(name)
            parse, serialize = serializers[kind]
            assert serialize(parse(text)) == text, name

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\nsimplicial 2\n# another\n1 2 3\n\n1 2 4\n1 3 4\n2 3 4\n"
        K = parse_complex(text)
        assert K.num_facets == 4

    def test_complex_round_trip_objects(self):
        for m in (3, 4):
            for p in enumerate_partitions(m):
                K = build_kp(p)
                assert parse_complex(serialize_complex(K)) == K

    def test_quad_round_trip_objects(self):
        Q = cube()
        assert parse_quadrillage(serialize_quadrillage(Q)) == Q

    @given(st.integers(3, 8), st.data())
    @settings(max_examples=30, deadline=None)
    def test_graph_round_trip_random(self, n, data):
        import itertools
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True))
        G = Graph(range(1, n + 1), chosen)
        assert parse_graph(serialize_graph(G)) == G


class TestErrors:
    def test_wrong_facet_size(self):
        with pytest.raises(FormatError):
            parse_complex("simplicial 2\n1 2 3 4\n")

    def test_bad_header(self):
        with pytest.raises(FormatError):
            parse_complex("simplicial\n1 2 3\n")
        with pytest.raises(FormatError):
            parse_graph("graph x\n")

    def test_non_integer_rows(self):
        with pytest.raises(FormatError):
            parse_graph("graph 3\n1 b\n")

    def test_edge_out_of_range(self):
        with pytest.raises(FormatError):
            parse_graph("graph 3\n1 4\n")

    def test_empty_complex(self):
        with pytest.raises(FormatError):
            parse_complex("simplicial 2\n")

    def test_quad_needs_four(self):
        with pytest.raises(FormatError):
            parse_quadrillage("quad 4\n1 2 3\n")

    def test_format_error_is_value_error(self):
        assert issubclass(FormatError, ValueError)

    def test_serialize_graph_needs_contiguous_ids(self):
        G = Graph([2, 3, 5], [(2, 3), (3, 5)])
        with pytest.raises(ValueError):
            serialize_graph(G)


def file_text(keyword: str, n, rows) -> str:
    return "".join([f"{keyword} {n}\n", *(" ".join(map(str, r)) + "\n" for r in rows)])


# (parser, the constructor it hands the header count and rows to)
READERS = {
    "simplicial": (parse_complex, SimplicialComplex),
    "graph": (parse_graph, lambda n, rows: Graph(range(1, n + 1), rows)),
    "quad": (parse_quadrillage, Quadrillage),
}

# well-tokenized files that only a constructor rejects
REJECTED_BY_CONSTRUCTOR = [
    ("simplicial", 0, [[1]], "dimension must be >= 1, got 0"),
    ("simplicial", -2, [[1, 2]], "dimension must be >= 1, got -2"),
    ("simplicial", 2, [[1, 2]], "facet [1, 2] has 2 vertices, expected 3"),
    ("simplicial", 2, [[1, 2, 3], [4, 3, 2, 1]],
     "facet [1, 2, 3, 4] has 4 vertices, expected 3"),
    ("simplicial", 2, [], "a complex needs at least one facet"),
    ("simplicial", 2, [[1, 1, 2]], "duplicate vertices in face [1, 1, 2]"),
    ("simplicial", 2, [[0, 1, 2]], "vertex ids must be positive integers: [0, 1, 2]"),
    ("simplicial", 2, [[1, 2, 3], [4, 5], [6, 6, 7]],
     "facet [4, 5] has 2 vertices, expected 3"),
    ("graph", 0, [], "graph needs at least one vertex"),
    ("graph", -1, [[1, 2]], "graph needs at least one vertex"),
    ("graph", 3, [[1, 4]], "edge (1, 4) leaves the vertex set"),
    ("graph", 3, [[0, 1]], "edge (0, 1) leaves the vertex set"),
    ("graph", 3, [[1, 2], [3, 3]], "loop at vertex 3"),
    ("quad", 4, [[1, 2, 3]], "a quad face needs 4 distinct vertices, got (1, 2, 3)"),
    ("quad", 5, [[1, 2, 3, 4, 5]],
     "a quad face needs 4 distinct vertices, got (1, 2, 3, 4, 5)"),
    ("quad", 4, [[1, 2, 1, 3]], "a quad face needs 4 distinct vertices, got (1, 2, 1, 3)"),
    ("quad", 4, [], "a quadrillage needs at least one face"),
    ("quad", 0, [[1, 2, 3, 4]], "vertex 1 outside 1..0 in face (1, 2, 3, 4)"),
    ("quad", 4, [[1, 2, 3, 5]], "vertex 5 outside 1..4 in face (1, 2, 3, 5)"),
    ("quad", 4, [[1, 2, 3, 4], [3, 4, 1, 2]], "duplicate faces"),
    ("quad", 8, [[1, 2, 3, 4], [2, 1, 5, 6], [1, 2, 7, 8]],
     "edge [1, 2] lies in 3 faces (at most 2 allowed)"),
]

# files the tokenizer rejects before any constructor runs
REJECTED_BY_TOKENIZER = [
    ("simplicial", "", "empty input"),
    ("simplicial", "# only comments\n\n# here\n", "empty input"),
    ("simplicial", "simplicial\n1 2 3\n",
     "expected header 'simplicial <n>', got 'simplicial'"),
    ("simplicial", "graph 3\n1 2\n", "expected header 'simplicial <n>', got 'graph 3'"),
    ("simplicial", "simplicial two\n1 2 3\n", "bad header count 'two'"),
    ("simplicial", "simplicial 2\n1 2 x\n", "expected integers, got '1 2 x'"),
    ("graph", "graph x\n", "bad header count 'x'"),
    ("graph", "graph 3\n1 b\n", "expected integers, got '1 b'"),
    ("graph", "graph 3\n1 2 3\n", "expected 'u v', got '1 2 3'"),
    ("graph", "graph 3\n1\n", "expected 'u v', got '1'"),
    ("quad", "quad 4 4\n1 2 3 4\n", "expected header 'quad <n>', got 'quad 4 4'"),
    ("quad", "quad 4\n1 2 3 4.0\n", "expected integers, got '1 2 3 4.0'"),
]


class TestRejectionMessages:
    @pytest.mark.parametrize(
        "keyword,n,rows,message", REJECTED_BY_CONSTRUCTOR,
        ids=[f"{case[0]}-{case[3]}" for case in REJECTED_BY_CONSTRUCTOR])
    def test_file_error_is_the_constructors(self, keyword, n, rows, message):
        parse, build = READERS[keyword]
        with pytest.raises(ValueError) as direct:
            build(n, rows)
        with pytest.raises(FormatError) as read:
            parse(file_text(keyword, n, rows))
        assert type(direct.value) is ValueError
        assert str(direct.value) == str(read.value) == message

    @pytest.mark.parametrize(
        "keyword,text,message", REJECTED_BY_TOKENIZER,
        ids=[f"{case[0]}-{case[2]}" for case in REJECTED_BY_TOKENIZER])
    def test_tokenizer_error(self, keyword, text, message):
        with pytest.raises(FormatError) as read:
            READERS[keyword][0](text)
        assert str(read.value) == message


class TestParseAny:
    def test_cycle_graph_ids_are_one_based(self):
        text = serialize_graph(cycle_graph(4))
        assert text.splitlines()[0] == "graph 4"
        assert parse_graph(text).distance(1, 3) == 2
