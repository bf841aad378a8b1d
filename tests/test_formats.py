import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import read_fixture
from shortlinks import (
    FormatError,
    Graph,
    Partition,
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


class TestParseAny:
    def test_cycle_graph_ids_are_one_based(self):
        text = serialize_graph(cycle_graph(4))
        assert text.splitlines()[0] == "graph 4"
        assert parse_graph(text).distance(1, 3) == 2
