"""Graph serialization: edge-list text and graph6."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import graphs
from lexsym import (Graph, complete_graph, cycle_graph, decode_graph6, empty_graph,
                    parse_graph, write_graph)
from lexsym.formats import FormatError, GRAPH6_HEADER, content_hash


def encode_graph6(g: Graph) -> str:
    """The graph6 string of g, written by networkx as an independent reference."""
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return nx.to_graph6_bytes(h, header=False).decode().strip()


class TestText:
    def test_write_then_parse(self):
        g = cycle_graph(4)
        assert parse_graph(write_graph(g)) == g

    def test_comments_and_blank_lines(self):
        text = "# a square\n\n4\n0 1\n1 2\n# middle comment\n2 3\n0 3\n"
        assert parse_graph(text) == cycle_graph(4)

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_round_trip(self, g):
        assert parse_graph(write_graph(g)) == g

    def test_missing_vertex_count(self):
        with pytest.raises(FormatError, match="vertex count"):
            parse_graph("# only a comment\n")

    def test_non_integer_count(self):
        with pytest.raises(FormatError, match="line 1"):
            parse_graph("four\n")

    def test_negative_count(self):
        with pytest.raises(FormatError, match="negative"):
            parse_graph("-2\n")

    def test_count_past_the_index_range(self):
        with pytest.raises(FormatError, match="too large"):
            parse_graph("999999999999999999999999999999\n")

    def test_malformed_edge_line(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_graph("3\n0 1 2\n")

    def test_loop_rejected(self):
        with pytest.raises(FormatError, match="loop"):
            parse_graph("3\n1 1\n")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(FormatError, match="duplicate"):
            parse_graph("3\n0 1\n1 0\n")

    def test_out_of_range_edge(self):
        with pytest.raises(FormatError, match="out of range"):
            parse_graph("2\n0 5\n")

    def test_unknown_format_name(self):
        with pytest.raises(FormatError, match="unknown format"):
            parse_graph("1\n", fmt="dot")


class TestGraph6:
    def test_known_encoding_k4(self):
        # standard fixed point of the format: complete graph on 4 vertices
        assert encode_graph6(complete_graph(4)) == "C~"
        assert decode_graph6("C~") == complete_graph(4)

    def test_empty_graphs(self):
        assert encode_graph6(empty_graph(0)) == "?"
        assert decode_graph6(encode_graph6(empty_graph(5))) == empty_graph(5)

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_round_trip(self, g):
        assert decode_graph6(encode_graph6(g)) == g

    @settings(max_examples=30, deadline=None)
    @given(graphs(min_n=63, max_n=65))
    def test_long_form_size_round_trip(self, g):
        assert decode_graph6(encode_graph6(g)) == g

    def test_header_switches_format(self):
        text = f"{GRAPH6_HEADER}C~\n"
        assert parse_graph(text) == complete_graph(4)
        assert parse_graph(text, fmt="graph6") == complete_graph(4)

    def test_graph6_format_flag(self):
        assert parse_graph(encode_graph6(cycle_graph(5)), fmt="graph6") == cycle_graph(5)

    def test_invalid_byte(self):
        with pytest.raises(FormatError, match="byte"):
            decode_graph6("C!")

    def test_body_length_mismatch(self):
        with pytest.raises(FormatError, match="length mismatch"):
            decode_graph6("C~~")

    def test_empty_string(self):
        with pytest.raises(FormatError):
            decode_graph6("")

    def test_no_graph6_line(self):
        with pytest.raises(FormatError, match="no graph6 line"):
            parse_graph("# nothing here\n", fmt="graph6")

    def test_header_without_body(self):
        for text in (GRAPH6_HEADER, GRAPH6_HEADER + "\n", GRAPH6_HEADER + "  \n\n"):
            with pytest.raises(FormatError, match="empty graph6"):
                parse_graph(text)


def small_count(text: str) -> bool:
    """Whether the text format reads a vertex count of at most 5 digits.

    The parser allocates n rows before any edge is read; a count below
    100,000 parses in well under a second, and the fuzz keeps clear of
    counts whose `[0] * n` allocation could exhaust memory.
    """
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            try:
                return abs(int(line)) < 100_000
            except ValueError:
                return True
    return True


def parses_or_rejects(text: str) -> None:
    """Every parser returns a Graph or raises FormatError on the text."""
    parsers = [lambda t: parse_graph(t, "graph6"), decode_graph6]
    if small_count(text):
        parsers.append(parse_graph)
    for parse in parsers:
        try:
            assert isinstance(parse(text), Graph)
        except FormatError:
            pass


_token = st.one_of(st.integers(-3, 999).map(str), st.integers(1000, 99_999).map(str),
                   st.text(max_size=3),
                   st.sampled_from(["#", "1.5", "0x1", "1_0", "+2", "\u0663"]))
_line = st.lists(_token, max_size=3).map(" ".join)
graph_texts = st.lists(_line, max_size=10).map("\n".join)
graph6_texts = st.tuples(st.sampled_from(["", GRAPH6_HEADER, GRAPH6_HEADER + "\n"]),
                         st.text(st.characters(min_codepoint=32, max_codepoint=127),
                                 max_size=24)).map("".join)


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), graph_texts))
    def test_text_parses_or_rejects(self, text):
        parses_or_rejects(text)

    @settings(max_examples=300, deadline=None)
    @given(graph6_texts)
    def test_graph6_parses_or_rejects(self, text):
        parses_or_rejects(text)


class TestContentHash:
    def test_deterministic_and_short(self):
        h1 = content_hash(cycle_graph(4))
        h2 = content_hash(cycle_graph(4))
        assert h1 == h2
        assert len(h1) == 8
        assert h1 != content_hash(complete_graph(4))
