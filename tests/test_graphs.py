"""Core graph type, constructors, and the lexicographic product."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs, graph_with_permutation, apply_permutation, distance_matrix
from lexsym import (Graph, complement, connected_components, complete_graph,
                    cycle_graph, disjoint_union, empty_graph, lex_product,
                    path_graph, star_graph, twin_partition)
from lexsym.census import unlabelled_graphs
from lexsym.graphs import GraphError, has_twins, induced_subgraph, is_connected

# Census graphs on at most 6 vertices, the 0-vertex graph included.
SMALL_CENSUS = [g for n in range(7) for g in unlabelled_graphs(n)]


class TestConstruction:
    def test_from_edges_basic(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert g.rows[0] >> 1 & 1 and g.rows[1] >> 0 & 1
        assert not g.rows[0] >> 2 & 1
        assert g.edge_count() == 2
        assert list(g.edges()) == [(0, 1), (1, 2)]

    def test_from_edges_rejects_loop(self):
        with pytest.raises(GraphError):
            Graph.from_edges(2, [(1, 1)])

    def test_from_edges_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            Graph.from_edges(2, [(0, 2)])

    def test_negative_vertex_count(self):
        with pytest.raises(GraphError):
            Graph.from_edges(-1, [])

    def test_asymmetric_rows_rejected(self):
        with pytest.raises(GraphError):
            Graph(2, (0b10, 0b00))

    def test_row_count_mismatch(self):
        with pytest.raises(GraphError):
            Graph(3, (0, 0))

    def test_public_constructor_checks_count_range_and_loops(self):
        with pytest.raises(GraphError, match="non-negative"):
            Graph(-1, ())
        with pytest.raises(GraphError, match="outside 0..1"):
            Graph(2, (0b100, 0))
        with pytest.raises(GraphError, match="loop at vertex 0"):
            Graph(2, (0b01, 0))

    def test_large_one_sided_edge_rejected(self):
        # the check is linear in the graph: it looks up the mirror of each set bit
        n = 200_000
        rows = [0] * n
        rows[n - 2] = 1 << (n - 1)
        with pytest.raises(GraphError, match=r"^adjacency not symmetric at \(199998, 199999\)$"):
            Graph(n, tuple(rows))

    @pytest.mark.parametrize("row", [1 << 200_000, -1], ids=["bit_past_n", "negative"])
    def test_large_row_past_the_last_vertex_rejected(self, row):
        n = 200_000
        rows = [0] * n
        rows[7] = row
        with pytest.raises(GraphError,
                           match=r"^row 7 references vertices outside 0\.\.199999$"):
            Graph(n, tuple(rows))

    def test_named_families(self):
        assert complete_graph(4).edge_count() == 6
        assert cycle_graph(5).edge_count() == 5
        assert path_graph(4).edge_count() == 3
        assert empty_graph(3).edge_count() == 0
        star = star_graph(4)
        assert star.n == 5
        assert star.rows[0].bit_count() == 4
        assert all(star.rows[v].bit_count() == 1 for v in range(1, 5))

    def test_cycle_needs_three_vertices(self):
        with pytest.raises(GraphError):
            cycle_graph(2)


class TestComplement:
    def test_complement_of_cycle4(self):
        # the 4-cycle's complement is a perfect matching on the diagonals
        c4c = complement(cycle_graph(4))
        assert sorted(c4c.edges()) == [(0, 2), (1, 3)]

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_complement_involution(self, g):
        assert complement(complement(g)) == g

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_complement_edge_count(self, g):
        total = g.n * (g.n - 1) // 2
        assert g.edge_count() + complement(g).edge_count() == total


class TestDisjointUnion:
    def test_offsets_and_edges(self):
        u, offsets = disjoint_union([complete_graph(2), cycle_graph(3)])
        assert offsets == [0, 2]
        assert u.n == 5
        assert u.edge_count() == 1 + 3
        assert u.rows[0] >> 1 & 1 and not u.rows[1] >> 2 & 1

    def test_empty_factor_list_rejected(self):
        with pytest.raises(GraphError):
            disjoint_union([])


class TestLexProduct:
    def test_cycle4_by_k2_shape(self):
        p = lex_product(cycle_graph(4), complete_graph(2))
        assert p.n == 8
        assert p.edge_count() == 20

    def test_empty_factor_rejected(self):
        with pytest.raises(GraphError):
            lex_product(empty_graph(0), complete_graph(2))

    @settings(max_examples=40, deadline=None)
    @given(graphs(min_n=1, max_n=4), graphs(min_n=1, max_n=4))
    def test_edge_count_formula(self, x, y):
        p = lex_product(x, y)
        assert p.edge_count() == x.n * y.edge_count() + x.edge_count() * y.n * y.n

    @settings(max_examples=40, deadline=None)
    @given(graphs(min_n=1, max_n=4), graphs(min_n=1, max_n=4))
    def test_product_complement_identity(self, x, y):
        lhs = complement(lex_product(x, y))
        rhs = lex_product(complement(x), complement(y))
        assert lhs == rhs

    @settings(max_examples=25, deadline=None)
    @given(graphs(min_n=1, max_n=3), graphs(min_n=1, max_n=3),
           graphs(min_n=1, max_n=3))
    def test_associativity(self, x, y, z):
        lhs = lex_product(lex_product(x, y), z)
        rhs = lex_product(x, lex_product(y, z))
        assert lhs == rhs


def induced_by_edges(g, vertices):
    """The induced subgraph built from an edge list through `Graph.from_edges`."""
    index = {v: i for i, v in enumerate(vertices)}
    return Graph.from_edges(len(vertices), [(index[u], index[v]) for u, v in g.edges()
                                            if u in index and v in index])


class TestTrustedConstructors:
    """`lex_product`, `complement`, `disjoint_union` and `induced_subgraph`
    skip the checks of `Graph.__post_init__`; the graphs they build must
    pass them."""

    @settings(max_examples=60, deadline=None)
    @given(graphs(min_n=1, max_n=4), graphs(min_n=1, max_n=4), graphs(max_n=5))
    def test_outputs_pass_the_public_checks(self, x, y, g):
        for built in (lex_product(x, y), complement(g), disjoint_union([x, y, g])[0]):
            assert Graph(built.n, built.rows) == built
            assert hash(Graph(built.n, built.rows)) == hash(built)

    @settings(max_examples=100, deadline=None)
    @given(graphs(), st.data())
    def test_induced_subgraph_matches_the_edge_list_reference(self, g, data):
        # distinct vertices in random order, any number of them
        order = data.draw(st.permutations(range(g.n)))
        vertices = order[:data.draw(st.integers(0, g.n))]
        sub = induced_subgraph(g, vertices)
        assert sub == induced_by_edges(g, vertices)
        assert Graph(sub.n, sub.rows) == sub

    @settings(max_examples=60, deadline=None)
    @given(graphs(min_n=2, max_n=6), st.data())
    def test_public_constructor_rejects_asymmetric_rows(self, g, data):
        u, v = data.draw(st.permutations(range(g.n)))[:2]
        rows = list(g.rows)
        rows[u] ^= 1 << v
        with pytest.raises(GraphError, match="not symmetric"):
            Graph(g.n, tuple(rows))


class TestComponents:
    def test_union_components(self):
        u, _ = disjoint_union([complete_graph(2), cycle_graph(3)])
        assert connected_components(u) == [[0, 1], [2, 3, 4]]
        assert not is_connected(u)
        assert is_connected(cycle_graph(5))

    def test_isolated_vertices(self):
        assert connected_components(empty_graph(3)) == [[0], [1], [2]]

    def test_is_connected_agrees_with_components(self):
        for g in SMALL_CENSUS:
            assert is_connected(g) == (len(connected_components(g)) <= 1), g

    def test_induced_subgraph_relabels(self):
        u, _ = disjoint_union([complete_graph(2), cycle_graph(3)])
        sub = induced_subgraph(u, [2, 3, 4])
        assert sub == cycle_graph(3)


class TestTwins:
    def test_cycle4_twin_classes(self):
        tp = twin_partition(cycle_graph(4))
        assert tp.classes == ((0, 2), (1, 3))
        assert tp.uniform_size == 2
        assert tp.has_twins

    def test_path3_not_uniform(self):
        tp = twin_partition(path_graph(3))
        assert tp.classes == ((0, 2), (1,))
        assert tp.uniform_size is None

    def test_complete_graph_twin_free(self):
        assert not has_twins(complete_graph(4))

    def test_empty_graph_single_class(self):
        assert twin_partition(empty_graph(4)).classes == ((0, 1, 2, 3),)

    def test_has_twins_agrees_with_partition(self):
        for g in SMALL_CENSUS:
            assert has_twins(g) == twin_partition(g).has_twins, g

    @settings(max_examples=60, deadline=None)
    @given(graphs(min_n=1))
    def test_twins_never_adjacent(self, g):
        for cls in twin_partition(g).classes:
            for i, u in enumerate(cls):
                for v in cls[i + 1:]:
                    assert not g.rows[u] >> v & 1


class TestDistances:
    def test_path_distances(self):
        d = distance_matrix(path_graph(4))
        assert d[0] == [0, 1, 2, 3]

    def test_unreachable_is_none(self):
        d = distance_matrix(empty_graph(2))
        assert d[0][1] is None

    @settings(max_examples=40, deadline=None)
    @given(graph_with_permutation(max_n=5))
    def test_distance_permutation_invariant(self, gp):
        g, perm = gp
        d1 = distance_matrix(g)
        d2 = distance_matrix(apply_permutation(g, perm))
        for u in range(g.n):
            for v in range(g.n):
                assert d1[u][v] == d2[perm[u]][perm[v]]

