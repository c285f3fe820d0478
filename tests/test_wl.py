"""Pair-colouring refinement, stability, and closed-form triangle counts."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs, graph_with_permutation, apply_permutation
from lexsym import (complete_graph, cycle_graph, empty_graph, lex_product,
                    path_graph, star_graph,
                    initial_colouring, first_round, refine_step, refinements,
                    stable_colouring, triangle_counts, table1_closed_form)
from lexsym.census import unlabelled_graphs_upto
from lexsym.graphs import GraphError
from lexsym.wl import _canonical_rename, edge_nonedge_colours


def reference_refine_step(g, c):
    """The explicit-count refinement round: one `Counter` of (c(u,z), c(z,v))
    per pair, keyed with its sorted items.  `refine_step` must agree with it
    id for id."""
    n = g.n
    cols = c.colours
    raw = []
    for u in range(n):
        row_u = cols[u * n:(u + 1) * n]
        for v in range(n):
            counts = Counter()
            for z in range(n):
                counts[(row_u[z], cols[z * n + v])] += 1
            raw.append((cols[u * n + v], tuple(sorted(counts.items()))))
    return _canonical_rename(raw, n)


def reference_rounds(g):
    """The rounds from `initial_colouring` by `reference_refine_step`, up to
    and including the first round equal to the one before it."""
    rounds = [initial_colouring(g)]
    while len(rounds) < 2 or rounds[-1] != rounds[-2]:
        rounds.append(reference_refine_step(g, rounds[-1]))
    return rounds


def refines(finer, coarser):
    """True when every colour class of `finer` lies inside one of `coarser`."""
    to_coarse = {}
    return all(to_coarse.setdefault(a, b) == b
               for a, b in zip(finer.colours, coarser.colours))


def assert_rounds_match_reference(g):
    rounds = reference_rounds(g)
    trace = stable_colouring(g)
    assert trace.stable == rounds[-2]
    assert trace.stable_round == len(rounds) - 2


@st.composite
def graph_and_colouring(draw):
    """A graph with an arbitrary pair colouring of up to n^2 distinct ids."""
    g = draw(graphs(min_n=1, max_n=6))
    m = draw(st.integers(1, g.n * g.n))
    raw = draw(st.lists(st.integers(0, m - 1), min_size=g.n * g.n, max_size=g.n * g.n))
    return g, _canonical_rename(raw, g.n)


class TestInitialColouring:
    def test_three_classes_on_cycle(self):
        c = initial_colouring(cycle_graph(4))
        assert c.num_colours == 3
        assert c.colour(0, 0) == 0

    def test_two_classes_on_complete(self):
        assert initial_colouring(complete_graph(3)).num_colours == 2

    def test_one_class_on_single_vertex(self):
        assert initial_colouring(complete_graph(1)).num_colours == 1

    @settings(max_examples=50, deadline=None)
    @given(graphs(min_n=1))
    def test_ids_contiguous(self, g):
        c = initial_colouring(g)
        assert set(c.colours) == set(range(c.num_colours))

    @settings(max_examples=50, deadline=None)
    @given(graphs(min_n=2))
    def test_edge_nonedge_colours_match_semantics(self, g):
        c = initial_colouring(g)
        e_id, ne_id = edge_nonedge_colours(g, c)
        for u in range(g.n):
            for v in range(g.n):
                if u == v:
                    continue
                expected = e_id if g.has_edge(u, v) else ne_id
                assert c.colour(u, v) == expected


class TestRefinement:
    def test_cycle4_stable_immediately(self):
        trace = stable_colouring(cycle_graph(4))
        assert trace.stable_round == 0
        assert trace.stable.num_colours == 3

    def test_path4_splits_ends_from_middle(self):
        c = stable_colouring(path_graph(4)).stable
        assert c.colour(0, 0) == c.colour(3, 3)
        assert c.colour(0, 0) != c.colour(1, 1)

    def test_classes_partition_all_pairs(self):
        c = stable_colouring(cycle_graph(5)).stable
        classes = c.classes()
        assert sum(len(cl) for cl in classes) == 25

    @settings(max_examples=40, deadline=None)
    @given(graphs(min_n=1, max_n=6))
    def test_each_round_refines_the_previous(self, g):
        rounds = reference_rounds(g)
        for prev, cur in zip(rounds, rounds[1:]):
            assert refines(cur, prev)

    @settings(max_examples=40, deadline=None)
    @given(graphs(min_n=1, max_n=6))
    def test_last_two_rounds_equal(self, g):
        rounds = reference_rounds(g)
        assert rounds[-1].colours == rounds[-2].colours
        # the stable colouring is a fixed point of one more round
        trace = stable_colouring(g)
        assert trace.stable == rounds[-1]
        assert refine_step(g, trace.stable).colours == trace.stable.colours

    @pytest.mark.parametrize("g, classes", [
        (empty_graph(0), 0), (complete_graph(1), 1), (complete_graph(5), 2),
        (empty_graph(5), 2)])
    def test_stable_from_round_zero(self, g, classes):
        """Graphs whose initial colouring is stable, one per term of the
        closed-form round-0 class count."""
        assert initial_colouring(g).num_colours == classes
        trace = stable_colouring(g)
        assert trace.stable_round == 0
        assert trace.stable == initial_colouring(g)

    @settings(max_examples=30, deadline=None)
    @given(graph_with_permutation(max_n=5))
    def test_isomorphism_invariance(self, gp):
        g, perm = gp
        c1 = stable_colouring(g).stable
        c2 = stable_colouring(apply_permutation(g, perm)).stable
        assert c1.num_colours == c2.num_colours
        mapping = {}
        for u in range(g.n):
            for v in range(g.n):
                a = c1.colour(u, v)
                b = c2.colour(perm[u], perm[v])
                assert mapping.setdefault(a, b) == b

    def test_size_mismatch_rejected(self):
        with pytest.raises(GraphError):
            refine_step(cycle_graph(4), initial_colouring(cycle_graph(5)))


def assert_refinements_chain(g):
    """Each round of `refinements(g)` refines the one before it, the first
    refines the initial colouring, and the last round and the number of
    `refine_step` rounds are those of `stable_colouring`."""
    rounds = [initial_colouring(g), *refinements(g)]
    for prev, cur in zip(rounds, rounds[1:]):
        assert refines(cur, prev), g
    trace = stable_colouring(g)
    assert rounds[-1] == trace.stable
    assert len(rounds) - 2 == trace.stable_round


class TestRefinements:
    @settings(max_examples=60, deadline=None)
    @given(graphs(min_n=0, max_n=8))
    def test_chain_on_random_graphs(self, g):
        assert_refinements_chain(g)

    def test_chain_on_the_census(self):
        for g in unlabelled_graphs_upto(7):
            assert_refinements_chain(g)

    def test_stops_at_the_first_round_that_keeps_the_count(self):
        # C4 is stable at its three initial classes, so no refine_step runs;
        # P5 splits further in the second round and keeps its count in the
        # third, which ends the walk
        assert [c.num_colours for c in refinements(cycle_graph(4))] == [3]
        rounds = list(refinements(path_graph(5)))
        assert [c.num_colours for c in rounds] == [11, 13, 13]
        assert rounds[-1] == rounds[-2]


class TestReferenceKernel:
    @settings(max_examples=60, deadline=None)
    @given(graphs(min_n=0, max_n=8))
    def test_every_round_of_stable_colouring(self, g):
        assert_rounds_match_reference(g)

    @settings(max_examples=80, deadline=None)
    @given(graph_and_colouring())
    def test_arbitrary_colourings(self, gc):
        g, c = gc
        assert refine_step(g, c) == reference_refine_step(g, c)

    @pytest.mark.parametrize("nx, ny", [(7, 6), (8, 7)])
    def test_cycle_products(self, nx, ny):
        assert_rounds_match_reference(lex_product(cycle_graph(nx), cycle_graph(ny)))


class TestFirstRound:
    def test_equals_one_general_round_on_the_census(self):
        for g in unlabelled_graphs_upto(7):
            assert first_round(g) == refine_step(g, initial_colouring(g)), g


class TestTriangleCounts:
    @settings(max_examples=40, deadline=None)
    @given(graphs(min_n=2, max_n=6))
    def test_total_is_vertex_count(self, g):
        c = initial_colouring(g)
        assert triangle_counts(g, c, 0, 1).total() == g.n

    def test_size_mismatch_rejected(self):
        with pytest.raises(GraphError):
            triangle_counts(cycle_graph(4), initial_colouring(cycle_graph(5)), 0, 1)


def _semantic_profile(x, y, prod, p, q):
    """Direct middle-vertex counts keyed by semantic edge(1)/non-edge(2) codes."""
    c = initial_colouring(prod)
    e_id, ne_id = edge_nonedge_colours(prod, c)
    diag = c.colour(0, 0)
    sem = {diag: 0}
    if e_id is not None:
        sem[e_id] = 1
    if ne_id is not None:
        sem[ne_id] = 2
    out = {}
    for (i, j), cnt in triangle_counts(prod, c, p, q).counts:
        si, sj = sem[i], sem[j]
        if si == 0 or sj == 0:
            continue
        out[(si, sj)] = out.get((si, sj), 0) + cnt
    return out


class TestClosedForm:
    def test_inner_edge_of_cycle4_by_k2(self):
        x, y = cycle_graph(4), complete_graph(2)
        prof = table1_closed_form(x, y, (0, 0), (0, 1)).as_dict()
        assert prof == {(1, 1): 4, (1, 2): 0, (2, 1): 0, (2, 2): 2}

    def test_outer_edge_of_cycle4_by_k2(self):
        x, y = cycle_graph(4), complete_graph(2)
        prof = table1_closed_form(x, y, (0, 0), (1, 0)).as_dict()
        # endpoints of a 4-cycle edge have no common neighbour in either sense
        assert prof == {(1, 1): 2, (1, 2): 2, (2, 1): 2, (2, 2): 0}

    def test_requires_a_product_edge(self):
        x, y = cycle_graph(4), complete_graph(2)
        with pytest.raises(GraphError):
            table1_closed_form(x, y, (0, 0), (2, 0))

    @settings(max_examples=30, deadline=None)
    @given(graphs(min_n=1, max_n=5), graphs(min_n=1, max_n=3))
    def test_matches_direct_counts(self, x, y):
        prod = lex_product(x, y)
        for p, q in prod.edges():
            pc = divmod(p, y.n)
            qc = divmod(q, y.n)
            expected = {k: v for k, v in table1_closed_form(x, y, pc, qc).counts if v}
            assert _semantic_profile(x, y, prod, p, q) == expected
