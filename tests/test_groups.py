"""Brute-force symmetry oracle: groups, orbits, isomorphism, orders."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import lexsym.groups
import lexsym.wl
from conftest import apply_permutation, graph_with_permutation, graphs, petersen_graph
from lexsym import (Graph, automorphisms, aut_order, complete_graph,
                    complement, cycle_graph, empty_graph, is_isomorphic,
                    is_vertex_transitive, lex_product, orbits, orbitals,
                    path_graph, star_graph, wreath_order)
from lexsym.census import unlabelled_graphs, unlabelled_graphs_upto
from lexsym.graphs import GraphError, disjoint_union
from lexsym.groups import (OracleBoundError, _RUNG_BUDGET, _ladder, _search,
                           refined_vertex_colours, stabiliser_chain)
from lexsym.wl import refinements, stable_colouring


def reference_aut_order(g: Graph) -> int:
    """The unpruned level product on the base 0, 1, ..., n-1: the factor at
    level k counts the candidate images of k that one search each, with
    0..k-1 fixed, completes to an automorphism.  The search is pruned by
    the stable 2-WL relation, with candidates of equal stable diagonal
    colour, built here independently of the ladder.  `aut_order` must
    agree."""
    rel = stable_colouring(g).stable.matrix()
    candidates = [[w for w in range(g.n) if rel[w][w] == rel[v][v]] for v in range(g.n)]
    order = 1
    for k in range(g.n):
        order *= sum(_search(g.n, candidates[:k] + [[w]] + candidates[k + 1:], rel, rel,
                             None, list(range(k))) is not None
                     for w in candidates[k])
    return order


def relabelled(g: Graph, seed: int) -> Graph:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return apply_permutation(g, perm)


RELABELLED_PRODUCTS = pytest.mark.parametrize("x, y", [
    (cycle_graph(5), cycle_graph(5)),
    (cycle_graph(4), disjoint_union([complete_graph(2)] * 3)[0]),
    (cycle_graph(7), cycle_graph(6)),
], ids=["C5[C5]", "C4[3K2]", "C7[C6]"])


class TestAutomorphisms:
    def test_cycle4_group(self):
        group = automorphisms(cycle_graph(4))
        assert group.order == 8
        assert tuple(range(4)) in group.generators

    def test_path_group(self):
        assert automorphisms(path_graph(4)).order == 2

    def test_elements_sorted_and_unique(self):
        group = automorphisms(cycle_graph(5))
        assert list(group.generators) == sorted(set(group.generators))

    @settings(max_examples=40, deadline=None)
    @given(graphs(min_n=1, max_n=5))
    def test_group_axioms(self, g):
        group = automorphisms(g)
        elements = set(group.generators)
        identity = tuple(range(g.n))
        assert identity in elements
        for p in group.generators:
            inverse = [0] * g.n
            for i, v in enumerate(p):
                inverse[v] = i
            assert tuple(inverse) in elements
        for p in list(elements)[:6]:
            for q in list(elements)[:6]:
                assert tuple(p[q[i]] for i in range(g.n)) in elements

    @settings(max_examples=40, deadline=None)
    @given(graphs(min_n=1, max_n=5))
    def test_elements_preserve_adjacency(self, g):
        for p in automorphisms(g).generators:
            assert apply_permutation(g, p) == g

    def test_bound_enforced(self):
        with pytest.raises(OracleBoundError):
            automorphisms(empty_graph(15))
        assert automorphisms(empty_graph(4), max_degree=4).order == 24


class TestAutOrder:
    @settings(max_examples=40, deadline=None)
    @given(graphs(min_n=0, max_n=6))
    def test_matches_enumeration(self, g):
        assert aut_order(g) == automorphisms(g).order

    def test_large_symmetric_groups(self):
        import math
        assert aut_order(empty_graph(10)) == math.factorial(10)
        assert aut_order(complete_graph(8)) == math.factorial(8)

    def test_petersen(self):
        assert aut_order(petersen_graph()) == 120

    def test_product_order(self):
        assert aut_order(lex_product(cycle_graph(4), complete_graph(2))) == 128


class TestStabiliserChain:
    """The orbit-pruned chain against the unpruned level product and against
    the orbits of the enumerated group."""

    @settings(max_examples=60, deadline=None)
    @given(graphs(min_n=0, max_n=8))
    def test_matches_reference_on_random_graphs(self, g):
        assert aut_order(g) == reference_aut_order(g)

    def test_matches_reference_on_the_census(self):
        for g in unlabelled_graphs_upto(7):
            assert aut_order(g) == reference_aut_order(g), g

    @RELABELLED_PRODUCTS
    def test_matches_reference_on_relabelled_products(self, x, y):
        g = relabelled(lex_product(x, y), 1)
        assert aut_order(g) == reference_aut_order(g)

    def test_generator_orbits_on_the_census(self):
        for g in unlabelled_graphs_upto(7):
            chain = stabiliser_chain(g)
            group = automorphisms(g)
            assert chain.order == group.order
            assert set(chain.generators) <= set(group.generators)
            assert orbits(chain) == orbits(group), g
            assert len(orbitals(chain)) == len(orbitals(group)), g

    def test_bound_only_when_asked(self):
        with pytest.raises(OracleBoundError):
            stabiliser_chain(empty_graph(15), max_degree=14)
        assert stabiliser_chain(empty_graph(15)).order == 1307674368000


class TestSearchPruning:
    """2-WL pair colours prune the search on large symmetric products,
    whatever their labelling.  Pruned by adjacency alone, the relabelled
    C7[C6] took 14 s to over 40 s and C8[C7] 42 s on a 2-vCPU machine.

    The search climbs a ladder of 2-WL rounds: the first round, then each
    later one, with a budget of search nodes on every rung but the stable
    one.  Each rung is sound, since every 2-WL round refines adjacency and
    every automorphism preserves it; a rung only decides how many dead
    ends the search explores.  The first round is cheap and usually prunes
    enough; its heavy tail is what the budget cuts off."""

    def test_c8_c7(self):
        start = time.perf_counter()
        assert aut_order(lex_product(cycle_graph(8), cycle_graph(7))) == 14 ** 8 * 16
        assert time.perf_counter() - start < 20

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_relabelled_c7_c6(self, seed):
        g = lex_product(cycle_graph(7), cycle_graph(6))
        perm = list(range(g.n))
        random.Random(seed).shuffle(perm)
        start = time.perf_counter()
        assert aut_order(apply_permutation(g, perm)) == 12 ** 7 * 14
        assert time.perf_counter() - start < 20


def census_products():
    """Census factor pairs of at most 7 vertices with products of at most 16
    vertices, as products."""
    return [lex_product(x, y) for nx in range(1, 8) for ny in range(1, 8) if nx * ny <= 16
            for x in unlabelled_graphs(nx) for y in unlabelled_graphs(ny)]


class TestLadder:
    """Both paths of the ladder: queries that finish on a budgeted rung, and
    queries that climb, with the budget forced to 0 so that every rung runs
    out."""

    def test_rungs_are_the_rounds_up_to_the_stable_one(self):
        # each distinct round is a budgeted rung, and the stable round
        # comes once more, last, with no budget
        for g in unlabelled_graphs_upto(6) + [lex_product(cycle_graph(4), path_graph(3))]:
            rounds = [c.matrix() for c in refinements(g)]
            distinct = rounds[:-1] or rounds
            rungs = list(_ladder(g))
            assert [rel for _, rel, _ in rungs] == distinct + distinct[-1:], g.rows
            assert [budget for *_, budget in rungs] == (
                [[_RUNG_BUDGET]] * len(distinct) + [None]), g.rows

    def test_budget_zero_matches_the_reference(self, monkeypatch):
        graphs_ = unlabelled_graphs_upto(7)
        chains = [stabiliser_chain(g) for g in graphs_]
        transitive = [is_vertex_transitive(g) for g in graphs_]
        monkeypatch.setattr(lexsym.groups, "_RUNG_BUDGET", 0)
        for g, chain, vt in zip(graphs_, chains, transitive):
            climbed = stabiliser_chain(g)
            assert climbed.order == reference_aut_order(g), g.rows
            assert orbits(climbed) == orbits(chain), g.rows
            assert is_vertex_transitive(g) == vt, g.rows

    @RELABELLED_PRODUCTS
    def test_budget_zero_on_relabelled_products(self, monkeypatch, x, y):
        g = relabelled(lex_product(x, y), 1)
        chain = stabiliser_chain(g)
        transitive = is_vertex_transitive(g, g.n)
        monkeypatch.setattr(lexsym.groups, "_RUNG_BUDGET", 0)
        climbed = stabiliser_chain(g)
        assert climbed.order == chain.order == reference_aut_order(g)
        assert orbits(climbed) == orbits(chain)
        assert is_vertex_transitive(g, g.n) == transitive

    def test_refine_step_calls_on_census_products(self, monkeypatch):
        # the first round is enough for all but 3 of the 8000 products,
        # which each climb one round; refining every product to its stable
        # colouring would take 13,383 refine_step calls
        calls = 0
        refine_step = lexsym.wl.refine_step

        def counting(g, c):
            nonlocal calls
            calls += 1
            return refine_step(g, c)

        products = census_products()
        assert len(products) == 8000
        monkeypatch.setattr(lexsym.wl, "refine_step", counting)
        for g in products:
            aut_order(g)
        assert calls == 3


@st.composite
def vf2_cases(draw):
    g, perm = draw(graph_with_permutation(min_n=1, max_n=7))
    other = draw(graphs(min_n=g.n, max_n=g.n))
    return g, perm, other


class TestAgainstVF2:
    """Differential check against networkx's VF2 matcher."""

    @settings(max_examples=60, deadline=None)
    @given(vf2_cases())
    def test_queries_agree(self, case):
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.isomorphism import GraphMatcher

        def to_nx(g):
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            return h

        g, perm, other = case
        autos = list(GraphMatcher(to_nx(g), to_nx(g)).isomorphisms_iter())
        assert aut_order(g) == len(autos)
        assert is_vertex_transitive(g) == ({m[0] for m in autos} == set(range(g.n)))
        permuted = apply_permutation(g, perm)
        assert is_isomorphic(g, permuted) == nx.is_isomorphic(to_nx(g), to_nx(permuted))
        assert is_isomorphic(g, other) == nx.is_isomorphic(to_nx(g), to_nx(other))


class TestOrbits:
    def test_cycle_single_orbit(self):
        assert orbits(automorphisms(cycle_graph(5))) == [[0, 1, 2, 3, 4]]

    def test_star_orbits(self):
        assert orbits(automorphisms(star_graph(4))) == [[0], [1, 2, 3, 4]]

    def test_cycle4_orbitals(self):
        obs = orbitals(automorphisms(cycle_graph(4)))
        assert len(obs) == 3
        assert sum(len(o) for o in obs) == 16

    @settings(max_examples=30, deadline=None)
    @given(graphs(min_n=1, max_n=5))
    def test_orbitals_partition_pairs(self, g):
        obs = orbitals(automorphisms(g))
        flat = [p for o in obs for p in o]
        assert sorted(flat) == [(u, v) for u in range(g.n) for v in range(g.n)]


class TestIsomorphism:
    def test_basic_cases(self):
        assert is_isomorphic(cycle_graph(4), cycle_graph(4))
        assert not is_isomorphic(cycle_graph(4), path_graph(4))
        assert not is_isomorphic(cycle_graph(4), cycle_graph(5))
        assert not is_isomorphic(complete_graph(4), empty_graph(4))

    def test_different_sizes_skip_the_bound(self):
        # graphs of different vertex counts are never isomorphic, whatever
        # the bound; equal sizes past the bound still raise
        assert not is_isomorphic(complete_graph(1), path_graph(15), 14)
        with pytest.raises(OracleBoundError):
            is_isomorphic(path_graph(15), path_graph(15), 14)

    def test_same_degrees_different_structure(self):
        # both 2-regular on 6 vertices: one hexagon vs two triangles
        two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2),
                                             (3, 4), (4, 5), (3, 5)])
        assert not is_isomorphic(cycle_graph(6), two_triangles)

    @settings(max_examples=40, deadline=None)
    @given(graph_with_permutation(max_n=6))
    def test_permuted_graph_is_isomorphic(self, gp):
        g, perm = gp
        assert is_isomorphic(g, apply_permutation(g, perm))

    @settings(max_examples=30, deadline=None)
    @given(graph_with_permutation(max_n=5))
    def test_refined_colours_are_invariant(self, gp):
        g, perm = gp
        c1 = refined_vertex_colours(g)
        c2 = refined_vertex_colours(apply_permutation(g, perm))
        assert all(c1[v] == c2[perm[v]] for v in range(g.n))


class TestVertexTransitivity:
    def test_known_cases(self):
        assert is_vertex_transitive(cycle_graph(5))
        assert is_vertex_transitive(complete_graph(4))
        assert is_vertex_transitive(empty_graph(3))
        assert not is_vertex_transitive(path_graph(3))
        assert not is_vertex_transitive(star_graph(3))

    @settings(max_examples=30, deadline=None)
    @given(graphs(min_n=1, max_n=5))
    def test_matches_orbit_computation(self, g):
        expected = len(orbits(automorphisms(g))) == 1
        assert is_vertex_transitive(g) == expected


class TestWreathOrder:
    def test_value(self):
        assert wreath_order(8, 4, 2) == 8 ** 4 * 2

    def test_huge_values_exact(self):
        # arbitrary-precision integers: no overflow at any size
        assert wreath_order(10 ** 6, 12, 2) == 10 ** 72 * 2

    def test_rejects_nonpositive(self):
        with pytest.raises(GraphError):
            wreath_order(0, 3, 1)
