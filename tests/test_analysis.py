"""Wreath-condition verdicts, separation checks, and reports."""

import random
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings

import lexsym.analysis
import lexsym.wl
from conftest import (apply_permutation, graph_with_permutation, graphs,
                      initial_colouring, petersen_graph)
from lexsym import (FactorTable, Graph, analyze_product, aut_order, complement,
                    complete_graph, cycle_graph, disjoint_union, empty_graph, first_round,
                    lex_product, path_graph, sabidussi_conditions, serialize,
                    stable_colouring, star_graph, verify_wl_separation, wreath_order,
                    check_first_iteration_consequences)
from lexsym.analysis import SeparationReport, _first_round_separates
from lexsym.graphs import GraphError
from lexsym.census import unlabelled_graphs, unlabelled_graphs_upto
from lexsym.expressions import Indeterminate, classical_order, degree
from lexsym.sweeps import census_pairs as walk_census


def pair_buckets(y, product):
    """Unordered product pairs split into inner/outer edge and non-edge lists.

    A pair is inner when both ends lie in the same copy of y, that is when
    their flat indices agree after integer division by |V(y)|."""
    inner_e, outer_e, inner_ne, outer_ne = [], [], [], []
    ny = y.n
    for p in range(product.n):
        row = product.rows[p]
        for q in range(p + 1, product.n):
            inner = p // ny == q // ny
            if row >> q & 1:
                (inner_e if inner else outer_e).append((p, q))
            else:
                (inner_ne if inner else outer_ne).append((p, q))
    return inner_e, outer_e, inner_ne, outer_ne


def reference_separation(c, inner, outer):
    """Whether the union of the inner pairs' colours (both orientations)
    misses that of the outer pairs, and if not, the (inner, outer) pairs
    whose colour sets meet, inner-major."""
    def colour_set(pair):
        p, q = pair
        return frozenset((c.colour(p, q), c.colour(q, p)))

    inner_sets = [colour_set(e) for e in inner]
    outer_sets = [colour_set(e) for e in outer]
    if not (set().union(*inner_sets) & set().union(*outer_sets)):
        return True, []
    witnesses = [(e1, e2) for e1, s1 in zip(inner, inner_sets)
                 for e2, s2 in zip(outer, outer_sets) if s1 & s2]
    return False, witnesses


def reference_verify_wl_separation(x, y):
    """The separation check on the stable colouring alone, with no early
    exit.  `verify_wl_separation` must return the same report."""
    product = lex_product(x, y)
    c = stable_colouring(product).stable
    inner_e, outer_e, inner_ne, outer_ne = pair_buckets(y, product)
    edges_ok, edge_witnesses = reference_separation(c, inner_e, outer_e)
    nonedges_ok, nonedge_witnesses = reference_separation(c, inner_ne, outer_ne)
    return SeparationReport(edges_ok, nonedges_ok,
                            tuple(edge_witnesses + nonedge_witnesses))


def reference_first_round_separates(x, y):
    """Whether the first round of the built product x[y] gives inner and
    outer edges, and inner and outer non-edges, disjoint colours."""
    product = lex_product(x, y)
    c = first_round(product)
    inner_e, outer_e, inner_ne, outer_ne = pair_buckets(y, product)
    return all(reference_separation(c, inner, outer)[0]
               for inner, outer in ((inner_e, outer_e), (inner_ne, outer_ne)))


def count_rounds(monkeypatch):
    """A Counter of the `first_round` and `refine_step` calls made through
    `wl`, the rounds of x[y] that the separation check builds."""
    calls = Counter()
    for name in ("first_round", "refine_step"):
        f = getattr(lexsym.wl, name)
        monkeypatch.setattr(lexsym.wl, name,
                            lambda *a, f=f, name=name: calls.update([name]) or f(*a))
    return calls


def relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return apply_permutation(g, perm)


@lru_cache(maxsize=None)
def census_pairs():
    """Census factor pairs of at most 7 vertices with products of at most 16
    vertices, split by whether both conditions hold."""
    census = unlabelled_graphs_upto(7)
    holding, failing = [], []
    for x in census:
        for y in census:
            if x.n * y.n <= 16:
                holds = sabidussi_conditions(x, y).wreath_holds
                (holding if holds else failing).append((x, y))
    return holding, failing


class TestConditions:
    def test_wreath_pair(self):
        rep = sabidussi_conditions(cycle_graph(4), complete_graph(2))
        assert rep.condition_i and rep.condition_ii and rep.wreath_holds

    def test_failing_pair(self):
        rep = sabidussi_conditions(empty_graph(2), empty_graph(2))
        assert not rep.y_connected
        assert rep.x_has_twins
        assert not rep.condition_i
        assert rep.condition_ii
        assert not rep.wreath_holds

    def test_complement_side(self):
        rep = sabidussi_conditions(complete_graph(2), complete_graph(2))
        assert rep.condition_i
        assert not rep.ybar_connected
        assert rep.xbar_has_twins
        assert not rep.condition_ii

    def test_as_dict_keys(self):
        d = sabidussi_conditions(cycle_graph(4), complete_graph(2)).as_dict()
        assert set(d) == {"y_connected", "x_has_twins", "ybar_connected",
                          "xbar_has_twins", "condition_i", "condition_ii",
                          "wreath_holds"}


class TestSeparation:
    def test_separated_product(self):
        rep = verify_wl_separation(cycle_graph(4), complete_graph(2))
        assert rep.inner_outer_edges_separated
        assert rep.inner_outer_nonedges_separated
        assert rep.failing_witnesses == ()

    def test_unseparated_empty_product(self):
        # the product of two edgeless pairs is edgeless: every non-edge pair
        # shares one colour, so inner and outer non-edges cannot separate
        rep = verify_wl_separation(empty_graph(2), empty_graph(2))
        assert rep.inner_outer_edges_separated
        assert not rep.inner_outer_nonedges_separated
        assert len(rep.failing_witnesses) > 0

    def test_equals_the_reference_on_census_pairs(self, monkeypatch):
        # products of at most 12 vertices: 3041 pairs where both conditions
        # hold and 390 failing pairs, each with witnesses read from stable
        # rounds 1, 2 and 3.  The holding pairs are decided at round 1 (2919,
        # on the factors), round 2 (120, on round 1's mixed pairs, after
        # x[y] and its first round are built) and round 3 (2, after round 2
        # is built)
        calls = count_rounds(monkeypatch)
        holding, failing = ([(x, y) for x, y in pairs if x.n * y.n <= 12]
                            for pairs in census_pairs())
        assert (len(holding), len(failing)) == (3041, 390)
        decided = Counter()
        for i, (x, y) in enumerate(holding + failing):
            calls.clear()
            rep = verify_wl_separation(x, y)
            if i < len(holding):
                decided[1 + calls.total()] += 1
            assert rep == reference_verify_wl_separation(x, y), (x.rows, y.rows)
        assert decided == {1: 2919, 2: 120, 3: 2}
        assert all(reference_verify_wl_separation(x, y).failing_witnesses
                   for x, y in failing)

    def test_refine_step_calls_on_criterion_2_pairs(self, monkeypatch):
        # refinement stops at the first separating round, and each round is
        # tested on its mixed pairs before the next is built: over the 6132
        # criterion 2 pairs refine_step builds 22 rounds, against 1136 calls
        # when every round up to the separating one was built and 10,601 to
        # reach every stable colouring
        calls = count_rounds(monkeypatch)
        holding, _ = census_pairs()
        assert len(holding) == 6132
        for x, y in holding:
            verify_wl_separation(x, y)
        assert calls["refine_step"] == 22

    def test_round_two_built_when_its_mixed_pairs_meet(self, monkeypatch):
        # 2K1[P6]: the keys of round 1's mixed pairs meet across inner and
        # outer, so round 2 is built; round 3 is not, because round 2's
        # mixed keys do not meet
        x, y = empty_graph(2), Graph(6, (24, 48, 32, 1, 3, 6))
        assert sabidussi_conditions(x, y).wreath_holds
        calls = count_rounds(monkeypatch)
        rep = verify_wl_separation(x, y)
        assert calls == {"first_round": 1, "refine_step": 1}
        assert rep == reference_verify_wl_separation(x, y) == SeparationReport(True, True, ())

    @settings(max_examples=200, deadline=None)
    @given(graph_with_permutation(1, 6), graph_with_permutation(1, 5))
    def test_equals_the_reference_on_relabelled_pairs(self, x, y):
        x, y = (apply_permutation(g, perm) for g, perm in (x, y))
        assert verify_wl_separation(x, y) == reference_verify_wl_separation(x, y)

    def test_first_round_calls_on_criterion_2_pairs(self, monkeypatch):
        # the first round is decided from the factors for 5018 of the 6132
        # criterion 2 pairs; only the other 1114 build x[y] and refine it
        calls = count_rounds(monkeypatch)
        holding, _ = census_pairs()
        for x, y in holding:
            verify_wl_separation(x, y)
        assert calls["first_round"] == 1114

    @pytest.mark.parametrize("x, y", [(empty_graph(0), complete_graph(2)),
                                      (complete_graph(2), empty_graph(0))])
    def test_empty_factor_is_refused(self, x, y):
        with pytest.raises(GraphError):
            verify_wl_separation(x, y)

    def test_first_iteration_consequences_clean(self):
        # every census pair with a product of at most 12 vertices, whether
        # or not the conditions hold
        pairs = [(x, y) for part in census_pairs() for x, y in part if x.n * y.n <= 12]
        assert len(pairs) == 3431
        for x, y in pairs:
            assert check_first_iteration_consequences(x, y) == [], (x.rows, y.rows)

    def test_first_iteration_consequences_report_violations(self, monkeypatch):
        # with the unrefined diagonal/edge/non-edge round in place of the
        # first round, P3[P3]'s inner and outer pairs are not distinguished
        assert check_first_iteration_consequences(path_graph(3), path_graph(3)) == []
        # P3[P3] separates at round 1, which would skip the product altogether
        monkeypatch.setattr(lexsym.analysis, "_first_round_separates", lambda x, y: False)
        monkeypatch.setattr(lexsym.wl, "first_round", initial_colouring)
        violations = check_first_iteration_consequences(path_graph(3), path_graph(3))
        assert len(violations) == 135
        assert set(violations) == {
            "edges: outer endpoints 0,1 are not twins",
            "edges: outer endpoints 1,2 are not twins",
            "nonedges: inner endpoints 0,2 share a witness vertex"}


class TestFirstRoundFromFactors:
    def test_equals_the_product_round_on_census_pairs(self):
        # products of at most 16 vertices: round 1 separates 5018 of the
        # 6132 pairs where both conditions hold and none of the 1868 others
        holding, failing = census_pairs()
        assert (len(holding), len(failing)) == (6132, 1868)
        separated = []
        for pairs in (holding, failing):
            answers = [_first_round_separates(x, y) for x, y in pairs]
            assert answers == [reference_first_round_separates(x, y) for x, y in pairs]
            separated.append(sum(answers))
        assert separated == [5018, 0]

    @settings(max_examples=200, deadline=None)
    @given(graphs(min_n=1, max_n=6), graphs(min_n=1, max_n=5))
    def test_equals_the_product_round_on_labelled_pairs(self, x, y):
        assert _first_round_separates(x, y) == reference_first_round_separates(x, y)

    @pytest.mark.parametrize("name, x, y, separated", [
        ("C7[C6]", cycle_graph(7), cycle_graph(6), True),
        ("C5[C5]", cycle_graph(5), cycle_graph(5), True),
        ("C4[3K2]", cycle_graph(4), disjoint_union([complete_graph(2)] * 3)[0], False),
        ("Petersen[K2]", petersen_graph(), complete_graph(2), True)])
    def test_named_products(self, name, x, y, separated):
        rng = random.Random(name)
        for x, y in ((x, y), (relabelled(x, rng), relabelled(y, rng))):
            assert reference_first_round_separates(x, y) is separated
            assert _first_round_separates(x, y) is separated


class TestAnalyze:
    def test_wreath_verdict(self):
        rep = analyze_product(cycle_graph(4), complete_graph(2))
        assert rep.verdict == "wreath"
        # C4 is K2[2K1]: the walk certifies it as FreeWreath(S+(2),S+(2))
        assert serialize(rep.quantum_expr) == "FreeWreath(S+(2),FreeWreath(S+(2),S+(2)))"
        assert rep.aut_order == 128
        assert rep.wreath_order == 128

    def test_star_pair_golden(self):
        rep = analyze_product(star_graph(3), star_graph(4))
        assert rep.verdict == "wreath"
        assert serialize(rep.quantum_expr) == (
            "FreeWreath(FreeProd(S+(1),S+(4)),FreeProd(S+(1),S+(3)))")
        assert degree(rep.quantum_expr) == 20
        assert rep.classical_skipped == "bound"

    def test_cycle_complement_golden(self):
        rep = analyze_product(cycle_graph(4), complement(cycle_graph(4)))
        assert rep.verdict == "decomposed"
        assert serialize(rep.quantum_expr) == "FreeWreath(FreeWreath(S+(2),S+(4)),S+(2))"

    def test_strict_inequality_pair(self):
        rep = analyze_product(empty_graph(2), empty_graph(2))
        assert rep.verdict == "decomposed"
        assert serialize(rep.quantum_expr) == "S+(4)"
        assert rep.aut_order == 24
        assert rep.wreath_order == 8

    def test_indeterminate_pair(self):
        # condition i fails and P3's twin classes {0, 2}, {1} are not uniform
        rep = analyze_product(path_graph(3), empty_graph(2))
        assert rep.verdict == "indeterminate"
        assert isinstance(rep.quantum_expr, Indeterminate)
        assert "condition i" in rep.quantum_expr.reason
        assert rep.aut_order > rep.wreath_order

    def test_as_dict_schema(self):
        d = analyze_product(cycle_graph(4), complete_graph(2)).as_dict()
        assert d["schema"] == 1
        assert d["classical"]["equal"] is True
        assert d["verdict"] == "wreath"
        assert set(d["graphs"]) == {"x", "y"}
        assert d["quantum_expr_tree"]["kind"] == "FreeWreath"

    def test_as_dict_skipped_classical(self):
        d = analyze_product(cycle_graph(4), complete_graph(2), max_degree=4).as_dict()
        assert d["classical"] == {"skipped": "bound"}

    def test_shared_factor_table_gives_the_same_reports(self):
        # the 1030 pairs of the benchmark's survey workload, one table for
        # all of them against a fresh table per pair
        factors = FactorTable(16)
        pairs, _ = walk_census(6, 4, 16)
        assert len(pairs) == 1030
        for x, y in pairs:
            shared = analyze_product(x, y, 16, factors).as_dict()
            assert shared == analyze_product(x, y, 16).as_dict(), (x.rows, y.rows)

    def test_factor_table_at_another_bound_is_refused(self):
        # a certified expression depends on the bound
        with pytest.raises(ValueError, match="bound 16"):
            analyze_product(cycle_graph(4), complete_graph(2), 14, FactorTable(16))

    @settings(max_examples=25, deadline=None)
    @given(graphs(min_n=1, max_n=3), graphs(min_n=1, max_n=3))
    def test_order_equality_iff_conditions(self, x, y):
        conditions = sabidussi_conditions(x, y)
        order = aut_order(lex_product(x, y))
        worder = wreath_order(aut_order(y), x.n, aut_order(x))
        if conditions.wreath_holds:
            assert order == worder
        else:
            assert order > worder

    def test_order_equality_iff_conditions_up_to_24_vertices(self):
        # Sabidussi's identity on a seeded sample of 40 census pairs per
        # shape, with factors and product relabelled
        rng = random.Random(24)
        tally = {True: 0, False: 0}
        for nx, ny in [(4, 6), (6, 4), (4, 5), (5, 4), (6, 3), (3, 6)]:
            pairs = [(x, y) for x in unlabelled_graphs(nx) for y in unlabelled_graphs(ny)]
            for x, y in rng.sample(pairs, 40):
                x, y = relabelled(x, rng), relabelled(y, rng)
                holds = sabidussi_conditions(x, y).wreath_holds
                order = aut_order(relabelled(lex_product(x, y), rng))
                worder = wreath_order(aut_order(y), x.n, aut_order(x))
                assert order == worder if holds else order > worder, (x.rows, y.rows)
                tally[holds] += 1
        assert tally == {True: 128, False: 112}


class TestInvariants:
    def test_certified_verdicts_match_the_oracle(self):
        # every pair of census factors with a product of at most 12 vertices:
        # a certified expression acts on every vertex, and its classical
        # shadow is the automorphism group of the product (a 7-vertex factor
        # pairs only with K1, whose products the walk's own tests cover)
        census = unlabelled_graphs_upto(6)
        checked = 0
        for x in census:
            for y in census:
                if x.n * y.n > 12:
                    continue
                rep = analyze_product(x, y)
                where = (serialize(rep.quantum_expr), x.rows, y.rows)
                assert ("classical_expr" in rep.as_dict()) == (rep.verdict == "wreath"), where
                if isinstance(rep.quantum_expr, Indeterminate):
                    continue
                assert degree(rep.quantum_expr) == x.n * y.n, where
                assert classical_order(rep.quantum_expr) == rep.aut_order, where
                checked += 1
        assert checked > 900
