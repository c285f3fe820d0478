"""Wreath-condition verdicts, separation checks, and reports."""

from functools import lru_cache

import pytest
from hypothesis import given, settings

import lexsym.wl
from conftest import graphs
from lexsym import (analyze_product, aut_order, complement, complete_graph,
                    cycle_graph, empty_graph, lex_product, path_graph,
                    sabidussi_conditions, serialize, stable_colouring, star_graph,
                    verify_wl_separation, wreath_order,
                    check_first_iteration_consequences)
from lexsym.analysis import SeparationReport, _pair_buckets
from lexsym.census import unlabelled_graphs_upto
from lexsym.expressions import Indeterminate, classical_order, degree


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
    inner_e, outer_e, inner_ne, outer_ne = _pair_buckets(y, product)
    edges_ok, edge_witnesses = reference_separation(c, inner_e, outer_e)
    nonedges_ok, nonedge_witnesses = reference_separation(c, inner_ne, outer_ne)
    return SeparationReport(edges_ok, nonedges_ok,
                            tuple(edge_witnesses + nonedge_witnesses))


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

    def test_equals_the_reference_on_census_pairs(self):
        # products of at most 12 vertices: 3041 pairs where both conditions
        # hold, separated at rounds 0, 1 and 2, and 390 failing pairs, each
        # with witnesses read from stable rounds 0, 1 and 2
        holding, failing = ([(x, y) for x, y in pairs if x.n * y.n <= 12]
                            for pairs in census_pairs())
        assert (len(holding), len(failing)) == (3041, 390)
        for x, y in holding + failing:
            assert verify_wl_separation(x, y) == reference_verify_wl_separation(x, y), (
                x.rows, y.rows)
        assert all(reference_verify_wl_separation(x, y).failing_witnesses
                   for x, y in failing)

    def test_refine_step_calls_on_criterion_2_pairs(self, monkeypatch):
        # refinement stops at the first separating round: 1136 refine_step
        # calls over the 6132 criterion 2 pairs, against 10,601 to reach
        # every stable colouring
        calls = 0
        refine_step = lexsym.wl.refine_step

        def counting(g, c):
            nonlocal calls
            calls += 1
            return refine_step(g, c)

        monkeypatch.setattr(lexsym.wl, "refine_step", counting)
        holding, _ = census_pairs()
        assert len(holding) == 6132
        for x, y in holding:
            verify_wl_separation(x, y)
        assert calls == 1136

    def test_first_iteration_consequences_clean(self):
        # every census pair with a product of at most 12 vertices, whether
        # or not the conditions hold
        pairs = [(x, y) for part in census_pairs() for x, y in part if x.n * y.n <= 12]
        assert len(pairs) == 3431
        for x, y in pairs:
            assert check_first_iteration_consequences(x, y) == [], (x.rows, y.rows)


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
                if isinstance(rep.quantum_expr, Indeterminate):
                    continue
                where = (serialize(rep.quantum_expr), x.rows, y.rows)
                assert degree(rep.quantum_expr) == x.n * y.n, where
                assert classical_order(rep.quantum_expr) == rep.aut_order, where
                if rep.verdict == "wreath":
                    assert classical_order(rep.classical_expr) == rep.aut_order, where
                checked += 1
        assert checked > 900
