"""Symbolic group expressions: serialization, simplify, orders."""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from lexsym import (FreeProd, FreeWreath, Indeterminate, QutLeaf, SPlus,
                    classical_order, complete_graph, cycle_graph, empty_graph,
                    path_graph, serialize, serialize_classical, simplify,
                    star_graph)
from lexsym.decompose import qut_expression
from lexsym.expressions import degree, to_tree
from lexsym.formats import content_hash

leaves = st.one_of(
    st.integers(1, 4).map(SPlus),
    graphs(min_n=1, max_n=4).map(QutLeaf),
)

expressions = st.recursive(
    leaves,
    lambda sub: st.one_of(
        st.tuples(sub, sub).map(lambda t: FreeWreath(*t)),
        st.lists(sub, min_size=2, max_size=3).map(lambda c: FreeProd(tuple(c))),
    ),
    max_leaves=6,
)


class TestSerialize:
    def test_atoms(self):
        assert serialize(SPlus(4)) == "S+(4)"
        assert serialize_classical(SPlus(3)) == "S(3)"
        assert serialize(Indeterminate("why")) == "Indeterminate(why)"

    def test_operators(self):
        e = FreeWreath(FreeWreath(SPlus(2), SPlus(4)), SPlus(2))
        assert serialize(e) == "FreeWreath(FreeWreath(S+(2),S+(4)),S+(2))"
        assert serialize(FreeProd((SPlus(2), SPlus(3)))) == "FreeProd(S+(2),S+(3))"
        assert serialize_classical(FreeProd((SPlus(2), SPlus(3)))) == "FreeProd(S(2),S(3))"
        assert serialize_classical(FreeWreath(SPlus(2), SPlus(3))) == "Wreath(S(2),S(3))"

    def test_graph_leaves_named_by_hash(self):
        assert re.fullmatch(r"Qut\(#[0-9a-f]{8}\)", serialize(QutLeaf(cycle_graph(5))))
        assert re.fullmatch(r"Aut\(#[0-9a-f]{8}\)",
                            serialize_classical(QutLeaf(cycle_graph(5))))

    @settings(max_examples=40, deadline=None)
    @given(expressions)
    def test_deterministic(self, e):
        assert serialize(e) == serialize(e)

    def test_serialize_classical(self):
        e = FreeWreath(SPlus(2), FreeProd((QutLeaf(cycle_graph(5)), SPlus(3))))
        assert serialize_classical(e) == "Wreath(S(2),FreeProd(Aut(#50dfef4d),S(3)))"

    @settings(max_examples=60, deadline=None)
    @given(expressions)
    def test_classical_matches_a_structural_walk(self, e):
        def walk(e):
            if isinstance(e, SPlus):
                return f"S({e.n})"
            if isinstance(e, QutLeaf):
                return f"Aut(#{content_hash(e.graph)})"
            if isinstance(e, FreeWreath):
                return f"Wreath({walk(e.inner)},{walk(e.outer)})"
            return "FreeProd(" + ",".join(walk(c) for c in e.children) + ")"
        assert serialize_classical(e) == walk(e)


class TestToTree:
    def test_structure(self):
        tree = to_tree(FreeWreath(SPlus(2), QutLeaf(cycle_graph(5))))
        assert tree["kind"] == "FreeWreath"
        assert tree["inner"] == {"kind": "SPlus", "n": 2}
        assert set(tree["outer"]["graph"]) == {"hash", "text"}

    def test_free_prod_and_indeterminate(self):
        assert to_tree(FreeProd((SPlus(2), SPlus(3))))["children"][1]["n"] == 3
        assert to_tree(Indeterminate("x"))["reason"] == "x"

    def test_non_expressions_rejected(self):
        for render in (serialize, to_tree):
            with pytest.raises(TypeError, match="not a group expression"):
                render(object())


class TestValidation:
    def test_splus_positive(self):
        with pytest.raises(ValueError):
            SPlus(0)

    def test_free_prod_needs_two_children(self):
        with pytest.raises(ValueError):
            FreeProd((SPlus(2),))


class TestSimplify:
    def test_special_leaves_collapse(self):
        # the structural walk, not simplify, gives symmetric graphs S+(n)
        assert qut_expression(empty_graph(4)) == SPlus(4)
        assert qut_expression(complete_graph(5)) == SPlus(5)
        assert qut_expression(star_graph(4)) == FreeProd((SPlus(1), SPlus(4)))
        assert qut_expression(complete_graph(1)) == SPlus(1)
        assert serialize_classical(qut_expression(empty_graph(3))) == "S(3)"

    def test_non_special_leaves_kept(self):
        assert simplify(QutLeaf(path_graph(4))) == QutLeaf(path_graph(4))
        assert simplify(QutLeaf(cycle_graph(5))) == QutLeaf(cycle_graph(5))

    def test_trivial_wreath_factors_dropped(self):
        assert simplify(FreeWreath(SPlus(1), SPlus(3))) == SPlus(3)
        assert simplify(FreeWreath(SPlus(3), FreeWreath(SPlus(1), SPlus(1)))) == SPlus(3)

    def test_free_prod_keeps_trivial_children(self):
        # S+(1) children are points (isolated vertices, singleton modules)
        e = FreeProd((SPlus(1), SPlus(3), FreeWreath(SPlus(1), SPlus(1))))
        assert simplify(e) == FreeProd((SPlus(1), SPlus(3), SPlus(1)))
        assert degree(simplify(e)) == degree(e) == 5

    def test_nested(self):
        e = FreeWreath(qut_expression(star_graph(2)), FreeWreath(SPlus(1), SPlus(3)))
        assert serialize(simplify(e)) == "FreeWreath(FreeProd(S+(1),S+(2)),S+(3))"

    @settings(max_examples=60, deadline=None)
    @given(expressions)
    def test_idempotent(self, e):
        once = simplify(e)
        assert simplify(once) == once


class TestOrders:
    def test_degree(self):
        assert degree(SPlus(4)) == 4
        assert degree(FreeWreath(SPlus(2), SPlus(4))) == 8
        assert degree(FreeProd((SPlus(2), QutLeaf(cycle_graph(5))))) == 7

    def test_degree_of_indeterminate_rejected(self):
        with pytest.raises(ValueError):
            degree(Indeterminate("x"))

    def test_classical_order_of_indeterminate_rejected(self):
        with pytest.raises(ValueError, match="no order"):
            classical_order(Indeterminate("x"))

    def test_classical_order_values(self):
        assert classical_order(SPlus(4)) == 24
        assert classical_order(FreeWreath(SPlus(2), SPlus(4))) == 2 ** 4 * 24
        assert classical_order(QutLeaf(cycle_graph(4))) == 8
        assert classical_order(FreeProd((SPlus(2), SPlus(3)))) == 12

    def test_star_keeps_its_centre(self):
        # K1,4 is K1 + K4 complemented: the centre stays a fixed point
        e = qut_expression(star_graph(4))
        assert degree(e) == degree(QutLeaf(star_graph(4))) == 5
        assert classical_order(e) == classical_order(QutLeaf(star_graph(4))) == math.factorial(4)
