"""The structural walk (`split`) and the symbolic symmetry pathways on it."""

from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings

from conftest import graphs
from lexsym import (Graph, analyze_product, aut_order, classical_order,
                    complement, complete_graph, cycle_graph, disjoint_union,
                    empty_graph, is_vertex_transitive, lex_product, path_graph,
                    sabidussi_conditions, serialize, star_graph, twin_partition)
from lexsym.census import unlabelled_graphs_upto
from lexsym.decompose import (_maximal_modules, _quotient, analyze_vt_product,
                              certified, qut_disjoint_union, qut_expression, split)
from lexsym.expressions import FreeWreath, Indeterminate, SPlus, degree, simplify
from lexsym.formats import content_hash
from lexsym.graphs import GraphError, connected_components, induced_subgraph, is_connected


def copies(g, k):
    union, _ = disjoint_union([g] * k)
    return union


def substitute(q, parts):
    """q with vertex i replaced by the graph parts[i], numbered block by block."""
    union, offsets = disjoint_union(parts)
    blocks = [range(o, o + p.n) for o, p in zip(offsets, parts)]
    cross = [(u, v) for i, j in q.edges() for u in blocks[i] for v in blocks[j]]
    return Graph.from_edges(union.n, list(union.edges()) + cross)


ROOK_STEPS = {(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)}
SHRIKHANDE_STEPS = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}


def z4_squared_cayley(steps):
    """The Cayley graph on Z4 x Z4, vertex 4a + b for (a, b), with the
    symmetric step set `steps`."""
    return Graph.from_edges(16, [(u, v) for u, v in combinations(range(16), 2)
                                 if ((v // 4 - u // 4) % 4, (v - u) % 4) in steps])


# Connected and co-connected, with maximal strong modules {0, 1}, {2}, {3},
# {4}: the chair's {0, 1} are twins, the tailed triangle's are complement
# twins.
CHAIR = Graph.from_edges(5, [(0, 2), (1, 2), (2, 3), (3, 4)])
TAILED_TRIANGLE = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])


def is_module(g, vertices):
    inside = set(vertices)
    return all(len({g.rows[w] >> v & 1 for v in inside}) <= 1
               for w in range(g.n) if w not in inside)


class TestTwinQuotient:
    """Graphs of the form Q[empty_alpha] and the twin step of the walk."""

    def test_cycle4(self):
        rep = split(cycle_graph(4))
        assert rep.kind == "co-components"
        assert rep.modules == ((0, 2), (1, 3))
        assert rep.quotient == complete_graph(2)

    def test_empty_graph(self):
        rep = split(empty_graph(4))
        assert rep.kind == "components"
        assert rep.modules == ((0,), (1,), (2,), (3,))
        assert rep.quotient == empty_graph(4)

    def test_non_uniform_classes(self):
        # twin classes of sizes 2, 1, 1, 1 and non-isomorphic modules
        assert split(CHAIR).kind == "none"

    def test_twin_free_graph_is_its_own_quotient(self):
        # P4 is prime: no step of the walk splits it
        rep = split(path_graph(4))
        assert rep.kind == "none"
        assert rep.modules == () and rep.quotient is None

    @settings(max_examples=40, deadline=None)
    @given(graphs(min_n=1, max_n=6))
    def test_quotient_is_twin_free_when_nontrivial(self, g):
        rep = split(g)
        if rep.kind in ("modules", "twins"):
            assert not twin_partition(rep.quotient).has_twins
        if rep.kind in ("modules", "complement_twins"):
            assert not twin_partition(complement(rep.quotient)).has_twins

    def test_product_reconstruction(self):
        # the defining identity, checked on an explicit product
        g = lex_product(cycle_graph(5), empty_graph(2))
        rep = split(g)
        assert rep.kind == "modules"
        assert rep.modules == ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9))
        assert rep.quotient == cycle_graph(5)
        assert lex_product(rep.quotient, empty_graph(2)) == g

    def test_twin_step_when_modules_differ(self):
        # maximal modules C4 and three 2K1, but every twin class has size 2
        g = lex_product(TAILED_TRIANGLE, empty_graph(2))
        rep = split(g)
        assert rep.kind == "twins"
        assert rep.quotient == TAILED_TRIANGLE
        assert lex_product(rep.quotient, empty_graph(2)) == g


class TestComplementTwinQuotient:
    """Graphs of the form Q[K_alpha] and the complement-twin step."""

    def test_three_matchings(self):
        g = copies(complete_graph(2), 3)
        rep = split(g)
        assert rep.kind == "components"
        assert rep.quotient == empty_graph(3)
        assert lex_product(rep.quotient, complete_graph(2)) == g

    def test_complete_graph(self):
        rep = split(complete_graph(6))
        assert rep.kind == "co-components"
        assert rep.quotient == complete_graph(6)

    def test_none_when_complement_classes_uneven(self):
        assert split(complement(CHAIR)).kind == "none"

    def test_complement_twin_step_when_modules_differ(self):
        g = complement(lex_product(TAILED_TRIANGLE, empty_graph(2)))
        rep = split(g)
        assert rep.kind == "complement_twins"
        assert rep.quotient == complement(TAILED_TRIANGLE)
        assert lex_product(rep.quotient, complete_graph(2)) == g


class TestComponentDecomposition:
    """Components, and modules that are isomorphic but labelled apart."""

    def test_matching(self):
        g = copies(complete_graph(2), 2)
        rep = split(g)
        assert rep.kind == "components"
        assert rep.modules == ((0, 1), (2, 3))
        assert [induced_subgraph(g, m) for m in rep.modules] == [complete_graph(2)] * 2

    def test_mixed_components(self):
        g, _ = disjoint_union([complete_graph(2), cycle_graph(3)])
        rep = split(g)
        assert rep.kind == "components"
        assert rep.modules == ((0, 1), (2, 3, 4))

    def test_bound_exceeded_reports_unknown(self):
        # P4[P3] with one copy of P3 centred on its vertex 0: the modules
        # are isomorphic but not equal, so only the oracle can match them
        p3 = Graph.from_edges(3, [(0, 1), (0, 2)])
        g = substitute(path_graph(4), [path_graph(3), p3, path_graph(3), path_graph(3)])
        assert split(g).kind == "modules"
        # past the bound the walk falls through to the twin steps
        assert split(g, max_degree=2).kind == "none"


class TestDisjointUnionRule:
    def test_three_triangles(self):
        expr = qut_disjoint_union(copies(complete_graph(3), 3))
        assert serialize(expr) == "FreeWreath(S+(3),S+(3))"

    def test_isolated_vertex_kept(self):
        g, _ = disjoint_union([complete_graph(1), complete_graph(3)])
        assert serialize(qut_disjoint_union(g)) == "FreeProd(S+(1),S+(3))"

    def test_two_classes_free_product(self):
        g, _ = disjoint_union([cycle_graph(6), complete_graph(3), complete_graph(3)])
        s = serialize(qut_disjoint_union(g))
        assert s.startswith("FreeProd(Qut(#")
        assert s.endswith("FreeWreath(S+(3),S+(2)))")

    def test_class_terms_are_recursive(self):
        g, _ = disjoint_union([cycle_graph(4), cycle_graph(4), star_graph(3)])
        assert serialize(qut_disjoint_union(g)) == (
            "FreeProd(FreeWreath(FreeWreath(S+(2),S+(2)),S+(2)),FreeProd(S+(1),S+(3)))")

    def test_connected_graph_rejected(self):
        with pytest.raises(GraphError):
            qut_disjoint_union(cycle_graph(5))

    def test_oracle_bound_gives_indeterminate(self):
        # two paths on 15 vertices, the second visited in another order
        order = list(range(0, 15, 2)) + list(range(13, 0, -2))
        other = Graph.from_edges(15, list(zip(order, order[1:])))
        g, _ = disjoint_union([path_graph(15), other])
        expr = qut_disjoint_union(g)
        assert isinstance(expr, Indeterminate)
        assert "oracle bound" in expr.reason

    def test_components_of_different_sizes_skip_the_oracle(self):
        g, _ = disjoint_union([complete_graph(1), path_graph(15)])
        assert serialize(qut_expression(g)) == (
            f"FreeProd(S+(1),Qut(#{content_hash(path_graph(15))}))")

    def test_identical_components_skip_the_oracle(self):
        expr = qut_disjoint_union(copies(path_graph(15), 2))
        assert serialize(expr) == f"FreeWreath(Qut(#{content_hash(path_graph(15))}),S+(2))"

    def test_stable_colour_signatures_split_equal_sized_classes(self):
        # P4 and K1,3: 4 vertices and 3 edges each, told apart by signature
        g, _ = disjoint_union([path_graph(4), star_graph(3)])
        assert serialize(qut_disjoint_union(g)) == (
            "FreeProd(Qut(#b2d21902),FreeProd(S+(1),S+(3)))")

    def test_equal_signatures_give_indeterminate(self):
        # the 4x4 rook's graph and the Shrikhande graph: both srg(16, 6, 2, 2),
        # not isomorphic, and not told apart by 2-WL
        g, _ = disjoint_union([z4_squared_cayley(ROOK_STEPS),
                               z4_squared_cayley(SHRIKHANDE_STEPS)])
        assert qut_disjoint_union(g, 16) == Indeterminate(
            "possible quantum isomorphism across classes")
        assert qut_disjoint_union(g) == Indeterminate(
            "component isomorphism exceeds the oracle bound")


class TestVtProductPathway:
    def test_rejected_when_conditions_hold(self):
        with pytest.raises(GraphError):
            analyze_vt_product(cycle_graph(4), complete_graph(2))

    def test_mode_one(self):
        expr = analyze_vt_product(empty_graph(2), empty_graph(2))
        assert expr == SPlus(4)

    def test_mode_two_via_complements(self):
        # K2[K2] is K4, so the full quantum symmetric group appears
        expr = analyze_vt_product(complete_graph(2), complete_graph(2))
        assert expr == SPlus(4)

    def test_non_transitive_factor_rejected(self):
        # P3's twin classes {0, 2} and {1} are not uniform, so P3 is no
        # X'[aK1] and the twin quotient does not apply
        with pytest.raises(GraphError):
            analyze_vt_product(path_graph(3), empty_graph(2))

    def test_runs_no_oracle(self):
        # the four components of 4K1 are equal as labelled graphs, so no
        # isomorphism test runs and a bound of 1 is never reached
        assert analyze_vt_product(empty_graph(2), empty_graph(2), max_degree=1) == SPlus(4)

    def test_transitive_free_factor(self):
        # P4[2K1] has uniform twin classes but is not vertex transitive
        x, y = lex_product(path_graph(4), empty_graph(2)), empty_graph(2)
        expr = analyze_vt_product(x, y)
        assert serialize(expr) == f"FreeWreath(S+(4),Qut(#{content_hash(path_graph(4))}))"
        assert analyze_product(x, y).verdict == "decomposed"
        assert degree(expr) == 16
        assert classical_order(expr) == 663552 == aut_order(lex_product(x, y))

    def test_product_past_the_bound(self):
        # K3,3[2K3] has 36 vertices; its co-components are identical copies
        k33 = complement(copies(complete_graph(3), 2))
        expr = analyze_vt_product(k33, copies(complete_graph(3), 2), 14)
        assert serialize(expr) == "FreeWreath(FreeWreath(S+(3),S+(6)),S+(2))"

    def test_differently_labelled_components_past_the_bound(self):
        # 2C4 with its second cycle labelled 4-6-5-7: the product's two
        # 16-vertex components differ as labelled graphs, yet only the
        # factors are examined, so the bound of 14 is never reached
        x = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                                 (4, 6), (6, 5), (5, 7), (7, 4)])
        y = copies(complete_graph(2), 2)
        expr = analyze_vt_product(x, y)
        assert serialize(expr) == "FreeWreath(FreeWreath(S+(2),S+(4)),FreeWreath(S+(2),S+(2)))"
        assert analyze_product(x, y).verdict == "decomposed"
        assert degree(expr) == 32
        assert classical_order(expr) == aut_order(lex_product(x, y))
        assert expr == analyze_vt_product(complement(x), complement(y))

    def test_quotient_leaf_is_expanded(self):
        # X' = 2K2 is certified on its own, so it is no Qut leaf
        expr = analyze_vt_product(copies(cycle_graph(4), 2), empty_graph(2))
        assert serialize(expr) == "FreeWreath(S+(4),FreeWreath(S+(2),S+(2)))"

    def test_certified_on_small_transitive_pairs(self):
        # the paper's closed form for vertex-transitive factors: the twin
        # classes of X have size a, Y has b components isomorphic to Y', and
        # the symmetry is FreeWreath(FreeWreath(Qut(Y'), S+(ab)), Qut(X'))
        vt = [g for g in unlabelled_graphs_upto(6) if is_vertex_transitive(g)]
        checked = 0
        for x in vt:
            for y in vt:
                if sabidussi_conditions(x, y).wreath_holds:
                    continue
                back = complement if is_connected(y) else (lambda h: h)
                twins, comps = twin_partition(back(x)).classes, connected_components(back(y))
                y_core = back(induced_subgraph(back(y), comps[0]))
                closed = simplify(FreeWreath(FreeWreath(certified(y_core, 14),
                                                        SPlus(len(twins[0]) * len(comps))),
                                             certified(back(_quotient(back(x), twins)), 14)))
                expr = analyze_vt_product(x, y)
                assert expr == closed, (serialize(expr), serialize(closed))
                assert degree(expr) == x.n * y.n
                assert classical_order(expr) == aut_order(lex_product(x, y))
                checked += 1
        assert checked == 128

    def test_failing_census_pairs(self):
        # census factors of at most 6 vertices, products of at most 16 and a
        # failed condition: 218 of the 574 pairs have uniform twin classes
        census = unlabelled_graphs_upto(6)
        verdicts = Counter()
        for x in census:
            for y in census:
                if x.n * y.n > 16 or sabidussi_conditions(x, y).wreath_holds:
                    continue
                rep = analyze_product(x, y, 16)
                verdicts[rep.verdict] += 1
                if rep.verdict == "decomposed":
                    where = (serialize(rep.quantum_expr), x.rows, y.rows)
                    assert degree(rep.quantum_expr) == x.n * y.n, where
                    assert classical_order(rep.quantum_expr) == rep.aut_order, where
        assert verdicts == {"decomposed": 218, "indeterminate": 356}


class TestQutExpression:
    def test_single_vertex(self):
        assert qut_expression(complete_graph(1)) == SPlus(1)

    def test_complete_graph(self):
        assert qut_expression(complete_graph(5)) == SPlus(5)

    def test_edgeless_graph(self):
        assert qut_expression(empty_graph(4)) == SPlus(4)

    def test_cycle4_is_wreath(self):
        assert serialize(qut_expression(cycle_graph(4))) == "FreeWreath(S+(2),S+(2))"

    def test_twin_pathway(self):
        g = lex_product(cycle_graph(5), empty_graph(2))
        s = serialize(qut_expression(g))
        assert s.startswith("FreeWreath(S+(2),Qut(#")

    def test_no_pathway(self):
        expr = qut_expression(cycle_graph(5))
        assert isinstance(expr, Indeterminate)
        assert expr.reason == "no certified pathway applies"

    @pytest.mark.parametrize("inner, expected", [
        (path_graph(3), "FreeWreath(FreeProd(S+(2),S+(1)),Qut(#{c5}))"),
        (star_graph(3), "FreeWreath(FreeProd(S+(1),S+(3)),Qut(#{c5}))"),
        (cycle_graph(5), "FreeWreath(Qut(#{c5}),Qut(#{c5}))"),
        (empty_graph(20), "FreeWreath(S+(20),Qut(#{c5}))"),
    ])
    def test_prime_quotient_over_modules(self, inner, expected):
        c5 = content_hash(cycle_graph(5))
        assert serialize(qut_expression(lex_product(cycle_graph(5), inner))) == \
            expected.format(c5=c5)

    def test_cycle7_of_cycle6(self):
        g = lex_product(cycle_graph(7), cycle_graph(6))
        assert serialize(qut_expression(g)) == (
            f"FreeWreath(Qut(#{content_hash(cycle_graph(6))}),"
            f"Qut(#{content_hash(cycle_graph(7))}))")


def small_graphs():
    """Census graphs with at most 7 vertices, then the products of census
    factors with at most 12 vertices (which reach every kind of split)."""
    yield from unlabelled_graphs_upto(7)
    census = unlabelled_graphs_upto(6)
    for x in census:
        for y in census:
            if x.n >= 2 and y.n >= 2 and x.n * y.n <= 12:
                yield lex_product(x, y)


class TestWalkProperties:
    def test_classes_are_modules_and_quotient_matches(self):
        kinds = set()
        for g in small_graphs():
            rep = split(g)
            kinds.add(rep.kind)
            if rep.kind == "none":
                continue
            assert sorted(v for m in rep.modules for v in m) == list(range(g.n))
            assert all(is_module(g, m) for m in rep.modules)
            for i, j in combinations(range(len(rep.modules)), 2):
                for u in rep.modules[i]:
                    for v in rep.modules[j]:
                        assert g.rows[u] >> v & 1 == rep.quotient.rows[i] >> j & 1
        assert kinds == {"components", "co-components", "modules", "twins",
                         "complement_twins", "none"}

    def test_module_classes_are_maximal(self):
        for g in small_graphs():
            rep = split(g)
            if rep.kind != "modules":
                continue
            k = len(rep.modules)
            for size in range(2, k):
                for chosen in combinations(rep.modules, size):
                    assert not is_module(g, [v for m in chosen for v in m])

    def test_maximal_modules_by_brute_force(self):
        # every maximal proper module, found by trying every vertex set
        for g in unlabelled_graphs_upto(7):
            if not (g.n > 1 and is_connected(g) and is_connected(complement(g))):
                continue  # only these graphs reach the module step
            proper = [set(s) for size in range(1, g.n) for s in combinations(range(g.n), size)
                      if is_module(g, s)]
            maximal = sorted(tuple(sorted(m)) for m in proper if not any(m < o for o in proper))
            assert sorted(_maximal_modules(g)) == maximal

    def test_quotient_matches_the_edge_list_reference(self):
        kinds = set()
        for g in small_graphs():
            rep = split(g)
            if rep.kind == "none":
                continue
            kinds.add(rep.kind)
            k, firsts = len(rep.modules), [m[0] for m in rep.modules]
            reference = Graph.from_edges(k, [(i, j) for i, j in combinations(range(k), 2)
                                             if g.rows[firsts[i]] >> firsts[j] & 1])
            assert _quotient(g, rep.modules) == reference == rep.quotient
        assert kinds == {"components", "co-components", "modules", "twins",
                         "complement_twins"}

    def test_walk_and_verdicts_build_no_checked_graph(self, monkeypatch):
        # every graph they derive comes from a checked one and is built unchecked
        census = unlabelled_graphs_upto(7)
        pairs = [(x, y) for x in census for y in census if x.n * y.n <= 12]
        assert len(pairs) == 3431
        checks = []
        check = Graph.__post_init__
        monkeypatch.setattr(Graph, "__post_init__", lambda g: checks.append(g.n) or check(g))
        for x, y in pairs:
            analyze_product(x, y, 12)
            qut_expression(lex_product(x, y), 12)
        assert checks == []

    def test_quotient_rejects_a_class_that_is_not_a_module(self):
        with pytest.raises(AssertionError):
            _quotient(path_graph(3), ((0, 1), (2,)))

    def test_certified_expressions_match_the_oracle(self):
        for g in small_graphs():
            expr = qut_expression(g, 16)
            if not isinstance(expr, Indeterminate):
                assert degree(expr) == g.n, serialize(expr)
                assert classical_order(expr) == aut_order(g), serialize(expr)
