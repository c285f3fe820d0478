"""Acceptance suite: ten criteria, one test (one pass/fail line) each.

Exhaustive coverage runs over unlabelled graph representatives.  Criteria
phrased over all pairs with a bounded product size are checked for every
pair whose factors have at most 7 (criteria 2) or 6 (criterion 3)
vertices; pairs with one single-vertex factor are included and the
remaining shapes (a factor beyond the enumeration bound paired with a
1- or 2-vertex graph) are out of enumeration reach at desk scale.
"""

import json
import subprocess
import sys
import time

from conftest import (direct_profile, distance_matrix, initial_colouring,
                      table1_closed_form)
from lexsym import (analyze_product, aut_order, automorphisms, complement,
                    complete_graph, cycle_graph, disjoint_union, empty_graph,
                    is_isomorphic, lex_product, orbitals, sabidussi_conditions,
                    serialize,
                    stable_colouring, star_graph, verify_wl_separation,
                    wreath_order, write_graph)
from lexsym.census import unlabelled_graphs_upto
from lexsym.decompose import qut_disjoint_union, split
from lexsym.expressions import degree
from lexsym.graphs import induced_subgraph
from lexsym.wl import refine_step


def graphs_by_order(max_n):
    by_n = {}
    for g in unlabelled_graphs_upto(max_n):
        by_n.setdefault(g.n, []).append(g)
    return by_n


def test_criterion_01_closed_form_triangle_counts():
    """Closed-form first-round profiles match direct counts on product edges."""
    start = time.monotonic()
    by_n = graphs_by_order(4)
    pairs = [(x, y) for nx in range(1, 5) for ny in range(1, 5)
             for x in by_n[nx] for y in by_n[ny]]
    pairs.append((cycle_graph(4), complete_graph(2)))
    for x, y in pairs:
        prod = lex_product(x, y)
        for p, q in prod.edges():
            for src, dst in ((p, q), (q, p)):
                direct = direct_profile(prod, src, dst)
                pc = divmod(src, y.n)
                qc = divmod(dst, y.n)
                expected = {k: v for k, v in
                            table1_closed_form(x, y, pc, qc).items() if v}
                assert direct == expected, (write_graph(x), write_graph(y), src, dst)
    assert time.monotonic() - start < 10


def test_criterion_02_separation_under_conditions():
    """Stable colouring separates inner from outer (non-)edges whenever both
    wreath conditions hold, for all factor pairs up to 7 vertices with
    products of at most 16 vertices."""
    start = time.monotonic()
    by_n = graphs_by_order(7)
    checked = 0
    for nx in range(1, 8):
        for ny in range(1, 8):
            if nx * ny > 16:
                continue
            for x in by_n[nx]:
                for y in by_n[ny]:
                    if not sabidussi_conditions(x, y).wreath_holds:
                        continue
                    rep = verify_wl_separation(x, y)
                    assert rep.inner_outer_edges_separated, (write_graph(x), write_graph(y))
                    assert rep.inner_outer_nonedges_separated, (write_graph(x), write_graph(y))
                    assert rep.failing_witnesses == ()
                    checked += 1
    assert checked > 6000
    assert time.monotonic() - start < 120


def test_criterion_03_order_equality_iff_conditions():
    """|Aut(X[Y])| equals the wreath order exactly when both conditions hold,
    and strictly exceeds it otherwise, for all products up to 12 vertices
    with factors up to 6 vertices."""
    start = time.monotonic()
    by_n = graphs_by_order(6)
    checked = 0
    for nx in range(1, 7):
        for ny in range(1, 7):
            if nx * ny > 12:
                continue
            for x in by_n[nx]:
                for y in by_n[ny]:
                    holds = sabidussi_conditions(x, y).wreath_holds
                    order = aut_order(lex_product(x, y))
                    worder = wreath_order(aut_order(y), x.n, aut_order(x))
                    if holds:
                        assert order == worder, (write_graph(x), write_graph(y))
                    else:
                        assert order > worder, (write_graph(x), write_graph(y))
                    checked += 1
    assert checked > 1300
    assert time.monotonic() - start < 300


def test_criterion_04_spot_order_values():
    """Known group orders: the 4-cycle blown up by an edge, and the strict
    inequality on the edgeless pair."""
    assert aut_order(lex_product(cycle_graph(4), complete_graph(2))) == 128
    assert 128 == 2 ** 4 * 8
    prod_order = aut_order(lex_product(empty_graph(2), empty_graph(2)))
    assert prod_order == 24
    assert wreath_order(aut_order(empty_graph(2)), 2, aut_order(empty_graph(2))) == 8


def test_criterion_05_orbitals_refine_stable_colours():
    """Pairs in one automorphism orbital share their stable colour, for all
    graphs with at most 7 vertices."""
    start = time.monotonic()
    for g in unlabelled_graphs_upto(7):
        c = stable_colouring(g).stable
        for orbital in orbitals(automorphisms(g)):
            colours = {c.colour(u, v) for u, v in orbital}
            assert len(colours) == 1, write_graph(g)
    assert time.monotonic() - start < 60


def test_criterion_06_stable_colours_refine_distance():
    """Pairs with equal stable colour are at equal distance, for all graphs
    with at most 7 vertices (unreachable counts as a distance value)."""
    for g in unlabelled_graphs_upto(7):
        c = stable_colouring(g).stable
        dist = distance_matrix(g)
        by_colour = {}
        for u in range(g.n):
            for v in range(g.n):
                by_colour.setdefault(c.colour(u, v), set()).add(dist[u][v])
        assert all(len(s) == 1 for s in by_colour.values()), write_graph(g)


def test_criterion_07_first_round_splits_twins():
    """After one refinement round, twin pairs and non-adjacent non-twin pairs
    never share a colour; dually for adjacent pairs and complement twins.
    Checked on all graphs with at most 7 vertices."""
    for g in unlabelled_graphs_upto(7):
        c1 = refine_step(g, initial_colouring(g))
        twins, nontwin_nonadj = set(), set()
        ctwins, nonctwin_adj = set(), set()
        for u in range(g.n):
            for v in range(g.n):
                if u == v:
                    continue
                col = c1.colour(u, v)
                if g.has_edge(u, v):
                    same_closed = g.rows[u] ^ (1 << v) == g.rows[v] ^ (1 << u)
                    (ctwins if same_closed else nonctwin_adj).add(col)
                else:
                    (twins if g.rows[u] == g.rows[v] else nontwin_nonadj).add(col)
        assert not twins & nontwin_nonadj, write_graph(g)
        assert not ctwins & nonctwin_adj, write_graph(g)


def test_criterion_08_expression_goldens():
    """Symbolic verdicts for the two flagship products, byte-exact."""
    rep = analyze_product(star_graph(3), star_graph(4))
    assert serialize(rep.quantum_expr) == (
        "FreeWreath(FreeProd(S+(1),S+(4)),FreeProd(S+(1),S+(3)))")
    assert degree(rep.quantum_expr) == 20
    rep = analyze_product(cycle_graph(4), complement(cycle_graph(4)))
    assert serialize(rep.quantum_expr) == "FreeWreath(FreeWreath(S+(2),S+(4)),S+(2))"


def test_criterion_09_decomposition_round_trips():
    """The 4-cycle splits into two modules of size 2 over K2, its complement
    into two isomorphic K2 components, and three triangles give the
    disjoint-union expression."""
    rep = split(cycle_graph(4))
    assert [len(m) for m in rep.modules] == [2, 2]
    assert rep.quotient == complete_graph(2)
    rebuilt = lex_product(rep.quotient, empty_graph(2))
    assert is_isomorphic(rebuilt, cycle_graph(4))

    co = complement(cycle_graph(4))
    comp = split(co)
    assert comp.kind == "components"
    first, second = (induced_subgraph(co, m) for m in comp.modules)
    assert first == complete_graph(2)
    assert is_isomorphic(first, second)

    triangles, _ = disjoint_union([complete_graph(3)] * 3)
    assert serialize(qut_disjoint_union(triangles)) == "FreeWreath(S+(3),S+(3))"


def test_criterion_10_cli_byte_determinism(tmp_path):
    """Every CLI verb emits identical bytes across two runs."""
    files = {}
    for name, g in (("c4", cycle_graph(4)), ("k2", complete_graph(2)),
                    ("k13", star_graph(3)), ("k14", star_graph(4))):
        path = tmp_path / f"{name}.g"
        path.write_text(write_graph(g))
        files[name] = str(path)
    invocations = [
        ["product", files["c4"], files["k2"]],
        ["wl", files["c4"]],
        ["aut", files["c4"]],
        ["analyze", files["k13"], files["k14"], "--json"],
        ["decompose", files["c4"]],
        ["qut", files["c4"]],
        ["verify", files["c4"], files["k2"]],
        ["sweep", "--max-nx", "2", "--max-ny", "2"],
    ]
    for argv in invocations:
        outputs = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, "-m", "lexsym.cli"] + argv,
                                  capture_output=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], argv
        if argv[0] != "product":
            json.loads(outputs[0])
