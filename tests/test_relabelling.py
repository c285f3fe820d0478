"""Relabelled inputs give the same results.

Each census graph is relabelled by a seeded permutation, and the verbs'
results are compared up to what a relabelling may change.  Expression
strings are not compared: free-product child order follows the walk, and
leaf names hash the labelled graph, so both can move with the labels.
"""

import random

from conftest import apply_permutation
from lexsym import analyze_product, qut_expression, verify_wl_separation
from lexsym.census import unlabelled_graphs_upto
from lexsym.expressions import Indeterminate, classical_order, degree


def relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return apply_permutation(g, perm)


def expression_invariants(e):
    """Degree and classical order, or None for an indeterminate expression."""
    return None if isinstance(e, Indeterminate) else (degree(e), classical_order(e))


def report_invariants(x, y):
    rep = analyze_product(x, y)
    sep = verify_wl_separation(x, y)
    return (rep.verdict, rep.conditions, rep.aut_order, rep.wreath_order,
            expression_invariants(rep.quantum_expr),
            sep.inner_outer_edges_separated, sep.inner_outer_nonedges_separated,
            len(sep.failing_witnesses))


def test_analyze_and_verify_ignore_the_labelling():
    rng = random.Random(16)
    census = unlabelled_graphs_upto(5)
    pairs = [(x, y) for x in census for y in census if x.n * y.n <= 14]
    assert len(pairs) == 407
    for x, y in pairs:
        rx, ry = relabel(x, rng), relabel(y, rng)
        assert report_invariants(rx, ry) == report_invariants(x, y), (x.rows, y.rows)


def test_qut_expression_ignores_the_labelling():
    rng = random.Random(16)
    census = unlabelled_graphs_upto(7)
    assert len(census) == 1252
    for g in census:
        assert (expression_invariants(qut_expression(relabel(g, rng)))
                == expression_invariants(qut_expression(g))), g.rows
