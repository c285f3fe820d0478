"""Exhaustive runs over the census pairs of small graphs: the order sweep
here, with one `FactorTable` for the run, and `scripts/survey_verdicts.py`
walk `census_pairs`."""

from __future__ import annotations

from itertools import product

from .graphs import Graph
from .groups import DEFAULT_MAX_DEGREE
from .analysis import FactorTable, sabidussi_conditions
from .census import unlabelled_graphs
from .formats import write_graph


class CounterexampleError(AssertionError):
    """Raised when a sweep finds a pair violating the wreath equivalence."""


def census_pairs(max_nx: int, max_ny: int,
                 max_product: int) -> tuple[list[tuple[Graph, Graph]], int]:
    """The unlabelled pairs (x, y) with |V(x)| <= `max_nx`, |V(y)| <= `max_ny`
    and |V(x)| * |V(y)| <= `max_product`, shape by shape, and the number of
    pairs of the other shapes, which are counted without being visited."""
    pairs: list[tuple[Graph, Graph]] = []
    skipped = 0
    for nx in range(1, max_nx + 1):
        for ny in range(1, max_ny + 1):
            xs, ys = unlabelled_graphs(nx), unlabelled_graphs(ny)
            if nx * ny > max_product:
                skipped += len(xs) * len(ys)
            else:
                pairs.extend(product(xs, ys))
    return pairs, skipped


def sabidussi_sweep(max_nx: int, max_ny: int, max_degree: int = DEFAULT_MAX_DEGREE) -> dict:
    """Check, for every unlabelled pair within the bounds, that the product's
    automorphism count equals the wreath order exactly when both conditions
    hold, and strictly exceeds it otherwise.

    The pairs are those of `census_pairs` with the oracle degree bound as
    the product bound.  A counterexample aborts with a textual reproducer.
    """
    pairs, skipped = census_pairs(max_nx, max_ny, max_degree)
    factors = FactorTable(max_degree)
    for x, y in pairs:
        wreath_holds = sabidussi_conditions(x, y).wreath_holds
        order, worder = factors.classical_orders(x, y)
        ok = (order == worder) if wreath_holds else (order > worder)
        if not ok:
            raise CounterexampleError(
                "wreath equivalence violated:\n"
                f"wreath_holds={wreath_holds} "
                f"aut_order={order} wreath_order={worder}\n"
                f"X:\n{write_graph(x)}Y:\n{write_graph(y)}")
    return {"schema": 1, "pairs_verified": len(pairs), "pairs_skipped_bound": skipped,
            "counterexamples": 0}
