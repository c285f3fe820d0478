"""Exhaustive verification sweeps over small graph pairs."""

from __future__ import annotations

from itertools import product

from .graphs import lex_product
from .groups import DEFAULT_MAX_DEGREE, aut_order, wreath_order
from .analysis import sabidussi_conditions
from .census import unlabelled_graphs, unlabelled_graphs_upto
from .formats import write_graph


class CounterexampleError(AssertionError):
    """Raised when a sweep finds a pair violating the wreath equivalence."""


def sabidussi_sweep(max_nx: int, max_ny: int, max_degree: int = DEFAULT_MAX_DEGREE) -> dict:
    """Check, for every unlabelled pair within the bounds, that the product's
    automorphism count equals the wreath order exactly when both conditions
    hold, and strictly exceeds it otherwise.

    The pairs are walked shape by shape, (nx, ny) with nx * ny within the
    oracle degree bound; the pairs of every other shape are counted as
    skipped without being visited.  A counterexample aborts with a textual
    reproducer.
    """
    xs = unlabelled_graphs_upto(max_nx)
    ys = unlabelled_graphs_upto(max_ny)
    orders = {g: aut_order(g) for g in set(xs + ys) if g.n <= max_degree}
    verified = 0
    skipped = 0
    for nx in range(1, max_nx + 1):
        for ny in range(1, max_ny + 1):
            if nx * ny > max_degree:
                skipped += len(unlabelled_graphs(nx)) * len(unlabelled_graphs(ny))
                continue
            for x, y in product(unlabelled_graphs(nx), unlabelled_graphs(ny)):
                conditions = sabidussi_conditions(x, y)
                order = aut_order(lex_product(x, y))
                worder = wreath_order(orders[y], x.n, orders[x])
                ok = (order == worder) if conditions.wreath_holds else (order > worder)
                if not ok:
                    raise CounterexampleError(
                        "wreath equivalence violated:\n"
                        f"wreath_holds={conditions.wreath_holds} "
                        f"aut_order={order} wreath_order={worder}\n"
                        f"X:\n{write_graph(x)}Y:\n{write_graph(y)}")
                verified += 1
    return {"schema": 1, "pairs_verified": verified, "pairs_skipped_bound": skipped,
            "counterexamples": 0}
