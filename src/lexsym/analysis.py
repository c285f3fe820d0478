"""Wreath-condition analysis of lexicographic products.

Decides whether the symmetry of x[y] factors as a (free) wreath product of
the factor symmetries, verifies the separation of inner and outer
(non-)edges by the 2-WL refinement, stopping at the first round that shows
it (`_witnesses` is the one path listing the pairs left unseparated), and
assembles a serializable report with a symbolic expression and an optional
brute-force cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import (Graph, GraphError, complement, has_twins, is_connected,
                     lex_product, product_coords)
from .groups import DEFAULT_MAX_DEGREE, aut_order, wreath_order
from .wl import PairColouring, first_round, refinements
from .expressions import (FreeWreath, GroupExpr, Indeterminate, quantum_to_classical,
                          serialize, simplify, to_tree)
from .decompose import analyze_vt_product, certified
from .formats import content_hash, write_graph


@dataclass(frozen=True)
class ConditionReport:
    """The two connectivity/twin conditions governing the wreath verdict."""

    y_connected: bool
    x_has_twins: bool
    ybar_connected: bool
    xbar_has_twins: bool

    @property
    def condition_i(self) -> bool:
        return self.y_connected or not self.x_has_twins

    @property
    def condition_ii(self) -> bool:
        return self.ybar_connected or not self.xbar_has_twins

    @property
    def wreath_holds(self) -> bool:
        return self.condition_i and self.condition_ii

    def as_dict(self) -> dict:
        return {
            "y_connected": self.y_connected,
            "x_has_twins": self.x_has_twins,
            "ybar_connected": self.ybar_connected,
            "xbar_has_twins": self.xbar_has_twins,
            "condition_i": self.condition_i,
            "condition_ii": self.condition_ii,
            "wreath_holds": self.wreath_holds,
        }


@dataclass(frozen=True)
class SeparationReport:
    inner_outer_edges_separated: bool
    inner_outer_nonedges_separated: bool
    failing_witnesses: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = ()


def sabidussi_conditions(x: Graph, y: Graph) -> ConditionReport:
    return ConditionReport(
        y_connected=is_connected(y),
        x_has_twins=has_twins(x),
        ybar_connected=is_connected(complement(y)),
        xbar_has_twins=has_twins(complement(x)),
    )


def _pair_buckets(y: Graph, product: Graph):
    """Unordered product pairs split into inner/outer edge and non-edge sets.

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


def _colour_set(c: PairColouring, pair: tuple[int, int]) -> frozenset[int]:
    p, q = pair
    return frozenset((c.colour(p, q), c.colour(q, p)))


def _witnesses(c: PairColouring, inner: list, outer: list) -> list:
    """The (inner, outer) pairs, inner-major, whose colour sets (both
    orientations) meet under `c`: the pairs `c` does not strongly separate."""
    outer_sets = [_colour_set(c, e) for e in outer]
    return [(e1, e2) for e1 in inner for s1 in [_colour_set(c, e1)]
            for e2, s2 in zip(outer, outer_sets) if s1 & s2]


def verify_wl_separation(x: Graph, y: Graph) -> SeparationReport:
    """Check that the stable colouring of x[y] strongly separates inner from
    outer edges and inner from outer non-edges.

    The rounds of `refinements` are walked, and at each the colours of the
    inner and outer pairs (both orientations) are tested for disjointness,
    once for edges and once for non-edges.  A pair's colour in one round
    fixes its colour in the round before, so sets disjoint in one round stay
    disjoint in every later round, the stable one included: the first round
    where both tests pass decides that x[y] separates.  When no round does,
    `_witnesses` reads the failing pairs from the last, stable round.
    """
    product = lex_product(x, y)
    n = product.n
    inner_e, outer_e, inner_ne, outer_ne = _pair_buckets(y, product)
    # flat colour indices of both orientations of each pair
    flat_inner_e, flat_outer_e, flat_inner_ne, flat_outer_ne = (
        [i for p, q in pairs for i in (p * n + q, q * n + p)]
        for pairs in (inner_e, outer_e, inner_ne, outer_ne))
    for c in refinements(product):
        colour = c.colours.__getitem__
        if (set(map(colour, flat_inner_e)).isdisjoint(map(colour, flat_outer_e))
                and set(map(colour, flat_inner_ne)).isdisjoint(map(colour, flat_outer_ne))):
            return SeparationReport(True, True, ())
    edge_witnesses = _witnesses(c, inner_e, outer_e)
    nonedge_witnesses = _witnesses(c, inner_ne, outer_ne)
    return SeparationReport(not edge_witnesses, not nonedge_witnesses,
                            tuple(edge_witnesses + nonedge_witnesses))


def check_first_iteration_consequences(x: Graph, y: Graph) -> list[str]:
    """After exactly one refinement round on x[y], every inner/outer edge pair
    that is not strongly distinguished must have outer endpoints that are
    twins in the complement of x and inner endpoints with no common
    non-neighbour in y; dually for non-edge pairs.  Returns violations."""
    product = lex_product(x, y)
    c1 = first_round(product)
    inner_e, outer_e, inner_ne, outer_ne = _pair_buckets(y, product)
    violations: list[str] = []
    for inner, outer, twin_graph, common_graph, label in (
            (inner_e, outer_e, complement(x), complement(y), "edges"),
            (inner_ne, outer_ne, x, y, "nonedges")):
        for (p1, q1), (p2, q2) in _witnesses(c1, inner, outer):
            py1, qy1 = product_coords(y, p1)[1], product_coords(y, q1)[1]
            px2, qx2 = product_coords(y, p2)[0], product_coords(y, q2)[0]
            if twin_graph.rows[px2] != twin_graph.rows[qx2]:
                violations.append(
                    f"{label}: outer endpoints {px2},{qx2} are not twins")
            if common_graph.rows[py1] & common_graph.rows[qy1]:
                violations.append(
                    f"{label}: inner endpoints {py1},{qy1} share a witness vertex")
    return violations


@dataclass(frozen=True)
class AnalysisReport:
    """Full verdict for one product: conditions, expressions, cross-check."""

    x: Graph
    y: Graph
    conditions: ConditionReport
    verdict: str
    quantum_expr: GroupExpr
    classical_expr: Optional[GroupExpr]
    aut_order: Optional[int]
    wreath_order: Optional[int]
    classical_skipped: Optional[str] = None

    def as_dict(self) -> dict:
        classical: dict
        if self.classical_skipped is not None:
            classical = {"skipped": self.classical_skipped}
        else:
            classical = {
                "aut_order": self.aut_order,
                "wreath_order": self.wreath_order,
                "equal": self.aut_order == self.wreath_order,
            }
        out = {
            "schema": 1,
            "conditions": self.conditions.as_dict(),
            "classical": classical,
            "quantum_expr": serialize(self.quantum_expr),
            "quantum_expr_tree": to_tree(self.quantum_expr),
            "verdict": self.verdict,
            "graphs": {
                "x": {"hash": content_hash(self.x), "text": write_graph(self.x)},
                "y": {"hash": content_hash(self.y), "text": write_graph(self.y)},
            },
        }
        if self.classical_expr is not None:
            out["classical_expr"] = serialize(self.classical_expr)
        return out


def analyze_product(x: Graph, y: Graph,
                    max_degree: int = DEFAULT_MAX_DEGREE) -> AnalysisReport:
    """Decide the wreath verdict for x[y] and build the report.

    When both conditions hold the product's symmetry is the (free) wreath
    product of the factor symmetries, each the factor's certified expression
    from the structural walk (a Qut leaf where it has none).  Otherwise the
    twin quotient of `analyze_vt_product` is attempted; failing that (twin
    classes not uniform) the verdict is indeterminate, naming the condition.
    """
    conditions = sabidussi_conditions(x, y)
    classical_expr: Optional[GroupExpr] = None
    if conditions.wreath_holds:
        verdict = "wreath"
        quantum = simplify(FreeWreath(certified(y, max_degree), certified(x, max_degree)))
        classical_expr = quantum_to_classical(quantum)
    else:
        try:
            quantum = analyze_vt_product(x, y, max_degree)
            verdict = "decomposed"
        except GraphError:
            failed = "i" if not conditions.condition_i else "ii"
            quantum = Indeterminate(f"condition {failed} fails and no pathway applies")
            verdict = "indeterminate"
    order = worder = None
    skipped = None
    if x.n * y.n <= max_degree:
        order = aut_order(lex_product(x, y))
        worder = wreath_order(aut_order(y), x.n, aut_order(x))
    else:
        skipped = "bound"
    return AnalysisReport(x=x, y=y, conditions=conditions, verdict=verdict,
                          quantum_expr=quantum, classical_expr=classical_expr,
                          aut_order=order, wreath_order=worder,
                          classical_skipped=skipped)
