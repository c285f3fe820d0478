"""Wreath-condition analysis of lexicographic products.

Decides whether the symmetry of x[y] factors as a (free) wreath product of
the factor symmetries, verifies the separation of inner and outer
(non-)edges by the stable colouring, and assembles a serializable report
with a symbolic expression and an optional brute-force cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import (Graph, GraphError, complement, has_twins, is_connected,
                     lex_product, product_coords)
from .groups import DEFAULT_MAX_DEGREE, aut_order, wreath_order
from .wl import (PairColouring, initial_colouring, refine_step, stable_colouring)
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


def _separation(c: PairColouring, inner: list, outer: list):
    inner_colours = set().union(*(_colour_set(c, e) for e in inner)) if inner else set()
    outer_colours = set().union(*(_colour_set(c, e) for e in outer)) if outer else set()
    if not (inner_colours & outer_colours):
        return True, []
    witnesses = [(e1, e2) for e1 in inner for e2 in outer
                 if _colour_set(c, e1) & _colour_set(c, e2)]
    return False, witnesses


def verify_wl_separation(x: Graph, y: Graph) -> SeparationReport:
    """Check that the stable colouring of x[y] strongly separates inner from
    outer edges and inner from outer non-edges."""
    product = lex_product(x, y)
    c = stable_colouring(product).stable
    inner_e, outer_e, inner_ne, outer_ne = _pair_buckets(y, product)
    edges_ok, edge_witnesses = _separation(c, inner_e, outer_e)
    nonedges_ok, nonedge_witnesses = _separation(c, inner_ne, outer_ne)
    return SeparationReport(edges_ok, nonedges_ok,
                            tuple(edge_witnesses + nonedge_witnesses))


def check_first_iteration_consequences(x: Graph, y: Graph) -> list[str]:
    """After exactly one refinement round on x[y], every inner/outer edge pair
    that is not strongly distinguished must have outer endpoints that are
    twins in the complement of x and inner endpoints with no common
    non-neighbour in y; dually for non-edge pairs.  Returns violations."""
    product = lex_product(x, y)
    c1 = refine_step(product, initial_colouring(product))
    inner_e, outer_e, inner_ne, outer_ne = _pair_buckets(y, product)
    xc = complement(x)
    yc = complement(y)
    violations: list[str] = []

    def sweep(inner: list, outer: list, twin_graph: Graph, common_graph: Graph,
              label: str) -> None:
        for e1 in inner:
            cs1 = _colour_set(c1, e1)
            py1 = product_coords(y, e1[0])[1]
            qy1 = product_coords(y, e1[1])[1]
            common = common_graph.rows[py1] & common_graph.rows[qy1]
            for e2 in outer:
                if not (cs1 & _colour_set(c1, e2)):
                    continue
                px2 = product_coords(y, e2[0])[0]
                qx2 = product_coords(y, e2[1])[0]
                if twin_graph.rows[px2] != twin_graph.rows[qx2]:
                    violations.append(
                        f"{label}: outer endpoints {px2},{qx2} are not twins")
                if common:
                    violations.append(
                        f"{label}: inner endpoints {py1},{qy1} share a witness vertex")

    sweep(inner_e, outer_e, xc, yc, "edges")
    sweep(inner_ne, outer_ne, x, y, "nonedges")
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
