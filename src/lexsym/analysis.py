"""Wreath-condition analysis of lexicographic products.

Decides whether the symmetry of x[y] factors as a (free) wreath product of
the factor symmetries, verifies the separation of inner and outer
(non-)edges by the 2-WL refinement, and assembles a serializable report
with a symbolic expression and an optional brute-force cross-check.

A 2-WL colour lies on one kind of pair (diagonal, edge or non-edge), so
both separations hold exactly when no colour lies on an inner and an outer
pair.  Round 1 is decided from the factors, without building x[y]: off the
diagonal `first_round` keys a pair by ([pq in E], deg p, deg q,
|N(p) & N(q)|), and equal keys are exactly equal colours.  For p = (a, i),
q = (b, j), n = |V(y)|, d the degree and c the common-neighbour count (the
general form of the paper's Table 1): deg p = d_x(a)*n + d_y(i); an inner
pair (a = b) has c_y(i, j) + d_x(a)*n common neighbours, an outer one
c_x(a, b)*n + [ab in E(x)]*(d_y(i) + d_y(j)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import (Graph, GraphError, complement, has_twins, is_connected,
                     lex_product)
from .groups import DEFAULT_MAX_DEGREE, aut_order, wreath_order
from .wl import PairColouring, first_round, refinements
from .expressions import (FreeWreath, GroupExpr, Indeterminate, serialize,
                          serialize_classical, simplify, to_tree)
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


def _first_round_separates(x: Graph, y: Graph) -> bool:
    """Whether round 1 of x[y] gives inner and outer pairs disjoint colours,
    read from the keys of the module docstring on the factors alone."""
    n = y.n
    factor_keys = []
    for g in (x, y):
        degs = [row.bit_count() for row in g.rows]
        keys = set()
        for u, row in enumerate(g.rows):
            for v in range(g.n):
                if u != v:
                    keys.add((row >> v & 1, degs[u], degs[v],
                              (row & g.rows[v]).bit_count()))
        factor_keys.append(keys)
    x_keys, y_keys = factor_keys
    shifts = {row.bit_count() * n for row in x.rows}
    y_degs = {row.bit_count() for row in y.rows}
    inner = {(e, s + di, s + dj, s + c) for s in shifts for e, di, dj, c in y_keys}
    return not any((e, da * n + di, db * n + dj, c * n + e * (di + dj)) in inner
                   for e, da, db, c in x_keys for di in y_degs for dj in y_degs)


def _separates(c: PairColouring, ny: int) -> bool:
    """Whether no colour of `c` lies on both an inner and an outer pair of
    x[y], |V(y)| = `ny`: in row p, the block of `ny` holding the diagonal is
    inner, the rest outer (diagonal colours lie on no outer pair)."""
    colours, n = c.colours, c.n
    inner, outer = set(), set()
    for p in range(n):
        row = p * n
        start = row + p // ny * ny
        inner.update(colours[start:start + ny])
        outer.update(colours[row:start])
        outer.update(colours[start + ny:row + n])
    return inner.isdisjoint(outer)


def verify_wl_separation(x: Graph, y: Graph) -> SeparationReport:
    """Check that the stable colouring of x[y] strongly separates inner from
    outer edges and inner from outer non-edges.

    Round 1 is decided on the factors by `_first_round_separates`; x[y] is
    built only when it fails, and each round of `refinements` is then tested
    once by `_separates`.  A pair's colour in one round fixes its colour in
    the round before, so colours disjoint in one round stay disjoint in
    every later round: the first round that passes decides.  When none
    does, `_witnesses` lists the failing pairs of the stable round, edges
    against edges, then non-edges against non-edges.  A factor with no
    vertex is left to `lex_product` to refuse.
    """
    if x.n and y.n and _first_round_separates(x, y):
        return SeparationReport(True, True, ())
    product = lex_product(x, y)
    for c in refinements(product):
        if _separates(c, y.n):
            return SeparationReport(True, True, ())
    inner_e, outer_e, inner_ne, outer_ne = _pair_buckets(y, product)
    edge_witnesses = _witnesses(c, inner_e, outer_e)
    nonedge_witnesses = _witnesses(c, inner_ne, outer_ne)
    return SeparationReport(not edge_witnesses, not nonedge_witnesses,
                            tuple(edge_witnesses + nonedge_witnesses))


def check_first_iteration_consequences(x: Graph, y: Graph) -> list[str]:
    """After exactly one refinement round on x[y], every inner/outer edge pair
    that is not strongly distinguished must have outer endpoints that are
    twins in the complement of x and inner endpoints with no common
    non-neighbour in y; dually for non-edge pairs.  Returns violations: none,
    without building x[y], when `_first_round_separates` holds."""
    if x.n and y.n and _first_round_separates(x, y):
        return []
    product = lex_product(x, y)
    c1 = first_round(product)
    inner_e, outer_e, inner_ne, outer_ne = _pair_buckets(y, product)
    violations: list[str] = []
    for inner, outer, twin_graph, common_graph, label in (
            (inner_e, outer_e, complement(x), complement(y), "edges"),
            (inner_ne, outer_ne, x, y, "nonedges")):
        for (p1, q1), (p2, q2) in _witnesses(c1, inner, outer):
            py1, qy1 = p1 % y.n, q1 % y.n
            px2, qx2 = p2 // y.n, q2 // y.n
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
        if self.verdict == "wreath":
            out["classical_expr"] = serialize_classical(self.quantum_expr)
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
    if conditions.wreath_holds:
        verdict = "wreath"
        quantum = simplify(FreeWreath(certified(y, max_degree), certified(x, max_degree)))
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
                          quantum_expr=quantum, aut_order=order, wreath_order=worder,
                          classical_skipped=skipped)
