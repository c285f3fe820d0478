"""Wreath-condition analysis of lexicographic products.

Decides whether the symmetry of x[y] factors as a (free) wreath product of
the factor symmetries, verifies the separation of inner and outer
(non-)edges by the 2-WL refinement, and assembles a serializable report
with a symbolic expression and an optional brute-force cross-check.
`decide` is the verdict rule and certifies nothing; `analyze_product`
certifies the pair it names, through the caller's `FactorTable`.

A 2-WL colour lies on one kind of pair (diagonal, edge or non-edge), so
both separations hold exactly when no colour lies on an inner and an outer
pair.  Round 1 is decided from the factors, without building x[y]: off the
diagonal `first_round` keys a pair by ([pq in E], deg p, deg q,
|N(p) & N(q)|), and equal keys are exactly equal colours.  For p = (a, i),
q = (b, j), n = |V(y)|, d the degree and c the common-neighbour count (the
general form of the paper's Table 1): deg p = d_x(a)*n + d_y(i); an inner
pair (a = b) has c_y(i, j) + d_x(a)*n common neighbours, an outer one
c_x(a, b)*n + [ab in E(x)]*(d_y(i) + d_y(j)).

Each later round is decided on its mixed pairs alone, those whose colour
in the round before lies on both an inner and an outer pair: a refinement
key holds that colour, so no other pair can share a key across the two
sides.  Only when the inner and outer mixed keys meet is the round built,
in full, by `wl.refinements`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, compress
from typing import Iterator, Optional

from .graphs import (Graph, GraphError, complement, has_twins, is_connected,
                     lex_product)
from .groups import DEFAULT_MAX_DEGREE, aut_order, wreath_order
from .wl import PairColouring, _row_keys, refinements
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


def _witnesses(c: PairColouring, product: Graph, ny: int) -> tuple[list, list]:
    """The pairs of x[y] = `product`, |V(y)| = `ny`, that `c` does not
    separate, from one row-major pass over p < q, inner up to the end of
    the block of `ny` holding p: the (inner, outer) pairs whose colours
    (both orientations) meet, edges then non-edges, each inner-major with
    the outer pairs in row-major order.  A colour lies on one kind of pair,
    so an inner pair meets outer pairs of its own kind only.  The outer
    pairs are indexed by colour, so the work grows with the pairs and the
    witnesses rather than with inner times outer."""
    n, colours = c.n, c.colours
    inner: tuple[list, list] = ([], [])  # non-edges, edges: by the adjacency bit
    outer: list[tuple[int, int]] = []
    by_colour: dict[int, list[int]] = {}
    for p, row in enumerate(product.rows):
        end = (p // ny + 1) * ny
        for q in range(p + 1, end):
            inner[row >> q & 1].append(((p, q), colours[p * n + q], colours[q * n + p]))
        for q in range(end, n):
            for colour in {colours[p * n + q], colours[q * n + p]}:
                by_colour.setdefault(colour, []).append(len(outer))
            outer.append((p, q))
    nonedge_witnesses, edge_witnesses = [], []
    for witnesses, pairs in zip((nonedge_witnesses, edge_witnesses), inner):
        for pair, pq, qp in pairs:
            hits = set(by_colour.get(pq, ()))
            hits.update(by_colour.get(qp, ()))
            witnesses.extend([(pair, outer[i]) for i in sorted(hits)])
    return edge_witnesses, nonedge_witnesses


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


def _keys_meet(c: PairColouring, ny: int) -> bool:
    """Whether the round after `c` of x[y], |V(y)| = `ny`, gives an inner
    and an outer pair one key, that is, whether it fails to separate.  In
    row p the block of `ny` holding the diagonal is inner, the rest outer
    (diagonal colours lie on no outer pair).  Only the mixed pairs, whose
    colour lies on both an inner and an outer pair, are keyed: a key holds
    the pair's colour, so no other pair can share a key across the sides.
    The test stops at the first row whose keys meet the other side's."""
    n, k, colours = c.n, c.num_colours, c.colours
    rows = [colours[p * n:(p + 1) * n] for p in range(n)]
    inner_colours, outer_colours = set(), set()
    for p, row in enumerate(rows):
        start = p // ny * ny
        inner_colours.update(row[start:start + ny])
        outer_colours.update(row[:start])
        outer_colours.update(row[start + ny:])
    mixed = inner_colours & outer_colours
    columns = [colours[v::n] for v in range(n)]
    inner_keys, outer_keys = set(), set()
    for p, row in enumerate(rows):
        if mixed.isdisjoint(row):
            continue
        flags = [colour in mixed for colour in row]
        vs = list(compress(range(n), flags))
        keys = list(_row_keys(row, k, compress(row, flags), compress(columns, flags)))
        start = p // ny * ny
        lo, hi = bisect_left(vs, start), bisect_left(vs, start + ny)
        inner, outer = set(keys[lo:hi]), set(keys[:lo] + keys[hi:])
        inner_keys |= inner
        outer_keys |= outer
        if not (inner_keys.isdisjoint(outer) and outer_keys.isdisjoint(inner)):
            return True
    return False


def _separation(product: Graph, rounds: Iterator[PairColouring],
                ny: int) -> SeparationReport:
    """The separation report of x[y] = `product`, |V(y)| = `ny`, from its
    `refinements`.  A round whose mixed keys do not meet is followed by one
    that separates, which decides; otherwise the next round is built.  A
    round after the first that does not raise the class count is the
    stable one, and is not tested, since the round before showed that its
    keys meet: its witnesses are listed."""
    count = 0
    for c in rounds:
        if c.num_colours == count:
            break
        if not _keys_meet(c, ny):
            return SeparationReport(True, True, ())
        count = c.num_colours
    edge_witnesses, nonedge_witnesses = _witnesses(c, product, ny)
    return SeparationReport(not edge_witnesses, not nonedge_witnesses,
                            tuple(edge_witnesses + nonedge_witnesses))


def _rounds(x: Graph, y: Graph) -> Optional[tuple[Graph, Iterator[PairColouring]]]:
    """x[y] and its `refinements`, or None, without building x[y], when
    `_first_round_separates` shows that round 1 separates.  A factor with no
    vertex is left to `lex_product` to refuse."""
    if x.n and y.n and _first_round_separates(x, y):
        return None
    product = lex_product(x, y)
    return product, refinements(product)


def verify_wl_separation(x: Graph, y: Graph) -> SeparationReport:
    """Check that the stable colouring of x[y] strongly separates inner from
    outer edges and inner from outer non-edges.

    Round 1 is decided on the factors by `_first_round_separates`; x[y] is
    built only when it fails.  A pair's colour in one round fixes its colour
    in the round before, so colours disjoint in one round stay disjoint in
    every later round: the first round that separates decides.  Each round
    of `refinements` is tested by `_keys_meet` on the pairs whose colour is
    mixed, and the round after it is built only when their keys meet.  When
    no round separates, `_witnesses` lists the failing pairs of the stable
    round, edges against edges, then non-edges against non-edges.
    """
    built = _rounds(x, y)
    return _separation(*built, y.n) if built else SeparationReport(True, True, ())


def _violations(x: Graph, y: Graph, product: Graph, c1: PairColouring) -> list[str]:
    """The first-iteration violations of x[y] = `product` from its round 1 `c1`."""
    violations: list[str] = []
    for witnesses, twin_graph, common_graph, label in zip(
            _witnesses(c1, product, y.n), (complement(x), x), (complement(y), y),
            ("edges", "nonedges")):
        for (p1, q1), (p2, q2) in witnesses:
            py1, qy1 = p1 % y.n, q1 % y.n
            px2, qx2 = p2 // y.n, q2 // y.n
            if twin_graph.rows[px2] != twin_graph.rows[qx2]:
                violations.append(
                    f"{label}: outer endpoints {px2},{qx2} are not twins")
            if common_graph.rows[py1] & common_graph.rows[qy1]:
                violations.append(
                    f"{label}: inner endpoints {py1},{qy1} share a witness vertex")
    return violations


def check_first_iteration_consequences(x: Graph, y: Graph) -> list[str]:
    """After exactly one refinement round on x[y], every inner/outer edge pair
    that is not strongly distinguished must have outer endpoints that are
    twins in the complement of x and inner endpoints with no common
    non-neighbour in y; dually for non-edge pairs.  Returns violations: none,
    without building x[y], when `_first_round_separates` holds."""
    built = _rounds(x, y)
    if built is None:
        return []
    product, rounds = built
    return _violations(x, y, product, next(rounds))


def _verify(x: Graph, y: Graph) -> tuple[SeparationReport, list[str]]:
    """`verify_wl_separation` and `check_first_iteration_consequences` of
    x[y] from one product and one round 1."""
    built = _rounds(x, y)
    if built is None:
        return SeparationReport(True, True, ()), []
    product, rounds = built
    c1 = next(rounds)
    return (_separation(product, chain([c1], rounds), y.n),
            _violations(x, y, product, c1))


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


class FactorTable:
    """Each factor's automorphism order and certified expression at one
    oracle bound, each computed on its first use."""

    def __init__(self, max_degree: int = DEFAULT_MAX_DEGREE):
        self.max_degree = max_degree
        self.orders: dict[Graph, int] = {}
        self.exprs: dict[Graph, GroupExpr] = {}

    def certified(self, g: Graph) -> GroupExpr:
        if g not in self.exprs:
            self.exprs[g] = certified(g, self.max_degree)
        return self.exprs[g]

    def classical_orders(self, x: Graph, y: Graph) -> tuple[int, int]:
        """|Aut(x[y])| and the wreath order |Aut(y)|^|V(x)| * |Aut(x)|."""
        for g in (y, x):
            if g not in self.orders:
                self.orders[g] = aut_order(g)
        return (aut_order(lex_product(x, y)),
                wreath_order(self.orders[y], x.n, self.orders[x]))


def decide(x: Graph, y: Graph,
           conditions: ConditionReport) -> tuple[str, Optional[tuple[Graph, Graph]]]:
    """The verdict for x[y] and the pair (outer, inner) by which the paper's
    theorem certifies it, Qut(x[y]) = FreeWreath(Qut(inner), Qut(outer)):
    'wreath' and (x, y) when both `conditions` hold, 'decomposed' and the
    twin quotient of `analyze_vt_product` when one fails, else
    'indeterminate' and None.  No oracle runs, so no bound applies."""
    if conditions.wreath_holds:
        return "wreath", (x, y)
    try:
        return "decomposed", analyze_vt_product(x, y)
    except GraphError:
        return "indeterminate", None


def analyze_product(x: Graph, y: Graph, max_degree: int = DEFAULT_MAX_DEGREE,
                    factors: Optional[FactorTable] = None) -> AnalysisReport:
    """Decide the wreath verdict for x[y] and build the report.

    The verdict and the pair (outer, inner) are `decide`'s.  The quantum
    expression is the free wreath of the pair's certified expressions from
    the structural walk (a Qut leaf where one has none), for 'wreath' and
    'decomposed' alike; with no pair it is indeterminate, naming the
    condition that fails.

    `factors` belongs to the caller, which builds one per run at the run's
    bound, so a sweep over many pairs works out each factor once; with
    none, a fresh table serves this pair.  There is no process-wide cache,
    because benchmark rounds reuse the same graphs.  A certified expression
    depends on the bound, so a table of another bound raises ValueError.
    """
    if factors is None:
        factors = FactorTable(max_degree)
    elif factors.max_degree != max_degree:
        raise ValueError(f"factor table of bound {factors.max_degree} read at {max_degree}")
    conditions = sabidussi_conditions(x, y)
    verdict, pair = decide(x, y, conditions)
    if pair is None:
        failed = "i" if not conditions.condition_i else "ii"
        quantum = Indeterminate(f"condition {failed} fails and no pathway applies")
    else:
        outer, inner = pair
        quantum = simplify(FreeWreath(factors.certified(inner), factors.certified(outer)))
    order = worder = None
    skipped = None
    if x.n * y.n <= max_degree:
        order, worder = factors.classical_orders(x, y)
    else:
        skipped = "bound"
    return AnalysisReport(x=x, y=y, conditions=conditions, verdict=verdict,
                          quantum_expr=quantum, aut_order=order, wreath_order=worder,
                          classical_skipped=skipped)
