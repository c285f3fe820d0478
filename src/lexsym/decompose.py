"""Structure decompositions feeding symbolic group expressions.

One structural walk splits a graph at the first of: its components, its
co-components, its maximal strong modules when they are pairwise isomorphic
(Gallai 1967: the quotient is then prime), and its uniform twin or
complement-twin classes.  `qut_expression` recurses over the walk.
`analyze_vt_product` reduces a product whose wreath conditions fail to
one where they hold, and certifies nothing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .graphs import (Graph, GraphError, _bits, _trusted, complement, connected_components,
                     disjoint_union, induced_subgraph, is_connected, twin_partition)
from .groups import DEFAULT_MAX_DEGREE, OracleBoundError, is_isomorphic
from .wl import stable_colouring
from .expressions import (GroupExpr, QutLeaf, SPlus, FreeWreath, FreeProd,
                          Indeterminate, simplify)


@dataclass(frozen=True)
class DecompositionReport:
    """The first step of the structural walk that applies to a graph.

    kind: 'components', 'co-components', 'modules', 'twins',
    'complement_twins', or 'none'.  `modules` are the vertex classes, each
    sorted and ordered by smallest member; every class is a module, and the
    graph is `quotient` with each vertex replaced by the subgraph its class
    induces.  For 'modules', 'twins' and 'complement_twins' those subgraphs
    are pairwise isomorphic and the quotient is twin-free or
    complement-twin-free as the wreath conditions need.
    """

    kind: str
    modules: tuple[tuple[int, ...], ...] = ()
    quotient: Optional[Graph] = None


def _quotient(g: Graph, classes: tuple[tuple[int, ...], ...]) -> Graph:
    """The graph on the classes, two classes adjacent when their members are.

    Raises AssertionError unless every class is a module (each vertex
    outside it sees all or none of it): that is what makes g the quotient
    with each vertex replaced by its class, and the unchecked rows symmetric.
    The classes must partition the vertices.
    """
    masks = [sum(1 << v for v in cls) for cls in classes]
    rows = []
    for cls, mask in zip(classes, masks):
        outside = g.rows[cls[0]] & ~mask
        if any(g.rows[v] & ~mask != outside for v in cls):
            raise AssertionError("quotient reconstruction failed: a class is not a module")
        rows.append(sum(1 << j for j, m in enumerate(masks) if outside & m))
    return _trusted(len(classes), tuple(rows))


def _module_closure(g: Graph, mask: int) -> int:
    """The smallest module containing the vertex set `mask`.

    A vertex outside the set splits it when it is adjacent to some but not
    all members; splitters are added until none is left.
    """
    seen, common, new = 0, -1, mask
    while new:
        for v in _bits(new):
            seen |= g.rows[v]
            common &= g.rows[v]
        new = seen & ~common & ~mask
        mask |= new
    return mask


def _maximal_modules(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Maximal strong modules of a connected, co-connected graph.

    Two vertices lie in the same maximal module exactly when the smallest
    module containing both is proper, because the quotient is prime; the
    class of r is the union of those proper closures.
    """
    full = (1 << g.n) - 1
    classes, left = [], full
    while left:
        r = (left & -left).bit_length() - 1
        cls = 1 << r
        for v in _bits(left):
            if not cls >> v & 1:
                closure = _module_closure(g, 1 << r | 1 << v)
                if closure != full:
                    cls |= closure
        classes.append(tuple(_bits(cls)))
        left &= ~cls
    return tuple(classes)


def split(g: Graph, max_degree: int = DEFAULT_MAX_DEGREE) -> DecompositionReport:
    """The first step of the structural walk that applies to g.

    In order: components; co-components; maximal strong modules, used only
    when they induce pairwise isomorphic subgraphs (labelled equality is
    tried before the oracle; if the oracle bound is exceeded the walk goes
    on); uniform twin classes; uniform complement-twin classes; otherwise
    'none'.
    """
    co = complement(g)
    for kind, h in (("components", g), ("co-components", co)):
        comps = tuple(map(tuple, connected_components(h)))
        if len(comps) > 1:
            return DecompositionReport(kind, comps, _quotient(g, comps))
    modules = _maximal_modules(g)
    if len(modules) < g.n:
        first, *rest = (induced_subgraph(g, m) for m in modules)
        try:
            if all(s == first or is_isomorphic(first, s, max_degree) for s in rest):
                return DecompositionReport("modules", modules, _quotient(g, modules))
        except OracleBoundError:
            pass
    for kind, h in (("twins", g), ("complement_twins", co)):
        tp = twin_partition(h)
        if (tp.uniform_size or 0) >= 2:
            return DecompositionReport(kind, tp.classes, _quotient(g, tp.classes))
    return DecompositionReport("none")


def _component_wl_signature(g: Graph, comps: list[list[int]]) -> list[tuple]:
    """Per-component multiset of stable pair colours on the whole graph.

    Components whose signatures differ cannot be mapped onto each other by
    any symmetry of the union, which certifies they are not quantum
    isomorphic for the purposes of the disjoint-union rule.
    """
    c = stable_colouring(g).stable
    return [tuple(sorted(Counter(c.colour(u, v) for u in comp for v in comp).items()))
            for comp in comps]


def qut_disjoint_union(g: Graph, max_degree: int = DEFAULT_MAX_DEGREE) -> GroupExpr:
    """Symbolic quantum symmetry of a disconnected graph.

    Components are grouped into isomorphism classes; a class of m copies of
    a representative R contributes FreeWreath(Qut(R), S+(m)), a singleton
    class contributes Qut(R), and multiple classes combine by free product.
    Qut(R) is R's own certified expression, or the leaf where it has none.
    If two distinct classes could still be quantum isomorphic (same vertex
    and edge counts and indistinguishable stable-colour signatures), no
    product formula is certified and the result is Indeterminate.
    """
    comps = connected_components(g)
    if len(comps) <= 1:
        raise GraphError("disjoint-union rule needs a disconnected graph")
    classes: list[tuple[Graph, list[int]]] = []  # (representative, member indices)
    try:
        for idx, comp in enumerate(comps):
            sub = induced_subgraph(g, comp)
            for rep, members in classes:
                if rep == sub or is_isomorphic(rep, sub, max_degree):
                    members.append(idx)
                    break
            else:
                classes.append((sub, [idx]))
    except OracleBoundError:
        return Indeterminate("component isomorphism exceeds the oracle bound")
    counts = Counter((rep.n, rep.edge_count()) for rep, _ in classes)
    if max(counts.values()) > 1:
        sigs = _component_wl_signature(g, comps)
        keys = [(rep.n, rep.edge_count(), sigs[members[0]]) for rep, members in classes]
        if len(set(keys)) < len(keys):
            return Indeterminate("possible quantum isomorphism across classes")
    terms: list[GroupExpr] = []
    for rep, members in classes:
        term = certified(rep, max_degree)
        if len(members) > 1:
            term = FreeWreath(term, SPlus(len(members)))
        terms.append(term)
    return simplify(terms[0] if len(terms) == 1 else FreeProd(tuple(terms)))


def analyze_vt_product(x: Graph, y: Graph) -> tuple[Graph, Graph]:
    """The twin-quotient reduction of x[y] when a wreath condition fails:
    the pair (outer, inner) with Qut(x[y]) = FreeWreath(Qut(inner), Qut(outer)).

    Condition i fails when y is disconnected and x has twins.  If the twin
    classes of x all have size a, then x = x'[aK1] with x' twin-free, and
    x[y] = x'[a.y] satisfies both conditions: the pair is (x', a.y).
    Condition ii is condition i for the complements, so it is checked on
    them when y is connected: x = x''[K_a], x'' the quotient by the twin
    classes of the complement of x, and K_a[y] is the complement of a.ybar,
    which has the same quantum symmetry, so the pair is (x'', a.ybar).
    Vertex k of the quotient is twin class k; copy r stands for its member
    r.  Non-uniform twin classes raise GraphError.  The name is kept from
    the paper's vertex-transitive case because the benchmark tracer looks
    the function up by it.
    """
    xx, yy = (x, y) if not is_connected(y) else (complement(x), complement(y))
    twins = twin_partition(xx)
    if is_connected(yy) or not twins.has_twins:
        raise GraphError("wreath conditions hold; the product pathway does not apply")
    if twins.uniform_size is None:
        raise GraphError("twin classes are not uniform")
    copies, _ = disjoint_union([yy] * twins.uniform_size)
    return _quotient(x, twins.classes), copies


def certified(g: Graph, max_degree: int) -> GroupExpr:
    """The certified expression of g, or the leaf Qut(g) where there is none."""
    expr = qut_expression(g, max_degree)
    return QutLeaf(g) if isinstance(expr, Indeterminate) else expr


def qut_expression(g: Graph, max_degree: int = DEFAULT_MAX_DEGREE) -> GroupExpr:
    """Certified symbolic quantum symmetry of a single graph.

    Recursion over `split`: components use the disjoint-union rules, and
    so do co-components, since complementation preserves the quantum
    symmetry of a graph.  The other steps write g = Q[M] with M the
    subgraph one class induces and Q prime (modules), twin-free with M
    edgeless (twins) or complement-twin-free with M complete (complement
    twins), so both Sabidussi conditions hold and the result is
    FreeWreath(Qut(M), Qut(Q)).  A graph the walk does not split is
    Indeterminate.
    """
    if g.n == 1:
        return SPlus(1)
    report = split(g, max_degree)
    if report.kind == "components":
        return qut_disjoint_union(g, max_degree)
    if report.kind == "co-components":
        return qut_disjoint_union(complement(g), max_degree)
    if report.kind == "none":
        return Indeterminate("no certified pathway applies")
    inner = induced_subgraph(g, report.modules[0])
    return simplify(FreeWreath(certified(inner, max_degree),
                               certified(report.quotient, max_degree)))
