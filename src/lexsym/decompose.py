"""Structure decompositions feeding symbolic group expressions.

Covers twin quotients (g = X'[empty_alpha]), their complement analogues
(g = X'[K_alpha]), component decompositions of disconnected graphs
(g = empty_beta[Y']), the disjoint-union expression rules, and the
vertex-transitive product pathway used when the wreath conditions fail.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .graphs import (Graph, GraphError, complement, connected_components,
                     empty_graph, induced_subgraph, is_connected, lex_product,
                     twin_partition, has_twins)
from .groups import (DEFAULT_MAX_DEGREE, OracleBoundError, is_isomorphic,
                     is_vertex_transitive)
from .wl import stable_colouring
from .expressions import (GroupExpr, QutLeaf, SPlus, FreeWreath, FreeProd,
                          Indeterminate, simplify)


@dataclass(frozen=True)
class DecompositionReport:
    """Outcome of one decomposition attempt.

    kind: 'twin_quotient', 'complement_twin_quotient', 'components', or 'none'.
    For quotients, `quotient` and `alpha_or_beta` satisfy the reconstruction
    identity stated in the docstring of the producing function.  For
    components, `pairwise_isomorphic` may be None if the isomorphism oracle
    bound was exceeded.
    """

    kind: str
    quotient: Optional[Graph] = None
    alpha_or_beta: Optional[int] = None
    inner_factor: Optional[Graph] = None
    pairwise_isomorphic: Optional[bool] = None


def twin_quotient(g: Graph) -> DecompositionReport:
    """Write g as quotient[empty_alpha] when the twin classes are uniform.

    The quotient has one vertex per twin class (ordered by smallest member),
    with classes adjacent iff any cross pair is an edge; since twins share
    neighbourhoods exactly, cross edges are all-or-nothing and the
    reconstruction lex_product(quotient, empty_graph(alpha)) equals g under
    the class-order vertex matching.  The quotient is twin-free, so alpha
    is maximal.
    """
    tp = twin_partition(g)
    if tp.uniform_size is None:
        return DecompositionReport(kind="none")
    alpha = tp.uniform_size
    k = len(tp.classes)
    reps = [c[0] for c in tp.classes]
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)
             if g.has_edge(reps[i], reps[j])]
    quotient = Graph.from_edges(k, edges)
    _verify_twin_reconstruction(g, quotient, alpha, tp.classes)
    return DecompositionReport(kind="twin_quotient", quotient=quotient,
                               alpha_or_beta=alpha)


def _verify_twin_reconstruction(g: Graph, quotient: Graph, alpha: int,
                                classes: tuple[tuple[int, ...], ...]) -> None:
    rebuilt = lex_product(quotient, empty_graph(alpha))
    # flat index (i, j) -> j-th member of class i
    matching = [v for cls in classes for v in cls]
    for p in range(rebuilt.n):
        for q in range(rebuilt.n):
            if p != q and rebuilt.has_edge(p, q) != g.has_edge(matching[p], matching[q]):
                raise AssertionError("twin quotient reconstruction failed")


def complement_twin_quotient(g: Graph) -> DecompositionReport:
    """Write g as quotient[K_alpha] via the twin quotient of the complement."""
    inner = twin_quotient(complement(g))
    if inner.kind == "none":
        return DecompositionReport(kind="none")
    assert inner.quotient is not None
    return DecompositionReport(kind="complement_twin_quotient",
                               quotient=complement(inner.quotient),
                               alpha_or_beta=inner.alpha_or_beta)


def component_decomposition(g: Graph, max_degree: int = DEFAULT_MAX_DEGREE) -> DecompositionReport:
    """Write a disconnected g as empty_beta[Y'] when components are isomorphic."""
    comps = connected_components(g)
    subgraphs = [induced_subgraph(g, comp) for comp in comps]
    first = subgraphs[0]
    pairwise: Optional[bool] = True
    try:
        for other in subgraphs[1:]:
            if not is_isomorphic(first, other, max_degree):
                pairwise = False
                break
    except OracleBoundError:
        pairwise = None
    return DecompositionReport(kind="components", alpha_or_beta=len(comps),
                               inner_factor=first, pairwise_isomorphic=pairwise)


def _component_wl_signature(g: Graph, comps: list[list[int]]) -> list[tuple]:
    """Per-component multiset of stable pair colours on the whole graph.

    Components whose signatures differ cannot be mapped onto each other by
    any symmetry of the union, which certifies they are not quantum
    isomorphic for the purposes of the disjoint-union rule.
    """
    c = stable_colouring(g).stable
    sigs = []
    for comp in comps:
        counter: Counter[int] = Counter()
        for u in comp:
            for v in comp:
                counter[c.colour(u, v)] += 1
        sigs.append(tuple(sorted(counter.items())))
    return sigs


def qut_disjoint_union(g: Graph, max_degree: int = DEFAULT_MAX_DEGREE) -> GroupExpr:
    """Symbolic quantum symmetry of a disconnected graph.

    Components are grouped into isomorphism classes; a class of m copies of
    a representative R contributes FreeWreath(Qut(R), S+(m)), a singleton
    class contributes Qut(R), and multiple classes combine by free product.
    If two distinct classes could still be quantum isomorphic (same vertex
    and edge counts and indistinguishable stable-colour signatures), no
    product formula is certified and the result is Indeterminate.
    """
    comps = connected_components(g)
    if len(comps) <= 1:
        raise GraphError("disjoint-union rule needs a disconnected graph")
    subgraphs = [induced_subgraph(g, comp) for comp in comps]
    classes: list[tuple[Graph, list[int]]] = []  # (representative, member indices)
    try:
        for idx, sub in enumerate(subgraphs):
            for rep, members in classes:
                if is_isomorphic(rep, sub, max_degree):
                    members.append(idx)
                    break
            else:
                classes.append((sub, [idx]))
    except OracleBoundError:
        return Indeterminate("component isomorphism exceeds the oracle bound")
    if len(classes) > 1:
        sigs = _component_wl_signature(g, comps)
        keys = []
        for rep, members in classes:
            keys.append((rep.n, rep.edge_count(), sigs[members[0]]))
        if len(set(keys)) < len(keys):
            return Indeterminate("possible quantum isomorphism across classes")
    terms: list[GroupExpr] = []
    for rep, members in classes:
        m = len(members)
        term: GroupExpr = QutLeaf(rep)
        if m > 1:
            term = FreeWreath(term, SPlus(m))
        terms.append(term)
    if len(terms) == 1:
        return simplify(terms[0])
    return simplify(FreeProd(tuple(terms)))


def analyze_vt_product(x: Graph, y: Graph,
                       max_degree: int = DEFAULT_MAX_DEGREE) -> GroupExpr:
    """Symbolic quantum symmetry of x[y] when the wreath conditions fail and
    both factors are vertex transitive.

    Exactly one failure mode holds: either y is disconnected and x has
    twins, or the complements are in that situation.  The first mode
    rewrites x = X'[empty_alpha] and y = empty_beta[Y'] with maximal alpha,
    giving FreeWreath(FreeWreath(Qut(Y'), S+(alpha*beta)), Qut(X')); the
    second applies the same to the complements.  When the components of y
    are not pairwise isomorphic the weaker union-leaf expression
    FreeWreath(Qut(empty_alpha[y]), Qut(X')) is emitted instead.
    """
    mode1 = (not is_connected(y)) and has_twins(x)
    mode2 = (not is_connected(complement(y))) and has_twins(complement(x))
    if not (mode1 or mode2):
        raise GraphError("wreath conditions hold; the product pathway does not apply")
    if mode1 and mode2:
        raise AssertionError("both failure modes held; a graph or its complement is connected")
    try:
        if not is_vertex_transitive(x, max_degree) or not is_vertex_transitive(y, max_degree):
            raise GraphError("pathway requires vertex-transitive factors")
    except OracleBoundError:
        return Indeterminate("factor transitivity unknown (oracle bound)")
    if mode1:
        xx, yy = x, y
    else:
        xx, yy = complement(x), complement(y)
    tq = twin_quotient(xx)
    assert tq.kind == "twin_quotient" and tq.quotient is not None and tq.alpha_or_beta is not None
    alpha = tq.alpha_or_beta
    x_quot = tq.quotient if mode1 else complement(tq.quotient)
    cd = component_decomposition(yy, max_degree)
    if cd.pairwise_isomorphic:
        assert cd.inner_factor is not None and cd.alpha_or_beta is not None
        beta = cd.alpha_or_beta
        y_core = cd.inner_factor if mode1 else complement(cd.inner_factor)
        expr: GroupExpr = FreeWreath(FreeWreath(QutLeaf(y_core), SPlus(alpha * beta)),
                                     QutLeaf(x_quot))
        return simplify(expr)
    if cd.pairwise_isomorphic is None:
        return Indeterminate("component isomorphism exceeds the oracle bound")
    # components pairwise quantum isomorphic at best: keep the union leaf
    union_leaf = lex_product(empty_graph(alpha), yy)
    if not mode1:
        union_leaf = complement(union_leaf)
    return simplify(FreeWreath(QutLeaf(union_leaf), QutLeaf(x_quot)))


def qut_expression(g: Graph, max_degree: int = DEFAULT_MAX_DEGREE) -> GroupExpr:
    """Certified symbolic quantum symmetry of a single graph.

    Pathways: disconnected graphs use the disjoint-union rules; graphs with
    a uniform (complement-)twin structure split off S+(alpha) and recurse on
    the twin-free quotient; everything else is Indeterminate.
    """
    if g.n == 1:
        return SPlus(1)
    if not is_connected(g):
        return qut_disjoint_union(g, max_degree)
    gc = complement(g)
    if not is_connected(gc):
        # complementation preserves the quantum symmetry of a graph
        return qut_disjoint_union(gc, max_degree)
    for report in (twin_quotient(g), complement_twin_quotient(g)):
        if report.kind == "none" or report.alpha_or_beta is None or report.alpha_or_beta < 2:
            continue
        assert report.quotient is not None
        # g = quotient[empty_alpha] (or quotient[K_alpha]); the inner factor
        # is disconnected in exactly one of g, complement(g), and the
        # twin-free quotient certifies the wreath split either way.
        inner: GroupExpr = SPlus(report.alpha_or_beta)
        outer = qut_expression(report.quotient, max_degree)
        if isinstance(outer, Indeterminate):
            outer = QutLeaf(report.quotient)
        return simplify(FreeWreath(inner, outer))
    return Indeterminate("no certified pathway applies")
