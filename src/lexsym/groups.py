"""Brute-force symmetry oracle for small graphs.

Every query runs through one backtracking search over vertex images.  Each
vertex has a list of candidate images, and a vertex w may be the image of
the next vertex d only if the relation rows agree on everything placed so
far: rel[d][u] == target_rel[w][image of u].  Automorphism queries use the
stable pair colouring as the relation (it refines adjacency and every
automorphism preserves it) with candidates of equal stable diagonal
colour; isomorphism tests use adjacency, with candidates of equal refined
vertex colour.  Groups are returned as explicit element lists; orders of
very symmetric graphs are available separately through a stabiliser-chain
count that never materialises the elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .graphs import Graph, GraphError
from .wl import stable_colouring

DEFAULT_MAX_DEGREE = 14


class OracleBoundError(GraphError):
    """Raised when a graph exceeds the configured oracle degree bound."""


@dataclass(frozen=True)
class PermGroup:
    """An explicitly enumerated permutation group on 0..n-1."""

    n: int
    elements: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def _check_bound(g: Graph, max_degree: int) -> None:
    if g.n > max_degree:
        raise OracleBoundError(
            f"graph on {g.n} vertices exceeds the oracle bound {max_degree}; "
            "raise it with --max-degree")


def _search(n: int, candidates: list[list[int]], rel: Sequence[Sequence],
            target_rel: Sequence[Sequence], collect: Optional[list[tuple[int, ...]]],
            prefix: list[int]) -> bool:
    """Extend `prefix` (images of vertices 0..len(prefix)-1) to full bijections.

    A candidate w for the next vertex d is kept only if
    rel[d][u] == target_rel[w][prefix[u]] for every placed vertex u.  With
    `collect` set, every completion is recorded and the search is
    exhaustive; otherwise it stops at the first completion and reports
    whether one exists.
    """
    depth = len(prefix)
    if depth == n:
        if collect is not None:
            collect.append(tuple(prefix))
        return True
    row = rel[depth]
    found = False
    for w in candidates[depth]:
        if w in prefix:
            continue
        trow = target_rel[w]
        for u in range(depth):
            if row[u] != trow[prefix[u]]:
                break
        else:
            prefix.append(w)
            if _search(n, candidates, rel, target_rel, collect, prefix):
                found = True
                if collect is None:
                    prefix.pop()
                    return True
            prefix.pop()
    return found


def _stable_relation(g: Graph) -> tuple[list[list[int]], list[list[int]]]:
    """Candidates of equal stable diagonal colour, and the stable colour rows."""
    rel = stable_colouring(g).stable.matrix()
    diag = [rel[v][v] for v in range(g.n)]
    return [[w for w in range(g.n) if diag[w] == diag[v]] for v in range(g.n)], rel


def _level(g: Graph, candidates: list[list[int]], rel: list[list[int]], k: int) -> int:
    """The number of images of k under automorphisms fixing 0..k-1 pointwise.

    Each image w is certified by one completing automorphism, searched with
    w as the only candidate for k.
    """
    fixed = list(range(k))
    return sum(_search(g.n, candidates[:k] + [[w]] + candidates[k + 1:], rel, rel, None, fixed)
               for w in candidates[k])


def automorphisms(g: Graph, max_degree: int = DEFAULT_MAX_DEGREE) -> PermGroup:
    """All adjacency-preserving permutations, in lexicographic image order."""
    _check_bound(g, max_degree)
    candidates, rel = _stable_relation(g)
    out: list[tuple[int, ...]] = []
    _search(g.n, candidates, rel, rel, out, [])
    out.sort()
    return PermGroup(g.n, tuple(out))


def aut_order(g: Graph) -> int:
    """|Aut(g)| via a stabiliser chain on the base 0, 1, ..., n-1.

    The factor at level k is the number of images of k under automorphisms
    fixing 0..k-1 pointwise.  This handles graphs whose groups are far too
    large to enumerate.
    """
    candidates, rel = _stable_relation(g)
    order = 1
    for k in range(g.n):
        order *= _level(g, candidates, rel, k)
    return order


def _partition(size: int, links: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Classes of 0..size-1 joined along `links`, ordered by smallest member."""
    parent = list(range(size))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in links:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    classes: dict[int, list[int]] = {}
    for x in range(size):
        classes.setdefault(find(x), []).append(x)
    return list(classes.values())


def orbits(group: PermGroup) -> list[list[int]]:
    """Vertex classes under the group action, ordered by smallest member."""
    n = group.n
    return _partition(n, ((v, perm[v]) for perm in group.elements for v in range(n)))


def orbitals(group: PermGroup) -> list[list[tuple[int, int]]]:
    """Ordered-pair classes under the diagonal action, ordered by smallest pair."""
    n = group.n
    links = ((u * n + v, perm[u] * n + perm[v])
             for perm in group.elements for u in range(n) for v in range(n))
    return [[divmod(x, n) for x in cls] for cls in _partition(n * n, links)]


def refined_vertex_colours(g: Graph) -> list[int]:
    """Iterated neighbourhood refinement of the degree colouring.

    Ids are interned by the sorted order of signature keys each round, so
    isomorphic graphs receive identical colour lists; this makes the result
    comparable across graphs and a sound pruning key for backtracking.
    """
    colours = [row.bit_count() for row in g.rows]
    for _ in range(g.n):
        sigs = []
        for v in range(g.n):
            row = g.rows[v]
            neigh = []
            while row:
                w = (row & -row).bit_length() - 1
                row &= row - 1
                neigh.append(colours[w])
            sigs.append((colours[v], tuple(sorted(neigh))))
        ids = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ids[s] for s in sigs]
        if new == colours:
            break
        colours = new
    return colours


def _adjacency(g: Graph) -> list[str]:
    """Adjacency rows as strings of '0'/'1' indexed by vertex."""
    return [bin(row | 1 << g.n)[:2:-1] for row in g.rows]


def is_isomorphic(a: Graph, b: Graph, max_degree: int = DEFAULT_MAX_DEGREE) -> bool:
    """Adjacency-preserving bijection existence, by the same backtracking search.

    Candidate images are restricted by canonical refined vertex colours,
    which agree between isomorphic graphs; stable pair-colour ids are not
    comparable across graphs, so the relation here is adjacency.  Graphs of
    different vertex or edge counts are told apart before the bound applies.
    """
    if a.n != b.n or a.edge_count() != b.edge_count():
        return False
    _check_bound(a, max_degree)
    col_a = refined_vertex_colours(a)
    col_b = refined_vertex_colours(b)
    if sorted(col_a) != sorted(col_b):
        return False
    candidates = [[w for w in range(b.n) if col_b[w] == col_a[v]] for v in range(a.n)]
    return _search(a.n, candidates, _adjacency(a), _adjacency(b), None, [])


def is_vertex_transitive(g: Graph, max_degree: int = DEFAULT_MAX_DEGREE) -> bool:
    """True iff the automorphism group has a single vertex orbit."""
    _check_bound(g, max_degree)
    if g.n <= 1:
        return True
    candidates, rel = _stable_relation(g)
    return _level(g, candidates, rel, 0) == g.n


def wreath_order(aut_y_order: int, nx: int, aut_x_order: int) -> int:
    """|H|^|Omega| * |G| for the wreath product of H by G acting on nx points."""
    if aut_y_order < 1 or nx < 1 or aut_x_order < 1:
        raise GraphError("wreath order factors must be positive")
    return aut_y_order ** nx * aut_x_order
