"""Brute-force symmetry oracle for small graphs.

Every query runs through one backtracking search over vertex images.  Each
vertex has a list of candidate images, and a vertex w may be the image of
the next vertex d only if the relation rows agree on everything placed so
far: rel[d][u] == target_rel[w][image of u].  Isomorphism tests use
adjacency, with candidates of equal refined vertex colour.

Automorphism queries use a 2-WL pair colouring as the relation, with
candidates of equal diagonal colour.  Every 2-WL round is sound for this:
it refines adjacency and every automorphism preserves it, so each round
admits exactly the automorphisms and differs from the others only in how
many dead ends the search explores.  Later rounds prune more, but each
costs O(n^3), while the first is O(n^2) word operations and usually prunes
enough.  So a query climbs a ladder of rungs, the rounds of
`wl.refinements` taken one at a time.  Every rung but the stable one has a
budget of `_RUNG_BUDGET` search nodes, counted over the whole query; when
it runs out, the next round becomes the rung.  A next round with the same
class count shows that the current rung is already stable, and the query
finishes on it with no budget.

Orders, orbits and orbitals come from a stabiliser chain on the base
0, 1, ..., n-1, walked from level n-1 down to 0, that keeps every
automorphism it finds as a generator (Schreier-Sims orbit pruning, Seress
2003; McKay-Piperno 2014): at level k only the candidate images outside
the orbit of k under the generators found so far are searched, each search
either adding a generator or refuting the image, and the level factor is
the orbit size.  The generators generate the whole group, so its orbits
and orbitals are theirs.  A climb keeps the generators: they are
automorphisms whatever rung found them, and a finished level's orbit size
is exact on every rung, so only the level that ran out of budget is
searched again.  One value type, `PermGroup`, holds every group: the
chain's generators, or every element as `automorphisms`, the brute-force
reference, enumerates them on the stable colouring, without the ladder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .graphs import Graph, GraphError
from .wl import PairColouring, refinements, stable_colouring

DEFAULT_MAX_DEGREE = 14

# Search nodes allowed on each rung below the stable one, over a whole query.
_RUNG_BUDGET = 2000


class OracleBoundError(GraphError):
    """Raised when a graph exceeds the configured oracle degree bound."""


@dataclass(frozen=True)
class PermGroup:
    """A permutation group on 0..n-1: its order and a generating set."""

    n: int
    order: int
    generators: tuple[tuple[int, ...], ...]


class _OutOfBudget(Exception):
    """A rung's node budget ran out before the query finished."""


def _check_bound(g: Graph, max_degree: int) -> None:
    if g.n > max_degree:
        raise OracleBoundError(
            f"graph on {g.n} vertices exceeds the oracle bound {max_degree}; "
            "raise it with --max-degree")


def _search(n: int, candidates: list[list[int]], rel: Sequence[Sequence],
            target_rel: Sequence[Sequence], collect: Optional[list[tuple[int, ...]]],
            prefix: list[int], budget: Optional[list[int]] = None) -> Optional[tuple[int, ...]]:
    """Extend `prefix` (images of vertices 0..len(prefix)-1) to full bijections.

    A candidate w for the next vertex d is kept only if
    rel[d][u] == target_rel[w][prefix[u]] for every placed vertex u.  Without
    `collect` the search stops at the first completion and returns it (None
    if there is none); with `collect` set, every completion is recorded, the
    search is exhaustive and returns None.  `budget`, when given, is a
    one-item list holding the nodes left: each call takes one, and
    `_OutOfBudget` is raised when none is left.
    """
    if budget is not None:
        budget[0] -= 1
        if budget[0] < 0:
            raise _OutOfBudget
    depth = len(prefix)
    if depth == n:
        if collect is None:
            return tuple(prefix)
        collect.append(tuple(prefix))
        return None
    row = rel[depth]
    for w in candidates[depth]:
        if w in prefix:
            continue
        trow = target_rel[w]
        for u in range(depth):
            if row[u] != trow[prefix[u]]:
                break
        else:
            prefix.append(w)
            found = _search(n, candidates, rel, target_rel, collect, prefix, budget)
            prefix.pop()
            if found is not None:
                return found
    return None


def _relation(c: PairColouring) -> tuple[list[list[int]], list[list[int]]]:
    """Candidates of equal diagonal colour (one list per class, shared by
    its members), and the colour rows."""
    rel = c.matrix()
    classes: dict[int, list[int]] = {}
    for v in range(c.n):
        classes.setdefault(rel[v][v], []).append(v)
    return [classes[rel[v][v]] for v in range(c.n)], rel


def _ladder(g: Graph) -> Iterator[tuple[list[list[int]], list[list[int]], Optional[list[int]]]]:
    """The rungs of an automorphism query: candidates, relation and budget.

    The rounds of `refinements(g)` are yielded one at a time, each with a
    fresh budget of `_RUNG_BUDGET` nodes; the next round is computed only
    when the query asks for another rung.  When there is no next round, or
    it has the same class count, the current round is stable: it is
    yielded once more with no budget, and the ladder ends.
    """
    rounds = refinements(g)
    current = next(rounds)
    while True:
        candidates, rel = _relation(current)
        yield candidates, rel, [_RUNG_BUDGET]
        following = next(rounds, None)
        if following is None or following.num_colours == current.num_colours:
            yield candidates, rel, None
            return
        current = following


def _find(parent: list[int], a: int) -> int:
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def _union(parent: list[int], a: int, b: int) -> None:
    ra, rb = _find(parent, a), _find(parent, b)
    if ra != rb:
        parent[max(ra, rb)] = min(ra, rb)


def _orbit_size(n: int, candidates: list[list[int]], rel: list[list[int]], k: int,
                parent: list[int], generators: list[tuple[int, ...]],
                budget: Optional[list[int]]) -> int:
    """The orbit size of k under the automorphisms fixing 0..k-1 pointwise.

    `parent` is a union-find of the orbits of `generators`, which must all
    fix 0..k-1.  A candidate image already in the orbit of k is skipped; so
    is one in the orbit of a refuted image, since orbits of a subgroup never
    cross those of the group.  Each other candidate is searched with the
    prefix 0..k-1 fixed: a completion joins the generators and the
    union-find, no completion refutes the image.  Afterwards the generators'
    orbit of k is the group's, and it lies within the candidates of k.
    The searches draw on `budget` (see `_search`).
    """
    fixed = list(range(k))
    refuted: set[int] = set()
    for w in candidates[k]:
        if w < k:
            continue
        root = _find(parent, w)
        if root == _find(parent, k) or root in refuted:
            continue
        perm = _search(n, candidates[:k] + [[w]] + candidates[k + 1:], rel, rel, None, fixed,
                       budget)
        if perm is None:
            refuted.add(root)
            continue
        generators.append(perm)
        for v, image in enumerate(perm):
            if v != image:
                _union(parent, v, image)
        refuted = {_find(parent, r) for r in refuted}
    root = _find(parent, k)
    return sum(_find(parent, w) == root for w in candidates[k])


def automorphisms(g: Graph, max_degree: int = DEFAULT_MAX_DEGREE) -> PermGroup:
    """Aut(g) with every element, in lexicographic image order, as the
    generating set, enumerated on the stable 2-WL relation."""
    _check_bound(g, max_degree)
    candidates, rel = _relation(stable_colouring(g).stable)
    out: list[tuple[int, ...]] = []
    _search(g.n, candidates, rel, rel, out, [])
    out.sort()
    return PermGroup(g.n, len(out), tuple(out))


def stabiliser_chain(g: Graph, max_degree: Optional[int] = None) -> PermGroup:
    """Aut(g) with the chain's generators, levels walked from n-1 down to 0.

    Every generator found at a deeper level fixes 0..k-1, so it prunes the
    candidates of level k.  The order is the product of the level orbit
    sizes; a level that runs out of a rung's budget is searched again on
    the next rung.  With `max_degree` set, graphs past the bound are rejected.
    """
    if max_degree is not None:
        _check_bound(g, max_degree)
    rungs = _ladder(g)
    candidates, rel, budget = next(rungs)
    parent = list(range(g.n))
    generators: list[tuple[int, ...]] = []
    order = 1
    for k in reversed(range(g.n)):
        while True:
            try:
                order *= _orbit_size(g.n, candidates, rel, k, parent, generators, budget)
                break
            except _OutOfBudget:
                candidates, rel, budget = next(rungs)
    return PermGroup(g.n, order, tuple(generators))


def aut_order(g: Graph) -> int:
    """|Aut(g)| from the stabiliser chain.

    This handles graphs whose groups are far too large to enumerate.
    """
    return stabiliser_chain(g).order


def _partition(size: int, links: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Classes of 0..size-1 joined along `links`, ordered by smallest member."""
    parent = list(range(size))
    for a, b in links:
        _union(parent, a, b)
    classes: dict[int, list[int]] = {}
    for x in range(size):
        classes.setdefault(_find(parent, x), []).append(x)
    return list(classes.values())


def orbits(group: PermGroup) -> list[list[int]]:
    """Vertex classes under the group action, ordered by smallest member.

    They are the classes joined by the group's generators.
    """
    n = group.n
    return _partition(n, ((v, perm[v]) for perm in group.generators for v in range(n)))


def orbitals(group: PermGroup) -> list[list[tuple[int, int]]]:
    """Ordered-pair classes under the diagonal action, ordered by smallest pair."""
    n = group.n
    links = ((u * n + v, perm[u] * n + perm[v])
             for perm in group.generators for u in range(n) for v in range(n))
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
    """Adjacency-preserving bijection existence.  Graphs of different vertex
    or edge counts are told apart before the bound applies; the rest is
    `_isomorphic` on their refined vertex colours."""
    if a.n != b.n or a.edge_count() != b.edge_count():
        return False
    _check_bound(a, max_degree)
    return _isomorphic(a, refined_vertex_colours(a), b, refined_vertex_colours(b))


def _isomorphic(a: Graph, col_a: list[int], b: Graph, col_b: list[int]) -> bool:
    """Isomorphism by the backtracking search, given refined vertex colours.

    Candidate images are restricted by those colours, which agree between
    isomorphic graphs; stable pair-colour ids are not comparable across
    graphs, so the relation here is adjacency.
    """
    if sorted(col_a) != sorted(col_b):
        return False
    candidates = [[w for w in range(b.n) if col_b[w] == col_a[v]] for v in range(a.n)]
    return _search(a.n, candidates, _adjacency(a), _adjacency(b), None, []) is not None


def is_vertex_transitive(g: Graph, max_degree: int = DEFAULT_MAX_DEGREE) -> bool:
    """True iff the automorphism group has a single vertex orbit."""
    _check_bound(g, max_degree)
    return len(orbits(stabiliser_chain(g))) <= 1


def wreath_order(aut_y_order: int, nx: int, aut_x_order: int) -> int:
    """|H|^|Omega| * |G| for the wreath product of H by G acting on nx points."""
    if aut_y_order < 1 or nx < 1 or aut_x_order < 1:
        raise GraphError("wreath order factors must be positive")
    return aut_y_order ** nx * aut_x_order
