"""Enumeration of small graphs up to isomorphism.

Representatives on n vertices are produced by extending every (n-1)-vertex
representative with a new vertex attached in all possible ways, then
deduplicating through cheap invariants plus the isomorphism oracle.  Every
isomorphism class is reached because deleting the last vertex of any graph
leaves a smaller representative's class.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import Graph, _bits, empty_graph
from .groups import is_isomorphic


def _invariant(g: Graph) -> tuple:
    degs = [row.bit_count() for row in g.rows]
    profile = sorted((d, tuple(sorted(degs[w] for w in _bits(row))))
                     for d, row in zip(degs, g.rows))
    triangles = sum((g.rows[u] & g.rows[v]).bit_count() for u, v in g.edges()) // 3
    return (g.n, g.edge_count(), triangles, tuple(profile))


@lru_cache(maxsize=None)
def unlabelled_graphs(n: int) -> tuple[Graph, ...]:
    """All graphs on n vertices, one representative per isomorphism class."""
    if n == 0:
        return (empty_graph(0),)
    if n == 1:
        return (empty_graph(1),)
    reps: dict[tuple, list[Graph]] = {}
    out: list[Graph] = []
    for base in unlabelled_graphs(n - 1):
        for attach in range(1 << (n - 1)):
            rows = list(base.rows) + [attach]
            for v in _bits(attach):
                rows[v] |= 1 << (n - 1)
            candidate = Graph(n, tuple(rows))
            key = _invariant(candidate)
            bucket = reps.setdefault(key, [])
            if not any(is_isomorphic(candidate, seen) for seen in bucket):
                bucket.append(candidate)
                out.append(candidate)
    return tuple(out)


def unlabelled_graphs_upto(n: int) -> list[Graph]:
    out: list[Graph] = []
    for k in range(1, n + 1):
        out.extend(unlabelled_graphs(k))
    return out
