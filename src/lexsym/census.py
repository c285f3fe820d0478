"""Enumeration of small graphs up to isomorphism.

Representatives on n vertices are produced by extending every (n-1)-vertex
representative with a new vertex attached in all possible ways, and kept
when the isomorphism search matches no representative in their bucket.
The bucket key is, for each vertex, its refined colour and its neighbours'
colours, sorted; the colours are computed once per candidate.  (Colours
are ranks within one graph, so the sorted colours alone would not say
which neighbourhood a rank stands for.)  Every isomorphism class is
reached because deleting the last vertex of any graph leaves a smaller
representative's class.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import Graph, _bits, _trusted, empty_graph
from .groups import _isomorphic, refined_vertex_colours


@lru_cache(maxsize=None)
def unlabelled_graphs(n: int) -> tuple[Graph, ...]:
    """All graphs on n vertices, one representative per isomorphism class."""
    if n <= 0:
        return (empty_graph(n),)  # raises GraphError for n < 0
    reps: dict[tuple, list[tuple[Graph, list[int]]]] = {}
    out: list[Graph] = []
    for base in unlabelled_graphs(n - 1):
        for attach in range(1 << (n - 1)):
            rows = list(base.rows) + [attach]
            for v in _bits(attach):
                rows[v] |= 1 << (n - 1)
            candidate = _trusted(n, tuple(rows))
            colours = refined_vertex_colours(candidate)
            key = tuple(sorted((c, tuple(sorted(colours[w] for w in _bits(row))))
                               for c, row in zip(colours, candidate.rows)))
            bucket = reps.setdefault(key, [])
            if not any(_isomorphic(candidate, colours, seen, seen_colours)
                       for seen, seen_colours in bucket):
                bucket.append((candidate, colours))
                out.append(candidate)
    return tuple(out)


def unlabelled_graphs_upto(n: int) -> list[Graph]:
    out: list[Graph] = []
    for k in range(1, n + 1):
        out.extend(unlabelled_graphs(k))
    return out
