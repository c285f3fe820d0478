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

Two attach sets in the same orbit of Aut(base) on vertex subsets give
isomorphic candidates, so only the smallest mask of each orbit is tried,
in ascending order (orbit pruning, McKay, "Isomorph-free exhaustive
generation", J. Algorithms 1998).  The kept representatives do not change:
the one kept for a class is its first candidate in (base, mask) order, and
were its mask not the smallest of its orbit, that smallest mask would give
an isomorphic candidate earlier.  So the representatives, their labelling
and their order are those of trying every mask.  Keeping only candidates
whose new vertex has the largest refined colour would prune as well, but
it keeps other labelled graphs, and the labelling is pinned.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import Graph, _bits, _trusted, empty_graph
from .groups import _isomorphic, _partition, refined_vertex_colours, stabiliser_chain


def _orbit_minimal_masks(base: Graph) -> list[int]:
    """The smallest vertex-subset mask of each Aut(base) orbit, ascending.

    Each generator of the chain maps a mask to an image mask, built from
    the image of the mask without its lowest bit; the orbits are the
    classes these links join."""
    size = 1 << base.n
    links: list[tuple[int, int]] = []
    for perm in stabiliser_chain(base).generators:
        image = [0] * size
        for s in range(1, size):
            low = s & -s
            image[s] = image[s ^ low] | 1 << perm[low.bit_length() - 1]
        links.extend(enumerate(image))
    return [cls[0] for cls in _partition(size, links)]


@lru_cache(maxsize=None)
def unlabelled_graphs(n: int) -> tuple[Graph, ...]:
    """All graphs on n vertices, one representative per isomorphism class."""
    if n <= 0:
        return (empty_graph(n),)  # raises GraphError for n < 0
    reps: dict[tuple, list[tuple[Graph, list[int]]]] = {}
    out: list[Graph] = []
    for base in unlabelled_graphs(n - 1):
        for attach in _orbit_minimal_masks(base):
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
