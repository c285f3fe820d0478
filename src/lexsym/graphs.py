"""Simple undirected graphs and lexicographic-product constructions.

Vertices are dense integers 0..n-1.  Adjacency is stored as bit-packed
rows (one Python int per vertex).  `Graph(...)` and `Graph.from_edges`, for
outside input and the named constructors, check a graph once, in O(n + m);
graphs derived from checked ones (products, complements, disjoint unions,
induced subgraphs, quotients, census candidates) are built unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence


class GraphError(ValueError):
    """Raised for malformed or out-of-contract graph inputs."""


@dataclass(frozen=True)
class Graph:
    """An immutable simple graph on vertices 0..n-1.

    `rows[u]` is a bitmask of the neighbours of `u`, symmetric and loop-free.
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise GraphError("vertex count must be non-negative")
        if len(self.rows) != self.n:
            raise GraphError("adjacency row count does not match n")
        for u, row in enumerate(self.rows):
            if row < 0 or row.bit_length() > self.n:
                raise GraphError(f"row {u} references vertices outside 0..{self.n - 1}")
            if row >> u & 1:
                raise GraphError(f"loop at vertex {u}")
            while row:
                v = (row & -row).bit_length() - 1
                if not self.rows[v] >> u & 1:
                    raise GraphError(f"adjacency not symmetric at ({min(u, v)}, {max(u, v)})")
                row &= row - 1

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, tuple(rows))

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            row = self.rows[u] >> (u + 1) << (u + 1)
            while row:
                v = (row & -row).bit_length() - 1
                yield (u, v)
                row &= row - 1

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2


def _trusted(n: int, rows: tuple[int, ...]) -> Graph:
    """A `Graph` from rows that are symmetric, loop-free and in range by
    construction, without the checks of `Graph.__post_init__`.  Only for
    constructors that derive the rows from valid graphs."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "rows", rows)
    return g


def empty_graph(n: int) -> Graph:
    return Graph.from_edges(n, [])


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << u) for u in range(n)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(u, (u + 1) % n) for u in range(n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(u, u + 1) for u in range(n - 1)])


def star_graph(leaves: int) -> Graph:
    """The star with one centre (vertex 0) and `leaves` leaves."""
    return Graph.from_edges(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return _trusted(g.n, tuple((full ^ g.rows[u]) & ~(1 << u) for u in range(g.n)))


def disjoint_union(gs: Sequence[Graph]) -> tuple[Graph, list[int]]:
    """Block-diagonal union; also returns the starting vertex id of each factor."""
    if not gs:
        raise GraphError("disjoint union needs at least one factor")
    offsets = []
    total = 0
    rows: list[int] = []
    for g in gs:
        offsets.append(total)
        rows.extend(r << total for r in g.rows)
        total += g.n
    return _trusted(total, tuple(rows)), offsets


def lex_product(x: Graph, y: Graph) -> Graph:
    """The graph on V(X) x V(Y) with (a,b)~(a',b') iff aa' in E(X), or
    a = a' and bb' in E(Y).  Flat vertex index is a*|V(Y)| + b."""
    if x.n == 0 or y.n == 0:
        raise GraphError("lexicographic product factors must be nonempty")
    ny = y.n
    y_full = (1 << ny) - 1
    rows = []
    for a in range(x.n):
        x_row = x.rows[a]
        outer = 0
        for a2 in range(x.n):
            if x_row >> a2 & 1:
                outer |= y_full << (a2 * ny)
        for b in range(ny):
            rows.append(outer | (y.rows[b] << (a * ny)))
    return _trusted(x.n * ny, tuple(rows))


def connected_components(g: Graph) -> list[list[int]]:
    """Maximal connected vertex sets, ordered by smallest member."""
    seen = 0
    components = []
    for start in range(g.n):
        if seen >> start & 1:
            continue
        frontier = 1 << start
        comp = 0
        while frontier:
            comp |= frontier
            new = 0
            row = frontier
            while row:
                u = (row & -row).bit_length() - 1
                new |= g.rows[u]
                row &= row - 1
            frontier = new & ~comp
        seen |= comp
        components.append(_bits(comp))
    return components


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) <= 1


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> Graph:
    """Induced subgraph on `vertices` (distinct and in range), relabelled to
    0..k-1 in the given order; built unchecked."""
    return _trusted(len(vertices), tuple(
        sum(1 << j for j, v in enumerate(vertices) if g.rows[u] >> v & 1) for u in vertices))


@dataclass(frozen=True)
class TwinPartition:
    """The partition of vertices into maximal classes of pairwise twins."""

    classes: tuple[tuple[int, ...], ...]
    uniform_size: Optional[int]

    @property
    def has_twins(self) -> bool:
        return any(len(c) >= 2 for c in self.classes)


def twin_partition(g: Graph) -> TwinPartition:
    """Group vertices by exact neighbourhood equality.

    Twins are never adjacent, so equal-neighbourhood rows characterise the
    classes directly.  Classes are ordered by smallest member.
    """
    by_row: dict[int, list[int]] = {}
    for u in range(g.n):
        by_row.setdefault(g.rows[u], []).append(u)
    classes = sorted((tuple(vs) for vs in by_row.values()), key=lambda c: c[0])
    sizes = {len(c) for c in classes}
    uniform = sizes.pop() if len(sizes) == 1 else None
    return TwinPartition(tuple(classes), uniform)


def has_twins(g: Graph) -> bool:
    return twin_partition(g).has_twins


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out
