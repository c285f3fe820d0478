"""Shared graph fixtures, hypothesis strategies and reference oracles."""

from collections import Counter
from typing import Optional

from hypothesis import strategies as st

from lexsym import Graph, PairColouring
from lexsym.wl import _canonical_rename


def graph_from_bits(n: int, bits: int) -> Graph:
    """Decode an upper-triangle bitmask (row-major) into a graph."""
    rows = [0] * n
    k = 0
    for u in range(n):
        for v in range(u + 1, n):
            if bits >> k & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            k += 1
    return Graph(n, tuple(rows))


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 7):
    n = draw(st.integers(min_n, max_n))
    m = n * (n - 1) // 2
    bits = draw(st.integers(0, (1 << m) - 1)) if m else 0
    return graph_from_bits(n, bits)


@st.composite
def graph_with_permutation(draw, min_n: int = 1, max_n: int = 6):
    g = draw(graphs(min_n=min_n, max_n=max_n))
    perm = tuple(draw(st.permutations(range(g.n))))
    return g, perm


def apply_permutation(g: Graph, perm) -> Graph:
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def petersen_graph() -> Graph:
    """Kneser graph on the 2-subsets of a 5-set, disjointness adjacency."""
    from itertools import combinations
    subsets = list(combinations(range(5), 2))
    edges = [(i, j) for i in range(10) for j in range(i + 1, 10)
             if not set(subsets[i]) & set(subsets[j])]
    return Graph.from_edges(10, edges)


def initial_colouring(g: Graph) -> PairColouring:
    """Diagonal / edge / non-edge colouring, canonically renamed: the round
    that `first_round` refines, built explicitly."""
    return _canonical_rename([0 if u == v else 1 if g.rows[u] >> v & 1 else 2
                              for u in range(g.n) for v in range(g.n)], g.n)


def direct_profile(g: Graph, p: int, q: int) -> dict:
    """Middle vertices z of the pair (p, q), other than p and q, counted by
    the adjacency codes (1 edge, 2 non-edge) of (p, z) and (z, q)."""
    return dict(Counter((2 - (g.rows[p] >> z & 1), 2 - (g.rows[z] >> q & 1))
                        for z in range(g.n) if z not in (p, q)))


def distance_matrix(g: Graph) -> list[list[Optional[int]]]:
    """All-pairs graph distances via BFS; None encodes unreachable."""
    dist: list[list[Optional[int]]] = [[None] * g.n for _ in range(g.n)]
    for s in range(g.n):
        dist[s][s] = 0
        frontier = [s]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                row = g.rows[u]
                while row:
                    v = (row & -row).bit_length() - 1
                    row &= row - 1
                    if dist[s][v] is None:
                        dist[s][v] = d
                        nxt.append(v)
            frontier = nxt
    return dist
