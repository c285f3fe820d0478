"""Shared graph fixtures and hypothesis strategies."""

from hypothesis import strategies as st

from lexsym import Graph


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
