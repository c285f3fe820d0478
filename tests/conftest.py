"""Shared graph fixtures, hypothesis strategies and reference oracles."""

from collections import Counter
from typing import Optional

from hypothesis import strategies as st

from lexsym import Graph, PairColouring, complement
from lexsym.graphs import GraphError
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


def table1_closed_form(x: Graph, y: Graph, p: tuple[int, int],
                       q: tuple[int, int]) -> dict[tuple[int, int], int]:
    """The paper's Table 1: the counts of middle vertices z of an edge (p, q)
    of the lexicographic product, keyed by the codes (1 = edge, 2 = non-edge)
    of the pairs (p, z) and (z, q).

    Inner edge (p, q in the same copy of the right factor at position a):
        D11 = |N_Y(py) & N_Y(qy)| + |N_X(a)| * n
        D12 = |N_Y(py) & N_Yc(qy)|
        D21 = |N_Yc(py) & N_Y(qy)|
        D22 = |N_Yc(py) & N_Yc(qy)| + |N_Xc(a)| * n
    Outer edge:
        D11 = |N_Y(py)| + |N_Y(qy)| + |N_X(px) & N_X(qx)| * n
        D12 = |N_Yc(qy)| + |N_X(px) & N_Xc(qx)| * n
        D21 = |N_Yc(py)| + |N_Xc(px) & N_X(qx)| * n
        D22 = |N_Xc(px) & N_Xc(qx)| * n
    where n = |V(Y)| and N_*c are neighbourhoods in the complement.
    Degenerate counts involving the diagonal colour are omitted.
    """
    (px, py), (qx, qy) = p, q
    if not (0 <= px < x.n and 0 <= qx < x.n and 0 <= py < y.n and 0 <= qy < y.n):
        raise GraphError("product vertex out of range")
    inner = px == qx
    if not (y.rows[py] >> qy & 1 if inner else x.rows[px] >> qx & 1):
        raise GraphError("closed-form triangle counts require a product edge")
    xc = complement(x)
    yc = complement(y)
    n = y.n
    if inner:
        a = px
        d11 = (y.rows[py] & y.rows[qy]).bit_count() + x.rows[a].bit_count() * n
        d12 = (y.rows[py] & yc.rows[qy]).bit_count()
        d21 = (yc.rows[py] & y.rows[qy]).bit_count()
        d22 = (yc.rows[py] & yc.rows[qy]).bit_count() + xc.rows[a].bit_count() * n
    else:
        d11 = (y.rows[py].bit_count() + y.rows[qy].bit_count()
               + (x.rows[px] & x.rows[qx]).bit_count() * n)
        d12 = yc.rows[qy].bit_count() + (x.rows[px] & xc.rows[qx]).bit_count() * n
        d21 = yc.rows[py].bit_count() + (xc.rows[px] & x.rows[qx]).bit_count() * n
        d22 = (xc.rows[px] & xc.rows[qx]).bit_count() * n
    return {(1, 1): d11, (1, 2): d12, (2, 1): d21, (2, 2): d22}


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
