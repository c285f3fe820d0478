"""Two-dimensional Weisfeiler-Leman refinement of ordered-pair colourings.

A colouring assigns an id to every ordered vertex pair.  One refinement
round replaces each pair colour by its exact triangle profile (counts of
middle-vertex colour combinations), then renames the resulting classes
canonically: new ids are assigned in order of first occurrence scanning
pairs row-major.  The ids depend only on the partition, so any key that
induces the same partition as the triangle profiles gives the same
colouring.  Each round refines the last, so the first round that does not
raise the class count (at most n^2) repeats the partition and the colours:
that is the stable colouring.  `refinements` yields the rounds up to it,
and `stable_colouring` keeps the last.

Because each round keys a pair by its previous colour (the first round by
its initial code), a pair's colour in one round fixes its colour in every
earlier round.  Two sets of pairs whose colours are disjoint in some round
therefore stay disjoint in every later round, the stable one included, so
a caller testing for such a separation may stop at the first round that
shows it.

The round encodes middle vertex z of the pair (u, v) as the single int
c(u,z)*k + c(z,v), with k the number of colours.  Because 0 <= c(z,v) < k
the code is injective, so the sorted codes of a pair are its triangle
profile written as a multiset: two pairs get equal keys exactly when their
explicit counts are equal, and the first-occurrence rename gives the same
ids, round for round, as counting would.

The first round is computed in closed form.  Under the diagonal / edge /
non-edge colouring, the profile of (u, v) is fixed by four values: its
initial colour, deg u, deg v and |N(u) & N(v)| (the general form of the
paper's Table 1 counts), and the profile gives those four values back.
Keying pairs by them splits pairs as the profiles do, at O(n^2) word
operations instead of the O(n^3) of a general round.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import add
from typing import Iterator, Optional

from .graphs import Graph, GraphError, complement, classify_pair, PairClass


@dataclass(frozen=True)
class PairColouring:
    """A total colouring of ordered vertex pairs, row-major, with compact ids."""

    n: int
    colours: tuple[int, ...]
    num_colours: int

    def colour(self, u: int, v: int) -> int:
        return self.colours[u * self.n + v]

    def matrix(self) -> list[list[int]]:
        n = self.n
        return [list(self.colours[u * n:(u + 1) * n]) for u in range(n)]

    def classes(self) -> list[list[tuple[int, int]]]:
        out: list[list[tuple[int, int]]] = [[] for _ in range(self.num_colours)]
        n = self.n
        for u in range(n):
            for v in range(n):
                out[self.colours[u * n + v]].append((u, v))
        return out


@dataclass(frozen=True)
class RefinementTrace:
    """The stable colouring, and the number of rounds that raised the class
    count on the way to it (0 when the initial colouring is stable)."""

    stable: PairColouring
    stable_round: int


@dataclass(frozen=True)
class TriangleProfile:
    """Counts of middle vertices by (colour to z, colour from z) for one pair."""

    counts: tuple[tuple[tuple[int, int], int], ...]

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.counts)

    def total(self) -> int:
        return sum(c for _, c in self.counts)


def _canonical_rename(raw: list, n: int) -> PairColouring:
    ids: dict = {}
    colours = tuple([ids.setdefault(key, len(ids)) for key in raw])
    return PairColouring(n, colours, len(ids))


def initial_colouring(g: Graph) -> PairColouring:
    """Diagonal / edge / non-edge colouring, canonically renamed.

    Raw codes are 0 for the diagonal, 1 for edges, 2 for non-edges; the
    rename collapses absent codes so ids are always contiguous.
    """
    raw = []
    for u in range(g.n):
        row = g.rows[u]
        for v in range(g.n):
            if u == v:
                raw.append(0)
            elif row >> v & 1:
                raw.append(1)
            else:
                raw.append(2)
    return _canonical_rename(raw, g.n)


def edge_nonedge_colours(g: Graph, c: PairColouring) -> tuple[Optional[int], Optional[int]]:
    """The ids that an initial colouring gave to edges and to non-edges.

    The canonical rename is first-occurrence based, so on some graphs the
    edge class ends up with a higher id than the non-edge class; callers
    comparing against semantic edge/non-edge roles need this mapping.
    """
    edge_colour = nonedge_colour = None
    for u in range(g.n):
        for v in range(g.n):
            if u == v:
                continue
            if g.rows[u] >> v & 1:
                edge_colour = c.colour(u, v)
            else:
                nonedge_colour = c.colour(u, v)
            if edge_colour is not None and nonedge_colour is not None:
                return edge_colour, nonedge_colour
    return edge_colour, nonedge_colour


def triangle_counts(g: Graph, c: PairColouring, p: int, q: int) -> TriangleProfile:
    """Exact middle-vertex counts for the ordered pair (p, q) under `c`."""
    if c.n != g.n:
        raise GraphError("colouring size does not match graph")
    g._check_vertex(p)
    g._check_vertex(q)
    n = g.n
    counts: Counter[tuple[int, int]] = Counter()
    row_p = c.colours[p * n:(p + 1) * n]
    for z in range(n):
        counts[(row_p[z], c.colours[z * n + q])] += 1
    return TriangleProfile(tuple(sorted(counts.items())))


def first_round(g: Graph) -> PairColouring:
    """The refinement of the initial colouring, in closed form.

    For u != v the middle vertices other than u and v split as
    |N(u) & N(v)| edge-edge, deg u - |N(u) & N(v)| - [uv] edge-non-edge,
    its mirror with deg v, and the rest non-edge-non-edge; u and v add one
    fixed code each.  The diagonal pair (u, u) sees deg u edge-edge and
    n - 1 - deg u non-edge-non-edge.  So the key (initial colour code,
    deg u, deg v, |N(u) & N(v)|) splits pairs exactly as the profiles do,
    and the rename gives the ids `refine_step(g, initial_colouring(g))`
    gives.
    """
    n = g.n
    rows = g.rows
    degs = [row.bit_count() for row in rows]
    raw = []
    for u in range(n):
        row, du = rows[u], degs[u]
        raw.extend((0 if u == v else 1 if row >> v & 1 else 2, du, degs[v],
                    (row & rows[v]).bit_count()) for v in range(n))
    return _canonical_rename(raw, n)


def refine_step(g: Graph, c: PairColouring) -> PairColouring:
    """One refinement round: split classes by exact triangle profiles.

    Each pair is keyed by its colour and the sorted codes
    c(u,z)*k + c(z,v) over all z, with k = c.num_colours.  The code is
    injective (0 <= c(z,v) < k), so equal keys mean equal triangle counts
    and the rename assigns the ids that explicit counting would.
    """
    if c.n != g.n:
        raise GraphError("colouring size does not match graph")
    n = g.n
    k = c.num_colours
    colours = c.colours
    columns = [colours[v::n] for v in range(n)]
    raw = []
    for u in range(n):
        row_u = colours[u * n:(u + 1) * n]
        scaled = [a * k for a in row_u]
        raw.extend(zip(row_u, [tuple(sorted(map(add, scaled, col))) for col in columns]))
    return _canonical_rename(raw, n)


def refinements(g: Graph) -> Iterator[PairColouring]:
    """Yield `first_round(g)`, then each `refine_step` of the last round, up
    to and including the first round that does not raise the class count.
    The initial count is the diagonal, plus the edges if any, plus the
    non-edges if any; the initial colouring is not built.
    """
    pairs = g.n * (g.n - 1) // 2
    edges = g.edge_count()
    count = (g.n > 0) + (edges > 0) + (edges < pairs)
    current = first_round(g)
    yield current
    while current.num_colours > count:
        count = current.num_colours
        current = refine_step(g, current)
        yield current


def stable_colouring(g: Graph) -> RefinementTrace:
    """The last of `refinements(g)`, and the number of `refine_step` rounds
    it took."""
    for stable_round, current in enumerate(refinements(g)):
        pass
    return RefinementTrace(current, stable_round)


def distinguished(c: PairColouring, p1: tuple[int, int], p2: tuple[int, int]) -> bool:
    return c.colour(*p1) != c.colour(*p2)


def strongly_distinguished(c: PairColouring, e1: tuple[int, int], e2: tuple[int, int]) -> bool:
    """True iff the colour sets of both orientations are disjoint."""
    if e1[0] == e1[1] or e2[0] == e2[1]:
        raise GraphError("strong distinguishing is defined for non-diagonal pairs")
    s1 = {c.colour(e1[0], e1[1]), c.colour(e1[1], e1[0])}
    s2 = {c.colour(e2[0], e2[1]), c.colour(e2[1], e2[0])}
    return not (s1 & s2)


def table1_closed_form(x: Graph, y: Graph, p: tuple[int, int], q: tuple[int, int]) -> TriangleProfile:
    """Closed-form triangle counts for an edge of the lexicographic product
    after the initial colouring, keyed by semantic codes (1=edge, 2=non-edge).

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
    kind = classify_pair(x, y, p, q)
    if kind not in (PairClass.INNER_EDGE, PairClass.OUTER_EDGE):
        raise GraphError("closed-form triangle counts require a product edge")
    xc = complement(x)
    yc = complement(y)
    n = y.n
    (px, py), (qx, qy) = p, q
    if kind is PairClass.INNER_EDGE:
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
    counts = tuple(((i, j), v) for (i, j), v in
                   [((1, 1), d11), ((1, 2), d12), ((2, 1), d21), ((2, 2), d22)])
    return TriangleProfile(counts)


def profile_distinguish(g: Graph, c: PairColouring,
                        src_pair: tuple[int, int], dst_pair: tuple[int, int],
                        max_len: int) -> Optional[tuple[int, tuple[int, ...]]]:
    """Search for a colour word whose walk counts separate two pairs.

    Returns the shortest (length, word) such that the numbers of walks from
    src_pair[0] to src_pair[1] and from dst_pair[0] to dst_pair[1] carrying
    that exact colour word differ, or None if no witness of length at most
    `max_len` exists.  Walk counts are accumulated by dynamic programming
    over colour-labelled transitions; identical intermediate count-vector
    pairs are merged to keep the search finite.
    """
    if max_len < 1:
        raise GraphError("max_len must be at least 1")
    if c.n != g.n:
        raise GraphError("colouring size does not match graph")
    n = g.n
    x0, x1 = src_pair
    y0, y1 = dst_pair
    for v in (x0, x1, y0, y1):
        g._check_vertex(v)
    # transitions[i][u] = bit/count layout: list of v with colour(u, v) == i
    transitions: list[list[list[int]]] = [
        [[v for v in range(n) if c.colours[u * n + v] == i] for u in range(n)]
        for i in range(c.num_colours)
    ]
    start_x = tuple(1 if v == x0 else 0 for v in range(n))
    start_y = tuple(1 if v == y0 else 0 for v in range(n))
    frontier: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[int, ...]] = {
        (start_x, start_y): ()
    }
    for length in range(1, max_len + 1):
        nxt: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[int, ...]] = {}
        for (vx, vy), word in frontier.items():
            for i in range(c.num_colours):
                wx = [0] * n
                wy = [0] * n
                for u in range(n):
                    cu = vx[u]
                    if cu:
                        for v in transitions[i][u]:
                            wx[v] += cu
                    cu = vy[u]
                    if cu:
                        for v in transitions[i][u]:
                            wy[v] += cu
                if wx[x1] != wy[y1]:
                    return (length, word + (i,))
                state = (tuple(wx), tuple(wy))
                if state not in nxt:
                    nxt[state] = word + (i,)
        frontier = nxt
        if not frontier:
            break
    return None
