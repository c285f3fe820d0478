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
earlier round.  So a colour lies on one kind of pair (diagonal, edge or
non-edge), and two sets of pairs whose colours are disjoint in some round
stay disjoint in every later round, the stable one included: a caller
testing for such a separation may stop at the first round that shows it.
The round that shows it needs keys only on the pairs whose previous colour
lies in both sets (is mixed): a key holds that colour, so a pair whose
colour lies in one set cannot share a key with a pair of the other.
`_row_keys` keys any chosen pairs of a row, whole rows for `refine_step`.

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

from dataclasses import dataclass
from operator import add
from typing import Iterable, Iterator

from .graphs import Graph, GraphError


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


@dataclass(frozen=True)
class RefinementTrace:
    """The stable colouring, and the number of rounds that raised the class
    count on the way to it (0 when the initial colouring is stable)."""

    stable: PairColouring
    stable_round: int


def _canonical_rename(raw: list, n: int) -> PairColouring:
    ids: dict = {}
    colours = tuple([ids.setdefault(key, len(ids)) for key in raw])
    return PairColouring(n, colours, len(ids))


def first_round(g: Graph) -> PairColouring:
    """The refinement of the initial colouring, in closed form.

    For u != v the middle vertices other than u and v split as
    |N(u) & N(v)| edge-edge, deg u - |N(u) & N(v)| - [uv] edge-non-edge,
    its mirror with deg v, and the rest non-edge-non-edge; u and v add one
    fixed code each.  The diagonal pair (u, u) sees deg u edge-edge and
    n - 1 - deg u non-edge-non-edge.  So the key (initial colour code,
    deg u, deg v, |N(u) & N(v)|) splits pairs exactly as the profiles do,
    and the rename gives the ids that a general `refine_step` of the
    diagonal / edge / non-edge colouring gives.
    """
    n = g.n
    rows = g.rows
    degs = [row.bit_count() for row in rows]
    raw = []
    for u in range(n):
        row, du = rows[u], degs[u]
        raw.extend([(0 if u == v else 1 if row >> v & 1 else 2, du, degs[v],
                     (row & rows[v]).bit_count()) for v in range(n)])
    return _canonical_rename(raw, n)


def _row_keys(row: tuple, k: int, colours: Iterable[int], columns: Iterable[tuple]):
    """The refinement keys, as an iterator, of the pairs (u, v) of row u
    whose colours c(u, v) and columns c(., v) are listed in `colours` and
    `columns`: `row` holds c(u, .) and `k` the number of colours.  A key is
    c(u,v) and the sorted codes c(u,z)*k + c(z,v) over all z."""
    scaled = [a * k for a in row]
    return zip(colours, [tuple(sorted(map(add, scaled, col))) for col in columns])


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
        row = colours[u * n:(u + 1) * n]
        raw.extend(_row_keys(row, k, row, columns))
    return _canonical_rename(raw, n)


def _initial_class_count(g: Graph) -> int:
    """The diagonal, plus the edges if any, plus the non-edges if any."""
    edges = g.edge_count()
    return (g.n > 0) + (edges > 0) + (edges < g.n * (g.n - 1) // 2)


def refinements(g: Graph) -> Iterator[PairColouring]:
    """Yield `first_round(g)`, then each `refine_step` of the last round, up
    to and including the first round that does not raise the class count.
    The initial count is `_initial_class_count(g)`; the initial colouring is
    not built.
    """
    count = _initial_class_count(g)
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

