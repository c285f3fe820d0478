"""Census of small graphs: class counts, distinct representatives and a
fixed labelling."""

import hashlib
from itertools import combinations

import pytest

from lexsym import write_graph
from lexsym.census import _orbit_minimal_masks, unlabelled_graphs, unlabelled_graphs_upto
from lexsym.graphs import GraphError
from lexsym.groups import automorphisms

# Graphs on n vertices up to isomorphism, n = 0..7 (OEIS A000088).
COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044)

# sha256 of the concatenated `write_graph` output of every representative
# on 1..7 vertices, in census order.  The survey goldens and the benchmark
# items are indexed by this labelling and order.
CENSUS_7_SHA256 = "27e99d0073153273df38e308d6458834acfdab75161b48a9533493ace375e556"


@pytest.mark.parametrize("n, count", enumerate(COUNTS))
def test_counts(n, count):
    reps = unlabelled_graphs(n)
    assert len(reps) == count
    assert all(g.n == n for g in reps)


def test_negative_order_rejected():
    with pytest.raises(GraphError):
        unlabelled_graphs(-1)


@pytest.mark.parametrize("n", range(6))
def test_orbit_minimal_masks_against_every_automorphism(n):
    for base in unlabelled_graphs(n):
        perms = automorphisms(base).generators
        minima = {min(sum(1 << perm[v] for v in range(n) if mask >> v & 1) for perm in perms)
                  for mask in range(1 << n)}
        assert _orbit_minimal_masks(base) == sorted(minima), base


def test_labelling_is_pinned():
    text = "".join(write_graph(g) for g in unlabelled_graphs_upto(7))
    assert hashlib.sha256(text.encode()).hexdigest() == CENSUS_7_SHA256


@pytest.mark.parametrize("n", range(2, 7))
def test_representatives_pairwise_non_isomorphic(n):
    nx = pytest.importorskip("networkx")

    def to_nx(g):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        return h

    reps = [to_nx(g) for g in unlabelled_graphs(n)]
    assert not any(nx.is_isomorphic(a, b) for a, b in combinations(reps, 2))
