"""The three workloads: how each builds its inputs and calls the program.

Each workload is a class with four hooks, used by `worker.py`, and a
nominal `round_s`, the seconds one round takes on a 2-vCPU machine, from
which `--seconds` sets the number of rounds:

- `setup(lx, seed)` returns a state dict whose "items" are the fixed item
  list for the seed.  It runs the program's census and graph
  constructors, and is timed as `setup_s`.
- `call(lx, state, item)` is the timed unit of work, one item.
- `record(lx, state, item, result)` turns the result into plain JSON for
  the reference checks in `checks.py`.  It runs outside the timed region.
- `reference(state)` is what else the checks need: the program's census,
  the query files, the leaf orders for the shadow check.

`lx` is a namespace holding the freshly imported `lexsym` modules and
`clear_census`, which empties the census cache.  Inputs that reach the
program are built here and nowhere else, so the reference side only ever
sees them through the recorded JSON.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from itertools import combinations


def edge_list(g) -> list:
    """A graph as `[n, [[u, v], ...]]`, the form the checks read."""
    return [g.n, [list(e) for e in g.edges()]]


def relabel(lx, g, rng: random.Random):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return lx.graphs.Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def census_upto(lx, max_n: int) -> dict:
    return {n: lx.census.unlabelled_graphs(n) for n in range(1, max_n + 1)}


def census_reference(state: dict) -> dict:
    return {"census": {n: [edge_list(g) for g in graphs]
                       for n, graphs in state["census"].items()}}


class Separation:
    """`verify_wl_separation` on every factor pair with at most 7 vertices
    per factor and at most 16 in the product where both Sabidussi
    conditions hold.  The seed relabels both factors of every pair and
    shuffles the order.  No automorphism search runs."""

    name = "separation"
    setup_reps = 3
    round_s = 30
    max_factor = 7
    max_product = 16

    def setup(self, lx, seed: int) -> dict:
        rng = random.Random(seed)
        by_n = census_upto(lx, self.max_factor)
        items = []
        for nx in by_n:
            for ny in by_n:
                if nx * ny > self.max_product:
                    continue
                for ix, x in enumerate(by_n[nx]):
                    for iy, y in enumerate(by_n[ny]):
                        if lx.analysis.sabidussi_conditions(x, y).wreath_holds:
                            items.append(((nx, ix), (ny, iy),
                                          relabel(lx, x, rng), relabel(lx, y, rng)))
        rng.shuffle(items)
        return {"items": items, "census": by_n}

    def call(self, lx, state, item):
        return lx.analysis.verify_wl_separation(item[2], item[3])

    def record(self, lx, state, item, result) -> dict:
        return {"x_id": item[0], "y_id": item[1],
                "x": edge_list(item[2]), "y": edge_list(item[3]),
                "edges_separated": result.inner_outer_edges_separated,
                "nonedges_separated": result.inner_outer_nonedges_separated,
                "witnesses": len(result.failing_witnesses)}

    def reference(self, state: dict) -> dict:
        return census_reference(state)


def _tree_leaves(tree: dict):
    if tree["kind"] in ("QutLeaf", "AutLeaf"):
        yield tree["graph"]["text"]
    for key in ("inner", "outer"):
        if key in tree:
            yield from _tree_leaves(tree[key])
    for child in tree.get("children", ()):
        yield from _tree_leaves(child)


class Survey:
    """For every pair with factors of at most 6 and 4 vertices and a product
    of at most 16, `analyze_product(x, y, 16)` and then `qut_expression` of
    the product.  Factors keep their census labelling, so the pairs hit by
    the `simplify` fault are the same on every seed; the seed only shuffles
    the order."""

    name = "survey"
    setup_reps = 5
    round_s = 10
    max_x = 6
    max_y = 4
    max_product = 16

    def setup(self, lx, seed: int) -> dict:
        by_n = census_upto(lx, self.max_x)
        items = [((nx, ix), (ny, iy), x, y)
                 for nx in range(1, self.max_x + 1)
                 for ny in range(1, self.max_y + 1) if nx * ny <= self.max_product
                 for ix, x in enumerate(by_n[nx]) for iy, y in enumerate(by_n[ny])]
        random.Random(seed).shuffle(items)
        # Leaf orders for the shadow check, filled outside the timed region.
        return {"items": items, "census": by_n, "leaf_orders": {}}

    def call(self, lx, state, item):
        x, y = item[2], item[3]
        report = lx.analysis.analyze_product(x, y, self.max_product)
        qut = lx.decompose.qut_expression(lx.graphs.lex_product(x, y), self.max_product)
        return report, qut

    def record(self, lx, state, item, result) -> dict:
        report, qut = result
        leaf_orders = state["leaf_orders"]
        trees = [lx.expressions.to_tree(report.quantum_expr), lx.expressions.to_tree(qut)]
        for tree in trees:
            for text in _tree_leaves(tree):
                if text not in leaf_orders:
                    leaf_orders[text] = lx.groups.aut_order(lx.formats.parse_graph(text))
        return {"x_id": item[0], "y_id": item[1],
                "wreath_holds": report.conditions.wreath_holds,
                "verdict": report.verdict,
                "aut_order": report.aut_order, "wreath_order": report.wreath_order,
                "analyze_tree": trees[0], "qut_tree": trees[1]}

    def reference(self, state: dict) -> dict:
        return {**census_reference(state), "leaf_orders": state["leaf_orders"]}


def paley_graph(lx, q: int):
    squares = {i * i % q for i in range(1, q)}
    return lx.graphs.Graph.from_edges(
        q, [(u, v) for u, v in combinations(range(q), 2) if (v - u) % q in squares])


def petersen_graph(lx):
    """The Kneser graph K(5, 2): 2-subsets of 5 points, adjacent when disjoint."""
    subsets = list(combinations(range(5), 2))
    return lx.graphs.Graph.from_edges(
        10, [(i, j) for i, j in combinations(range(10), 2)
             if not set(subsets[i]) & set(subsets[j])])


def graph6(g) -> str:
    """graph6 encoding of a graph on at most 62 vertices, with its header."""
    bits = [g.rows[v] >> u & 1 for v in range(1, g.n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    body = [int("".join(map(str, bits[i:i + 6])), 2) for i in range(0, len(bits), 6)]
    return ">>graph6<<" + "".join(chr(63 + b) for b in [g.n] + body) + "\n"


# Files the queries read.  Only the graphs named in RELABELLED get a seeded
# vertex relabelling: every query on them stays under 0.1 s whatever the
# labelling, and none of those queries sits near the median query time.
# The factors of the large products and the product files keep the
# labelling that `lexsym product` writes, because a random labelling of
# C7[C6] moves `aut_order` from about 2 s to 14 s or past 40 s.  Petersen
# keeps its Kneser labelling: relabelled, `analyze Petersen K2` took
# 0.25-3.9 s.  Paley(13), K1,3 and K1,4 keep theirs because `aut Paley13`
# and the K1,3[K1,4] queries sit at the median, which their labelling
# moved.
RELABELLED = ("paley17", "3k2")

QUERIES = (
    ("analyze C7 C6", ["--max-degree", "48", "analyze", "--json", "c7", "c6"]),
    ("analyze C5 C5", ["--max-degree", "25", "analyze", "--json", "c5", "c5"]),
    ("analyze C4 3K2", ["--max-degree", "24", "analyze", "--json", "c4", "3k2"]),
    ("analyze K13 K14", ["--max-degree", "20", "analyze", "--json", "k13", "k14"]),
    ("analyze Petersen K2", ["--max-degree", "20", "analyze", "--json", "petersen", "k2"]),
    ("aut Petersen", ["aut", "petersen"]),
    ("aut Paley13", ["aut", "paley13"]),
    ("aut Paley17", ["--max-degree", "17", "aut", "paley17"]),
    ("aut C5", ["aut", "c5"]),
    ("aut K13", ["aut", "k13"]),
    ("aut 3K2", ["aut", "3k2"]),
    ("wl Petersen", ["wl", "petersen"]),
    ("wl Paley13", ["wl", "paley13"]),
    ("wl Paley17", ["wl", "paley17"]),
    ("wl C7[C6]", ["wl", "c7[c6]"]),
    ("wl C5[C5]", ["wl", "c5[c5]"]),
    ("wl C4[3K2]", ["wl", "c4[3k2]"]),
    ("verify C7 C6", ["verify", "c7", "c6"]),
    ("verify C5 C5", ["verify", "c5", "c5"]),
    ("verify C4 3K2", ["verify", "c4", "3k2"]),
    ("verify K13 K14", ["verify", "k13", "k14"]),
    ("qut C7[C6]", ["qut", "c7[c6]"]),
    ("qut C5[C5]", ["qut", "c5[c5]"]),
    ("qut C4[3K2]", ["qut", "c4[3k2]"]),
    ("qut Paley13", ["qut", "paley13"]),
    ("qut Paley17", ["qut", "paley17"]),
    ("qut 3K2", ["qut", "3k2"]),
    ("sweep 4x3", ["sweep", "--max-nx", "4", "--max-ny", "3"]),
)


class Queries:
    """A fixed list of `lexsym` invocations, run in-process through
    `lexsym.cli.run` on graph files written to a temporary directory.  The
    seed relabels the graphs in RELABELLED and shuffles the order.  Each
    call starts with the census cache empty, as a fresh process would."""

    name = "queries"
    setup_reps = 15
    round_s = 3.5

    def __init__(self, inputs_dir: str):
        self.inputs_dir = inputs_dir

    def graphs(self, lx, rng: random.Random) -> dict:
        g = lx.graphs
        three_k2, _ = g.disjoint_union([g.complete_graph(2)] * 3)
        out = {"c7": g.cycle_graph(7), "c6": g.cycle_graph(6), "c5": g.cycle_graph(5),
               "c4": g.cycle_graph(4), "k2": g.complete_graph(2), "3k2": three_k2,
               "k13": g.star_graph(3), "k14": g.star_graph(4),
               "petersen": petersen_graph(lx),
               "paley13": paley_graph(lx, 13), "paley17": paley_graph(lx, 17)}
        for name in RELABELLED:
            out[name] = relabel(lx, out[name], rng)
        for x, y in (("c7", "c6"), ("c5", "c5"), ("c4", "3k2")):
            out[f"{x}[{y}]"] = g.lex_product(out[x], out[y])
        return out

    def setup(self, lx, seed: int) -> dict:
        rng = random.Random(seed)
        files = {}
        for name, graph in self.graphs(lx, rng).items():
            text = graph6(graph) if name == "paley17" else lx.formats.write_graph(graph)
            path = os.path.join(self.inputs_dir, name + (".g6" if name == "paley17" else ".g"))
            with open(path, "w") as fh:
                fh.write(text)
            files[name] = (path, text)
        items = [(qid, [files[a][0] if a in files else a for a in argv])
                 for qid, argv in QUERIES]
        rng.shuffle(items)
        return {"items": items, "files": {name: text for name, (_, text) in files.items()}}

    def call(self, lx, state, item):
        lx.clear_census()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = lx.cli.run(item[1])
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def record(self, lx, state, item, result) -> dict:
        code, out, err = result
        return {"id": item[0], "code": code, "stdout": out, "stderr": err[-2000:]}

    def reference(self, state: dict) -> dict:
        return {"files": state["files"]}
