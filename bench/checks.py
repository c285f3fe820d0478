"""Reference checks, kept apart from the program.

Everything here is computed with `networkx` or from closed forms, never
with `lexsym`: the census comes from `networkx.graph_atlas_g()`, the
Sabidussi conditions from connectivity and neighbourhood equality, and
group orders from VF2 or closed forms.  The one exception is the order
of a graph leaf inside an expression, which the worker computes with
`lexsym`'s `aut_order` outside the timed region.  `check(payload)` returns
the problems found (any problem makes the run incorrect) and the failed
items.

A survey item fails, rather than making the run incorrect, when a
certified expression has the wrong degree or a classical shadow other than
`aut_order`: that is the `expressions.simplify` fault (the star rule drops
the centre of K1,k and `FreeProd` drops S+(1) children), which hits the
same pairs on every seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter, defaultdict
from functools import lru_cache
from itertools import combinations

import networkx as nx
from networkx.algorithms.isomorphism import GraphMatcher

# Graphs on n vertices up to isomorphism, n = 1..7 (OEIS A000088).
A000088 = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def to_nx(edge_list) -> nx.Graph:
    n, edges = edge_list
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(map(tuple, edges))
    return g


def parse_file(text: str) -> nx.Graph:
    """A graph file as the queries write it: edge-list text or graph6."""
    if text.startswith(">>graph6<<"):
        return nx.from_graph6_bytes(text[len(">>graph6<<"):].strip().encode())
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    return to_nx([int(lines[0][0]), [tuple(map(int, ln)) for ln in lines[1:]]])


def has_twins(g: nx.Graph) -> bool:
    """Two distinct vertices with the same open neighbourhood."""
    return len({frozenset(g[v]) for v in g}) < g.number_of_nodes()


def condition_flags(g: nx.Graph) -> tuple[bool, bool, bool, bool]:
    """(connected, complement connected, twins, complement twins)."""
    co = nx.complement(g)
    return nx.is_connected(g), nx.is_connected(co), has_twins(g), has_twins(co)


def wreath_conditions(x_flags, y_flags) -> bool:
    """Sabidussi: (i) Y connected or X twin-free, and (ii) the complement of
    Y connected or the complement of X twin-free."""
    return (y_flags[0] or not x_flags[2]) and (y_flags[1] or not x_flags[3])


def automorphisms(g: nx.Graph) -> list[dict]:
    return list(GraphMatcher(g, g).isomorphisms_iter())


def orbits(g: nx.Graph, autos: list[dict]) -> list[list[int]]:
    classes = {v: frozenset(a[v] for a in autos) for v in g}
    return sorted(sorted(c) for c in set(classes.values()))


def orbital_count(g: nx.Graph, autos: list[dict]) -> int:
    seen, count = set(), 0
    for u in g:
        for v in g:
            if (u, v) not in seen:
                count += 1
                seen.update((a[u], a[v]) for a in autos)
    return count


def cycle_lex_order(n: int, m: int) -> int:
    """|Aut(C_n[C_m])| = (2m)^n * 2n for n, m >= 5."""
    return (2 * m) ** n * 2 * n


def paley_order(q: int) -> int:
    """|Aut(Paley(q))| = q(q-1)/2 for a prime q = 1 mod 4."""
    return q * (q - 1) // 2


def expr_degree(tree: dict) -> int:
    """Points an expression tree (as `to_tree` writes it) acts on."""
    kind = tree["kind"]
    if kind in ("SPlus", "S"):
        return tree["n"]
    if kind in ("QutLeaf", "AutLeaf"):
        return int(tree["graph"]["text"].split()[0])
    if kind in ("FreeWreath", "Wreath"):
        return expr_degree(tree["inner"]) * expr_degree(tree["outer"])
    if kind == "FreeProd":
        return sum(expr_degree(c) for c in tree["children"])
    raise ValueError(f"no degree for {kind}")


def expr_shadow(tree: dict, leaf_order) -> int:
    """Order of the classical shadow: S+(n) counts n!, a free wreath counts
    as a wreath, a free product as a direct product."""
    kind = tree["kind"]
    if kind in ("SPlus", "S"):
        return math.factorial(tree["n"])
    if kind in ("QutLeaf", "AutLeaf"):
        return leaf_order(tree["graph"]["text"])
    if kind in ("FreeWreath", "Wreath"):
        return (expr_shadow(tree["inner"], leaf_order) ** expr_degree(tree["outer"])
                * expr_shadow(tree["outer"], leaf_order))
    if kind == "FreeProd":
        return math.prod(expr_shadow(c, leaf_order) for c in tree["children"])
    raise ValueError(f"no shadow for {kind}")


def expr_string(tree: dict) -> str:
    """The canonical string of an expression tree; leaves are named by the
    first 8 hex digits of the SHA-256 of their graph text."""
    kind = tree["kind"]
    if kind in ("SPlus", "S"):
        return f"{'S+' if kind == 'SPlus' else 'S'}({tree['n']})"
    if kind in ("QutLeaf", "AutLeaf"):
        digest = hashlib.sha256(tree["graph"]["text"].encode()).hexdigest()[:8]
        return f"{kind[:3]}(#{digest})"
    if kind in ("FreeWreath", "Wreath"):
        return f"{kind}({expr_string(tree['inner'])},{expr_string(tree['outer'])})"
    if kind == "FreeProd":
        return "FreeProd(" + ",".join(expr_string(c) for c in tree["children"]) + ")"
    return f"Indeterminate({tree['reason']})"


def expression_problem(tree: dict, n: int, order: int, leaf_order) -> str | None:
    """Why a certified expression is wrong for a graph on n vertices with
    `order` automorphisms, or None when it is right or not certified."""
    if tree["kind"] == "Indeterminate":
        return None
    degree = expr_degree(tree)
    if degree != n:
        return f"degree {degree} != {n}"
    shadow = expr_shadow(tree, leaf_order)
    if shadow != order:
        return f"shadow {shadow} != aut_order {order}"
    return None


@lru_cache(maxsize=None)
def atlas(max_n: int) -> dict[int, list[nx.Graph]]:
    by_n = defaultdict(list)
    for g in nx.graph_atlas_g():
        if 1 <= g.number_of_nodes() <= max_n:
            by_n[g.number_of_nodes()].append(g)
    return dict(by_n)


def census_problems(census: dict, max_n: int) -> list[str]:
    """The program's census must hold one graph per isomorphism class."""
    problems = []
    reference = atlas(max_n)
    for n in range(1, max_n + 1):
        graphs = [to_nx(e) for e in census.get(str(n), [])]
        if not len(graphs) == len(reference[n]) == A000088[n]:
            problems.append(f"census n={n}: {len(graphs)} graphs, atlas "
                            f"{len(reference[n])}, A000088 {A000088[n]}")
        buckets = defaultdict(list)
        for g in graphs:
            key = (g.number_of_edges(), tuple(sorted(d for _, d in g.degree())),
                   tuple(sorted(nx.triangles(g).values())))
            buckets[key].append(g)
        for bucket in buckets.values():
            if any(nx.is_isomorphic(a, b) for a, b in combinations(bucket, 2)):
                problems.append(f"census n={n}: two isomorphic representatives")
                break
    return problems


def atlas_pair_count(max_x: int, max_y: int, max_product: int, conditions: bool) -> int:
    """Atlas pairs within the bounds; with `conditions`, only those where
    both Sabidussi conditions hold."""
    reference = atlas(max(max_x, max_y))
    flags = {n: Counter(condition_flags(g) for g in graphs) for n, graphs in reference.items()}
    total = 0
    for nx_ in range(1, max_x + 1):
        for ny in range(1, max_y + 1):
            if nx_ * ny > max_product:
                continue
            for xf, xc in flags[nx_].items():
                for yf, yc in flags[ny].items():
                    if not conditions or wreath_conditions(xf, yf):
                        total += xc * yc
    return total


def check_separation(payload: dict) -> tuple[list[str], list[str]]:
    problems = census_problems(payload["census"], 7)
    expected = atlas_pair_count(7, 7, 16, conditions=True)
    rounds = payload["rounds"]
    outputs = payload["outputs"]
    if len(outputs) != expected * rounds:
        problems.append(f"{len(outputs)} items in {rounds} rounds, expected "
                        f"{expected} per round from the atlas")
    if len({(tuple(o["x_id"]), tuple(o["y_id"])) for o in outputs}) != expected:
        problems.append("the item list does not hold each census pair once")
    for o in outputs:
        x, y = to_nx(o["x"]), to_nx(o["y"])
        if not wreath_conditions(condition_flags(x), condition_flags(y)):
            problems.append(f"pair {o['x_id']} {o['y_id']}: conditions fail in networkx")
        if not (o["edges_separated"] and o["nonedges_separated"]) or o["witnesses"]:
            problems.append(f"pair {o['x_id']} {o['y_id']}: not separated")
    return problems, []


def survey_item(o: dict, x: nx.Graph, y: nx.Graph, x_order: int, y_order: int,
                leaf_order) -> tuple[list[str], str | None]:
    """Problems with one survey output, and why it failed if it did.

    `x_order` and `y_order` are the VF2 orders of the factors.  The order
    and the verdict must follow the networkx conditions; a certified
    expression with the wrong degree or shadow is a failure instead.
    """
    holds = wreath_conditions(condition_flags(x), condition_flags(y))
    wreath = y_order ** x.number_of_nodes() * x_order
    order = o["aut_order"]
    problems = []
    if o["wreath_holds"] != holds:
        problems.append(f"wreath_holds {o['wreath_holds']}, networkx {holds}")
    if (o["verdict"] == "wreath") != holds:
        problems.append(f"verdict {o['verdict']} with conditions {holds}")
    if o["wreath_order"] != wreath:
        problems.append(f"wreath_order {o['wreath_order']}, VF2 gives {wreath}")
    if not (order == wreath if holds else order > wreath):
        problems.append(f"aut_order {order} vs wreath order {wreath}, conditions {holds}")
    n = x.number_of_nodes() * y.number_of_nodes()
    for verb, tree in (("analyze", o["analyze_tree"]), ("qut", o["qut_tree"])):
        problem = expression_problem(tree, n, order, leaf_order)
        if problem is not None:
            return problems, f"{verb} {problem}"
    return problems, None


def check_survey(payload: dict) -> tuple[list[str], list[str]]:
    census = payload["census"]
    problems = census_problems(census, 6)
    expected = atlas_pair_count(6, 4, 16, conditions=False)
    if payload["items_per_round"] != expected:
        problems.append(f"{payload['items_per_round']} items per round, expected {expected}")
    graphs = {(int(n), i): to_nx(e) for n, es in census.items() for i, e in enumerate(es)}
    orders = {key: len(automorphisms(g)) for key, g in graphs.items()}
    failures = []
    for o in payload["outputs"]:
        xk, yk = tuple(o["x_id"]), tuple(o["y_id"])
        item_problems, failure = survey_item(o, graphs[xk], graphs[yk], orders[xk],
                                             orders[yk], payload["leaf_orders"].__getitem__)
        where = f"pair {o['x_id']} {o['y_id']}"
        problems += [f"{where}: {p}" for p in item_problems]
        if failure is not None:
            failures.append(f"{where}: {failure}")
    return problems, failures


def _rank3_key(g: nx.Graph):
    return lambda u, v: 0 if u == v else 1 if g.has_edge(u, v) else 2


def _cycle_distance(k: int, a: int, b: int) -> int:
    return min((a - b) % k, (b - a) % k)


def _cycle_product_key(n: int, m: int):
    """C_n[C_m] at product labelling a*m + b: the stable colouring is the
    orbital partition, inner pairs by distance in C_m, outer by C_n."""
    def key(p, q):
        (a, b), (a2, b2) = divmod(p, m), divmod(q, m)
        return ("in", _cycle_distance(m, b, b2)) if a == a2 else ("out", _cycle_distance(n, a, a2))
    return key, m // 2 + 1 + n // 2


def _c4_3k2_key(product: nx.Graph):
    """C4[3K2] is the join of two copies of 6K2 (C4 = K2[2K1]); its four
    orbitals are the diagonal, K2 edges, non-edges, and the join edges."""
    def key(p, q):
        if p == q:
            return "diagonal"
        if not product.has_edge(p, q):
            return "non-edge"
        return "join" if (p // 6) % 2 != (q // 6) % 2 else "K2"
    return key, 4


def _partition_matches(colours: list[list[int]], key) -> bool:
    forward, backward = {}, {}
    for u, row in enumerate(colours):
        for v, c in enumerate(row):
            k = key(u, v)
            if forward.setdefault(c, k) != k or backward.setdefault(k, c) != c:
                return False
    return True


class QueryChecks:
    """Expected outputs of each query, from the input files and networkx."""

    def __init__(self, files: dict):
        self.graphs = {name: parse_file(text) for name, text in files.items()}
        self._autos = {}

    def autos(self, name: str) -> list[dict]:
        if name not in self._autos:
            self._autos[name] = automorphisms(self.graphs[name])
        return self._autos[name]

    def analyze(self, out: dict, x: str, y: str, order=None) -> list[str]:
        gx, gy = self.graphs[x], self.graphs[y]
        holds = wreath_conditions(condition_flags(gx), condition_flags(gy))
        wreath = len(self.autos(y)) ** gx.number_of_nodes() * len(self.autos(x))
        classical = out["classical"]
        problems = []
        if (out["verdict"] == "wreath") != holds:
            problems.append(f"verdict {out['verdict']} with conditions {holds}")
        if classical.get("wreath_order") != wreath:
            problems.append(f"wreath_order {classical.get('wreath_order')} != VF2 {wreath}")
        got = classical.get("aut_order")
        if order is None:
            order = wreath if holds else None
        if order is not None and got != order:
            problems.append(f"aut_order {got} != {order}")
        if got is None or not (got == wreath if holds else got > wreath):
            problems.append(f"aut_order {got} against wreath order {wreath}")
        return problems

    def aut(self, out: dict, name: str, order=None) -> list[str]:
        g, autos = self.graphs[name], self.autos(name)
        problems = []
        if out["order"] != len(autos) or (order is not None and out["order"] != order):
            problems.append(f"order {out['order']}, VF2 {len(autos)}, closed form {order}")
        if sorted(out["orbits"]) != orbits(g, autos):
            problems.append("orbits differ from VF2")
        if out["orbitals_count"] != orbital_count(g, autos):
            problems.append(f"orbitals_count {out['orbitals_count']} != VF2 "
                            f"{orbital_count(g, autos)}")
        return problems

    def wl(self, out: dict, key, classes: int) -> list[str]:
        problems = []
        if out["classes"] != classes:
            problems.append(f"{out['classes']} stable classes, expected {classes}")
        if not _partition_matches(out["colour"], key):
            problems.append("stable colouring is not the expected partition")
        return problems

    def verify(self, out: dict, x: str, y: str, edges=None, nonedges=None) -> list[str]:
        if edges is None:
            holds = wreath_conditions(condition_flags(self.graphs[x]),
                                      condition_flags(self.graphs[y]))
            if not holds:
                return ["conditions fail; give the expected separation"]
            edges = nonedges = True
        problems = []
        if (out["edges_separated"], out["nonedges_separated"]) != (edges, nonedges):
            problems.append(f"separation {out['edges_separated']}/"
                            f"{out['nonedges_separated']}, expected {edges}/{nonedges}")
        if edges and nonedges and (out["witnesses"] or out["first_iteration_violations"]):
            problems.append("witnesses or violations on a separated product")
        return problems

    @staticmethod
    def qut(out: dict) -> list[str]:
        """The expression string and its tree must name the same expression."""
        if out["expr"] != expr_string(out["tree"]):
            return [f"expr {out['expr']} does not match its tree"]
        return []

    @staticmethod
    def sweep(out: dict, max_nx: int, max_ny: int, max_degree: int = 14) -> list[str]:
        pairs = sum(A000088[n] for n in range(1, max_nx + 1)) * sum(
            A000088[n] for n in range(1, max_ny + 1))
        skipped = sum(A000088[a] * A000088[b] for a in range(1, max_nx + 1)
                      for b in range(1, max_ny + 1) if a * b > max_degree)
        if (out["pairs_verified"], out["pairs_skipped_bound"], out["counterexamples"]) != (
                pairs - skipped, skipped, 0):
            return [f"sweep counts {out}, expected {pairs - skipped} verified, "
                    f"{skipped} skipped"]
        return []

    def expected(self, qid: str, out: dict) -> list[str]:
        g = self.graphs
        table = {
            "analyze C7 C6": lambda: self.analyze(out, "c7", "c6", cycle_lex_order(7, 6)),
            "analyze C5 C5": lambda: self.analyze(out, "c5", "c5", cycle_lex_order(5, 5)),
            # C4[3K2] is the join of two 6K2, so Aut = Aut(6K2) wr S2.
            "analyze C4 3K2": lambda: self.analyze(
                out, "c4", "3k2", 2 * (2 ** 6 * math.factorial(6)) ** 2),
            "analyze K13 K14": lambda: self.analyze(out, "k13", "k14"),
            "analyze Petersen K2": lambda: self.analyze(out, "petersen", "k2"),
            "aut Petersen": lambda: self.aut(out, "petersen", 120),
            "aut Paley13": lambda: self.aut(out, "paley13", paley_order(13)),
            "aut Paley17": lambda: self.aut(out, "paley17", paley_order(17)),
            "aut C5": lambda: self.aut(out, "c5", 10),
            "aut K13": lambda: self.aut(out, "k13"),
            "aut 3K2": lambda: self.aut(out, "3k2"),
            "wl Petersen": lambda: self.wl(out, _rank3_key(g["petersen"]), 3),
            "wl Paley13": lambda: self.wl(out, _rank3_key(g["paley13"]), 3),
            "wl Paley17": lambda: self.wl(out, _rank3_key(g["paley17"]), 3),
            "wl C7[C6]": lambda: self.wl(out, *_cycle_product_key(7, 6)),
            "wl C5[C5]": lambda: self.wl(out, *_cycle_product_key(5, 5)),
            "wl C4[3K2]": lambda: self.wl(out, *_c4_3k2_key(g["c4[3k2]"])),
            "verify C7 C6": lambda: self.verify(out, "c7", "c6"),
            "verify C5 C5": lambda: self.verify(out, "c5", "c5"),
            # Condition (i) fails: Aut(C4[3K2]) maps inner non-edges onto
            # outer ones, so no colouring can separate non-edges.
            "verify C4 3K2": lambda: self.verify(out, "c4", "3k2", edges=True, nonedges=False),
            "verify K13 K14": lambda: self.verify(out, "k13", "k14"),
            "sweep 4x3": lambda: self.sweep(out, 4, 3),
        }
        if qid.startswith("qut "):
            return self.qut(out)
        return table[qid]()


def check_queries(payload: dict) -> tuple[list[str], list[str]]:
    checks = QueryChecks(payload["files"])
    problems = []
    for o in payload["outputs"]:
        if o["code"] != 0:
            problems.append(f"{o['id']}: exit code {o['code']}: {o['stderr'][-300:]}")
            continue
        try:
            out = json.loads(o["stdout"])
        except json.JSONDecodeError:
            problems.append(f"{o['id']}: stdout is not JSON")
            continue
        if out.get("schema") != 1:
            problems.append(f"{o['id']}: schema {out.get('schema')}")
            continue
        problems += [f"{o['id']}: {p}" for p in checks.expected(o["id"], out)]
    return problems, []


def check(payload: dict) -> tuple[list[str], list[str]]:
    return {"separation": check_separation, "survey": check_survey,
            "queries": check_queries}[payload["workload"]](payload)
