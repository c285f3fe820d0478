"""Command-line verbs, JSON payloads, and exit codes."""

import json
from itertools import combinations

import pytest

import lexsym.analysis
from conftest import petersen_graph
from lexsym import (Graph, complete_graph, cycle_graph, disjoint_union, empty_graph,
                    lex_product, parse_graph, path_graph,
                    star_graph, write_graph)
from lexsym.cli import run
from lexsym.groups import wreath_order
from lexsym.sweeps import CounterexampleError, sabidussi_sweep
from lexsym.formats import GRAPH6_HEADER


@pytest.fixture
def write_file(tmp_path):
    def _write(name, graph=None, text=None):
        path = tmp_path / name
        path.write_text(write_graph(graph) if graph is not None else text)
        return str(path)
    return _write


def paley_graph(q):
    """Paley graph on Z_q: u ~ v when v - u is a nonzero square mod q."""
    squares = {i * i % q for i in range(1, q)}
    return Graph.from_edges(q, [(u, v) for u, v in combinations(range(q), 2)
                                if (v - u) % q in squares])


def run_json(capsys, argv):
    assert run(argv) == 0
    return json.loads(capsys.readouterr().out)


class TestProduct:
    def test_cycle4_by_k2(self, capsys, write_file):
        x = write_file("c4.g", cycle_graph(4))
        y = write_file("k2.g", complete_graph(2))
        assert run(["product", x, y]) == 0
        out = capsys.readouterr().out
        g = parse_graph(out)
        assert g.n == 8 and g.edge_count() == 20
        assert g == lex_product(cycle_graph(4), complete_graph(2))


class TestWl:
    def test_cycle4(self, capsys, write_file):
        payload = run_json(capsys, ["wl", write_file("c4.g", cycle_graph(4))])
        assert payload["schema"] == 1
        assert payload["rounds"] == 0
        assert payload["classes"] == 3
        assert len(payload["colour"]) == 4
        assert payload["colour"][0][0] == 0


class TestAut:
    def test_cycle4(self, capsys, write_file):
        payload = run_json(capsys, ["aut", write_file("c4.g", cycle_graph(4))])
        assert payload["order"] == 8
        assert payload["orbits"] == [[0, 1, 2, 3]]
        assert payload["orbitals_count"] == 3

    @pytest.mark.parametrize("name, graph, golden", [
        ("petersen", petersen_graph(), '{"schema": 1, "order": 120, "orbits": '
         '[[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]], "orbitals_count": 3}\n'),
        ("paley13", paley_graph(13), '{"schema": 1, "order": 78, "orbits": '
         '[[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]], "orbitals_count": 3}\n'),
        ("empty0", empty_graph(0), '{"schema": 1, "order": 1, "orbits": [], '
         '"orbitals_count": 0}\n'),
    ])
    def test_golden(self, capsys, write_file, name, graph, golden):
        assert run(["aut", write_file(f"{name}.g", graph)]) == 0
        assert capsys.readouterr().out == golden

    def test_bound_exceeded(self, capsys, write_file):
        path = write_file("big.g", empty_graph(15))
        assert run(["aut", path]) == 2
        assert "oracle bound" in capsys.readouterr().err

    def test_bound_exceeded_on_a_large_edge_list(self, capsys, write_file):
        # the graph is checked in time linear in its size, so the bound
        # is reached at once
        path = write_file("large.g", text="200000\n0 199999\n")
        assert run(["aut", path]) == 2
        captured = capsys.readouterr()
        assert "oracle bound" in captured.err
        assert captured.out == ""

    def test_max_degree_flag(self, capsys, write_file):
        path = write_file("c5.g", cycle_graph(5))
        assert run(["--max-degree", "3", "aut", path]) == 2
        capsys.readouterr()
        payload = run_json(capsys, ["--max-degree", "5", "aut", path])
        assert payload["order"] == 10


class TestAnalyze:
    def test_star_pair_json(self, capsys, write_file):
        x = write_file("k13.g", star_graph(3))
        y = write_file("k14.g", star_graph(4))
        payload = run_json(capsys, ["analyze", x, y, "--json"])
        assert payload["verdict"] == "wreath"
        assert payload["quantum_expr"] == (
            "FreeWreath(FreeProd(S+(1),S+(4)),FreeProd(S+(1),S+(3)))")

    @pytest.mark.parametrize("x, y, verdict, classical", [
        (cycle_graph(4), complete_graph(2), "wreath", "Wreath(S(2),Wreath(S(2),S(2)))"),
        (star_graph(3), star_graph(4), "wreath",
         "Wreath(FreeProd(S(1),S(4)),FreeProd(S(1),S(3)))"),
        (cycle_graph(5), complete_graph(2), "wreath", "Wreath(S(2),Aut(#50dfef4d))"),
        (empty_graph(2), empty_graph(2), "decomposed", None),
        (path_graph(3), empty_graph(2), "indeterminate", None),
    ])
    def test_classical_expr_golden(self, capsys, write_file, x, y, verdict, classical):
        # the classical expression is the last key, present only for a wreath verdict
        payload = run_json(capsys, ["analyze", write_file("x.g", x), write_file("y.g", y),
                                    "--json"])
        assert payload["verdict"] == verdict
        assert list(payload)[-1] == ("classical_expr" if classical else "graphs")
        assert payload.get("classical_expr") == classical

    def test_text_output(self, capsys, write_file):
        x = write_file("c4.g", cycle_graph(4))
        y = write_file("k2.g", complete_graph(2))
        assert run(["analyze", x, y]) == 0
        out = capsys.readouterr().out
        assert "verdict: wreath" in out
        assert "aut_order 128 = wreath_order 128" in out

    def test_text_output_past_the_bound(self, capsys, write_file):
        # C5[C5] has 25 vertices, past the default bound of 14
        c5 = write_file("c5.g", cycle_graph(5))
        assert run(["analyze", c5, c5]) == 0
        assert capsys.readouterr().out == (
            "verdict: wreath\n"
            "quantum: FreeWreath(Qut(#50dfef4d),Qut(#50dfef4d))\n"
            "classical: skipped(bound)\n")


class TestDecompose:
    def test_cycle4(self, capsys, write_file):
        payload = run_json(capsys, ["decompose", write_file("c4.g", cycle_graph(4))])
        assert payload["schema"] == 2
        assert payload["kind"] == "co-components"
        assert payload["modules"] == [[0, 2], [1, 3]]
        assert parse_graph(payload["quotient"]["text"]) == complete_graph(2)

    def test_disconnected_reports_components(self, capsys, write_file):
        g, _ = disjoint_union([complete_graph(2), complete_graph(2)])
        payload = run_json(capsys, ["decompose", write_file("m.g", g)])
        assert payload["kind"] == "components"
        assert payload["modules"] == [[0, 1], [2, 3]]
        assert parse_graph(payload["quotient"]["text"]) == empty_graph(2)

    def test_prime_graph(self, capsys, write_file):
        payload = run_json(capsys, ["decompose", write_file("c5.g", cycle_graph(5))])
        assert payload == {"schema": 2, "kind": "none", "modules": [], "quotient": None}


class TestQut:
    def test_three_triangles(self, capsys, write_file):
        g, _ = disjoint_union([complete_graph(3)] * 3)
        payload = run_json(capsys, ["qut", write_file("t.g", g)])
        assert payload["expr"] == "FreeWreath(S+(3),S+(3))"
        assert payload["tree"]["kind"] == "FreeWreath"


class TestVerify:
    def test_separated_pair(self, capsys, write_file):
        x = write_file("c4.g", cycle_graph(4))
        y = write_file("k2.g", complete_graph(2))
        payload = run_json(capsys, ["verify", x, y])
        assert payload["edges_separated"] is True
        assert payload["nonedges_separated"] is True
        assert payload["witnesses"] == []
        assert payload["first_iteration_violations"] == []

    def test_unseparated_pair(self, capsys, write_file):
        x = write_file("e2.g", empty_graph(2))
        payload = run_json(capsys, ["verify", x, x])
        assert payload["nonedges_separated"] is False
        assert len(payload["witnesses"]) > 0

    @pytest.mark.parametrize("x, y, built", [
        (cycle_graph(7), cycle_graph(6), 0),
        (cycle_graph(4), disjoint_union([complete_graph(2)] * 3)[0], 1),
    ], ids=["C7[C6]", "C4[3K2]"])
    def test_product_built_only_when_round_one_does_not_separate(
            self, capsys, write_file, monkeypatch, x, y, built):
        # C7[C6] separates at round 1, so neither check builds the product;
        # C4[3K2] does not, and both checks share one product, one round 1
        # and one set of pair buckets
        calls = []
        for name in ("lex_product", "first_round", "_pair_buckets"):
            f = getattr(lexsym.analysis, name)
            monkeypatch.setattr(lexsym.analysis, name,
                                lambda *a, f=f, name=name: calls.append(name) or f(*a))
        payload = run_json(capsys, ["verify", write_file("x.g", x), write_file("y.g", y)])
        assert calls == built * ["lex_product", "first_round", "_pair_buckets"]
        assert payload["first_iteration_violations"] == []

    def test_empty_factor_is_refused(self, capsys, write_file):
        x = write_file("k0.g", text="0\n")
        y = write_file("k2.g", complete_graph(2))
        for argv in (["verify", x, y], ["verify", y, x]):
            assert run(argv) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error:")
            assert captured.out == ""


class TestSweep:
    def test_tiny_sweep(self, capsys):
        payload = run_json(capsys, ["sweep", "--max-nx", "2", "--max-ny", "2"])
        assert payload["pairs_verified"] == 9
        assert payload["pairs_skipped_bound"] == 0
        assert payload["counterexamples"] == 0

    @pytest.mark.parametrize("argv, verified, skipped", [
        (["sweep", "--max-nx", "4", "--max-ny", "4"], 203, 121),
        (["--max-degree", "12", "sweep", "--max-nx", "5", "--max-ny", "3"], 228, 136),
    ])
    def test_shapes_past_the_bound_are_skipped(self, capsys, argv, verified, skipped):
        payload = run_json(capsys, argv)
        assert payload == {"schema": 1, "pairs_verified": verified,
                           "pairs_skipped_bound": skipped, "counterexamples": 0}

    def test_single_pair(self, capsys):
        payload = run_json(capsys, ["sweep", "--max-nx", "1", "--max-ny", "1"])
        assert payload["pairs_verified"] == 1

    def test_each_factor_order_is_computed_once(self, monkeypatch):
        # one order per product (126) and one per distinct factor (18)
        calls = []
        order = lexsym.analysis.aut_order
        monkeypatch.setattr(lexsym.analysis, "aut_order", lambda g: calls.append(g) or order(g))
        sabidussi_sweep(4, 3)
        assert len(calls) == 144

    def test_counterexample_aborts_with_a_reproducer(self, monkeypatch):
        monkeypatch.setattr("lexsym.analysis.wreath_order", lambda *f: wreath_order(*f) + 1)
        with pytest.raises(CounterexampleError) as err:
            sabidussi_sweep(2, 2)
        k1 = write_graph(empty_graph(1))
        assert f"X:\n{k1}Y:\n{k1}" in str(err.value)

    def test_counterexample_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr("lexsym.analysis.wreath_order", lambda *f: wreath_order(*f) + 1)
        assert run(["sweep", "--max-nx", "2", "--max-ny", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: wreath equivalence violated")
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["sweep", "--max-nx", "-1", "--max-ny", "2"],
        ["sweep", "--max-nx", "2", "--max-ny", "-1"],
        ["--max-degree", "-3", "qut", "g.txt"],
    ])
    def test_negative_bound_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == 1
        captured = capsys.readouterr()
        assert "must be non-negative" in captured.err
        assert captured.out == ""


class TestFormats:
    def test_graph6_flag(self, capsys, write_file):
        path = write_file("c5.g6", text="Dhc\n")
        payload = run_json(capsys, ["--format", "graph6", "aut", path])
        assert payload["order"] == 10

    def test_graph6_header_autodetected(self, capsys, write_file):
        path = write_file("k4.g", text=f"{GRAPH6_HEADER}C~\n")
        payload = run_json(capsys, ["aut", path])
        assert payload["order"] == 24


class TestErrors:
    def test_unknown_verb_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["frobnicate"])
        assert err.value.code == 1

    def test_missing_argument_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["wl"])
        assert err.value.code == 1

    def test_missing_file(self, capsys, tmp_path):
        assert run(["wl", str(tmp_path / "nope.g")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_text(self, capsys, write_file):
        path = write_file("bad.g", text="3\n0 9\n")
        assert run(["wl", path]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_bad_graph6(self, capsys, write_file):
        path = write_file("bad.g6", text="C~~\n")
        assert run(["--format", "graph6", "wl", path]) == 2
        assert "error:" in capsys.readouterr().err

    def test_vertex_count_too_large(self, capsys, write_file):
        path = write_file("huge.g", text="999999999999999999999999999999\n")
        assert run(["aut", path]) == 2
        assert "too large" in capsys.readouterr().err

    def test_vertex_count_past_memory(self, capsys, write_file):
        # the adjacency list of 2 * 10**18 rows is refused before any is made
        path = write_file("huge.g", text=f"{2 * 10**18}\n")
        assert run(["aut", path]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: not enough memory for this input\n"
        assert captured.out == ""

    def test_non_utf8_file(self, capsys, tmp_path):
        # undecodable bytes reach the parser as U+FFFD and are rejected there
        path = tmp_path / "bytes.g"
        path.write_bytes(b"\xff\xfe3\n")
        assert run(["aut", str(path)]) == 2
        assert "line 1: vertex count is not an integer" in capsys.readouterr().err

    def test_graph6_header_without_body(self, capsys, write_file):
        path = write_file("empty.g", text=f"{GRAPH6_HEADER}\n")
        assert run(["aut", path]) == 2
        assert "error:" in capsys.readouterr().err
