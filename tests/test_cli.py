"""Command-line verbs, JSON payloads, and exit codes."""

import json

import pytest

from lexsym import (complete_graph, cycle_graph, disjoint_union, empty_graph,
                    encode_graph6, lex_product, parse_graph, star_graph,
                    write_graph)
from lexsym.cli import run
from lexsym.formats import GRAPH6_HEADER


@pytest.fixture
def write_file(tmp_path):
    def _write(name, graph=None, text=None):
        path = tmp_path / name
        path.write_text(write_graph(graph) if graph is not None else text)
        return str(path)
    return _write


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

    def test_bound_exceeded(self, capsys, write_file):
        path = write_file("big.g", empty_graph(15))
        assert run(["aut", path]) == 2
        assert "oracle bound" in capsys.readouterr().err

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

    def test_text_output(self, capsys, write_file):
        x = write_file("c4.g", cycle_graph(4))
        y = write_file("k2.g", complete_graph(2))
        assert run(["analyze", x, y]) == 0
        out = capsys.readouterr().out
        assert "verdict: wreath" in out
        assert "aut_order 128 = wreath_order 128" in out


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


class TestSweep:
    def test_tiny_sweep(self, capsys):
        payload = run_json(capsys, ["sweep", "--max-nx", "2", "--max-ny", "2"])
        assert payload["pairs_verified"] == 9
        assert payload["pairs_skipped_bound"] == 0
        assert payload["counterexamples"] == 0

    def test_single_pair(self, capsys):
        payload = run_json(capsys, ["sweep", "--max-nx", "1", "--max-ny", "1"])
        assert payload["pairs_verified"] == 1

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
        path = write_file("c5.g6", text=encode_graph6(cycle_graph(5)) + "\n")
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
