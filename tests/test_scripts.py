"""The survey script tallies verdicts over small census pairs; the
benchmark-pair script summarises runs."""

import importlib.util
import json
from pathlib import Path

import pytest

import lexsym.analysis

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_survey():
    return load_script("survey_verdicts")


VERDICTS = """verdicts:
  decomposed           24
  indeterminate        30
  wreath               72
"""


class TestSurvey:
    def test_default_tally(self, capsys):
        assert load_survey().main([]) == 0
        assert capsys.readouterr().out == VERDICTS

    def test_shapes_past_the_bound_are_skipped(self, capsys):
        argv = ["--max-nx", "5", "--max-ny", "4", "--max-product", "12"]
        assert load_survey().main(argv) == 0
        assert capsys.readouterr().out == ("verdicts:\n"
                                           "  decomposed           46\n"
                                           "  indeterminate        74\n"
                                           "  skipped(bound)       631\n"
                                           "  wreath               185\n")

    def test_separation_tally(self, capsys):
        assert load_survey().main(["--check-separation"]) == 0
        assert capsys.readouterr().out == VERDICTS + (
            "separation when conditions fail:\n"
            "  mixed                54\n")

    def test_each_factor_order_is_computed_once(self, capsys, monkeypatch):
        # the default tally's 126 products and 18 distinct factors
        calls = []
        order = lexsym.analysis.aut_order
        monkeypatch.setattr(lexsym.analysis, "aut_order", lambda g: calls.append(g) or order(g))
        assert load_survey().main([]) == 0
        assert capsys.readouterr().out == VERDICTS
        assert len(calls) == 144

    @pytest.mark.parametrize("argv", [
        ["--max-nx", "-1"],
        ["--max-ny", "-1"],
        ["--max-product", "-5", "--max-nx", "2", "--max-ny", "2"],
    ])
    def test_negative_bound_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            load_survey().main(argv)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be non-negative" in captured.err


def bench_run(failed=0, **metrics):
    """One `bench/run.py` result line for a single workload `w`."""
    return {"w": {"failed": failed, "correct": not failed,
                  "metrics": {name: {"value": value, "unit": "u"}
                              for name, value in metrics.items()}}}


class TestBenchPairs:
    def test_quartiles_of_one_value(self):
        assert load_script("bench_pairs").quartiles([2.5]) == {
            "median": 2.5, "q1": 2.5, "q3": 2.5}

    def test_quartiles_of_several_values(self):
        assert load_script("bench_pairs").quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == {
            "median": 3.0, "q1": 2.0, "q3": 4.0}

    def test_change_better_pairs_follow_the_direction(self):
        runs = {"parent": [bench_run(up=1.0, down=1.0), bench_run(up=2.0, down=2.0),
                           bench_run(up=3.0, down=3.0)],
                "change": [bench_run(up=2.0, down=2.0), bench_run(up=1.0, down=1.0),
                           bench_run(up=4.0, down=3.0)]}
        metrics = load_script("bench_pairs").summarise(
            runs, {"up": "higher", "down": "lower"})["w"]["metrics"]
        # a tie counts for neither side
        assert metrics["up"]["change_better_pairs"] == 2
        assert metrics["down"]["change_better_pairs"] == 1
        assert metrics["up"]["better"] == "higher"
        assert metrics["down"]["ratio_of_medians"] == 1.0

    def test_ratio_of_medians_with_zero_parent_median(self):
        runs = {"parent": [bench_run(failed=0, m=0.0), bench_run(failed=0, m=0.0)],
                "change": [bench_run(failed=1, m=1.0), bench_run(failed=0, m=1.0)]}
        entry = load_script("bench_pairs").summarise(runs, {"m": "lower"})["w"]
        assert entry["metrics"]["m"]["ratio_of_medians"] is None
        assert entry["metrics"]["m"]["change_better_pairs"] == 0
        assert entry["failed"] == {"parent": [0, 0], "change": [1, 0]}
        assert entry["correct"] == {"parent": True, "change": False}

    def test_neither_side_runs_in_the_working_tree(self, monkeypatch, tmp_path):
        # main runs each side in its own extraction of its revision, and
        # still reports uncommitted edits of the working tree
        bench_pairs = load_script("bench_pairs")
        working_tree = bench_pairs.ROOT
        answers = {"rev-parse": {"parent-rev^{commit}": b"parent-sha\n", "HEAD": b"head-sha\n"},
                   "status": b" M src/lexsym/groups.py\n"}
        extracted, ran = {}, []

        def git(command, *args):
            answer = answers[command]
            return answer[args[-1]] if command == "rev-parse" else answer

        def run_bench(tree, seed, seconds):
            ran.append(tree)
            return bench_run(m=1.0)

        (tmp_path / "BENCHMARK.json").write_text(
            '{"run_seconds": 1, "end_to_end": [{"name": "m", "better": "lower"}]}')
        monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
        monkeypatch.setattr(bench_pairs, "git", git)
        monkeypatch.setattr(bench_pairs, "extract", lambda rev, dest: extracted.update({dest: rev}))
        monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
        assert bench_pairs.main(["--parent", "parent-rev", "--number", "t", "--seeds", "2"]) == 0
        assert sorted(extracted.values()) == ["head-sha", "parent-sha"]
        assert len(ran) == 4 and set(ran) == set(extracted)
        assert all(Path(tree).resolve() != working_tree for tree in ran)
        report = json.loads((tmp_path / "BENCH_t.json").read_text())
        assert report["parent"] == "parent-sha"
        assert report["change"] == {"head": "head-sha", "uncommitted_changes": True}

    def test_metrics_without_a_direction_are_not_compared(self):
        runs = {"parent": [bench_run(m=1.0)], "change": [bench_run(m=2.0)]}
        row = load_script("bench_pairs").summarise(runs, {})["w"]["metrics"]["m"]
        assert "change_better_pairs" not in row and "ratio_of_medians" not in row
        assert row["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.0, "values": [1.0]}
