"""The survey script tallies verdicts over small census pairs; the
benchmark-pair script summarises runs."""

import importlib.util
from pathlib import Path

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

    def test_metrics_without_a_direction_are_not_compared(self):
        runs = {"parent": [bench_run(m=1.0)], "change": [bench_run(m=2.0)]}
        row = load_script("bench_pairs").summarise(runs, {})["w"]["metrics"]["m"]
        assert "change_better_pairs" not in row and "ratio_of_medians" not in row
        assert row["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.0, "values": [1.0]}
