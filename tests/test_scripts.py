"""The survey script tallies verdicts over small census pairs."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "survey_verdicts.py"


def load_survey():
    spec = importlib.util.spec_from_file_location("survey_verdicts", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


VERDICTS = """verdicts:
  decomposed           24
  indeterminate        30
  wreath               72
"""


class TestSurvey:
    def test_default_tally(self, capsys):
        assert load_survey().main([]) == 0
        assert capsys.readouterr().out == VERDICTS

    def test_separation_tally(self, capsys):
        assert load_survey().main(["--check-separation"]) == 0
        assert capsys.readouterr().out == VERDICTS + (
            "separation when conditions fail:\n"
            "  mixed                54\n")
