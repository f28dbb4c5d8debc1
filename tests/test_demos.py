"""Each demo script runs to the end and prints what it promises."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
REPORT_KEYS = ["Raw Hits@10", "Filtered Hits@100", "Raw Mean Rank", "Filtered AUC", "Queries"]


@pytest.mark.parametrize(
    "script, expected",
    [
        ("family_domain.py", ["Geometric check at tolerance 0.1", "class\tx\ty\tr"]),
        ("normal_forms_tour.py", ["input:", "output:", "rejected:"]),
        ("synthetic_interactions.py", REPORT_KEYS + ["Resnik best-match-average baseline"]),
    ],
)
def test_demo_runs(script, expected, capsys):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    out = capsys.readouterr().out
    missing = [text for text in expected if text not in out]
    assert not missing, f"{script} did not print {missing}"
