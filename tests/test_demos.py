"""Demos that exercise the public API end to end, run as scripts."""

import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_capture_workflow_demo_labels_gsm(capsys):
    runpy.run_path(str(DEMOS / "05_capture_workflow.py"), run_name="__main__")
    assert "label: gsm" in capsys.readouterr().out.splitlines()
