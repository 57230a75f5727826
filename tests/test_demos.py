"""Demos that exercise the public API end to end, run as scripts."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _run_demo(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    return capsys.readouterr().out.splitlines()


def test_capture_workflow_demo_labels_gsm(capsys):
    assert "label: gsm" in _run_demo("05_capture_workflow.py", capsys)


@pytest.mark.parametrize("name", ["01_spectral_lines.py", "02_classify_walkthrough.py"])
def test_walkthrough_demos_run(name, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # demo 01 writes spectrum_<standard>.csv here
    lines = _run_demo(name, capsys)
    if name.startswith("01"):
        # One k=1 line per standard, after each standard's heading.
        headings = [i for i, line in enumerate(lines) if line.startswith(("GSM:", "LTE:"))]
        assert [lines[i][:3] for i in headings] == ["GSM", "LTE"]
        assert all(lines[i + 1].lstrip().startswith("k=1:") for i in headings)
    else:
        assert "  label: gsm" in lines
