"""Smoke tests: every example script runs end-to-end at tiny scale."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(monkeypatch, capsys, script: str, argv: list[str]):
    monkeypatch.setattr(sys, "argv", [script] + argv)
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    return capsys.readouterr().out


def test_quickstart(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "quickstart.py", ["8"])
    assert "workload W3" in out
    assert "best solution in detail" in out or "no feasible" in out


def test_ar_glasses(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "ar_glasses_multitask.py",
                      ["8"])
    assert "dataflow affinity" in out
    assert "prefers" in out


def test_design_space_sweep(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "design_space_sweep.py", ["40"])
    assert "Fig. 1" in out
    assert "cloud points" in out


def test_hetero_vs_homo(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys,
                      "heterogeneous_vs_homogeneous.py", ["12"])
    assert "Table II" in out
    assert "accuracy ladder" in out


def test_custom_workload(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "custom_workload.py", [])
    assert "dual-segmentation" in out


def test_mapping_deep_dive(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "mapping_deep_dive.py", [])
    assert "HAP heuristic" in out
    assert "schedule (HAP heuristic):" in out


def test_surrogate_landscape(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "surrogate_landscape.py", [])
    assert "paper anchors vs surrogate" in out
    assert "94.1" in out  # NAS-best anchor reproduction


@pytest.mark.parametrize("script", [
    p.name for p in sorted(EXAMPLES.glob("*.py"))])
def test_example_has_docstring_and_main(script):
    text = (EXAMPLES / script).read_text(encoding="utf-8")
    assert text.lstrip().startswith(('#!/usr/bin/env python\n"""', '"""'))
    assert 'if __name__ == "__main__":' in text


def test_campaign_sweep(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "campaign_sweep.py", ["3"])
    assert "cross-scenario reuse" in out
    assert "consolidated campaign JSON" in out


def test_warm_start(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "warm_start.py", [])
    assert "cold session" in out
    assert "warm session" in out
    # The warm session recomputes nothing.
    assert "0 computed" in out
