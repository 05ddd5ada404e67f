"""Shared infrastructure for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures, writes the
rendered report to ``benchmarks/results/<name>.txt`` (so the output
survives pytest's capture) and records wall-clock via pytest-benchmark.

Scale: by default the searches run at a reduced-but-meaningful scale so
the whole suite finishes in minutes; set ``REPRO_BENCH_FULL=1`` for the
paper's full scale (beta=500 episodes, 10,000 Monte-Carlo runs).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

FULL_SCALE = os.environ.get("REPRO_BENCH_FULL", "") == "1"

#: Search scale used across benchmarks.
SCALE = {
    "episodes": 500 if FULL_SCALE else 200,
    "nas_episodes": 300 if FULL_SCALE else 200,
    "mc_runs": 10_000 if FULL_SCALE else 1_500,
    "design_sweep": 2_000 if FULL_SCALE else 400,
    "hw_steps": 10,
}


@pytest.fixture(scope="session", autouse=True)
def _results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_report(name: str, text: str) -> None:
    """Persist a rendered report and echo it for ``pytest -s`` runs."""
    from repro.core.serialization import durable_replace

    path = RESULTS_DIR / f"{name}.txt"
    durable_replace(path, (text + "\n").encode("utf-8"))
    print(f"\n[report written to {path}]\n{text}")


def write_json(name: str, payload: dict, *, quick: bool = False) -> None:
    """Persist a machine-readable benchmark record.

    Perf benchmarks write ``benchmarks/results/BENCH_<name>.json`` so the
    speedup trajectory (and the counters behind it) can be diffed across
    PRs; the schema is whatever the benchmark's ``report`` dict contains
    — see the module docstrings of ``bench_hap.py`` and
    ``bench_evalservice.py`` for their fields.  A ``--quick`` smoke run
    (``quick=True``) writes nothing: its reduced-size numbers are not
    the committed record, and running the CI smoke steps must leave the
    working tree clean.
    """
    import json

    from repro.core.serialization import durable_replace

    path = RESULTS_DIR / f"BENCH_{name}.json"
    if quick:
        print(f"[quick run: {path} left as committed]")
        return
    blob = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    durable_replace(path, blob.encode("utf-8"))
    print(f"[json written to {path}]")


def run_once(benchmark, fn):
    """Run an expensive experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
