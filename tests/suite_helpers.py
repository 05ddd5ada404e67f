"""Shared seeded builders for the test suite (importable by name).

Hoisted out of ``test_evalservice.py`` / ``test_driver.py`` /
``test_store.py``, which each hand-rolled them.  Lives in its own module
(not ``conftest.py``) because ``import conftest`` is ambiguous when the
benchmarks directory — which has its own conftest — is collected in the
same pytest run.  ``tests/conftest.py`` re-exports these as session
fixtures so fixture-style tests (and the fuzz-harness tests) reuse the
exact same builders.
"""

from __future__ import annotations

import functools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.accel import AllocationSpace
from repro.core import Evaluator
from repro.core.serialization import result_to_dict
from repro.cost import CostModel
from repro.train import SurrogateTrainer, default_surrogate
from repro.utils.rng import new_rng


def build_hw_evaluator(workload, *, cost_model=None, rho=10.0,
                       surrogate=None):
    """Evaluator with a surrogate trainer over the workload's spaces.

    Generated workloads carry their own calibrations — pass their
    ``GeneratedScenario.build_surrogate()`` as ``surrogate``; presets
    default to the paper-anchored calibration set.
    """
    if surrogate is None:
        surrogate = default_surrogate([t.space for t in workload.tasks])
    return Evaluator(workload, cost_model or CostModel(),
                     SurrogateTrainer(surrogate), rho=rho)


def sample_design_pairs(workload, allocation=None, n=6, seed=3):
    """``n`` seeded (networks, accelerator) pairs for pricing tests."""
    allocation = allocation or AllocationSpace()
    rng = new_rng(seed)
    pairs = []
    for _ in range(n):
        nets = tuple(t.space.decode(t.space.random_indices(rng))
                     for t in workload.tasks)
        pairs.append((nets, allocation.random_design(rng)))
    return pairs


@functools.lru_cache(maxsize=1)
def priced_w1_designs() -> tuple:
    """Twelve distinct seeded W1 designs priced once per process, as
    ``(content_key, HardwareEvaluation)`` pairs — the values store
    tests append (the store accepts nothing else) under whatever salt
    and digest a test needs."""
    from repro.core.evalservice import design_content
    from repro.workloads import w1

    workload = w1()
    evaluator = build_hw_evaluator(workload)
    designs = tuple((design_content(*pair),
                     evaluator.evaluate_hardware(*pair))
                    for pair in sample_design_pairs(workload, n=12, seed=21))
    assert len({key for key, _ in designs}) == 12, "designs must differ"
    return designs


def normalised_run(result, *, drop_accounting=False):
    """Run record with the wall-clock measurement zeroed.

    ``drop_accounting=True`` additionally strips the cache/pricing
    counters — the store/warm-start tests compare only the facts that
    must not depend on which tier answered.
    """
    result.pricing.miss_seconds = 0.0
    payload = result_to_dict(result)
    if drop_accounting:
        for key in ("cache_hits", "cache_misses", "eval_seconds",
                    "pricing"):
            payload.pop(key)
    return payload


def run_fresh_python(script: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter from the repository root,
    with ``src`` and the root (for ``tests.*`` helpers) importable.

    Cold-import tests need this: in the test process every module is
    already loaded, so what ``import repro.cli`` pulls in cannot be seen.
    """
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)], cwd=root,
        env=env, capture_output=True, text=True, timeout=300)
