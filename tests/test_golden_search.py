"""Golden regression test: a tiny fixed-seed NASAIC run, snapshotted.

Evaluator/cache/scheduler refactors must not silently change search
behaviour.  This test replays a small W1 run with every knob pinned and
compares the per-episode reward stream, the exploration accounting and
the best design's content digest against a JSON fixture.

Regenerating the fixture (only after an *intentional* behaviour change):

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_golden_search.py -q

Fixture history: regenerated once when the lockstep controller began
reducing each step's weight gradients with one BLAS product over the
batch's rows instead of per-sample rank-1 sums.  The gradients agree to
~2e-15 relative, but RMSProp amplifies near-zero gradients whose sign
flips: on this config the largest parameter difference grew from 4e-13
to 4e-9, 1e-6 and 0.02 over episodes 1-4, and the sampled actions
diverged from episode 5 on.  Sampling itself (and the generator stream)
stayed bit-identical.

Seeding contract: the run below derives all randomness from the single
``seed`` in its config (see :mod:`repro.utils.rng`); rewards are
compared at 1e-9 so last-ulp libm differences across platforms cannot
flake the test, while any real behavioural drift (different samples,
different cache semantics, different HAP moves) shifts rewards by far
more than that — or changes the discrete digests, which compare exactly.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.core import NASAIC, NASAICConfig
from repro.core.evalservice import design_digest
from repro.workloads import w1

FIXTURE = Path(__file__).parent / "golden" / "golden_search.json"

#: Pinned run configuration — change it only together with the fixture.
GOLDEN_CONFIG = dict(episodes=6, hw_steps=3, seed=123, joint_batch=2)


def run_golden() -> dict:
    """Execute the pinned run and flatten it into JSON-safe primitives."""
    search = NASAIC(w1(), config=NASAICConfig(**GOLDEN_CONFIG))
    result = search.run()
    best = result.best
    return {
        "config": GOLDEN_CONFIG,
        "episode_rewards": [e.reward for e in result.episodes],
        "episode_penalties": [e.penalty for e in result.episodes],
        "episodes_trained": [e.trained for e in result.episodes],
        "hardware_evaluations": result.pricing.requests,
        "cache_misses": result.pricing.misses,
        "trainings_run": result.trainings_run,
        "trainings_skipped": result.trainings_skipped,
        "num_explored": len(result.explored),
        "best_digest": (design_digest(best.networks, best.accelerator)
                        if best else None),
        "best_genotypes": ([list(g) for g in best.genotypes]
                           if best else None),
        "best_design": (best.accelerator.describe() if best else None),
        "explored_digests": [
            design_digest(s.networks, s.accelerator)
            for s in result.explored],
    }


def test_golden_search_matches_fixture():
    got = run_golden()
    if os.environ.get("REPRO_REGEN_GOLDEN") == "1":
        FIXTURE.parent.mkdir(exist_ok=True)
        FIXTURE.write_text(json.dumps(got, indent=2) + "\n",
                           encoding="utf-8")
        pytest.skip(f"fixture regenerated at {FIXTURE}")
    assert FIXTURE.exists(), (
        f"golden fixture missing; regenerate with REPRO_REGEN_GOLDEN=1 "
        f"({FIXTURE})")
    want = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert got["config"] == want["config"], "config drifted from fixture"
    # Float streams: tolerant to last-ulp platform noise only.
    assert got["episode_rewards"] == pytest.approx(
        want["episode_rewards"], abs=1e-9)
    assert got["episode_penalties"] == pytest.approx(
        want["episode_penalties"], abs=1e-9)
    # Everything discrete compares exactly.
    for key in ("episodes_trained", "hardware_evaluations", "cache_misses",
                "trainings_run", "trainings_skipped", "num_explored",
                "best_digest", "best_genotypes", "best_design",
                "explored_digests"):
        assert got[key] == want[key], key


def test_golden_run_is_self_deterministic():
    """Two in-process replays agree exactly — the cheaper half of the
    cross-platform stability contract, and the one that catches forgotten
    seeds immediately."""
    assert run_golden() == run_golden()
