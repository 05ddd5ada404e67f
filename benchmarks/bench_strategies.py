"""Strategy zoo benchmark: sample efficiency + store warm starts.

The surrogate-guided strategies (PR 9) are only worth their model-fit
cost if they need *fewer hardware evaluations* than blind sampling to
reach the same design quality.  This benchmark gates exactly that, on
the incumbent metric both families share — best feasible weighted
normalised accuracy over the explored trajectory:

- **Sample efficiency.**  A random-search baseline (the ``mc``
  strategy) runs ``N`` evaluations; ``bayesopt`` and ``ensemble`` get
  a budget of ``N/2`` evaluations and must still reach the baseline's
  final incumbent (best of 3 seeds, so one unlucky model fit does not
  flake the gate).
- **Warm start.**  The baseline's evaluations land in an
  :class:`~repro.core.store.EvalStore`; a store-warmed ``bayesopt``
  run must then improve on the cold run — reach the cold run's final
  incumbent in fewer evaluations, or end at a strictly better one
  (best of 3 seeds).  This is the Apollo-style transfer result: prior
  campaigns are training data, not just a cache.

Machine-readable record: ``benchmarks/results/BENCH_strategies.json``
with per-strategy evaluation counts, incumbents and gate verdicts.

Run standalone (CI smoke uses ``--quick``)::

    PYTHONPATH=src:. python benchmarks/bench_strategies.py [--quick]

or through pytest (``pytest benchmarks/bench_strategies.py``).
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

from repro.accel import AllocationSpace
from repro.core import EvalService, EvalStore, Evaluator
from repro.core.baselines import _MonteCarloStrategy
from repro.core.driver import SearchDriver
from repro.core.strategies import (
    BayesOptConfig,
    BayesOptSearch,
    EnsembleConfig,
    EnsembleSearch,
)
from repro.cost import CostModel
from repro.train import SurrogateTrainer, default_surrogate
from repro.workloads import w1

RANDOM_EVALS, RANDOM_QUICK = 240, 160
BATCH = 4
CANDIDATES = 160  # surrogate scoring pool per round
EFFICIENCY_RATIO = 0.5  # model budget as a fraction of random's
ATTEMPTS = 3
SEED = 31


def incumbent_trajectory(result) -> list[float]:
    """Best feasible weighted accuracy after each evaluation."""
    best = float("-inf")
    trajectory = []
    for solution in result.explored:
        if solution.feasible and solution.weighted_accuracy > best:
            best = solution.weighted_accuracy
        trajectory.append(best)
    return trajectory


def first_reach(trajectory: list[float], target: float) -> int | None:
    """1-based evaluation index where the incumbent reaches ``target``."""
    for i, value in enumerate(trajectory):
        if value >= target:
            return i + 1
    return None


def run_random(evals: int, seed: int, store: EvalStore | None = None):
    """The blind-sampling baseline (and, with ``store``, the seeder
    for the warm-start gate)."""
    workload = w1()
    surrogate = default_surrogate([t.space for t in workload.tasks])
    evaluator = Evaluator(workload, CostModel(),
                          SurrogateTrainer(surrogate))
    strategy = _MonteCarloStrategy(workload, AllocationSpace(), evaluator,
                                   runs=evals, seed=seed, chunk=BATCH)
    with EvalService(evaluator, store=store) as service:
        started = time.perf_counter()
        result = SearchDriver(strategy, service).run()
        elapsed = time.perf_counter() - started
    return result, elapsed


def run_model(cls, config_cls, rounds: int, seed: int,
              warm_path: Path | None = None):
    """One surrogate-guided run, optionally warm-trained from a store."""
    kwargs = {}
    if warm_path is not None:
        kwargs["warm_store"] = EvalStore(warm_path, read_only=True)
    config = config_cls(rounds=rounds, batch=BATCH,
                        candidates=CANDIDATES,
                        seed=seed, calibrate_bounds=False)
    search = cls(w1(), config=config, **kwargs)
    if warm_path is not None:
        kwargs["warm_store"].close()
        assert search.warm_samples > 0, "store seeded nothing"
    started = time.perf_counter()
    result = search.run()
    elapsed = time.perf_counter() - started
    search.close()
    return result, elapsed


def efficiency_gate(name: str, cls, config_cls, target: float,
                    random_evals: int) -> dict:
    """Best of ``ATTEMPTS`` seeds: reach ``target`` in <= half the
    random baseline's evaluations."""
    budget = int(random_evals * EFFICIENCY_RATIO)
    rounds = budget // BATCH
    best: dict | None = None
    for attempt in range(1, ATTEMPTS + 1):
        result, elapsed = run_model(cls, config_cls, rounds,
                                    SEED + 7 * attempt)
        trajectory = incumbent_trajectory(result)
        reached = first_reach(trajectory, target)
        record = {
            "evals": len(trajectory),
            "budget": budget,
            "reached_at": reached,
            "incumbent": (max(trajectory) if trajectory else None),
            "seconds": elapsed,
        }
        def rank(r):  # fewer evaluations to target is better
            return r["reached_at"] if r["reached_at"] is not None \
                else float("inf")
        if best is None or rank(record) < rank(best):
            best = record
        if best["reached_at"] is not None:
            break
    best["attempts"] = attempt
    best["passed"] = best["reached_at"] is not None
    best["strategy"] = name
    return best


def warm_gate(store_path: Path, rounds: int) -> dict:
    """Best of ``ATTEMPTS`` seeds: the store-warmed run reaches the
    cold run's final incumbent in fewer evaluations, or beats it."""
    best: dict | None = None
    for attempt in range(1, ATTEMPTS + 1):
        seed = SEED + 11 * attempt
        cold_result, cold_s = run_model(BayesOptSearch, BayesOptConfig,
                                        rounds, seed)
        warm_result, warm_s = run_model(BayesOptSearch, BayesOptConfig,
                                        rounds, seed,
                                        warm_path=store_path)
        cold_traj = incumbent_trajectory(cold_result)
        warm_traj = incumbent_trajectory(warm_result)
        cold_final = max(cold_traj) if cold_traj else float("-inf")
        warm_final = max(warm_traj) if warm_traj else float("-inf")
        cold_at = first_reach(cold_traj, cold_final)
        warm_at = first_reach(warm_traj, cold_final)
        improved = ((warm_at is not None
                     and (cold_at is None or warm_at < cold_at))
                    or warm_final > cold_final)
        record = {
            "cold_incumbent": cold_final,
            "warm_incumbent": warm_final,
            "cold_reached_at": cold_at,
            "warm_reached_at": warm_at,
            "cold_seconds": cold_s,
            "warm_seconds": warm_s,
            "passed": improved,
        }
        if best is None or (improved and not best["passed"]):
            best = record
        if best["passed"]:
            break
    best["attempts"] = attempt
    return best


def run_benchmark(quick: bool = False) -> dict:
    random_evals = RANDOM_QUICK if quick else RANDOM_EVALS
    with tempfile.TemporaryDirectory() as workdir:
        store_path = Path(workdir) / "seed.store"
        with EvalStore(store_path) as store:
            random_result, random_s = run_random(random_evals, SEED,
                                                 store)
        random_traj = incumbent_trajectory(random_result)
        assert random_traj and random_traj[-1] > float("-inf"), \
            "random baseline found no feasible design"
        target = random_traj[-1]
        report = {
            "random": {
                "evals": len(random_traj),
                "incumbent": target,
                "seconds": random_s,
            },
            "bayesopt": efficiency_gate(
                "bayesopt", BayesOptSearch, BayesOptConfig, target,
                random_evals),
            "ensemble": efficiency_gate(
                "ensemble", EnsembleSearch, EnsembleConfig, target,
                random_evals),
            "warm": warm_gate(
                store_path,
                rounds=int(random_evals * EFFICIENCY_RATIO) // BATCH),
        }
    report["passed"] = (report["bayesopt"]["passed"]
                        and report["ensemble"]["passed"]
                        and report["warm"]["passed"])
    return report


def render(report: dict) -> str:
    random = report["random"]
    lines = [
        "Strategy zoo sample efficiency (incumbent = best feasible "
        "weighted accuracy)",
        f"random baseline: incumbent {random['incumbent']:.4f} after "
        f"{random['evals']} evaluations ({random['seconds']:.1f} s)",
    ]
    for name in ("bayesopt", "ensemble"):
        r = report[name]
        reached = (f"evaluation {r['reached_at']}"
                   if r["reached_at"] is not None else "never")
        verdict = "ok" if r["passed"] else "FAIL"
        lines.append(
            f"{name}: reached the random incumbent at {reached} "
            f"(budget {r['budget']} = {EFFICIENCY_RATIO:.0%} of random; "
            f"best of {r['attempts']}) [{verdict}]")
    w = report["warm"]
    warm_at = (str(w["warm_reached_at"])
               if w["warm_reached_at"] is not None else "never")
    cold_at = (str(w["cold_reached_at"])
               if w["cold_reached_at"] is not None else "never")
    verdict = "ok" if w["passed"] else "FAIL"
    lines.append(
        f"warm start (bayesopt): cold incumbent "
        f"{w['cold_incumbent']:.4f} at evaluation {cold_at}; warm "
        f"reached it at {warm_at}, warm incumbent "
        f"{w['warm_incumbent']:.4f} (best of {w['attempts']}) "
        f"[{verdict}]")
    return "\n".join(lines)


def test_strategy_sample_efficiency(benchmark=None):
    """Acceptance: model-based strategies reach the random-search
    incumbent in <= 0.5x evaluations; store-warmed bayesopt improves
    on cold time-to-incumbent."""
    if benchmark is not None:
        from benchmarks.conftest import run_once, write_json, write_report

        report = run_once(benchmark, lambda: run_benchmark(quick=True))
        write_report("bench_strategies", render(report))
        write_json("strategies", report)
    else:
        report = run_benchmark(quick=True)
    assert report["passed"], render(report)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small run for CI smoke tests")
    args = parser.parse_args(argv)
    report = run_benchmark(quick=args.quick)
    print(render(report))
    try:
        from benchmarks.conftest import write_json

        write_json("strategies", report, quick=args.quick)
    except ImportError:  # pragma: no cover - repo root not on sys.path
        pass
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
