"""Search-cost accounting (§V-A: "around 3.5 GPU Hours" per workload).

The paper attributes NASAIC's modest search cost to the optimizer
selector: hardware exploration is orders of magnitude cheaper than
training, runs of the controller whose designs are all infeasible skip
training entirely, and the one training per episode overlaps the next
episode's hardware exploration (the non-blocking scheme of §IV-②).

This harness reconstructs that accounting for a NASAIC run:

- trainings actually executed x the per-training GPU cost (the paper's
  P100 figure is modelled as 25 GPU-seconds amortised per training);
- trainings avoided by early pruning and by the train-once memoisation;
- the hardware-exploration time actually measured here (CPU);
- the resulting end-to-end wall-clock estimate under the paper's
  non-blocking overlap: ``max(GPU time, hardware time)`` plus the
  non-overlapped tail.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.search import NASAIC, NASAICConfig
from repro.utils.tables import format_table
from repro.workloads.workload import Workload

__all__ = ["SearchCostReport", "format_timing", "run_timing"]


@dataclass
class SearchCostReport:
    """Cost accounting of one NASAIC run."""

    workload: Workload
    episodes: int
    trainings_run: int
    trainings_skipped: int
    trainings_memoised: int
    hardware_evaluations: int
    hardware_seconds: float
    simulated_gpu_seconds: float
    best_weighted: float | None

    @property
    def simulated_gpu_hours(self) -> float:
        return self.simulated_gpu_seconds / 3600.0

    @property
    def overlapped_wall_seconds(self) -> float:
        """Wall clock under the paper's non-blocking training scheme."""
        return max(self.simulated_gpu_seconds, self.hardware_seconds)

    @property
    def naive_wall_seconds(self) -> float:
        """Wall clock if every episode trained every task (no pruning,
        no memoisation) and nothing overlapped."""
        per_training = (self.simulated_gpu_seconds
                        / max(1, self.trainings_run))
        total_episodes_cost = (per_training * self.episodes
                               * self.workload.num_tasks)
        return total_episodes_cost + self.hardware_seconds


def run_timing(workload: Workload, *, episodes: int = 500,
               hw_steps: int = 10, seed: int = 77) -> SearchCostReport:
    """Run NASAIC and assemble its cost report."""
    search = NASAIC(workload, config=NASAICConfig(
        episodes=episodes, hw_steps=hw_steps, seed=seed))
    start = time.perf_counter()
    result = search.run()
    hardware_seconds = time.perf_counter() - start
    trained_episodes = sum(1 for e in result.episodes if e.trained)
    memoised = (trained_episodes * workload.num_tasks
                - search.trainer.trainings_run)
    return SearchCostReport(
        workload=workload,
        episodes=episodes,
        trainings_run=search.trainer.trainings_run,
        trainings_skipped=search.trainer.trainings_skipped,
        trainings_memoised=max(0, memoised),
        hardware_evaluations=result.pricing.requests,
        hardware_seconds=hardware_seconds,
        simulated_gpu_seconds=search.trainer.simulated_gpu_seconds,
        best_weighted=(result.best.weighted_accuracy
                       if result.best else None),
    )


def format_timing(report: SearchCostReport) -> str:
    """Render the cost report (paper reference: ~3.5 GPU hours)."""
    rows = [
        ["episodes (beta)", report.episodes],
        ["hardware evaluations", report.hardware_evaluations],
        ["hardware exploration time", f"{report.hardware_seconds:.1f} s"],
        ["trainings executed", report.trainings_run],
        ["trainings skipped (early pruning)", report.trainings_skipped],
        ["trainings saved by memoisation", report.trainings_memoised],
        ["simulated GPU time",
         f"{report.simulated_gpu_hours:.2f} GPU-hours"],
        ["wall clock (non-blocking overlap)",
         f"{report.overlapped_wall_seconds / 3600.0:.2f} h"],
        ["wall clock without pruning/overlap",
         f"{report.naive_wall_seconds / 3600.0:.2f} h"],
        ["best weighted accuracy",
         f"{report.best_weighted:.4f}" if report.best_weighted else "-"],
    ]
    return format_table(
        ["quantity", "value"], rows,
        title=f"Search cost [{report.workload.name}] "
              "(paper: ~3.5 GPU-hours/workload on a P100)")
