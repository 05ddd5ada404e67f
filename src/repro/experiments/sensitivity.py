"""Sensitivity analysis over NASAIC's own hyperparameters.

NASAIC has three design choices of its own — the penalty weight
``rho`` (Eq. 4), the hardware-exploration depth ``phi`` (§IV-②) and the
episode budget ``beta`` — and this harness quantifies how the search
outcome responds to each, holding everything else fixed.  Expected
shapes:

- ``rho``: too small and violating solutions outscore feasible ones
  (the reward no longer enforces the specs); large values all behave
  similarly since any violation already dominates the accuracy term.
- ``phi``: more hardware steps per episode find feasible designs for
  more sampled architectures (fewer prunings), at linear hardware cost.
- ``beta``: quality is non-decreasing in episodes with diminishing
  returns.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.search import NASAIC, NASAICConfig
from repro.utils.tables import format_table
from repro.workloads.workload import Workload

__all__ = ["SensitivityPoint", "format_sensitivity", "run_sensitivity"]


@dataclass(frozen=True)
class SensitivityPoint:
    """Outcome of one configuration in a sweep."""

    parameter: str
    value: float
    best_weighted: float | None
    feasible_solutions: int
    trainings_run: int
    trainings_skipped: int


def _run_point(workload: Workload, parameter: str, value,
               base: NASAICConfig) -> SensitivityPoint:
    config = NASAICConfig(
        episodes=int(value) if parameter == "beta" else base.episodes,
        hw_steps=int(value) if parameter == "phi" else base.hw_steps,
        rho=float(value) if parameter == "rho" else base.rho,
        seed=base.seed,
        joint_batch=base.joint_batch,
        controller=base.controller,
        reinforce=base.reinforce,
    )
    result = NASAIC(workload, config=config).run()
    return SensitivityPoint(
        parameter=parameter,
        value=float(value),
        best_weighted=(result.best.weighted_accuracy
                       if result.best else None),
        feasible_solutions=len(result.feasible_solutions),
        trainings_run=result.trainings_run,
        trainings_skipped=result.trainings_skipped,
    )


def run_sensitivity(
    workload: Workload,
    *,
    episodes: int = 150,
    seed: int = 79,
    rho_values: tuple[float, ...] = (0.5, 2.0, 10.0, 50.0),
    phi_values: tuple[int, ...] = (0, 2, 10),
    beta_values: tuple[int, ...] = (50, 150, 300),
) -> list[SensitivityPoint]:
    """Sweep rho, phi and beta one at a time around a base config."""
    base = NASAICConfig(episodes=episodes, hw_steps=10, seed=seed)
    points = []
    for rho in rho_values:
        points.append(_run_point(workload, "rho", rho, base))
    for phi in phi_values:
        points.append(_run_point(workload, "phi", phi, base))
    for beta in beta_values:
        points.append(_run_point(workload, "beta", beta, base))
    return points


def format_sensitivity(points: list[SensitivityPoint],
                       workload_name: str) -> str:
    """Render the sweep as one table."""
    rows = []
    for p in points:
        rows.append([
            p.parameter, f"{p.value:g}",
            f"{p.best_weighted:.4f}" if p.best_weighted else "none",
            p.feasible_solutions, p.trainings_run, p.trainings_skipped])
    return format_table(
        ["parameter", "value", "best weighted acc", "feasible",
         "trainings", "pruned"],
        rows, title=f"Sensitivity sweep [{workload_name}]")
