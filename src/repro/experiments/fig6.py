"""Fig. 6 — NASAIC design-space exploration on W1/W2/W3.

For each workload the figure shows, in (latency, energy, area) space:

- the **design specs** (black diamond, upper bound),
- every solution **explored by NASAIC** (green diamonds) — all of them
  meet the specs by construction of the reward,
- **lower bounds** (blue crosses): the smallest architecture in each
  search space combined with swept ASIC designs, annotated with the
  smallest networks' accuracies (78.93% CIFAR-10, 71.57% STL-10,
  0.6462 IOU), and
- the **best solution** (red star) with its accuracies.

Shape checks reproduced here: every NASAIC-explored solution is
feasible; the best solution's accuracy is far above the lower bounds;
and the best solution sits close to at least one spec boundary for W1
(energy) — the paper's "accuracy is bounded by resources" observation.

The NASAIC run executes as a one-scenario
:class:`~repro.core.campaign.Campaign` and the panel consumes its
consolidated outcome; the campaign's cost model is the one the
lower-bound sweep prices with, so the whole panel runs through the one
orchestration path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.accel.allocation import AllocationSpace
from repro.core.baselines import monte_carlo_designs
from repro.core.campaign import (
    Campaign,
    CampaignConfig,
    CampaignResult,
    Scenario,
)
from repro.core.evaluator import HardwareEvaluation
from repro.core.results import ExploredSolution
from repro.core.search import NASAICConfig
from repro.cost.model import CostModel
from repro.train.surrogate import default_surrogate
from repro.utils.tables import format_table
from repro.workloads.workload import Workload

__all__ = ["Fig6Result", "format_fig6", "run_fig6"]


@dataclass
class Fig6Result:
    """One panel of Fig. 6."""

    workload: Workload
    explored: list[ExploredSolution]
    lower_bounds: list[HardwareEvaluation]
    lower_bound_accuracies: tuple[float, ...]
    best: ExploredSolution | None
    trainings_run: int
    trainings_skipped: int
    #: Consolidated campaign record of the NASAIC run (cache/pricing
    #: accounting, campaign JSON via ``campaign_to_dict``).
    campaign: CampaignResult | None = None

    @property
    def all_explored_feasible(self) -> bool:
        return all(s.feasible for s in self.explored)

    def spec_utilisation(self) -> tuple[float, float, float]:
        """Best solution's (latency, energy, area) as fractions of the
        specs — the paper quotes e.g. 97.12% energy utilisation for W1."""
        if self.best is None:
            raise ValueError("no feasible solution to report")
        specs = self.workload.specs
        return (self.best.latency_cycles / specs.latency_cycles,
                self.best.energy_nj / specs.energy_nj,
                self.best.area_um2 / specs.area_um2)


def run_fig6(
    workload: Workload,
    *,
    episodes: int = 500,
    hw_steps: int = 10,
    lower_bound_designs: int = 200,
    seed: int = 43,
    config: NASAICConfig | None = None,
    store_path=None,
) -> Fig6Result:
    """Regenerate one Fig. 6 panel for ``workload``.

    ``store_path`` plugs a persistent evaluation store under the NASAIC
    campaign so repeated regenerations warm-start from prior pricing.
    """
    allocation = AllocationSpace()
    cost_model = CostModel()
    surrogate = default_surrogate([t.space for t in workload.tasks])
    if config is None:
        config = NASAICConfig(episodes=episodes, hw_steps=hw_steps,
                              seed=seed)
    scenario = Scenario(
        workload=workload, strategy="nasaic", budget=config.episodes,
        seed=config.seed, rho=config.rho,
        options={"config": config, "allocation": allocation,
                 "surrogate": surrogate})
    with Campaign(CampaignConfig(scenarios=(scenario,),
                                 store_path=store_path),
                  cost_model=cost_model) as campaign:
        campaign_result = campaign.run()
    result = campaign_result.outcomes[0].result
    smallest = tuple(
        task.space.decode(task.space.smallest_indices())
        for task in workload.tasks)
    lower_bounds = monte_carlo_designs(
        smallest, workload, allocation=allocation, cost_model=cost_model,
        runs=lower_bound_designs, seed=seed + 1)
    lb_accuracies = tuple(
        surrogate.accuracy(net) for net in smallest)
    return Fig6Result(
        workload=workload,
        explored=result.explored,
        lower_bounds=lower_bounds,
        lower_bound_accuracies=lb_accuracies,
        best=result.best,
        trainings_run=result.trainings_run,
        trainings_skipped=result.trainings_skipped,
        campaign=campaign_result,
    )


def format_fig6(result: Fig6Result) -> str:
    """Render one panel as a summary table."""
    wl = result.workload
    rows: list[list[object]] = []
    feasible = [s for s in result.explored if s.feasible]
    rows.append([
        "explored by NASAIC", f"{len(result.explored)} solutions",
        "all meet specs" if result.all_explored_feasible
        else "SOME VIOLATE", "", ""])
    lb_acc = "/".join(
        task.space.dataset + "=" + f"{a:.4g}"
        for task, a in zip(wl.tasks, result.lower_bound_accuracies))
    rows.append(["lower bounds (smallest nets)",
                 f"{len(result.lower_bounds)} designs", lb_acc, "", ""])
    if result.best is not None:
        acc = "/".join(f"{a:.4g}" for a in result.best.accuracies)
        util = result.spec_utilisation()
        rows.append([
            "best solution", result.best.accelerator.describe(), acc,
            f"L={result.best.latency_cycles:.3g} "
            f"E={result.best.energy_nj:.3g} "
            f"A={result.best.area_um2:.3g}",
            f"{util[0]:.1%}/{util[1]:.1%}/{util[2]:.1%} of specs"])
    else:
        rows.append(["best solution", "none feasible", "", "", ""])
    title = (f"Fig. 6 [{wl.name}] specs {wl.specs.describe()} | "
             f"trainings run {result.trainings_run}, "
             f"skipped by early pruning {result.trainings_skipped}")
    return format_table(
        ["series", "hardware", "accuracy", "metrics", "spec utilisation"],
        rows, title=title)
