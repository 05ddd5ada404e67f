"""Search result records shared by NASAIC and the baselines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.accel.accelerator import HeterogeneousAccelerator
from repro.arch.network import NetworkArch

if TYPE_CHECKING:
    from repro.core.evalservice import EvalServiceStats
    from repro.core.evaluator import HardwareEvaluation

__all__ = ["EpisodeRecord", "ExploredSolution", "NoFeasibleSolutionError",
           "SearchResult"]


class NoFeasibleSolutionError(RuntimeError):
    """A search whose best feasible solution an experiment needs
    finished without one (a budget too small for the workload's
    specs)."""


@dataclass(frozen=True)
class ExploredSolution:
    """One fully evaluated (architectures, accelerator) pair.

    These are the points plotted in Fig. 6: hardware metrics plus the
    accuracy of every task network (display units: % or IOU).
    """

    networks: tuple[NetworkArch, ...]
    accelerator: HeterogeneousAccelerator
    latency_cycles: int
    energy_nj: float
    area_um2: float
    feasible: bool
    accuracies: tuple[float, ...]
    weighted_accuracy: float

    @classmethod
    def priced(cls, networks: tuple[NetworkArch, ...],
               hardware: HardwareEvaluation, accuracies: tuple[float, ...],
               weighted_accuracy: float) -> "ExploredSolution":
        """The solution of ``networks`` priced as ``hardware`` and
        trained to ``accuracies`` — the one way every search builds
        its explored points."""
        return cls(networks=networks, accelerator=hardware.accelerator,
                   latency_cycles=hardware.latency_cycles,
                   energy_nj=hardware.energy_nj,
                   area_um2=hardware.area_um2, feasible=hardware.feasible,
                   accuracies=accuracies,
                   weighted_accuracy=weighted_accuracy)

    @property
    def genotypes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(net.genotype for net in self.networks)

    def describe(self) -> str:
        """One-line summary in the paper's notation."""
        acc = "/".join(f"{a:.4g}" for a in self.accuracies)
        flag = "meets specs" if self.feasible else "VIOLATES specs"
        return (f"{self.accelerator.describe()} acc={acc} "
                f"L={self.latency_cycles:.3g} E={self.energy_nj:.3g} "
                f"A={self.area_um2:.3g} [{flag}]")


@dataclass(frozen=True)
class EpisodeRecord:
    """Diagnostics for one NASAIC episode.

    ``solution`` is ``None`` when early pruning skipped the episode's
    training (no feasible hardware among the ``1 + phi`` designs).
    """

    episode: int
    solution: ExploredSolution | None
    reward: float
    penalty: float
    trained: bool
    hardware_steps: int


@dataclass
class SearchResult:
    """Outcome of one search run (NASAIC or a baseline).

    Attributes:
        name: Which approach produced the result.
        episodes: Per-episode diagnostics (empty for non-RL baselines).
        explored: All fully evaluated solutions, in discovery order.
        best: The feasible solution with the highest weighted accuracy
            (``None`` if nothing feasible was ever found).
        trainings_run / trainings_skipped: Training-path accounting
            (early-pruning effectiveness, §IV-②).
        pricing: The run's hardware-pricing record — the
            :class:`~repro.core.evalservice.EvalServiceStats` delta the
            :class:`~repro.core.driver.SearchDriver` takes when the run
            finishes (requests, cache and store hits, miss seconds,
            cost-cell and HAP move counters, fault counters).  ``None``
            until then, and for a result no service priced.
    """

    name: str
    episodes: list[EpisodeRecord] = field(default_factory=list)
    explored: list[ExploredSolution] = field(default_factory=list)
    best: ExploredSolution | None = None
    trainings_run: int = 0
    trainings_skipped: int = 0
    pricing: EvalServiceStats | None = None

    def record(self, solution: ExploredSolution) -> None:
        """Add a solution and refresh the incumbent best."""
        self.explored.append(solution)
        if solution.feasible and (
                self.best is None
                or solution.weighted_accuracy > self.best.weighted_accuracy):
            self.best = solution

    @property
    def feasible_solutions(self) -> list[ExploredSolution]:
        return [s for s in self.explored if s.feasible]

    def summary(self) -> str:
        """Multi-line human-readable run summary."""
        requests = self.pricing.requests if self.pricing is not None else 0
        lines = [
            f"{self.name}: {len(self.explored)} solutions explored, "
            f"{len(self.feasible_solutions)} feasible, "
            f"{self.trainings_run} trainings run, "
            f"{self.trainings_skipped} skipped, "
            f"{requests} hardware evaluations",
        ]
        if self.pricing is not None:
            lines.append(self.pricing.summary())
        if self.best is not None:
            lines.append("best: " + self.best.describe())
        else:
            lines.append("best: none feasible")
        return "\n".join(lines)
