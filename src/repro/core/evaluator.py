"""Evaluator (§IV-③): the two evaluation paths behind the reward.

- the *hardware path* runs the cost model + HAP mapper/scheduler to obtain
  latency ``rl``, energy ``re`` and area ``ra`` and the penalty of Eq. 3 —
  cheap, run for every sampled design;
- the *training path* trains and validates each DNN — expensive in the
  paper (GPU training), here delegated to the surrogate trainer, but kept
  behind the same interface so the optimizer selector's early pruning has
  the same observable effect (trainings skipped).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.accel.accelerator import HeterogeneousAccelerator
from repro.arch.network import NetworkArch
from repro.cost.model import CostModel
from repro.core.reward import (
    episode_reward,
    hardware_penalty,
    weighted_normalised_accuracy,
)
from repro.mapping.hap import HAPResult, solve_hap
from repro.mapping.problem import MappingProblem
from repro.mapping.schedule import MoveStats
from repro.train.trainer import SurrogateTrainer
from repro.workloads.workload import Workload

__all__ = ["Evaluator", "HardwareEvaluation", "SolutionEvaluation"]


@dataclass(frozen=True)
class HardwareEvaluation:
    """Hardware-path result for one (networks, accelerator) pair."""

    accelerator: HeterogeneousAccelerator
    latency_cycles: int
    energy_nj: float
    area_um2: float
    penalty: float
    feasible: bool
    violations: tuple[str, ...]
    hap: HAPResult


@dataclass(frozen=True)
class SolutionEvaluation:
    """Full evaluation: hardware metrics plus trained accuracies."""

    networks: tuple[NetworkArch, ...]
    hardware: HardwareEvaluation
    accuracies: tuple[float, ...]
    weighted_accuracy: float
    reward: float

    @property
    def feasible(self) -> bool:
        return self.hardware.feasible


class Evaluator:
    """Evaluates sampled solutions for one workload.

    Args:
        workload: Tasks, specs and penalty bounds.
        cost_model: The MAESTRO-substitute oracle.
        trainer: The (surrogate) training path.  ``None`` builds a
            hardware-path-only evaluator (used by
            :mod:`repro.core.evalservice` worker processes, which never
            touch the training path).
        rho: Penalty coefficient of Eq. 4 (paper: 10).
    """

    def __init__(self, workload: Workload, cost_model: CostModel,
                 trainer: SurrogateTrainer | None, rho: float = 10.0) -> None:
        self.workload = workload
        self.cost_model = cost_model
        self.trainer = trainer
        self.rho = rho
        self.hardware_evaluations = 0
        #: Aggregated HAP move-pricing counters across every hardware
        #: evaluation run by this evaluator (certified prunes,
        #: delta-resumes); cost-table cell counters live on
        #: ``cost_model.shared_cells`` / ``priced_cells``.
        self.move_stats = MoveStats()

    # ------------------------------------------------------------------
    # Hardware path
    # ------------------------------------------------------------------
    def evaluate_hardware(
        self,
        networks: tuple[NetworkArch, ...],
        accelerator: HeterogeneousAccelerator,
    ) -> HardwareEvaluation:
        """Cost model + mapping/scheduling -> (rl, re, ra) and penalty
        (a one-design :meth:`evaluate_hardware_many` batch)."""
        return self.evaluate_hardware_many([(networks, accelerator)])[0]

    def evaluate_hardware_many(
        self,
        pairs: Sequence[tuple[tuple[NetworkArch, ...],
                              HeterogeneousAccelerator]],
    ) -> list[HardwareEvaluation]:
        """Hardware path over a batch of ``(networks, accelerator)``
        pairs — the one pricing path of every caller (the evaluation
        service, the daemon's per-miss path, :meth:`evaluate_hardware`).

        The batch's cost tables come from one
        :meth:`MappingProblem.build_many` call: its distinct cells are
        priced in one pass per dataflow and every table is a gather from
        them.  Solves and reward assembly are per design.  Each result
        is independent of how the pairs are batched
        (``tests/test_evalservice.py``); the cost-cell counters are
        not.
        """
        pairs = list(pairs)
        for networks, _accelerator in pairs:
            self._check_networks(networks)
        problems = MappingProblem.build_many(pairs, self.cost_model)
        return [self._finish_hardware(accelerator, problem)
                for (_networks, accelerator), problem
                in zip(pairs, problems)]

    def _check_networks(self,
                        networks: tuple[NetworkArch, ...]) -> None:
        if len(networks) != self.workload.num_tasks:
            raise ValueError(
                f"expected {self.workload.num_tasks} networks, got "
                f"{len(networks)}")

    def _finish_hardware(self, accelerator: HeterogeneousAccelerator,
                         problem: MappingProblem) -> HardwareEvaluation:
        """Solve + score one built problem."""
        specs = self.workload.specs
        hap = solve_hap(problem, specs.latency_cycles,
                        stats=self.move_stats)
        area = problem.mapped_area_um2(hap.assignment,
                                       self.cost_model.params)
        penalty = hardware_penalty(hap.makespan, hap.energy_nj, area,
                                   specs, self.workload.bounds)
        feasible = specs.satisfied_by(hap.makespan, hap.energy_nj, area)
        self.hardware_evaluations += 1
        return HardwareEvaluation(
            accelerator=accelerator,
            latency_cycles=hap.makespan,
            energy_nj=hap.energy_nj,
            area_um2=area,
            penalty=penalty,
            feasible=feasible,
            violations=specs.violations(hap.makespan, hap.energy_nj, area),
            hap=hap,
        )

    # ------------------------------------------------------------------
    # Training path
    # ------------------------------------------------------------------
    def train_networks(
        self, networks: tuple[NetworkArch, ...]
    ) -> tuple[float, ...]:
        """Train/validate every task network; returns display-unit metrics."""
        if self.trainer is None:
            raise RuntimeError(
                "this evaluator was built without a trainer (hardware "
                "path only); the training path is unavailable")
        return tuple(
            self.trainer.train_and_validate(net).accuracy
            for net in networks)

    # ------------------------------------------------------------------
    # Full evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self,
        networks: tuple[NetworkArch, ...],
        accelerator: HeterogeneousAccelerator,
        *,
        hardware: HardwareEvaluation | None = None,
    ) -> SolutionEvaluation:
        """Hardware + training paths combined into the Eq. 4 reward.

        Args:
            networks: One network per task.
            accelerator: The candidate design.
            hardware: Optional precomputed hardware evaluation for this
                exact pair (e.g. from the caching
                :class:`~repro.core.evalservice.EvalService`), so reward
                assembly stays in one place without re-pricing hardware.
        """
        if hardware is None:
            hardware = self.evaluate_hardware(networks, accelerator)
        accuracies = self.train_networks(networks)
        weighted = weighted_normalised_accuracy(self.workload, accuracies)
        reward = episode_reward(weighted, hardware.penalty, self.rho)
        return SolutionEvaluation(
            networks=networks,
            hardware=hardware,
            accuracies=accuracies,
            weighted_accuracy=weighted,
            reward=reward,
        )
