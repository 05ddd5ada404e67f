"""Exact HAP reference solver (branch-and-bound).

The paper mentions the optimal HAP instantiation via Integer Linear
Programming but runs the heuristic for speed.  This module provides the
optimal reference for *small* instances so tests can certify the
heuristic's solution quality (Ablation A in ``benchmarks/bench_hap.py``).

The search branches on the assignment of each flat layer in order and
prunes on an admissible energy bound (sum of per-layer minimum remaining
energies); feasibility is certified with the same deterministic list
scheduler the heuristic uses, so both solvers optimise over the identical
schedule policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mapping.problem import MappingProblem
from repro.mapping.schedule import list_schedule

__all__ = ["ExactResult", "solve_exact"]

#: Refuse instances whose full tree would be unreasonably large.
_MAX_LEAVES = 2_000_000


@dataclass(frozen=True)
class ExactResult:
    """Optimal assignment for a small HAP instance (or proof of
    infeasibility under the scheduler policy)."""

    assignment: tuple[int, ...] | None
    makespan: int | None
    energy_nj: float | None
    feasible: bool
    explored: int


def solve_exact(problem: MappingProblem,
                latency_constraint: int) -> ExactResult:
    """Exhaustively find the minimum-energy feasible assignment.

    Raises:
        ValueError: If the instance is too large
            (``num_slots ** num_layers > 2e6`` leaves) or the constraint
            is not positive.
    """
    if latency_constraint <= 0:
        raise ValueError(
            f"latency constraint must be positive, got {latency_constraint}")
    leaves = problem.num_slots ** problem.num_layers
    if leaves > _MAX_LEAVES:
        raise ValueError(
            f"instance too large for exact solve: {problem.num_layers} "
            f"layers x {problem.num_slots} slots = {leaves} leaves")

    min_remaining = np.minimum.reduce(
        [problem.energies[:, pos] for pos in range(problem.num_slots)])
    suffix_bound = np.concatenate(
        [np.cumsum(min_remaining[::-1])[::-1], [0.0]])

    best_energy = np.inf
    best_assignment: tuple[int, ...] | None = None
    best_makespan: int | None = None
    explored = 0
    assignment: list[int] = [0] * problem.num_layers

    def rec(depth: int, energy_so_far: float) -> None:
        nonlocal best_energy, best_assignment, best_makespan, explored
        if energy_so_far + suffix_bound[depth] >= best_energy:
            return
        if depth == problem.num_layers:
            explored += 1
            schedule = list_schedule(problem, tuple(assignment))
            if schedule.makespan <= latency_constraint:
                best_energy = energy_so_far
                best_assignment = tuple(assignment)
                best_makespan = schedule.makespan
            return
        order = np.argsort(problem.energies[depth])
        for pos in order:
            assignment[depth] = int(pos)
            rec(depth + 1,
                energy_so_far + float(problem.energies[depth, pos]))
        assignment[depth] = 0

    rec(0, 0.0)
    return ExactResult(
        assignment=best_assignment,
        makespan=best_makespan,
        energy_nj=None if best_assignment is None else float(best_energy),
        feasible=best_assignment is not None,
        explored=explored,
    )
