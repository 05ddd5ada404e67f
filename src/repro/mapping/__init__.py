"""Mapping & scheduling: the HAP solver, its exact oracle and the list
scheduler."""

from repro.mapping.exact import ExactResult, solve_exact
from repro.mapping.hap import HAPResult, solve_hap
from repro.mapping.problem import MappingProblem
from repro.mapping.schedule import (
    MakespanEvaluator,
    MoveStats,
    Schedule,
    ScheduledLayer,
    list_schedule,
)

__all__ = [
    "ExactResult",
    "HAPResult",
    "MakespanEvaluator",
    "MappingProblem",
    "MoveStats",
    "Schedule",
    "ScheduledLayer",
    "list_schedule",
    "solve_exact",
    "solve_hap",
]
