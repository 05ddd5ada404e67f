"""Penalty-bound calibration (the paper's ``bl``/``be``/``ba``).

Eq. 3 normalises each spec overshoot by the headroom between the spec
and an upper bound "obtained by exploring the hardware design space
using the neural architecture identified by NAS, as the circles in
Fig. 1".  The preset workloads ship with a conservative 2x-spec default;
this module computes the faithful bounds: the largest architectures in
each task's space are priced on maximal single-template designs, and the
per-metric maxima become the bounds.

Proper bounds matter for search dynamics: on workloads whose maximal
networks violate the specs by an order of magnitude (W2's STL-10 space),
a 2x-spec denominator makes the penalty cliff so steep that the policy
gradient saturates; normalising by the true exploration ceiling keeps
``P`` within O(1) across the whole space, so infeasible samples still
carry a useful gradient toward feasibility.
"""

from __future__ import annotations

from repro.accel.allocation import AllocationSpace
from repro.cost.model import CostModel
from repro.mapping.hap import solve_hap
from repro.mapping.problem import MappingProblem
from repro.workloads.workload import PenaltyBounds, Workload

__all__ = ["calibrate_penalty_bounds"]

#: Bounds must strictly exceed the specs; keep at least this headroom.
_MIN_HEADROOM = 1.5


def calibrate_penalty_bounds(
    workload: Workload,
    cost_model: CostModel,
    allocation: AllocationSpace | None = None,
) -> PenaltyBounds:
    """Compute ``(bl, be, ba)`` from the workload's largest networks.

    The largest network of every task is evaluated on one maximal
    single-template design per available dataflow; the highest observed
    latency/energy/area become the bounds (floored at 1.5x the specs so
    Eq. 3 denominators stay positive even when the space is small).
    """
    allocation = allocation or AllocationSpace()
    networks = tuple(
        task.space.decode(task.space.largest_indices())
        for task in workload.tasks)
    designs = []
    for dataflow in allocation.dataflows:
        slots = [(dataflow, allocation.budget.max_pes,
                  allocation.budget.max_bandwidth_gbps)]
        slots += [(dataflow, 0, 0)] * (allocation.num_slots - 1)
        designs.append((networks, allocation.build(slots)))
    worst_latency = 0.0
    worst_energy = 0.0
    worst_area = 0.0
    for problem in MappingProblem.build_many(designs, cost_model):
        hap = solve_hap(problem, workload.specs.latency_cycles)
        area = problem.mapped_area_um2(hap.assignment, cost_model.params)
        worst_latency = max(worst_latency, float(hap.makespan))
        worst_energy = max(worst_energy, hap.energy_nj)
        worst_area = max(worst_area, area)
    specs = workload.specs
    bounds = PenaltyBounds(
        latency_cycles=max(worst_latency,
                           _MIN_HEADROOM * specs.latency_cycles),
        energy_nj=max(worst_energy, _MIN_HEADROOM * specs.energy_nj),
        area_um2=max(worst_area, _MIN_HEADROOM * specs.area_um2),
    )
    bounds.validate_against(specs)
    return bounds
