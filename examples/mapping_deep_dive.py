#!/usr/bin/env python
"""Deep dive into the mapper/scheduler stack (the synthesis layer).

Walks one W1-style instance through every solver in the mapping
package — the per-layer cost tables, the latency-greedy seed, the HAP
heuristic and the exact branch-and-bound reference — and prints the
resulting Gantt-style schedule.

Run:  python examples/mapping_deep_dive.py
"""

from repro import CostModel
from repro.accel import Dataflow, HeterogeneousAccelerator, SubAccelerator
from repro.arch import cifar10_resnet_space, nuclei_unet_space
from repro.mapping import (
    MappingProblem,
    list_schedule,
    solve_exact,
    solve_hap,
)


def main() -> None:
    cifar = cifar10_resnet_space()
    unet = nuclei_unet_space()
    nets = (
        cifar.decode(cifar.indices_of((8, 32, 1, 128, 1, 256, 1))),
        unet.decode((1, 1, 1, 0, 0, 0)),  # height-2 U-Net
    )
    accel = HeterogeneousAccelerator((
        SubAccelerator(Dataflow.NVDLA, 2048, 32),
        SubAccelerator(Dataflow.SHIDIANNAO, 1024, 32)))
    cost_model = CostModel()
    problem = MappingProblem.build(nets, accel, cost_model)
    budget = 600_000

    print(f"instance: {problem.num_layers} layers on "
          f"{accel.describe()}, latency budget {budget:.3g} cycles\n")

    print("per-layer cost table (cycles on each sub-accelerator):")
    for fid, layer in enumerate(problem.flat_layers):
        durs = "  ".join(f"{int(problem.durations[fid, p]):>8d}"
                         for p in range(problem.num_slots))
        print(f"  {layer.name:14s} {durs}")

    seed = problem.min_latency_assignment()
    seed_sched = list_schedule(problem, seed)
    print(f"\nlatency-greedy seed: makespan {seed_sched.makespan:.4g}, "
          f"energy {problem.assignment_energy(seed):.4g} nJ")

    hap = solve_hap(problem, budget)
    print(f"HAP heuristic:       makespan {hap.makespan:.4g}, "
          f"energy {hap.energy_nj:.4g} nJ, feasible={hap.feasible}")

    if problem.num_slots ** problem.num_layers <= 2_000_000:
        exact = solve_exact(problem, budget)
        if exact.feasible:
            print(f"exact (B&B):         makespan {exact.makespan:.4g}, "
                  f"energy {exact.energy_nj:.4g} nJ "
                  f"({exact.explored} leaves)")

    print("\nschedule (HAP heuristic):")
    schedule = list_schedule(problem, hap.assignment)
    for pos in range(problem.num_slots):
        sub = accel.subaccs[problem.active_slots[pos]]
        print(f"  {sub.describe()}:")
        for entry in schedule.by_slot(pos):
            layer = problem.flat_layers[entry.flat_id]
            net = problem.networks[entry.network].dataset
            print(f"    [{entry.start:>8d} - {entry.finish:>8d}] "
                  f"{net:8s} {layer.name}")


if __name__ == "__main__":
    main()
