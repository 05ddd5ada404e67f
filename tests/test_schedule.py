"""Unit tests for the list scheduler (hand-checkable instances)."""

import numpy as np
import pytest

from repro.mapping import MappingProblem, list_schedule
from repro.mapping.problem import MappingProblem as MP


def tiny_problem(durations, chains, energies=None):
    """Build a MappingProblem directly from tables (no cost model)."""
    durations = np.asarray(durations, dtype=np.int64)
    energies = (np.asarray(energies, dtype=np.float64)
                if energies is not None else durations.astype(np.float64))
    num_layers = durations.shape[0]
    layer_net = [None] * num_layers
    for net, chain in enumerate(chains):
        for fid in chain:
            layer_net[fid] = net
    from repro.arch import dense_layer
    flat = tuple(dense_layer(f"l{i}", 8, 8) for i in range(num_layers))
    from repro.accel import (Dataflow, HeterogeneousAccelerator,
                             SubAccelerator)
    accel = HeterogeneousAccelerator(tuple(
        SubAccelerator(Dataflow.NVDLA, 64, 8)
        for _ in range(durations.shape[1])))
    return MP(
        networks=(), accelerator=accel,
        active_slots=tuple(range(durations.shape[1])),
        durations=durations, energies=energies,
        chains=tuple(tuple(c) for c in chains),
        layer_net=tuple(layer_net), flat_layers=flat)


class TestSingleChain:
    def test_chain_on_one_slot_is_sum(self):
        prob = tiny_problem([[10], [20], [30]], [(0, 1, 2)])
        sched = list_schedule(prob, (0, 0, 0))
        assert sched.makespan == 60

    def test_chain_across_slots_still_serial(self):
        # A chain gains nothing from a second slot: dependencies serialise.
        prob = tiny_problem([[10, 10], [20, 20], [30, 30]], [(0, 1, 2)])
        sched = list_schedule(prob, (0, 1, 0))
        assert sched.makespan == 60

    def test_chain_order_respected(self):
        prob = tiny_problem([[10], [20], [30]], [(0, 1, 2)])
        sched = list_schedule(prob, (0, 0, 0))
        finish = {e.flat_id: e.finish for e in sched.entries}
        start = {e.flat_id: e.start for e in sched.entries}
        assert start[1] >= finish[0]
        assert start[2] >= finish[1]


class TestTwoChains:
    def test_parallel_chains_on_disjoint_slots(self):
        # Two independent chains on separate slots overlap fully.
        prob = tiny_problem(
            [[10, 99], [10, 99], [99, 12], [99, 12]],
            [(0, 1), (2, 3)])
        sched = list_schedule(prob, (0, 0, 1, 1))
        assert sched.makespan == 24  # max(20, 24), not 44

    def test_shared_slot_serialises(self):
        prob = tiny_problem(
            [[10], [10], [10], [10]],
            [(0, 1), (2, 3)])
        sched = list_schedule(prob, (0, 0, 0, 0))
        assert sched.makespan == 40

    def test_no_overlap_within_slot(self):
        prob = tiny_problem(
            [[7, 9], [5, 4], [6, 3], [8, 2]],
            [(0, 1), (2, 3)])
        sched = list_schedule(prob, (0, 1, 0, 1))
        for slot in (0, 1):
            entries = sched.by_slot(slot)
            for a, b in zip(entries, entries[1:]):
                assert b.start >= a.finish

    def test_busy_cycles_accounting(self):
        prob = tiny_problem(
            [[7, 9], [5, 4], [6, 3], [8, 2]],
            [(0, 1), (2, 3)])
        sched = list_schedule(prob, (0, 1, 0, 1))
        assert sched.slot_busy_cycles(0) == 7 + 6
        assert sched.slot_busy_cycles(1) == 4 + 2

    def test_makespan_at_least_critical_path(self):
        prob = tiny_problem(
            [[10, 20], [10, 20], [5, 5]],
            [(0, 1), (2,)])
        for assignment in ((0, 0, 0), (0, 1, 0), (1, 1, 1), (0, 0, 1)):
            sched = list_schedule(prob, assignment)
            chain_time = sum(
                int(prob.durations[f, assignment[f]]) for f in (0, 1))
            assert sched.makespan >= chain_time


class TestValidation:
    def test_wrong_assignment_length(self):
        prob = tiny_problem([[10], [20]], [(0, 1)])
        with pytest.raises(ValueError, match="covers"):
            list_schedule(prob, (0,))

    def test_out_of_range_slot(self):
        prob = tiny_problem([[10], [20]], [(0, 1)])
        with pytest.raises(ValueError, match="slot position"):
            list_schedule(prob, (0, 5))


class TestProblemBuild:
    def test_build_tables_shape(self, cost_model, cifar_net_small,
                                 small_accel):
        prob = MappingProblem.build((cifar_net_small,), small_accel,
                                    cost_model)
        assert prob.durations.shape == (cifar_net_small.num_layers, 2)
        assert prob.energies.shape == prob.durations.shape

    def test_build_skips_inactive_slots(self, cost_model, cifar_net_small):
        from repro.accel import (Dataflow, HeterogeneousAccelerator,
                                 SubAccelerator)
        accel = HeterogeneousAccelerator((
            SubAccelerator(Dataflow.NVDLA, 1024, 32),
            SubAccelerator(Dataflow.SHIDIANNAO, 0, 0)))
        prob = MappingProblem.build((cifar_net_small,), accel, cost_model)
        assert prob.active_slots == (0,)
        assert prob.num_slots == 1

    def test_chains_partition_layers(self, cost_model, cifar_net_small,
                                     unet_net_mid, small_accel):
        prob = MappingProblem.build((cifar_net_small, unet_net_mid),
                                    small_accel, cost_model)
        all_ids = sorted(fid for chain in prob.chains for fid in chain)
        assert all_ids == list(range(prob.num_layers))

    def test_min_latency_assignment_optimal_per_layer(
            self, cost_model, cifar_net_small, small_accel):
        prob = MappingProblem.build((cifar_net_small,), small_accel,
                                    cost_model)
        assignment = prob.min_latency_assignment()
        for fid, pos in enumerate(assignment):
            assert (prob.durations[fid, pos]
                    == prob.durations[fid].min())

    def test_assignment_energy(self, cost_model, cifar_net_small,
                               small_accel):
        prob = MappingProblem.build((cifar_net_small,), small_accel,
                                    cost_model)
        zeros = tuple([0] * prob.num_layers)
        assert prob.assignment_energy(zeros) == pytest.approx(
            float(prob.energies[:, 0].sum()))

    def test_mapped_layers_by_slot_grouping(self, cost_model,
                                            cifar_net_small, small_accel):
        prob = MappingProblem.build((cifar_net_small,), small_accel,
                                    cost_model)
        assignment = tuple(
            i % 2 for i in range(prob.num_layers))
        grouped = prob.mapped_layers_by_slot(assignment)
        assert sum(len(v) for v in grouped.values()) == prob.num_layers

    def test_empty_networks_rejected(self, cost_model, small_accel):
        with pytest.raises(ValueError, match="at least one network"):
            MappingProblem.build((), small_accel, cost_model)


class TestScheduleInvariants:
    @pytest.mark.parametrize("seed", range(5))
    def test_no_overlap_and_exact_busy_time(self, seed):
        rng = np.random.default_rng(seed)
        layers = 8
        durations = rng.integers(1, 30, size=(layers, 2)).tolist()
        prob = tiny_problem(durations, [tuple(range(4)),
                                        tuple(range(4, 8))])
        assignment = tuple(int(x) for x in rng.integers(0, 2, size=layers))
        sched = list_schedule(prob, assignment)
        for slot in (0, 1):
            entries = sched.by_slot(slot)
            for a, b in zip(entries, entries[1:]):
                assert b.start >= a.finish
            busy = sum(
                int(prob.durations[fid, assignment[fid]])
                for fid in range(layers) if assignment[fid] == slot)
            assert sched.slot_busy_cycles(slot) == busy
