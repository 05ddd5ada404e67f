"""Unit tests for the joint co-exploration decision space."""

import numpy as np
import pytest

from repro.accel import AllocationSpace, Dataflow
from repro.core import JointSearchSpace


@pytest.fixture
def joint_w1(workload_w1):
    return JointSearchSpace(workload_w1, AllocationSpace())


@pytest.fixture
def joint_w3(workload_w3):
    return JointSearchSpace(workload_w3, AllocationSpace())


class TestStructure:
    def test_segment_layout_w1(self, joint_w1, workload_w1):
        # arch segments (7 CIFAR + 6 U-Net) then 2 x (df, pe) then 2 x bw
        arch = sum(len(t.space.choices) for t in workload_w1.tasks)
        assert joint_w1.num_decisions == arch + 2 * 2 + 2

    def test_kinds_partition(self, joint_w1):
        arch = set(joint_w1.arch_positions)
        hw = set(joint_w1.hw_positions)
        assert arch | hw == set(range(joint_w1.num_decisions))
        assert not arch & hw

    def test_task_slices_cover_arch_positions(self, joint_w1, workload_w1):
        covered = []
        for idx in range(workload_w1.num_tasks):
            sl = joint_w1.task_slice(idx)
            covered.extend(range(sl.start, sl.stop))
        assert covered == list(joint_w1.arch_positions)

    def test_decision_names_qualified(self, joint_w3):
        names = [d.name for d in joint_w3.decisions]
        assert "task0.stem.filters" in names
        assert "slot1.bw" in names


class TestMasks:
    def sample_greedy_zero(self, space):
        """Walk the decisions always taking the first allowed option."""
        actions = []
        for pos in range(space.num_decisions):
            mask = space.mask_for(pos, actions)
            if mask is None:
                actions.append(0)
            else:
                actions.append(int(mask.argmax()))
        return actions

    def test_arch_positions_unmasked(self, joint_w1):
        assert joint_w1.mask_for(0, []) is None

    def test_mask_walk_produces_valid_design(self, joint_w1):
        actions = self.sample_greedy_zero(joint_w1)
        sample = joint_w1.decode(actions)
        assert sample.accelerator.total_pes <= 4096

    def test_pe_budget_enforced_by_mask(self, joint_w3, workload_w3):
        space = joint_w3
        # Take max PEs for slot 0, then slot 1's mask must only allow 0.
        actions = []
        for pos in range(space.num_decisions):
            mask = space.mask_for(pos, actions)
            decision = space.decisions[pos]
            if decision.name == "slot0.pes":
                actions.append(decision.num_options - 1)  # 4096
            elif mask is None:
                actions.append(0)
            else:
                actions.append(int(len(mask) - 1 - mask[::-1].argmax()))
        sample = space.decode(actions)
        assert sample.accelerator.total_pes <= 4096
        assert sample.accelerator.subaccs[1].num_pes == 0

    def test_last_slot_forced_active(self, joint_w3):
        space = joint_w3
        actions = []
        for pos in range(space.num_decisions):
            mask = space.mask_for(pos, actions)
            decision = space.decisions[pos]
            if decision.name in ("slot0.pes", "slot1.pes"):
                # Try to pick 0 PEs everywhere; the mask must forbid an
                # all-empty design on the last slot.
                idx = 0 if (mask is None or mask[0]) else int(mask.argmax())
                actions.append(idx)
            elif mask is None:
                actions.append(0)
            else:
                actions.append(int(mask.argmax()))
        sample = space.decode(actions)
        assert sample.accelerator.total_pes > 0

    def test_bandwidth_reserved_for_later_active_slots(self, joint_w3):
        space = joint_w3
        alloc = space.allocation
        actions = []
        for pos in range(space.num_decisions):
            mask = space.mask_for(pos, actions)
            decision = space.decisions[pos]
            if decision.name.endswith(".pes"):
                actions.append(1)  # smallest non-zero: both slots active
            elif decision.name == "slot0.bw":
                allowed = [b for b, ok in zip(alloc.bw_options, mask) if ok]
                # Slot 1 is active, so slot 0 may take at most 64 - 8.
                assert max(allowed) == 56
                actions.append(int(mask.argmax()))
            elif mask is None:
                actions.append(0)
            else:
                actions.append(int(mask.argmax()))
        sample = space.decode(actions)
        assert sample.accelerator.total_bandwidth_gbps <= 64


    def test_never_activates_more_slots_than_bandwidth_feeds(
            self, workload_w1):
        """Three slots but bandwidth for only two at the cheapest option:
        a third active slot would leave its bandwidth mask empty."""
        from repro.accel.accelerator import ResourceBudget
        alloc = AllocationSpace(num_slots=3, pe_step=128, bw_step=16,
                                budget=ResourceBudget(max_pes=512,
                                                      max_bandwidth_gbps=32))
        space = JointSearchSpace(workload_w1, alloc)
        rng = np.random.default_rng(0)
        for _ in range(200):
            actions = []
            for pos in range(space.num_decisions):
                mask = space.mask_for(pos, actions)
                options = (np.flatnonzero(mask) if mask is not None
                           else np.arange(space.decisions[pos].num_options))
                actions.append(int(rng.choice(options)))
            design = space.decode(actions).accelerator
            assert design.total_bandwidth_gbps <= 32
            assert sum(sub.num_pes > 0 for sub in design.subaccs) <= 2


class TestDecode:
    def test_decode_wrong_length(self, joint_w3):
        with pytest.raises(ValueError, match="actions"):
            joint_w3.decode((0,))

    def test_decode_networks_match_tasks(self, joint_w1, workload_w1):
        actions = TestMasks().sample_greedy_zero(joint_w1)
        sample = joint_w1.decode(actions)
        assert len(sample.networks) == workload_w1.num_tasks
        assert sample.networks[0].dataset == "cifar10"
        assert sample.networks[1].dataset == "nuclei"

    def test_encode_design_roundtrip(self, joint_w3):
        alloc = joint_w3.allocation
        design = alloc.build([(Dataflow.NVDLA, 2112, 48),
                              (Dataflow.SHIDIANNAO, 1984, 16)])
        forced = joint_w3.encode_design(design)
        actions = []
        for pos in range(joint_w3.num_decisions):
            if pos in forced:
                actions.append(forced[pos])
            else:
                actions.append(0)
        sample = joint_w3.decode(actions)
        assert sample.accelerator.describe() == design.describe()

    def test_encode_design_inactive_slot(self, joint_w3):
        alloc = joint_w3.allocation
        design = alloc.build([(Dataflow.NVDLA, 3104, 24),
                              (Dataflow.NVDLA, 0, 0)])
        forced = joint_w3.encode_design(design)
        actions = [forced.get(pos, 0)
                   for pos in range(joint_w3.num_decisions)]
        sample = joint_w3.decode(actions)
        assert sample.accelerator.is_single
