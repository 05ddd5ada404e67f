"""Unit tests for the joint co-exploration decision space."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import AllocationSpace, Dataflow
from repro.core import JointSearchSpace
from repro.core.choices import random_genes


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


@pytest.fixture(scope="module")
def masked_spaces():
    """Preset and generated spaces, with and without empty slots."""
    from repro.accel.accelerator import ResourceBudget
    from repro.workloads import w1
    from repro.workloads.generator import generate_spec

    workload_w1 = w1()

    spaces = [
        JointSearchSpace(workload_w1, AllocationSpace()),
        JointSearchSpace(workload_w1, AllocationSpace(
            num_slots=3, pe_step=128, bw_step=16, allow_empty_slots=False,
            budget=ResourceBudget(max_pes=512, max_bandwidth_gbps=64))),
    ]
    wanted = {True: 2, False: 3}
    for seed in range(200):
        spec = generate_spec(seed, "tiny")
        if wanted[spec.allow_empty_slots]:
            wanted[spec.allow_empty_slots] -= 1
            scenario = spec.materialize()
            spaces.append(JointSearchSpace(scenario.workload,
                                           scenario.allocation))
    assert not any(wanted.values())
    return spaces


def mask_or_error(space, position, prefix):
    try:
        return space.mask_for(position, prefix)
    except ValueError as exc:
        return exc


class TestMaskMemo:
    """``mask_for`` memoises masks on budget quantities: it must answer
    what a fresh (empty-memo) space answers, for budget-valid prefixes
    and for arbitrary ones (crossover genes before repair)."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_memo_equals_uncached(self, masked_spaces, data):
        space = data.draw(st.sampled_from(masked_spaces))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        genes = random_genes(space, rng)
        if data.draw(st.booleans()):
            # Unmasked genes: over-budget prefixes must raise each time.
            genes = [int(rng.integers(d.num_options))
                     for d in space.decisions]
        position = data.draw(st.integers(0, space.num_decisions - 1))
        prefix = genes[:position]
        fresh = JointSearchSpace(space.workload, space.allocation)
        want = mask_or_error(fresh, position, prefix)
        for _ in range(2):  # the second call reads the memo
            got = mask_or_error(space, position, prefix)
            if isinstance(want, ValueError):
                assert isinstance(got, ValueError)
                assert str(got) == str(want)
            elif want is None:
                assert got is None
            else:
                assert np.array_equal(got, want)
                assert not got.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    got[0] = not got[0]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_decode_accelerator_matches_decode(self, masked_spaces, data):
        space = data.draw(st.sampled_from(masked_spaces))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        genes = random_genes(space, rng)
        assert space.decode_accelerator(genes) == space.decode(
            genes).accelerator

    def test_budget_error_raised_on_every_call(self, workload_w1):
        alloc = AllocationSpace(num_slots=3)
        space = JointSearchSpace(workload_w1, alloc)
        pe0, pe1, pe2 = (space.slot_positions(s)[1] for s in range(3))
        prefix = [0] * pe2
        top = len(alloc.pe_options) - 1
        prefix[pe0] = prefix[pe1] = top  # both earlier slots take it all
        for _ in range(3):
            with pytest.raises(ValueError, match="budget"):
                space.mask_for(pe2, prefix)
        prefix[pe1] = 0
        assert space.mask_for(pe2, prefix).tolist() == [True] + [
            False] * top

    def test_decode_accelerator_wrong_length(self, joint_w3):
        with pytest.raises(ValueError, match="actions"):
            joint_w3.decode_accelerator((0,))
