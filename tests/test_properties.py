"""Property-based tests (hypothesis) for core invariants.

These cover the invariants the reproduction relies on: cost-model
monotonicity and positivity, scheduler feasibility, HAP constraint
compliance, allocation-budget safety, penalty correctness, and
genotype round-trips — each over randomly drawn instances rather than
hand-picked examples.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import AllocationSpace, Dataflow, SubAccelerator
from repro.arch import ConvLayer, cifar10_resnet_space, nuclei_unet_space
from repro.cost import CostModel, DEFAULT_PARAMS, analyze
from repro.core.reward import hardware_penalty
from repro.mapping import list_schedule, solve_hap
from repro.train import default_surrogate
from repro.workloads import DesignSpecs, PenaltyBounds
from tests.test_schedule import tiny_problem

_COST_MODEL = CostModel()
_CIFAR = cifar10_resnet_space()
_UNET = nuclei_unet_space()
_SURROGATE = default_surrogate([_CIFAR, _UNET])

layer_strategy = st.builds(
    ConvLayer,
    name=st.just("l"),
    in_channels=st.integers(1, 512),
    out_channels=st.integers(1, 512),
    kernel=st.sampled_from([1, 3, 5]),
    stride=st.sampled_from([1, 2]),
    in_height=st.integers(2, 128),
    in_width=st.integers(2, 128),
    transposed=st.booleans(),
)

dataflow_strategy = st.sampled_from(list(Dataflow))


class TestCostModelProperties:
    @given(layer=layer_strategy, df=dataflow_strategy,
           pes=st.integers(32, 4096))
    @settings(max_examples=120, deadline=None)
    def test_tiling_internally_consistent(self, layer, df, pes):
        a = analyze(layer, df, pes, DEFAULT_PARAMS)
        assert a.compute_cycles >= 1
        assert 0.0 < a.utilization <= 1.0
        assert a.weight_fetches >= layer.weight_elems
        assert a.input_fetches >= layer.ifmap_elems
        assert a.output_fetches >= layer.ofmap_elems
        # Compute time is never below the ideal MACs/PE bound.
        assert a.compute_cycles >= layer.macs / pes * 0.999

    @given(layer=layer_strategy, df=dataflow_strategy,
           pes=st.integers(32, 2048))
    @settings(max_examples=60, deadline=None)
    def test_doubling_pes_never_hurts(self, layer, df, pes):
        a1 = analyze(layer, df, pes, DEFAULT_PARAMS)
        a2 = analyze(layer, df, 2 * pes, DEFAULT_PARAMS)
        assert a2.compute_cycles <= a1.compute_cycles

    @given(layer=layer_strategy, df=dataflow_strategy,
           pes=st.sampled_from([64, 512, 2048]),
           bw=st.sampled_from([8, 16, 32, 64]))
    @settings(max_examples=60, deadline=None)
    def test_layer_cost_positive(self, layer, df, pes, bw):
        cost = _COST_MODEL.layer_cost(layer, SubAccelerator(df, pes, bw))
        assert cost.latency_cycles > 0
        assert cost.energy_nj > 0
        assert cost.latency_cycles >= max(cost.compute_cycles,
                                          cost.memory_cycles)


class TestSchedulerProperties:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_schedule_invariants(self, data):
        layers = data.draw(st.integers(2, 10))
        slots = data.draw(st.integers(1, 3))
        durations = data.draw(st.lists(
            st.lists(st.integers(1, 50), min_size=slots, max_size=slots),
            min_size=layers, max_size=layers))
        cut = data.draw(st.integers(1, layers))
        chains = [tuple(range(cut))]
        if cut < layers:
            chains.append(tuple(range(cut, layers)))
        prob = tiny_problem(durations, chains)
        assignment = tuple(
            data.draw(st.integers(0, slots - 1)) for _ in range(layers))
        sched = list_schedule(prob, assignment)
        # 1. Every layer scheduled exactly once.
        assert len(sched.entries) == layers
        # 2. Chain order respected.
        finish = {e.flat_id: e.finish for e in sched.entries}
        start = {e.flat_id: e.start for e in sched.entries}
        for chain in chains:
            for a, b in zip(chain, chain[1:]):
                assert start[b] >= finish[a]
        # 3. No overlap on any slot.
        for slot in range(slots):
            entries = sched.by_slot(slot)
            for a, b in zip(entries, entries[1:]):
                assert b.start >= a.finish
        # 4. Makespan equals the last finish and bounds all busy time.
        assert sched.makespan == max(finish.values())
        for slot in range(slots):
            assert sched.slot_busy_cycles(slot) <= sched.makespan

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_hap_feasible_solutions_respect_constraint(self, data):
        layers = data.draw(st.integers(2, 8))
        durations = data.draw(st.lists(
            st.lists(st.integers(1, 40), min_size=2, max_size=2),
            min_size=layers, max_size=layers))
        energies = data.draw(st.lists(
            st.lists(st.floats(0.5, 30.0), min_size=2, max_size=2),
            min_size=layers, max_size=layers))
        prob = tiny_problem(durations, [tuple(range(layers))], energies)
        budget = data.draw(st.integers(10, 500))
        res = solve_hap(prob, budget)
        if res.feasible:
            assert res.makespan <= budget
        # Energy always equals the assignment's energy.
        assert res.energy_nj == pytest.approx(
            prob.assignment_energy(res.assignment))


class TestAllocationProperties:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_random_design_within_budget(self, seed):
        space = AllocationSpace()
        acc = space.random_design(np.random.default_rng(seed))
        assert 0 < acc.total_pes <= space.budget.max_pes
        assert acc.total_bandwidth_gbps <= space.budget.max_bandwidth_gbps
        for sub in acc.active_subaccs:
            assert sub.num_pes % space.pe_step == 0
            assert sub.bandwidth_gbps % space.bw_step == 0


class TestSurrogateProperties:
    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=80, deadline=None)
    def test_accuracy_within_calibrated_range(self, seed):
        rng = np.random.default_rng(seed)
        net = _CIFAR.decode(_CIFAR.random_indices(rng))
        cal = _SURROGATE.calibration("cifar10")
        acc = _SURROGATE.accuracy(net)
        assert cal.floor - cal.jitter <= acc <= cal.peak + cal.jitter

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=50, deadline=None)
    def test_unet_canonical_genotype_consistency(self, seed):
        rng = np.random.default_rng(seed)
        idx = list(_UNET.random_indices(rng))
        net_a = _UNET.decode(tuple(idx))
        # Perturb an unused (deeper-than-height) filter decision.
        height = net_a.genotype[0]
        if height < _UNET.max_height:
            idx[1 + height] = (idx[1 + height] + 1) % 3
            net_b = _UNET.decode(tuple(idx))
            assert net_a.genotype == net_b.genotype
            assert _SURROGATE.accuracy(net_a) == _SURROGATE.accuracy(net_b)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=50, deadline=None)
    def test_genotype_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        idx = _CIFAR.random_indices(rng)
        assert _CIFAR.indices_of(_CIFAR.values(idx)) == idx


class TestPenaltyProperties:
    specs = DesignSpecs(1000, 1000.0, 1000.0)
    bounds = PenaltyBounds.from_specs(specs, factor=2.0)

    @given(lat=st.floats(0, 5000), energy=st.floats(0, 5000),
           area=st.floats(0, 5000))
    @settings(max_examples=100, deadline=None)
    def test_penalty_nonnegative_and_zero_iff_feasible(self, lat, energy,
                                                       area):
        p = hardware_penalty(lat, energy, area, self.specs, self.bounds)
        assert p >= 0.0
        feasible = self.specs.satisfied_by(lat, energy, area)
        assert (p == 0.0) == feasible

    @given(lat=st.floats(1000, 4000), extra=st.floats(1, 1000))
    @settings(max_examples=50, deadline=None)
    def test_penalty_monotone_in_latency(self, lat, extra):
        p1 = hardware_penalty(lat, 0, 0, self.specs, self.bounds)
        p2 = hardware_penalty(lat + extra, 0, 0, self.specs, self.bounds)
        assert p2 >= p1

    @given(score=st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_saturating_law_monotone(self, score):
        cal = _SURROGATE.calibration("cifar10")
        k = cal.curvature

        def law(s):
            return (1 - math.exp(-k * s)) / (1 - math.exp(-k))

        assert 0.0 <= law(score) <= 1.0
        if score < 1.0:
            assert law(min(1.0, score + 1e-3)) >= law(score)
