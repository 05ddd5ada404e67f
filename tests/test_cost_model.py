"""Unit tests for the MAESTRO-substitute cost model.

Beyond correctness of the arithmetic, these tests pin the *orderings* the
search exploits (see :mod:`repro.cost.params`): dataflow affinities,
PE/bandwidth monotonicity, and the Table I magnitude calibration.
"""

import functools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import Dataflow, SubAccelerator
from repro.arch import ConvLayer, dense_layer
from repro.cost import (
    CostModel,
    CostModelParams,
    DEFAULT_PARAMS,
    analyze,
    layer_identity,
)
from suite_helpers import sample_design_pairs


def conv(c, k, hw, kernel=3, stride=1):
    return ConvLayer(name=f"c{c}k{k}hw{hw}", in_channels=c, out_channels=k,
                     kernel=kernel, stride=stride, in_height=hw, in_width=hw)


HIGH_RES_LIGHT = conv(c=3, k=32, hw=64)      # stem-like / U-Net encoder
LOW_RES_HEAVY = conv(c=256, k=256, hw=4)     # deep ResNet block


class TestTilingAnalysis:
    def test_dla_full_utilisation_on_channel_heavy(self):
        a = analyze(LOW_RES_HEAVY, Dataflow.NVDLA, 1024, DEFAULT_PARAMS)
        assert a.utilization == 1.0

    def test_dla_poor_utilisation_on_channel_light(self):
        a = analyze(HIGH_RES_LIGHT, Dataflow.NVDLA, 1024, DEFAULT_PARAMS)
        assert a.utilization < 0.2

    def test_shi_full_utilisation_on_high_res(self):
        a = analyze(HIGH_RES_LIGHT, Dataflow.SHIDIANNAO, 1024,
                    DEFAULT_PARAMS)
        assert a.utilization > 0.9

    def test_shi_poor_utilisation_on_low_res(self):
        a = analyze(LOW_RES_HEAVY, Dataflow.SHIDIANNAO, 1024,
                    DEFAULT_PARAMS)
        assert a.utilization < 0.05

    def test_rs_balanced(self):
        for layer in (HIGH_RES_LIGHT, LOW_RES_HEAVY):
            a = analyze(layer, Dataflow.ROW_STATIONARY, 1024,
                        DEFAULT_PARAMS)
            assert a.utilization > 0.2

    def test_compute_cycles_at_least_ideal(self):
        for df in Dataflow:
            for layer in (HIGH_RES_LIGHT, LOW_RES_HEAVY):
                a = analyze(layer, df, 1024, DEFAULT_PARAMS)
                assert a.compute_cycles >= layer.macs // 1024

    def test_refetch_capped(self):
        layer = conv(c=512, k=512, hw=2)
        a = analyze(layer, Dataflow.NVDLA, 64, DEFAULT_PARAMS)
        assert a.input_fetches <= layer.ifmap_elems * DEFAULT_PARAMS.refetch_cap

    def test_zero_pes_rejected(self):
        with pytest.raises(ValueError, match="0 PEs"):
            analyze(HIGH_RES_LIGHT, Dataflow.NVDLA, 0, DEFAULT_PARAMS)


class TestDataflowAffinity:
    """The §II Challenge-2 orderings that motivate heterogeneity."""

    def test_dla_beats_shi_on_channel_heavy_layer(self, cost_model):
        dla = cost_model.layer_cost(
            LOW_RES_HEAVY, SubAccelerator(Dataflow.NVDLA, 1024, 32))
        shi = cost_model.layer_cost(
            LOW_RES_HEAVY, SubAccelerator(Dataflow.SHIDIANNAO, 1024, 32))
        assert dla.latency_cycles < shi.latency_cycles

    def test_shi_beats_dla_on_high_res_layer(self, cost_model):
        dla = cost_model.layer_cost(
            HIGH_RES_LIGHT, SubAccelerator(Dataflow.NVDLA, 1024, 32))
        shi = cost_model.layer_cost(
            HIGH_RES_LIGHT, SubAccelerator(Dataflow.SHIDIANNAO, 1024, 32))
        assert shi.latency_cycles < dla.latency_cycles

    def test_dla_favours_resnet_shi_favours_unet(self, cost_model,
                                                 cifar_space, unet_space):
        """Whole-network check: the paper's 'NVDLA works better for
        ResNets, Shidiannao for U-Nets'."""
        resnet = cifar_space.decode(
            cifar_space.indices_of((32, 128, 2, 256, 2, 256, 2)))
        unet = unet_space.decode((3, 1, 1, 1, 1, 0))
        dla = SubAccelerator(Dataflow.NVDLA, 1024, 32)
        shi = SubAccelerator(Dataflow.SHIDIANNAO, 1024, 32)
        res_dla, _ = cost_model.network_cost_on(resnet, dla)
        res_shi, _ = cost_model.network_cost_on(resnet, shi)
        unet_dla, _ = cost_model.network_cost_on(unet, dla)
        unet_shi, _ = cost_model.network_cost_on(unet, shi)
        assert res_dla < res_shi
        assert unet_shi < unet_dla


class TestMonotonicity:
    @pytest.mark.parametrize("df", list(Dataflow))
    def test_more_pes_never_slower(self, cost_model, df):
        layer = conv(c=64, k=128, hw=16)
        lat = [cost_model.layer_cost(layer, SubAccelerator(df, p, 32))
               .latency_cycles for p in (128, 512, 2048)]
        assert lat[0] >= lat[1] >= lat[2]

    @pytest.mark.parametrize("df", list(Dataflow))
    def test_more_bandwidth_never_slower(self, cost_model, df):
        layer = conv(c=64, k=128, hw=16)
        lat = [cost_model.layer_cost(layer, SubAccelerator(df, 512, b))
               .latency_cycles for b in (8, 32, 64)]
        assert lat[0] >= lat[1] >= lat[2]

    def test_energy_independent_of_bandwidth(self, cost_model):
        layer = conv(c=64, k=128, hw=16)
        e = [cost_model.layer_cost(
                layer, SubAccelerator(Dataflow.NVDLA, 512, b)).energy_nj
             for b in (8, 64)]
        assert e[0] == pytest.approx(e[1])

    def test_low_bandwidth_becomes_memory_bound(self, cost_model):
        layer = conv(c=64, k=128, hw=16)
        cost = cost_model.layer_cost(
            layer, SubAccelerator(Dataflow.NVDLA, 4000, 8))
        assert cost.bound == "memory"


class TestLayerCost:
    def test_latency_includes_launch_overhead(self, cost_model):
        layer = dense_layer("fc", 16, 10)
        cost = cost_model.layer_cost(
            layer, SubAccelerator(Dataflow.NVDLA, 1024, 64))
        assert cost.latency_cycles >= DEFAULT_PARAMS.layer_launch_cycles

    def test_energy_positive_and_dram_dominated(self, cost_model):
        cost = cost_model.layer_cost(
            HIGH_RES_LIGHT, SubAccelerator(Dataflow.NVDLA, 1024, 32))
        dram_energy = cost.dram_bytes * DEFAULT_PARAMS.dram_energy_nj_per_byte
        assert 0 < dram_energy <= cost.energy_nj

    def test_inactive_subacc_rejected(self, cost_model):
        with pytest.raises(ValueError, match="inactive"):
            cost_model.layer_cost(
                HIGH_RES_LIGHT, SubAccelerator(Dataflow.NVDLA, 0, 0))

    def test_network_cost_sums_layers(self, cost_model, cifar_net_small):
        sub = SubAccelerator(Dataflow.NVDLA, 1024, 32)
        total_lat, total_energy = cost_model.network_cost_on(
            cifar_net_small, sub)
        per_layer = [cost_model.layer_cost(l, sub)
                     for l in cifar_net_small.layers]
        assert total_lat == sum(c.latency_cycles for c in per_layer)
        assert total_energy == pytest.approx(
            sum(c.energy_nj for c in per_layer))


def _scalar_tables(layers, subaccs):
    """(durations, energies, working sets) from the scalar oracle."""
    scalar = CostModel()
    grid = [[scalar.layer_cost(layer, sub) for sub in subaccs]
            for layer in layers]
    return tuple(
        np.array([[getattr(cost, name) for cost in row] for row in grid])
        for name in ("latency_cycles", "energy_nj", "working_set_bytes"))


def _assert_tables_equal(got, want):
    for got_table, want_table in zip(got, want):
        assert got_table.dtype == want_table.dtype
        assert np.array_equal(got_table, want_table)


class TestBatchCostTable:
    """The batch path: a batch's distinct cells priced in one vectorised
    pass per dataflow and read by gathers (``CostModel.tables``, behind
    ``MappingProblem.build_many``)."""

    SUBACCS = (SubAccelerator(Dataflow.NVDLA, 2048, 32),
               SubAccelerator(Dataflow.SHIDIANNAO, 1024, 16),
               SubAccelerator(Dataflow.ROW_STATIONARY, 777, 13))

    def _layers(self, cifar_net_small, unet_net_mid):
        return tuple(cifar_net_small.layers) + tuple(unet_net_mid.layers)

    def test_cost_table_bit_identical_to_scalar_oracle(
            self, cifar_net_small, unet_net_mid):
        """Every table cell of the vectorised pass equals the scalar
        per-pair oracle exactly, dtypes included."""
        layers = self._layers(cifar_net_small, unet_net_mid)
        (tables,) = CostModel().tables([(layers, self.SUBACCS)])
        _assert_tables_equal(tables, _scalar_tables(layers, self.SUBACCS))

    def test_hits_and_misses_count_cells(self, cifar_net_small):
        """A batch counts every cell it needs: distinct cells are priced
        (once, however many designs share them), the rest are shared.
        Nothing is kept, so the next batch prices its cells again."""
        layers = tuple(cifar_net_small.layers)
        distinct = len({layer_identity(layer) for layer in layers})
        sub = SubAccelerator(Dataflow.NVDLA, 1024, 32)
        model = CostModel()
        model.tables([(layers, [sub, sub]), (layers, [sub])])
        assert model.priced_cells == distinct
        assert model.shared_cells == 3 * len(layers) - distinct
        model.tables([(layers, [sub])])
        assert model.priced_cells == 2 * distinct

    def test_batch_order_independent_across_designs(self):
        """A configuration whose first design lists shared layers in a
        different order than the batch's first-seen geometry order must
        still price every cell with its own geometry (regression: union
        priming once paired global-order geometry rows with
        per-configuration keys, swapping two layers' costs — found by
        the `evalservice` fuzz pair)."""
        a, b = HIGH_RES_LIGHT, LOW_RES_HEAVY
        sub1 = SubAccelerator(Dataflow.NVDLA, 1024, 32)
        sub2 = SubAccelerator(Dataflow.SHIDIANNAO, 512, 16)
        model = CostModel()
        # sub2 first appears with the layers in reversed order.
        got = model.tables([((a, b), [sub1]), ((b, a), [sub2]),
                            ((a, b), [sub1, sub2])])
        assert model.priced_cells == 4
        _assert_tables_equal(got[1], _scalar_tables((b, a), [sub2]))
        _assert_tables_equal(got[2], _scalar_tables((a, b), [sub1, sub2]))

    def test_memo_keyed_by_geometry_not_name(self):
        """Two layers with identical geometry but different names share
        one priced cell of their batch (layer identity is content, not
        label)."""
        a = conv(c=64, k=64, hw=8)
        b = ConvLayer(name="other-name", in_channels=64, out_channels=64,
                      kernel=3, stride=1, in_height=8, in_width=8)
        sub = SubAccelerator(Dataflow.NVDLA, 1024, 32)
        model = CostModel()
        (tables,) = model.tables([((a, b), [sub])])
        assert (model.shared_cells, model.priced_cells) == (1, 1)
        for table in tables:
            assert table[0, 0] == table[1, 0]

    def test_new_geometries_between_batches_stay_exact(
            self, cifar_net_small, unet_net_mid):
        """Consecutive batches on one model, each bringing a new
        geometry and mixing old and new configurations, stay exact
        (a model that kept state between batches once priced a later
        batch's new geometries from stale rows)."""
        model = CostModel()
        layers = self._layers(cifar_net_small, unet_net_mid) + tuple(
            conv(c, 2 * c, 8) for c in (3, 5, 7, 9, 11))
        extra_sub = SubAccelerator(Dataflow.NVDLA, 96, 3)
        for count in range(1, len(layers) + 1):
            subaccs = self.SUBACCS[count % 3:] + (extra_sub,) * (count > 20)
            batch = layers[:count]
            (tables,) = model.tables([(batch, subaccs)])
            _assert_tables_equal(tables, _scalar_tables(batch, subaccs))

    def test_batched_problem_build_matches_scalar(
            self, cifar_net_small, unet_net_mid, small_accel):
        """MappingProblem.build's default batched tables equal the scalar
        reference path bit for bit."""
        from repro.mapping import MappingProblem
        nets = (cifar_net_small, unet_net_mid)
        batched = MappingProblem.build(nets, small_accel, CostModel())
        scalar = MappingProblem.build(nets, small_accel, CostModel(),
                                      batched=False)
        for name in ("durations", "energies", "working_sets"):
            assert np.array_equal(getattr(batched, name),
                                  getattr(scalar, name)), name

    def test_inactive_subacc_rejected(self, cifar_net_small):
        with pytest.raises(ValueError, match="inactive"):
            CostModel().tables([(tuple(cifar_net_small.layers),
                                 [SubAccelerator(Dataflow.NVDLA, 0, 0)])])


@functools.lru_cache(maxsize=None)
def _design_pool(name: str) -> tuple:
    """Sixteen seeded (networks, accelerator) designs of a preset."""
    from repro.workloads import workload_by_name

    return tuple(sample_design_pairs(workload_by_name(name), n=16, seed=7))


@functools.lru_cache(maxsize=None)
def _scalar_problem(name: str, index: int):
    from repro.mapping import MappingProblem

    return MappingProblem.build(*_design_pool(name)[index], CostModel(),
                                batched=False)


class TestBatchComposition:
    """A design's tables do not depend on what else its batch holds."""

    @given(name=st.sampled_from(["W1", "W3"]),
           batch=st.lists(st.integers(0, 15), min_size=1, max_size=12),
           data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_tables_identical_alone_in_any_batch_and_scalar(
            self, name, batch, data):
        from repro.mapping import MappingProblem

        pool = _design_pool(name)
        position = data.draw(st.integers(0, len(batch) - 1))
        index = batch[position]
        model = CostModel()
        if data.draw(st.booleans()):  # a model that priced batches before
            MappingProblem.build_many(pool[::3], model)
        in_batch = MappingProblem.build_many([pool[i] for i in batch],
                                             model)[position]
        alone = MappingProblem.build(*pool[index], CostModel())
        scalar = _scalar_problem(name, index)
        for name_ in ("durations", "energies", "working_sets"):
            want = getattr(scalar, name_)
            for problem in (in_batch, alone):
                got = getattr(problem, name_)
                assert got.dtype == want.dtype, name_
                assert np.array_equal(got, want), name_


class TestMemoPersistence:
    """Version-2/3 checkpoint snapshots carry the cost memo this model
    no longer keeps: restoring one skips the memo and keeps its counter
    totals, so a resumed run's ``pricing`` block continues them."""

    @staticmethod
    def _restored(memo):
        from repro.core import EvalService
        from suite_helpers import build_hw_evaluator
        from repro.workloads import w1

        with EvalService(build_hw_evaluator(w1())) as service:
            service.evaluate_many(sample_design_pairs(w1(), n=2))
            state = service.state_snapshot()
        del state["cost_cells"]
        state["cost_memo"] = memo
        with EvalService(build_hw_evaluator(w1())) as restored:
            restored.restore_state(state)
            model = restored.evaluator.cost_model
            assert vars(model).keys() == vars(CostModel()).keys()
            return model.shared_cells, model.priced_cells

    def test_version_2_snapshot_loads(self, cifar_net_small):
        """A version-2 memo holds one LayerCost per cell."""
        sub = SubAccelerator(Dataflow.NVDLA, 1024, 32)
        cache = {(layer_identity(layer), "dla", 1024, 32):
                 CostModel().layer_cost(layer, sub)
                 for layer in cifar_net_small.layers}
        assert self._restored({"cache": cache, "hits": 3,
                               "misses": 4}) == (3, 4)

    def test_column_snapshot_restores_counters(self, cifar_net_small):
        """A version-3 memo holds column arrays over geometry ids."""
        identities = [layer_identity(layer)
                      for layer in cifar_net_small.layers]
        columns = {("dla", 1024, 32): (
            np.zeros((6, len(identities)), dtype=np.int64),
            np.zeros((2, len(identities))),
            np.ones(len(identities), dtype=bool))}
        assert self._restored({"identities": identities,
                               "columns": columns, "hits": 5,
                               "misses": 9}) == (5, 9)

    def test_state_byte_snapshot_loads(self, cifar_net_small):
        """Version-3 checkpoints written while the memo was persisted
        carry a state byte per cell instead of a priced flag."""
        identities = [layer_identity(layer)
                      for layer in cifar_net_small.layers]
        columns = {("shi", 512, 16): (
            np.zeros((6, len(identities)), dtype=np.int64),
            np.zeros((2, len(identities))),
            np.full(len(identities), 2, dtype=np.uint8))}
        assert self._restored({"identities": identities,
                               "columns": columns, "hits": 0,
                               "misses": 7}) == (0, 7)


class TestAreaModel:
    def test_area_scales_with_pes(self, cost_model):
        from repro.accel import HeterogeneousAccelerator
        small = HeterogeneousAccelerator(
            (SubAccelerator(Dataflow.NVDLA, 512, 32),))
        big = HeterogeneousAccelerator(
            (SubAccelerator(Dataflow.NVDLA, 4096, 32),))
        assert cost_model.area_um2(big) > cost_model.area_um2(small)

    def test_area_scales_with_bandwidth(self, cost_model):
        from repro.accel import HeterogeneousAccelerator
        lo = HeterogeneousAccelerator(
            (SubAccelerator(Dataflow.NVDLA, 512, 8),))
        hi = HeterogeneousAccelerator(
            (SubAccelerator(Dataflow.NVDLA, 512, 64),))
        assert cost_model.area_um2(hi) > cost_model.area_um2(lo)

    def test_inactive_slot_contributes_nothing(self, cost_model):
        from repro.accel import HeterogeneousAccelerator
        single = HeterogeneousAccelerator(
            (SubAccelerator(Dataflow.NVDLA, 512, 32),))
        padded = HeterogeneousAccelerator(
            (SubAccelerator(Dataflow.NVDLA, 512, 32),
             SubAccelerator(Dataflow.SHIDIANNAO, 0, 0)))
        assert cost_model.area_um2(single) == pytest.approx(
            cost_model.area_um2(padded))

    def test_mapped_working_set_sizes_buffer(self, cost_model,
                                             cifar_net_large):
        from repro.accel import HeterogeneousAccelerator
        acc = HeterogeneousAccelerator(
            (SubAccelerator(Dataflow.NVDLA, 1024, 32),))
        bare = cost_model.area_um2(acc)
        mapped = cost_model.area_um2(
            acc, mapped_layers={0: list(cifar_net_large.layers)})
        assert mapped != bare  # buffer resized to the actual working set


class TestCalibration:
    """Magnitude calibration against Table I (:mod:`repro.cost.params`)."""

    def test_table1_design_area_magnitude(self, cost_model):
        from repro.accel import HeterogeneousAccelerator
        acc = HeterogeneousAccelerator((
            SubAccelerator(Dataflow.NVDLA, 2112, 48),
            SubAccelerator(Dataflow.SHIDIANNAO, 1984, 16)))
        area = cost_model.area_um2(acc)
        # Paper: 4.71e9 um^2; require the same order of magnitude.
        assert 2e9 < area < 8e9

    def test_max_design_violates_4e9_area(self, cost_model):
        from repro.accel import HeterogeneousAccelerator
        acc = HeterogeneousAccelerator(
            (SubAccelerator(Dataflow.NVDLA, 4096, 64),))
        assert cost_model.area_um2(acc) > 4e9  # Table II NAS row violates

    def test_params_validation(self):
        with pytest.raises(ValueError):
            CostModelParams(mac_energy_nj=-1)
        with pytest.raises(ValueError):
            CostModelParams(refetch_cap=0)


class TestNothingRetained:
    """Pricing keeps no cells: after 500 W3 designs the cost model, and
    a cache-less service's checkpoint snapshot, are no larger than
    after one design once the counters they carry are equal."""

    COUNTERS = ("stats", "move_stats", "hardware_evaluations",
                "cost_cells")

    def _priced(self, pairs):
        from repro.core import EvalService
        from suite_helpers import build_hw_evaluator
        from repro.workloads import w3

        service = EvalService(build_hw_evaluator(w3()), cache_size=0)
        for start in range(0, len(pairs), 64):
            service.evaluate_many(pairs[start:start + 64])
        return service

    def test_model_and_snapshot_flat_over_500_designs(self):
        from repro.workloads import w3

        pairs = sample_design_pairs(w3(), n=500, seed=11)
        one, many = self._priced(pairs[:1]), self._priced(pairs)
        small, big = one.evaluator.cost_model, many.evaluator.cost_model
        assert big.priced_cells > 100 * small.priced_cells
        small.shared_cells, small.priced_cells = (big.shared_cells,
                                                  big.priced_cells)
        assert pickle.dumps(big) == pickle.dumps(small)
        snap_one, snap_many = one.state_snapshot(), many.state_snapshot()
        assert snap_one.keys() == snap_many.keys()
        assert snap_many["cost_cells"] == (big.shared_cells,
                                           big.priced_cells)

        def rest(snapshot):
            return {key: value for key, value in snapshot.items()
                    if key not in self.COUNTERS}

        assert pickle.dumps(rest(snap_many)) == pickle.dumps(rest(snap_one))
