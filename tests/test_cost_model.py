"""Unit tests for the MAESTRO-substitute cost model.

Beyond correctness of the arithmetic, these tests pin the *orderings* the
search exploits (see :mod:`repro.cost.params`): dataflow affinities,
PE/bandwidth monotonicity, and the Table I magnitude calibration.
"""

import numpy as np
import pytest

from repro.accel import Dataflow, SubAccelerator
from repro.arch import ConvLayer, dense_layer
from repro.cost import (
    CostModel,
    CostModelParams,
    DEFAULT_PARAMS,
    analyze,
    layer_identity,
)


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

    def test_cache_hits(self):
        model = CostModel()
        sub = SubAccelerator(Dataflow.NVDLA, 1024, 32)
        model.layer_cost(HIGH_RES_LIGHT, sub)
        assert model.cache_size == 1
        model.layer_cost(HIGH_RES_LIGHT, sub)
        assert model.cache_size == 1
        model.clear_cache()
        assert model.cache_size == 0

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
    """(durations, energies, working sets) from the scalar oracle on a
    fresh model."""
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
    """The batch path: cost columns filled one vectorised pass per
    dataflow and read by gathers (``CostModel.tables``, behind
    ``MappingProblem.build_many``)."""

    SUBACCS = (SubAccelerator(Dataflow.NVDLA, 2048, 32),
               SubAccelerator(Dataflow.SHIDIANNAO, 1024, 16),
               SubAccelerator(Dataflow.ROW_STATIONARY, 777, 13))

    def _layers(self, cifar_net_small, unet_net_mid):
        return tuple(cifar_net_small.layers) + tuple(unet_net_mid.layers)

    def test_cost_table_bit_identical_to_scalar_oracle(
            self, cifar_net_small, unet_net_mid):
        """Every table cell of the vectorised pass equals the scalar
        per-pair oracle exactly, and so does every LayerCost field read
        back from the columns — computed on separate fresh models so
        neither path can lean on the other's memo."""
        layers = self._layers(cifar_net_small, unet_net_mid)
        model = CostModel()
        (tables,) = model.tables([(layers, self.SUBACCS)])
        _assert_tables_equal(tables, _scalar_tables(layers, self.SUBACCS))
        scalar = CostModel()
        misses = model.memo_misses
        for layer in layers:
            for sub in self.SUBACCS:
                assert model.layer_cost(layer, sub) == \
                    scalar.layer_cost(layer, sub)
        assert model.memo_misses == misses

    def test_memo_shared_across_designs(self, cifar_net_small):
        """Consecutive designs that share sub-accelerator configs reprice
        nothing: the memo is keyed by content, not by design."""
        layers = tuple(cifar_net_small.layers)
        model = CostModel()
        sub_a = SubAccelerator(Dataflow.NVDLA, 2048, 32)
        sub_b = SubAccelerator(Dataflow.SHIDIANNAO, 1024, 16)
        model.tables([(layers, [sub_a, sub_b])])
        misses_after_first = model.memo_misses
        # Second "design" mutates one slot; the other column is all hits.
        sub_c = SubAccelerator(Dataflow.SHIDIANNAO, 512, 16)
        model.tables([(layers, [sub_a, sub_c])])
        assert model.memo_misses <= misses_after_first + len(layers)
        # Third design repeats the first: zero new misses.
        before = model.memo_misses
        model.tables([(layers, [sub_a, sub_b])])
        assert model.memo_misses == before

    def test_memo_shared_between_scalar_and_batch_paths(
            self, cifar_net_small):
        """layer_cost and the batch pass fill the same columns, so
        mixing the paths never reprices a pair — in either order."""
        layers = tuple(cifar_net_small.layers)
        sub = SubAccelerator(Dataflow.NVDLA, 1024, 32)
        model = CostModel()
        model.tables([(layers, [sub])])
        before = model.memo_misses
        for layer in layers:
            model.layer_cost(layer, sub)
        assert model.memo_misses == before
        other = SubAccelerator(Dataflow.NVDLA, 512, 32)
        for layer in layers:
            model.layer_cost(layer, other)
        before = model.memo_misses
        model.tables([(layers, [other])])
        assert model.memo_misses == before

    def test_hits_and_misses_count_cells(self, cifar_net_small):
        """A batch counts every cell it needs: cells priced are misses
        (once, however many designs share them), the rest are hits."""
        layers = tuple(cifar_net_small.layers)
        distinct = len({layer_identity(layer) for layer in layers})
        sub = SubAccelerator(Dataflow.NVDLA, 1024, 32)
        model = CostModel()
        model.tables([(layers, [sub, sub]), (layers, [sub])])
        assert model.memo_misses == distinct
        assert model.memo_hits == 3 * len(layers) - distinct
        assert model.cache_size == distinct

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
        assert model.memo_misses == 4
        _assert_tables_equal(got[1], _scalar_tables((b, a), [sub2]))
        _assert_tables_equal(got[2], _scalar_tables((a, b), [sub1, sub2]))

    def test_memo_keyed_by_geometry_not_name(self):
        """Two layers with identical geometry but different names share
        one memo entry (layer identity is content, not label)."""
        a = conv(c=64, k=64, hw=8)
        b = ConvLayer(name="other-name", in_channels=64, out_channels=64,
                      kernel=3, stride=1, in_height=8, in_width=8)
        sub = SubAccelerator(Dataflow.NVDLA, 1024, 32)
        model = CostModel()
        cost_a = model.layer_cost(a, sub)
        cost_b = model.layer_cost(b, sub)
        assert cost_a == cost_b
        assert (model.memo_hits, model.memo_misses) == (1, 1)

    def test_new_geometries_between_batches_stay_exact(
            self, cifar_net_small, unet_net_mid):
        """Geometries and configurations added after the columns exist
        (stale-geometry regression: a geometry table refreshed only when
        its capacity grew priced a later batch's new ids from stale
        rows).  Each batch brings one new geometry, most without any
        growth, on old and new configurations."""
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


class TestMemoPersistence:
    """Checkpoint snapshots and store records of the cost columns."""

    def test_snapshot_restores_columns_and_counters(self, cifar_net_small):
        layers = tuple(cifar_net_small.layers)
        subaccs = TestBatchCostTable.SUBACCS
        model = CostModel()
        want = model.tables([(layers, subaccs)])
        state = model.memo_state()
        model.tables([(layers + (HIGH_RES_LIGHT,), subaccs)])  # mutate
        restored = CostModel()
        restored.load_memo_state(state)
        assert (restored.memo_hits, restored.memo_misses) == \
            (state["hits"], state["misses"])
        _assert_tables_equal(restored.tables([(layers, subaccs)])[0],
                             want[0])
        assert restored.memo_misses == state["misses"]

    def test_version_2_snapshot_loads(self, cifar_net_small):
        """A version-2 checkpoint holds one LayerCost per cell."""
        layers = tuple(cifar_net_small.layers)
        sub = SubAccelerator(Dataflow.NVDLA, 1024, 32)
        scalar = CostModel()
        cache = {(layer_identity(layer), "dla", 1024, 32):
                 scalar.layer_cost(layer, sub) for layer in layers}
        model = CostModel()
        model.load_memo_state({"cache": cache, "hits": 3, "misses": 4})
        assert model.cache_size == len(cache)
        _assert_tables_equal(model.tables([(layers, [sub])])[0],
                             _scalar_tables(layers, [sub]))
        assert model.memo_misses == 4
        # Cells from an old checkpoint were never known to be persisted.
        assert model.drain_fresh(dict) == cache

    def test_drain_hands_out_fresh_cells_once(self, cifar_net_small):
        layers = tuple(cifar_net_small.layers)
        sub = SubAccelerator(Dataflow.SHIDIANNAO, 512, 16)
        model = CostModel()
        model.tables([(layers, [sub])])
        first = model.drain_fresh(dict)
        assert len(first) == model.cache_size
        scalar = CostModel()
        assert first == {(layer_identity(layer), "shi", 512, 16):
                         scalar.layer_cost(layer, sub) for layer in layers}
        assert model.drain_fresh(dict) == {}
        # Preloaded cells are persisted already: never handed out.
        warm = CostModel()
        warm.preload_memo(first)
        assert warm.cache_size == len(first)
        warm.tables([(layers + (LOW_RES_HEAVY,), [sub])])
        assert set(warm.drain_fresh(dict)) == {
            (layer_identity(LOW_RES_HEAVY), "shi", 512, 16)}

    def test_failed_write_keeps_cells_fresh(self, cifar_net_small):
        model = CostModel()
        model.tables([(tuple(cifar_net_small.layers),
                       [SubAccelerator(Dataflow.NVDLA, 1024, 32)])])

        def broken(entries):
            raise OSError("disk full")

        with pytest.raises(OSError):
            model.drain_fresh(broken)
        assert len(model.drain_fresh(dict)) == model.cache_size


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


class TestMemoBound:
    """What the memo holds: one priced cell per (geometry,
    configuration), reported as its occupancy."""

    def test_occupancy_counts_distinct_cells(self, cifar_net_small):
        layers = tuple(cifar_net_small.layers)
        distinct = len({layer_identity(layer) for layer in layers})
        model = CostModel()
        subs = [SubAccelerator(Dataflow.NVDLA, 1024, 32),
                SubAccelerator(Dataflow.SHIDIANNAO, 1024, 32)]
        model.tables([(layers, subs), (layers, subs[:1])])
        assert model.cache_size == 2 * distinct
        model.layer_cost(HIGH_RES_LIGHT, subs[0])
        assert model.cache_size == 2 * distinct + (
            layer_identity(HIGH_RES_LIGHT)
            not in {layer_identity(layer) for layer in layers})

    def test_occupancy_surfaced_in_pricing_summary(self, cifar_net_small):
        from repro.core import EvalServiceStats

        stats = EvalServiceStats(cost_memo_entries=7)
        assert "7 entries held" in stats.summary()
