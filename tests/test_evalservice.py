"""EvalService: cache-key soundness, accounting, bit-identity.

These tests lock down the evaluation service so future optimisation of
the hardware hot path cannot silently change results: cached and
uncached evaluations of the same design must stay bit-identical (`HardwareEvaluation` is a nest of frozen dataclasses, so
`==` is full structural equality).
"""

from __future__ import annotations

import dataclasses

import pytest

from suite_helpers import build_hw_evaluator as make_evaluator
from suite_helpers import sample_design_pairs
from repro.accel import AllocationSpace
from repro.core import EvalService, Evaluator, design_digest
from repro.cost import CostModel
from repro.utils.rng import new_rng
from repro.workloads import w1


@pytest.fixture(scope="module")
def workload():
    return w1()


@pytest.fixture(scope="module")
def alloc():
    return AllocationSpace()


def sample_pairs(workload, alloc, n, seed=3):
    return sample_design_pairs(workload, alloc, n, seed=seed)


@pytest.fixture(scope="module")
def pairs(workload, alloc):
    return sample_pairs(workload, alloc, 6)


class TestCacheKeys:
    def test_same_design_same_digest(self, workload, alloc):
        a = sample_pairs(workload, alloc, 1, seed=9)[0]
        b = sample_pairs(workload, alloc, 1, seed=9)[0]
        assert a[0] is not b[0]  # distinct objects, equal content
        assert design_digest(*a) == design_digest(*b)

    def test_perturbed_network_changes_digest(self, workload, alloc, pairs):
        nets, accel = pairs[0]
        base = design_digest(nets, accel)
        task = workload.tasks[0]
        for other_seed in range(20):
            other = task.space.decode(
                task.space.random_indices(new_rng(100 + other_seed)))
            if other.genotype != nets[0].genotype:
                perturbed = (other,) + nets[1:]
                assert design_digest(perturbed, accel) != base
                return
        pytest.fail("could not sample a different architecture")

    def test_perturbed_accelerator_changes_digest(self, alloc, pairs):
        nets, accel = pairs[0]
        base = design_digest(nets, accel)
        for other_seed in range(20):
            other = alloc.random_design(new_rng(200 + other_seed))
            if other != accel:
                assert design_digest(nets, other) != base
                return
        pytest.fail("could not sample a different design")

    def test_context_salt_separates_workloads(self, workload, pairs):
        from repro.workloads import w2

        nets, accel = pairs[0]
        svc1 = EvalService(make_evaluator(workload))
        svc2 = EvalService(make_evaluator(w2()))
        assert svc1.digest(nets, accel) != svc2.digest(nets, accel)


class TestAccounting:
    def test_hit_miss_counts(self, workload, pairs):
        service = EvalService(make_evaluator(workload))
        trace = [pairs[i % len(pairs)] for i in range(4 * len(pairs))]
        service.evaluate_many(trace)
        assert service.stats.misses == len(pairs)
        assert service.stats.hits == len(trace) - len(pairs)
        assert service.stats.requests == len(trace)
        assert service.cache_len == len(pairs)
        assert 0.0 < service.stats.hit_rate < 1.0

    def test_single_path_counts(self, workload, pairs):
        service = EvalService(make_evaluator(workload))
        service.evaluate_hardware(*pairs[0])
        service.evaluate_hardware(*pairs[0])
        assert (service.stats.hits, service.stats.misses) == (1, 1)

    def test_evaluator_counts_only_misses(self, workload, pairs):
        evaluator = make_evaluator(workload)
        service = EvalService(evaluator)
        service.evaluate_many([pairs[0], pairs[0], pairs[1]])
        assert evaluator.hardware_evaluations == 2
        assert service.stats.requests == 3

    def test_lru_eviction(self, workload, pairs):
        service = EvalService(make_evaluator(workload), cache_size=2)
        for pair in pairs[:4]:
            service.evaluate_hardware(*pair)
        assert service.cache_len == 2
        assert service.stats.evictions == 2
        # The most recent entries survive.
        service.evaluate_hardware(*pairs[3])
        assert service.stats.hits == 1

    def test_cache_disabled(self, workload, pairs):
        service = EvalService(make_evaluator(workload), cache_size=0)
        service.evaluate_hardware(*pairs[0])
        service.evaluate_hardware(*pairs[0])
        assert service.stats.misses == 2
        assert service.cache_len == 0

    def test_cache_disabled_prices_intra_batch_duplicates(self, workload,
                                                          pairs):
        """cache_size=0 means *no* reuse: batch dedup is off too."""
        evaluator = make_evaluator(workload)
        service = EvalService(evaluator, cache_size=0)
        got = service.evaluate_many([pairs[0], pairs[0], pairs[1]])
        assert (service.stats.misses, service.stats.hits) == (3, 0)
        assert evaluator.hardware_evaluations == 3
        assert got[0] == got[1]

    def test_summary_renders(self, workload, pairs):
        service = EvalService(make_evaluator(workload))
        service.evaluate_many([pairs[0], pairs[0]])
        text = service.stats.summary()
        assert "1 hits" in text and "1 misses" in text

    def test_move_counters_flow_to_run_record(self, workload, pairs):
        """The HAP move-pricing counters travel evaluator ->
        EvalServiceStats -> ``SearchResult.pricing`` -> run-JSON
        ``pricing`` block; ``hap_batched_rounds`` stays in that block as
        a constant 0 because the repository benchmark reads it.  The
        run JSON's key lists are pinned: the benchmark reads them."""
        from repro.core.results import SearchResult
        from repro.core.serialization import result_to_dict

        evaluator = make_evaluator(workload)
        service = EvalService(evaluator)
        service.evaluate_many(pairs)
        stats = service.stats
        moves = evaluator.move_stats
        flow = {
            "hap_moves_priced": moves.moves_priced,
            "hap_moves_pruned": moves.pruned,
            "hap_moves_resumed": moves.resumed,
            "hap_steps_saved": moves.steps_saved,
            "hap_steps_replayed": moves.steps_replayed,
        }
        assert all(flow.values()), flow
        assert {name: getattr(stats, name) for name in flow} == flow

        result = SearchResult(name="probe", pricing=stats.snapshot())
        record = result_to_dict(result)
        assert list(record) == [
            "name", "best", "explored", "trainings_run",
            "trainings_skipped", "hardware_evaluations", "cache_hits",
            "cache_misses", "eval_seconds", "num_feasible", "pricing"]
        pricing = record["pricing"]
        assert list(pricing) == [
            "store_hits", "cost_memo_hits", "cost_memo_misses",
            "hap_moves_priced", "hap_moves_pruned", "hap_moves_resumed",
            "hap_steps_saved", "hap_steps_replayed", "hap_batched_rounds",
            "degraded", "retries", "reconnects"]
        assert {name: pricing[name] for name in flow} == flow
        assert (record["hardware_evaluations"], record["cache_hits"],
                record["cache_misses"], record["eval_seconds"]) == (
            stats.requests, stats.hits, stats.misses, stats.miss_seconds)
        assert pricing["hap_batched_rounds"] == 0
        assert stats.hap_batched_rounds == 0
        assert pricing["degraded"] is False

    def test_unpriced_result_writes_zero_accounting(self):
        from repro.core.results import SearchResult
        from repro.core.serialization import result_to_dict

        record = result_to_dict(SearchResult(name="probe"))
        assert record["hardware_evaluations"] == record["cache_hits"] == 0
        assert record["eval_seconds"] == 0.0
        assert set(record["pricing"].values()) == {0}


class TestBitIdentity:
    def test_cached_equals_uncached(self, workload, pairs):
        """Acceptance criterion: cached results are bit-identical."""
        reference = make_evaluator(workload)
        service = EvalService(make_evaluator(workload))
        trace = [pairs[i % len(pairs)] for i in range(3 * len(pairs))]
        expected = [reference.evaluate_hardware(*p) for p in trace]
        got = service.evaluate_many(trace)
        assert got == expected
        # And via the single-evaluation path too.
        for pair, want in zip(trace, expected):
            assert service.evaluate_hardware(*pair) == want

    def test_hardware_evaluation_fields_compare(self, workload, pairs):
        """Guard: HardwareEvaluation must stay an equality-comparable
        dataclass nest (no NumPy arrays), or the identity assertions
        above would degrade to identity checks."""
        evaluation = make_evaluator(workload).evaluate_hardware(*pairs[0])
        assert dataclasses.is_dataclass(evaluation)
        assert evaluation == dataclasses.replace(evaluation)


class TestLifecycle:
    def test_close_is_idempotent(self, workload, pairs):
        service = EvalService(make_evaluator(workload))
        service.evaluate_many(pairs)
        service.close()
        service.close()


class TestValidation:
    def test_negative_cache_size_rejected(self, workload):
        with pytest.raises(ValueError, match="cache_size"):
            EvalService(make_evaluator(workload), cache_size=-1)

    def test_trainerless_evaluator_guards_training_path(self, workload):
        evaluator = Evaluator(workload, CostModel(), trainer=None)
        with pytest.raises(RuntimeError, match="without a trainer"):
            evaluator.train_networks(())


class TestGenerations:
    """Cross-generation (campaign) accounting and state snapshots."""

    def test_shared_hits_only_across_generations(self, workload, pairs):
        service = EvalService(make_evaluator(workload))
        service.evaluate_many(pairs)
        service.evaluate_many(pairs)  # same-generation hits
        assert service.stats.shared_hits == 0
        service.bump_generation()
        service.evaluate_many(pairs)  # all served from generation 0
        assert service.stats.shared_hits == len(pairs)

    def test_bump_changes_no_result(self, workload, pairs):
        service = EvalService(make_evaluator(workload))
        before = service.evaluate_many(pairs)
        service.bump_generation()
        assert service.evaluate_many(pairs) == before

    def test_stats_delta(self, workload, pairs):
        service = EvalService(make_evaluator(workload))
        service.evaluate_many(pairs)
        start = service.stats.snapshot()
        service.evaluate_many(pairs)
        delta = service.stats.delta(start)
        assert delta.misses == 0
        assert delta.hits == len(pairs)
        assert service.stats.hits == delta.hits + start.hits

    def test_snapshot_restore_roundtrip(self, workload, pairs):
        service = EvalService(make_evaluator(workload))
        expected = service.evaluate_many(pairs)
        state = service.state_snapshot()
        fresh = EvalService(make_evaluator(workload))
        fresh.restore_state(state)
        stats_before = fresh.stats.snapshot()
        got = fresh.evaluate_many(pairs)
        assert got == expected
        # Everything was restored into the cache: zero new misses, and
        # the pre-snapshot counters carried over.
        assert fresh.stats.misses == stats_before.misses
        assert stats_before.misses == service.stats.misses
        assert fresh.evaluator.cost_model.priced_cells \
            == service.evaluator.cost_model.priced_cells


class TestEvictionRobustness:
    def test_mutated_negative_capacity_does_not_crash(self, workload,
                                                      alloc):
        """The constructor rejects a negative capacity; if one sneaks in
        later anyway, eviction must drain the cache, not KeyError."""
        service = EvalService(make_evaluator(workload), cache_size=4)
        pair = sample_pairs(workload, alloc, 1, seed=31)[0]
        service.evaluate_hardware(*pair)
        service.cache_size = -1
        other = sample_pairs(workload, alloc, 1, seed=32)[0]
        service.evaluate_hardware(*other)  # must not raise
        assert service.cache_len == 0
