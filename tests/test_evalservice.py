"""EvalService: cache-key soundness, accounting, parallel equality.

These tests lock down the evaluation service so future optimisation of
the hardware hot path cannot silently change results: cached, uncached,
serial and process-pool evaluations of the same design must stay
bit-identical (`HardwareEvaluation` is a nest of frozen dataclasses, so
`==` is full structural equality).
"""

from __future__ import annotations

import dataclasses

import pytest

from suite_helpers import build_hw_evaluator as make_evaluator
from suite_helpers import die_in_worker, sample_design_pairs
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
        EvalServiceStats -> SearchResult -> run-JSON ``pricing`` block;
        ``hap_batched_rounds`` stays in that block as a constant 0
        because the repository benchmark reads it."""
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

        result = SearchResult(name="probe")
        result.absorb_eval_stats(stats)
        assert {name: getattr(result, name) for name in flow} == flow
        pricing = result_to_dict(result)["pricing"]
        assert {name: pricing[name] for name in flow} == flow
        assert pricing["hap_batched_rounds"] == 0
        assert stats.hap_batched_rounds == 0


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


class TestParallel:
    def test_parallel_equals_serial(self, workload, pairs):
        serial = EvalService(make_evaluator(workload))
        expected = serial.evaluate_many(pairs)
        with EvalService(make_evaluator(workload), workers=2,
                         parallel_threshold=2) as parallel:
            got = parallel.evaluate_many(pairs)
            assert parallel.stats.parallel_evaluations == len(pairs)
        assert got == expected

    def test_parallel_counts_mirrored(self, workload, pairs):
        evaluator = make_evaluator(workload)
        with EvalService(evaluator, workers=2,
                         parallel_threshold=2) as service:
            service.evaluate_many(pairs)
        assert evaluator.hardware_evaluations == len(pairs)

    def test_small_batches_stay_serial(self, workload, pairs):
        with EvalService(make_evaluator(workload), workers=2,
                         parallel_threshold=64) as service:
            service.evaluate_many(pairs)
            assert service.stats.parallel_evaluations == 0

    def test_close_is_idempotent(self, workload):
        service = EvalService(make_evaluator(workload), workers=2)
        service.close()
        service.close()


class TestPoolResilience:
    def test_broken_pool_reprices_serially_then_rebuilds(
            self, workload, alloc, pairs, monkeypatch):
        """A worker dying mid-batch breaks the pool; the batch must be
        repriced serially (bit-identical — pricing is deterministic)
        and the next parallel batch must run on a rebuilt pool."""
        with EvalService(make_evaluator(workload)) as serial:
            want = serial.evaluate_many(pairs)
        with EvalService(make_evaluator(workload), workers=2,
                         parallel_threshold=2) as service:
            # Fork inherits the monkeypatched module global, so every
            # worker dies on its first task.
            monkeypatch.setattr(
                "repro.core.evalservice._eval_in_worker",
                die_in_worker)
            with pytest.warns(RuntimeWarning, match="pool broke"):
                got = service.evaluate_many(pairs)
            assert got == want
            assert service.stats.pool_restarts == 1
            assert "1 pool restarts" in service.stats.pricing_summary()
            # Heal the worker body: the next parallel batch rebuilds
            # the pool lazily and prices in it again.
            monkeypatch.undo()
            fresh = sample_pairs(workload, alloc, 4, seed=23)
            with EvalService(make_evaluator(workload)) as serial:
                fresh_want = serial.evaluate_many(fresh)
            assert service.evaluate_many(fresh) == fresh_want
            assert service.stats.parallel_evaluations == len(fresh)
            assert service.stats.pool_restarts == 1


class TestValidation:
    def test_negative_cache_size_rejected(self, workload):
        with pytest.raises(ValueError, match="cache_size"):
            EvalService(make_evaluator(workload), cache_size=-1)

    def test_negative_workers_rejected(self, workload):
        with pytest.raises(ValueError, match="workers"):
            EvalService(make_evaluator(workload), workers=-1)

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
        assert fresh.evaluator.cost_model.memo_misses \
            == service.evaluator.cost_model.memo_misses


class TestPoolStartMethod:
    """``--workers > 1`` must not assume fork exists (Windows, macOS
    spawn default): fall back to an available start method when the
    closures pickle, otherwise fail with a clear message."""

    @staticmethod
    def _spawn_only(monkeypatch):
        """Make this process look like a spawn-default platform: asking
        for fork raises, the default context is spawn."""
        import multiprocessing

        real_get_context = multiprocessing.get_context

        def no_fork(method=None):
            if method == "fork":
                raise ValueError("cannot find context for 'fork'")
            return real_get_context(method or "spawn")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)

    def test_falls_back_when_fork_unavailable(self, monkeypatch):
        from repro.utils.pool import pool_context

        self._spawn_only(monkeypatch)
        context = pool_context(require_picklable=(int, "payload"))
        assert context.get_start_method() == "spawn"

    def test_unpicklable_closure_fails_clearly(self, monkeypatch):
        from repro.utils.pool import pool_context

        self._spawn_only(monkeypatch)
        with pytest.raises(RuntimeError, match="not picklable"):
            pool_context(require_picklable=(lambda: None,))

    def test_fork_preferred_when_available(self):
        from repro.utils.pool import pool_context

        # The unpicklable closure is irrelevant under fork (state is
        # inherited, not shipped), so this must not raise on POSIX.
        context = pool_context(require_picklable=(lambda: None,))
        assert context.get_start_method() == "fork"

    def test_service_pool_works_without_fork(self, workload, alloc,
                                             monkeypatch):
        self._spawn_only(monkeypatch)
        batch = sample_pairs(workload, alloc, 4, seed=21)
        reference = [make_evaluator(workload).evaluate_hardware(*pair)
                     for pair in batch]
        with EvalService(make_evaluator(workload), workers=2,
                         parallel_threshold=2) as service:
            assert service.evaluate_many(batch) == reference
            assert service.stats.parallel_evaluations == len(batch)


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
