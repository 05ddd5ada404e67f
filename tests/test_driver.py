"""Unified SearchDriver: protocol conformance and checkpoint/resume.

The resume contract is the strong one: a run interrupted after *any*
round and resumed from its checkpoint must be **bit-identical** to the
uninterrupted run — same trajectory (per-episode rewards/penalties,
explored solutions in order), same ``pricing`` block and same summary.
Wall-clock timings (``eval_seconds``) are the single documented
exception: they measure real time, so the comparison zeroes them.
"""

from __future__ import annotations

import pytest

from suite_helpers import build_hw_evaluator, normalised_run
from repro.core import (
    NASAIC,
    NASAICConfig,
    EvolutionConfig,
    EvolutionarySearch,
    SearchDriver,
    SearchStrategy,
)
from repro.core.baselines import _MonteCarloStrategy
from repro.core.evalservice import EvalService
from repro.core.serialization import load_checkpoint, save_checkpoint
from repro.workloads import w1, w3

NASAIC_CONFIG = dict(episodes=5, hw_steps=3, seed=123, joint_batch=2)
EA_CONFIG = dict(population=8, generations=4, elite=1, seed=13)


def normalised(result) -> dict:
    """Run record with the wall-clock measurement zeroed."""
    payload = normalised_run(result)
    payload["episodes"] = [
        (e.episode, e.reward, e.penalty, e.trained, e.hardware_steps,
         e.solution is not None)
        for e in result.episodes]
    payload["summary"] = result.summary()
    return payload


def fresh_nasaic() -> NASAIC:
    return NASAIC(w1(), config=NASAICConfig(**NASAIC_CONFIG))


def fresh_ea() -> EvolutionarySearch:
    return EvolutionarySearch(w3(), config=EvolutionConfig(**EA_CONFIG))


class TestProtocol:
    @pytest.mark.parametrize("factory", [fresh_nasaic, fresh_ea])
    def test_searches_satisfy_protocol(self, factory):
        assert isinstance(factory(), SearchStrategy)

    def test_driver_requires_service_for_proposals(self):
        search = fresh_nasaic()
        driver = SearchDriver(search, None)
        with pytest.raises(RuntimeError, match="no evaluation service"):
            driver.step()

    def test_partial_run_returns_none_then_result(self):
        search = fresh_nasaic()
        driver = SearchDriver(search, search.evalservice)
        assert driver.run(max_rounds=2) is None
        assert driver.round == 2
        result = driver.run()
        assert len(result.episodes) == NASAIC_CONFIG["episodes"]

    def test_batch_size_hint_never_drops_stream_tail(self):
        """A driver batch-size smaller than a stream strategy's chunk
        must stretch the round schedule, not truncate the sweep.  The
        reference streams chunks of 4 itself: the cost-cell counters
        count cells shared within a batch, so they depend on batching."""
        from repro.accel import AllocationSpace

        def run(chunk, batch_size=None):
            workload = w3()
            evaluator = build_hw_evaluator(workload)
            strategy = _MonteCarloStrategy(workload, AllocationSpace(),
                                           evaluator, runs=40, seed=19,
                                           chunk=chunk)
            with EvalService(evaluator) as service:
                return SearchDriver(strategy, service,
                                    batch_size=batch_size).run()

        result = run(16, batch_size=4)
        assert len(result.explored) == 40
        assert normalised(result) == normalised(run(4))

    def test_progress_messages_emitted(self):
        search = fresh_nasaic()
        lines: list[str] = []
        SearchDriver(search, search.evalservice, progress_every=2,
                     progress=lines.append).run()
        assert len(lines) == NASAIC_CONFIG["episodes"] // 2
        assert "episode 2/5" in lines[0]


class TestCrashFlush:
    """A run killed mid-round must not silently drop priced work: the
    per-batch durable appends already persisted every computed
    evaluation, with nothing left to flush."""

    def test_kill_mid_run_retains_completed_pricings(self, tmp_path):
        from repro.core import EvalStore

        store_path = tmp_path / "crash.store"
        with EvalStore(store_path) as store:
            search = NASAIC(w1(), config=NASAICConfig(**NASAIC_CONFIG),
                            store=store)
            real_observe = search.observe
            rounds = {"n": 0}

            def dying_observe(evaluations):
                rounds["n"] += 1
                if rounds["n"] == 3:
                    raise KeyboardInterrupt  # the mid-run kill
                return real_observe(evaluations)

            search.observe = dying_observe
            driver = SearchDriver(search, search.evalservice)
            with pytest.raises(KeyboardInterrupt):
                driver.run()
            priced = search.evalservice.stats.misses
            assert priced > 0
            # Deliberately no search.close(): the crash path must have
            # already made the store consistent.
        with EvalStore(store_path, read_only=True) as reopened:
            assert len(reopened) == priced


class TestCheckpointResume:
    """Interrupt at every possible round; resume must be bit-identical."""

    @pytest.fixture(scope="class")
    def nasaic_reference(self):
        return normalised(fresh_nasaic().run())

    @pytest.fixture(scope="class")
    def ea_reference(self):
        return normalised(fresh_ea().run())

    @pytest.mark.parametrize("interrupt_after",
                             range(1, NASAIC_CONFIG["episodes"]))
    def test_nasaic_resume_bit_identical(self, tmp_path, interrupt_after,
                                         nasaic_reference):
        path = tmp_path / "run.ckpt"
        partial = fresh_nasaic()
        driver = SearchDriver(partial, partial.evalservice,
                              checkpoint_path=path)
        assert driver.run(max_rounds=interrupt_after) is None
        driver.save_checkpoint()
        # "Kill" the process: everything is rebuilt from scratch.
        resumed = fresh_nasaic()
        result = resumed.run(resume_from=path)
        assert normalised(result) == nasaic_reference

    @pytest.mark.parametrize("interrupt_after",
                             range(1, EA_CONFIG["generations"]))
    def test_ea_resume_bit_identical(self, tmp_path, interrupt_after,
                                     ea_reference):
        path = tmp_path / "run.ckpt"
        partial = fresh_ea()
        driver = SearchDriver(partial, partial.evalservice,
                              checkpoint_path=path)
        assert driver.run(max_rounds=interrupt_after) is None
        driver.save_checkpoint()
        resumed = fresh_ea()
        result = resumed.run(resume_from=path)
        assert normalised(result) == ea_reference

    def test_mc_resume_bit_identical(self, tmp_path):
        def parts():
            workload = w3()
            evaluator = build_hw_evaluator(workload)
            from repro.accel import AllocationSpace
            strategy = _MonteCarloStrategy(
                workload, AllocationSpace(), evaluator, runs=60, seed=19,
                chunk=16)
            return strategy, EvalService(evaluator)

        # The reference runs the same chunks: the cost-cell counters
        # count cells shared within a batch, so they depend on batching.
        reference = normalised(SearchDriver(*parts()).run())
        path = tmp_path / "mc.ckpt"
        strategy, service = parts()
        driver = SearchDriver(strategy, service, checkpoint_path=path)
        assert driver.run(max_rounds=2) is None
        driver.save_checkpoint()
        strategy2, service2 = parts()
        driver2 = SearchDriver(strategy2, service2).restore(path)
        assert normalised(driver2.run()) == reference

    @staticmethod
    def _legacy_record(path, version, memo):
        """A two-round NASAIC checkpoint rewritten as a ``version``
        record whose service state carries the cost memo ``memo``
        (its counter totals are the run's) in place of ``cost_cells``."""
        import pickle

        partial = fresh_nasaic()
        driver = SearchDriver(partial, partial.evalservice,
                              checkpoint_path=path)
        driver.run(max_rounds=2)
        driver.save_checkpoint()
        record = pickle.loads(path.read_bytes())
        assert record["version"] == 4
        state = record["service_state"]
        assert "cost_memo" not in state
        hits, misses = state.pop("cost_cells")
        state["cost_memo"] = dict(memo, hits=hits, misses=misses)
        record["version"] = version
        return record

    @staticmethod
    def _columns(state_dtype):
        """A version-3 memo's column arrays over two geometries."""
        import numpy as np

        return {"identities": [(3, 16, 3, 1, 32, 32, False),
                               (16, 16, 3, 1, 32, 32, False)],
                "columns": {("dla", 1024, 32): (
                    np.zeros((6, 2), dtype=np.int64), np.zeros((2, 2)),
                    np.ones(2, dtype=state_dtype))}}

    def test_version_2_checkpoint_resumes_bit_identical(
            self, tmp_path, nasaic_reference):
        """Checkpoints written before the cost memo became column arrays
        (format version 2: one LayerCost per memo cell, evaluations
        whose HAPResult still pickles a schedule) resume exactly."""
        import pickle

        from repro.accel import Dataflow, SubAccelerator
        from repro.cost import CostModel, layer_identity
        from repro.mapping.schedule import Schedule

        path = tmp_path / "run.ckpt"
        layer = w1().tasks[0].space.decode(
            w1().tasks[0].space.smallest_indices()).layers[0]
        cache = {(layer_identity(layer), "dla", 1024, 32):
                 CostModel().layer_cost(
                     layer, SubAccelerator(Dataflow.NVDLA, 1024, 32))}
        record = self._legacy_record(path, 2, {"cache": cache})
        for evaluation in record["service_state"]["cache"].values():
            object.__setattr__(evaluation.hap, "schedule", Schedule(
                entries=(), makespan=evaluation.hap.makespan))
        path.write_bytes(pickle.dumps(record))
        result = fresh_nasaic().run(resume_from=path)
        assert normalised(result) == nasaic_reference

    def test_column_checkpoint_resumes_bit_identical(
            self, tmp_path, nasaic_reference):
        """Version-3 checkpoints store the memo as column arrays with a
        priced flag per cell; the memo is skipped, the run resumes
        exactly."""
        import pickle

        path = tmp_path / "run.ckpt"
        record = self._legacy_record(path, 3, self._columns(bool))
        path.write_bytes(pickle.dumps(record))
        result = fresh_nasaic().run(resume_from=path)
        assert normalised(result) == nasaic_reference

    def test_state_byte_checkpoint_resumes_bit_identical(
            self, tmp_path, nasaic_reference):
        """Version-3 checkpoints written while the cost memo was
        persisted carry a state byte per cell (2 = priced and
        persisted) instead of a priced flag; they resume exactly."""
        import pickle

        path = tmp_path / "run.ckpt"
        record = self._legacy_record(path, 3, self._columns("uint8"))
        path.write_bytes(pickle.dumps(record))
        result = fresh_nasaic().run(resume_from=path)
        assert normalised(result) == nasaic_reference

    def test_flat_pricing_result_resumes_bit_identical(
            self, tmp_path, nasaic_reference):
        """A version-3 checkpoint whose ``SearchResult`` still carries the
        old flat pricing fields and no ``pricing`` attribute finishes to
        the fresh run's record: the driver sets ``pricing`` at finish."""
        import pickle

        path = tmp_path / "run.ckpt"
        record = self._legacy_record(path, 3, self._columns(bool))
        result = record["strategy_state"]["result"]
        del result.__dict__["pricing"]
        result.__dict__.update(
            hardware_evaluations=7, cache_hits=3, cache_misses=4,
            store_hits=0, eval_seconds=0.5, cost_memo_hits=1,
            cost_memo_misses=2, hap_moves_priced=5, hap_moves_pruned=1,
            hap_moves_resumed=1, hap_steps_saved=1, hap_steps_replayed=1,
            degraded=False)
        path.write_bytes(pickle.dumps(record))
        resumed = fresh_nasaic().run(resume_from=path)
        assert normalised(resumed) == nasaic_reference


    def test_periodic_checkpoints_written(self, tmp_path):
        path = tmp_path / "periodic.ckpt"
        search = fresh_nasaic()
        SearchDriver(search, search.evalservice, checkpoint_path=path,
                     checkpoint_every=2).run()
        payload = load_checkpoint(path)
        # The last periodic write lands on the latest mid-run boundary.
        assert payload["round"] == 4
        assert payload["strategy_name"] == "nasaic"


class TestCheckpointValidation:
    def test_wrong_strategy_rejected(self, tmp_path):
        path = tmp_path / "ck.ckpt"
        search = fresh_nasaic()
        driver = SearchDriver(search, search.evalservice,
                              checkpoint_path=path)
        driver.run(max_rounds=1)
        driver.save_checkpoint()
        ea = fresh_ea()
        with pytest.raises(ValueError, match="strategy"):
            SearchDriver(ea, ea.evalservice).restore(path)

    def test_wrong_budget_rejected(self, tmp_path):
        path = tmp_path / "ck.ckpt"
        search = fresh_nasaic()
        driver = SearchDriver(search, search.evalservice,
                              checkpoint_path=path)
        driver.run(max_rounds=1)
        driver.save_checkpoint()
        other = NASAIC(w1(), config=NASAICConfig(
            **{**NASAIC_CONFIG, "episodes": 9}))
        with pytest.raises(ValueError, match="budget"):
            SearchDriver(other, other.evalservice).restore(path)

    def test_wrong_context_rejected(self, tmp_path):
        path = tmp_path / "ck.ckpt"
        search = fresh_nasaic()
        driver = SearchDriver(search, search.evalservice,
                              checkpoint_path=path)
        driver.run(max_rounds=1)
        driver.save_checkpoint()
        other = NASAIC(w1(), config=NASAICConfig(
            **{**NASAIC_CONFIG, "rho": 5.0}))
        with pytest.raises(ValueError, match="context"):
            SearchDriver(other, other.evalservice).restore(path)

    def test_non_checkpoint_file_rejected(self, tmp_path):
        import pickle

        path = tmp_path / "junk.ckpt"
        path.write_bytes(pickle.dumps({"nonsense": True}))
        with pytest.raises(ValueError, match="not a repro"):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        import pickle

        path = tmp_path / "old.ckpt"
        path.write_bytes(pickle.dumps(
            {"format": "repro-checkpoint", "version": 999}))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_save_checkpoint_is_atomic(self, tmp_path):
        path = tmp_path / "atomic.ckpt"
        save_checkpoint(path, {"strategy_name": "x"})
        first = path.read_bytes()
        save_checkpoint(path, {"strategy_name": "y"})
        assert path.read_bytes() != first
        assert not (tmp_path / "atomic.ckpt.tmp").exists()


class TestStoreCheckpointCompose:
    """Persistent store and checkpoint/resume must compose: a run that
    was appending to a store, killed, and resumed against the same
    store stays bit-identical to the uninterrupted run."""

    def test_resume_with_store_bit_identical(self, tmp_path):
        from repro.core import EvalStore

        reference = normalised(fresh_nasaic().run())
        store_path = tmp_path / "run.store"
        ckpt = tmp_path / "run.ckpt"
        with EvalStore(store_path) as store:
            partial = NASAIC(w1(), config=NASAICConfig(**NASAIC_CONFIG),
                             store=store)
            driver = SearchDriver(partial, partial.evalservice,
                                  checkpoint_path=ckpt)
            assert driver.run(max_rounds=2) is None
            driver.save_checkpoint()
        # "Kill" the process; a fresh session reopens the same store.
        with EvalStore(store_path) as store:
            resumed = NASAIC(w1(), config=NASAICConfig(**NASAIC_CONFIG),
                             store=store)
            result = resumed.run(resume_from=ckpt)
            resumed.close()
        assert normalised(result) == reference

        def trajectory_facts(payload: dict) -> dict:
            """Drop the which-tier-answered accounting (a warm start
            legitimately turns misses into store hits)."""
            return {key: value for key, value in payload.items()
                    if key not in ("cache_hits", "cache_misses",
                                   "pricing", "summary")}

        # And a later fresh run warm-starts from everything priced,
        # with an identical trajectory and zero recomputation.
        with EvalStore(store_path) as store:
            warm = NASAIC(w1(), config=NASAICConfig(**NASAIC_CONFIG),
                          store=store)
            assert (trajectory_facts(normalised(warm.run()))
                    == trajectory_facts(reference))
            warm.close()
            assert warm.evalservice.stats.misses == 0
            assert warm.evalservice.stats.store_hits > 0

    def test_checkpoint_records_and_verifies_store_path(self, tmp_path):
        from repro.core import EvalStore
        from repro.core.serialization import load_checkpoint

        store_path = tmp_path / "run.store"
        ckpt = tmp_path / "run.ckpt"
        with EvalStore(store_path) as store:
            search = NASAIC(w1(), config=NASAICConfig(**NASAIC_CONFIG),
                            store=store)
            driver = SearchDriver(search, search.evalservice,
                                  checkpoint_path=ckpt)
            driver.run(max_rounds=1)
            driver.save_checkpoint()
            search.close()
        payload = load_checkpoint(ckpt)
        assert payload["store_path"] == str(store_path.resolve())
        # Resuming without the store (or with a different one) is a
        # configuration mismatch, verified like the context salt.
        bare = fresh_nasaic()
        with pytest.raises(ValueError, match="store"):
            SearchDriver(bare, bare.evalservice).restore(ckpt)


class TestRegistryCheckpointResume:
    """Every fuzz-buildable registry strategy — the six migrated loops
    plus the surrogate zoo — holds the bit-identical resume contract at
    *every* interruption point, surrogate state (model weights, liar
    sets, RNG positions) included."""

    @pytest.fixture(scope="class")
    def scenario(self):
        from repro.workloads import generate_spec
        return generate_spec(2, size_class="tiny").materialize()

    @staticmethod
    def norm(result):
        if isinstance(result, list):  # design-sweep returns evaluations
            return {"evaluations": result}
        return normalised(result)

    @pytest.mark.parametrize("name", [
        s.name for s in __import__(
            "repro.core.strategies.registry",
            fromlist=["registered_strategies"]).registered_strategies()
        if s.fuzz_builder])
    def test_every_interruption_point(self, tmp_path, scenario, name):
        from repro.core.strategies.registry import strategy_spec
        spec = strategy_spec(name)
        strategy, service = spec.fuzz_builder(scenario)
        total = strategy.total_rounds
        with service:
            reference = self.norm(SearchDriver(strategy, service).run())
        assert total >= 2, "fuzz builder must allow an interruption"
        for stop in range(1, total):
            ckpt = tmp_path / f"{name}-{stop}.ckpt"
            strategy, service = spec.fuzz_builder(scenario)
            with service:
                driver = SearchDriver(strategy, service,
                                      checkpoint_path=ckpt)
                assert driver.run(max_rounds=stop) is None
                driver.save_checkpoint()
            strategy, service = spec.fuzz_builder(scenario)
            with service:
                resumed = self.norm(
                    SearchDriver(strategy, service).restore(ckpt).run())
            assert resumed == reference, \
                f"{name}: resume at round {stop}/{total} diverged"

    def test_warm_store_resume_bit_identical(self, tmp_path):
        """Kill-and-resume of a store-warmed zoo strategy: the warm
        training set, the refit surrogate and the RNG positions all
        come back bit-identical from the checkpoint."""
        from repro.core import EvalStore
        from repro.core.strategies import (
            BayesOptConfig, BayesOptSearch, LocalSearchConfig,
            LocalSearch)

        store_path = tmp_path / "warm.store"
        with EvalStore(store_path) as store:
            seeder = LocalSearch(w1(), config=LocalSearchConfig(
                rounds=2, batch=3, seed=5, calibrate_bounds=False),
                store=store)
            seeder.run()
            seeder.close()

        config = BayesOptConfig(rounds=3, batch=2, candidates=16,
                                seed=7, calibrate_bounds=False)

        def fresh():
            with EvalStore(store_path, read_only=True) as warm_store:
                search = BayesOptSearch(w1(), config=config,
                                        warm_store=warm_store)
            return search

        search = fresh()
        assert search.warm_samples > 0
        reference = normalised(SearchDriver(
            search, search.evalservice).run())
        search.close()
        for stop in (1, 2):
            ckpt = tmp_path / f"warm-{stop}.ckpt"
            search = fresh()
            driver = SearchDriver(search, search.evalservice,
                                  checkpoint_path=ckpt)
            assert driver.run(max_rounds=stop) is None
            driver.save_checkpoint()
            search.close()
            search = fresh()
            resumed = normalised(SearchDriver(
                search, search.evalservice).restore(ckpt).run())
            search.close()
            assert resumed == reference, \
                f"warm resume at round {stop} diverged"
