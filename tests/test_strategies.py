"""Strategy registry + surrogate-guided zoo (ISSUE 9).

The registry is the single wiring point: campaign and CLI name lists
are live views that cannot diverge, checkpoint schemas are declared
next to the builder that produces them, and the zoo strategies
warm-train from the persistent :class:`EvalStore` without that data
ever leaking into a run's explored record.
"""

from __future__ import annotations

import pytest

from suite_helpers import build_hw_evaluator, sample_design_pairs
from repro.accel import AllocationSpace
from repro.cli import _STRATEGY_CHOICES
from repro.core import EvalStore
from repro.core.campaign import (
    STRATEGIES,
    CampaignConfig,
    Scenario,
    campaign_to_dict,
    run_campaign,
)
from repro.core.evalservice import EvalService
from repro.core.serialization import result_to_dict
from repro.core.strategies import registry as registry_module
from repro.core.strategies import (
    BayesOptConfig,
    BayesOptSearch,
    EnsembleConfig,
    EnsembleSearch,
    LocalSearchConfig,
    LocalSearch,
    StrategySpec,
    register_strategy,
    registered_strategies,
    strategy_names,
    strategy_spec,
)
from repro.workloads import generate_spec, w1

ALL_NAMES = ("nasaic", "evolution", "mc", "nas", "hw-nas", "local",
             "bayesopt", "ensemble", "design-sweep")

LOCAL_SMALL = LocalSearchConfig(rounds=2, batch=3, seed=5,
                                calibrate_bounds=False)
BAYES_SMALL = BayesOptConfig(rounds=2, batch=2, candidates=16, seed=7,
                             calibrate_bounds=False)
ENSEMBLE_SMALL = EnsembleConfig(rounds=2, batch=2, candidates=16,
                                models=3, epochs=30, seed=9,
                                calibrate_bounds=False)


class TestRegistry:
    def test_builtin_strategies_registered(self):
        assert strategy_names() == ALL_NAMES

    def test_campaign_only_excludes_library_blocks(self):
        names = strategy_names(campaign_only=True)
        assert "design-sweep" not in names
        assert "nasaic" in names and "ensemble" in names

    def test_duplicate_name_rejected(self):
        existing = registered_strategies()[0]
        with pytest.raises(ValueError, match="already registered"):
            register_strategy(existing)

    def test_unknown_spec_lists_registered_names(self):
        with pytest.raises(KeyError, match="nasaic"):
            strategy_spec("annealing")

    def test_campaign_and_cli_views_can_never_diverge(self):
        """The regression the registry exists to prevent: a strategy
        registered (by a future PR or a plugin) is immediately a valid
        campaign strategy AND a valid CLI token — both name lists are
        live views over the same registry."""
        assert list(STRATEGIES) == list(_STRATEGY_CHOICES)
        probe = StrategySpec(
            name="test-probe", description="test-only probe",
            budget_unit="rounds", campaign_runner=lambda ctx: None)
        register_strategy(probe)
        try:
            assert "test-probe" in STRATEGIES
            assert "test-probe" in _STRATEGY_CHOICES
            assert list(STRATEGIES) == list(_STRATEGY_CHOICES)
            # Scenario validation consumes the same view.
            Scenario("W1", "test-probe", 1)
        finally:
            registry_module._REGISTRY.pop("test-probe")
        assert "test-probe" not in STRATEGIES
        assert "test-probe" not in _STRATEGY_CHOICES

    def test_scenario_error_names_every_strategy(self):
        with pytest.raises(ValueError) as excinfo:
            Scenario("W1", "annealing", 5)
        for name in strategy_names(campaign_only=True):
            assert name in str(excinfo.value)


class TestCheckpointSchema:
    """Each spec's declared ``checkpoint_keys`` must match what the
    strategy actually snapshots — the registry doubles as the
    checkpoint-schema documentation."""

    @pytest.fixture(scope="class")
    def scenario(self):
        return generate_spec(2, size_class="tiny").materialize()

    @pytest.mark.parametrize(
        "name", [s.name for s in registered_strategies() if s.fuzz_builder])
    def test_state_matches_declared_keys(self, scenario, name):
        spec = strategy_spec(name)
        strategy, service = spec.fuzz_builder(scenario)
        with service:
            assert tuple(strategy.state()) == spec.checkpoint_keys

    def test_zoo_model_state_is_strategy_specific(self, scenario):
        for name, key in (("local", "stall"), ("bayesopt", "liars"),
                          ("ensemble", "ensemble")):
            strategy, service = strategy_spec(name).fuzz_builder(scenario)
            with service:
                assert key in strategy.state()["model"]


class TestZooWarmStart:
    @pytest.fixture()
    def seeded_store(self, tmp_path):
        """A store populated by one cold local-search run on W1."""
        path = tmp_path / "warm.store"
        with EvalStore(path) as store:
            cold = LocalSearch(w1(), config=LOCAL_SMALL, store=store)
            cold.run()
            cold.close()
        return path

    def test_salt_matching_records_pretrain_the_model(self, seeded_store):
        with EvalStore(seeded_store, read_only=True) as store:
            warm = BayesOptSearch(w1(), config=BAYES_SMALL,
                                  warm_store=store)
            try:
                assert warm.warm_samples > 0
                assert len(warm._genes) == warm.warm_samples
                assert warm._incumbent is not None
                # Warm records feed the model only — nothing explored.
                assert warm._result.explored == []
            finally:
                warm.close()

    def test_other_context_records_are_skipped(self, seeded_store):
        """A different rho is a different evaluation context: its
        records must not leak into the warm training set."""
        config = BayesOptConfig(rounds=2, batch=2, candidates=16,
                                seed=7, rho=5.0, calibrate_bounds=False)
        with EvalStore(seeded_store, read_only=True) as store:
            warm = BayesOptSearch(w1(), config=config, warm_store=store)
            try:
                assert warm.warm_samples == 0
            finally:
                warm.close()

    def test_warm_start_changes_round_zero(self, seeded_store):
        """With an incumbent decoded from the store, local search's
        first batch climbs instead of sampling at random."""
        cold = LocalSearch(w1(), config=LocalSearchConfig(
            rounds=1, batch=3, seed=21, calibrate_bounds=False))
        with EvalStore(seeded_store, read_only=True) as store:
            warm = LocalSearch(w1(), config=LocalSearchConfig(
                rounds=1, batch=3, seed=21, calibrate_bounds=False),
                warm_store=store)
        try:
            cold_result = cold.run()
            warm_result = warm.run()
        finally:
            cold.close()
            warm.close()
        cold_genes = [s.accelerator for s in cold_result.explored]
        warm_genes = [s.accelerator for s in warm_result.explored]
        assert cold_genes != warm_genes


class TestZooInCampaign:
    """Registered zoo strategies inherit campaigns with zero wiring."""

    def test_campaign_matches_standalone(self):
        result = run_campaign(CampaignConfig(scenarios=(
            Scenario("W1", "local", 2, seed=5,
                     options={"config": LOCAL_SMALL}),
            Scenario("W1", "bayesopt", 2, seed=7,
                     options={"config": BAYES_SMALL}),
            Scenario("W1", "ensemble", 2, seed=9,
                     options={"config": ENSEMBLE_SMALL}),
        )))
        standalone = []
        for cls, config in ((LocalSearch, LOCAL_SMALL),
                            (BayesOptSearch, BAYES_SMALL),
                            (EnsembleSearch, ENSEMBLE_SMALL)):
            search = cls(w1(), config=config)
            standalone.append(search.run())
            search.close()

        def shape(run):
            payload = result_to_dict(run)
            for key in ("cache_hits", "cache_misses", "eval_seconds",
                        "pricing"):
                payload.pop(key)
            return payload

        for outcome, reference in zip(result.outcomes, standalone):
            assert shape(outcome.result) == shape(reference), \
                outcome.scenario.name

    def test_hw_nas_campaign_scenario_runs(self):
        result = run_campaign(CampaignConfig(scenarios=(
            Scenario("W1", "hw-nas", 2, seed=5),)))
        outcome = result.outcomes[0]
        assert len(outcome.result.explored) == 2
        assert outcome.result.pricing.requests > 0


class TestStoreScaleMetrics:
    """Store entry count and on-disk bytes are first-class gauges in the
    service stats and the campaign JSON cache block.  They stay out of
    the rendered summary, which every run prints: a store-backed run
    summarises exactly like a storeless one."""

    def _priced_service(self, store):
        workload = w1()
        evaluator = build_hw_evaluator(workload)
        pairs = sample_design_pairs(workload, AllocationSpace(), n=4,
                                    seed=3)
        service = EvalService(evaluator, store=store)
        service.evaluate_many(pairs)
        return service, pairs

    def test_gauges_track_the_attached_store(self, tmp_path):
        with EvalStore(tmp_path / "scale.store") as store:
            service, _ = self._priced_service(store)
            with service:
                stats = service.stats
                assert stats.store_entries == len(store) > 0
                assert stats.store_bytes == store.size_bytes > 0
                summary = stats.summary()
                assert f"{stats.store_entries} entries" not in summary
                assert f"{stats.store_bytes} B" not in summary

    def test_no_store_keeps_summary_unchanged(self):
        workload = w1()
        evaluator = build_hw_evaluator(workload)
        pairs = sample_design_pairs(workload, AllocationSpace(), n=2,
                                    seed=3)
        with EvalService(evaluator) as service:
            service.evaluate_many(pairs)
            assert service.stats.store_entries == 0
            assert "store" not in service.stats.summary()

    def test_delta_carries_gauges_not_differences(self, tmp_path):
        """Like ``degraded``, store scale is state: a per-scenario
        delta must report the store's current size, not zero."""
        workload = w1()
        evaluator = build_hw_evaluator(workload)
        pairs = sample_design_pairs(workload, AllocationSpace(), n=4,
                                    seed=3)
        with EvalStore(tmp_path / "delta.store") as store:
            with EvalService(evaluator, store=store) as service:
                service.evaluate_many(pairs[:2])
                before = service.stats.snapshot()
                service.evaluate_many(pairs[2:])
                diff = service.stats.delta(before)
                assert diff.store_entries == service.stats.store_entries
                assert diff.store_bytes == service.stats.store_bytes
                assert diff.store_entries > before.store_entries

    def test_campaign_json_reports_store_scale(self, tmp_path):
        result = run_campaign(CampaignConfig(
            scenarios=(Scenario("W1", "mc", 6, seed=3),),
            store_path=tmp_path / "campaign.store"))
        cache = campaign_to_dict(result)["cache"]
        assert cache["store_entries"] > 0
        assert cache["store_bytes"] > 0

    def test_campaign_json_without_store_reports_zero(self):
        result = run_campaign(CampaignConfig(
            scenarios=(Scenario("W1", "mc", 4, seed=3),)))
        cache = campaign_to_dict(result)["cache"]
        assert cache["store_entries"] == 0
        assert cache["store_bytes"] == 0


class TestStoreIteration:
    def test_iter_evaluations_filters_by_salt_and_dedups(self, tmp_path):
        with EvalStore(tmp_path / "iter.store") as store:
            workload = w1()
            evaluator = build_hw_evaluator(workload)
            pairs = sample_design_pairs(workload, AllocationSpace(),
                                        n=3, seed=3)
            with EvalService(evaluator, store=store) as service:
                service.evaluate_many(pairs)
                salt = service.context_salt
            records = list(store.iter_evaluations(salt))
            assert len(records) == len(store)
            keys = [key for key, _ in records]
            assert len(set(keys)) == len(keys)
            assert list(store.iter_evaluations("no-such-salt")) == []
