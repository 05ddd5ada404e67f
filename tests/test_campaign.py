"""Campaign runner: shared caches cannot change results, and reuse is
measurable.

The load-bearing contract: running scenarios over one shared evaluation
service yields exactly the outcomes the same scenarios produce in
isolation — the cache only changes *when* a pair is priced.  The bonus
the campaign buys — cross-scenario cache hits — is asserted via the
``shared_hits`` accounting and the consolidated JSON.
"""

from __future__ import annotations

import json

import pytest

from repro.core import (
    NASAIC,
    BayesOptSearch,
    EnsembleSearch,
    LocalSearch,
    NASAICConfig,
    EvolutionConfig,
    EvolutionarySearch,
    monte_carlo_search,
)
from repro.core.campaign import (
    Campaign,
    CampaignConfig,
    Scenario,
    campaign_to_dict,
    format_campaign,
    run_campaign,
    save_campaign,
)
from repro.core.serialization import result_to_dict
from repro.workloads import w1

NASAIC_SMALL = NASAICConfig(episodes=3, hw_steps=3, seed=5)
NASAIC_LARGE = NASAICConfig(episodes=5, hw_steps=3, seed=5)


def grid() -> tuple[Scenario, ...]:
    """W1 x {nasaic, evolution, mc} x budgets — nasaic twice with the
    same seed so the larger budget replays the smaller one's prefix."""
    return (
        Scenario("W1", "nasaic", 3, seed=5,
                 options={"config": NASAIC_SMALL}),
        Scenario("W1", "nasaic", 5, seed=5,
                 options={"config": NASAIC_LARGE}),
        Scenario("W1", "evolution", 2, seed=5,
                 options={"config": EvolutionConfig(
                     population=8, generations=2, elite=1, seed=5)}),
        Scenario("W1", "mc", 30, seed=5),
    )


def run_shape(result) -> dict:
    """The outcome facts that must not depend on cache sharing."""
    payload = result_to_dict(result)
    # Cache accounting legitimately differs between shared and private
    # services (that is the point); everything else must be identical.
    for key in ("cache_hits", "cache_misses", "eval_seconds", "pricing"):
        payload.pop(key)
    return payload


@pytest.fixture(scope="module")
def campaign_run():
    with Campaign(CampaignConfig(scenarios=grid())) as campaign:
        yield campaign, campaign.run()


class TestSharingIsSound:
    def test_results_match_standalone_runs(self, campaign_run):
        _, result = campaign_run
        standalone = [
            NASAIC(w1(), config=NASAIC_SMALL).run(),
            NASAIC(w1(), config=NASAIC_LARGE).run(),
            EvolutionarySearch(w1(), config=EvolutionConfig(
                population=8, generations=2, elite=1, seed=5)).run(),
            monte_carlo_search(w1(), runs=30, seed=5),
        ]
        for outcome, reference in zip(result.outcomes, standalone):
            assert run_shape(outcome.result) == run_shape(reference), \
                outcome.scenario.name

    def test_cross_scenario_hits_observed(self, campaign_run):
        _, result = campaign_run
        # The b5 nasaic run replays the b3 run's episodes: its first
        # 3 * (1 + hw_steps) requests are all cross-scenario hits.
        replay = result.outcome("W1/nasaic/b5/s5")
        assert replay.result.pricing.shared_hits >= 12
        assert result.shared_hit_rate > 0.0

    def test_per_scenario_accounting_is_a_delta(self, campaign_run):
        _, result = campaign_run
        # Each scenario reports its own budget, not cache lifetime
        # totals: the per-scenario requests add up to the services'.
        assert sum(outcome.result.pricing.requests
                   for outcome in result.outcomes) \
            == result.cache["requests"]

    def test_services_keyed_by_context(self, campaign_run):
        campaign, _ = campaign_run
        # nasaic+evolution calibrate bounds (one context); mc prices
        # against the raw workload (another).
        assert len(campaign.services) == 2


class TestCampaignJson:
    def test_schema(self, campaign_run, tmp_path):
        _, result = campaign_run
        payload = campaign_to_dict(result)
        assert payload["format"] == "repro-campaign"
        assert payload["version"] == 1
        assert set(payload["cache"]) >= {
            "requests", "hits", "misses", "shared_hits", "hit_rate",
            "shared_hit_rate", "services"}
        assert len(payload["scenarios"]) == 4
        entry = payload["scenarios"][0]
        assert set(entry) >= {"name", "workload", "strategy", "budget",
                              "seed", "rho", "wall_seconds", "eval",
                              "result"}
        path = save_campaign(result, tmp_path / "campaign.json")
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(payload))

    def test_format_renders(self, campaign_run):
        _, result = campaign_run
        text = format_campaign(result)
        assert "W1/nasaic/b5/s5" in text
        assert "cross-scenario" in text


class TestStrategies:
    def test_nas_scenario_runs_without_service(self):
        result = run_campaign(CampaignConfig(scenarios=(
            Scenario("W3", "nas", 4, seed=11),)))
        outcome = result.outcomes[0]
        assert not hasattr(outcome.result, "pricing")
        assert outcome.result.best_weighted > 0
        assert campaign_to_dict(result)["scenarios"][0]["eval"] is None

    def test_pool_mode_matches_sequential(self):
        scenarios = (
            Scenario("W1", "mc", 10, seed=5),
            Scenario("W1", "mc", 10, seed=7),
        )
        sequential = run_campaign(CampaignConfig(scenarios=scenarios))
        pooled = run_campaign(CampaignConfig(scenarios=scenarios,
                                             workers=2))
        for a, b in zip(sequential.outcomes, pooled.outcomes):
            assert run_shape(a.result) == run_shape(b.result)
        # Each worker prices through its own cost model, so the
        # campaign's cost-cell totals are the sum of the scenarios' records.
        for name in ("cost_memo_hits", "cost_memo_misses"):
            total = sum(getattr(o.result.pricing, name)
                        for o in pooled.outcomes)
            assert total > 0
            assert pooled.cache[name] == total

    def test_pool_mode_keeps_custom_cost_model(self):
        """Worker processes must price under the campaign's cost
        parameters, not rebuild defaults."""
        from dataclasses import replace as dc_replace

        from repro.cost.model import CostModel
        from repro.cost.params import DEFAULT_PARAMS

        params = dc_replace(DEFAULT_PARAMS,
                            mac_energy_nj=DEFAULT_PARAMS.mac_energy_nj * 3)
        scenarios = (Scenario("W1", "mc", 6, seed=5),
                     Scenario("W1", "mc", 6, seed=7))
        sequential = run_campaign(CampaignConfig(scenarios=scenarios),
                                  cost_model=CostModel(params))
        pooled = run_campaign(CampaignConfig(scenarios=scenarios,
                                             workers=2),
                              cost_model=CostModel(params))
        for a, b in zip(sequential.outcomes, pooled.outcomes):
            assert run_shape(a.result) == run_shape(b.result)

    def test_rho_sweep_gets_distinct_names(self):
        config = CampaignConfig(scenarios=(
            Scenario("W1", "mc", 5, rho=5.0),
            Scenario("W1", "mc", 5, rho=10.0)))
        names = [s.name for s in config.scenarios]
        assert names == ["W1/mc/b5/s7/rho5", "W1/mc/b5/s7"]


class TestPoolStartMethod:
    """``campaign --workers > 1`` must not assume fork exists (Windows,
    macOS spawn default): fall back to an available start method when
    the jobs pickle, otherwise fail with a clear message."""

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

    def test_campaign_pool_works_without_fork(self, monkeypatch):
        scenarios = (
            Scenario("W1", "mc", 6, seed=5),
            Scenario("W1", "mc", 6, seed=7),
        )
        sequential = run_campaign(CampaignConfig(scenarios=scenarios))
        self._spawn_only(monkeypatch)
        pooled = run_campaign(CampaignConfig(scenarios=scenarios,
                                             workers=2))
        assert len(pooled.outcomes) == len(scenarios)
        for a, b in zip(sequential.outcomes, pooled.outcomes):
            assert run_shape(a.result) == run_shape(b.result)


class TestCrashFlush:
    def test_scenario_crash_mid_grid_flushes_store(self, tmp_path,
                                                   monkeypatch):
        """A scenario dying mid-campaign must leave the persistent
        store holding everything the completed scenarios priced: every
        computed evaluation is appended durably as it is priced, so
        nothing waits for ``close``."""
        import repro.core.campaign as campaign_module
        from repro.core import EvalStore

        store_path = tmp_path / "crash-campaign.store"
        scenarios = (Scenario("W1", "mc", 4, seed=3),
                     Scenario("W1", "mc", 4, seed=4))
        real_mc = campaign_module.monte_carlo_search
        calls = {"n": 0}

        def dying_mc(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise KeyboardInterrupt  # scenario 2 is killed
            return real_mc(*args, **kwargs)

        monkeypatch.setattr(campaign_module, "monte_carlo_search",
                            dying_mc)
        campaign = Campaign(CampaignConfig(scenarios=scenarios,
                                           store_path=store_path))
        with pytest.raises(KeyboardInterrupt):
            campaign.run()
        priced = sum(s.stats.misses for s in campaign.services.values())
        assert priced > 0
        # Release the writer lock as a real crash would, without
        # closing the campaign's services.
        campaign.store.close()
        with EvalStore(store_path, read_only=True) as reopened:
            assert len(reopened) == priced


class TestValidation:
    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            Scenario("W1", "annealing", 5)

    def test_bad_budget(self):
        with pytest.raises(ValueError, match="budget"):
            Scenario("W1", "mc", 0)

    def test_empty_grid(self):
        with pytest.raises(ValueError, match="at least one"):
            CampaignConfig(scenarios=())

    def test_duplicate_names(self):
        with pytest.raises(ValueError, match="not unique"):
            CampaignConfig(scenarios=(
                Scenario("W1", "mc", 5), Scenario("W1", "mc", 5)))


# The five class-style searches share one construction, run and close
# path (``repro.core.driver.JointSearch``); each is checked against the
# same contract with its registry config at a one-round budget.
JOINT_SEARCHES = [NASAIC, EvolutionarySearch, LocalSearch, BayesOptSearch,
                  EnsembleSearch]


def _joint_search(cls, **kwargs):
    """Build ``cls`` on W1 with its registry config (uncalibrated)."""
    from dataclasses import replace

    from repro.core.strategies import strategy_spec

    config = strategy_spec(cls.strategy_name).config_factory(1, 5, 10.0)
    return cls(w1(), config=replace(config, calibrate_bounds=False),
               **kwargs)


def _service(rho: float = 10.0):
    """A service over W1 under the default cost model and ``rho``."""
    from repro.core.evalservice import EvalService
    from repro.core.evaluator import Evaluator
    from repro.cost.model import CostModel

    return EvalService(Evaluator(w1(), CostModel(), trainer=None, rho=rho))


@pytest.mark.parametrize("cls", JOINT_SEARCHES,
                         ids=lambda cls: cls.strategy_name)
class TestSearchConstruction:
    def test_injected_service_context_checked(self, cls):
        with pytest.raises(ValueError, match="context"):
            _joint_search(cls, evalservice=_service(rho=3.0))

    def test_store_ignored_when_service_injected(self, cls, tmp_path):
        from repro.core import EvalStore

        service = _service()
        with EvalStore(tmp_path / "ignored.store") as store:
            search = _joint_search(cls, evalservice=service, store=store)
            assert search.evalservice is service
            assert service.store is None
            search.run()
            search.close()
            assert len(store) == 0

    def test_close_keeps_priced_work_in_owned_store(self, cls, tmp_path):
        from repro.core import EvalStore

        path = tmp_path / "owned.store"
        store = EvalStore(path)
        search = _joint_search(cls, store=store)
        assert search.evalservice.store is store
        # Priced outside the driver: the appends alone must persist it.
        search.evalservice.evaluate_many(search.propose())
        priced = search.evalservice.stats.misses
        search.close()
        store.close()
        with EvalStore(path, read_only=True) as reopened:
            assert len(reopened) == priced > 0

    def test_close_leaves_injected_service_usable(self, cls):
        service = _service()
        closed = []
        service.close = lambda: closed.append(True)
        search = _joint_search(cls, evalservice=service)
        pairs = search.propose()
        search.close()
        assert closed == [], "the injected service belongs to its owner"
        before = service.stats.requests
        assert len(service.evaluate_many(pairs)) == len(pairs)
        assert service.stats.requests == before + len(pairs)

    def test_context_manager_closes(self, cls):
        calls = []
        with _joint_search(cls) as search:
            search.close = lambda: calls.append(True)
        assert calls == [True]
