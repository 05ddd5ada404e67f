"""Campaign runner: grids of search scenarios over shared caches.

The paper's results are campaigns, not runs: Tables 1-2 and Fig. 6 each
need several searches (different workloads, different optimisers,
different budgets) whose outcomes are compared side by side.  This
module executes such a grid through the unified
:class:`repro.core.driver.SearchDriver` machinery:

- a :class:`Scenario` names one run: workload preset x strategy x
  budget (plus seed/rho and optional overrides);
- a :class:`Campaign` executes the grid **sequentially over shared
  evaluation services** — scenarios with the same evaluation context
  (same workload specs/bounds, cost parameters and rho) reuse one
  :class:`~repro.core.evalservice.EvalService`, so designs priced by an
  earlier scenario are cache hits for later ones
  (``stats.shared_hits``) — or **on a process pool** (``workers > 1``),
  where scenarios run isolated (own service each; no cross-scenario
  cache, but true parallelism on multi-core machines);
- with ``store_path`` set, one persistent
  :class:`~repro.core.store.EvalStore` spans the whole grid in **both**
  modes — sequential scenarios share it directly; pool workers read it
  and append to per-worker shards merged afterwards — so a campaign
  also warm-starts from every *earlier* campaign that used the store
  (``stats.store_hits``);
- the outcome is a consolidated :class:`CampaignResult` with one entry
  per scenario (result + per-scenario eval-stats delta + wall-clock)
  that serialises to a single campaign JSON consumed by the experiment
  harnesses and the CLI.

Campaign JSON schema (``campaign_to_dict``)::

    {"format": "repro-campaign", "version": 1,
     "wall_seconds": ...,
     "cache": {"services": n, "requests": ..., "hits": ...,
               "misses": ..., "shared_hits": ..., "store_hits": ...,
               "hit_rate": ..., "shared_hit_rate": ...,
               "store_hit_rate": ..., "entries": ...,
               "store_entries": ..., "store_bytes": ...},
     "scenarios": [
        {"name": "W1/nasaic/b4/s7", "workload": "W1",
         "strategy": "nasaic", "budget": 4, "seed": 7, "rho": 10.0,
         "wall_seconds": ...,
         "eval": {"requests": ..., "hits": ..., "misses": ...,
                  "shared_hits": ..., "store_hits": ...,
                  "miss_seconds": ...},
         "result": {... run JSON (result_to_dict) or NAS summary ...}},
        ...]}

Correctness: sharing a service cannot change any scenario's outcome —
services are keyed by the exact evaluation-context salt and the
hardware path is deterministic, so a shared cache only changes *when*
a pair is priced, never its value.  ``tests/test_campaign.py`` asserts
shared-vs-isolated bit-identity.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from repro.utils.pool import pool_context

from repro.accel.allocation import AllocationSpace
from repro.core.baselines import (
    NASOnlyResult,
    hardware_aware_nas,
    monte_carlo_search,
    run_nas_per_task,
)
from repro.core.bounds_calibration import calibrate_penalty_bounds
from repro.core.evaluator import Evaluator
from repro.core.evalservice import (
    EvalService,
    EvalServiceStats,
    evaluation_context_salt,
)
from repro.core.evolution import EvolutionConfig, EvolutionarySearch
from repro.core.results import SearchResult
from repro.core.search import NASAIC, NASAICConfig
from repro.core.serialization import result_to_dict
from repro.core.store import EvalStore
from repro.core.strategies.registry import (
    CampaignContext,
    StrategyNames,
    strategy_spec,
)
from repro.core.strategies.zoo import (
    BayesOptSearch,
    EnsembleSearch,
    LocalSearch,
)
from repro.cost.model import CostModel
from repro.utils.tables import format_table
from repro.workloads import workload_by_name
from repro.workloads.workload import Workload

__all__ = ["Campaign", "CampaignConfig", "CampaignResult", "Scenario",
           "ScenarioOutcome", "campaign_to_dict", "format_campaign",
           "run_campaign", "save_campaign"]

#: Strategy kinds a scenario may name — a *live view* over the strategy
#: registry (campaign-runnable specs only), so registering a new
#: :class:`~repro.core.strategies.registry.StrategySpec` makes it a
#: valid scenario strategy with no edit here.
STRATEGIES = StrategyNames(campaign_only=True)


@dataclass(frozen=True)
class Scenario:
    """One cell of the campaign grid.

    Attributes:
        workload: Preset name (``"W1"``...) or a :class:`Workload`
            object (experiment harnesses pass derived workloads).
        strategy: One of :data:`STRATEGIES`.
        budget: Strategy-native budget — NASAIC episodes, EA
            generations, MC runs, NAS episodes.
        seed: Master seed of the run (threaded verbatim, see
            :mod:`repro.utils.rng`).
        rho: Eq. 4 penalty coefficient (part of the evaluation context,
            hence of the cache-sharing key).
        label: Optional display name; defaults to
            ``workload/strategy/b<budget>/s<seed>``.
        options: Expert overrides — ``config`` (full strategy config
            object; wins over budget/seed/rho), ``allocation``
            (:class:`AllocationSpace`), ``surrogate`` (shared accuracy
            oracle).  Objects, so campaigns built programmatically can
            reuse experiment fixtures; CLI campaigns leave it empty.
    """

    workload: str | Workload
    strategy: str
    budget: int
    seed: int = 7
    rho: float = 10.0
    label: str = ""
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; expected one of "
                f"{STRATEGIES}")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")

    @property
    def workload_name(self) -> str:
        return (self.workload if isinstance(self.workload, str)
                else self.workload.name)

    @property
    def name(self) -> str:
        if self.label:
            return self.label
        name = (f"{self.workload_name}/{self.strategy}"
                f"/b{self.budget}/s{self.seed}")
        # Non-default rho is part of the grid cell's identity, so a rho
        # sweep gets distinct names without needing explicit labels.
        if self.rho != 10.0:
            name += f"/rho{self.rho:g}"
        return name


@dataclass(frozen=True)
class CampaignConfig:
    """Campaign-wide execution knobs.

    Attributes:
        scenarios: The grid, executed in order (sequential mode).
        cache_size: LRU capacity of every shared evaluation service.
        workers: Scenario-level process-pool width.  ``0``/``1`` runs
            sequentially with shared caches (the default, and the right
            choice whenever cross-scenario reuse matters more than
            parallelism); ``> 1`` runs scenarios in worker processes,
            each with an isolated service.
        store_path: Optional persistent evaluation store
            (:class:`repro.core.store.EvalStore`) spanning the whole
            grid: scenarios warm-start from designs priced by earlier
            runs *and* earlier campaigns, and computed misses are
            appended durably.  One store serves both execution modes —
            sequentially every service shares it; on a process pool
            each worker reads it and appends to a private shard that is
            merged back after the pool completes (each file keeps
            exactly one writer, which the store's advisory writer lock
            now enforces).
    """

    scenarios: tuple[Scenario, ...]
    cache_size: int = 4096
    workers: int = 0
    store_path: str | Path | None = None

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ValueError("campaign needs at least one scenario")
        names = [s.name for s in self.scenarios]
        if len(set(names)) != len(names):
            raise ValueError(f"scenario names are not unique: {names}")
        if self.cache_size < 0 or self.workers < 0:
            raise ValueError("cache_size/workers must be >= 0")


@dataclass
class ScenarioOutcome:
    """One scenario's result and wall time.  Its pricing record is the
    result's own ``pricing`` (``SearchResult.pricing``; a
    ``NASOnlyResult`` prices no hardware)."""

    scenario: Scenario
    result: Any  # SearchResult | NASOnlyResult
    wall_seconds: float

    def to_dict(self) -> dict[str, Any]:
        scenario = self.scenario
        eval_block = None
        stats = _pricing(self.result)
        if stats is not None:
            eval_block = {
                "requests": stats.requests,
                "hits": stats.hits,
                "misses": stats.misses,
                "shared_hits": stats.shared_hits,
                "store_hits": stats.store_hits,
                "miss_seconds": stats.miss_seconds,
            }
        return {
            "name": scenario.name,
            "workload": scenario.workload_name,
            "strategy": scenario.strategy,
            "budget": scenario.budget,
            "seed": scenario.seed,
            "rho": scenario.rho,
            "wall_seconds": self.wall_seconds,
            "eval": eval_block,
            "result": _result_payload(self.result),
        }


def _pricing(result: Any) -> EvalServiceStats | None:
    """A scenario result's pricing record (``None`` for accuracy-only
    results, which price no hardware)."""
    return result.pricing if isinstance(result, SearchResult) else None


def _result_payload(result: Any) -> dict[str, Any]:
    if isinstance(result, SearchResult):
        return result_to_dict(result)
    if isinstance(result, NASOnlyResult):
        return {
            "best_weighted": result.best_weighted,
            "best_accuracies": list(result.best_accuracies),
            "best_genotypes": [list(n.genotype)
                               for n in result.best_networks],
            "trainings_run": result.trainings_run,
            "episodes": len(result.history),
        }
    raise TypeError(f"cannot serialise result of type {type(result)!r}")


@dataclass
class CampaignResult:
    """Consolidated outcome of one campaign run."""

    outcomes: list[ScenarioOutcome]
    wall_seconds: float
    cache: dict[str, Any]

    def outcome(self, name: str) -> ScenarioOutcome:
        for outcome in self.outcomes:
            if outcome.scenario.name == name:
                return outcome
        raise KeyError(f"no scenario named {name!r}")

    @property
    def shared_hit_rate(self) -> float:
        """Fraction of hardware requests answered from an earlier
        scenario's cache entries (0 in isolated/pool mode)."""
        return self.cache["shared_hit_rate"]


class Campaign:
    """Executes a scenario grid (see module docstring).

    Args:
        config: The grid and execution knobs.
        cost_model: Optional campaign-wide cost oracle, shared by every
            service (its cell counters are the campaign's totals).  A
            fresh one by default.
        store: Optional already-open persistent evaluation store; wins
            over ``config.store_path`` and stays owned by the caller
            (pool workers inject their shard store this way).
    """

    def __init__(self, config: CampaignConfig,
                 *, cost_model: CostModel | None = None,
                 store: EvalStore | None = None) -> None:
        self.config = config
        self.cost_model = cost_model or CostModel()
        self._owns_store = store is None and config.store_path is not None
        self.store = (store if store is not None
                      else EvalStore(Path(config.store_path))
                      if config.store_path is not None else None)
        #: Shared services keyed by evaluation-context salt (sequential
        #: mode only); inspectable after :meth:`run`.
        self.services: dict[str, EvalService] = {}

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> CampaignResult:
        """Execute every scenario and consolidate the outcomes."""
        started = time.perf_counter()
        if self.config.workers > 1 and len(self.config.scenarios) > 1:
            outcomes = self._run_pool()
        else:
            outcomes = [self._run_one(scenario)
                        for scenario in self.config.scenarios]
        return CampaignResult(
            outcomes=outcomes,
            wall_seconds=time.perf_counter() - started,
            cache=self._cache_totals(outcomes))

    def _run_one(self, scenario: Scenario) -> ScenarioOutcome:
        workload = self._resolve_workload(scenario)
        options = scenario.options
        surrogate = options.get("surrogate")
        spec = strategy_spec(scenario.strategy)
        started = time.perf_counter()
        if not spec.uses_service:
            context = CampaignContext(
                workload=workload, allocation=None,
                cost_model=self.cost_model, surrogate=surrogate,
                config=None, budget=scenario.budget, seed=scenario.seed,
                rho=scenario.rho, service=None, store=None)
            result: Any = spec.campaign_runner(context)
            return ScenarioOutcome(scenario, result,
                                   time.perf_counter() - started)
        allocation = options.get("allocation") or AllocationSpace()
        config = self._strategy_config(scenario)
        rho = config.rho if config is not None else scenario.rho
        eval_workload = self._evaluation_workload(workload, allocation,
                                                  config)
        service = self._service_for(eval_workload, rho)
        service.bump_generation()
        # The campaign already calibrated the penalty bounds (they key
        # the service); hand the search the calibrated workload with
        # calibration switched off so the sweep is not paid twice.
        if config is not None and getattr(config, "calibrate_bounds",
                                          False):
            config = replace(config, calibrate_bounds=False)
        context = CampaignContext(
            workload=eval_workload, allocation=allocation,
            cost_model=self.cost_model, surrogate=surrogate,
            config=config, budget=scenario.budget, seed=scenario.seed,
            rho=rho, service=service, store=self.store)
        result = spec.campaign_runner(context)
        return ScenarioOutcome(scenario, result,
                               time.perf_counter() - started)

    def _run_pool(self) -> list[ScenarioOutcome]:
        # Each worker rebuilds the campaign's cost oracle from its
        # parameters, so pooled scenarios price exactly like sequential
        # ones (only the in-memory cache sharing is lost).  With a
        # persistent store, workers read the main file and append to a
        # private shard each (index = scenario position) — merged back
        # below, so the pool stays single-writer per file.
        main_path = (str(self.store.path)
                     if self.store is not None else None)
        jobs = [(scenario, self.config.cache_size, self.cost_model.params,
                 main_path,
                 f"{main_path}.shard{index}" if main_path else None)
                for index, scenario in enumerate(self.config.scenarios)]
        ctx = pool_context(
            require_picklable=(_run_scenario_isolated, *jobs))
        # Workers load the main store read-only under a shared lock, so
        # the parent's exclusive writer claim steps aside for the pool
        # phase (it appends nothing until the merge below) and is
        # re-taken before merging the shards back.
        if self.store is not None:
            self.store.downgrade_lock()
        try:
            with ProcessPoolExecutor(max_workers=self.config.workers,
                                     mp_context=ctx) as pool:
                outcomes = list(pool.map(_run_scenario_isolated, jobs))
        finally:
            if self.store is not None:
                self.store.upgrade_lock()
        if self.store is not None:
            for *_, shard_path in jobs:
                shard = Path(shard_path)
                if shard.exists():
                    # The lazy shard is streamed record-by-record into
                    # the main store; drop its offset-index sidecar
                    # along with the shard file itself.
                    shard_store = EvalStore(shard, read_only=True)
                    try:
                        self.store.merge_from(shard_store)
                    finally:
                        shard_store.close()
                    shard.unlink()
                    shard_store.index_path.unlink(missing_ok=True)
        return outcomes

    # ------------------------------------------------------------------
    # Shared-service pool
    # ------------------------------------------------------------------
    def _strategy_config(self, scenario: Scenario):
        explicit = scenario.options.get("config")
        if explicit is not None:
            return explicit
        factory = strategy_spec(scenario.strategy).config_factory
        if factory is None:
            return None  # config-less strategies (e.g. "mc", "hw-nas")
        return factory(scenario.budget, scenario.seed, scenario.rho)

    def _evaluation_workload(self, workload: Workload,
                             allocation: AllocationSpace,
                             config) -> Workload:
        """The workload a scenario's evaluator actually prices against
        (penalty bounds calibrated exactly as the strategy will)."""
        if config is not None and getattr(config, "calibrate_bounds",
                                          False):
            bounds = calibrate_penalty_bounds(workload, self.cost_model,
                                              allocation)
            return workload.with_specs(workload.specs, bounds=bounds)
        return workload

    def _service_for(self, eval_workload: Workload,
                     rho: float) -> EvalService:
        """Get or create the shared service for an evaluation context."""
        salt = evaluation_context_salt(eval_workload,
                                       self.cost_model.params, rho)
        service = self.services.get(salt)
        if service is None:
            evaluator = Evaluator(eval_workload, self.cost_model,
                                  trainer=None, rho=rho)
            service = EvalService(evaluator,
                                  cache_size=self.config.cache_size,
                                  store=self.store)
            self.services[salt] = service
        return service

    def _resolve_workload(self, scenario: Scenario) -> Workload:
        if isinstance(scenario.workload, str):
            return workload_by_name(scenario.workload)
        return scenario.workload

    def _cache_totals(self,
                      outcomes: list[ScenarioOutcome]) -> dict[str, Any]:
        if self.services:
            stats = [service.stats for service in self.services.values()]
            entries = sum(s.cache_len for s in self.services.values())
            # Every service prices through the campaign's one cost model.
            memo_hits = self.cost_model.shared_cells
            memo_misses = self.cost_model.priced_cells
        else:  # pool mode: aggregate the per-scenario pricing records
            stats = [s for s in (_pricing(o.result) for o in outcomes)
                     if s is not None]
            entries = 0
            memo_hits = sum(s.cost_memo_hits for s in stats)
            memo_misses = sum(s.cost_memo_misses for s in stats)
        requests = sum(s.requests for s in stats)
        hits = sum(s.hits for s in stats)
        shared = sum(s.shared_hits for s in stats)
        store_hits = sum(s.store_hits for s in stats)
        return {
            "services": len(self.services),
            "requests": requests,
            "hits": hits,
            "misses": sum(s.misses for s in stats),
            "shared_hits": shared,
            "store_hits": store_hits,
            "hit_rate": hits / requests if requests else 0.0,
            "shared_hit_rate": shared / requests if requests else 0.0,
            "store_hit_rate": store_hits / requests if requests else 0.0,
            "entries": entries,
            "store_entries": (len(self.store)
                              if self.store is not None else 0),
            "store_bytes": (self.store.size_bytes
                            if self.store is not None else 0),
            "cost_memo_hits": memo_hits,
            "cost_memo_misses": memo_misses,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close every shared service and any campaign-owned store
        (idempotent)."""
        for service in self.services.values():
            service.close()
        if self.store is not None and self._owns_store:
            self.store.close()

    def __enter__(self) -> "Campaign":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _run_scenario_isolated(job: tuple) -> ScenarioOutcome:
    """Pool worker: one scenario, one private service (module-level so
    the executor can pickle the callable under any start method).

    With a persistent store, the worker layers a writable private shard
    over the main store file (read-only): warm-starts see everything
    priced before the pool launched, while appends never race another
    writer.  The parent merges the shards afterwards.
    """
    scenario, cache_size, cost_params, store_path, shard_path = job
    store = parent = None
    if store_path is not None:
        parent = (EvalStore(store_path, read_only=True)
                  if Path(store_path).exists() else None)
        store = EvalStore(shard_path, parent=parent)
    try:
        with Campaign(CampaignConfig(scenarios=(scenario,),
                                     cache_size=cache_size),
                      cost_model=CostModel(cost_params),
                      store=store) as campaign:
            return campaign.run().outcomes[0]
    finally:
        for opened in (store, parent):
            if opened is not None:
                opened.close()


def run_campaign(config: CampaignConfig,
                 *, cost_model: CostModel | None = None) -> CampaignResult:
    """Execute a campaign and release its services."""
    with Campaign(config, cost_model=cost_model) as campaign:
        return campaign.run()


# ----------------------------------------------------------------------
# Serialisation / reporting
# ----------------------------------------------------------------------
def campaign_to_dict(result: CampaignResult) -> dict[str, Any]:
    """Flatten a campaign into the consolidated JSON schema (see the
    module docstring)."""
    return {
        "format": "repro-campaign",
        "version": 1,
        "wall_seconds": result.wall_seconds,
        "cache": dict(result.cache),
        "scenarios": [outcome.to_dict() for outcome in result.outcomes],
    }


def save_campaign(result: CampaignResult, path: str | Path) -> Path:
    """Write the consolidated campaign JSON to ``path``, compact (atomic:
    an interrupted run never leaves a truncated campaign file)."""
    import json

    from repro.core.serialization import durable_replace

    blob = json.dumps(campaign_to_dict(result),
                      separators=(",", ":")).encode("utf-8")
    return durable_replace(path, blob)


def format_campaign(result: CampaignResult) -> str:
    """Render the campaign as a comparison table."""
    rows: list[list[object]] = []
    for outcome in result.outcomes:
        res = outcome.result
        if isinstance(res, SearchResult):
            best = (f"{res.best.weighted_accuracy:.4f}"
                    if res.best else "none")
            feasible = len(res.feasible_solutions)
            explored = len(res.explored)
        else:  # NASOnlyResult
            best = f"{res.best_weighted:.4f}"
            feasible = "-"
            explored = len(res.history)
        stats = _pricing(res)
        rows.append([
            outcome.scenario.name, best, feasible, explored,
            stats.requests if stats else 0,
            stats.hits if stats else 0,
            stats.shared_hits if stats else 0,
            f"{outcome.wall_seconds:.2f}",
        ])
    cache = result.cache
    title = (f"Campaign: {len(result.outcomes)} scenarios, "
             f"{cache['requests']} hardware requests, "
             f"{cache['hit_rate']:.1%} cache hits "
             f"({cache['shared_hit_rate']:.1%} cross-scenario), "
             f"{result.wall_seconds:.2f}s")
    return format_table(
        ["scenario", "best", "feasible", "explored", "hw reqs", "hits",
         "shared", "wall/s"],
        rows, title=title)
