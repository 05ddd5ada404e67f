"""The strategy registry — one place every search loop is wired up.

A :class:`StrategySpec` describes everything the surrounding
infrastructure needs to know about a search strategy: its public name,
what its budget number means, how to build its config from a campaign
scenario, how to run it inside a campaign (sharing the grid's
evaluation service), and how to build a tiny instance for the
``checkpoint-resume`` differential pair.  ``core/campaign.py``,
``cli.py``, ``core/driver.py`` and ``core/differential.py`` all consume
the registry instead of hard-coded name lists, so registering a spec
here is the *only* wiring a new strategy needs to inherit campaigns,
``--checkpoint/--resume``, ``--service``, ``--store`` and the fuzz
harness's kill-and-resume oracle.

Campaign runners deliberately late-bind through the
:mod:`repro.core.campaign` module namespace (``campaign_module.NASAIC``
etc.) so tests and callers that monkeypatch a search entry point on the
campaign module keep working exactly as with the old if/elif dispatch.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.evolution import EvolutionConfig, EvolutionarySearch
from repro.core.search import NASAIC, NASAICConfig
from repro.core.strategies.zoo import (
    BayesOptConfig,
    BayesOptSearch,
    EnsembleConfig,
    EnsembleSearch,
    LocalSearchConfig,
    LocalSearch,
)

__all__ = [
    "CampaignContext",
    "StrategySpec",
    "StrategyNames",
    "register_strategy",
    "registered_strategies",
    "strategy_names",
    "strategy_spec",
]


@dataclass(frozen=True)
class CampaignContext:
    """Everything a campaign hands a strategy's runner for one scenario.

    Attributes:
        workload: The scenario's (possibly bounds-calibrated) workload.
        allocation: Hardware allocation space.
        cost_model: The campaign-shared cost model.
        surrogate: The campaign-shared accuracy surrogate.
        config: Strategy config built by the spec's ``config_factory``
            (or passed explicitly via scenario options), ``None`` for
            config-less strategies.
        budget: The scenario's raw budget number (the spec's
            ``budget_unit`` says what it counts).
        seed: Scenario seed.
        rho: Penalty coefficient in effect.
        service: The shared evaluation service (``None`` for strategies
            with ``uses_service=False``).
        store: The campaign's persistent evaluation store, if any —
            model-based strategies warm-train from it.
    """

    workload: Any
    allocation: Any
    cost_model: Any
    surrogate: Any
    config: Any
    budget: int
    seed: int
    rho: float
    service: Any
    store: Any


@dataclass(frozen=True)
class StrategySpec:
    """Registry entry for one search strategy.

    Attributes:
        name: Public strategy name (CLI / campaign / checkpoint files).
        description: One-line human description (CLI help).
        budget_unit: What a scenario's budget number counts for this
            strategy (``"episodes"``, ``"generations"``, ``"runs"``,
            ``"rounds"``...).
        uses_service: Whether campaigns must build and inject the shared
            evaluation service for this strategy.
        config_factory: ``(budget, seed, rho) -> config`` for strategies
            with a config dataclass, else ``None``.
        campaign_runner: ``(CampaignContext) -> result`` running one
            campaign scenario; ``None`` for strategies campaigns cannot
            run stand-alone (they are then excluded from the
            campaign/CLI name views).
        fuzz_builder: ``(GeneratedScenario) -> (strategy, service)``
            building a tiny resumable instance for the
            ``checkpoint-resume`` differential pair; ``None`` opts out.
        checkpoint_keys: The top-level keys of the strategy's
            ``state()`` snapshot (documentation of the checkpoint
            schema; asserted by the test suite).
    """

    name: str
    description: str
    budget_unit: str
    uses_service: bool = True
    config_factory: Callable[[int, int, float], Any] | None = None
    campaign_runner: Callable[[CampaignContext], Any] | None = None
    fuzz_builder: Callable[[Any], tuple] | None = None
    checkpoint_keys: tuple[str, ...] = ()


_REGISTRY: dict[str, StrategySpec] = {}


def register_strategy(spec: StrategySpec) -> StrategySpec:
    """Add ``spec`` to the registry (names must be unique)."""
    if spec.name in _REGISTRY:
        raise ValueError(f"strategy {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def strategy_spec(name: str) -> StrategySpec:
    """Look up one spec; the error lists every registered name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown strategy {name!r}; registered strategies: "
            f"{', '.join(_REGISTRY)}") from None


def registered_strategies() -> tuple[StrategySpec, ...]:
    """All registered specs, in registration order."""
    return tuple(_REGISTRY.values())


def strategy_names(*, campaign_only: bool = False) -> tuple[str, ...]:
    """Registered names, optionally only the campaign-runnable ones."""
    return tuple(
        spec.name for spec in _REGISTRY.values()
        if not campaign_only or spec.campaign_runner is not None)


class StrategyNames(Sequence):
    """A live, sequence-like view over registered strategy names.

    ``campaign.STRATEGIES`` and ``cli._STRATEGY_CHOICES`` are both
    instances of this class, so the two can never diverge: a
    :func:`register_strategy` call is immediately visible through every
    view.
    """

    def __init__(self, *, campaign_only: bool = False) -> None:
        self._campaign_only = campaign_only

    def _names(self) -> tuple[str, ...]:
        return strategy_names(campaign_only=self._campaign_only)

    def __getitem__(self, index):
        return self._names()[index]

    def __len__(self) -> int:
        return len(self._names())

    def __contains__(self, name: object) -> bool:
        return name in self._names()

    def __iter__(self):
        return iter(self._names())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, StrategyNames):
            return self._names() == other._names()
        if isinstance(other, (tuple, list)):
            return self._names() == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._names())

    def __repr__(self) -> str:
        return repr(self._names())


# ----------------------------------------------------------------------
# Campaign runners (late-bound through the campaign module namespace)
# ----------------------------------------------------------------------
def _campaign_module():
    from repro.core import campaign
    return campaign


def _search_runner(class_name: str, *, warm: bool = False):
    """Campaign runner for a :class:`~repro.core.driver.JointSearch`
    class; ``warm`` hands the campaign store to ``warm_store=``."""
    def runner(ctx: CampaignContext):
        cls = getattr(_campaign_module(), class_name)
        options = {"warm_store": ctx.store} if warm else {}
        return cls(
            ctx.workload, allocation=ctx.allocation,
            cost_model=ctx.cost_model, surrogate=ctx.surrogate,
            config=ctx.config, evalservice=ctx.service, **options).run()
    return runner


def _run_mc(ctx: CampaignContext):
    campaign = _campaign_module()
    return campaign.monte_carlo_search(
        ctx.workload, allocation=ctx.allocation, cost_model=ctx.cost_model,
        surrogate=ctx.surrogate, runs=ctx.budget, seed=ctx.seed,
        rho=ctx.rho, evalservice=ctx.service)


def _run_nas(ctx: CampaignContext):
    campaign = _campaign_module()
    return campaign.run_nas_per_task(
        ctx.workload, surrogate=ctx.surrogate, episodes=ctx.budget,
        seed=ctx.seed)


def _run_hw_nas(ctx: CampaignContext):
    campaign = _campaign_module()
    from repro.core.baselines import _reference_design
    return campaign.hardware_aware_nas(
        ctx.workload, _reference_design(ctx.allocation),
        allocation=ctx.allocation, cost_model=ctx.cost_model,
        surrogate=ctx.surrogate, episodes=ctx.budget, seed=ctx.seed,
        rho=ctx.rho, evalservice=ctx.service)


# ----------------------------------------------------------------------
# Fuzz builders for the checkpoint-resume oracle pair
# ----------------------------------------------------------------------
def _fuzz_mc(scenario):
    from repro.core.baselines import _MonteCarloStrategy
    from repro.core.evalservice import EvalService
    from repro.core.evaluator import Evaluator
    from repro.cost.model import CostModel
    from repro.train.trainer import SurrogateTrainer
    evaluator = Evaluator(
        scenario.workload, CostModel(scenario.cost_params),
        SurrogateTrainer(scenario.build_surrogate()), rho=scenario.rho)
    strategy = _MonteCarloStrategy(
        scenario.workload, scenario.allocation, evaluator,
        runs=scenario.spec.mc_runs, seed=scenario.spec.seed, chunk=2)
    return strategy, EvalService(evaluator)


def _fuzz_hw_nas(scenario):
    from repro.core.baselines import (
        _HardwareAwareNASStrategy,
        _reference_design,
    )
    from repro.core.choices import JointSearchSpace
    from repro.core.evalservice import EvalService
    from repro.core.evaluator import Evaluator
    from repro.cost.model import CostModel
    from repro.train.trainer import SurrogateTrainer
    evaluator = Evaluator(
        scenario.workload, CostModel(scenario.cost_params),
        SurrogateTrainer(scenario.build_surrogate()), rho=scenario.rho)
    space = JointSearchSpace(scenario.workload, scenario.allocation)
    strategy = _HardwareAwareNASStrategy(
        scenario.workload, space, evaluator,
        space.encode_design(_reference_design(scenario.allocation)),
        episodes=3, seed=scenario.spec.seed, controller_config=None,
        reinforce_config=None, rho=scenario.rho)
    return strategy, EvalService(evaluator)


def _fuzz_design_sweep(scenario):
    from repro.core.baselines import _DesignSweepStrategy
    from repro.core.evalservice import EvalService
    from repro.core.evaluator import Evaluator
    from repro.cost.model import CostModel
    from repro.utils.rng import new_rng
    pairs = list(scenario.sample_pairs(new_rng(scenario.spec.seed), 3))
    evaluator = Evaluator(scenario.workload,
                          CostModel(scenario.cost_params),
                          trainer=None, rho=scenario.rho)
    strategy = _DesignSweepStrategy(
        pairs[0][0], [accel for _, accel in pairs], chunk=1)
    return strategy, EvalService(evaluator)


def _fuzz_search(cls, make_config):
    """Fuzz builder for a :class:`~repro.core.driver.JointSearch` class
    over its own service; ``make_config(scenario)`` sizes the run."""
    def build(scenario):
        from repro.cost.model import CostModel
        strategy = cls(
            scenario.workload, allocation=scenario.allocation,
            cost_model=CostModel(scenario.cost_params),
            surrogate=scenario.build_surrogate(),
            config=make_config(scenario))
        return strategy, strategy.evalservice
    return build


_fuzz_nasaic = _fuzz_search(NASAIC, lambda s: NASAICConfig(
    episodes=3, hw_steps=1, joint_batch=1, seed=s.spec.seed, rho=s.rho,
    calibrate_bounds=False))

_fuzz_evolution = _fuzz_search(EvolutionarySearch, lambda s: EvolutionConfig(
    population=4, generations=3, tournament=2, elite=1, seed=s.spec.seed,
    rho=s.rho, calibrate_bounds=False))

_fuzz_local = _fuzz_search(LocalSearch, lambda s: LocalSearchConfig(
    rounds=3, batch=2, seed=s.spec.seed, rho=s.rho, calibrate_bounds=False))

_fuzz_bayesopt = _fuzz_search(BayesOptSearch, lambda s: BayesOptConfig(
    rounds=3, batch=2, candidates=24, seed=s.spec.seed, rho=s.rho,
    calibrate_bounds=False))

_fuzz_ensemble = _fuzz_search(EnsembleSearch, lambda s: EnsembleConfig(
    rounds=3, batch=2, candidates=24, models=3, epochs=30,
    seed=s.spec.seed, rho=s.rho, calibrate_bounds=False))


# ----------------------------------------------------------------------
# The built-in strategies, in the canonical (CLI) order
# ----------------------------------------------------------------------
register_strategy(StrategySpec(
    name="nasaic",
    description="RL co-exploration of architectures and accelerator "
                "designs (the paper's framework)",
    budget_unit="episodes",
    config_factory=lambda budget, seed, rho: NASAICConfig(
        episodes=budget, seed=seed, rho=rho),
    campaign_runner=_search_runner("NASAIC"),
    fuzz_builder=_fuzz_nasaic,
    checkpoint_keys=("episode", "target_episodes", "controller_params",
                     "joint_updates", "hw_updates", "sample_rng",
                     "pending_joint", "result", "trainer"),
))

register_strategy(StrategySpec(
    name="evolution",
    description="steady-state GA over the same joint genome",
    budget_unit="generations",
    config_factory=lambda budget, seed, rho: EvolutionConfig(
        generations=budget, seed=seed, rho=rho),
    campaign_runner=_search_runner("EvolutionarySearch"),
    fuzz_builder=_fuzz_evolution,
    checkpoint_keys=("generation", "rng", "population", "result",
                     "trainer"),
))

register_strategy(StrategySpec(
    name="mc",
    description="uniform Monte-Carlo sampling baseline",
    budget_unit="runs",
    campaign_runner=_run_mc,
    fuzz_builder=_fuzz_mc,
    checkpoint_keys=("rng", "sampled", "chunk", "result", "trainer"),
))

register_strategy(StrategySpec(
    name="nas",
    description="accuracy-only per-task NAS (hardware-oblivious)",
    budget_unit="episodes",
    uses_service=False,
    campaign_runner=_run_nas,
))

register_strategy(StrategySpec(
    name="hw-nas",
    description="hardware-aware NAS for a fixed reference ASIC "
                "(ASIC->HW-NAS)",
    budget_unit="episodes",
    campaign_runner=_run_hw_nas,
    fuzz_builder=_fuzz_hw_nas,
    checkpoint_keys=("episode", "controller_params", "updates",
                     "sample_rng", "trainer", "result"),
))

register_strategy(StrategySpec(
    name="local",
    description="best-improvement neighbourhood search with random "
                "restarts",
    budget_unit="rounds",
    config_factory=lambda budget, seed, rho: LocalSearchConfig(
        rounds=budget, seed=seed, rho=rho),
    campaign_runner=_search_runner("LocalSearch", warm=True),
    fuzz_builder=_fuzz_local,
    checkpoint_keys=("round", "sample_rng", "model_rng", "genes",
                     "rewards", "incumbent", "warm_count", "result",
                     "trainer", "model"),
))

register_strategy(StrategySpec(
    name="bayesopt",
    description="GP surrogate with expected-improvement and "
                "constant-liar batching",
    budget_unit="rounds",
    config_factory=lambda budget, seed, rho: BayesOptConfig(
        rounds=budget, seed=seed, rho=rho),
    campaign_runner=_search_runner("BayesOptSearch", warm=True),
    fuzz_builder=_fuzz_bayesopt,
    checkpoint_keys=("round", "sample_rng", "model_rng", "genes",
                     "rewards", "incumbent", "warm_count", "result",
                     "trainer", "model"),
))

register_strategy(StrategySpec(
    name="ensemble",
    description="BANANAS-style bagged-MLP predictor "
                "(mean-minus-variance acquisition)",
    budget_unit="rounds",
    config_factory=lambda budget, seed, rho: EnsembleConfig(
        rounds=budget, seed=seed, rho=rho),
    campaign_runner=_search_runner("EnsembleSearch", warm=True),
    fuzz_builder=_fuzz_ensemble,
    checkpoint_keys=("round", "sample_rng", "model_rng", "genes",
                     "rewards", "incumbent", "warm_count", "result",
                     "trainer", "model"),
))

register_strategy(StrategySpec(
    name="design-sweep",
    description="chunked exhaustive sweep of a fixed design list "
                "(library building block, not campaign-runnable)",
    budget_unit="designs",
    fuzz_builder=_fuzz_design_sweep,
    checkpoint_keys=("offset", "chunk", "evaluations"),
))
