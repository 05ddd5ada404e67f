"""Baseline approaches NASAIC is compared against (§I, §V-C, Fig. 1).

- :func:`run_nas` — conventional NAS [1]: RL over architectures only,
  maximising weighted accuracy (the controller's hardware segments are
  pinned and carry no gradient).
- :func:`brute_force_designs` — exhaustive hardware sweep for fixed
  networks (the "ASIC" phase of NAS->ASIC; the circles of Fig. 1).
- :func:`monte_carlo_designs` / :func:`closest_to_spec_design` — the MC
  hardware search (10,000 runs in the paper) that seeds ASIC->HW-NAS.
- :func:`hardware_aware_nas` — the MNASNet-style extension [30]:
  architecture search with the Eq. 4 reward against one *fixed* design.
- :func:`monte_carlo_search` — joint random sampling of architectures and
  designs (the Fig. 1 star is its best feasible solution).
- :func:`closest_to_spec_solution` — the heuristic that picks the
  feasible solution nearest the spec point (the Fig. 1 square), which the
  paper shows to be sub-optimal.
- :func:`successive_nas_then_asic` / :func:`asic_then_hw_nas` — the two
  composite pipelines of Table I.

Every baseline loop runs through the unified
:class:`repro.core.driver.SearchDriver` (sample-then-batch-price,
checkpointable strategy state, per-run stats deltas) via one helper,
``_drive``, which closes an owned evaluation service even on
exceptions.  The chunked batching is choice-identical to the
historical one-at-a-time loops: sampling happens entirely in
``propose`` (before pricing) and the hardware path is RNG-free.
:func:`hardware_aware_nas` and :func:`monte_carlo_search` additionally
accept an injected shared service (campaign caches), like
:class:`~repro.core.search.NASAIC`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.accel.accelerator import HeterogeneousAccelerator
from repro.accel.allocation import AllocationSpace
from repro.arch.network import NetworkArch
from repro.core.choices import JointSearchSpace
from repro.core.controller import ControllerConfig, RNNController
from repro.core.driver import RoundLog, SearchDriver, attach_service
from repro.core.evaluator import Evaluator, HardwareEvaluation
from repro.core.evalservice import EvalService
from repro.core.reinforce import ReinforceConfig, ReinforceTrainer
from repro.core.results import ExploredSolution, SearchResult
from repro.core.reward import episode_reward, weighted_normalised_accuracy
from repro.cost.model import CostModel
from repro.train.surrogate import AccuracySurrogate, default_surrogate
from repro.train.trainer import SurrogateTrainer
from repro.utils.rng import new_rng, restore_rng, rng_state, spawn_rng
from repro.workloads.workload import DesignSpecs, Task, Workload

__all__ = [
    "NASOnlyResult",
    "PipelineResult",
    "asic_then_hw_nas",
    "brute_force_designs",
    "closest_to_spec_design",
    "closest_to_spec_solution",
    "hardware_aware_nas",
    "monte_carlo_designs",
    "monte_carlo_search",
    "run_nas",
    "run_nas_per_task",
    "spec_distance",
    "successive_nas_then_asic",
]


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def spec_distance(latency: float, energy: float, area: float,
                  specs: DesignSpecs) -> float:
    """Normalised L2 distance of a solution to the spec point.

    Used by the "closest to the design specs" heuristics: each metric is
    expressed relative to its spec, so the distance is scale-free.
    """
    return math.sqrt(
        (latency / specs.latency_cycles - 1.0) ** 2
        + (energy / specs.energy_nj - 1.0) ** 2
        + (area / specs.area_um2 - 1.0) ** 2)


def _reference_design(allocation: AllocationSpace) -> HeterogeneousAccelerator:
    """An arbitrary valid design used to pin inert hardware segments."""
    dataflow = allocation.dataflows[0]
    if allocation.allow_empty_slots:
        slots = [(dataflow, allocation.budget.max_pes,
                  allocation.budget.max_bandwidth_gbps)]
        slots += [(dataflow, 0, 0)] * (allocation.num_slots - 1)
        return allocation.build(slots)
    # Mandatory-active spaces: minimum allocation on every slot, the
    # remaining budget on slot 0.
    rest = allocation.num_slots - 1
    pe0 = max(p for p in allocation.pe_options
              if p <= allocation.budget.max_pes - rest * allocation.pe_step)
    bw0 = max(b for b in allocation.bw_options
              if b <= allocation.budget.max_bandwidth_gbps
              - rest * allocation.bw_step)
    slots = [(dataflow, pe0, bw0)]
    slots += [(dataflow, allocation.pe_step, allocation.bw_step)] * rest
    return allocation.build(slots)


def _build_search_parts(
    workload: Workload,
    allocation: AllocationSpace | None,
    cost_model: CostModel | None,
    surrogate: AccuracySurrogate | None,
    rho: float,
):
    allocation = allocation or AllocationSpace()
    cost_model = cost_model or CostModel()
    if surrogate is None:
        surrogate = default_surrogate([t.space for t in workload.tasks])
    trainer = SurrogateTrainer(surrogate)
    evaluator = Evaluator(workload, cost_model, trainer, rho=rho)
    space = JointSearchSpace(workload, allocation)
    return allocation, cost_model, surrogate, evaluator, space


def _drive(strategy, evaluator: Evaluator,
           evalservice: EvalService | None = None):
    """Drive ``strategy`` to completion over an injected service (checked
    against ``evaluator``'s context, left open) or over an owned one
    (closed afterwards, also on exceptions)."""
    service, owned = attach_service(evaluator, evalservice)
    try:
        return SearchDriver(strategy, service).run()
    finally:
        if owned:
            service.close()


# ----------------------------------------------------------------------
# Conventional NAS (architecture only)
# ----------------------------------------------------------------------
@dataclass
class NASOnlyResult:
    """Outcome of accuracy-only NAS."""

    best_networks: tuple[NetworkArch, ...]
    best_accuracies: tuple[float, ...]
    best_weighted: float
    history: list[tuple[tuple[tuple[int, ...], ...], float]]
    trainings_run: int


#: Accuracy-only searches face no feasibility cliffs, so they converge
#: best with less exploration noise than the co-exploration defaults.
_NAS_REINFORCE_DEFAULT = ReinforceConfig(entropy_beta=0.02,
                                         learning_rate=0.08)


class _ControllerEpisodeStrategy:
    """Shared plumbing for the single-controller RL baselines.

    Owns the controller, its REINFORCE trainer and the sampling stream;
    subclasses define what one episode proposes and observes.
    """

    def __init__(self, workload: Workload, space: JointSearchSpace,
                 evaluator: Evaluator, forced: dict[int, int],
                 episodes: int, seed: int,
                 controller_config: ControllerConfig | None,
                 reinforce_config: ReinforceConfig | None) -> None:
        self.workload = workload
        self.space = space
        self.evaluator = evaluator
        self.forced = forced
        self.episodes = episodes
        master = new_rng(seed)
        self.controller = RNNController(space.decisions, controller_config,
                                        rng=spawn_rng(master, 0))
        self.updates = ReinforceTrainer(self.controller, reinforce_config)
        self.sample_rng = spawn_rng(master, 1)
        self._episode = 0
        self._pending: tuple | None = None

    @property
    def total_rounds(self) -> int:
        return self.episodes

    def _sample_episode(self):
        sample = self.controller.sample(self.sample_rng,
                                        mask_fn=self.space.mask_for,
                                        forced_actions=self.forced)
        joint = self.space.decode(sample.actions)
        self._pending = (sample, joint)
        return sample, joint

    def state(self) -> dict:
        return {
            "episode": self._episode,
            "controller_params": self.controller.clone_params(),
            "updates": self.updates.state(),
            "sample_rng": rng_state(self.sample_rng),
            "trainer": self.evaluator.trainer.state(),
        }

    def load_state(self, state: dict) -> None:
        self._episode = state["episode"]
        self.controller.load_params(state["controller_params"])
        self.updates.load_state(state["updates"])
        self.sample_rng = restore_rng(state["sample_rng"])
        self.evaluator.trainer.load_state(state["trainer"])
        self._pending = None


class _NASOnlyStrategy(_ControllerEpisodeStrategy):
    """Accuracy-only NAS: proposes nothing to the hardware path."""

    strategy_name = "nas"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.history: list[tuple[tuple[tuple[int, ...], ...], float]] = []
        self.best: tuple[float, tuple, tuple] | None = None

    def propose(self, k: int | None = None) -> list:
        self._sample_episode()
        return []

    def observe(self, evaluations) -> RoundLog:
        sample, joint = self._pending
        self._pending = None
        accuracies = self.evaluator.train_networks(joint.networks)
        weighted = weighted_normalised_accuracy(self.workload, accuracies)
        self.updates.apply_episodes([(sample, weighted)])
        self.history.append((tuple(n.genotype for n in joint.networks),
                             weighted))
        if self.best is None or weighted > self.best[0]:
            self.best = (weighted, joint.networks, accuracies)
        self._episode += 1
        return RoundLog(
            self._episode - 1,
            f"episode {self._episode}/{self.episodes} "
            f"weighted={weighted:.4f}")

    def finish(self) -> NASOnlyResult:
        best = self.best
        assert best is not None
        # Final greedy read-out: the converged policy's argmax sample
        # often beats the best stochastic draw; keep whichever is better.
        greedy = self.controller.sample(
            self.sample_rng, mask_fn=self.space.mask_for,
            forced_actions=self.forced, greedy=True)
        joint = self.space.decode(greedy.actions)
        accuracies = self.evaluator.train_networks(joint.networks)
        weighted = weighted_normalised_accuracy(self.workload, accuracies)
        if weighted > best[0]:
            best = (weighted, joint.networks, accuracies)
        return NASOnlyResult(
            best_networks=best[1], best_accuracies=best[2],
            best_weighted=best[0], history=self.history,
            trainings_run=self.evaluator.trainer.trainings_run)

    def state(self) -> dict:
        state = super().state()
        state.update(history=list(self.history), best=self.best)
        return state

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        self.history = list(state["history"])
        self.best = state["best"]


def run_nas(
    workload: Workload,
    *,
    allocation: AllocationSpace | None = None,
    surrogate: AccuracySurrogate | None = None,
    episodes: int = 200,
    seed: int = 11,
    controller_config: ControllerConfig | None = None,
    reinforce_config: ReinforceConfig | None = None,
) -> NASOnlyResult:
    """Conventional NAS [1]: maximise Eq. 2, no hardware in the loop."""
    if reinforce_config is None:
        reinforce_config = _NAS_REINFORCE_DEFAULT
    allocation, _, surrogate, evaluator, space = _build_search_parts(
        workload, allocation, None, surrogate, rho=0.0)
    forced = space.encode_design(_reference_design(allocation))
    strategy = _NASOnlyStrategy(workload, space, evaluator, forced,
                                episodes, seed, controller_config,
                                reinforce_config)
    # No hardware in the loop: the driver runs without a service.
    return SearchDriver(strategy, None).run()


def run_nas_per_task(
    workload: Workload,
    *,
    surrogate: AccuracySurrogate | None = None,
    episodes: int = 200,
    seed: int = 11,
    controller_config: ControllerConfig | None = None,
    reinforce_config: ReinforceConfig | None = None,
) -> NASOnlyResult:
    """Successive conventional NAS: one independent search per task.

    This is what "successive NAS [1]" means in the NAS->ASIC pipeline
    (§V-C): each DNN is optimised separately with the mono-objective of
    its own accuracy, with no coupling between tasks — coupling only
    appears later, when the shared hardware is chosen.  Per-task
    searches also converge much more reliably than one multi-task
    controller rewarded with a blended scalar.
    """
    if surrogate is None:
        surrogate = default_surrogate([t.space for t in workload.tasks])
    networks = []
    accuracies = []
    trainings = 0
    history: list[tuple[tuple[tuple[int, ...], ...], float]] = []
    for index, task in enumerate(workload.tasks):
        specs = workload.specs
        sub = Workload(
            name=f"{workload.name}/{task.name}",
            tasks=(Task(task.name, task.space, weight=1.0),),
            specs=specs,
            bounds=workload.bounds)
        result = run_nas(sub, surrogate=surrogate, episodes=episodes,
                         seed=seed + index,
                         controller_config=controller_config,
                         reinforce_config=reinforce_config)
        networks.append(result.best_networks[0])
        accuracies.append(result.best_accuracies[0])
        trainings += result.trainings_run
        history.extend(result.history)
    weighted = weighted_normalised_accuracy(workload, tuple(accuracies))
    return NASOnlyResult(
        best_networks=tuple(networks),
        best_accuracies=tuple(accuracies),
        best_weighted=weighted,
        history=history,
        trainings_run=trainings)


# ----------------------------------------------------------------------
# Hardware searches for fixed networks
# ----------------------------------------------------------------------
class _DesignSweepStrategy:
    """Streams a precomputed design list through the driver in chunks.

    Chunking is cache-stats-identical to one giant batch: within a chunk
    the batch API deduplicates, and across chunks the first chunk's
    misses are already cached — either way every repeated design is a
    hit.  (The cost-cell counters count cells shared within a batch, so
    they do depend on the chunk size.)
    """

    strategy_name = "design-sweep"

    #: Default pairs per round; bounds peak memory on 10k-run sweeps
    #: while keeping per-round batches large enough that one cost pass
    #: per dataflow covers many designs.
    DEFAULT_CHUNK = 256

    def __init__(self, networks: tuple[NetworkArch, ...],
                 designs: list[HeterogeneousAccelerator],
                 chunk: int = DEFAULT_CHUNK) -> None:
        self.networks = networks
        self.designs = designs
        self.chunk = max(1, chunk)
        self.evaluations: list[HardwareEvaluation] = []
        self._offset = 0

    @property
    def total_rounds(self) -> int:
        return math.ceil(len(self.designs) / self.chunk)

    def propose(self, k: int | None = None) -> list:
        # A smaller driver batch-size hint lowers the chunk *for the
        # whole run* so total_rounds grows to cover the full design
        # list — honouring k per-round only would end the schedule
        # early and silently drop the sweep's tail.
        if k is not None:
            self.chunk = max(1, min(k, self.chunk))
        batch = self.designs[self._offset:self._offset + self.chunk]
        self._offset += len(batch)
        return [(self.networks, design) for design in batch]

    def observe(self, evaluations) -> RoundLog:
        self.evaluations.extend(evaluations)
        return RoundLog(
            self._offset // self.chunk,
            f"designs {len(self.evaluations)}/{len(self.designs)}")

    def finish(self) -> list[HardwareEvaluation]:
        return list(self.evaluations)

    def state(self) -> dict:
        return {"offset": self._offset, "chunk": self.chunk,
                "evaluations": list(self.evaluations)}

    def load_state(self, state: dict) -> None:
        self._offset = state["offset"]
        self.chunk = state["chunk"]
        self.evaluations = list(state["evaluations"])


def brute_force_designs(
    networks: tuple[NetworkArch, ...],
    workload: Workload,
    *,
    allocation: AllocationSpace | None = None,
    cost_model: CostModel | None = None,
    pe_stride: int = 512,
    bw_stride: int = 16,
    rho: float = 10.0,
) -> list[HardwareEvaluation]:
    """Exhaustive grid sweep of designs for fixed networks (NAS->ASIC)."""
    allocation = allocation or AllocationSpace()
    cost_model = cost_model or CostModel()
    evaluator = Evaluator(workload, cost_model, trainer=None, rho=rho)
    designs = list(allocation.enumerate_designs(
        pe_stride=pe_stride, bw_stride=bw_stride))
    return _drive(_DesignSweepStrategy(networks, designs), evaluator)


def monte_carlo_designs(
    networks: tuple[NetworkArch, ...],
    workload: Workload,
    *,
    allocation: AllocationSpace | None = None,
    cost_model: CostModel | None = None,
    runs: int = 10_000,
    seed: int = 13,
    rho: float = 10.0,
) -> list[HardwareEvaluation]:
    """Monte-Carlo hardware search for fixed networks (ASIC->HW-NAS, 1st
    phase; the paper uses 10,000 runs).  The design sampler is drained
    before evaluation (sampling is RNG-driven, pricing is not), so
    repeated designs hit the cache and misses are priced in batches."""
    allocation = allocation or AllocationSpace()
    cost_model = cost_model or CostModel()
    evaluator = Evaluator(workload, cost_model, trainer=None, rho=rho)
    rng = new_rng(seed)
    designs = [allocation.random_design(rng) for _ in range(runs)]
    return _drive(_DesignSweepStrategy(networks, designs), evaluator)


def closest_to_spec_design(
    evaluations: list[HardwareEvaluation],
    specs: DesignSpecs,
) -> HardwareEvaluation:
    """Pick the design "closest to the design specs".

    Feasible designs compete on spec distance.  If none is feasible (the
    NAS-networks case of Table I), designs that at least satisfy the
    *area* spec are preferred — area is a property of the silicon alone,
    so a designer would never tape out a design that can't possibly meet
    it — and among those the least-violating one (minimum penalty, then
    distance) is returned.
    """
    if not evaluations:
        raise ValueError("no design evaluations to choose from")
    feasible = [e for e in evaluations if e.feasible]
    area_ok = [e for e in evaluations if e.area_um2 <= specs.area_um2]
    pool = feasible or area_ok or evaluations
    return min(pool, key=lambda e: (
        e.penalty,
        spec_distance(e.latency_cycles, e.energy_nj, e.area_um2, specs)))


# ----------------------------------------------------------------------
# Hardware-aware NAS on a fixed design
# ----------------------------------------------------------------------
class _HardwareAwareNASStrategy(_ControllerEpisodeStrategy):
    """MNASNet-style NAS: one pair per episode, fixed hardware genes."""

    strategy_name = "hw-nas"

    def __init__(self, workload: Workload, space: JointSearchSpace,
                 evaluator: Evaluator, forced: dict[int, int],
                 episodes: int, seed: int,
                 controller_config: ControllerConfig | None,
                 reinforce_config: ReinforceConfig | None,
                 rho: float) -> None:
        super().__init__(workload, space, evaluator, forced, episodes,
                         seed, controller_config, reinforce_config)
        self.rho = rho
        self._result = SearchResult(name=f"ASIC->HW-NAS[{workload.name}]")

    def propose(self, k: int | None = None) -> list:
        _, joint = self._sample_episode()
        return [(joint.networks, joint.accelerator)]

    def observe(self, evaluations) -> RoundLog:
        sample, joint = self._pending
        self._pending = None
        hw = evaluations[0]
        accuracies = self.evaluator.train_networks(joint.networks)
        weighted = weighted_normalised_accuracy(self.workload, accuracies)
        reward = episode_reward(weighted, hw.penalty, self.rho)
        self.updates.apply_episodes([(sample, reward)])
        self._result.record(ExploredSolution.priced(
            joint.networks, hw, accuracies, weighted))
        self._episode += 1
        return RoundLog(
            self._episode - 1,
            f"episode {self._episode}/{self.episodes} "
            f"reward={reward:+.3f}")

    def finish(self) -> SearchResult:
        self._result.trainings_run = self.evaluator.trainer.trainings_run
        return self._result

    def state(self) -> dict:
        state = super().state()
        state["result"] = self._result
        return state

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        self._result = state["result"]


def hardware_aware_nas(
    workload: Workload,
    design: HeterogeneousAccelerator,
    *,
    allocation: AllocationSpace | None = None,
    cost_model: CostModel | None = None,
    surrogate: AccuracySurrogate | None = None,
    episodes: int = 200,
    seed: int = 17,
    rho: float = 10.0,
    controller_config: ControllerConfig | None = None,
    reinforce_config: ReinforceConfig | None = None,
    evalservice: EvalService | None = None,
) -> SearchResult:
    """Hardware-aware NAS [30] for one fixed ASIC design.

    The controller searches architectures only; every sample is evaluated
    against ``design`` with the full Eq. 4 reward.  ``evalservice``
    optionally injects a shared (campaign) cache — it must price under
    this search's exact evaluation context and stays open afterwards.
    """
    allocation, cost_model, surrogate, evaluator, space = \
        _build_search_parts(workload, allocation, cost_model, surrogate,
                            rho=rho)
    strategy = _HardwareAwareNASStrategy(
        workload, space, evaluator, space.encode_design(design),
        episodes, seed, controller_config, reinforce_config, rho)
    return _drive(strategy, evaluator, evalservice)


# ----------------------------------------------------------------------
# Joint Monte-Carlo search and the closest-to-spec heuristic
# ----------------------------------------------------------------------
class _MonteCarloStrategy:
    """Joint random sampling, streamed through the driver in chunks.

    Each round samples a chunk of complete (networks, design) pairs —
    the per-pair draw order is exactly the historical loop's, pricing is
    RNG-free, and the training path runs in request order, so the
    explored trajectory is identical to the one-at-a-time formulation.
    """

    strategy_name = "mc"

    #: Pairs per round: large enough to amortise batch pricing, small
    #: enough that checkpoints land frequently on 10k-run searches.
    DEFAULT_CHUNK = 64

    def __init__(self, workload: Workload, allocation: AllocationSpace,
                 evaluator: Evaluator, runs: int, seed: int,
                 chunk: int = DEFAULT_CHUNK) -> None:
        if runs < 1:
            raise ValueError("runs must be >= 1")
        self.workload = workload
        self.allocation = allocation
        self.evaluator = evaluator
        self.runs = runs
        self.chunk = max(1, chunk)
        self._rng = new_rng(seed)
        self._sampled = 0
        self._result = SearchResult(name=f"MC[{workload.name}]")
        self._pending: list | None = None

    @property
    def total_rounds(self) -> int:
        return math.ceil(self.runs / self.chunk)

    def propose(self, k: int | None = None) -> list:
        # Like _DesignSweepStrategy: a batch-size hint lowers the chunk
        # permanently so total_rounds still covers every run.
        if k is not None:
            self.chunk = max(1, min(k, self.chunk))
        count = min(self.chunk, self.runs - self._sampled)
        pending = []
        for _ in range(count):
            networks = tuple(
                task.space.decode(task.space.random_indices(self._rng))
                for task in self.workload.tasks)
            pending.append((networks,
                            self.allocation.random_design(self._rng)))
        self._pending = pending
        self._sampled += count
        return list(pending)

    def observe(self, evaluations) -> RoundLog:
        pending = self._pending
        self._pending = None
        for (networks, _), hw in zip(pending, evaluations):
            accuracies = self.evaluator.train_networks(networks)
            weighted = weighted_normalised_accuracy(self.workload,
                                                    accuracies)
            self._result.record(ExploredSolution.priced(
                networks, hw, accuracies, weighted))
        return RoundLog(
            self._sampled // self.chunk,
            f"samples {self._sampled}/{self.runs}")

    def finish(self) -> SearchResult:
        self._result.trainings_run = self.evaluator.trainer.trainings_run
        return self._result

    def state(self) -> dict:
        return {
            "rng": rng_state(self._rng),
            "sampled": self._sampled,
            "chunk": self.chunk,
            "result": self._result,
            "trainer": self.evaluator.trainer.state(),
        }

    def load_state(self, state: dict) -> None:
        self._rng = restore_rng(state["rng"])
        self._sampled = state["sampled"]
        self.chunk = state["chunk"]
        self._result = state["result"]
        self.evaluator.trainer.load_state(state["trainer"])
        self._pending = None


def monte_carlo_search(
    workload: Workload,
    *,
    allocation: AllocationSpace | None = None,
    cost_model: CostModel | None = None,
    surrogate: AccuracySurrogate | None = None,
    runs: int = 10_000,
    seed: int = 19,
    rho: float = 10.0,
    evalservice: EvalService | None = None,
) -> SearchResult:
    """Joint random sampling of (architectures, design) pairs.

    The paper's Fig. 1 "optimal solution" is the best feasible outcome of
    10,000 such runs.  ``evalservice`` optionally injects a shared
    (campaign) cache — it must price under this search's exact
    evaluation context and stays open afterwards.
    """
    allocation, cost_model, surrogate, evaluator, space = \
        _build_search_parts(workload, allocation, cost_model, surrogate,
                            rho=rho)
    strategy = _MonteCarloStrategy(workload, allocation, evaluator,
                                   runs, seed)
    return _drive(strategy, evaluator, evalservice)


def closest_to_spec_solution(
    solutions: list[ExploredSolution],
    specs: DesignSpecs,
) -> ExploredSolution | None:
    """The Fig. 1 "heuristic" square: feasible solution nearest the specs."""
    feasible = [s for s in solutions if s.feasible]
    if not feasible:
        return None
    return min(feasible, key=lambda s: spec_distance(
        s.latency_cycles, s.energy_nj, s.area_um2, specs))


# ----------------------------------------------------------------------
# Composite pipelines (Table I rows)
# ----------------------------------------------------------------------
@dataclass
class PipelineResult:
    """Outcome of a successive (two-phase) pipeline."""

    name: str
    networks: tuple[NetworkArch, ...]
    accuracies: tuple[float, ...]
    hardware: HardwareEvaluation
    weighted_accuracy: float

    @property
    def solution(self) -> ExploredSolution:
        return ExploredSolution.priced(self.networks, self.hardware,
                                       self.accuracies,
                                       self.weighted_accuracy)


def successive_nas_then_asic(
    workload: Workload,
    *,
    allocation: AllocationSpace | None = None,
    cost_model: CostModel | None = None,
    surrogate: AccuracySurrogate | None = None,
    nas_episodes: int = 200,
    pe_stride: int = 512,
    bw_stride: int = 16,
    seed: int = 23,
    rho: float = 10.0,
) -> PipelineResult:
    """NAS->ASIC: accuracy-only NAS, then brute-force hardware search.

    Table I shows this pipeline cannot find a feasible design — the
    architectures are fixed before hardware is considered.
    """
    nas = run_nas_per_task(workload, surrogate=surrogate,
                           episodes=nas_episodes, seed=seed)
    evaluations = brute_force_designs(
        nas.best_networks, workload, allocation=allocation,
        cost_model=cost_model, pe_stride=pe_stride, bw_stride=bw_stride,
        rho=rho)
    best = closest_to_spec_design(evaluations, workload.specs)
    weighted = weighted_normalised_accuracy(workload, nas.best_accuracies)
    return PipelineResult(
        name="NAS->ASIC", networks=nas.best_networks,
        accuracies=nas.best_accuracies, hardware=best,
        weighted_accuracy=weighted)


def asic_then_hw_nas(
    workload: Workload,
    *,
    allocation: AllocationSpace | None = None,
    cost_model: CostModel | None = None,
    surrogate: AccuracySurrogate | None = None,
    mc_runs: int = 2_000,
    nas_episodes: int = 200,
    seed: int = 29,
    rho: float = 10.0,
    reference_networks: tuple[NetworkArch, ...] | None = None,
) -> PipelineResult:
    """ASIC->HW-NAS: MC design search, then hardware-aware NAS on it.

    The design-selection phase needs reference networks to price latency
    and energy; following the pipeline's successive nature we use the
    accuracy-only NAS winners unless ``reference_networks`` is given
    (a choice of this reproduction — the paper does not specify them).
    """
    if reference_networks is None:
        nas = run_nas_per_task(workload, surrogate=surrogate,
                               episodes=nas_episodes, seed=seed)
        reference_networks = nas.best_networks
    evaluations = monte_carlo_designs(
        reference_networks, workload, allocation=allocation,
        cost_model=cost_model, runs=mc_runs, seed=seed + 1, rho=rho)
    chosen = closest_to_spec_design(evaluations, workload.specs)
    search = hardware_aware_nas(
        workload, chosen.accelerator, allocation=allocation,
        cost_model=cost_model, surrogate=surrogate, episodes=nas_episodes,
        seed=seed + 2, rho=rho)
    best = search.best
    if best is None:
        # No feasible architecture on the chosen design: report the most
        # accurate explored solution so the violation is visible.
        best = max(search.explored,
                   key=lambda s: s.weighted_accuracy)
    cost_model = cost_model or CostModel()
    surrogate_eval = default_surrogate([t.space for t in workload.tasks])
    evaluator = Evaluator(workload, cost_model,
                          SurrogateTrainer(surrogate_eval), rho=rho)
    hw = evaluator.evaluate_hardware(best.networks, best.accelerator)
    return PipelineResult(
        name="ASIC->HW-NAS", networks=best.networks,
        accuracies=best.accuracies, hardware=hw,
        weighted_accuracy=best.weighted_accuracy)
