"""NASAIC: the co-exploration framework (§IV).

One episode follows the optimizer selector's schedule (§IV-②):

1. one **joint step** (``SA = SH = 1``): the controller samples new
   architectures *and* a new accelerator design; the hardware path
   evaluates the design;
2. ``phi`` **hardware-only steps** (``SA = 0, SH = 1``): the architecture
   segments are pinned to the episode's sample (teacher forcing) while the
   hardware segments explore designs for it; each step updates the
   controller with the accuracy-free reward ``-rho * P``;
3. **early pruning**: if none of the ``1 + phi`` designs is feasible, the
   (expensive) training of the episode's architectures is skipped and the
   joint step is updated with ``-rho * P_best``; otherwise the networks
   are trained and the joint step receives the full Eq. 4 reward
   ``weighted(D) - rho * P_best``.

The joint and hardware reward streams have different scales, so each gets
its own REINFORCE trainer (separate reward baselines and RMSProp moments)
over the *shared* controller parameters.

The loop itself is owned by :class:`repro.core.driver.SearchDriver`:
NASAIC implements the :class:`~repro.core.driver.SearchStrategy`
protocol — one round is one episode, :meth:`NASAIC.propose` samples the
joint design plus the ``phi`` hardware-only designs up front, the driver
prices them as one cached batch and
:meth:`NASAIC.observe` applies the controller updates and the training
path.  This changes neither the sampling RNG stream nor any evaluation
result (the hardware path is deterministic); the golden regression test
pins this.  The driver also provides checkpoint/resume: every mutable
piece of run state is covered by :meth:`NASAIC.state`.

Seeding contract: every random draw in a NASAIC run derives from
``config.seed`` alone — controller initialisation uses sub-stream 0 and
sampling uses sub-stream 1 of the master generator (see
:mod:`repro.utils.rng`).  No component may fall back to OS entropy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.controller import ControllerConfig, RNNController
from repro.core.driver import JointSearch, RoundLog
from repro.core.evaluator import HardwareEvaluation
from repro.core.reinforce import ReinforceConfig, ReinforceTrainer
from repro.core.results import EpisodeRecord, ExploredSolution, SearchResult
from repro.core.reward import episode_reward, weighted_normalised_accuracy
from repro.utils.rng import new_rng, restore_rng, rng_state, spawn_rng
from repro.workloads.workload import Workload

__all__ = ["NASAIC", "NASAICConfig"]


@dataclass(frozen=True)
class NASAICConfig:
    """NASAIC exploration parameters (§V-A defaults).

    Attributes:
        episodes: Exploration episodes ``beta`` (paper: 500).
        hw_steps: Hardware-only designs explored per episode ``phi``
            (paper: 10).
        rho: Penalty coefficient of Eq. 4 (paper: 10).
        seed: Master seed for controller init and sampling.
        joint_batch: Batch size ``m`` of Eq. 1 for the joint-step policy
            updates (gradients are averaged over this many episodes).
        prune_infeasible: The §IV-② early pruning: skip the training path
            whenever no feasible design was found among the ``1 + phi``
            hardware explorations.  Disabling it trains every sampled
            architecture (the ablation baseline) — slower, and explored
            solutions may then violate the specs.
        calibrate_bounds: Replace the workload's penalty bounds with the
            paper-faithful exploration bounds (largest networks on
            maximal designs, see
            :mod:`repro.core.bounds_calibration`) before searching.
        cache_size: LRU capacity of the hardware evaluation cache
            (0 disables caching).
        controller: RNN controller hyperparameters.
        reinforce: Policy-gradient hyperparameters.
    """

    episodes: int = 500
    hw_steps: int = 10
    rho: float = 10.0
    seed: int = 7
    joint_batch: int = 5
    prune_infeasible: bool = True
    calibrate_bounds: bool = True
    cache_size: int = 4096
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    reinforce: ReinforceConfig = field(default_factory=ReinforceConfig)

    def __post_init__(self) -> None:
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")
        if self.hw_steps < 0:
            raise ValueError("hw_steps must be >= 0")
        if self.joint_batch < 1:
            raise ValueError("joint_batch must be >= 1")
        if self.cache_size < 0:
            raise ValueError("cache_size must be >= 0")


class NASAIC(JointSearch):
    """Co-exploration of neural architectures and ASIC designs.

    Construction (``workload``, ``allocation``, ``cost_model``,
    ``surrogate``, ``config``, ``evalservice``, ``store``), ``run``,
    ``close`` and the context manager are those of
    :class:`repro.core.driver.JointSearch`; ``config`` defaults to
    :class:`NASAICConfig`.
    """

    strategy_name = "nasaic"

    def __init__(self, workload: Workload, **kwargs) -> None:
        super().__init__(workload, **kwargs)
        master = new_rng(self.config.seed)
        self._init_rng = spawn_rng(master, 0)
        self._sample_rng = spawn_rng(master, 1)
        self.controller = RNNController(
            self.space.decisions, self.config.controller,
            rng=self._init_rng)
        self._joint_updates = ReinforceTrainer(self.controller,
                                               self.config.reinforce)
        self._hw_updates = ReinforceTrainer(self.controller,
                                            self.config.reinforce)
        self._pending_joint: list = []
        # -- run state (one trajectory per instance) -------------------
        self._result = SearchResult(name=f"NASAIC[{self.workload.name}]")
        self._episode = 0
        self._target_episodes: int | None = None
        self._pending_round: tuple | None = None

    def _default_config(self) -> NASAICConfig:
        return NASAICConfig()

    # ------------------------------------------------------------------
    # SearchStrategy protocol (one round = one episode)
    # ------------------------------------------------------------------
    @property
    def total_rounds(self) -> int:
        """Episodes a complete run executes (run-arg override wins)."""
        return self._target_episodes or self.config.episodes

    def propose(self, k: int | None = None) -> list:
        """Sample one episode's candidates: the joint design plus the
        ``phi`` hardware-only designs (SA/SH switch schedule of §IV-②).

        Everything is sampled before anything is priced — the controller
        is only updated in :meth:`observe`, so batching the pricing
        changes neither the RNG stream nor any controller update.  ``k``
        is ignored: the episode structure is fixed.
        """
        # -- joint step (SA = SH = 1) ----------------------------------
        joint_sample = self.controller.sample(
            self._sample_rng, mask_fn=self.space.mask_for)
        joint = self.space.decode(joint_sample.actions)
        # -- hardware-only steps (SA = 0, SH = 1) ----------------------
        # One lockstep batch that reuses the joint sample's (forced,
        # draw-free) architecture steps.
        forced = {pos: joint_sample.actions[pos]
                  for pos in self.space.arch_positions}
        hw_samples = self.controller.sample(
            self._sample_rng, mask_fn=self.space.mask_for,
            forced_actions=forced, count=self.config.hw_steps,
            prefix=joint_sample)
        self._pending_round = (joint_sample, joint, hw_samples)
        return [(joint.networks, joint.accelerator)] + [
            (joint.networks, self.space.decode_accelerator(sample.actions))
            for sample in hw_samples]

    def observe(self, evaluations) -> RoundLog:
        """Consume the episode's priced designs: policy updates, early
        pruning, the training path and the episode record."""
        assert self._pending_round is not None, "observe() before propose()"
        joint_sample, joint, hw_samples = self._pending_round
        self._pending_round = None
        rho = self.config.rho
        result = self._result
        best_hw: HardwareEvaluation = evaluations[0]
        hw_batch = []
        for hw_sample, hw_eval in zip(hw_samples, evaluations[1:]):
            hw_batch.append((hw_sample, -rho * hw_eval.penalty))
            if self._better_hw(hw_eval, best_hw):
                best_hw = hw_eval
        if hw_batch:
            self._hw_updates.apply_episodes(hw_batch)
        # -- training path with early pruning --------------------------
        trained = (best_hw.penalty == 0.0
                   or not self.config.prune_infeasible)
        if trained:
            accuracies = self.evaluator.train_networks(joint.networks)
            weighted = weighted_normalised_accuracy(self.workload,
                                                    accuracies)
        else:
            self.trainer.skip_training()
            accuracies = ()
            weighted = 0.0
        reward = episode_reward(weighted, best_hw.penalty, rho)
        self._pending_joint.append((joint_sample, reward))
        if len(self._pending_joint) >= self.config.joint_batch:
            self._joint_updates.apply_episodes(self._pending_joint)
            self._pending_joint = []
        # -- bookkeeping ------------------------------------------------
        solution = None
        if trained:
            solution = ExploredSolution.priced(joint.networks, best_hw,
                                               accuracies, weighted)
            result.record(solution)
        record = EpisodeRecord(
            episode=self._episode,
            solution=solution,
            reward=reward,
            penalty=best_hw.penalty,
            trained=trained,
            hardware_steps=self.config.hw_steps,
        )
        result.episodes.append(record)
        self._episode += 1
        best = (f"{result.best.weighted_accuracy:.4f}"
                if result.best else "none")
        return RoundLog(
            record.episode,
            f"episode {self._episode}/{self.total_rounds} "
            f"reward={record.reward:+.3f} best={best}")

    def state(self) -> dict:
        """Snapshot every mutable piece of run state (see
        :meth:`repro.core.driver.SearchStrategy.state`)."""
        return {
            "episode": self._episode,
            "target_episodes": self._target_episodes,
            "controller_params": self.controller.clone_params(),
            "joint_updates": self._joint_updates.state(),
            "hw_updates": self._hw_updates.state(),
            "sample_rng": rng_state(self._sample_rng),
            "pending_joint": list(self._pending_joint),
            "result": self._result,
            "trainer": self.trainer.state(),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state` snapshot (resume support)."""
        self._episode = state["episode"]
        self._target_episodes = state["target_episodes"]
        self.controller.load_params(state["controller_params"])
        self._joint_updates.load_state(state["joint_updates"])
        self._hw_updates.load_state(state["hw_updates"])
        self._sample_rng = restore_rng(state["sample_rng"])
        self._pending_joint = list(state["pending_joint"])
        self._result = state["result"]
        self.trainer.load_state(state["trainer"])
        self._pending_round = None

    # ------------------------------------------------------------------
    # Main loop (driver facade)
    # ------------------------------------------------------------------
    def run(self, episodes: int | None = None, **kwargs) -> SearchResult:
        """Run the search (see :meth:`JointSearch.run`); ``episodes``
        overrides the configured budget.

        Raises:
            ValueError: If ``episodes`` is given and below 1.
        """
        if episodes is not None:
            if episodes < 1:
                raise ValueError("episodes must be >= 1")
            self._target_episodes = episodes
        return super().run(**kwargs)

    @staticmethod
    def _better_hw(candidate: HardwareEvaluation,
                   incumbent: HardwareEvaluation) -> bool:
        """Prefer lower penalty, then lower energy, then lower latency."""
        return ((candidate.penalty, candidate.energy_nj,
                 candidate.latency_cycles)
                < (incumbent.penalty, incumbent.energy_nj,
                   incumbent.latency_cycles))

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def greedy_solution(self) -> ExploredSolution:
        """Evaluate the controller's current argmax sample."""
        rng = new_rng(0)  # unused under greedy decoding
        sample = self.controller.sample(
            rng, mask_fn=self.space.mask_for, greedy=True)
        joint = self.space.decode(sample.actions)
        hardware = self.evalservice.evaluate_hardware(joint.networks,
                                                      joint.accelerator)
        evaluation = self.evaluator.evaluate(joint.networks,
                                             joint.accelerator,
                                             hardware=hardware)
        return ExploredSolution.priced(joint.networks, hardware,
                                       evaluation.accuracies,
                                       evaluation.weighted_accuracy)
