"""Unified search engine: one driver for every exploration loop.

The paper's study is really *many* searches — NASAIC RL episodes plus
NAS-only, hardware-aware-NAS, Monte-Carlo, brute-force and two-stage
pipeline baselines, each across several workload/ASIC scenarios (Tables
1-2, Fig. 6).  Before this module, every loop hand-rolled the same four
concerns: the round loop itself, the EvalService wiring, budget/stats
bookkeeping and result assembly.  Following the optimizer-agnostic
driver designs of Apollo (Yazdanbakhsh et al.) and NAAS (Lin et al.),
those concerns now live in exactly one place.

Split of responsibilities:

- a **strategy** (:class:`SearchStrategy`) owns the *optimiser*: which
  candidates to sample next, how to learn from their evaluations, and
  how to assemble its result.  NASAIC's controller episodes, the
  evolutionary search and every baseline implement it.
- the **driver** (:class:`SearchDriver`) owns the *loop*: the
  sample-then-batch-price pattern (all of a round's candidates are
  proposed before any is priced, so batching never perturbs an RNG
  stream), the evaluation-service lifecycle, per-run stats attribution
  (the stats delta becomes the result's ``pricing`` record, so shared
  campaign caches still yield per-run accounting), progress events, and
  **checkpoint/resume**.

Round protocol (one ``step()``)::

    pairs = strategy.propose(k)        # draws RNG, prices nothing
    evals = service.evaluate_many(pairs)   # RNG-free, cached, batched
    log   = strategy.observe(evals)    # learns, records, trains

Checkpoint/resume: after any round the driver can serialise
``strategy.state()`` (optimiser weights, RNG stream positions via
:func:`repro.utils.rng.rng_state`, best-so-far results) together with
``service.state_snapshot()`` (LRU cache, counters) through
:mod:`repro.core.serialization`.  Restoring both makes the resumed run
**bit-identical** to the uninterrupted one — same trajectory, same
``pricing`` block, same accounting (wall-clock timings aside) — which
``tests/test_driver.py`` asserts at every possible interruption point.

The class-style searches (NASAIC, the GA and the strategy zoo) share
one construction, run and close path, :class:`JointSearch`; the
function-style baselines borrow the same owned-or-injected service
decision through :func:`attach_service`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Protocol, Sequence, runtime_checkable

from repro.accel.allocation import AllocationSpace
from repro.core.bounds_calibration import calibrate_penalty_bounds
from repro.core.choices import JointSearchSpace
from repro.core.evaluator import Evaluator, HardwareEvaluation
from repro.core.evalservice import EvalService, verify_injected_service
from repro.core.results import SearchResult
from repro.core.serialization import load_checkpoint, save_checkpoint
from repro.cost.model import CostModel
from repro.train.surrogate import AccuracySurrogate, default_surrogate
from repro.train.trainer import SurrogateTrainer
from repro.workloads.workload import Workload

__all__ = ["JointSearch", "RoundLog", "SearchDriver", "SearchStrategy",
           "attach_service"]

#: One candidate: a (networks, accelerator) pair as consumed by
#: :meth:`repro.core.evalservice.EvalService.evaluate_many`.
Candidate = tuple


class RoundLog:
    """Per-round diagnostics a strategy returns from ``observe``.

    Attributes:
        round: The strategy's own round counter (episode, generation,
            chunk index ...).
        message: Human-readable progress line; the driver emits it every
            ``progress_every`` rounds.
    """

    __slots__ = ("round", "message")

    def __init__(self, round: int, message: str = "") -> None:
        self.round = round
        self.message = message


@runtime_checkable
class SearchStrategy(Protocol):
    """What the driver needs from an optimiser.

    Implementations: the :class:`JointSearch` subclasses —
    :class:`repro.core.search.NASAIC` (one round = one RL episode),
    :class:`repro.core.evolution.EvolutionarySearch` (one round = one
    generation) and the :mod:`repro.core.strategies.zoo` strategies (one
    round = one batch) — and the baseline strategies in
    :mod:`repro.core.baselines` (NAS-only, hardware-aware NAS,
    Monte-Carlo, design sweeps).
    """

    #: Stable identifier recorded in checkpoints and campaign JSON.
    strategy_name: str

    @property
    def total_rounds(self) -> int:
        """How many rounds a complete run executes."""
        ...

    def propose(self, k: int | None = None) -> Sequence[Candidate]:
        """Draw the round's candidates (consumes RNG, prices nothing).

        ``k`` is the driver's batch-size hint; strategies with a fixed
        round structure (an RL episode, an EA generation) ignore it,
        stream-like strategies (Monte-Carlo, sweeps) cap their chunk at
        ``k``.  May return no candidates (e.g. accuracy-only NAS).
        """
        ...

    def observe(self, evaluations: Sequence[HardwareEvaluation]
                ) -> RoundLog | None:
        """Consume the priced candidates (in ``propose`` order): update
        the optimiser, run the training path, record solutions."""
        ...

    def finish(self) -> Any:
        """Assemble the run's result (the driver sets its ``pricing``)."""
        ...

    def state(self) -> dict:
        """Picklable snapshot of all mutable run state: optimiser
        parameters, RNG stream positions, pending batches, the
        result-so-far (including best-so-far) and training-path memo."""
        ...

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state` snapshot (inverse operation)."""
        ...


class SearchDriver:
    """Drives one strategy to completion over one evaluation service.

    Args:
        strategy: The optimiser to drive.
        service: Hardware-pricing service.  May be ``None`` only for
            strategies that never propose candidates (accuracy-only
            NAS).  The driver does *not* close the service — ownership
            stays with the caller (strategy facade, campaign, or a
            ``with EvalService(...)`` block), so one cache can outlive
            many runs.
        batch_size: Hint forwarded to ``propose`` for stream-like
            strategies; ``None`` lets the strategy choose.
        checkpoint_path: Where to write checkpoints (no checkpointing
            when ``None``).
        checkpoint_every: Write a checkpoint every N completed rounds
            (0 disables periodic writes; :meth:`save_checkpoint` can
            still be called explicitly).
        progress_every: Emit the strategy's round message every N rounds
            (``None``/0 = silent).
        progress: Sink for progress messages (default: ``print``).
    """

    def __init__(
        self,
        strategy: SearchStrategy,
        service: EvalService | None,
        *,
        batch_size: int | None = None,
        checkpoint_path: str | Path | None = None,
        checkpoint_every: int = 0,
        progress_every: int | None = None,
        progress: Callable[[str], Any] = print,
    ) -> None:
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        self.strategy = strategy
        self.service = service
        self.batch_size = batch_size
        self.checkpoint_path = (Path(checkpoint_path)
                                if checkpoint_path is not None else None)
        self.checkpoint_every = checkpoint_every
        self.progress_every = progress_every
        self.progress = progress
        self._round = 0
        self._stats_start = (service.stats.snapshot()
                             if service is not None else None)
        self._result: Any = None
        self._finished = False

    # ------------------------------------------------------------------
    # Loop
    # ------------------------------------------------------------------
    @property
    def round(self) -> int:
        """Completed rounds so far."""
        return self._round

    @property
    def done(self) -> bool:
        return self._round >= self.strategy.total_rounds

    def step(self) -> bool:
        """Run one round; returns whether rounds remain.

        The round is the driver's only pattern: propose (RNG), price as
        one batch (RNG-free), observe.  Periodic checkpoints are written
        *after* the round completes, so a checkpoint always sits on a
        round boundary and resume never replays a partial round.
        """
        if self.done:
            return False
        pairs = list(self.strategy.propose(self.batch_size))
        if pairs:
            if self.service is None:
                raise RuntimeError(
                    f"strategy {self.strategy.strategy_name!r} proposed "
                    "candidates but the driver has no evaluation service")
            evaluations = self.service.evaluate_many(pairs)
        else:
            evaluations = []
        log = self.strategy.observe(evaluations)
        self._round += 1
        if (self.progress_every and log is not None and log.message
                and self._round % self.progress_every == 0):
            self.progress(log.message)
        if (self.checkpoint_path is not None and self.checkpoint_every
                and self._round % self.checkpoint_every == 0
                and not self.done):
            self.save_checkpoint()
        return not self.done

    def run(self, max_rounds: int | None = None) -> Any:
        """Run to completion (or at most ``max_rounds`` more rounds).

        Returns the strategy's finished result, or ``None`` if the
        budget ran out before the final round — call :meth:`run` again
        (or :meth:`step`) to continue.
        """
        steps = 0
        while not self.done:
            if max_rounds is not None and steps >= max_rounds:
                return None
            self.step()
            steps += 1
        return self.finish()

    def finish(self) -> Any:
        """Assemble the result once and set its ``pricing`` record.

        The record is a *delta* against the service's counters at
        driver start, so runs sharing one campaign-wide service still
        report their own budget (requests, cache and pricing counters)
        rather than the cache's lifetime totals.
        """
        if not self._finished:
            result = self.strategy.finish()
            if self.service is not None and isinstance(result,
                                                       SearchResult):
                result.pricing = self.service.stats.delta(
                    self._stats_start)
            self._result = result
            self._finished = True
        return self._result

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------
    def save_checkpoint(self, path: str | Path | None = None) -> Path:
        """Write the run's full state to ``path`` (atomic replace)."""
        target = Path(path) if path is not None else self.checkpoint_path
        if target is None:
            raise ValueError("no checkpoint path configured")
        payload = {
            "strategy_name": self.strategy.strategy_name,
            "round": self._round,
            "total_rounds": self.strategy.total_rounds,
            "context_salt": (self.service.context_salt
                             if self.service is not None else None),
            "store_path": self._store_path(),
            "stats_start": self._stats_start,
            "strategy_state": self.strategy.state(),
            "service_state": (self.service.state_snapshot()
                              if self.service is not None else None),
        }
        return save_checkpoint(target, payload)

    def _store_path(self) -> str | None:
        """Resolved path of the service's persistent store, if any."""
        if self.service is None or self.service.store is None:
            return None
        return str(self.service.store.path.resolve())

    def restore(self, path: str | Path) -> "SearchDriver":
        """Resume a checkpointed run into this (freshly built) driver.

        The caller reconstructs the strategy and service exactly as the
        original run did (same config, same seed, same workload) and the
        checkpoint is verified against them — mismatched strategy,
        budget or evaluation context fails loudly instead of silently
        diverging.  Resume assumes the service is exclusive to this run
        (its cache is restored wholesale).
        """
        payload = load_checkpoint(path)
        if payload["strategy_name"] != self.strategy.strategy_name:
            # Late import: the registry registers strategies that import
            # this module, so the dependency must not be at module level.
            from repro.core.strategies.registry import strategy_names
            raise ValueError(
                f"checkpoint is for strategy "
                f"{payload['strategy_name']!r}, not "
                f"{self.strategy.strategy_name!r} "
                f"(registered strategies: {', '.join(strategy_names())})")
        if payload["total_rounds"] != self.strategy.total_rounds:
            raise ValueError(
                f"checkpoint budget ({payload['total_rounds']} rounds) "
                f"does not match this run "
                f"({self.strategy.total_rounds} rounds)")
        salt = (self.service.context_salt
                if self.service is not None else None)
        if payload["context_salt"] != salt:
            raise ValueError(
                "checkpoint evaluation context (workload specs/bounds, "
                "cost parameters, rho) does not match this run")
        if payload.get("store_path") != self._store_path():
            raise ValueError(
                f"checkpoint was written against evaluation store "
                f"{payload.get('store_path')!r}, but this run uses "
                f"{self._store_path()!r} — resume with the same store "
                f"(or the same absence of one)")
        self.strategy.load_state(payload["strategy_state"])
        if self.service is not None and payload["service_state"] is not None:
            self.service.restore_state(payload["service_state"])
        stats_start = payload["stats_start"]
        self._stats_start = (stats_start.snapshot()
                             if stats_start is not None else None)
        self._round = payload["round"]
        self._result = None
        self._finished = False
        return self


def attach_service(evaluator: Evaluator,
                   evalservice: EvalService | None = None,
                   **options) -> tuple[EvalService, bool]:
    """The one owned-or-injected decision for every search.

    Without ``evalservice`` a fresh :class:`EvalService` over
    ``evaluator`` is built from ``options`` (``cache_size``, ``store``)
    and owned by the caller.  An injected
    (shared) service must price under the evaluator's exact context —
    workload, cost-model parameters and rho — and stays with its owner;
    ``options`` are then ignored.

    Returns:
        ``(service, owned)``.

    Raises:
        ValueError: If the injected service prices under a different
            evaluation context.
    """
    if evalservice is None:
        return EvalService(evaluator, **options), True
    verify_injected_service(evalservice, evaluator.workload,
                            evaluator.cost_model.params, evaluator.rho)
    return evalservice, False


class JointSearch:
    """Construction, run and close path shared by the class-style
    searches over the joint (architectures, accelerator) space.

    Subclasses set ``strategy_name``, add their RNG streams and run state
    after calling ``super().__init__`` and implement
    :meth:`_default_config` plus the remaining :class:`SearchStrategy`
    methods; every one keeps its run result in ``self._result``.

    Args:
        workload: Multi-task workload with design specs.
        allocation: Hardware allocation space; defaults to the paper's
            two-slot, 4096-PE, 64-GB/s configuration.
        cost_model: MAESTRO-substitute oracle (fresh one by default).
        surrogate: Accuracy oracle; defaults to the paper-calibrated
            surrogate with the workload's spaces registered.
        config: Search parameters (the subclass's default config when
            omitted).  Must carry ``rho``, ``calibrate_bounds`` and
            ``cache_size``.
        evalservice: Optional *injected* hardware-evaluation service —
            e.g. a campaign-wide shared cache.  Must price under the
            exact same evaluation context (verified via its salt); the
            search then does not own it (``close`` leaves it alive) and
            ``config.cache_size`` is ignored.
        store: Optional persistent evaluation store
            (:class:`repro.core.store.EvalStore`) attached to the
            search's own service — the run warm-starts from designs
            priced by earlier runs and appends its own durably.  The
            caller owns the store.  Ignored when ``evalservice`` is
            injected (the injected service decides its own tiers).
    """

    def __init__(
        self,
        workload: Workload,
        *,
        allocation: AllocationSpace | None = None,
        cost_model: CostModel | None = None,
        surrogate: AccuracySurrogate | None = None,
        config=None,
        evalservice: EvalService | None = None,
        store=None,
    ) -> None:
        self.allocation = allocation or AllocationSpace()
        self.config = config or self._default_config()
        self.cost_model = cost_model or CostModel()
        if self.config.calibrate_bounds:
            bounds = calibrate_penalty_bounds(workload, self.cost_model,
                                              self.allocation)
            workload = workload.with_specs(workload.specs, bounds=bounds)
        self.workload = workload
        if surrogate is None:
            surrogate = default_surrogate(
                [task.space for task in workload.tasks])
        self.surrogate = surrogate
        self.trainer = SurrogateTrainer(surrogate)
        self.evaluator = Evaluator(workload, self.cost_model, self.trainer,
                                   rho=self.config.rho)
        self.evalservice, self._owns_service = attach_service(
            self.evaluator, evalservice, cache_size=self.config.cache_size,
            store=store)
        self.space = JointSearchSpace(workload, self.allocation)

    def _default_config(self):
        raise NotImplementedError

    def finish(self) -> SearchResult:
        """Assemble the run record (the driver sets its ``pricing``)."""
        result = self._result
        result.trainings_run = self.trainer.trainings_run
        result.trainings_skipped = self.trainer.trainings_skipped
        return result

    def run(self, *, progress_every: int | None = None,
            checkpoint_path: str | Path | None = None,
            checkpoint_every: int = 0,
            resume_from: str | Path | None = None) -> SearchResult:
        """Run the search and return the full exploration record.

        One trajectory per instance: the run state lives on the search
        object, so ``run`` continues where a previous (partial) run or a
        restored checkpoint left off.  ``resume_from`` restores a
        checkpoint written by a previous process first and continues it
        bit-identically; the budget of the resumed run must match.
        """
        driver = SearchDriver(
            self, self.evalservice,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            progress_every=progress_every)
        if resume_from is not None:
            driver.restore(resume_from)
        return driver.run()

    def close(self) -> None:
        """Close the search's own evaluation service.  Use the search
        as a context manager to get it automatically.  Injected (shared)
        services are left alive — their owner closes them.
        """
        if self._owns_service:
            self.evalservice.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
