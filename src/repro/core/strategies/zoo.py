"""Surrogate-guided strategy zoo on the :class:`SearchStrategy` protocol.

Three model-based optimisers over the same joint genome the RNN
controller and the GA use, all driven by
:class:`repro.core.driver.SearchDriver` (one round = one batched
proposal priced through the evaluation service):

- :class:`LocalSearch` (``local``) — best-improvement neighbourhood
  search with random restarts: the cheap strong baseline.
- :class:`BayesOptSearch` (``bayesopt``) — Gaussian-process surrogate
  with expected-improvement acquisition and *constant-liar* batching,
  so ``propose()`` stays a single batched round (picked points are
  refit with a pessimistic lie before the next pick).
- :class:`EnsembleSearch` (``ensemble``) — BANANAS-style bagged-MLP
  predictor with a predicted-mean-minus-variance acquisition.

Every zoo strategy accepts ``warm_store=``: an
:class:`~repro.core.store.EvalStore` whose salt-matching records
(designs priced by *earlier* runs under the identical evaluation
context) are decoded back into genomes and used to pre-train the
surrogate before round 0 — Apollo's transferable-exploration idea on
the repo's existing persistence layer.  Warm records enter the model's
training set only; they are not counted as explored solutions of this
run.

Seeding contract: all randomness derives from ``config.seed`` through
two sub-streams (0: sampling/pools, 1: model fitting), and
``state()/load_state()`` cover every mutable piece of run state — the
``checkpoint-resume`` fuzz pair holds kill-and-resume bit-identity at
every round boundary, warm-started or not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.choices import random_genes, repair_genes
from repro.core.codec import accelerator_from_key
from repro.core.driver import JointSearch, RoundLog
from repro.core.results import EpisodeRecord, ExploredSolution, SearchResult
from repro.core.reward import episode_reward, weighted_normalised_accuracy
from repro.core.store import EvalStore
from repro.train.regressors import (
    GaussianProcessRegressor,
    MLPEnsembleRegressor,
    expected_improvement,
)
from repro.utils.rng import new_rng, restore_rng, rng_state, spawn_rng
from repro.workloads.workload import Workload

__all__ = [
    "BayesOptConfig",
    "BayesOptSearch",
    "EnsembleConfig",
    "EnsembleSearch",
    "LocalSearchConfig",
    "LocalSearch",
]


def _common_validate(config) -> None:
    if config.rounds < 1:
        raise ValueError("rounds must be >= 1")
    if config.batch < 1:
        raise ValueError("batch must be >= 1")
    if config.cache_size < 0:
        raise ValueError("cache_size must be >= 0")


@dataclass(frozen=True)
class LocalSearchConfig:
    """Best-improvement neighbourhood search parameters.

    Attributes:
        rounds: Proposal rounds (the strategy's budget unit).
        batch: Neighbours evaluated per round.
        patience: Rounds without incumbent improvement before a random
            restart batch.
        rho: Penalty coefficient of Eq. 4.
        seed: Master seed.
        calibrate_bounds: Use the paper-faithful exploration penalty
            bounds (see :mod:`repro.core.bounds_calibration`).
        cache_size: LRU capacity of the owned service's cache.
    """

    rounds: int = 25
    batch: int = 8
    patience: int = 2
    rho: float = 10.0
    seed: int = 11
    calibrate_bounds: bool = True
    cache_size: int = 4096

    def __post_init__(self) -> None:
        _common_validate(self)
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


@dataclass(frozen=True)
class BayesOptConfig:
    """GP + expected-improvement parameters.

    Attributes:
        rounds: Proposal rounds.
        batch: Designs picked per round via constant-liar refits.
        candidates: Acquisition candidate-pool size per round.
        xi: EI exploration margin.
        lengthscale: GP kernel lengthscale (features live in [0, 1]).
        noise: GP observation-noise variance.
        rho / seed / calibrate_bounds / cache_size: As in
            :class:`LocalSearchConfig`.
    """

    rounds: int = 20
    batch: int = 4
    candidates: int = 96
    xi: float = 0.01
    lengthscale: float = 0.35
    noise: float = 1e-4
    rho: float = 10.0
    seed: int = 23
    calibrate_bounds: bool = True
    cache_size: int = 4096

    def __post_init__(self) -> None:
        _common_validate(self)
        if self.candidates < 1:
            raise ValueError("candidates must be >= 1")


@dataclass(frozen=True)
class EnsembleConfig:
    """Bagged-MLP ensemble parameters.

    Attributes:
        rounds: Proposal rounds.
        batch: Designs picked per round (top-k by acquisition).
        candidates: Acquisition candidate-pool size per round.
        models / hidden / epochs / lr: Ensemble shape and training (see
            :class:`repro.train.regressors.MLPEnsembleRegressor`).
        beta: Weight of the variance penalty in the
            mean-minus-variance acquisition.
        rho / seed / calibrate_bounds / cache_size: As in
            :class:`LocalSearchConfig`.
    """

    rounds: int = 20
    batch: int = 4
    candidates: int = 96
    models: int = 5
    hidden: int = 16
    epochs: int = 120
    lr: float = 0.05
    beta: float = 1.0
    rho: float = 10.0
    seed: int = 29
    calibrate_bounds: bool = True
    cache_size: int = 4096

    def __post_init__(self) -> None:
        _common_validate(self)
        if self.candidates < 1:
            raise ValueError("candidates must be >= 1")
        if self.models < 1:
            raise ValueError("models must be >= 1")


class _ModelGuidedStrategy(JointSearch):
    """Shared scaffolding of the zoo strategies.

    Construction, ``run`` and ``close`` are those of
    :class:`repro.core.driver.JointSearch` (bounds calibration,
    owned-vs-injected service, store attachment), so the zoo is drop-in
    interchangeable with the existing loops, including campaign-shared
    caches; ``warm_store=`` is the zoo's one extra keyword.  Subclasses
    implement ``_propose_genes`` plus optional per-strategy state hooks.
    """

    strategy_name = "model-guided"
    _label = "ModelGuided"

    def __init__(self, workload: Workload, *,
                 warm_store: "EvalStore | None" = None, **kwargs) -> None:
        super().__init__(workload, **kwargs)
        master = new_rng(self.config.seed)
        self._sample_rng = spawn_rng(master, 0)
        self._model_rng = spawn_rng(master, 1)
        # -- run state (one trajectory per instance) -------------------
        self._result = SearchResult(
            name=f"{self._label}[{self.workload.name}]")
        self._round = 0
        self._pending: tuple | None = None
        self._genes: list[tuple[int, ...]] = []
        self._rewards: list[float] = []
        self._seen: set[tuple[int, ...]] = set()
        self._incumbent: tuple[tuple[int, ...], float] | None = None
        self._warm_count = 0
        if warm_store is not None:
            self._warm_from_store(warm_store)

    # -- subclass hooks ------------------------------------------------
    def _propose_genes(self) -> list[list[int]]:
        raise NotImplementedError

    def _after_observe(self, improved: bool) -> None:
        pass

    def _strategy_state(self) -> dict:
        return {}

    def _load_strategy_state(self, state: dict) -> None:
        pass

    # -- warm start from the persistent store --------------------------
    def _warm_from_store(self, store: "EvalStore") -> None:
        """Pre-train the surrogate from the store's salt-matching records.

        Every record priced under this run's exact evaluation context is
        decoded back into a genome, scored with the Eq. 4 reward (stored
        hardware penalty + surrogate accuracies), and appended to the
        model's training set.  Records from other contexts, other
        allocation bounds, or undecodable designs are skipped.
        """
        salt = self.evalservice.context_salt
        budget = (self.allocation.budget.max_pes,
                  self.allocation.budget.max_bandwidth_gbps)
        for key, hardware in store.iter_evaluations(salt):
            genes = self._genes_from_content(key, budget)
            if genes is None:
                continue
            gene_key = tuple(genes)
            if gene_key in self._seen:
                continue
            joint = self.space.decode(genes)
            accuracies = tuple(self.surrogate.accuracy(net)
                               for net in joint.networks)
            weighted = weighted_normalised_accuracy(self.workload,
                                                    accuracies)
            reward = episode_reward(weighted, hardware.penalty,
                                    self.config.rho)
            self._genes.append(gene_key)
            self._rewards.append(reward)
            self._seen.add(gene_key)
            if self._incumbent is None or reward > self._incumbent[1]:
                self._incumbent = (gene_key, reward)
            self._warm_count += 1

    def _genes_from_content(self, key, budget) -> list[int] | None:
        """Invert :func:`repro.core.evalservice.design_content` to a genome.

        Returns ``None`` for records that do not fit this run's spaces
        (different tasks, allocation options, or budget).  Canonical
        (shortened) U-Net genotypes are padded by
        :meth:`~repro.arch.space.ArchitectureSpace.genotype_indices`.
        """
        identities, _slots, budget_key = key
        if (budget_key != budget
                or len(identities) != len(self.workload.tasks)):
            return None
        genes = [0] * self.space.num_decisions
        try:
            for t, (backbone, dataset, genotype) in enumerate(identities):
                space = self.workload.tasks[t].space
                if (backbone != space.backbone
                        or dataset != space.dataset):
                    return None
                genes[self.space.task_slice(t)] = list(
                    space.genotype_indices(genotype))
            forced = self.space.encode_design(accelerator_from_key(key))
        except (ValueError, IndexError):
            return None
        for position, action in forced.items():
            genes[position] = action
        return genes

    # -- genome helpers ------------------------------------------------
    def _features(self, genes) -> np.ndarray:
        """Normalise a genome into the surrogate's [0, 1]^d feature box."""
        return np.array([
            g / max(1, d.num_options - 1)
            for g, d in zip(genes, self.space.decisions)], dtype=float)

    def _fit_targets(self) -> np.ndarray:
        """Observed rewards winsorized for surrogate fitting.

        Eq. 4 rewards are unbounded below (``rho`` times the penalty),
        and a handful of badly infeasible designs can be 50+ units
        under the feasible band.  Fitting on the raw values makes the
        surrogate spend its capacity separating terrible from bad while
        the feasible top — the region the search must rank — drowns in
        the standardisation.  Clamping to the 10th percentile keeps the
        ordering of everything that matters and turns the outliers into
        a single "bad" plateau.  Only the model sees these values;
        incumbents and results keep the raw rewards.
        """
        y = np.array(self._rewards, dtype=float)
        return np.maximum(y, float(np.quantile(y, 0.10)))

    def _mutate_one(self, base) -> list[int]:
        """One repaired single-gene mutation of ``base``."""
        genes = list(base)
        pos = int(self._sample_rng.integers(len(genes)))
        width = self.space.decisions[pos].num_options
        if width > 1:
            shift = 1 + int(self._sample_rng.integers(width - 1))
            genes[pos] = (genes[pos] + shift) % width
        return repair_genes(self.space, genes)

    def _distinct_random(self, n: int) -> list[list[int]]:
        """``n`` random genomes, deduped best-effort against history."""
        picked: list[list[int]] = []
        tried: set[tuple[int, ...]] = set()
        attempts = 0
        while len(picked) < n:
            genes = random_genes(self.space, self._sample_rng)
            gene_key = tuple(genes)
            attempts += 1
            if attempts <= 10 * n and (gene_key in tried
                                       or gene_key in self._seen):
                continue
            tried.add(gene_key)
            picked.append(genes)
        return picked

    def _candidate_pool(self, n: int) -> list[list[int]]:
        """Unevaluated candidates: incumbent mutations + random genomes."""
        pool: list[list[int]] = []
        tried: set[tuple[int, ...]] = set()
        half = n // 2
        attempts = 0
        while len(pool) < n and attempts < 10 * n:
            attempts += 1
            if self._incumbent is not None and len(pool) < half:
                genes = self._mutate_one(self._incumbent[0])
            else:
                genes = random_genes(self.space, self._sample_rng)
            gene_key = tuple(genes)
            if gene_key in tried or gene_key in self._seen:
                continue
            tried.add(gene_key)
            pool.append(genes)
        return pool

    # -- SearchStrategy protocol ---------------------------------------
    @property
    def total_rounds(self) -> int:
        """Rounds a complete run executes."""
        return self.config.rounds

    @property
    def warm_samples(self) -> int:
        """How many store records warm-trained the surrogate."""
        return self._warm_count

    def propose(self, k: int | None = None) -> list:
        """Pick one batch of designs to price (``k`` is ignored: the
        batch size is fixed by the configuration)."""
        cohort = self._propose_genes()
        joints = [self.space.decode(genes) for genes in cohort]
        self._pending = (cohort, joints)
        return [(joint.networks, joint.accelerator) for joint in joints]

    def observe(self, evaluations) -> RoundLog:
        """Finish the batch (training path + Eq. 4 reward), extend the
        surrogate's training set and refresh the incumbent."""
        assert self._pending is not None, "observe() before propose()"
        cohort, joints = self._pending
        self._pending = None
        improved = False
        round_best = None
        for genes, joint, hardware in zip(cohort, joints, evaluations):
            accuracies = self.evaluator.train_networks(joint.networks)
            weighted = weighted_normalised_accuracy(self.workload,
                                                    accuracies)
            reward = episode_reward(weighted, hardware.penalty,
                                    self.config.rho)
            solution = ExploredSolution.priced(joint.networks, hardware,
                                               accuracies, weighted)
            self._result.record(solution)
            gene_key = tuple(genes)
            if gene_key not in self._seen:
                self._genes.append(gene_key)
                self._rewards.append(reward)
                self._seen.add(gene_key)
            if self._incumbent is None or reward > self._incumbent[1]:
                self._incumbent = (gene_key, reward)
                improved = True
            if round_best is None or reward > round_best[0]:
                round_best = (reward, solution, hardware.penalty)
        if round_best is not None:
            self._result.episodes.append(EpisodeRecord(
                episode=self._round, solution=round_best[1],
                reward=round_best[0], penalty=round_best[2],
                trained=True, hardware_steps=len(cohort)))
        self._after_observe(improved)
        self._round += 1
        best = (f"{self._result.best.weighted_accuracy:.4f}"
                if self._result.best else "none")
        return RoundLog(
            self._round - 1,
            f"round {self._round}/{self.total_rounds} best={best}")

    def state(self) -> dict:
        """Snapshot every mutable piece of run state — surrogate
        training set, incumbent, both RNG positions, result, trainer
        memo and the subclass's model state."""
        return {
            "round": self._round,
            "sample_rng": rng_state(self._sample_rng),
            "model_rng": rng_state(self._model_rng),
            "genes": list(self._genes),
            "rewards": list(self._rewards),
            "incumbent": self._incumbent,
            "warm_count": self._warm_count,
            "result": self._result,
            "trainer": self.trainer.state(),
            "model": self._strategy_state(),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state` snapshot (resume support)."""
        self._round = state["round"]
        self._sample_rng = restore_rng(state["sample_rng"])
        self._model_rng = restore_rng(state["model_rng"])
        self._genes = list(state["genes"])
        self._rewards = list(state["rewards"])
        self._seen = set(self._genes)
        self._incumbent = state["incumbent"]
        self._warm_count = state["warm_count"]
        self._result = state["result"]
        self.trainer.load_state(state["trainer"])
        self._pending = None
        self._load_strategy_state(state["model"])


class LocalSearch(_ModelGuidedStrategy):
    """Best-improvement neighbourhood search with random restarts.

    Round 0 (or any round after ``patience`` stalls) evaluates a random
    batch; other rounds evaluate single-gene mutations of the incumbent
    genome.  With ``warm_store=`` the incumbent starts at the best
    store-decoded design, so the first batch already climbs.
    """

    strategy_name = "local"
    _label = "Local"

    def __init__(self, workload, **kwargs):
        self._stall = 0
        super().__init__(workload, **kwargs)

    def _default_config(self):
        return LocalSearchConfig()

    def _propose_genes(self) -> list[list[int]]:
        cfg = self.config
        if self._incumbent is None or self._stall >= cfg.patience:
            self._stall = 0
            return self._distinct_random(cfg.batch)
        base = self._incumbent[0]
        picked: list[list[int]] = []
        tried: set[tuple[int, ...]] = set()
        attempts = 0
        while len(picked) < cfg.batch and attempts < 20 * cfg.batch:
            attempts += 1
            genes = self._mutate_one(base)
            gene_key = tuple(genes)
            if (gene_key in tried or gene_key in self._seen
                    or gene_key == tuple(base)):
                continue
            tried.add(gene_key)
            picked.append(genes)
        if len(picked) < cfg.batch:
            picked.extend(self._distinct_random(cfg.batch - len(picked)))
        return picked

    def _after_observe(self, improved: bool) -> None:
        self._stall = 0 if improved else self._stall + 1

    def _strategy_state(self) -> dict:
        return {"stall": self._stall}

    def _load_strategy_state(self, state: dict) -> None:
        self._stall = state["stall"]


class BayesOptSearch(_ModelGuidedStrategy):
    """GP surrogate + expected improvement with constant-liar batching.

    Each round fits the GP on all observed (and warm) rewards
    (winsorized, see :meth:`_ModelGuidedStrategy._fit_targets`), then
    greedily picks ``batch`` candidates: after every pick the picked
    point re-enters the fit with a pessimistic *lie* (the worst fit
    target), which pushes subsequent picks away from it — the whole
    batch still prices as one driver round.
    """

    strategy_name = "bayesopt"
    _label = "BayesOpt"

    def __init__(self, workload, **kwargs):
        self._last_liars: list[tuple[int, ...]] = []
        super().__init__(workload, **kwargs)

    def _default_config(self):
        return BayesOptConfig()

    def _propose_genes(self) -> list[list[int]]:
        cfg = self.config
        if not self._genes:
            return self._distinct_random(cfg.batch)
        pool = self._candidate_pool(cfg.candidates)
        if not pool:
            return self._distinct_random(cfg.batch)
        X = [self._features(g) for g in self._genes]
        y = [float(v) for v in self._fit_targets()]
        best = float(max(y))
        lie = float(min(y))
        picked: list[list[int]] = []
        self._last_liars = []
        for _ in range(min(cfg.batch, len(pool))):
            surrogate = GaussianProcessRegressor(
                lengthscale=cfg.lengthscale, noise=cfg.noise)
            surrogate.fit(np.array(X), np.array(y))
            feats = np.array([self._features(g) for g in pool])
            mean, std = surrogate.predict(feats)
            gain = expected_improvement(mean, std, best=best, xi=cfg.xi)
            choice = int(np.argmax(gain))
            genes = pool.pop(choice)
            picked.append(genes)
            X.append(self._features(genes))
            y.append(lie)
            self._last_liars.append(tuple(genes))
        if len(picked) < cfg.batch:
            picked.extend(self._distinct_random(cfg.batch - len(picked)))
        return picked

    def _strategy_state(self) -> dict:
        return {"liars": list(self._last_liars)}

    def _load_strategy_state(self, state: dict) -> None:
        self._last_liars = list(state["liars"])


class EnsembleSearch(_ModelGuidedStrategy):
    """BANANAS-style bagged-MLP predictor.

    Each round refits the ensemble (bootstrap + fresh initialisations
    from the model RNG stream) on all observed (and warm) rewards
    (winsorized, see :meth:`_ModelGuidedStrategy._fit_targets`) and
    takes the top-``batch`` pool candidates by the conservative
    acquisition ``predicted mean - beta * predicted variance`` (the
    variance is scaled to the fit targets' spread so ``beta`` means the
    same thing on every reward scale).  Batch slots whose acquisition
    cannot beat the incumbent's observed reward fall back to random
    exploration — the model itself is claiming it knows nothing better,
    and spending evaluations on predicted-no-improvement clones is how
    plateaus of neutral mutations trap a conservative acquisition.
    """

    strategy_name = "ensemble"
    _label = "Ensemble"

    def __init__(self, workload, **kwargs):
        self._model: MLPEnsembleRegressor | None = None
        super().__init__(workload, **kwargs)

    def _default_config(self):
        return EnsembleConfig()

    def _propose_genes(self) -> list[list[int]]:
        cfg = self.config
        if not self._genes:
            return self._distinct_random(cfg.batch)
        pool = self._candidate_pool(cfg.candidates)
        if not pool:
            return self._distinct_random(cfg.batch)
        model = MLPEnsembleRegressor(
            models=cfg.models, hidden=cfg.hidden,
            epochs=cfg.epochs, lr=cfg.lr)
        targets = self._fit_targets()
        model.fit(np.array([self._features(g) for g in self._genes]),
                  targets, self._model_rng)
        self._model = model
        mean, std = model.predict(
            np.array([self._features(g) for g in pool]))
        scale = float(np.std(targets))
        if scale < 1e-12:
            scale = 1.0
        acquisition = mean - cfg.beta * std * std / scale
        order = np.argsort(-acquisition, kind="stable")
        floor = (self._incumbent[1] if self._incumbent is not None
                 else float("-inf"))
        picked = [pool[i] for i in order[:cfg.batch]
                  if acquisition[i] > floor]
        if len(picked) < cfg.batch:
            picked.extend(self._distinct_random(cfg.batch - len(picked)))
        return picked

    def _strategy_state(self) -> dict:
        return {"ensemble": (self._model.state()
                             if self._model is not None else None)}

    def _load_strategy_state(self, state: dict) -> None:
        snapshot = state["ensemble"]
        if snapshot is None:
            self._model = None
        else:
            cfg = self.config
            self._model = MLPEnsembleRegressor(
                models=cfg.models, hidden=cfg.hidden,
                epochs=cfg.epochs, lr=cfg.lr)
            self._model.load_state(snapshot)
