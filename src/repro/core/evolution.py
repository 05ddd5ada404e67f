"""Evolutionary co-exploration (the paper's §IV remark made concrete).

NASAIC formulates its reward (Eq. 4) independently of the optimiser and
notes that "based on the formulated reward function, other optimization
approaches, such as evolution algorithms, can also be applied".  This
module provides that alternative: a steady-state genetic algorithm over
the *same* genome the RNN controller emits — per-task architecture
indices plus per-slot (dataflow, PEs, bandwidth) indices — evaluated by
the same evaluator, so RL and EA are directly comparable at equal
evaluation budgets (see ``benchmarks/bench_optimizers.py``).

Genome layout and repair:

- architecture genes are free categorical indices;
- hardware genes are repaired after crossover/mutation by clamping each
  slot's PE/bandwidth allocation to the remaining budget (the same
  invariant the controller enforces with masks), so every individual
  decodes to a valid accelerator.

The generation loop is owned by :class:`repro.core.driver.SearchDriver`:
the search implements the :class:`~repro.core.driver.SearchStrategy`
protocol — one round is one generation, :meth:`EvolutionarySearch.propose`
breeds the whole cohort first (tournament selection reads only the
previous generation's fitness, and breeding never consults evaluation
results), the driver prices it as one cached batch and
:meth:`EvolutionarySearch.observe` finishes the fitness assignment — the
RNG stream and every fitness value are identical to the one-at-a-time
formulation.  The driver adds checkpoint/resume on top.

Seeding contract: all randomness derives from ``config.seed`` through a
single generator; evaluation is RNG-free, so batching cannot reorder
draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.choices import random_genes, repair_genes
from repro.core.driver import JointSearch, RoundLog
from repro.core.evaluator import HardwareEvaluation
from repro.core.results import ExploredSolution, SearchResult
from repro.core.reward import episode_reward, weighted_normalised_accuracy
from repro.utils.rng import new_rng, restore_rng, rng_state
from repro.workloads.workload import Workload

__all__ = ["EvolutionConfig", "EvolutionarySearch"]


@dataclass(frozen=True)
class EvolutionConfig:
    """Genetic-algorithm parameters.

    Attributes:
        population: Individuals per generation.
        generations: Generation count.
        tournament: Tournament size for parent selection.
        mutation_rate: Per-gene mutation probability.
        elite: Individuals copied unchanged into the next generation.
        rho: Penalty coefficient of Eq. 4.
        seed: Master seed.
        calibrate_bounds: Use the paper-faithful exploration penalty
            bounds (see :mod:`repro.core.bounds_calibration`).
        cache_size: LRU capacity of the hardware evaluation cache.
    """

    population: int = 40
    generations: int = 25
    tournament: int = 4
    mutation_rate: float = 0.15
    elite: int = 4
    rho: float = 10.0
    seed: int = 7
    calibrate_bounds: bool = True
    cache_size: int = 4096

    def __post_init__(self) -> None:
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if not 1 <= self.tournament <= self.population:
            raise ValueError("tournament must be in [1, population]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")
        if not 0 <= self.elite < self.population:
            raise ValueError("elite must be in [0, population)")


@dataclass
class _Individual:
    genes: list[int]
    fitness: float = field(default=float("-inf"))
    solution: ExploredSolution | None = None


class EvolutionarySearch(JointSearch):
    """GA over the joint (architectures, accelerator) genome.

    Construction, ``run`` and ``close`` are those of
    :class:`repro.core.driver.JointSearch`, shared with
    :class:`repro.core.search.NASAIC`, so the two optimisers are drop-in
    interchangeable (including ``evalservice`` injection for
    campaign-shared caches); ``config`` defaults to
    :class:`EvolutionConfig`.
    """

    strategy_name = "evolution"

    def __init__(self, workload: Workload, **kwargs) -> None:
        super().__init__(workload, **kwargs)
        self._rng = new_rng(self.config.seed)
        # -- run state (one trajectory per instance) -------------------
        self._result = SearchResult(name=f"EA[{self.workload.name}]")
        self._population: list[_Individual] = []
        self._generation = 0
        self._pending_round: tuple | None = None
        self._pending_elites: list[_Individual] = []

    def _default_config(self) -> EvolutionConfig:
        return EvolutionConfig()

    # ------------------------------------------------------------------
    # Genome operations
    # ------------------------------------------------------------------
    def _random_genes(self) -> list[int]:
        return random_genes(self.space, self._rng)

    def _repair(self, genes: list[int]) -> list[int]:
        return repair_genes(self.space, genes)

    def _crossover(self, a: list[int], b: list[int]) -> list[int]:
        child = [ga if self._rng.random() < 0.5 else gb
                 for ga, gb in zip(a, b)]
        return self._repair(child)

    def _mutate(self, genes: list[int]) -> list[int]:
        mutated = list(genes)
        for pos, decision in enumerate(self.space.decisions):
            if self._rng.random() < self.config.mutation_rate:
                mutated[pos] = int(self._rng.integers(decision.num_options))
        return self._repair(mutated)

    # ------------------------------------------------------------------
    # Fitness
    # ------------------------------------------------------------------
    def _finish_fitness(self, individual: _Individual, joint,
                        hardware: HardwareEvaluation,
                        result: SearchResult) -> None:
        accuracies = self.evaluator.train_networks(joint.networks)
        weighted = weighted_normalised_accuracy(self.workload, accuracies)
        individual.fitness = episode_reward(weighted, hardware.penalty,
                                            self.config.rho)
        individual.solution = ExploredSolution.priced(
            joint.networks, hardware, accuracies, weighted)
        result.record(individual.solution)

    def _tournament(self, population: list[_Individual]) -> _Individual:
        contenders = self._rng.choice(len(population),
                                      size=self.config.tournament,
                                      replace=False)
        return max((population[i] for i in contenders),
                   key=lambda ind: ind.fitness)

    # ------------------------------------------------------------------
    # SearchStrategy protocol (one round = one generation)
    # ------------------------------------------------------------------
    @property
    def total_rounds(self) -> int:
        """Generations a complete run executes."""
        return self.config.generations

    def propose(self, k: int | None = None) -> list:
        """Breed one generation's cohort (initial population in round 0)
        and hand its decoded designs to the driver for batch pricing.

        Selection reads only the previous generation's fitness and
        breeding never consults evaluation results, so sampling the
        whole cohort before pricing is RNG-stream-identical to the
        one-at-a-time formulation.  ``k`` is ignored: the cohort size is
        fixed by the configuration.
        """
        cfg = self.config
        if self._generation == 0:
            cohort = [_Individual(self._random_genes())
                      for _ in range(cfg.population)]
            self._pending_elites = []
        else:
            population = self._population
            population.sort(key=lambda ind: ind.fitness, reverse=True)
            self._pending_elites = [
                _Individual(list(ind.genes), ind.fitness, ind.solution)
                for ind in population[:cfg.elite]]
            cohort = []
            while len(self._pending_elites) + len(cohort) < cfg.population:
                parent_a = self._tournament(population)
                parent_b = self._tournament(population)
                cohort.append(_Individual(self._mutate(
                    self._crossover(parent_a.genes, parent_b.genes))))
        joints = [self.space.decode(ind.genes) for ind in cohort]
        self._pending_round = (cohort, joints)
        return [(joint.networks, joint.accelerator) for joint in joints]

    def observe(self, evaluations) -> RoundLog:
        """Finish the cohort's fitness (training path + Eq. 4 reward)
        and promote it, with the elites, to the next generation."""
        assert self._pending_round is not None, "observe() before propose()"
        cohort, joints = self._pending_round
        self._pending_round = None
        for individual, joint, hardware in zip(cohort, joints,
                                               evaluations):
            self._finish_fitness(individual, joint, hardware,
                                 self._result)
        self._population = self._pending_elites + cohort
        self._pending_elites = []
        self._generation += 1
        best = (f"{self._result.best.weighted_accuracy:.4f}"
                if self._result.best else "none")
        return RoundLog(
            self._generation - 1,
            f"generation {self._generation}/{self.total_rounds} "
            f"best={best}")

    def state(self) -> dict:
        """Snapshot every mutable piece of run state (see
        :meth:`repro.core.driver.SearchStrategy.state`)."""
        return {
            "generation": self._generation,
            "rng": rng_state(self._rng),
            "population": self._population,
            "result": self._result,
            "trainer": self.trainer.state(),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state` snapshot (resume support)."""
        self._generation = state["generation"]
        self._rng = restore_rng(state["rng"])
        self._population = list(state["population"])
        self._result = state["result"]
        self.trainer.load_state(state["trainer"])
        self._pending_round = None
        self._pending_elites = []
