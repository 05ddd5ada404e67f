"""Search result records shared by NASAIC and the baselines."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accel.accelerator import HeterogeneousAccelerator
from repro.arch.network import NetworkArch

__all__ = ["EpisodeRecord", "ExploredSolution", "SearchResult"]


@dataclass(frozen=True)
class ExploredSolution:
    """One fully evaluated (architectures, accelerator) pair.

    These are the points plotted in Fig. 6: hardware metrics plus the
    accuracy of every task network (display units: % or IOU).
    """

    networks: tuple[NetworkArch, ...]
    accelerator: HeterogeneousAccelerator
    latency_cycles: int
    energy_nj: float
    area_um2: float
    feasible: bool
    accuracies: tuple[float, ...]
    weighted_accuracy: float

    @property
    def genotypes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(net.genotype for net in self.networks)

    def describe(self) -> str:
        """One-line summary in the paper's notation."""
        acc = "/".join(f"{a:.4g}" for a in self.accuracies)
        flag = "meets specs" if self.feasible else "VIOLATES specs"
        return (f"{self.accelerator.describe()} acc={acc} "
                f"L={self.latency_cycles:.3g} E={self.energy_nj:.3g} "
                f"A={self.area_um2:.3g} [{flag}]")


@dataclass(frozen=True)
class EpisodeRecord:
    """Diagnostics for one NASAIC episode.

    ``solution`` is ``None`` when early pruning skipped the episode's
    training (no feasible hardware among the ``1 + phi`` designs).
    """

    episode: int
    solution: ExploredSolution | None
    reward: float
    penalty: float
    trained: bool
    hardware_steps: int


@dataclass
class SearchResult:
    """Outcome of one search run (NASAIC or a baseline).

    Attributes:
        name: Which approach produced the result.
        episodes: Per-episode diagnostics (empty for non-RL baselines).
        explored: All fully evaluated solutions, in discovery order.
        best: The feasible solution with the highest weighted accuracy
            (``None`` if nothing feasible was ever found).
        trainings_run / trainings_skipped: Training-path accounting
            (early-pruning effectiveness, §IV-②).
        hardware_evaluations: Hardware-path requests (cache hits included,
            so the count stays comparable across cached and uncached runs).
        cache_hits / cache_misses: Evaluation-service cache accounting
            (both zero when the run bypassed the service).
        store_hits: Requests answered from the persistent evaluation
            store (a subset of ``cache_hits``) — the cross-run
            warm-start reuse.
        eval_seconds: Wall-clock spent computing hardware-path misses.
        cost_memo_hits / cost_memo_misses: Cross-design cost-table memo
            accounting — how many (layer, sub-accelerator) pair prices
            were reused across the run's sampled designs.
        hap_moves_priced / hap_moves_pruned / hap_moves_resumed /
        hap_steps_saved / hap_steps_replayed: HAP move-pricing
            accounting — certified-bound prunes and delta-resume reuse
            inside the uncached solves (zero on worker-pool misses,
            whose counters stay in the worker processes).
        degraded: Whether a remote pricing client fell back to local
            pricing mid-run (results stay bit-identical; the flag makes
            the fault visible in the run record).
        pricing_retries / pricing_reconnects / pool_restarts: Fault
            counters — request retries and transparent reconnects of a
            remote client, and broken-pool rebuilds of a local service.
    """

    name: str
    episodes: list[EpisodeRecord] = field(default_factory=list)
    explored: list[ExploredSolution] = field(default_factory=list)
    best: ExploredSolution | None = None
    trainings_run: int = 0
    trainings_skipped: int = 0
    hardware_evaluations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    store_hits: int = 0
    eval_seconds: float = 0.0
    cost_memo_hits: int = 0
    cost_memo_misses: int = 0
    hap_moves_priced: int = 0
    hap_moves_pruned: int = 0
    hap_moves_resumed: int = 0
    hap_steps_saved: int = 0
    hap_steps_replayed: int = 0
    degraded: bool = False
    pricing_retries: int = 0
    pricing_reconnects: int = 0
    pool_restarts: int = 0

    def absorb_eval_stats(self, stats) -> None:
        """Copy an :class:`~repro.core.evalservice.EvalServiceStats`
        snapshot into this result (cache, timing and pricing counters) —
        the one call every search loop makes when it finishes."""
        self.hardware_evaluations = stats.requests
        self.cache_hits = stats.hits
        self.cache_misses = stats.misses
        self.store_hits = stats.store_hits
        self.eval_seconds = stats.miss_seconds
        self.cost_memo_hits = stats.cost_memo_hits
        self.cost_memo_misses = stats.cost_memo_misses
        self.hap_moves_priced = stats.hap_moves_priced
        self.hap_moves_pruned = stats.hap_moves_pruned
        self.hap_moves_resumed = stats.hap_moves_resumed
        self.hap_steps_saved = stats.hap_steps_saved
        self.hap_steps_replayed = stats.hap_steps_replayed
        # Fault counters (getattr-guarded: older snapshots round-trip
        # through checkpoints without these fields).
        self.degraded = bool(getattr(stats, "degraded", 0))
        self.pricing_retries = int(getattr(stats, "retries", 0))
        self.pricing_reconnects = int(getattr(stats, "reconnects", 0))
        self.pool_restarts = int(getattr(stats, "pool_restarts", 0))

    def record(self, solution: ExploredSolution) -> None:
        """Add a solution and refresh the incumbent best."""
        self.explored.append(solution)
        if solution.feasible and (
                self.best is None
                or solution.weighted_accuracy > self.best.weighted_accuracy):
            self.best = solution

    @property
    def feasible_solutions(self) -> list[ExploredSolution]:
        return [s for s in self.explored if s.feasible]

    def summary(self) -> str:
        """Multi-line human-readable run summary."""
        lines = [
            f"{self.name}: {len(self.explored)} solutions explored, "
            f"{len(self.feasible_solutions)} feasible, "
            f"{self.trainings_run} trainings run, "
            f"{self.trainings_skipped} skipped, "
            f"{self.hardware_evaluations} hardware evaluations",
        ]
        if self.cache_hits or self.cache_misses:
            total = self.cache_hits + self.cache_misses
            store = (f", {self.store_hits} from store"
                     if self.store_hits else "")
            lines.append(
                f"evaluation cache: {self.cache_hits} hits / "
                f"{self.cache_misses} misses "
                f"({self.cache_hits / total:.1%} hit rate{store}, "
                f"{self.eval_seconds:.2f}s computing)")
        if self.cost_memo_hits or self.cost_memo_misses:
            memo_total = self.cost_memo_hits + self.cost_memo_misses
            lines.append(
                f"cost-table memo: {self.cost_memo_hits} hits / "
                f"{self.cost_memo_misses} misses "
                f"({self.cost_memo_hits / memo_total:.1%} cross-design "
                f"reuse)")
        if self.hap_moves_priced:
            steps = self.hap_steps_saved + self.hap_steps_replayed
            saved = self.hap_steps_saved / steps if steps else 0.0
            lines.append(
                f"HAP move pricing: {self.hap_moves_priced} moves, "
                f"{self.hap_moves_pruned} pruned by certified bounds, "
                f"{self.hap_moves_resumed} delta-resumed "
                f"({saved:.1%} simulation steps skipped)")
        if self.degraded or self.pricing_retries \
                or self.pricing_reconnects or self.pool_restarts:
            flags = []
            if self.degraded:
                flags.append("DEGRADED to local pricing")
            if self.pricing_retries:
                flags.append(f"{self.pricing_retries} retries")
            if self.pricing_reconnects:
                flags.append(f"{self.pricing_reconnects} reconnects")
            if self.pool_restarts:
                flags.append(f"{self.pool_restarts} pool restarts")
            lines.append("pricing faults: " + ", ".join(flags))
        if self.best is not None:
            lines.append("best: " + self.best.describe())
        else:
            lines.append("best: none feasible")
        return "\n".join(lines)
