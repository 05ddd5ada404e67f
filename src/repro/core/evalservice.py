"""Cached, batched evaluation service for the hardware hot path.

Every sampled design in the NASAIC loop prices hardware through
:meth:`repro.core.evaluator.Evaluator.evaluate_hardware` — cost model +
HAP solve — and the controller revisits near-identical (networks,
accelerator) pairs constantly.  :class:`EvalService` wraps an evaluator
with the three amenities that make the search scale (cf. Apollo and
DANCE, which both amortise the evaluator to make co-search tractable):

- a **content-keyed LRU cache** over hardware evaluations.  The cache
  itself is keyed by the exact canonical content tuple (collision-free
  by construction); the companion :func:`design_digest` renders the
  same content as a process-stable 64-bit hex digest via
  :func:`repro.utils.hashing.stable_hash` for fixtures, logs and
  cross-run comparison (golden tests snapshot these digests);
- a **batch API** (:meth:`EvalService.evaluate_many`) that deduplicates
  a batch, prices the misses in one ``evaluate_hardware_many`` call
  (one cost pass per dataflow for the whole batch) and returns results
  in request order.  Every caller, the pricing daemon included, prices
  through one miss path: :meth:`~EvalService.lookup_tiers` (LRU, then
  store), :meth:`~EvalService.compute_batch` and
  :meth:`~EvalService.admit_miss`;
- a **persistent second tier** (:class:`repro.core.store.EvalStore`,
  optional): misses in the in-memory LRU fall through to the disk
  store, and computed misses are appended durably, so a later run —
  same process or a fresh session — warm-starts from prior pricing
  (``stats.store_hits``).  Store entries are salt-namespaced and
  key-checked, so reuse is sound exactly like campaign cache sharing;
- **hit/miss/timing statistics** (:class:`EvalServiceStats`): a run's
  delta is its :attr:`repro.core.results.SearchResult.pricing` record,
  rendered by :meth:`EvalServiceStats.summary` and written to the run
  JSON.

Determinism: the hardware path is RNG-free and the store writes
evaluations as :mod:`repro.core.codec` records, whose IEEE doubles
decode to the exact numbers priced (pickled records in version-1 files
round-trip exactly too), so cached, computed and warm-started
evaluations of the same pair are bit-identical — asserted by
``tests/test_evalservice.py`` / ``tests/test_store.py`` and exploited
by the golden search test.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

from repro.accel.accelerator import HeterogeneousAccelerator
from repro.arch.network import NetworkArch
from repro.core.codec import accelerator_from_key
from repro.core.evaluator import Evaluator, HardwareEvaluation
from repro.core.store import EvalStore
from repro.cost.params import CostModelParams
from repro.utils.hashing import stable_hash
from repro.workloads.workload import Workload

__all__ = ["EvalService", "EvalServiceStats", "PricedBatch",
           "design_content", "design_digest", "evaluation_context_salt",
           "rebuild_design", "verify_injected_service"]

#: Pairs submitted to :meth:`EvalService.evaluate_many`.
_Pair = tuple[tuple[NetworkArch, ...], HeterogeneousAccelerator]


def design_content(networks: tuple[NetworkArch, ...],
                   accelerator: HeterogeneousAccelerator) -> tuple:
    """Canonical content tuple of one (networks, accelerator) pair.

    Networks are represented by
    :meth:`~repro.arch.network.NetworkArch.identity` (backbone, dataset,
    genotype) — decoding is deterministic, so the identity pins the
    exact layer chain.  The accelerator contributes its full slot tuple
    (inactive slots included: they affect nothing today, but keeping
    them in the key costs one tuple and removes a class of aliasing
    bugs) plus the resource budget.  This tuple is the cache key — using
    the content itself rather than a hash of it makes lookups exact,
    with no digest-collision failure mode.
    """
    return (
        tuple(net.identity() for net in networks),
        tuple((sub.dataflow.value, sub.num_pes, sub.bandwidth_gbps)
              for sub in accelerator.subaccs),
        (accelerator.budget.max_pes, accelerator.budget.max_bandwidth_gbps),
    )


def rebuild_design(workload: Workload, key: tuple) -> _Pair:
    """Inverse of :func:`design_content` under ``workload``.

    Each task's network is decoded from its identity through the task's
    search space (:meth:`~repro.arch.space.ArchitectureSpace.\
genotype_indices`), the accelerator from the key's slots and budget.

    Raises:
        ValueError: If the key does not describe a design of this
            workload — wrong task count, a backbone or dataset that is
            not the task's, a genotype value outside its space, an
            invalid accelerator — or if the rebuilt pair's content is
            not exactly ``key`` (for example a non-canonical genotype).
    """
    identities, _slots, _budget = key
    tasks = workload.tasks
    if len(identities) != len(tasks):
        raise ValueError(f"key holds {len(identities)} networks, the "
                         f"workload has {len(tasks)} tasks")
    try:
        networks = []
        for task, (backbone, dataset, genotype) in zip(tasks, identities):
            space = task.space
            if (backbone, dataset) != (space.backbone, space.dataset):
                raise ValueError(
                    f"key names {backbone}/{dataset}, task {task.name!r} "
                    f"is {space.backbone}/{space.dataset}")
            networks.append(space.decode(space.genotype_indices(genotype)))
        pair = (tuple(networks), accelerator_from_key(key))
    except (IndexError, TypeError) as exc:
        raise ValueError(f"key does not decode: {exc}") from exc
    if design_content(*pair) != key:
        raise ValueError("key is not the content of the design it "
                         "decodes to")
    return pair


def design_digest(networks: tuple[NetworkArch, ...],
                  accelerator: HeterogeneousAccelerator,
                  *, salt: str = "") -> str:
    """Stable 64-bit hex digest of one (networks, accelerator) pair.

    A compact, process-stable rendering of :func:`design_content` for
    fixtures, reports and cross-run comparison — not the cache key.
    """
    return format(stable_hash(design_content(networks, accelerator),
                              salt=salt), "016x")


def _context_salt(workload: Workload, params: CostModelParams,
                  rho: float) -> str:
    """Digest of everything besides the pair that shapes an evaluation."""
    specs, bounds = workload.specs, workload.bounds
    payload = (
        (specs.latency_cycles, specs.energy_nj, specs.area_um2),
        (bounds.latency_cycles, bounds.energy_nj, bounds.area_um2),
        workload.num_tasks,
        repr(params),
        rho,
    )
    return format(stable_hash(payload, salt="eval-context"), "016x")


def evaluation_context_salt(workload: Workload, params: CostModelParams,
                            rho: float) -> str:
    """Public digest of an evaluation context.

    Searches that accept an *injected* (shared) service compare this
    against :attr:`EvalService.context_salt` before using it: equal
    salts guarantee the service prices any pair exactly as a private
    service would (same specs/bounds, cost parameters and rho), so a
    campaign-wide cache cannot change results.
    """
    return _context_salt(workload, params, rho)


def verify_injected_service(service: "EvalService", workload: Workload,
                            params: CostModelParams, rho: float) -> None:
    """Refuse an injected (shared) service whose context differs.

    The single gate every search calls before borrowing a service; see
    :func:`evaluation_context_salt` for why equal salts make sharing
    sound.

    Raises:
        ValueError: If the service prices under a different evaluation
            context.
    """
    if service.context_salt != evaluation_context_salt(workload, params,
                                                       rho):
        raise ValueError(
            "injected evaluation service does not match this search's "
            "evaluation context (workload specs/bounds, cost-model "
            "parameters or rho differ)")


class PricedBatch(NamedTuple):
    """What one :meth:`EvalService.compute_batch` call priced.

    Attributes:
        evaluations: One evaluation per submitted pair, in order.
        seconds: Wall-clock of the whole batch.
    """

    evaluations: list[HardwareEvaluation]
    seconds: float


@dataclass
class EvalServiceStats:
    """Cache and timing accounting for one :class:`EvalService`.

    Attributes:
        hits: Requests answered from the cache.
        misses: Requests that ran the cost model + HAP solver.
        evictions: Entries dropped by the LRU policy.
        batches: ``evaluate_many`` invocations.
        miss_seconds: Wall-clock spent computing misses.
        cost_memo_hits / cost_memo_misses: Cost-table cell accounting
            (``CostModel.shared_cells`` / ``priced_cells``: table cells
            answered by another cell of the same batch / cells priced),
            mirrored after every miss computation.  The names predate
            the batch-local pricing; both depend on how requests are
            batched.
        shared_hits: Hits served from entries inserted in an *earlier*
            service generation (see :meth:`EvalService.bump_generation`)
            — the cross-run reuse a shared campaign cache provides.
            Entries seeded from the persistent store predate every
            generation, so their LRU re-hits count here too.
        store_hits: Requests answered from the persistent store tier
            (they count toward ``hits`` as well — the breakdown says
            *which* tier answered).
        hap_moves_priced / hap_moves_pruned / hap_moves_resumed /
        hap_steps_saved / hap_steps_replayed:
            HAP single-move pricing counters aggregated across every
            solve this service ran (see
            :class:`repro.mapping.schedule.MoveStats`).
        hap_batched_rounds: Always 0; kept because the repository
            benchmark (``perfbench/scenarios.py``) reads it.
        retries / reconnects / degraded: Fault counters mirrored by
            :class:`repro.core.client.RemoteEvalService` — request
            retries, transparent reconnects, and whether the client
            fell back to local pricing (0/1).  Always 0 for a local
            service.
        store_entries / store_bytes: Persistent-store scale gauges —
            evaluation records visible through the attached
            :class:`~repro.core.store.EvalStore` (own + parent tiers)
            and its on-disk footprint in bytes.  Like ``degraded``
            these are state, not counters: a delta carries the current
            values rather than a difference.  Always 0 with no store
            attached.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    batches: int = 0
    shared_hits: int = 0
    store_hits: int = 0
    miss_seconds: float = 0.0
    cost_memo_hits: int = 0
    cost_memo_misses: int = 0
    hap_moves_priced: int = 0
    hap_moves_pruned: int = 0
    hap_moves_resumed: int = 0
    hap_steps_saved: int = 0
    hap_steps_replayed: int = 0
    hap_batched_rounds: int = 0  # constant; read by perfbench/scenarios.py
    retries: int = 0
    reconnects: int = 0
    degraded: int = 0
    store_entries: int = 0
    store_bytes: int = 0

    @property
    def requests(self) -> int:
        """Total evaluation requests served (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of requests answered from the cache."""
        return self.hits / self.requests if self.requests else 0.0

    @property
    def seconds_saved(self) -> float:
        """Estimated wall-clock avoided: hits priced at the mean miss."""
        if not self.misses:
            return 0.0
        return self.hits * (self.miss_seconds / self.misses)

    @property
    def cost_memo_rate(self) -> float:
        """Fraction of cost-table cells shared within their batch."""
        total = self.cost_memo_hits + self.cost_memo_misses
        return self.cost_memo_hits / total if total else 0.0

    def snapshot(self) -> "EvalServiceStats":
        """Value copy of the current counters."""
        return replace(self)

    def delta(self, since: "EvalServiceStats") -> "EvalServiceStats":
        """Counter-wise difference ``self - since``.

        Used by :class:`repro.core.driver.SearchDriver` to attribute a
        *shared* service's accounting to one run: the driver snapshots
        the stats when it starts and records only the delta, so campaign
        scenarios sharing one cache still report per-run numbers.
        """
        diff = EvalServiceStats(**{
            f.name: getattr(self, f.name) - getattr(since, f.name)
            for f in fields(self)})
        # Degradation is a state, not a counter: a client that fell
        # back to local pricing before the run started (e.g. the
        # daemon was already unreachable at construction) must still
        # report the run as degraded.
        diff.degraded = self.degraded
        # Store scale is likewise a gauge — "how big is the persistent
        # tier now", not "how much did this run add".
        diff.store_entries = self.store_entries
        diff.store_bytes = self.store_bytes
        return diff

    def summary(self) -> str:
        """Human-readable account: cache line, pricing line and, when a
        remote client hit faults, a fault line.  The store gauges are
        left out, so a store-backed run summarises like a storeless
        one."""
        store = (f", {self.store_hits} from store"
                 if self.store_hits else "")
        lines = [
            f"evaluation cache: {self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.1%} hit rate{store}, "
            f"~{self.seconds_saved:.2f}s saved, "
            f"{self.miss_seconds:.2f}s computing)"]
        moves = self.hap_moves_priced
        pruned_pct = self.hap_moves_pruned / moves if moves else 0.0
        steps = self.hap_steps_saved + self.hap_steps_replayed
        saved_pct = self.hap_steps_saved / steps if steps else 0.0
        lines.append(
            f"pricing: cost cells {self.cost_memo_hits} shared / "
            f"{self.cost_memo_misses} priced "
            f"({self.cost_memo_rate:.1%} shared within batches); "
            f"HAP moves {moves} priced, "
            f"{self.hap_moves_pruned} pruned ({pruned_pct:.1%}), "
            f"{self.hap_moves_resumed} resumed "
            f"({saved_pct:.1%} steps skipped)")
        faults = []
        if self.degraded:
            faults.append("DEGRADED to local pricing")
        if self.retries:
            faults.append(f"{self.retries} retries")
        if self.reconnects:
            faults.append(f"{self.reconnects} reconnects")
        if faults:
            lines.append("pricing faults: " + ", ".join(faults))
        return "\n".join(lines)


class EvalService:
    """Caching, batching front-end to the evaluator's hardware path.

    Args:
        evaluator: The wrapped evaluator (its training path is untouched;
            only ``evaluate_hardware`` goes through the service).
        cache_size: Maximum LRU entries; 0 disables caching entirely.
        store: Optional persistent second tier
            (:class:`repro.core.store.EvalStore`).  LRU misses fall
            through to it and computed misses are appended durably.
            The service never closes the store — ownership stays with
            the caller (CLI, campaign), so one store can span many
            services and runs.
    """

    def __init__(self, evaluator: Evaluator, *, cache_size: int = 4096,
                 store: EvalStore | None = None) -> None:
        if cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        self.evaluator = evaluator
        self.cache_size = cache_size
        self.stats = EvalServiceStats()
        self._cache: OrderedDict[tuple, HardwareEvaluation] = OrderedDict()
        #: Generation an entry was inserted in (for shared-cache
        #: accounting across campaign scenarios).
        self._entry_generation: dict[tuple, int] = {}
        self._generation = 0
        self._salt = _context_salt(evaluator.workload,
                                   evaluator.cost_model.params,
                                   evaluator.rho)
        self.store: EvalStore | None = None
        if store is not None:
            self.attach_store(store)

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    @property
    def context_salt(self) -> str:
        """Digest of the evaluation context (workload specs/bounds, cost
        parameters, rho).  Two services with equal salts price any pair
        identically, so a cache may be shared between them — the driver
        and campaign runner verify this before reusing a service."""
        return self._salt

    def digest(self, networks: tuple[NetworkArch, ...],
               accelerator: HeterogeneousAccelerator) -> str:
        """Digest of one pair under this service's evaluation context.

        For reporting and fixtures; the cache is keyed by the exact
        content tuple (:func:`design_content`), not this digest.
        """
        return design_digest(networks, accelerator, salt=self._salt)

    # ------------------------------------------------------------------
    # The miss path: lookup_tiers -> compute_batch -> admit_miss
    # ------------------------------------------------------------------
    def evaluate_hardware(
        self,
        networks: tuple[NetworkArch, ...],
        accelerator: HeterogeneousAccelerator,
    ) -> HardwareEvaluation:
        """Cached drop-in for ``Evaluator.evaluate_hardware`` (a
        one-pair :meth:`evaluate_many` batch)."""
        return self.evaluate_many([(networks, accelerator)])[0]

    def evaluate_many(self, pairs: list[_Pair]) -> list[HardwareEvaluation]:
        """Evaluate a batch, pricing its distinct misses in one pass.

        Results come back in request order; duplicate pairs within one
        batch are priced once (the first occurrence is the miss, the
        rest are hits).  Equality with the serial path is exact.  With
        ``cache_size=0`` no in-memory reuse happens — every request not
        answered by the persistent store is priced, including
        intra-batch duplicates.
        """
        self.stats.batches += 1
        pairs = list(pairs)
        keys = [design_content(nets, accel) for nets, accel in pairs]
        results: list[HardwareEvaluation | None] = [None] * len(pairs)
        # key -> slot whose result answers it (intra-batch dedup).
        first: dict[tuple, int] = {}
        miss_slots: list[int] = []
        digests: list[str | None] = []
        for slot, key in enumerate(keys):
            if self.cache_size and key in first:
                self.stats.hits += 1
                continue
            first[key] = slot
            results[slot], _tier, digest = self.lookup_tiers(key)
            if results[slot] is None:
                miss_slots.append(slot)
                digests.append(digest)
        if miss_slots:
            miss_keys = [keys[slot] for slot in miss_slots]
            priced = self.compute_batch([pairs[slot] for slot in miss_slots])
            self.admit_miss(miss_keys, priced)
            for slot, evaluation in zip(miss_slots, priced.evaluations):
                results[slot] = evaluation
            self._persist(zip(miss_keys, digests, priced.evaluations))
        return [results[slot] if results[slot] is not None
                else results[first[key]]
                for slot, key in enumerate(keys)]

    def lookup_tiers(self, key: tuple
                     ) -> tuple[HardwareEvaluation | None, str | None,
                                str | None]:
        """The one tier walk: ``(evaluation, tier, digest)`` without
        computing.

        LRU first, then the persistent store, with the hit accounting
        of both.  ``tier`` is ``"hit"`` (LRU), ``"shared"`` (LRU entry
        from an earlier generation — for the daemon, typically another
        client's), ``"store"`` (persistent tier) or ``None`` (miss: the
        caller prices it with :meth:`compute_batch` and records it with
        :meth:`admit_miss`).  ``digest`` is the store-bucket digest the
        store lookup hashed (``None`` when the store was not asked), so
        a caller persisting the miss does not hash the key again.
        """
        shared_before = self.stats.shared_hits
        cached = self._lookup(key)
        if cached is not None:
            tier = ("shared" if self.stats.shared_hits > shared_before
                    else "hit")
            return cached, tier, None
        if self.store is None:
            return None, None, None
        digest = self._key_digest(key)
        cached = self._lookup_store(key, digest)
        if cached is not None:
            return cached, "store", digest
        return None, None, digest

    def compute_batch(self, pairs: list[_Pair]) -> PricedBatch:
        """The one compute step: price a batch of misses with one
        ``evaluate_hardware_many`` call (one cost pass per dataflow for
        the whole batch).

        Touches no :attr:`stats` and no cache: the caller records the
        result with :meth:`admit_miss` (the daemon first reprices a
        batch that raises design by design).
        """
        started = time.perf_counter()
        evaluations = self.evaluator.evaluate_hardware_many(pairs)
        return PricedBatch(evaluations, time.perf_counter() - started)

    def admit_miss(self, keys: list[tuple], priced: PricedBatch) -> None:
        """The one admission step: record a :meth:`compute_batch`
        result for ``keys`` (in the same order).

        Counts the misses and their wall-clock, mirrors the pricing counters and inserts every evaluation into
        the LRU.  Persistence stays with the caller: ``evaluate_many``
        appends through :meth:`_persist`, the daemon through its single
        writer task.
        """
        stats = self.stats
        stats.misses += len(keys)
        stats.miss_seconds += priced.seconds
        self._sync_pricing()
        for key, evaluation in zip(keys, priced.evaluations):
            self._store(key, evaluation)

    def _sync_pricing(self) -> None:
        """Mirror the evaluator's cumulative uncached-pricing counters
        (cost-table cells, HAP move pricing) into :attr:`stats`.

        The wrapped evaluator and cost model are exclusive to this
        service on the search paths, so mirroring their running totals
        after each miss keeps the stats consistent without double
        bookkeeping.
        """
        stats = self.stats
        moves = self.evaluator.move_stats
        stats.hap_moves_priced = moves.moves_priced
        stats.hap_moves_pruned = moves.pruned
        stats.hap_moves_resumed = moves.resumed
        stats.hap_steps_saved = moves.steps_saved
        stats.hap_steps_replayed = moves.steps_replayed
        cost_model = self.evaluator.cost_model
        stats.cost_memo_hits = cost_model.shared_cells
        stats.cost_memo_misses = cost_model.priced_cells
        self._sync_store_scale()

    def _sync_store_scale(self) -> None:
        """Mirror the persistent tier's scale gauges into :attr:`stats`.

        Both reads are O(1): the store maintains its entry count and
        byte size incrementally as records are appended, so syncing per
        batch costs nothing even against a multi-million-record store
        (no per-record walk, no ``stat()`` round-trip).
        """
        if self.store is not None:
            self.stats.store_entries = len(self.store)
            self.stats.store_bytes = self.store.size_bytes

    # ------------------------------------------------------------------
    # Persistent store tier
    # ------------------------------------------------------------------
    def attach_store(self, store: EvalStore) -> None:
        """Attach the persistent second tier.

        No context verification is needed — store entries are
        namespaced by the exact context salt, so a store shared across
        arbitrary services can only ever answer a request priced under
        an identical context.  Nothing else is loaded: the store keeps
        only evaluations, and a miss prices its cost cells afresh.
        """
        self.store = store
        self._sync_store_scale()

    def flush_store(self) -> int:
        """Retired: evaluations are appended durably as they are priced,
        and no cost cell outlives its batch, so there is nothing to
        flush.

        Kept as a stub only because ``perfbench/layers.py`` wraps this
        name in traced runs; nothing in the package calls it.  Returns 0.
        """
        return 0

    def _lookup_store(self, key: tuple,
                      digest: str) -> HardwareEvaluation | None:
        """Second-tier lookup: LRU missed, ask the persistent store."""
        evaluation = self.store.get(self._salt, digest, key)
        if evaluation is None:
            return None
        self.stats.hits += 1
        self.stats.store_hits += 1
        if self.cache_size:
            self._cache[key] = evaluation
            self._cache.move_to_end(key)
            # Store entries predate every generation, so LRU re-hits of
            # this entry count as shared (cross-run) reuse.
            self._entry_generation[key] = -1
            self._evict()
        return evaluation

    def _key_digest(self, key: tuple) -> str:
        """Store-bucket digest of an already-built content tuple.

        Identical to ``design_digest(networks, accelerator,
        salt=self._salt)`` — the key *is* ``design_content`` of the pair
        — without re-canonicalising the pair on the store hot path.
        """
        return format(stable_hash(key, salt=self._salt), "016x")

    def _persist(self, priced) -> None:
        """Append computed ``(key, digest, evaluation)`` misses to the
        store (one fsync per batch)."""
        if self.store is None or self.store.read_only:
            return
        self.store.put_many(
            (self._salt, digest, key, evaluation)
            for key, digest, evaluation in priced)
        self._sync_store_scale()

    # ------------------------------------------------------------------
    # LRU mechanics
    # ------------------------------------------------------------------
    def _lookup(self, key: tuple) -> HardwareEvaluation | None:
        cached = self._cache.get(key)
        if cached is None:
            return None
        self._cache.move_to_end(key)
        self.stats.hits += 1
        if self._entry_generation.get(key, self._generation) \
                < self._generation:
            self.stats.shared_hits += 1
        return cached

    def _store(self, key: tuple, evaluation: HardwareEvaluation) -> None:
        if self.cache_size == 0:
            return
        self._cache[key] = evaluation
        self._cache.move_to_end(key)
        self._entry_generation.setdefault(key, self._generation)
        self._evict()

    def _evict(self) -> None:
        # The emptiness guard keeps a (mistakenly) negative capacity
        # from popping past an empty dict; the constructor rejects one,
        # but a KeyError here is the wrong way to find out.
        while self._cache and len(self._cache) > self.cache_size:
            evicted, _ = self._cache.popitem(last=False)
            self._entry_generation.pop(evicted, None)
            self.stats.evictions += 1

    @property
    def cache_len(self) -> int:
        """Entries currently cached."""
        return len(self._cache)

    def clear_cache(self) -> None:
        """Drop every cached evaluation (statistics are kept)."""
        self._cache.clear()
        self._entry_generation.clear()

    def bump_generation(self) -> None:
        """Open a new cache generation.

        Entries stored before the bump count as *shared* when hit
        afterwards (``stats.shared_hits``).  The campaign runner bumps
        between scenarios so cross-scenario reuse of one cache is
        measurable; bumping changes no evaluation result.
        """
        self._generation += 1

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_snapshot(self) -> dict:
        """Value snapshot of everything a resumed run must restore.

        Covers the LRU cache, generation tags, service statistics and
        the wrapped evaluator's cumulative counters (hardware-evaluation
        count, HAP move stats, cost-cell counters).  Restoring the
        snapshot makes a killed-and-resumed run's cache behaviour —
        hence its ``pricing`` block and hit/miss accounting — identical
        to the uninterrupted run.  Values are shared (entries are immutable);
        the checkpoint writer pickles the snapshot, which deep-copies.
        """
        cost_model = self.evaluator.cost_model
        return {
            "cache": OrderedDict(self._cache),
            "entry_generation": dict(self._entry_generation),
            "generation": self._generation,
            "stats": self.stats.snapshot(),
            "hardware_evaluations": self.evaluator.hardware_evaluations,
            "move_stats": replace(self.evaluator.move_stats),
            "cost_cells": (cost_model.shared_cells, cost_model.priced_cells),
        }

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`state_snapshot` (inverse operation).

        Snapshots from version-2/3 checkpoints carry a ``cost_memo``
        instead of ``cost_cells``: the memo itself is skipped (nothing
        is memoised any more) and only its counter totals are kept.
        """
        self._cache = OrderedDict(state["cache"])
        self._entry_generation = dict(state["entry_generation"])
        self._generation = state["generation"]
        self.stats = state["stats"].snapshot()
        self.evaluator.hardware_evaluations = state["hardware_evaluations"]
        self.evaluator.move_stats = replace(state["move_stats"])
        cost_model = self.evaluator.cost_model
        memo = state.get("cost_memo")
        cost_model.shared_cells, cost_model.priced_cells = (
            state["cost_cells"] if memo is None
            else (memo["hits"], memo["misses"]))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Nothing to release (evaluations are durable as they are
        priced; the store stays open for its owner).  Kept so local and
        remote services share one lifecycle."""

    def __enter__(self) -> "EvalService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
