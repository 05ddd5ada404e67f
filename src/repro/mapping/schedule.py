"""List scheduler for layers mapped onto sub-accelerators.

Given an assignment of layers to active sub-accelerators, the scheduler
determines execution order (the ``sch(aic_k)`` function of §III-➌) and the
resulting makespan.  Constraints:

- layers of one network form a chain: layer ``j`` cannot start before
  layer ``j-1`` finishes, regardless of where either is mapped;
- a sub-accelerator executes one layer at a time.

The scheduler is deterministic: among ready layers it starts the one
that can begin soonest, ties toward lower network index then lower flat
id.

Task-level parallelism across DNNs — the paper's motivation for
heterogeneous sub-accelerators — emerges naturally when different
networks occupy different sub-accelerators.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mapping.problem import MappingProblem

__all__ = ["MakespanEvaluator", "MoveStats", "ScheduledLayer", "Schedule",
           "list_schedule"]


@dataclass(frozen=True)
class ScheduledLayer:
    """One scheduled layer execution."""

    flat_id: int
    network: int
    slot_pos: int
    start: int
    finish: int


@dataclass(frozen=True)
class Schedule:
    """A complete schedule: per-layer timings plus the makespan."""

    entries: tuple[ScheduledLayer, ...]
    makespan: int

    def by_slot(self, slot_pos: int) -> tuple[ScheduledLayer, ...]:
        """Entries executed on one sub-accelerator, in start order."""
        return tuple(sorted(
            (e for e in self.entries if e.slot_pos == slot_pos),
            key=lambda e: e.start))

    def slot_busy_cycles(self, slot_pos: int) -> int:
        """Total busy time of one sub-accelerator."""
        return sum(e.finish - e.start for e in self.entries
                   if e.slot_pos == slot_pos)


@dataclass
class MoveStats:
    """Counters for HAP single-move pricing (observability, not logic).

    Attributes:
        moves_priced: ``trial_move`` requests.
        pruned: Trials skipped outright because a certified lower bound
            (per-slot load or per-chain serial work) already exceeded the
            cutoff — no simulation ran at all.
        resumed: Replays — trial moves and single-move rebases — that
            restarted from a recorded snapshot (the event where the moved
            layer first becomes schedulable) instead of from cycle 0.
        full_replays: Rebases replayed from cycle 0.
        steps_replayed: Simulation steps actually executed (cutoff
            early-exits stop counting where they stop simulating).
        steps_saved: Simulation steps skipped by delta-resume prefixes.
    """

    moves_priced: int = 0
    pruned: int = 0
    resumed: int = 0  # trials AND rebases that resumed mid-replay
    full_replays: int = 0
    steps_replayed: int = 0  # simulation steps actually executed
    steps_saved: int = 0

    def absorb(self, other: "MoveStats") -> None:
        """Accumulate ``other`` into this instance (for run aggregates)."""
        self.moves_priced += other.moves_priced
        self.pruned += other.pruned
        self.resumed += other.resumed
        self.full_replays += other.full_replays
        self.steps_replayed += other.steps_replayed
        self.steps_saved += other.steps_saved

    def as_dict(self) -> dict[str, int]:
        """Plain-dict rendering for JSON reports."""
        return {
            "moves_priced": self.moves_priced,
            "pruned": self.pruned,
            "resumed": self.resumed,
            "full_replays": self.full_replays,
            "steps_replayed": self.steps_replayed,
            "steps_saved": self.steps_saved,
        }


def _exclusive_max(values: list[int]) -> list[int]:
    """``out[i] = max(values[j] for j != i)`` (0 for a single element).

    O(n) via the top-two values: the exclusive max is the second-best for
    the (first) argmax and the best for everyone else — correct under
    ties, where the second-best equals the best.
    """
    if len(values) == 1:
        return [0]
    best = second = -1
    best_idx = -1
    for i, value in enumerate(values):
        if value > best:
            second = best
            best = value
            best_idx = i
        elif value > second:
            second = value
    return [second if i == best_idx else best for i in range(len(values))]


class MakespanEvaluator:
    """Fast makespan evaluation for the HAP solver's single-move trials.

    The HAP inner loop evaluates thousands of single-layer moves per
    solve, and each move only needs the *makespan* of the trial
    assignment — not the full per-layer schedule.  This evaluator replays
    the exact simulation of :func:`list_schedule` (same priority key,
    same tie-breaking) but

    - reads durations from pre-extracted Python ``int`` tables instead of
      per-element NumPy indexing,
    - allocates no :class:`ScheduledLayer`/:class:`Schedule` objects,
    - supports a ``cutoff`` for early exit: as soon as the partial
      simulation proves ``makespan > cutoff`` it returns ``cutoff + 1``
      (a certified lower bound) without finishing the replay, and
    - prices single-layer moves from an incumbent base assignment by
      **delta-resume**: :meth:`rebase` records a snapshot of the
      simulator state before every event of the base replay, and
      :meth:`trial_move` replays only from the first event at which the
      moved layer becomes schedulable (its chain predecessor's event) —
      the prefix is provably identical because a layer's slot is never
      read before it is its chain's head.  Trials are additionally
      pre-filtered by two certified lower bounds (per-slot load and
      per-chain serial work): a move whose bound already exceeds the
      cutoff is skipped without simulating at all.

    Exactness contract: for any assignment, ``rebase(a)`` equals
    ``list_schedule(problem, a).makespan`` bit-for-bit.
    :meth:`trial_move` without a cutoff is exact too; with a cutoff, a
    returned value ``<= cutoff`` is exact and a returned value
    ``> cutoff`` certifies the true makespan exceeds the cutoff
    (including pruned moves — the lower bounds hold for *any* schedule,
    since a sub-accelerator runs one layer at a time and a chain is
    serial).  ``tests/test_hap_properties.py`` holds all of this against
    the full rescheduling oracle on random instances.
    """

    def __init__(self, problem: MappingProblem) -> None:
        self._durations: list[list[int]] = problem.durations.tolist()
        self._chains = tuple(tuple(c) for c in problem.chains)
        self._chain_lens = tuple(len(c) for c in problem.chains)
        self._chain_of = tuple(problem.layer_net)
        self._num_slots = problem.num_slots
        self._num_layers = problem.num_layers
        self.stats = MoveStats()
        # Base-assignment state (populated by rebase).  Snapshots are flat
        # per-step slabs: step t's simulator state lives at
        # [t*num_nets : (t+1)*num_nets] of _snap_next/_snap_ready and
        # [t*num_slots : (t+1)*num_slots] of _snap_free.
        self._base: list[int] | None = None
        self._base_tuple: tuple[int, ...] | None = None
        self._base_makespan = 0
        self._snap_next: list[int] = []
        self._snap_ready: list[int] = []
        self._snap_free: list[int] = []
        self._snap_maxfin: list[int] = []
        #: Per-step cumulative work completed on each slot before event
        #: t (same layout as _snap_free) — the slot-remaining prune term.
        self._snap_done: list[int] = []
        self._resume_step: list[int] = [0] * problem.num_layers
        self._slot_loads: list[int] = []
        self._chain_work: list[int] = []
        self._chain_excl: list[int] = []
        #: Per-layer serial work of the layer and its chain successors
        #: under the base assignment (the chain-tail prune term).
        self._rem_work: list[int] = []

    def rebase(self, assignment: tuple[int, ...]) -> int:
        """Adopt ``assignment`` as the incumbent base and return its exact
        makespan.

        Records, along the replay, per-event simulator snapshots (for
        :meth:`trial_move` resumption), each layer's first-schedulable
        event index, per-slot loads and per-chain serial works (for the
        certified prune bounds).  Rebasing onto a single-layer move of
        the current base resumes the recording from the moved layer's
        snapshot instead of replaying from cycle 0 (the prefix is
        provably unchanged), which is the common case after the solver
        accepts a move.
        """
        old = self._base_tuple
        if old == assignment:
            return self._base_makespan
        start_step = 0
        if old is not None:
            moved = [f for f, (a, b) in enumerate(zip(old, assignment))
                     if a != b]
            if len(moved) == 1:
                flat_id = moved[0]
                start_step = self._resume_step[flat_id]
                # O(1) updates of the prune-bound tables for the move.
                row = self._durations[flat_id]
                d_u = row[old[flat_id]]
                d_v = row[assignment[flat_id]]
                self._slot_loads[old[flat_id]] -= d_u
                self._slot_loads[assignment[flat_id]] += d_v
                chain_id = self._chain_of[flat_id]
                works = self._chain_work
                works[chain_id] += d_v - d_u
                self._chain_excl = _exclusive_max(works)
                # The moved layer and its predecessors see the changed
                # duration in their chain tails.
                rem = self._rem_work
                delta = d_v - d_u
                for fid in self._chains[chain_id]:
                    rem[fid] += delta
                    if fid == flat_id:
                        break
        makespan = self._recorded_replay(assignment, start_step)
        if start_step == 0:
            durations = self._durations
            loads = [0] * self._num_slots
            for flat_id in range(self._num_layers):
                loads[assignment[flat_id]] += (
                    durations[flat_id][assignment[flat_id]])
            works = [sum(durations[f][assignment[f]] for f in chain)
                     for chain in self._chains]
            self._chain_excl = _exclusive_max(works)
            self._chain_work = works
            self._slot_loads = loads
            rem = [0] * self._num_layers
            for chain in self._chains:
                acc = 0
                for fid in reversed(chain):
                    acc += durations[fid][assignment[fid]]
                    rem[fid] = acc
            self._rem_work = rem
        self._base = list(assignment)
        self._base_tuple = tuple(assignment)
        self._base_makespan = makespan
        return makespan

    def _recorded_replay(self, assignment: tuple[int, ...],
                         start_step: int) -> int:
        """Replay ``assignment`` from snapshot ``start_step`` (0 = from
        scratch), re-recording snapshots and resume steps for the suffix.

        Valid only when the simulation prefix ``[0, start_step)`` under
        ``assignment`` matches the recorded one (guaranteed by the
        caller: either ``start_step == 0``, or ``assignment`` differs
        from the recorded base by one layer whose first-schedulable event
        is ``start_step``).  Prefix snapshots and the resume steps of
        layers whose predecessors were scheduled in the prefix stay
        valid verbatim.
        """
        chains = self._chains
        chain_lens = self._chain_lens
        durations = self._durations
        num_nets = len(chains)
        num_layers = self._num_layers
        num_slots = self._num_slots
        snap_next = self._snap_next
        snap_ready = self._snap_ready
        snap_free = self._snap_free
        snap_maxfin = self._snap_maxfin
        snap_done = self._snap_done
        if start_step == 0:
            next_idx = [0] * num_nets
            net_ready = [0] * num_nets
            slot_free = [0] * num_slots
            slot_done = [0] * num_slots
            max_finish = 0
            del snap_next[:], snap_ready[:], snap_free[:], snap_maxfin[:]
            del snap_done[:]
        else:
            net_base = start_step * num_nets
            slot_base = start_step * num_slots
            next_idx = snap_next[net_base:net_base + num_nets]
            net_ready = snap_ready[net_base:net_base + num_nets]
            slot_free = snap_free[slot_base:slot_base + num_slots]
            slot_done = snap_done[slot_base:slot_base + num_slots]
            max_finish = snap_maxfin[start_step]
            del snap_next[net_base:]
            del snap_ready[net_base:]
            del snap_free[slot_base:]
            del snap_done[slot_base:]
            del snap_maxfin[start_step:]
        resume_step = self._resume_step
        if start_step == 0:
            self.stats.full_replays += 1
        else:
            self.stats.resumed += 1
            self.stats.steps_saved += start_step
        self.stats.steps_replayed += num_layers - start_step
        for step in range(start_step, num_layers):
            snap_next.extend(next_idx)
            snap_ready.extend(net_ready)
            snap_free.extend(slot_free)
            snap_done.extend(slot_done)
            snap_maxfin.append(max_finish)
            best_start = -1
            best_net = -1
            for net in range(num_nets):
                idx = next_idx[net]
                if idx >= chain_lens[net]:
                    continue
                ready = net_ready[net]
                free = slot_free[assignment[chains[net][idx]]]
                start = ready if ready >= free else free
                if best_net < 0 or start < best_start:
                    best_start = start
                    best_net = net
            chain = chains[best_net]
            flat_id = chain[next_idx[best_net]]
            slot = assignment[flat_id]
            dur = durations[flat_id][slot]
            finish = best_start + dur
            net_ready[best_net] = finish
            slot_free[slot] = finish
            slot_done[slot] += dur
            if finish > max_finish:
                max_finish = finish
            next_idx[best_net] += 1
            # The successor becomes consultable only after this event, so
            # a move of it leaves the replay prefix [0, step] untouched.
            nxt = next_idx[best_net]
            if nxt < chain_lens[best_net]:
                resume_step[chain[nxt]] = step + 1
        return max_finish

    def move_lower_bound(self, flat_id: int, pos: int) -> int:
        """Certified lower bound on the makespan of the base assignment
        with ``flat_id`` moved to slot position ``pos``.

        The maximum of the trial's per-chain serial works — every
        schedule runs a chain serially, so any schedule's makespan is at
        least each of them — and four snapshot terms, all certified by
        prefix identity (the trial replay equals the base replay before
        the move's resume step ``rs``, where the moved layer first heads
        its chain):

        - the recorded *prefix makespan* at ``rs`` — every prefix
          finish time is a finish time of the trial schedule;
        - the *chain tail*: the moved layer starts no earlier than
          ``max(chain ready, target-slot free)`` at ``rs``, and its
          chain's remaining work runs serially after that;
        - *slot remaining*: a slot cannot finish before its prefix
          free time plus its remaining trial work (this dominates the
          plain load bound per slot, since free >= done);
        - *other chains' tails*: every other chain's head starts no
          earlier than its recorded ready time at ``rs``, and its
          remaining serial work follows (an exhausted chain's ready
          time is a prefix finish time, dominated by the prefix term).

        O(slots + chains); requires a prior :meth:`rebase`.
        """
        base = self._base
        if base is None:
            raise RuntimeError("move_lower_bound requires a prior rebase()")
        row = self._durations[flat_id]
        u = base[flat_id]
        d_u = row[u]
        d_v = row[pos]
        chain_id = self._chain_of[flat_id]
        lb = self._chain_work[chain_id] - d_u + d_v
        excl = self._chain_excl[chain_id]
        if excl > lb:
            lb = excl
        num_nets = len(self._chains)
        num_slots = self._num_slots
        rs = self._resume_step[flat_id]
        prefix = self._snap_maxfin[rs]
        if prefix > lb:
            lb = prefix
        net_base = rs * num_nets
        slot_base = rs * num_slots
        ready = self._snap_ready[net_base + chain_id]
        free = self._snap_free[slot_base + pos]
        tail = ((ready if ready >= free else free)
                + self._rem_work[flat_id] - d_u + d_v)
        if tail > lb:
            lb = tail
        snap_free = self._snap_free
        snap_done = self._snap_done
        for j, load in enumerate(self._slot_loads):
            if j == u:
                load -= d_u
            elif j == pos:
                load += d_v
            t = snap_free[slot_base + j] + load - snap_done[slot_base + j]
            if t > lb:
                lb = t
        snap_next = self._snap_next
        snap_ready = self._snap_ready
        chains = self._chains
        chain_lens = self._chain_lens
        rem = self._rem_work
        for c in range(num_nets):
            if c == chain_id:
                continue
            idx = snap_next[net_base + c]
            if idx >= chain_lens[c]:
                continue
            t = snap_ready[net_base + c] + rem[chains[c][idx]]
            if t > lb:
                lb = t
        return lb

    def trial_move(self, flat_id: int, pos: int,
                   *, cutoff: int | None = None,
                   lower_bound: int | None = None) -> int:
        """Makespan of the base assignment with ``flat_id`` moved to slot
        position ``pos``: exact without a ``cutoff``; with one, exact
        whenever the result is ``<= cutoff``, and a result ``> cutoff``
        certifies the true makespan exceeds it.  Requires a prior
        :meth:`rebase`.

        ``lower_bound`` lets a caller that already ran
        :meth:`move_lower_bound` for this move (the sorted feasibility
        scan) skip the redundant recompute; it must be that method's
        value for the same ``(flat_id, pos)`` under the current base.
        """
        base = self._base
        if base is None:
            raise RuntimeError("trial_move requires a prior rebase()")
        row = self._durations[flat_id]
        u = base[flat_id]
        d_u = row[u]
        d_v = row[pos]
        stats = self.stats
        stats.moves_priced += 1
        if cutoff is not None:
            # Certified lower bounds on the trial makespan: a slot's total
            # load and a chain's serial work both fit inside any schedule.
            if lower_bound is not None:
                lb = lower_bound
            else:
                # Cheapest certified terms first (see move_lower_bound):
                # the O(1) snapshot terms, then the O(slots) and
                # O(chains) scans only when they have not already pruned.
                nets = len(self._chains)
                slots = self._num_slots
                rs = self._resume_step[flat_id]
                net_base = rs * nets
                slot_base = rs * slots
                lb = self._snap_maxfin[rs]
                chain_id = self._chain_of[flat_id]
                ready = self._snap_ready[net_base + chain_id]
                free = self._snap_free[slot_base + pos]
                tail = ((ready if ready >= free else free)
                        + self._rem_work[flat_id] - d_u + d_v)
                if tail > lb:
                    lb = tail
                work = self._chain_work[chain_id] - d_u + d_v
                if work > lb:
                    lb = work
                excl = self._chain_excl[chain_id]
                if excl > lb:
                    lb = excl
                if lb <= cutoff:
                    snap_free = self._snap_free
                    snap_done = self._snap_done
                    for j, load in enumerate(self._slot_loads):
                        if j == u:
                            load -= d_u
                        elif j == pos:
                            load += d_v
                        t = (snap_free[slot_base + j] + load
                             - snap_done[slot_base + j])
                        if t > lb:
                            lb = t
                if lb <= cutoff:
                    snap_next = self._snap_next
                    snap_ready = self._snap_ready
                    chains = self._chains
                    chain_lens = self._chain_lens
                    rem = self._rem_work
                    for c in range(nets):
                        if c == chain_id:
                            continue
                        idx = snap_next[net_base + c]
                        if idx >= chain_lens[c]:
                            continue
                        t = snap_ready[net_base + c] + rem[chains[c][idx]]
                        if t > lb:
                            lb = t
            if lb > cutoff:
                stats.pruned += 1
                return cutoff + 1
        # Delta-resume: restart the recorded base replay at the first
        # event where the moved layer is consultable.
        start_step = self._resume_step[flat_id]
        num_nets = len(self._chains)
        num_slots = self._num_slots
        net_base = start_step * num_nets
        slot_base = start_step * num_slots
        next_idx = self._snap_next[net_base:net_base + num_nets]
        net_ready = self._snap_ready[net_base:net_base + num_nets]
        slot_free = self._snap_free[slot_base:slot_base + num_slots]
        max_finish = self._snap_maxfin[start_step]
        suffix = self._num_layers - start_step
        remaining = suffix
        stats.resumed += 1
        stats.steps_saved += start_step
        chains = self._chains
        chain_lens = self._chain_lens
        durations = self._durations
        assignment = base
        assignment[flat_id] = pos
        if cutoff is not None:
            # Running certified abort terms, maintained per event: a
            # slot's remaining trial work still runs serially on it and
            # cannot start before the slot's current free time; a
            # chain's remaining serial work likewise follows its current
            # ready time.  Far tighter than waiting for max_finish
            # itself to cross the cutoff (most replays otherwise run
            # ~90% of their suffix before aborting).
            loads = self._slot_loads
            snap_done = self._snap_done
            rem_slot = [loads[j] - snap_done[slot_base + j]
                        for j in range(num_slots)]
            rem_slot[u] -= d_u
            rem_slot[pos] += d_v
            rem_work = self._rem_work
            rem_chain = [0] * num_nets
            for c in range(num_nets):
                idx = next_idx[c]
                if idx < chain_lens[c]:
                    rem_chain[c] = rem_work[chains[c][idx]]
            rem_chain[self._chain_of[flat_id]] += d_v - d_u
        try:
            while remaining:
                best_start = -1
                best_net = -1
                for net in range(num_nets):
                    idx = next_idx[net]
                    if idx >= chain_lens[net]:
                        continue
                    ready = net_ready[net]
                    free = slot_free[assignment[chains[net][idx]]]
                    start = ready if ready >= free else free
                    if best_net < 0 or start < best_start:
                        best_start = start
                        best_net = net
                if cutoff is not None and best_start > cutoff:
                    return cutoff + 1
                chain = chains[best_net]
                fid = chain[next_idx[best_net]]
                slot = assignment[fid]
                dur = durations[fid][slot]
                finish = best_start + dur
                net_ready[best_net] = finish
                slot_free[slot] = finish
                if finish > max_finish:
                    max_finish = finish
                if cutoff is not None:
                    t = rem_slot[slot] = rem_slot[slot] - dur
                    t2 = rem_chain[best_net] = rem_chain[best_net] - dur
                    if t2 > t:
                        t = t2
                    if finish + t > cutoff:
                        return cutoff + 1
                next_idx[best_net] += 1
                remaining -= 1
        finally:
            assignment[flat_id] = u
            # Count completed steps only (cutoff exits leave remaining > 0).
            stats.steps_replayed += suffix - remaining
        return max_finish


def list_schedule(problem: MappingProblem,
                  assignment: tuple[int, ...],
                  *, validate: bool = True) -> Schedule:
    """Schedule ``assignment`` earliest-start first.

    ``validate=False`` skips the assignment check for callers that
    produced the assignment themselves (the HAP solver); public callers
    keep the default.
    """
    if validate:
        problem.validate_assignment(assignment)
    num_nets = len(problem.chains)
    durations = problem.durations.tolist()  # bulk convert: no per-step
    chains = problem.chains                 # NumPy scalar boxing below
    next_idx = [0] * num_nets           # next chain position per network
    net_ready = [0] * num_nets          # finish time of previous layer
    slot_free = [0] * problem.num_slots
    entries: list[ScheduledLayer] = []
    remaining = problem.num_layers
    while remaining:
        best: tuple | None = None       # (start, net, flat_id)
        for net in range(num_nets):
            chain = chains[net]
            if next_idx[net] >= len(chain):
                continue
            flat_id = chain[next_idx[net]]
            slot_pos = assignment[flat_id]
            start = max(net_ready[net], slot_free[slot_pos])
            key = (start, net, flat_id)
            if best is None or key < best:
                best = key
        assert best is not None, "unscheduled layers but none ready"
        start, net, flat_id = best
        slot_pos = assignment[flat_id]
        finish = start + durations[flat_id][slot_pos]
        entries.append(ScheduledLayer(flat_id, net, slot_pos, start, finish))
        net_ready[net] = finish
        slot_free[slot_pos] = finish
        next_idx[net] += 1
        remaining -= 1
    makespan = max(e.finish for e in entries)
    return Schedule(entries=tuple(entries), makespan=makespan)
