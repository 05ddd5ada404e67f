"""Heuristic HAP solver (the paper's choice, after Shao et al. [29]).

Given a :class:`~repro.mapping.problem.MappingProblem` and a latency
constraint ``LS``, minimise total energy subject to makespan <= ``LS``.
The paper notes ILP gives the optimum but is too slow inside the search
loop, so it "applies a heuristic approach in [29]"; we implement the same
two-phase ratio-greedy scheme:

1. **Feasibility phase** — seed with the per-layer minimum-latency
   assignment, then hill-climb single-layer moves that shrink the
   makespan until it fits ``LS`` (or no move helps).
2. **Energy refinement phase** — repeatedly apply the single-layer move
   with the best energy saving whose resulting makespan still fits
   ``LS`` (ties broken by smaller makespan growth), until no improving
   move remains.

The result reports the achieved makespan and energy even when infeasible,
so the evaluator can compute the paper's graded penalty (Eq. 3) instead of
rejecting outright.

Hot-path note: both phases evaluate ``num_layers * (num_slots - 1)``
single-layer moves per iteration, and this solver runs for every sampled
design of the search loop.  One fast path prices those moves, and one
oracle holds it to account (choice-identical, property-tested in
``tests/test_hap_properties.py``):

- ``incremental=True`` (default): **delta-resume** — moves priced one
  at a time through
  :meth:`~repro.mapping.schedule.MakespanEvaluator.trial_move`, which
  replays from the incumbent's recorded event list, plus certified
  lower-bound pre-filters that skip moves provably above the cutoff.
  The feasibility phase scans moves in ascending-bound order and stops
  once the bound exceeds the best trial so far; the refinement phase
  scans them in descending-saving order and stops at the first saving
  group containing a feasible move (moves with smaller savings can
  never win the ``(-saving, makespan)`` tie-break, so skipping them is
  exact).
- ``incremental=False``: full :func:`~repro.mapping.schedule.list_schedule`
  reschedules per trial, full move scan — the slow reference oracle.

Both produce bit-identical :class:`HAPResult`\\ s, including the
``refinement_energies`` trajectory, which is maintained by *delta
bookkeeping*: one energy-table read per accepted move instead of an
O(num_layers) recompute.  The float trajectory is therefore delta-summed
— except its endpoint, which is snapped to the fresh table sum so it
matches ``energy_nj`` bit for bit (see :class:`HAPResult`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mapping.problem import MappingProblem
from repro.mapping.schedule import (MakespanEvaluator, MoveStats, Schedule,
                                    list_schedule)

__all__ = ["HAPResult", "solve_hap"]


@dataclass(frozen=True)
class HAPResult:
    """Solution of one HAP instance.

    Attributes:
        assignment: Flat layer id -> active-slot position.
        schedule: The list schedule realising the assignment.
        makespan: Achieved latency ``rl``, cycles.
        energy_nj: Achieved energy ``re``, nJ — a fresh energy-table sum
            over the final assignment (bit-stable across solver modes).
        feasible: Whether ``makespan <= latency_constraint``.
        latency_constraint: The ``LS`` the solver targeted.
        refinement_energies: Total energy after the feasibility phase and
            after every accepted refinement move, in order.  The first
            entry is a table sum; intermediate entries apply the
            accepted move's energy delta; the final entry is snapped to
            the fresh table sum over the final assignment, so it is
            **bit-identical** to ``energy_nj``.  Monotone non-increasing
            by construction at every delta-summed step; the snapped
            endpoint matches its delta-summed value to float rounding,
            so the final step is monotone up to ulp-scale rounding only
            (both property-tested).
    """

    assignment: tuple[int, ...]
    schedule: Schedule
    makespan: int
    energy_nj: float
    feasible: bool
    latency_constraint: int
    refinement_energies: tuple[float, ...] = ()


class _OraclePricer:
    """Reference move pricer: one full reschedule per trial.

    Implements the same ``rebase``/``trial_move`` interface as
    :class:`~repro.mapping.schedule.MakespanEvaluator` so the solver body
    is shared; every returned value is exact (which trivially satisfies
    the cutoff contract).
    """

    def __init__(self, problem: MappingProblem) -> None:
        self._problem = problem
        self._base: tuple[int, ...] | None = None

    def rebase(self, assignment: tuple[int, ...]) -> int:
        self._base = tuple(assignment)
        return list_schedule(self._problem, self._base,
                             validate=False).makespan

    def trial_move(self, flat_id: int, pos: int,
                   *, cutoff: int | None = None) -> int:
        base = self._base
        trial = base[:flat_id] + (pos,) + base[flat_id + 1:]
        return list_schedule(self._problem, trial, validate=False).makespan


def _improve_makespan(problem: MappingProblem,
                      assignment: list[int],
                      latency_constraint: int,
                      pricer) -> tuple[list[int], int]:
    """Hill-climb single-layer moves until the makespan fits or stalls.

    Reference scan: price every move in ``(flat_id, pos)`` order with a
    shrinking cutoff; the accepted move is the one with the smallest
    exact trial makespan, earliest ``(flat_id, pos)`` on ties.
    """
    makespan = pricer.rebase(tuple(assignment))
    num_layers = problem.num_layers
    num_slots = problem.num_slots
    while makespan > latency_constraint:
        best_move: tuple[int, int] | None = None
        best_makespan = makespan
        for flat_id in range(num_layers):
            current = assignment[flat_id]
            for pos in range(num_slots):
                if pos == current:
                    continue
                trial = pricer.trial_move(flat_id, pos,
                                          cutoff=best_makespan - 1)
                if trial < best_makespan:
                    best_makespan = trial
                    best_move = (flat_id, pos)
        if best_move is None:
            break  # stuck: no single move shrinks the makespan
        flat_id, pos = best_move
        assignment[flat_id] = pos
        makespan = pricer.rebase(tuple(assignment))
    return assignment, makespan


def _improve_makespan_sorted(problem: MappingProblem,
                             assignment: list[int],
                             latency_constraint: int,
                             pricer) -> tuple[list[int], int]:
    """Hill-climb like :func:`_improve_makespan`, but scan each sweep's
    moves in ascending certified-lower-bound order and stop as soon as
    the bound exceeds the incumbent best trial value.

    Choice-identical to the reference scan (property-tested): a move
    whose lower bound exceeds the best exact trial makespan found so far
    can neither beat it nor tie it, and ties between exact values are
    broken by explicit ``(flat_id, pos)`` comparison, so the scan order
    does not leak into the result.
    """
    makespan = pricer.rebase(tuple(assignment))
    num_layers = problem.num_layers
    num_slots = problem.num_slots
    while makespan > latency_constraint:
        candidates: list[tuple[int, int, int]] = []
        for flat_id in range(num_layers):
            current = assignment[flat_id]
            for pos in range(num_slots):
                if pos == current:
                    continue
                candidates.append(
                    (pricer.move_lower_bound(flat_id, pos), flat_id, pos))
        candidates.sort()
        best_move: tuple[int, int] | None = None
        best_val = makespan
        for lower_bound, flat_id, pos in candidates:
            if lower_bound > best_val:
                break  # sorted: no remaining move can beat or tie best_val
            # A tie with the incumbent only matters when this move's
            # (flat_id, pos) would win the tie-break; only then is the
            # cutoff raised to best_val so the exact tie stays
            # representable — otherwise the reference scan's cutoff
            # applies and tying trials early-exit.
            tie_can_win = best_move is not None and (flat_id, pos) < best_move
            cutoff = best_val if tie_can_win else best_val - 1
            trial = pricer.trial_move(flat_id, pos, cutoff=cutoff,
                                      lower_bound=lower_bound)
            if trial < best_val:
                best_val = trial
                best_move = (flat_id, pos)
            elif trial == best_val and tie_can_win:
                best_move = (flat_id, pos)
        if best_move is None:
            break  # stuck: no single move shrinks the makespan
        flat_id, pos = best_move
        assignment[flat_id] = pos
        makespan = pricer.rebase(tuple(assignment))
    return assignment, makespan


def _best_refinement_move(assignment: list[int],
                          num_slots: int,
                          latency_constraint: int,
                          pricer,
                          energies: list[list[float]]
                          ) -> tuple[int, int] | None:
    """Reference refinement sweep: price every positive-saving move and
    take the minimum ``(-saving, makespan)`` key (ties to the earliest
    ``(flat_id, pos)``).  The sorted scan in :func:`_refine_energy` is
    property-tested against this."""
    best_move: tuple[int, int] | None = None
    best_key: tuple[float, int] | None = None
    for flat_id in range(len(assignment)):
        current = assignment[flat_id]
        row = energies[flat_id]
        for pos in range(num_slots):
            if pos == current:
                continue
            saving = row[current] - row[pos]
            if saving <= 0:
                continue
            trial = pricer.trial_move(flat_id, pos,
                                      cutoff=latency_constraint)
            if trial > latency_constraint:
                continue
            key = (-saving, trial)
            if best_key is None or key < best_key:
                best_key = key
                best_move = (flat_id, pos)
    return best_move


def _candidate_row(energies: list[list[float]], assignment: list[int],
                   flat_id: int, num_slots: int) -> list[tuple]:
    """Positive-saving moves of one layer as ``(-saving, flat_id, pos)``
    entries, given its current slot."""
    row = energies[flat_id]
    e_current = row[assignment[flat_id]]
    current = assignment[flat_id]
    return [(row[pos] - e_current, flat_id, pos)
            for pos in range(num_slots)
            if pos != current and row[pos] < e_current]


def _best_sorted_move(rows: list[list[tuple]],
                      latency_constraint: int,
                      pricer) -> tuple[int, int] | None:
    """Sorted-scan refinement sweep: price candidates in descending-saving
    order and stop after the first saving group that yields a feasible
    move.  A move with a strictly smaller saving can never beat an
    accepted move under the ``(-saving, makespan)`` key, so skipping it
    is exact — the chosen move is identical to the reference scan's
    (property-tested).
    """
    moves = [move for row in rows for move in row]
    if not moves:
        return None
    moves.sort()
    best_move = None
    best_key = None
    index = 0
    total = len(moves)
    while index < total:
        neg_saving = moves[index][0]
        if best_key is not None and neg_saving > best_key[0]:
            break  # strictly smaller saving: provably cannot win
        group_end = index
        while group_end < total and moves[group_end][0] == neg_saving:
            group_end += 1
        for _, flat_id, pos in moves[index:group_end]:
            trial = pricer.trial_move(flat_id, pos,
                                      cutoff=latency_constraint)
            if trial > latency_constraint:
                continue
            key = (neg_saving, trial)
            if best_key is None or key < best_key:
                best_key = key
                best_move = (flat_id, pos)
        index = group_end
    return best_move


def _refine_energy(problem: MappingProblem,
                   assignment: list[int],
                   latency_constraint: int,
                   pricer,
                   energies: list[list[float]],
                   *, sorted_scan: bool) -> tuple[list[int], int,
                                                  list[float]]:
    """Greedy best-saving moves while staying within the constraint.

    Energy bookkeeping is incremental: the running total starts from one
    table sum and is updated by each accepted move's delta (one float
    add per move instead of an O(num_layers) recompute); both solver
    modes share this code, so the trajectory is bit-identical between
    them.
    """
    makespan = pricer.rebase(tuple(assignment))
    energy = problem.assignment_energy(tuple(assignment), validate=False)
    trajectory = [energy]
    num_slots = problem.num_slots
    if sorted_scan:
        rows = [_candidate_row(energies, assignment, flat_id, num_slots)
                for flat_id in range(len(assignment))]
    while True:
        if sorted_scan:
            best_move = _best_sorted_move(rows, latency_constraint, pricer)
        else:
            best_move = _best_refinement_move(
                assignment, num_slots, latency_constraint, pricer, energies)
        if best_move is None:
            break
        flat_id, pos = best_move
        energy += (energies[flat_id][pos]
                   - energies[flat_id][assignment[flat_id]])
        assignment[flat_id] = pos
        makespan = pricer.rebase(tuple(assignment))
        if sorted_scan:
            rows[flat_id] = _candidate_row(energies, assignment, flat_id,
                                           num_slots)
        trajectory.append(energy)
    return assignment, makespan, trajectory


def solve_hap(problem: MappingProblem,
              latency_constraint: int,
              *, incremental: bool = True,
              stats: MoveStats | None = None) -> HAPResult:
    """Minimise energy subject to makespan <= ``latency_constraint``.

    Args:
        problem: The HAP instance to solve.
        latency_constraint: Makespan budget ``LS``, cycles.
        incremental: Price single-layer moves by delta-resume through
            :class:`~repro.mapping.schedule.MakespanEvaluator` with the
            sorted scans (default).  ``False`` falls back to a full
            ``list_schedule`` per trial and full move scans — the slow
            reference oracle used to lock the fast path down.
        stats: Optional :class:`~repro.mapping.schedule.MoveStats` that
            accumulates this solve's move-pricing counters (prunes,
            resumes, replayed and saved steps) — threaded into
            :class:`~repro.core.evalservice.EvalServiceStats` by the
            evaluator.

    Raises:
        ValueError: If ``latency_constraint`` is not positive.
    """
    if latency_constraint <= 0:
        raise ValueError(
            f"latency constraint must be positive, got {latency_constraint}")
    if problem.num_slots == 1:
        # Degenerate instance: a single active sub-accelerator admits
        # exactly one assignment, so both phases are no-ops.  Identical
        # to the general path (which would seed with this assignment and
        # find no single-layer moves), priced without building a solver.
        assignment = (0,) * problem.num_layers
        schedule = list_schedule(problem, assignment, validate=False)
        energy = problem.assignment_energy(assignment, validate=False)
        feasible = schedule.makespan <= latency_constraint
        return HAPResult(
            assignment=assignment,
            schedule=schedule,
            makespan=schedule.makespan,
            energy_nj=energy,
            feasible=feasible,
            latency_constraint=latency_constraint,
            refinement_energies=(energy,) if feasible else (),
        )
    if incremental:
        pricer = MakespanEvaluator(problem)
        improve = _improve_makespan_sorted
    else:
        pricer = _OraclePricer(problem)
        improve = _improve_makespan
    energies = problem.energies.tolist()
    assignment, makespan = improve(
        problem, list(problem.min_latency_assignment()),
        latency_constraint, pricer)
    trajectory: list[float] = []
    if makespan <= latency_constraint:
        assignment, makespan, trajectory = _refine_energy(
            problem, assignment, latency_constraint, pricer, energies,
            sorted_scan=incremental)
    if stats is not None and incremental:
        stats.absorb(pricer.stats)
    schedule = list_schedule(problem, tuple(assignment), validate=False)
    energy = problem.assignment_energy(tuple(assignment), validate=False)
    if trajectory:
        # The trajectory is delta-summed; its endpoint describes the
        # same assignment as the fresh table sum above, so snap it to
        # that sum — the endpoint is then bit-identical to ``energy_nj``
        # instead of merely equal to float rounding.
        trajectory[-1] = energy
    return HAPResult(
        assignment=tuple(assignment),
        schedule=schedule,
        makespan=schedule.makespan,
        energy_nj=energy,
        feasible=schedule.makespan <= latency_constraint,
        latency_constraint=latency_constraint,
        refinement_energies=tuple(trajectory),
    )
