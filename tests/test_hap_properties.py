"""Property-based tests pinning the HAP solver's invariants.

The incremental makespan evaluator (`MakespanEvaluator`) and the
cutoff-based early exits in `solve_hap` are aggressive hot-path
optimisations; these properties hold them to the slow reference oracle
on randomly generated instances:

- the makespan ``rebase`` returns for any assignment equals the full
  ``list_schedule`` recompute, bit for bit, including across
  single-move rebases that resume mid-replay;
- delta-resume ``trial_move`` pricing is exact, its cutoff results are
  certified, and its prune bounds are sound;
- ``solve_hap(..., incremental=True)`` and ``incremental=False`` return
  identical results (same moves chosen, same schedule);
- whenever the solver reports feasible, the makespan fits ``LS``;
- the energy trajectory across refinement iterations is monotone
  non-increasing (the refinement phase only ever accepts savings).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mapping import list_schedule, solve_hap
from repro.mapping.schedule import MakespanEvaluator
from tests.test_schedule import tiny_problem


# ----------------------------------------------------------------------
# Random instance generation
# ----------------------------------------------------------------------
def random_problem(seed: int, max_layers: int = 10, max_slots: int = 3,
                   max_nets: int = 3, zero_durations: bool = False):
    """A random HAP instance; deterministic in ``seed``."""
    rng = np.random.default_rng(seed)
    layers = int(rng.integers(2, max_layers + 1))
    slots = int(rng.integers(1, max_slots + 1))
    nets = int(rng.integers(1, min(max_nets, layers) + 1))
    low = 0 if zero_durations else 1
    durations = rng.integers(low, 60, size=(layers, slots))
    energies = rng.uniform(0.5, 25.0, size=(layers, slots))
    # Random contiguous partition of the flat ids into `nets` chains.
    cuts = sorted(rng.choice(np.arange(1, layers), size=nets - 1,
                             replace=False).tolist()) if nets > 1 else []
    edges = [0] + cuts + [layers]
    chains = [tuple(range(a, b)) for a, b in zip(edges, edges[1:])]
    return tiny_problem(durations.tolist(), chains, energies.tolist())


def random_assignment(problem, rng):
    return tuple(int(x) for x in
                 rng.integers(0, problem.num_slots, size=problem.num_layers))


def budget_for(problem, rng) -> int:
    """A constraint between 'very tight' and 'loose'."""
    base = int(problem.durations.min(axis=1).sum())
    return max(1, int(base * float(rng.uniform(0.3, 1.8))))


_SETTINGS = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------------
# Incremental evaluator vs the full-reschedule oracle
# ----------------------------------------------------------------------
class TestMakespanEvaluator:
    @_SETTINGS
    @given(seed=st.integers(0, 10_000))
    def test_matches_list_schedule(self, seed):
        problem = random_problem(seed)
        evaluator = MakespanEvaluator(problem)
        rng = np.random.default_rng(seed + 1)
        for _ in range(5):
            assignment = random_assignment(problem, rng)
            assert (evaluator.rebase(assignment)
                    == list_schedule(problem, assignment).makespan)

    @_SETTINGS
    @given(seed=st.integers(0, 10_000))
    def test_single_move_deltas_match_oracle(self, seed):
        """Rebasing onto every single-layer move of a base assignment
        (and back) resumes the recorded replay mid-way and still prices
        identically to a full reschedule."""
        problem = random_problem(seed)
        evaluator = MakespanEvaluator(problem)
        rng = np.random.default_rng(seed + 2)
        base = list(random_assignment(problem, rng))
        base_makespan = list_schedule(problem, tuple(base)).makespan
        assert evaluator.rebase(tuple(base)) == base_makespan
        for flat_id in range(problem.num_layers):
            current = base[flat_id]
            for pos in range(problem.num_slots):
                if pos == current:
                    continue
                base[flat_id] = pos
                oracle = list_schedule(problem, tuple(base)).makespan
                fast = evaluator.rebase(tuple(base))
                base[flat_id] = current
                assert fast == oracle
                assert evaluator.rebase(tuple(base)) == base_makespan

    @_SETTINGS
    @given(seed=st.integers(0, 10_000), cutoff_frac=st.floats(0.2, 1.5))
    def test_cutoff_is_certified(self, seed, cutoff_frac):
        """With a cutoff, the result is exact when <= cutoff and a true
        lower-bound certificate (> cutoff implies makespan > cutoff).
        The assignment is priced as one move off a neighbour, since
        ``trial_move`` is where the evaluator takes a cutoff."""
        problem = random_problem(seed, zero_durations=True)
        evaluator = MakespanEvaluator(problem)
        rng = np.random.default_rng(seed + 3)
        assignment = random_assignment(problem, rng)
        truth = list_schedule(problem, assignment).makespan
        cutoff = max(0, int(truth * cutoff_frac))
        flat_id = int(rng.integers(0, problem.num_layers))
        neighbour = list(assignment)
        neighbour[flat_id] = (assignment[flat_id] + 1) % problem.num_slots
        evaluator.rebase(tuple(neighbour))
        got = evaluator.trial_move(flat_id, assignment[flat_id],
                                   cutoff=cutoff)
        if got <= cutoff:
            assert got == truth
        else:
            assert truth > cutoff

    def test_rebase_onto_current_base_replays_nothing(self):
        """Re-adopting the incumbent (the solver does so between its
        phases) returns the recorded makespan without simulating."""
        problem = random_problem(7)
        evaluator = MakespanEvaluator(problem)
        assignment = random_assignment(problem, np.random.default_rng(0))
        first = evaluator.rebase(assignment)
        steps = evaluator.stats.steps_replayed
        assert evaluator.rebase(assignment) == first
        assert evaluator.stats.steps_replayed == steps
        assert evaluator.stats.full_replays == 1


# ----------------------------------------------------------------------
# Delta-resume move pricing vs the full-reschedule oracle
# ----------------------------------------------------------------------
class TestDeltaResume:
    @_SETTINGS
    @given(seed=st.integers(0, 10_000))
    def test_trial_move_matches_full_replay_bit_for_bit(self, seed):
        """Every single-layer move priced by delta-resume equals the full
        ``list_schedule`` recompute exactly, including across a walk of
        single-move rebases (the solver's accept pattern)."""
        problem = random_problem(seed, zero_durations=(seed % 4 == 0))
        evaluator = MakespanEvaluator(problem)
        rng = np.random.default_rng(seed + 21)
        base = list(random_assignment(problem, rng))
        evaluator.rebase(tuple(base))
        for _ in range(3):
            for flat_id in range(problem.num_layers):
                current = base[flat_id]
                for pos in range(problem.num_slots):
                    if pos == current:
                        continue
                    base[flat_id] = pos
                    oracle = list_schedule(problem, tuple(base)).makespan
                    base[flat_id] = current
                    assert evaluator.trial_move(flat_id, pos) == oracle
            # Accept a random move: exercises the resume-rebase path.
            flat_id = int(rng.integers(0, problem.num_layers))
            base[flat_id] = int(rng.integers(0, problem.num_slots))
            assert (evaluator.rebase(tuple(base))
                    == list_schedule(problem, tuple(base)).makespan)

    @_SETTINGS
    @given(seed=st.integers(0, 10_000), cutoff_frac=st.floats(0.0, 1.5))
    def test_trial_move_cutoff_is_certified(self, seed, cutoff_frac):
        """With a cutoff, ``trial_move`` is exact when the result fits it
        and certifies ``truth > cutoff`` otherwise — including when the
        trial was pruned by the lower bounds without simulating."""
        problem = random_problem(seed, zero_durations=(seed % 4 == 0))
        evaluator = MakespanEvaluator(problem)
        rng = np.random.default_rng(seed + 22)
        base = list(random_assignment(problem, rng))
        evaluator.rebase(tuple(base))
        for flat_id in range(problem.num_layers):
            current = base[flat_id]
            for pos in range(problem.num_slots):
                if pos == current:
                    continue
                base[flat_id] = pos
                truth = list_schedule(problem, tuple(base)).makespan
                base[flat_id] = current
                cutoff = int(truth * cutoff_frac)
                got = evaluator.trial_move(flat_id, pos, cutoff=cutoff)
                if got <= cutoff:
                    assert got == truth
                else:
                    assert truth > cutoff

    @_SETTINGS
    @given(seed=st.integers(0, 10_000))
    def test_pruned_move_bounds_are_sound(self, seed):
        """Every certified lower bound really bounds the true makespan
        from below — so any move pruned via ``bound > cutoff`` genuinely
        exceeds the cutoff."""
        problem = random_problem(seed)
        evaluator = MakespanEvaluator(problem)
        rng = np.random.default_rng(seed + 23)
        base = list(random_assignment(problem, rng))
        evaluator.rebase(tuple(base))
        for flat_id in range(problem.num_layers):
            current = base[flat_id]
            for pos in range(problem.num_slots):
                if pos == current:
                    continue
                bound = evaluator.move_lower_bound(flat_id, pos)
                base[flat_id] = pos
                truth = list_schedule(problem, tuple(base)).makespan
                base[flat_id] = current
                assert bound <= truth

    def test_prune_counter_moves_skip_simulation(self):
        """A trial pruned by the lower bound is counted and returns the
        certified ``cutoff + 1`` without replaying any steps."""
        # One chain, two slots: moving the only layer to a slow slot is
        # provably over any cutoff below its duration.
        problem = tiny_problem([[10, 1000]], [(0,)])
        evaluator = MakespanEvaluator(problem)
        evaluator.rebase((0,))
        steps_before = evaluator.stats.steps_replayed
        got = evaluator.trial_move(0, 1, cutoff=500)
        assert got == 501
        assert evaluator.stats.pruned == 1
        assert evaluator.stats.steps_replayed == steps_before


# ----------------------------------------------------------------------
# solve_hap invariants
# ----------------------------------------------------------------------
class TestSolverProperties:
    @_SETTINGS
    @given(seed=st.integers(0, 10_000))
    def test_incremental_equals_oracle_solver(self, seed):
        """The delta-resume fast path (default) and the full-reschedule
        oracle return bit-identical results."""
        problem = random_problem(seed)
        rng = np.random.default_rng(seed + 4)
        budget = budget_for(problem, rng)
        assert (solve_hap(problem, budget)
                == solve_hap(problem, budget, incremental=False))

    @_SETTINGS
    @given(seed=st.integers(0, 10_000), frac=st.floats(0.15, 0.9))
    def test_solver_modes_agree_under_tight_budgets(self, seed, frac):
        """Tight constraints exercise the feasibility phase's sorted
        lower-bound scan; the accepted moves must still match the oracle
        exactly."""
        problem = random_problem(seed)
        budget = max(1, int(problem.durations.min(axis=1).sum() * frac))
        assert (solve_hap(problem, budget)
                == solve_hap(problem, budget, incremental=False))

    @_SETTINGS
    @given(seed=st.integers(0, 10_000))
    def test_feasible_implies_makespan_within_ls(self, seed):
        problem = random_problem(seed)
        rng = np.random.default_rng(seed + 5)
        budget = budget_for(problem, rng)
        result = solve_hap(problem, budget)
        if result.feasible:
            assert result.makespan <= budget
        else:
            assert result.makespan > budget
        # The reported makespan always matches the reported schedule.
        assert result.makespan == result.schedule.makespan
        assert (result.makespan
                == list_schedule(problem, result.assignment).makespan)

    @_SETTINGS
    @given(seed=st.integers(0, 10_000))
    def test_energy_monotone_across_refinement(self, seed):
        problem = random_problem(seed)
        rng = np.random.default_rng(seed + 6)
        budget = budget_for(problem, rng)
        result = solve_hap(problem, budget)
        trajectory = result.refinement_energies
        if not result.feasible:
            assert trajectory == ()
            return
        assert trajectory, "feasible solves record the refinement start"
        # Accepted moves add strictly negative deltas; float addition is
        # monotone, so the delta-summed trajectory never increases.  The
        # endpoint is snapped to the fresh table sum, so the final step
        # gets the snap's rounding leeway.
        steps = list(zip(trajectory, trajectory[1:]))
        for before, after in steps[:-1]:
            assert after <= before
        if steps:
            before, after = steps[-1]
            assert (after <= before
                    or after == pytest.approx(before, rel=1e-12))
        # The endpoint describes the final assignment and is snapped to
        # the same fresh table sum energy_nj reports: bit-identical.
        assert trajectory[-1] == result.energy_nj

    @_SETTINGS
    @given(seed=st.integers(0, 10_000))
    def test_trajectory_steps_are_exact_single_move_deltas(self, seed):
        """Every refinement step's energy drop is exactly one accepted
        single-layer move's energy-table delta (the delta bookkeeping
        adds table differences, nothing else)."""
        problem = random_problem(seed)
        rng = np.random.default_rng(seed + 13)
        budget = budget_for(problem, rng)
        result = solve_hap(problem, budget)
        trajectory = result.refinement_energies
        if len(trajectory) < 2:
            return
        deltas = set()
        for flat_id in range(problem.num_layers):
            row = problem.energies[flat_id]
            for a in range(problem.num_slots):
                for b in range(problem.num_slots):
                    if a != b:
                        deltas.add(float(row[b]) - float(row[a]))
        steps = list(zip(trajectory, trajectory[1:]))
        for before, after in steps[:-1]:
            # after == before + d for some single-move table delta d.
            assert any(after == before + d for d in deltas)
        # The final entry is snapped from the delta sum to the fresh
        # table sum (bit-identical to energy_nj), so the last step
        # matches its move's delta to float rounding only.
        before, after = steps[-1]
        assert any(after == pytest.approx(before + d, rel=1e-12)
                   for d in deltas)

    @_SETTINGS
    @given(seed=st.integers(0, 10_000))
    def test_energy_matches_assignment(self, seed):
        problem = random_problem(seed)
        rng = np.random.default_rng(seed + 7)
        budget = budget_for(problem, rng)
        result = solve_hap(problem, budget)
        assert result.energy_nj == problem.assignment_energy(
            result.assignment)
