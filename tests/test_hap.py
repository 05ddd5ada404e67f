"""Unit tests for the HAP solvers (heuristic vs exact reference)."""

import numpy as np
import pytest

from repro.mapping import MappingProblem, list_schedule, solve_exact, solve_hap
from tests.test_schedule import tiny_problem


class TestHeuristicBasics:
    def test_relaxed_constraint_reaches_min_energy(self):
        # With a huge latency budget the heuristic must reach the
        # per-layer minimum-energy assignment (no better exists).
        prob = tiny_problem(
            durations=[[10, 30], [10, 30], [10, 30]],
            chains=[(0, 1, 2)],
            energies=[[9.0, 1.0], [9.0, 1.0], [9.0, 1.0]])
        res = solve_hap(prob, latency_constraint=10_000)
        assert res.feasible
        assert res.energy_nj == pytest.approx(3.0)

    def test_tight_constraint_prefers_fast_slot(self):
        prob = tiny_problem(
            durations=[[10, 30], [10, 30], [10, 30]],
            chains=[(0, 1, 2)],
            energies=[[9.0, 1.0], [9.0, 1.0], [9.0, 1.0]])
        res = solve_hap(prob, latency_constraint=30)
        assert res.feasible
        assert res.makespan <= 30
        assert res.energy_nj == pytest.approx(27.0)

    def test_partial_tradeoff(self):
        # Budget 50 admits exactly one slow-but-cheap layer (30 + 2*10).
        prob = tiny_problem(
            durations=[[10, 30], [10, 30], [10, 30]],
            chains=[(0, 1, 2)],
            energies=[[9.0, 1.0], [9.0, 1.0], [9.0, 1.0]])
        res = solve_hap(prob, latency_constraint=50)
        assert res.feasible
        assert res.energy_nj == pytest.approx(9 + 9 + 1)

    def test_infeasible_reported_not_raised(self):
        prob = tiny_problem(
            durations=[[10, 30], [10, 30]],
            chains=[(0, 1)])
        res = solve_hap(prob, latency_constraint=5)
        assert not res.feasible
        assert res.makespan == 20  # best achievable

    def test_invalid_constraint(self):
        prob = tiny_problem([[10]], [(0,)])
        with pytest.raises(ValueError, match="positive"):
            solve_hap(prob, 0)

    def test_two_networks_split_across_slots(self):
        # Each network fits one slot; splitting halves the makespan.
        prob = tiny_problem(
            durations=[[10, 10], [10, 10], [10, 10], [10, 10]],
            chains=[(0, 1), (2, 3)])
        res = solve_hap(prob, latency_constraint=20)
        assert res.feasible
        slots = {res.assignment[0], res.assignment[2]}
        assert len(slots) == 2  # the two chains use different slots


class TestAgainstExact:
    def make_random(self, rng, layers=6, slots=2, nets=2):
        durations = rng.integers(5, 50, size=(layers, slots))
        energies = rng.uniform(1, 20, size=(layers, slots))
        split = layers // nets
        chains = [tuple(range(i * split, (i + 1) * split))
                  for i in range(nets)]
        rest = range(nets * split, layers)
        chains[-1] = chains[-1] + tuple(rest)
        return tiny_problem(durations.tolist(), chains, energies.tolist())

    @pytest.mark.parametrize("seed", range(8))
    def test_heuristic_never_beats_exact(self, seed):
        rng = np.random.default_rng(seed)
        prob = self.make_random(rng)
        budget = int(prob.durations.min(axis=1).sum() * 1.2) + 1
        exact = solve_exact(prob, budget)
        heur = solve_hap(prob, budget)
        if heur.feasible:
            assert exact.feasible
            assert heur.energy_nj >= exact.energy_nj - 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_heuristic_close_to_exact(self, seed):
        """Solution-quality certification: within 25% of optimal energy."""
        rng = np.random.default_rng(100 + seed)
        prob = self.make_random(rng)
        budget = int(prob.durations.min(axis=1).sum() * 1.5) + 1
        exact = solve_exact(prob, budget)
        heur = solve_hap(prob, budget)
        assert exact.feasible and heur.feasible
        assert heur.energy_nj <= exact.energy_nj * 1.25

    def test_exact_respects_constraint(self):
        rng = np.random.default_rng(4)
        prob = self.make_random(rng)
        budget = int(prob.durations.min(axis=1).sum()) + 10
        exact = solve_exact(prob, budget)
        if exact.feasible:
            assert exact.makespan <= budget


class TestExactSolver:
    def test_finds_optimum_small_instance(self):
        prob = tiny_problem(
            durations=[[10, 30], [10, 30], [10, 30]],
            chains=[(0, 1, 2)],
            energies=[[9.0, 1.0], [9.0, 1.0], [9.0, 1.0]])
        res = solve_exact(prob, 50)
        assert res.feasible
        assert res.energy_nj == pytest.approx(19.0)

    def test_infeasible_instance(self):
        prob = tiny_problem([[10], [10]], [(0, 1)])
        res = solve_exact(prob, 5)
        assert not res.feasible
        assert res.assignment is None

    def test_too_large_instance_rejected(self, cost_model, small_accel,
                                         cifar_net_large, unet_net_mid):
        prob = MappingProblem.build((cifar_net_large, unet_net_mid),
                                    small_accel, cost_model)
        with pytest.raises(ValueError, match="too large"):
            solve_exact(prob, 10_000)

    def test_invalid_constraint(self):
        prob = tiny_problem([[10]], [(0,)])
        with pytest.raises(ValueError, match="positive"):
            solve_exact(prob, -1)


class TestOnRealCostModel:
    def test_w1_style_problem_feasible(self, cost_model, cifar_net_small,
                                       unet_net_mid, small_accel):
        prob = MappingProblem.build((cifar_net_small, unet_net_mid),
                                    small_accel, cost_model)
        res = solve_hap(prob, latency_constraint=800_000)
        assert res.feasible
        assert res.makespan <= 800_000
        assert res.energy_nj > 0

    def test_schedule_matches_assignment(self, cost_model, cifar_net_small,
                                         small_accel):
        prob = MappingProblem.build((cifar_net_small,), small_accel,
                                    cost_model)
        res = solve_hap(prob, latency_constraint=10**9)
        schedule = list_schedule(prob, res.assignment)
        assert schedule.makespan == res.makespan
        for entry in schedule.entries:
            assert entry.slot_pos == res.assignment[entry.flat_id]

    def test_theorem_energy_check(self, cost_model, cifar_net_small,
                                  small_accel):
        """§IV-③ theorem: specs met iff HAP(D, AIC, LS) <= ES."""
        prob = MappingProblem.build((cifar_net_small,), small_accel,
                                    cost_model)
        res = solve_hap(prob, latency_constraint=10**9)
        energy_budget_met = res.energy_nj <= res.energy_nj + 1
        assert res.feasible and energy_budget_met
