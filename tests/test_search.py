"""Unit tests for the NASAIC search loop (small-scale runs)."""

import numpy as np
import pytest

from repro.core import NASAIC, NASAICConfig
from repro.core.controller import RNNController


@pytest.fixture(scope="module")
def small_run():
    """One shared 20-episode W3 run (module-scoped for speed)."""
    from repro.workloads import w3
    search = NASAIC(w3(), config=NASAICConfig(
        episodes=20, hw_steps=4, seed=17))
    result = search.run()
    return search, result


class TestRunMechanics:
    def test_episode_count(self, small_run):
        _, result = small_run
        assert len(result.episodes) == 20

    def test_hardware_evaluations_accounted(self, small_run):
        _, result = small_run
        # 1 joint + 4 hw-only evaluations per episode.
        assert result.pricing.requests == 20 * 5

    def test_explored_subset_of_trained(self, small_run):
        _, result = small_run
        trained = sum(1 for e in result.episodes if e.trained)
        assert len(result.explored) == trained

    def test_early_pruning_accounting(self, small_run):
        _, result = small_run
        skipped = sum(1 for e in result.episodes if not e.trained)
        assert result.trainings_skipped == skipped

    def test_pruned_episodes_have_no_solution(self, small_run):
        _, result = small_run
        for episode in result.episodes:
            if not episode.trained:
                assert episode.solution is None
                assert episode.reward <= 0.0

    def test_all_explored_meet_specs(self, small_run):
        """The paper's headline property: every NASAIC-recorded solution
        satisfies the design specs (training only happens when a
        feasible design exists, and the best design is recorded)."""
        _, result = small_run
        assert result.explored, "expected some trained episodes"
        assert all(s.feasible for s in result.explored)

    def test_best_is_max_weighted_feasible(self, small_run):
        _, result = small_run
        feasible = result.feasible_solutions
        if feasible:
            assert result.best.weighted_accuracy == pytest.approx(
                max(s.weighted_accuracy for s in feasible))

    def test_designs_within_budget(self, small_run):
        _, result = small_run
        for solution in result.explored:
            assert solution.accelerator.total_pes <= 4096
            assert solution.accelerator.total_bandwidth_gbps <= 64

    def test_summary_renders(self, small_run):
        _, result = small_run
        text = result.summary()
        assert "NASAIC[W3]" in text
        assert "trainings" in text


class TestDeterminism:
    def test_same_seed_same_result(self):
        from repro.workloads import w3
        cfg = NASAICConfig(episodes=5, hw_steps=2, seed=23)
        r1 = NASAIC(w3(), config=cfg).run()
        r2 = NASAIC(w3(), config=cfg).run()
        acts1 = [e.solution.genotypes for e in r1.episodes if e.solution]
        acts2 = [e.solution.genotypes for e in r2.episodes if e.solution]
        assert acts1 == acts2

    def test_different_seed_differs(self):
        from repro.workloads import w3
        r1 = NASAIC(w3(), config=NASAICConfig(
            episodes=5, hw_steps=2, seed=23)).run()
        r2 = NASAIC(w3(), config=NASAICConfig(
            episodes=5, hw_steps=2, seed=24)).run()
        rewards1 = [e.reward for e in r1.episodes]
        rewards2 = [e.reward for e in r2.episodes]
        assert rewards1 != rewards2


class TestLockstepController:
    """The lockstep controller mechanism fires in a real run."""

    @pytest.mark.parametrize("episodes,joint_batch", [(7, 3), (6, 2)])
    def test_one_sample_and_backward_call_per_batch(
            self, monkeypatch, episodes, joint_batch):
        from repro.workloads import w1
        calls = {"sample": 0, "backward": 0}
        for name in calls:
            original = getattr(RNNController, name)

            def counted(self, *args, _name=name, _original=original,
                        **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)
            monkeypatch.setattr(RNNController, name, counted)
        NASAIC(w1(), config=NASAICConfig(
            episodes=episodes, hw_steps=5, seed=3,
            joint_batch=joint_batch)).run()
        # One joint sample plus one hardware-only batch per episode (the
        # per-trajectory engine made 1 + phi calls of each).
        assert calls["sample"] == 2 * episodes
        assert calls["backward"] == episodes + episodes // joint_batch

    def test_step_weights_match_per_step_formula(self):
        from repro.workloads import w1
        search = NASAIC(w1(), config=NASAICConfig(episodes=1, seed=5))
        trainer = search._hw_updates
        trainer.baseline = 0.37
        joint = search.controller.sample(search._sample_rng,
                                         mask_fn=search.space.mask_for)
        forced = {pos: joint.actions[pos]
                  for pos in search.space.arch_positions}
        batch = search.controller.sample(
            search._sample_rng, mask_fn=search.space.mask_for,
            forced_actions=forced, count=3, prefix=joint)
        rewards = [-1.25, 0.5, 3.0]
        weights, entropy = trainer.step_weights(batch, rewards,
                                                trainable={14, 15, 16})
        cfg = trainer.config
        t_count = len(search.space.decisions)
        for row, (sample, reward) in enumerate(zip(batch, rewards)):
            for t in range(t_count):
                owned = not sample.forced[t] and t in {14, 15, 16}
                want = ((cfg.gamma ** (t_count - 1 - t))
                        * (reward - trainer.baseline) if owned else 0.0)
                assert weights[row, t] == want
                assert entropy[row, t] == (cfg.entropy_beta if owned
                                           else 0.0)
        (single,), (single_entropy,) = trainer.step_weights([batch[1]],
                                                            [rewards[1]])
        assert np.array_equal(single, trainer.step_weights(
            batch, rewards)[0][1])
        assert not single[:len(forced)].any() and single_entropy[-1] > 0


class TestGreedyReadout:
    def test_greedy_solution_valid(self, small_run):
        search, _ = small_run
        solution = search.greedy_solution()
        assert solution.accelerator.total_pes <= 4096
        assert len(solution.accuracies) == 2


class TestConfigValidation:
    def test_bad_episodes(self):
        with pytest.raises(ValueError):
            NASAICConfig(episodes=0)

    def test_bad_hw_steps(self):
        with pytest.raises(ValueError):
            NASAICConfig(hw_steps=-1)

    def test_bad_joint_batch(self):
        with pytest.raises(ValueError):
            NASAICConfig(joint_batch=0)

    def test_zero_hw_steps_allowed(self):
        """phi=0 degenerates to plain joint exploration."""
        from repro.workloads import w3
        result = NASAIC(w3(), config=NASAICConfig(
            episodes=3, hw_steps=0, seed=29)).run()
        assert len(result.episodes) == 3

    @pytest.mark.parametrize("episodes", [0, -2])
    def test_run_rejects_non_positive_episode_override(self, episodes):
        """``run(episodes)`` validates its budget override like the
        config does, instead of silently running 0 episodes (negative)
        or falling back to the configured budget (0)."""
        from repro.workloads import w1
        search = NASAIC(w1(), config=NASAICConfig(
            episodes=3, hw_steps=1, calibrate_bounds=False))
        with pytest.raises(ValueError, match="episodes must be >= 1"):
            search.run(episodes)
        # The refused override left the configured budget in place.
        assert len(search.run().episodes) == 3

    def test_run_episode_override(self):
        from repro.workloads import w1
        result = NASAIC(w1(), config=NASAICConfig(
            episodes=3, hw_steps=1, calibrate_bounds=False)).run(2)
        assert len(result.episodes) == 2
