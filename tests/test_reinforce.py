"""Unit tests for the REINFORCE trainer."""

import numpy as np
import pytest

from repro.core import ControllerConfig, ReinforceConfig, ReinforceTrainer, RNNController
from repro.core.choices import Decision


@pytest.fixture
def setup():
    controller = RNNController(
        [Decision("a", 3, "arch"), Decision("b", 4, "hw")],
        ControllerConfig(hidden_size=12, embed_size=6),
        rng=np.random.default_rng(0))
    trainer = ReinforceTrainer(controller, ReinforceConfig(
        learning_rate=0.1, entropy_beta=0.0, gamma=1.0))
    return controller, trainer


class TestStepWeights:
    def test_forced_steps_zero_weight(self, setup, rng):
        controller, trainer = setup
        sample = controller.sample(rng, forced_actions={0: 1})
        (weights,), _ = trainer.step_weights([sample], [1.0])
        assert weights[0] == 0.0
        assert weights[1] != 0.0

    def test_trainable_restriction(self, setup, rng):
        controller, trainer = setup
        sample = controller.sample(rng)
        (weights,), _ = trainer.step_weights([sample], [1.0],
                                             trainable={1})
        assert weights[0] == 0.0 and weights[1] != 0.0

    def test_gamma_discounting(self, rng):
        controller = RNNController(
            [Decision("a", 3, "arch"), Decision("b", 3, "arch"),
             Decision("c", 3, "arch")],
            ControllerConfig(hidden_size=8, embed_size=4),
            rng=np.random.default_rng(1))
        trainer = ReinforceTrainer(controller, ReinforceConfig(gamma=0.5))
        sample = controller.sample(rng)
        (weights,), _ = trainer.step_weights([sample], [1.0])
        # gamma^(T-1-t): earliest step discounted most
        assert weights[0] == pytest.approx(0.25)
        assert weights[1] == pytest.approx(0.5)
        assert weights[2] == pytest.approx(1.0)

    def test_baseline_subtracted(self, setup, rng):
        controller, trainer = setup
        trainer.baseline = 0.4
        sample = controller.sample(rng)
        (weights,), _ = trainer.step_weights([sample], [1.0])
        assert weights[-1] == pytest.approx(0.6)


class TestUpdates:
    def test_update_changes_parameters(self, setup, rng):
        controller, trainer = setup
        before = controller.clone_params()
        sample = controller.sample(rng)
        trainer.apply_episodes([(sample, 1.0)])
        changed = any(
            not np.array_equal(before[k], controller.params[k])
            for k in before)
        assert changed

    def test_baseline_tracks_rewards(self, setup, rng):
        controller, trainer = setup
        sample = controller.sample(rng)
        trainer.apply_episodes([(sample, 2.0)])
        assert trainer.baseline == pytest.approx(2.0)  # initialised
        trainer.apply_episodes([(sample, 0.0)])
        assert 0.0 < trainer.baseline < 2.0

    def test_lr_decay_schedule(self, setup):
        _, trainer = setup
        cfg = trainer.config
        assert trainer.learning_rate == cfg.learning_rate
        trainer.updates_applied = cfg.lr_decay_every
        assert trainer.learning_rate == pytest.approx(
            cfg.learning_rate * cfg.lr_decay)

    def test_empty_batch_rejected(self, setup):
        _, trainer = setup
        with pytest.raises(ValueError, match="at least one"):
            trainer.apply_episodes([])

    def test_positive_reward_increases_action_probability(self, rng):
        """REINFORCE sanity: rewarding one action makes it more likely."""
        controller = RNNController(
            [Decision("a", 3, "arch")],
            ControllerConfig(hidden_size=8, embed_size=4),
            rng=np.random.default_rng(2))
        trainer = ReinforceTrainer(controller, ReinforceConfig(
            learning_rate=0.05, entropy_beta=0.0, baseline_decay=0.0))
        target_action = 1

        def prob_of_target():
            sample = controller.sample(np.random.default_rng(0),
                                       greedy=True)
            return sample.steps[0].probs[target_action]

        before = prob_of_target()
        for _ in range(30):
            sample = controller.sample(rng)
            reward = 1.0 if sample.actions[0] == target_action else -1.0
            trainer.apply_episodes([(sample, reward)])
        assert prob_of_target() > before

    def test_toy_bandit_converges(self, rng):
        """On a 1-step bandit the policy should concentrate on the best
        arm; a small entropy bonus prevents premature lock-in."""
        controller = RNNController(
            [Decision("arm", 4, "arch")],
            ControllerConfig(hidden_size=8, embed_size=4),
            rng=np.random.default_rng(3))
        trainer = ReinforceTrainer(controller, ReinforceConfig(
            learning_rate=0.08, entropy_beta=0.05))
        payouts = [0.1, 0.9, 0.3, 0.5]
        for _ in range(600):
            sample = controller.sample(rng)
            trainer.apply_episodes([(sample, payouts[sample.actions[0]])])
        greedy = controller.sample(np.random.default_rng(0), greedy=True)
        assert greedy.actions[0] == 1

    def test_grad_clip_applies(self, setup, rng):
        controller, trainer = setup
        sample = controller.sample(rng)
        # A huge reward would explode without clipping; the update must
        # stay bounded by lr * grad_clip per parameter tensor.
        before = controller.clone_params()
        trainer.apply_episodes([(sample, 1e6)])
        for key in before:
            delta = np.abs(controller.params[key] - before[key]).max()
            assert delta < 1.0


class TestConfigValidation:
    def test_rejects_bad_learning_rate(self):
        with pytest.raises(ValueError):
            ReinforceConfig(learning_rate=0)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            ReinforceConfig(gamma=1.5)

    def test_rejects_bad_decay(self):
        with pytest.raises(ValueError):
            ReinforceConfig(lr_decay=0)
        with pytest.raises(ValueError):
            ReinforceConfig(baseline_decay=1.0)

    @pytest.mark.parametrize("field,value", [
        ("rms_decay", 1.0), ("rms_decay", -0.1), ("rms_eps", 0.0),
        ("rms_eps", -1e-8), ("entropy_beta", -0.01), ("grad_clip", -1.0),
        ("grad_clip", float("nan"))])
    def test_rejects_bad_rmsprop_entropy_and_clip(self, field, value):
        with pytest.raises(ValueError, match=field):
            ReinforceConfig(**{field: value})

    def test_zero_grad_clip_turns_clipping_off(self):
        controller = RNNController(
            [Decision("a", 3, "arch")],
            ControllerConfig(hidden_size=8, embed_size=4),
            rng=np.random.default_rng(0))
        clipped = ReinforceTrainer(controller, ReinforceConfig(
            grad_clip=1e-6))
        unclipped = ReinforceTrainer(controller, ReinforceConfig(
            grad_clip=0.0))
        grads = {"g": np.full(4, 10.0)}
        clipped._clip(grads)
        assert np.linalg.norm(grads["g"]) == pytest.approx(1e-6)
        grads = {"g": np.full(4, 10.0)}
        unclipped._clip(grads)
        assert np.array_equal(grads["g"], np.full(4, 10.0))
