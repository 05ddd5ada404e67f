"""Unit tests for the REINFORCE trainer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ControllerConfig, ReinforceConfig, ReinforceTrainer, RNNController
from repro.core.choices import Decision
from repro.core.controller import FlatParams


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
        grads = FlatParams({"g": (4,)}, np.full(4, 10.0))
        clipped._clip(grads)
        assert np.linalg.norm(grads["g"]) == pytest.approx(1e-6)
        grads = FlatParams({"g": (4,)}, np.full(4, 10.0))
        unclipped._clip(grads)
        assert np.array_equal(grads["g"], np.full(4, 10.0))


class PerKeyTrainer(ReinforceTrainer):
    """Reference step: scale, clip and RMSProp key by key on separate
    per-key arrays (the update the flat trainer must reproduce)."""

    def __init__(self, controller, config):
        super().__init__(controller, config)
        self.moments = {k: np.zeros_like(v)
                        for k, v in controller.params.items()}

    def apply_episodes(self, episodes, *, trainable=None):
        samples = [sample for sample, _ in episodes]
        rewards = [reward for _, reward in episodes]
        weights, entropy = self.step_weights(samples, rewards, trainable)
        grads = {k: v.copy() for k, v in self.controller.backward(
            samples, weights, entropy).items()}
        for key in grads:
            grads[key] *= 1.0 / len(episodes)
        total = float(np.sqrt(sum(
            float((g * g).sum()) for g in grads.values())))
        if total > self.config.grad_clip > 0:
            factor = self.config.grad_clip / total
            for key in grads:
                grads[key] *= factor
        lr = self.learning_rate
        decay = self.config.rms_decay
        for key, grad in grads.items():
            rms = self.moments[key]
            rms *= decay
            rms += (1.0 - decay) * grad * grad
            self.controller.params[key] += (
                lr * grad / (np.sqrt(rms) + self.config.rms_eps))
        mean_reward = float(np.mean(rewards))
        if self.baseline is None:
            self.baseline = mean_reward
        else:
            d = self.config.baseline_decay
            self.baseline = d * self.baseline + (1.0 - d) * mean_reward
        self.updates_applied += 1


def five_step_controller(seed):
    return RNNController(
        [Decision("a", 3, "arch"), Decision("b", 5, "arch"),
         Decision("c", 4, "hw"), Decision("d", 2, "hw"),
         Decision("e", 6, "hw")],
        ControllerConfig(hidden_size=10, embed_size=5),
        rng=np.random.default_rng(seed))


def shares_flat(controller):
    flat = controller.params.flat
    return all(np.shares_memory(view, flat)
               for view in controller.params.values())


class TestFlatTrainer:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), batch=st.integers(1, 5),
           grad_clip=st.sampled_from([0.0, 1e-3, 0.3, 5.0]),
           updates=st.integers(1, 4))
    def test_matches_per_key_reference(self, seed, batch, grad_clip,
                                       updates):
        config = ReinforceConfig(learning_rate=0.2, grad_clip=grad_clip,
                                 lr_decay_every=2)
        flat_ctrl, ref_ctrl = (five_step_controller(seed) for _ in "ab")
        flat, ref = (ReinforceTrainer(flat_ctrl, config),
                     PerKeyTrainer(ref_ctrl, config))
        flat_rng, ref_rng = (np.random.default_rng(seed + 1)
                             for _ in "ab")
        rewards = np.random.default_rng(seed + 2).normal(
            scale=3.0, size=(updates, batch))
        for step in range(updates):
            # Odd updates force the architecture steps, as NASAIC's
            # hardware-only batches do: their weights are all zero.
            forced = {0: 1, 1: 4} if step % 2 else None
            for controller, trainer, rng in ((flat_ctrl, flat, flat_rng),
                                             (ref_ctrl, ref, ref_rng)):
                samples = controller.sample(rng, forced_actions=forced,
                                            count=batch)
                trainer.apply_episodes(list(zip(samples, rewards[step])))
        for key, value in ref_ctrl.params.items():
            assert np.array_equal(flat_ctrl.params[key], value), key
            assert np.array_equal(flat._rms[key], ref.moments[key]), key
        assert flat.baseline == ref.baseline
        assert shares_flat(flat_ctrl)

    def test_clip_fires_in_reference_range(self, setup, rng):
        """The low clip value of the property test really clips."""
        controller, _ = setup
        trainer = ReinforceTrainer(controller, ReinforceConfig(
            grad_clip=1e-3))
        sample = controller.sample(rng)
        weights, entropy = trainer.step_weights([sample], [5.0])
        grads = controller.backward([sample], weights, entropy)
        norm = np.linalg.norm(grads.flat)
        assert norm > 1e-3
        trainer._clip(grads)
        assert np.linalg.norm(grads.flat) == pytest.approx(1e-3)

    def test_update_moves_views_and_flat_together(self, setup, rng):
        controller, trainer = setup
        before = controller.params.flat.copy()
        trainer.apply_episodes([(controller.sample(rng), 1.0)])
        assert not np.array_equal(before, controller.params.flat)
        assert np.array_equal(
            np.concatenate([v.ravel() for v in controller.params.values()]),
            controller.params.flat)
        assert shares_flat(controller)

    def test_load_params_and_state_keep_views(self, setup, rng):
        controller, trainer = setup
        trainer.apply_episodes([(controller.sample(rng), 1.0)])
        params, state = controller.clone_params(), trainer.state()
        other = RNNController(controller.decisions, controller.config,
                              rng=np.random.default_rng(9))
        other_trainer = ReinforceTrainer(other, trainer.config)
        other.load_params(params)
        other_trainer.load_state(state)
        assert shares_flat(other)
        assert all(np.shares_memory(v, other_trainer._rms.flat)
                   for v in other_trainer._rms.values())
        assert np.array_equal(other.params.flat, controller.params.flat)
        assert np.array_equal(other_trainer._rms.flat, trainer._rms.flat)
        sample = other.sample(np.random.default_rng(3))
        before = other.params.flat.copy()
        other_trainer.apply_episodes([(sample, 3.0)])  # baseline is 1.0
        assert not np.array_equal(before, other.params.flat)
        assert shares_flat(other)

    def test_driver_resume_keeps_views(self, tmp_path):
        from repro.core import NASAIC, NASAICConfig, SearchDriver
        from repro.workloads import w1

        def fresh():
            return NASAIC(w1(), config=NASAICConfig(
                episodes=3, hw_steps=2, seed=5, joint_batch=1))

        path = tmp_path / "run.ckpt"
        partial = fresh()
        driver = SearchDriver(partial, partial.evalservice,
                              checkpoint_path=path)
        driver.run(max_rounds=1)
        driver.save_checkpoint()
        resumed = fresh()
        SearchDriver(resumed, resumed.evalservice).restore(path)
        controller = resumed.controller
        assert shares_flat(controller)
        for trainer in (resumed._joint_updates, resumed._hw_updates):
            assert all(np.shares_memory(v, trainer._rms.flat)
                       for v in trainer._rms.values())
        before = controller.params.flat.copy()
        views = {k: v.copy() for k, v in controller.params.items()}
        resumed.run()
        assert not np.array_equal(before, controller.params.flat)
        assert any(not np.array_equal(views[k], controller.params[k])
                   for k in views)
        assert shares_flat(controller)


class TestShapeChecks:
    def test_load_params_rejects_broadcastable_shape(self, setup):
        controller, _ = setup
        params = controller.clone_params()
        params["b"] = np.zeros(1)
        before = controller.params.flat.copy()
        with pytest.raises(ValueError, match="shape mismatch"):
            controller.load_params(params)
        assert np.array_equal(before, controller.params.flat)

    def test_load_state_rejects_broadcastable_moment(self, setup):
        _, trainer = setup
        state = trainer.state()
        state["rms"]["Wx"] = np.zeros((1,))
        with pytest.raises(ValueError, match="shape mismatch"):
            trainer.load_state(state)

    def test_rebinding_a_parameter_is_rejected(self, setup):
        controller, _ = setup
        with pytest.raises(TypeError, match="in place"):
            controller.params["b"] = np.zeros_like(controller.params["b"])
        controller.params["b"] += 1.0
        assert (controller.params["b"] == 1.0).all()
        assert shares_flat(controller)
