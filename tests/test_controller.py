"""Unit tests for the numpy LSTM controller, including gradient checks."""

import numpy as np
import pytest

from repro.core import ControllerConfig, RNNController
from repro.core.choices import Decision
from repro.core.controller import _draw, _masked_softmax
from repro.utils.rng import restore_rng


def make_decisions():
    return [
        Decision("a", 4, "arch"),
        Decision("b", 3, "arch"),
        Decision("c", 5, "hw"),
        Decision("d", 2, "hw"),
    ]


@pytest.fixture
def controller():
    return RNNController(make_decisions(),
                         ControllerConfig(hidden_size=16, embed_size=8),
                         rng=np.random.default_rng(0))


class TestSampling:
    def test_action_ranges(self, controller, rng):
        for _ in range(50):
            sample = controller.sample(rng)
            for action, decision in zip(sample.actions,
                                        controller.decisions):
                assert 0 <= action < decision.num_options

    def test_log_probs_negative(self, controller, rng):
        sample = controller.sample(rng)
        assert (sample.log_probs <= 0).all()

    def test_entropy_nonnegative(self, controller, rng):
        sample = controller.sample(rng)
        assert (sample.entropies >= 0).all()

    def test_deterministic_given_seed(self, controller):
        a = controller.sample(np.random.default_rng(42))
        b = controller.sample(np.random.default_rng(42))
        assert a.actions == b.actions

    def test_greedy_matches_argmax(self, controller, rng):
        sample = controller.sample(rng, greedy=True)
        for step, action in zip(sample.steps, sample.actions):
            assert action == int(np.argmax(step.probs))

    def test_forced_actions_respected(self, controller, rng):
        sample = controller.sample(rng, forced_actions={0: 2, 3: 1})
        assert sample.actions[0] == 2
        assert sample.actions[3] == 1
        assert sample.steps[0].forced and sample.steps[3].forced
        assert not sample.steps[1].forced

    def test_forced_out_of_range(self, controller, rng):
        with pytest.raises(ValueError, match="out of range"):
            controller.sample(rng, forced_actions={0: 9})

    def test_mask_respected(self, controller, rng):
        def mask_fn(pos, _actions):
            if pos == 2:
                mask = np.zeros(5, dtype=bool)
                mask[1] = True
                return mask
            return None
        for _ in range(10):
            sample = controller.sample(rng, mask_fn=mask_fn)
            assert sample.actions[2] == 1

    def test_masked_probability_zero(self, controller, rng):
        def mask_fn(pos, _actions):
            if pos == 0:
                return np.array([True, True, False, False])
            return None
        sample = controller.sample(rng, mask_fn=mask_fn)
        assert sample.steps[0].probs[2] == 0.0
        assert sample.steps[0].probs[3] == 0.0
        assert sample.steps[0].probs.sum() == pytest.approx(1.0)

    def test_all_masked_rejected(self, controller, rng):
        def mask_fn(pos, _actions):
            return np.zeros(controller.decisions[pos].num_options,
                            dtype=bool)
        with pytest.raises(ValueError, match="every option"):
            controller.sample(rng, mask_fn=mask_fn)

    def test_forced_masked_action_rejected(self, controller, rng):
        def mask_fn(pos, _actions):
            if pos == 0:
                return np.array([True, False, False, False])
            return None
        with pytest.raises(ValueError, match="masked out"):
            controller.sample(rng, mask_fn=mask_fn, forced_actions={0: 3})


def sample_facts(sample):
    """Everything a trajectory exposes, as bytes for exact comparison."""
    return (sample.actions, sample.log_probs.tobytes(),
            sample.entropies.tobytes(), sample.forced.tobytes(),
            tuple(step.probs.tobytes() for step in sample.steps))


def budget_mask(pos, actions):
    """A history-dependent mask: option ``actions[0]`` of step 2 is off."""
    if pos == 2:
        mask = np.ones(5, dtype=bool)
        mask[actions[0]] = False
        return mask
    return None


class TestLockstep:
    """``sample(count=k)`` / ``backward(list)`` == k single calls."""

    @pytest.mark.parametrize("forced", [{}, {0: 1}, {0: 3, 1: 2}, {2: 4}])
    def test_batch_equals_sequential_samples(self, controller, forced):
        batched_rng, single_rng = (np.random.default_rng(5),
                                   np.random.default_rng(5))
        batch = controller.sample(batched_rng, mask_fn=budget_mask,
                                  forced_actions=forced, count=6)
        singles = [controller.sample(single_rng, mask_fn=budget_mask,
                                     forced_actions=forced)
                   for _ in range(6)]
        assert [sample_facts(s) for s in batch] == [
            sample_facts(s) for s in singles]
        assert (batched_rng.bit_generator.state
                == single_rng.bit_generator.state)

    def test_prefix_reuse_is_bit_identical(self, controller):
        rng = np.random.default_rng(8)
        joint = controller.sample(rng, mask_fn=budget_mask)
        forced = {0: joint.actions[0], 1: joint.actions[1]}
        state = rng.bit_generator.state
        reused = controller.sample(rng, mask_fn=budget_mask,
                                   forced_actions=forced, count=4,
                                   prefix=joint)
        replay = restore_rng(state)
        fresh = controller.sample(replay, mask_fn=budget_mask,
                                  forced_actions=forced, count=4)
        assert [sample_facts(s) for s in reused] == [
            sample_facts(s) for s in fresh]
        assert rng.bit_generator.state == replay.bit_generator.state
        # The reused steps are the joint sample's caches, not copies.
        assert reused[0].path[0][0] is joint.path[0][0]
        assert reused[0].path[2][0] is not joint.path[2][0]

    def test_prefix_stops_at_first_mismatch(self, controller):
        rng = np.random.default_rng(8)
        joint = controller.sample(rng)
        other = (joint.actions[1] + 1) % 3
        batch = controller.sample(rng, forced_actions={
            0: joint.actions[0], 1: other}, count=2, prefix=joint)
        assert batch[0].path[0][0] is joint.path[0][0]
        assert batch[0].path[1][0] is not joint.path[1][0]
        assert batch[1].actions[:2] == (joint.actions[0], other)

    def test_count_zero_draws_nothing(self, controller):
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        assert controller.sample(rng, count=0) == []
        assert rng.bit_generator.state == state

    def test_count_one_returns_list(self, controller, rng):
        batch = controller.sample(rng, count=1)
        assert isinstance(batch, list) and len(batch) == 1

    def test_batch_backward_equals_summed_single_backward(self, controller):
        rng = np.random.default_rng(2)
        batch = controller.sample(rng, mask_fn=budget_mask, count=5)
        weights = rng.normal(size=(5, 4))
        betas = rng.uniform(0, 0.3, size=(5, 4))
        betas[1] = 0.0  # rows with and without an entropy bonus
        got = controller.backward(batch, weights, betas)
        want = {key: np.zeros_like(v) for key, v in controller.params.items()}
        for sample, w, b in zip(batch, weights, betas):
            for key, grad in controller.backward(sample, w, b).items():
                want[key] += grad
        # Weight gradients are BLAS reductions over the batch's rows, so
        # they match the per-sample sum to rounding, not bitwise.
        for key in want:
            scale = np.abs(want[key]).max()
            assert np.abs(got[key] - want[key]).max() <= 1e-12 * scale, key

    def test_backward_reads_step_inputs_from_live_params(self, controller,
                                                         rng):
        """Each step's input is gathered from the parameters at backward
        time (what the pre-lockstep parameter views read), not frozen at
        sample time."""
        sample = controller.sample(rng)
        weights = np.ones(4)
        before = controller.backward(sample, weights)["Wx"].copy()
        controller.params["x0"] += 0.5
        after = controller.backward(sample, weights)["Wx"]
        assert not np.array_equal(before, after)

    def test_batch_weight_shape_checked(self, controller, rng):
        batch = controller.sample(rng, count=3)
        with pytest.raises(ValueError, match="weights"):
            controller.backward(batch, np.zeros(4))
        with pytest.raises(ValueError, match="at least one"):
            controller.backward([], np.zeros((0, 4)))


class TestChoiceContract:
    """The lockstep sampler's categorical draw reproduces
    ``Generator.choice(n, p=)``: same index, same generator state.  The
    seeding contract (:mod:`repro.utils.rng`, rule 5) rests on it, so a
    numpy upgrade that changes ``choice`` must fail here."""

    def test_predrawn_draw_matches_choice(self):
        gen = np.random.default_rng(0)
        for n in range(1, 130):
            logits = gen.normal(scale=3.0, size=(4, n))
            mask = gen.random((4, n)) < 0.7
            mask[np.arange(4), gen.integers(n, size=4)] = True
            mask[0] = True  # one unmasked row
            probs = _masked_softmax(logits, mask)
            seed = int(gen.integers(1 << 31))
            reference = np.random.default_rng(seed)
            want = [reference.choice(n, p=row) for row in probs]
            lockstep = np.random.default_rng(seed)
            got = _draw(probs, lockstep.random(4))
            assert got.tolist() == want, n
            assert (lockstep.bit_generator.state
                    == reference.bit_generator.state), n
            assert all(probs[row, got[row]] > 0 for row in range(4))

    def test_predrawn_uniforms_fill_row_major(self):
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        block = a.random((3, 5))
        scalars = np.array([b.random() for _ in range(15)]).reshape(3, 5)
        assert np.array_equal(block, scalars)
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("probs", [[0.5, 0.6], [-0.1, 1.1],
                                       [np.nan, 1.0]])
    def test_validation_matches_choice(self, probs):
        probs = np.array(probs)
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(2, p=probs)
        with pytest.raises(ValueError, match="probabilities"):
            _draw(probs[None, :], np.zeros(1))


class TestGradients:
    """Finite-difference verification of the full BPTT implementation."""

    @staticmethod
    def replay_log_prob(controller, sample, weights, betas=None):
        """Recompute sum_t w_t log pi(a_t) + beta_t H_t with the current
        parameters."""
        h = np.zeros(controller.config.hidden_size)
        c = np.zeros(controller.config.hidden_size)
        x = controller.params["x0"]
        total = 0.0
        hs = controller.config.hidden_size
        for t, _decision in enumerate(controller.decisions):
            z = (x @ controller.params["Wx"] + h @ controller.params["Wh"]
                 + controller.params["b"])
            i = 1 / (1 + np.exp(-z[:hs]))
            f = 1 / (1 + np.exp(-z[hs:2 * hs]))
            g = np.tanh(z[2 * hs:3 * hs])
            o = 1 / (1 + np.exp(-z[3 * hs:]))
            c = f * c + i * g
            h = o * np.tanh(c)
            logits = ((h @ controller.params[f"Wout{t}"]
                       + controller.params[f"bout{t}"])
                      / controller.config.temperature)
            mask = sample.steps[t].mask
            if mask is not None:
                logits = np.where(mask, logits, -np.inf)
            probs = np.exp(logits - logits.max())
            probs = probs / probs.sum()
            action = sample.actions[t]
            total += weights[t] * np.log(probs[action])
            if betas is not None:
                nonzero = probs[probs > 0]
                total -= betas[t] * (nonzero * np.log(nonzero)).sum()
            x = controller.params[f"emb{t}"][action]
        return total

    @pytest.mark.parametrize("key", ["Wx", "Wh", "b", "x0", "Wout1",
                                     "bout2", "emb0", "emb2"])
    def test_logprob_gradient_matches_finite_difference(self, key):
        controller = RNNController(
            make_decisions(), ControllerConfig(hidden_size=8, embed_size=6),
            rng=np.random.default_rng(3))
        rng = np.random.default_rng(7)
        sample = controller.sample(rng)
        weights = np.array([1.0, -0.5, 2.0, 0.7])
        grads = controller.backward(sample, weights)
        param = controller.params[key]
        eps = 1e-6
        flat_indices = [0, param.size // 2, param.size - 1]
        for flat in flat_indices:
            idx = np.unravel_index(flat, param.shape)
            original = param[idx]
            param[idx] = original + eps
            up = self.replay_log_prob(controller, sample, weights)
            param[idx] = original - eps
            down = self.replay_log_prob(controller, sample, weights)
            param[idx] = original
            numeric = (up - down) / (2 * eps)
            assert grads[key][idx] == pytest.approx(numeric, rel=1e-4,
                                                    abs=1e-7)

    @pytest.mark.parametrize("key", ["Wx", "Wh", "b", "x0", "Wout3",
                                     "emb1"])
    def test_entropy_bonus_gradient_matches_finite_difference(self, key):
        controller = RNNController(
            make_decisions(), ControllerConfig(hidden_size=8, embed_size=6),
            rng=np.random.default_rng(4))
        # Skewed heads: a near-uniform policy has a vanishing entropy
        # gradient, which would let a broken bonus pass.
        skew = np.random.default_rng(5)
        for t, decision in enumerate(controller.decisions):
            controller.params[f"Wout{t}"] *= 20.0
            controller.params[f"bout{t}"][...] = skew.normal(
                scale=1.5, size=decision.num_options)
        batch = controller.sample(np.random.default_rng(11), mask_fn=(
            lambda pos, _a: np.array([True, False, True, True, True])
            if pos == 2 else None), count=2)
        weights = np.array([[0.03, -0.1, 0.08, 0.0], [0.1, 0.04, -0.06, 0.2]])
        betas = np.array([[0.5, 0.0, 1.2, 0.9], [0.0, 0.7, 0.4, 1.1]])
        grads = controller.backward(batch, weights, betas)

        def objective():
            return sum(self.replay_log_prob(controller, sample, w, b)
                       for sample, w, b in zip(batch, weights, betas))

        param = controller.params[key]
        eps = 1e-6
        for flat in (0, param.size // 2, param.size - 1):
            idx = np.unravel_index(flat, param.shape)
            original = param[idx]
            param[idx] = original + eps
            up = objective()
            param[idx] = original - eps
            down = objective()
            param[idx] = original
            assert grads[key][idx] == pytest.approx(
                (up - down) / (2 * eps), rel=1e-4, abs=1e-7)

    def test_gradient_with_temperature(self):
        controller = RNNController(
            make_decisions(),
            ControllerConfig(hidden_size=8, embed_size=6, temperature=1.7),
            rng=np.random.default_rng(3))
        sample = controller.sample(np.random.default_rng(9))
        weights = np.array([1.0, 1.0, 1.0, 1.0])
        grads = controller.backward(sample, weights)
        param = controller.params["Wout0"]
        eps = 1e-6
        idx = (0, 0)
        original = param[idx]
        param[idx] = original + eps
        up = TestGradients.replay_log_prob(controller, sample, weights)
        param[idx] = original - eps
        down = TestGradients.replay_log_prob(controller, sample, weights)
        param[idx] = original
        assert grads["Wout0"][idx] == pytest.approx(
            (up - down) / (2 * eps), rel=1e-4, abs=1e-7)

    def test_zero_weights_zero_head_gradients(self, controller, rng):
        sample = controller.sample(rng)
        grads = controller.backward(sample, np.zeros(4))
        for key, grad in grads.items():
            assert not grad.any(), key

    @pytest.mark.parametrize("key", ["Wout2", "bout2", "Wh", "x0"])
    def test_zero_weight_steps_keep_entropy_gradient(self, key):
        """Steps 0 and 2 carry no log-prob weight; step 2 still has an
        entropy bonus, so only step 0's head may be skipped."""
        controller = RNNController(
            make_decisions(), ControllerConfig(hidden_size=8, embed_size=6),
            rng=np.random.default_rng(4))
        batch = controller.sample(np.random.default_rng(2), count=2)
        weights = np.array([[0.0, 0.3, 0.0, 0.5], [0.0, -0.2, 0.0, 0.1]])
        betas = np.array([[0.0, 0.0, 0.6, 0.2], [0.0, 0.1, 0.9, 0.0]])
        grads = controller.backward(batch, weights, betas)
        assert not grads["Wout0"].any() and not grads["bout0"].any()

        def objective():
            return sum(TestGradients.replay_log_prob(controller, sample, w, b)
                       for sample, w, b in zip(batch, weights, betas))

        param = controller.params[key]
        eps = 1e-6
        for flat in (0, param.size // 2, param.size - 1):
            idx = np.unravel_index(flat, param.shape)
            original = param[idx]
            param[idx] = original + eps
            up = objective()
            param[idx] = original - eps
            down = objective()
            param[idx] = original
            assert grads[key][idx] == pytest.approx(
                (up - down) / (2 * eps), rel=1e-4, abs=1e-7)
        assert grads["Wout2"].any()

    def test_weight_shape_checked(self, controller, rng):
        sample = controller.sample(rng)
        with pytest.raises(ValueError, match="weights"):
            controller.backward(sample, np.zeros(3))


class TestParamManagement:
    def test_num_parameters_positive(self, controller):
        assert controller.num_parameters() > 1000

    def test_clone_and_load_roundtrip(self, controller, rng):
        snapshot = controller.clone_params()
        sample = controller.sample(rng)
        grads = controller.backward(sample, np.ones(4))
        for key in controller.params:
            controller.params[key] += 0.1 * grads[key]
        controller.load_params(snapshot)
        for key, value in snapshot.items():
            assert np.array_equal(controller.params[key], value)

    def test_load_rejects_wrong_keys(self, controller):
        with pytest.raises(ValueError, match="keys"):
            controller.load_params({"bogus": np.zeros(3)})

    def test_empty_decisions_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            RNNController([], ControllerConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ControllerConfig(hidden_size=0)
        with pytest.raises(ValueError):
            ControllerConfig(temperature=0)
