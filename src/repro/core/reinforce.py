"""Monte-Carlo policy gradient (REINFORCE) with RMSProp.

Implements Eq. 1 of the paper:

``grad J = (1/m) * sum_k sum_t gamma^(T-t) grad log pi(a_t | a_<t) (R_k - b)``

with ``b`` the exponential moving average of rewards, per-step discount
``gamma``, batch size ``m``, and RMSProp as the optimiser (§V-A).  Steps
whose actions were *forced* (the optimizer selector's closed switches) get
zero weight — their tokens were not decided by the policy in that episode.

The paper quotes an initial learning rate of 0.99 decayed by 0.5 every 50
steps; on the surrogate landscape that initial rate saturates the softmax
heads within a few updates, so the default here is a gentler 0.15 with the
same halving schedule shape (both are configurable, and the paper's values
can be passed verbatim).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.controller import ControllerSample, FlatParams, RNNController

__all__ = ["ReinforceConfig", "ReinforceTrainer"]


@dataclass(frozen=True)
class ReinforceConfig:
    """REINFORCE/RMSProp hyperparameters.

    Attributes:
        learning_rate: Initial RMSProp step size.
        lr_decay: Multiplicative decay factor for the learning rate.
        lr_decay_every: Updates between decay applications (paper: 50).
        rms_decay: RMSProp second-moment decay.
        rms_eps: RMSProp denominator guard.
        gamma: Per-step reward discount ``gamma`` of Eq. 1.
        baseline_decay: EMA factor for the reward baseline ``b``.
        entropy_beta: Entropy-bonus weight on policy-owned steps.
        grad_clip: Global L2 norm clip on the averaged gradient; 0
            turns clipping off.
    """

    learning_rate: float = 0.15
    lr_decay: float = 0.5
    lr_decay_every: int = 100
    rms_decay: float = 0.99
    rms_eps: float = 1e-8
    gamma: float = 0.99
    baseline_decay: float = 0.9
    entropy_beta: float = 0.1
    grad_clip: float = 5.0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0 < self.lr_decay <= 1:
            raise ValueError("lr_decay must be in (0, 1]")
        if self.lr_decay_every < 1:
            raise ValueError("lr_decay_every must be >= 1")
        if not 0 <= self.gamma <= 1:
            raise ValueError("gamma must be in [0, 1]")
        if not 0 <= self.baseline_decay < 1:
            raise ValueError("baseline_decay must be in [0, 1)")
        if not 0 <= self.rms_decay < 1:
            # rms_decay = 1 would pin the RMS at 0: every step lr*g/eps.
            raise ValueError("rms_decay must be in [0, 1)")
        if not self.rms_eps > 0:
            raise ValueError("rms_eps must be positive")
        if not self.entropy_beta >= 0:
            raise ValueError("entropy_beta must be >= 0")
        if not self.grad_clip >= 0:
            raise ValueError("grad_clip must be >= 0 (0 turns clipping off)")


class ReinforceTrainer:
    """Stateful REINFORCE optimiser for one controller."""

    def __init__(self, controller: RNNController,
                 config: ReinforceConfig | None = None) -> None:
        self.controller = controller
        self.config = config or ReinforceConfig()
        # RMSProp second moments, in the parameters' flat layout.
        self._rms = controller.params.like()
        self.baseline: float | None = None
        self.updates_applied = 0
        t_count = len(controller.decisions)
        # gamma^(T-1-t) per step, as Python float powers.
        self._discount = np.array([self.config.gamma ** (t_count - 1 - t)
                                   for t in range(t_count)])

    # ------------------------------------------------------------------
    # Weights per Eq. 1
    # ------------------------------------------------------------------
    def step_weights(
        self,
        samples: list[ControllerSample],
        rewards: list[float],
        trainable: set[int] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(k, T)`` log-prob and entropy weight matrices for a batch.

        Row ``k`` holds ``gamma^(T-1-t) * (R_k - b)`` and the entropy
        bonus on the steps the policy owned, zero elsewhere.

        Args:
            samples: The sampled trajectories.
            rewards: Episode reward ``R_k`` per trajectory.
            trainable: Step indices the policy owns this episode; ``None``
                means every non-forced step.
        """
        base = self.baseline if self.baseline is not None else 0.0
        advantages = np.array([reward - base for reward in rewards])
        owned = ~np.stack([sample.forced for sample in samples])
        if trainable is not None:
            owned &= np.isin(np.arange(owned.shape[1]), list(trainable))
        weights = np.where(owned, self._discount * advantages[:, None], 0.0)
        entropy = np.where(owned, self.config.entropy_beta, 0.0)
        return weights, entropy

    # ------------------------------------------------------------------
    # Update
    # ------------------------------------------------------------------
    @property
    def learning_rate(self) -> float:
        """Current (decayed) learning rate."""
        halvings = self.updates_applied // self.config.lr_decay_every
        return self.config.learning_rate * (self.config.lr_decay ** halvings)

    def apply_episodes(
        self,
        episodes: list[tuple[ControllerSample, float]],
        *,
        trainable: set[int] | None = None,
    ) -> float:
        """Backpropagate a batch of (sample, reward) episodes in one
        controller sweep and take one RMSProp step.

        The step runs on the flat parameter, gradient and moment
        vectors; every operation is elementwise except the clip norm,
        which keeps the per-key summation order (see :meth:`_clip`).

        Returns the mean advantage of the batch (diagnostic).  The
        baseline EMA is refreshed *after* computing advantages, matching
        the usual REINFORCE-with-moving-baseline order.
        """
        if not episodes:
            raise ValueError("apply_episodes needs at least one episode")
        samples = [sample for sample, _ in episodes]
        rewards = [reward for _, reward in episodes]
        weights, entropy = self.step_weights(samples, rewards, trainable)
        grads = self.controller.backward(samples, weights, entropy)
        base = self.baseline if self.baseline is not None else 0.0
        advantages = [reward - base for reward in rewards]
        grad = grads.flat
        grad *= 1.0 / len(episodes)
        self._clip(grads)
        rms = self._rms.flat
        rms *= self.config.rms_decay
        rms += (1.0 - self.config.rms_decay) * grad * grad
        self.controller.params.flat += (
            self.learning_rate * grad / (np.sqrt(rms) + self.config.rms_eps))
        mean_reward = float(np.mean([r for _, r in episodes]))
        if self.baseline is None:
            self.baseline = mean_reward
        else:
            d = self.config.baseline_decay
            self.baseline = d * self.baseline + (1.0 - d) * mean_reward
        self.updates_applied += 1
        return float(np.mean(advantages))

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state(self) -> dict:
        """Picklable snapshot of the optimiser's mutable state (RMSProp
        second moments, reward baseline, update count) — everything a
        resumed run needs to continue the parameter trajectory
        bit-identically (the controller's weights are checkpointed by
        their owner)."""
        return {
            "rms": {k: v.copy() for k, v in self._rms.items()},
            "baseline": self.baseline,
            "updates_applied": self.updates_applied,
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state` snapshot, copying the moments into
        the flat buffer; shapes must match exactly (no broadcasting)."""
        if set(state["rms"]) != set(self._rms):
            raise ValueError("RMSProp state keys do not match this "
                             "trainer's controller")
        for key, value in state["rms"].items():
            if value.shape != self._rms[key].shape:
                raise ValueError(
                    f"RMSProp shape mismatch for {key!r}: {value.shape} "
                    f"vs {self._rms[key].shape}")
        for key, value in state["rms"].items():
            self._rms[key][...] = value
        self.baseline = state["baseline"]
        self.updates_applied = state["updates_applied"]

    def _clip(self, grads: FlatParams) -> None:
        """Scale ``grads`` in place to global L2 norm ``grad_clip``.

        The squared norm is summed key by key, in key order, over views
        of one flat square: the order of a per-key loop, so clip
        decisions do not depend on the flat layout.
        """
        squares = grads.like(grads.flat * grads.flat)
        total = float(np.sqrt(sum(
            float(square.sum()) for square in squares.values())))
        if total > self.config.grad_clip > 0:
            grads.flat *= self.config.grad_clip / total
