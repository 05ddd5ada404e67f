"""Reinforcement-learning RNN controller (numpy, from scratch).

The paper's controller (§IV-①, Fig. 5) is a recurrent network that emits
one categorical token per decision — architecture hyperparameters for
every DNN followed by design parameters for every sub-accelerator — and
is trained with the Monte-Carlo policy gradient of Eq. 1.  No deep
learning framework is available here, so the LSTM, the per-decision
softmax heads and full backpropagation-through-time are implemented
directly on numpy arrays (and verified against finite differences in the
test suite).

Design notes:

- each decision owns an output head (vocabularies differ per step) and an
  embedding table feeding the *next* step's input, as in Zoph & Le [1];
- option masks (from the budget-aware joint space) are applied to the
  logits before the softmax, so infeasible allocations have zero
  probability and zero gradient;
- the optimizer selector's ``SA``/``SH`` switches are realised by
  *forcing* the corresponding steps' actions and giving them zero weight
  in the gradient (see :mod:`repro.core.reinforce`).

Lockstep engine.  :meth:`RNNController.sample` advances ``k``
trajectories together: every state is a ``(k, ·)`` row stack, so one
Python iteration per decision serves all rows, and a single trajectory
is simply ``k = 1``.  :meth:`RNNController.backward` backpropagates a
whole REINFORCE batch in one reverse sweep and returns the summed
gradient.

Prefix reuse.  NASAIC's ``phi`` hardware-only samples are teacher-forced
on the joint sample's architecture tokens.  Forced steps draw no
randomness, so under unchanged weights they reproduce the joint sample's
LSTM states, probabilities, log-probs and entropies exactly;
``sample(count=phi, prefix=joint)`` reuses those step caches and runs
only the remaining (hardware) steps.

Order-fixed sampling.  A batch of ``k`` samples equals ``k`` sequential
single samples bit for bit, generator state included:

- every forward row product is a stacked matmul
  ``(X[:, None, :] @ W)[:, 0, :]``, whose rows are bitwise equal to the
  per-row vector-matrix product (a plain 2-D ``X @ W`` gemm is *not*,
  and neither is ``einsum``);
- softmax max/exp/sum, entropies and the categorical CDF reduce along
  axis 1, bitwise equal to the 1-D reductions of each row;
- sampling pre-draws ``rng.random((k, free_steps))`` in row-major order
  and inverts the CDF exactly as ``Generator.choice(n, p=)`` does (the
  numpy property is pinned in :mod:`repro.utils.rng`).

The backward pass is the one place the order is not fixed: each step's
weight gradients are one BLAS product over the batch's rows
(``x.T @ dz``, ``h_prev.T @ dz``, ``h.T @ g``; ``np.add.at`` for
embedding rows), so a ``k``-sample gradient matches the sum of ``k``
single-sample gradients to ~2e-15 relative, not bitwise (the
``controller-batch`` fuzz pair checks 1e-12).  Steps whose log-prob and
entropy weights are all zero (the forced architecture steps of a
hardware-only batch) skip the output head: their gradient there is
exactly zero and ``dh`` passes through unchanged.

Flat parameters.  Every parameter lives in one contiguous float64
vector, and ``params[k]`` is a :class:`FlatParams` view into it, so the
optimizer updates the whole set with a few vector operations.  Update
parameters in place (``params[k] += d``, ``params[k][...] = v``); a
rebinding assignment raises, because a new array would be detached
from the buffer.  :meth:`RNNController.backward` returns its gradient
in the same layout.

[1] B. Zoph, Q. V. Le.  Neural Architecture Search with Reinforcement
    Learning.  ICLR 2017.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.choices import Decision
from repro.utils.rng import new_rng

__all__ = ["ControllerConfig", "ControllerSample", "FlatParams",
           "RNNController"]

MaskFn = Callable[[int, list[int]], np.ndarray | None]

#: ``Generator.choice``'s tolerance on the probabilities' sum.
_CHOICE_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


@dataclass(frozen=True)
class ControllerConfig:
    """Controller hyperparameters.

    Attributes:
        hidden_size: LSTM state width.
        embed_size: Input embedding width.
        temperature: Softmax temperature (>1 flattens early exploration).
        init_scale: Uniform init half-width for all weights.
    """

    hidden_size: int = 64
    embed_size: int = 24
    temperature: float = 1.0
    init_scale: float = 0.08

    def __post_init__(self) -> None:
        if self.hidden_size < 1 or self.embed_size < 1:
            raise ValueError("hidden_size/embed_size must be positive")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.init_scale <= 0:
            raise ValueError("init_scale must be positive")


@dataclass
class _StepCache:
    """One decision step of a lockstep batch: everything the backward
    pass needs, one row per trajectory.

    The step's input is not cached: backward gathers it from the live
    parameters (``x0`` or an embedding row), the values a trajectory's
    first-layer product reads at backward time.
    """

    h_prev: np.ndarray
    c_prev: np.ndarray
    gates: np.ndarray  # (k, 4h): sigmoid i | sigmoid f | tanh g | sigmoid o
    c: np.ndarray
    tanh_c: np.ndarray
    h: np.ndarray
    probs: np.ndarray
    log_probs: np.ndarray  # log p where p > 0, else 0
    mask: np.ndarray | None
    actions: np.ndarray


#: The :class:`_StepCache` fields the backward pass reads, in its order.
_BACKWARD_FIELDS = ("h_prev", "c_prev", "gates", "tanh_c", "h", "probs",
                    "log_probs", "actions")


@dataclass(frozen=True)
class StepView:
    """One trajectory's row of one step (read-only, for inspection)."""

    probs: np.ndarray
    mask: np.ndarray | None
    action: int
    forced: bool


@dataclass
class ControllerSample:
    """One sampled trajectory with its forward caches.

    Attributes:
        actions: Sampled (or forced) option index per decision.
        log_probs: ``log pi(a_t | a_<t)`` per step.
        entropies: Policy entropy per step.
        forced: Per step, whether the action was pinned (teacher forcing).
        path: Per step, the lockstep step cache holding this trajectory's
            forward state and its row in it (prefix-reused steps point
            into the prefix sample's caches).
    """

    actions: tuple[int, ...]
    log_probs: np.ndarray
    entropies: np.ndarray
    forced: np.ndarray
    path: list[tuple[_StepCache, int]] = field(repr=False,
                                               default_factory=list)

    @property
    def total_log_prob(self) -> float:
        return float(self.log_probs.sum())

    @property
    def steps(self) -> list[StepView]:
        """Per-step views of this trajectory's probabilities, masks and
        actions."""
        return [StepView(
            probs=cache.probs[row],
            mask=None if cache.mask is None else cache.mask[row],
            action=int(cache.actions[row]), forced=bool(forced))
            for (cache, row), forced in zip(self.path, self.forced)]


class FlatParams(Mapping[str, np.ndarray]):
    """Named arrays that are views into one contiguous float64 vector.

    Args:
        shapes: Key -> shape, in buffer order.
        flat: The backing vector; a zero vector when omitted.

    Item assignment accepts only the key's own view, which is what an
    augmented assignment (``params[k] += d``) stores back; anything
    else would detach the key from :attr:`flat` and raises.
    """

    __slots__ = ("flat", "_views")

    def __init__(self, shapes: Mapping[str, tuple[int, ...]],
                 flat: np.ndarray | None = None) -> None:
        sizes = [math.prod(shape) for shape in shapes.values()]
        if flat is None:
            flat = np.zeros(sum(sizes))
        elif flat.shape != (sum(sizes),):
            raise ValueError(f"flat buffer of shape {flat.shape} does not "
                             f"hold {sum(sizes)} parameters")
        self.flat = flat
        self._views: dict[str, np.ndarray] = {}
        start = 0
        for (key, shape), size in zip(shapes.items(), sizes):
            self._views[key] = flat[start:start + size].reshape(shape)
            start += size

    def like(self, flat: np.ndarray | None = None) -> FlatParams:
        """Views with this layout into ``flat`` (default: zeros)."""
        return FlatParams({k: v.shape for k, v in self._views.items()},
                          flat)

    def __getitem__(self, key: str) -> np.ndarray:
        return self._views[key]

    def __setitem__(self, key: str, value: np.ndarray) -> None:
        if value is not self._views[key]:
            raise TypeError(
                f"{key!r} is a view into the flat buffer: update it in "
                f"place (params[{key!r}][...] = value)")

    def __iter__(self) -> Iterator[str]:
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Branch-free logistic, elementwise equal to ``1/(1+exp(-z))`` for
    ``z >= 0`` and ``exp(z)/(1+exp(z))`` otherwise."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _masked_softmax(logits: np.ndarray,
                    mask: np.ndarray | None) -> np.ndarray:
    """Row-wise softmax of ``(k, n)`` logits; masked-out options get 0."""
    if mask is not None:
        logits = np.where(mask, logits, -np.inf)
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _draw(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Categorical draws per row, exactly as ``Generator.choice(n, p=)``
    maps one ``random()`` uniform to an index (including its
    validation)."""
    if (probs < 0).any():
        raise ValueError("probabilities are not non-negative")
    if not (np.abs(probs.sum(axis=1) - 1.0) <= _CHOICE_ATOL).all():
        raise ValueError("probabilities do not sum to 1")
    cdf = probs.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    return (cdf <= uniforms[:, None]).sum(axis=1)


def _gather(refs: list[tuple[_StepCache, int]]) -> tuple[np.ndarray, ...]:
    """The backward fields of one step for the given ``(cache, row)``
    refs, stacked into ``(k, ·)`` arrays in ref order."""
    first = refs[0][0]
    rows = [row for _, row in refs]
    if all(cache is first for cache, _ in refs):
        if rows == list(range(len(first.actions))):
            return tuple(getattr(first, name) for name in _BACKWARD_FIELDS)
        return tuple(getattr(first, name)[rows] for name in _BACKWARD_FIELDS)
    return tuple(np.stack([getattr(cache, name)[row] for cache, row in refs])
                 for name in _BACKWARD_FIELDS)


class RNNController:
    """LSTM policy over a fixed decision sequence.

    Args:
        decisions: The joint space's decision list (order defines the
            token sequence).
        config: Network hyperparameters.
        rng: Generator used for weight initialisation.  Defaults to the
            fixed seed 0 — never OS entropy — per the seeding contract
            of :mod:`repro.utils.rng`; searches always pass a sub-stream
            of their master seed instead.
    """

    def __init__(self, decisions: tuple[Decision, ...] | list[Decision],
                 config: ControllerConfig | None = None,
                 rng: np.random.Generator | None = None) -> None:
        self.decisions = tuple(decisions)
        if not self.decisions:
            raise ValueError("controller needs at least one decision")
        self.config = config or ControllerConfig()
        if rng is None:
            rng = new_rng(0)
        h, e = self.config.hidden_size, self.config.embed_size
        s = self.config.init_scale

        shapes = {"x0": (e,), "Wx": (e, 4 * h), "Wh": (h, 4 * h),
                  "b": (4 * h,)}
        for idx, decision in enumerate(self.decisions):
            shapes[f"emb{idx}"] = (decision.num_options, e)
            shapes[f"Wout{idx}"] = (h, decision.num_options)
            shapes[f"bout{idx}"] = (decision.num_options,)
        self.params = FlatParams(shapes)
        # Weights draw in key order; biases stay zero.
        for key, view in self.params.items():
            if key != "b" and not key.startswith("bout"):
                view[...] = rng.uniform(-s, s, size=view.shape)

    # ------------------------------------------------------------------
    # Forward / sampling
    # ------------------------------------------------------------------
    def sample(
        self,
        rng: np.random.Generator,
        *,
        mask_fn: MaskFn | None = None,
        forced_actions: dict[int, int] | None = None,
        greedy: bool = False,
        count: int | None = None,
        prefix: ControllerSample | None = None,
    ) -> ControllerSample | list[ControllerSample]:
        """Sample one trajectory, or ``count`` of them in lockstep.

        ``sample(count=k)`` draws exactly what ``k`` sequential single
        calls would — same trajectories, same generator state afterwards.

        Args:
            rng: Sampling randomness.
            mask_fn: ``(position, actions_so_far) -> option mask or None``;
                typically :meth:`JointSearchSpace.mask_for`.
            forced_actions: Positions whose action is pinned (teacher
                forcing) — the mechanism behind the ``SA``/``SH`` switches.
            greedy: Take the argmax instead of sampling (used to read out
                the controller's current best guess).
            count: ``None`` returns one sample; an integer returns a list
                of that many.
            prefix: A sample drawn under the current weights and the same
                ``mask_fn`` whose actions match ``forced_actions`` over a
                leading run of positions; those steps are reused from it
                instead of recomputed (bit-identical, draw-free).
        """
        k = 1 if count is None else count
        if k < 0:
            raise ValueError("count must be >= 0")
        forced_actions = forced_actions or {}
        t_count = len(self.decisions)
        pinned: list[int | None] = []
        for t, decision in enumerate(self.decisions):
            action = forced_actions.get(t)
            if action is not None:
                action = int(action)
                if not 0 <= action < decision.num_options:
                    raise ValueError(
                        f"forced action {action} out of range for "
                        f"{decision.name!r}")
            pinned.append(action)
        if k == 0:
            return []
        start = 0
        if prefix is not None:
            while (start < t_count and pinned[start] is not None
                   and pinned[start] == prefix.actions[start]):
                start += 1
        free = sum(action is None for action in pinned[start:])
        uniforms = (rng.random((k, free)) if free and not greedy
                    else None)

        config = self.config
        h_size = config.hidden_size
        wx, wh, bias = self.params["Wx"], self.params["Wh"], self.params["b"]
        rows = np.arange(k)
        actions = np.empty((k, t_count), dtype=np.intp)
        log_probs = np.empty((k, t_count))
        entropies = np.empty((k, t_count))
        if start:
            last, last_row = prefix.path[start - 1]
            h = np.repeat(last.h[last_row:last_row + 1], k, axis=0)
            c = np.repeat(last.c[last_row:last_row + 1], k, axis=0)
            actions[:, :start] = prefix.actions[:start]
            log_probs[:, :start] = prefix.log_probs[:start]
            entropies[:, :start] = prefix.entropies[:start]
            x = self.params[f"emb{start - 1}"][actions[:, start - 1]]
        else:
            h = np.zeros((k, h_size))
            c = np.zeros((k, h_size))
            x = np.repeat(self.params["x0"][None, :], k, axis=0)
        so_far = ([list(prefix.actions[:start]) if start else []
                   for _ in range(k)] if mask_fn is not None else None)
        caches: list[_StepCache] = []
        column = 0
        for t in range(start, t_count):
            decision = self.decisions[t]
            z = ((x[:, None, :] @ wx)[:, 0, :]
                 + (h[:, None, :] @ wh)[:, 0, :] + bias)
            gates = _sigmoid(z)
            gates[:, 2 * h_size:3 * h_size] = np.tanh(
                z[:, 2 * h_size:3 * h_size])
            c_new = (gates[:, h_size:2 * h_size] * c
                     + gates[:, :h_size] * gates[:, 2 * h_size:3 * h_size])
            tanh_c = np.tanh(c_new)
            h_new = gates[:, 3 * h_size:] * tanh_c
            logits = (((h_new[:, None, :] @ self.params[f"Wout{t}"])[:, 0, :]
                       + self.params[f"bout{t}"]) / config.temperature)
            mask = (self._row_masks(mask_fn, t, so_far, logits.shape)
                    if so_far is not None else None)
            probs = _masked_softmax(logits, mask)
            if pinned[t] is not None:
                chosen = np.full(k, pinned[t], dtype=np.intp)
                if (probs[:, pinned[t]] <= 0.0).any():
                    raise ValueError(
                        f"forced action {pinned[t]} for {decision.name!r} "
                        "is masked out")
            elif greedy:
                chosen = probs.argmax(axis=1)
            else:
                chosen = _draw(probs, uniforms[:, column])
                column += 1
            safe_log = np.log(np.where(probs > 0, probs, 1.0))
            log_probs[:, t] = safe_log[rows, chosen]
            entropies[:, t] = -(probs * safe_log).sum(axis=1)
            caches.append(_StepCache(
                h_prev=h, c_prev=c, gates=gates, c=c_new, tanh_c=tanh_c,
                h=h_new, probs=probs, log_probs=safe_log, mask=mask,
                actions=chosen))
            actions[:, t] = chosen
            if so_far is not None:
                for row_actions, action in zip(so_far, chosen.tolist()):
                    row_actions.append(action)
            h, c = h_new, c_new
            x = self.params[f"emb{t}"][chosen]
        forced = np.array([action is not None for action in pinned])
        reused = prefix.path[:start] if start else []
        samples = [ControllerSample(
            actions=tuple(actions[row].tolist()),
            log_probs=log_probs[row], entropies=entropies[row],
            forced=forced,
            path=reused + [(cache, row) for cache in caches])
            for row in range(k)]
        return samples[0] if count is None else samples

    @staticmethod
    def _row_masks(mask_fn: MaskFn, t: int, so_far: list[list[int]],
                   shape: tuple[int, int]) -> np.ndarray | None:
        """Stack each row's option mask (``None`` rows allow everything);
        ``None`` when no row is masked."""
        masks = [mask_fn(t, row_actions) for row_actions in so_far]
        if all(mask is None for mask in masks):
            return None
        stacked = np.ones(shape, dtype=bool)
        for row, mask in enumerate(masks):
            if mask is None:
                continue
            if mask.shape != shape[1:]:
                raise ValueError(
                    f"mask shape {mask.shape} != logits shape {shape[1:]}")
            if not mask.any():
                raise ValueError("mask disallows every option")
            stacked[row] = mask
        return stacked

    # ------------------------------------------------------------------
    # Backward
    # ------------------------------------------------------------------
    def backward(
        self,
        samples: ControllerSample | Sequence[ControllerSample],
        logprob_weights: np.ndarray,
        entropy_weights: np.ndarray | None = None,
    ) -> FlatParams:
        """Gradients of ``sum_k sum_t w_kt log pi(a_kt) + beta_kt H_kt``
        w.r.t. params, summed over the samples in one reverse sweep.

        The caller chooses ``w`` to implement Eq. 1 (discounted
        advantage, zero on forced steps); ``beta`` adds an optional
        entropy bonus that keeps exploration alive.  A single sample
        takes ``(T,)`` weights, a list of ``k`` samples ``(k, T)``.
        The gradient has the parameters' layout: per-key views into one
        flat vector (:attr:`FlatParams.flat`).
        """
        single = isinstance(samples, ControllerSample)
        if single:
            samples = [samples]
        k, t_count = len(samples), len(self.decisions)
        if k == 0:
            raise ValueError("backward needs at least one sample")
        shape = (t_count,) if single else (k, t_count)
        weights = np.asarray(logprob_weights, dtype=float)
        if weights.shape != shape:
            raise ValueError(
                f"expected log-prob weights of shape {shape}, got "
                f"{weights.shape}")
        if entropy_weights is None:
            betas = np.zeros((k, t_count))
        else:
            betas = np.asarray(entropy_weights, dtype=float)
            if betas.shape != shape:
                raise ValueError(
                    f"expected entropy weights of shape {shape}, got "
                    f"{betas.shape}")
        weights = weights.reshape(k, t_count)
        betas = betas.reshape(k, t_count)
        entropies = np.stack([sample.entropies for sample in samples])
        actions = np.array([sample.actions for sample in samples])
        h_size = self.config.hidden_size
        grads = self.params.like()
        g_wx, g_wh, g_b = grads["Wx"], grads["Wh"], grads["b"]
        dh_next = np.zeros((k, h_size))
        dc_next = np.zeros((k, h_size))
        for t in range(t_count - 1, -1, -1):
            (h_prev, c_prev, gates, tanh_c, h, probs, safe_log,
             chosen) = _gather([sample.path[t] for sample in samples])
            dh = dh_next
            if weights[:, t].any() or betas[:, t].any():
                onehot = np.zeros_like(probs)
                onehot[np.arange(k), chosen] = 1.0
                # d/dlogits of log p[a]:  onehot - p   (ascent direction)
                g_logits = weights[:, t, None] * (onehot - probs)
                if betas[:, t].any():
                    g_logits += betas[:, t, None] * (
                        -probs * (safe_log + entropies[:, t, None]))
                g_logits = g_logits / self.config.temperature
                grads[f"Wout{t}"][...] = h.T @ g_logits
                grads[f"bout{t}"][...] = g_logits.sum(axis=0)
                dh = g_logits @ self.params[f"Wout{t}"].T + dh_next
            # Input at step t+1 was emb[t][action_t]; its gradient arrives
            # via dx of step t+1, handled below when we compute dx.
            gate_i = gates[:, :h_size]
            gate_f = gates[:, h_size:2 * h_size]
            gate_g = gates[:, 2 * h_size:3 * h_size]
            gate_o = gates[:, 3 * h_size:]
            d_o = dh * tanh_c
            dc = dh * gate_o * (1.0 - tanh_c ** 2) + dc_next
            d_i = dc * gate_g
            d_g = dc * gate_i
            d_f = dc * c_prev
            dc_next = dc * gate_f
            dz = np.concatenate([
                d_i * gate_i * (1.0 - gate_i),
                d_f * gate_f * (1.0 - gate_f),
                d_g * (1.0 - gate_g ** 2),
                d_o * gate_o * (1.0 - gate_o),
            ], axis=1)
            x = (np.broadcast_to(self.params["x0"],
                                 (k, self.config.embed_size)) if t == 0
                 else self.params[f"emb{t - 1}"][actions[:, t - 1]])
            # One k-row product per step.  A single product over all
            # (sample, step) rows is big enough for OpenBLAS to wake its
            # worker threads, which costs ~10 ms per call on 2 vCPUs.
            g_wx += x.T @ dz
            g_wh += h_prev.T @ dz
            g_b += dz.sum(axis=0)
            dx = dz @ self.params["Wx"].T
            if t == 0:
                grads["x0"][...] = dx.sum(axis=0)
            else:
                np.add.at(grads[f"emb{t - 1}"], actions[:, t - 1], dx)
            dh_next = dz @ self.params["Wh"].T
        return grads

    # ------------------------------------------------------------------
    # Parameter access
    # ------------------------------------------------------------------
    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return self.params.flat.size

    def clone_params(self) -> dict[str, np.ndarray]:
        """Per-key copies of the current parameters (for
        tests/checkpoints)."""
        return {k: v.copy() for k, v in self.params.items()}

    def load_params(self, params: Mapping[str, np.ndarray]) -> None:
        """Copy parameters from :meth:`clone_params` into the flat
        buffer; shapes must match exactly (no broadcasting)."""
        if set(params) != set(self.params):
            raise ValueError("parameter keys do not match this controller")
        for key, value in params.items():
            if value.shape != self.params[key].shape:
                raise ValueError(
                    f"shape mismatch for {key!r}: {value.shape} vs "
                    f"{self.params[key].shape}")
        for key, value in params.items():
            self.params[key][...] = value

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Write a checkpoint (.npz) of the controller's parameters.

        The decision structure is stored alongside the weights so
        :meth:`load` can verify the checkpoint matches the controller it
        is loaded into.
        """
        signature = np.array(
            [f"{d.name}:{d.num_options}:{d.kind}" for d in self.decisions])
        np.savez(path, __signature__=signature, **self.params)

    def load(self, path) -> None:
        """Restore a checkpoint written by :meth:`save`.

        Raises:
            ValueError: If the checkpoint was written for a controller
                with a different decision structure.
        """
        with np.load(path, allow_pickle=False) as data:
            signature = list(data["__signature__"])
            expected = [f"{d.name}:{d.num_options}:{d.kind}"
                        for d in self.decisions]
            if signature != expected:
                raise ValueError(
                    "checkpoint decision structure does not match this "
                    "controller")
            self.load_params({k: data[k] for k in data.files
                              if k != "__signature__"})
