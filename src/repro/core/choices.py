"""Joint decision space for the co-exploration controller.

Fig. 5 of the paper: the controller is one RNN whose output sequence is
split into ``N = m + k`` segments — one per DNN (architecture
hyperparameters, the ``nas(D_i)`` functions) and one per sub-accelerator
(dataflow, #PEs, bandwidth, the ``alloc(aic_k)`` functions).  This module
flattens those segments into a single fixed-length list of categorical
:class:`Decision` tokens, provides budget-aware masks that make every
sampled allocation feasible *by construction*, and decodes sampled action
vectors back into (networks, accelerator) pairs.

Decision order::

    [task 0 arch choices][task 1 arch choices]...
    [slot 0 dataflow][slot 0 PEs][slot 1 dataflow][slot 1 PEs]...
    [slot 0 bandwidth][slot 1 bandwidth]...

PE decisions precede all bandwidth decisions so that slot activity is
known when bandwidth masks are computed; every active slot is guaranteed
at least one bandwidth step by reserving headroom for later active slots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accel.accelerator import HeterogeneousAccelerator
from repro.accel.allocation import AllocationSpace
from repro.arch.network import NetworkArch
from repro.workloads.workload import Workload

__all__ = ["Decision", "JointSearchSpace", "JointSample",
           "random_genes", "repair_genes"]


@dataclass(frozen=True)
class Decision:
    """One categorical token of the controller's output sequence.

    Attributes:
        name: Qualified name, e.g. ``"task0.block1.filters"`` or
            ``"slot1.pes"``.
        num_options: Softmax width for this step.
        kind: ``"arch"`` (architecture segment) or ``"hw"`` (hardware
            segment) — the granularity of the optimizer selector's
            ``SA``/``SH`` switches (§IV-②).
    """

    name: str
    num_options: int
    kind: str

    def __post_init__(self) -> None:
        if self.num_options < 1:
            raise ValueError(f"decision {self.name!r} has no options")
        if self.kind not in ("arch", "hw"):
            raise ValueError(f"decision kind must be arch|hw, got {self.kind}")


@dataclass(frozen=True)
class JointSample:
    """A decoded controller sample."""

    actions: tuple[int, ...]
    networks: tuple[NetworkArch, ...]
    accelerator: HeterogeneousAccelerator


class JointSearchSpace:
    """Flattened co-exploration decision space for one workload.

    Args:
        workload: The multi-task workload (defines the arch segments).
        allocation: The hardware allocation space (defines the hw
            segments).
    """

    def __init__(self, workload: Workload,
                 allocation: AllocationSpace) -> None:
        self.workload = workload
        self.allocation = allocation
        decisions: list[Decision] = []
        self._task_slices: list[slice] = []
        for t_idx, task in enumerate(workload.tasks):
            start = len(decisions)
            for choice in task.space.choices:
                decisions.append(Decision(
                    name=f"task{t_idx}.{choice.name}",
                    num_options=choice.num_options,
                    kind="arch"))
            self._task_slices.append(slice(start, len(decisions)))
        self._df_positions: list[int] = []
        self._pe_positions: list[int] = []
        self._bw_positions: list[int] = []
        for slot in range(allocation.num_slots):
            self._df_positions.append(len(decisions))
            decisions.append(Decision(
                name=f"slot{slot}.dataflow",
                num_options=len(allocation.dataflows), kind="hw"))
            self._pe_positions.append(len(decisions))
            decisions.append(Decision(
                name=f"slot{slot}.pes",
                num_options=len(allocation.pe_options), kind="hw"))
        for slot in range(allocation.num_slots):
            self._bw_positions.append(len(decisions))
            decisions.append(Decision(
                name=f"slot{slot}.bw",
                num_options=len(allocation.bw_options), kind="hw"))
        self.decisions: tuple[Decision, ...] = tuple(decisions)
        # Budget-masked positions -> (is_pe, slot), and the masks they
        # produced, keyed by the budget quantities each one depends on.
        self._masked_slot: dict[int, tuple[bool, int]] = {
            **{pos: (True, slot)
               for slot, pos in enumerate(self._pe_positions)},
            **{pos: (False, slot)
               for slot, pos in enumerate(self._bw_positions)}}
        self._mask_memo: dict[tuple, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Segment views
    # ------------------------------------------------------------------
    @property
    def num_decisions(self) -> int:
        return len(self.decisions)

    @property
    def arch_positions(self) -> tuple[int, ...]:
        """Indices of all architecture-segment decisions."""
        return tuple(i for i, d in enumerate(self.decisions)
                     if d.kind == "arch")

    @property
    def hw_positions(self) -> tuple[int, ...]:
        """Indices of all hardware-segment decisions."""
        return tuple(i for i, d in enumerate(self.decisions)
                     if d.kind == "hw")

    def task_slice(self, task_index: int) -> slice:
        """Decision range of one task's architecture segment."""
        return self._task_slices[task_index]

    def slot_positions(self, slot: int) -> tuple[int, int, int]:
        """Decision positions ``(dataflow, pes, bandwidth)`` of one slot."""
        return (self._df_positions[slot], self._pe_positions[slot],
                self._bw_positions[slot])

    # ------------------------------------------------------------------
    # Budget-aware masking
    # ------------------------------------------------------------------
    def mask_for(self, position: int,
                 sampled: list[int]) -> np.ndarray | None:
        """Option mask for the decision at ``position``.

        ``sampled`` holds the actions already taken at positions
        ``0..position-1``.  Architecture and dataflow decisions are
        unconstrained (``None``); PE and bandwidth decisions are masked to
        the remaining budget so that ``sum(pe) <= NP`` and
        ``sum(bw) <= BW`` hold for every completed sample.

        Masks are memoised on the budget quantities they depend on — a
        PE mask on (slot, PEs used, earlier active slots), a bandwidth
        mask on (slot activity, remaining bandwidth) — so the memo is
        bounded by the option counts.  The returned arrays are shared
        and read-only.  Errors are raised, never memoised.
        """
        masked = self._masked_slot.get(position)
        if masked is None:
            return None
        is_pe, slot = masked
        if is_pe:
            pes = [self._pe_of(sampled, s) for s in range(slot)]
            key = (True, slot, sum(pes), sum(1 for p in pes if p > 0))
        elif self._pe_of(sampled, slot) == 0:
            key = (False, False, 0)
        else:
            used = sum(
                self._bw_of(sampled, s) for s in range(slot)
                if self._pe_of(sampled, s) > 0)
            later_active = sum(
                1 for s in range(slot + 1, self.allocation.num_slots)
                if self._pe_of(sampled, s) > 0)
            remaining = (self.allocation.budget.max_bandwidth_gbps - used
                         - later_active * self.allocation.bw_step)
            key = (False, True, remaining)
        mask = self._mask_memo.get(key)
        if mask is None:
            mask = (self._pe_mask(*key[1:]) if is_pe
                    else self.allocation.bw_mask(key[2],
                                                 slot_active=key[1]))
            mask.flags.writeable = False
            self._mask_memo[key] = mask
        return mask

    def _pe_mask(self, slot: int, used: int,
                 earlier_active: int) -> np.ndarray:
        """PE option mask of ``slot`` after ``used`` PEs went to
        ``earlier_active`` of the slots before it."""
        alloc = self.allocation
        # Reserve the cheapest option for every later slot: spaces whose
        # PE options cannot be zero force every slot active, so a greedy
        # early slot must not starve the rest (with a zero option the
        # reserve is 0 and the mask is unchanged).
        reserve = (alloc.num_slots - slot - 1) * min(alloc.pe_options)
        mask = alloc.pe_mask(alloc.budget.max_pes - used - reserve)
        if ((earlier_active + 1) * min(alloc.bw_options)
                > alloc.budget.max_bandwidth_gbps):
            # The bandwidth budget cannot feed one more active slot even
            # at its cheapest option (a dead end at that slot's bandwidth
            # mask otherwise): only zero PEs remain.
            mask = mask & (np.array(alloc.pe_options) == 0)
        if slot == alloc.num_slots - 1 and not earlier_active:
            # At least one slot must be active (a design needs PEs).
            mask = mask & np.array([p > 0 for p in alloc.pe_options])
            if not mask.any():
                raise ValueError(
                    "budget exhausted before any slot became active")
        return mask

    def _pe_of(self, sampled: list[int], slot: int) -> int:
        position = self._pe_positions[slot]
        if position >= len(sampled):
            raise IndexError(
                f"slot {slot} PE decision not yet sampled")
        return self.allocation.pe_options[sampled[position]]

    def _bw_of(self, sampled: list[int], slot: int) -> int:
        position = self._bw_positions[slot]
        if position >= len(sampled):
            raise IndexError(
                f"slot {slot} bandwidth decision not yet sampled")
        return self.allocation.bw_options[sampled[position]]

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def decode(self, actions: tuple[int, ...] | list[int]) -> JointSample:
        """Decode a complete action vector into networks + accelerator."""
        actions = tuple(int(a) for a in actions)
        self._check_length(actions)
        networks = tuple(
            task.space.decode(actions[self._task_slices[t_idx]])
            for t_idx, task in enumerate(self.workload.tasks))
        return JointSample(actions=actions, networks=networks,
                           accelerator=self.decode_accelerator(actions))

    def decode_accelerator(
        self, actions: tuple[int, ...] | list[int]
    ) -> HeterogeneousAccelerator:
        """Decode only the hardware segments of a complete action
        vector (``decode(actions).accelerator`` without building the
        networks)."""
        self._check_length(actions)
        alloc = self.allocation
        slots = []
        for slot in range(alloc.num_slots):
            dataflow = alloc.dataflows[actions[self._df_positions[slot]]]
            pes = alloc.pe_options[actions[self._pe_positions[slot]]]
            bw = alloc.bw_options[actions[self._bw_positions[slot]]]
            slots.append((dataflow, pes, bw if pes > 0 else 0))
        return alloc.build(slots)

    def _check_length(self, actions: tuple[int, ...] | list[int]) -> None:
        if len(actions) != self.num_decisions:
            raise ValueError(
                f"expected {self.num_decisions} actions, got {len(actions)}")

    def encode_design(
        self, accelerator: HeterogeneousAccelerator
    ) -> dict[int, int]:
        """Map a concrete design to forced hardware actions.

        Used to pin the hardware segments (``SH = 0`` episodes and the
        hardware-aware-NAS baseline, which searches architectures for a
        *fixed* ASIC).  Inactive slots encode PE index 0 and the minimum
        bandwidth index.
        """
        if len(accelerator.subaccs) != self.allocation.num_slots:
            raise ValueError(
                f"design has {len(accelerator.subaccs)} slots, space has "
                f"{self.allocation.num_slots}")
        forced: dict[int, int] = {}
        for slot, subacc in enumerate(accelerator.subaccs):
            forced[self._df_positions[slot]] = (
                self.allocation.dataflows.index(subacc.dataflow))
            forced[self._pe_positions[slot]] = (
                self.allocation.pe_options.index(subacc.num_pes))
            bw = subacc.bandwidth_gbps
            if subacc.num_pes == 0:
                bw = self.allocation.bw_options[0]
            forced[self._bw_positions[slot]] = (
                self.allocation.bw_options.index(bw))
        return forced


# ----------------------------------------------------------------------
# Genome helpers shared by every genome-based strategy (EA + the zoo)
# ----------------------------------------------------------------------
def random_genes(space: JointSearchSpace,
                 rng: np.random.Generator) -> list[int]:
    """Sample a budget-valid genome, one masked draw per decision.

    Draw order and mask handling match the evolutionary search's
    original sampler exactly, so hoisting it here left RNG streams
    untouched.
    """
    genes: list[int] = []
    for pos in range(space.num_decisions):
        mask = space.mask_for(pos, genes)
        if mask is None:
            genes.append(int(rng.integers(
                space.decisions[pos].num_options)))
        else:
            allowed = np.flatnonzero(mask)
            genes.append(int(rng.choice(allowed)))
    return genes


def repair_genes(space: JointSearchSpace, genes: list[int]) -> list[int]:
    """Clamp hardware genes to the budget, walking slot by slot.

    Architecture genes are always valid; PE/bandwidth genes may violate
    the running budget after crossover or mutation, in which case they
    are clamped to the largest allowed option — the mildest change that
    restores validity.  RNG-free.
    """
    repaired: list[int] = []
    for pos, gene in enumerate(genes):
        mask = space.mask_for(pos, repaired)
        if mask is None or mask[gene]:
            repaired.append(gene)
            continue
        allowed = np.flatnonzero(mask)
        below = allowed[allowed <= gene]
        repaired.append(int(below.max() if below.size else
                            allowed.min()))
    return repaired
