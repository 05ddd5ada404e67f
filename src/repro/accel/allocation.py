"""Hardware allocation space.

The synthesis layer's ``alloc(aic_i)`` function (§III-➌) chooses, for each
sub-accelerator slot, a dataflow template plus PE and bandwidth
allocations subject to the global budget.  This module quantises those
allocations (the paper's explored designs use multiples of 32 PEs and
8 GB/s) and provides

- the per-slot decision structure consumed by the controller's hardware
  segments (with budget-aware option masks), and
- dense/grid enumeration and random sampling used by the brute-force and
  Monte-Carlo baselines.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.accel.accelerator import HeterogeneousAccelerator, ResourceBudget
from repro.accel.dataflow import Dataflow
from repro.accel.subaccelerator import SubAccelerator

__all__ = ["AllocationSpace"]


@dataclass(frozen=True)
class AllocationSpace:
    """Quantised design space over ``num_slots`` sub-accelerator slots.

    Attributes:
        budget: Global PE/bandwidth caps.
        num_slots: Number of sub-accelerator slots (paper case study: 2).
        dataflows: Selectable templates (paper: shi, dla, rs).
        pe_step: PE allocation granularity.
        bw_step: Bandwidth allocation granularity in GB/s.
        allow_empty_slots: Whether a slot may receive zero PEs (degenerate
            single/smaller accelerator designs, §V-A).
    """

    budget: ResourceBudget = ResourceBudget()
    num_slots: int = 2
    dataflows: tuple[Dataflow, ...] = (
        Dataflow.SHIDIANNAO, Dataflow.NVDLA, Dataflow.ROW_STATIONARY)
    pe_step: int = 32
    bw_step: int = 8
    allow_empty_slots: bool = True
    _pe_options: tuple[int, ...] = field(init=False, repr=False)
    _bw_options: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.num_slots < 1:
            raise ValueError("num_slots must be >= 1")
        if not self.dataflows:
            raise ValueError("at least one dataflow template is required")
        if self.pe_step < 1 or self.budget.max_pes % self.pe_step:
            raise ValueError(
                f"pe_step {self.pe_step} must divide max_pes "
                f"{self.budget.max_pes}")
        if self.bw_step < 1 or self.budget.max_bandwidth_gbps % self.bw_step:
            raise ValueError(
                f"bw_step {self.bw_step} must divide max bandwidth "
                f"{self.budget.max_bandwidth_gbps}")
        if not self.allow_empty_slots:
            # Every slot must afford at least the minimum active
            # allocation, or the space contains no design at all.
            if self.num_slots * self.pe_step > self.budget.max_pes:
                raise ValueError(
                    f"{self.num_slots} mandatory-active slots need at "
                    f"least {self.num_slots * self.pe_step} PEs, budget "
                    f"is {self.budget.max_pes}")
            if (self.num_slots * self.bw_step
                    > self.budget.max_bandwidth_gbps):
                raise ValueError(
                    f"{self.num_slots} mandatory-active slots need at "
                    f"least {self.num_slots * self.bw_step} GB/s, budget "
                    f"is {self.budget.max_bandwidth_gbps} GB/s")
        start_pe = 0 if self.allow_empty_slots else self.pe_step
        object.__setattr__(self, "_pe_options", tuple(
            range(start_pe, self.budget.max_pes + 1, self.pe_step)))
        object.__setattr__(self, "_bw_options", tuple(
            range(self.bw_step, self.budget.max_bandwidth_gbps + 1,
                  self.bw_step)))

    # ------------------------------------------------------------------
    # Decision structure for the controller's hardware segments
    # ------------------------------------------------------------------
    @property
    def pe_options(self) -> tuple[int, ...]:
        """PE allocation candidates for one slot."""
        return self._pe_options

    @property
    def bw_options(self) -> tuple[int, ...]:
        """Bandwidth allocation candidates (GB/s) for one slot."""
        return self._bw_options

    def pe_mask(self, pes_remaining: int) -> np.ndarray:
        """Boolean mask of PE options affordable within the remaining budget.

        The controller samples slots sequentially; masking guarantees
        every sampled design satisfies ``sum(pe_i) <= NP`` by construction.
        """
        mask = np.array([p <= pes_remaining for p in self._pe_options])
        if not mask.any():
            raise ValueError(
                f"no PE option fits remaining budget {pes_remaining}")
        return mask

    def bw_mask(self, bw_remaining: int, *, slot_active: bool) -> np.ndarray:
        """Boolean mask of bandwidth options for one slot.

        An inactive slot (zero PEs) consumes no bandwidth, so every option
        is formally allowed (the allocation is ignored when building the
        design); an active slot must fit the remaining bandwidth budget.
        """
        if not slot_active:
            return np.ones(len(self._bw_options), dtype=bool)
        mask = np.array([b <= bw_remaining for b in self._bw_options])
        if not mask.any():
            raise ValueError(
                f"no bandwidth option fits remaining budget {bw_remaining}")
        return mask

    # ------------------------------------------------------------------
    # Design construction
    # ------------------------------------------------------------------
    def build(
        self,
        slots: list[tuple[Dataflow, int, int]],
    ) -> HeterogeneousAccelerator:
        """Assemble a validated accelerator from per-slot (df, pe, bw).

        Slots with zero PEs are normalised to zero bandwidth so that
        inactive slots never count against the bandwidth budget.
        """
        if len(slots) != self.num_slots:
            raise ValueError(
                f"expected {self.num_slots} slots, got {len(slots)}")
        subaccs = []
        for dataflow, pes, bw in slots:
            if pes == 0:
                subaccs.append(SubAccelerator(dataflow, 0, 0))
            else:
                subaccs.append(SubAccelerator(dataflow, pes, bw))
        return HeterogeneousAccelerator(tuple(subaccs), budget=self.budget)

    def random_design(
        self, rng: np.random.Generator
    ) -> HeterogeneousAccelerator:
        """Sample a uniformly random *feasible* design.

        Slots are filled sequentially under the running budget, and the
        first slot is forced active so the design always has PEs.  With
        ``allow_empty_slots=False`` each slot additionally reserves the
        minimum active allocation every *later* slot still needs, so a
        greedy early draw can never starve a mandatory-active slot
        (found by the differential fuzz harness on generated spaces;
        draws in ``allow_empty_slots=True`` spaces are unchanged).
        """
        pes_left = self.budget.max_pes
        bw_left = self.budget.max_bandwidth_gbps
        slots: list[tuple[Dataflow, int, int]] = []
        for slot in range(self.num_slots):
            remaining = self.num_slots - slot - 1
            reserve_pe = 0 if self.allow_empty_slots \
                else remaining * self.pe_step
            reserve_bw = 0 if self.allow_empty_slots \
                else remaining * self.bw_step
            dataflow = self.dataflows[int(rng.integers(len(self.dataflows)))]
            # The option tuples are sorted, so the affordable candidates
            # are a prefix: count them instead of filtering.
            pe_options = self._pe_options
            first = 0
            count = bisect_right(pe_options, pes_left - reserve_pe)
            if slot == 0:
                # Forced active: skip a leading zero option.
                first = bisect_right(pe_options, 0, hi=count)
                if first == count:
                    pe_options, first, count = (self.pe_step,), 0, 1
            pes = int(pe_options[first + int(rng.integers(count - first))])
            if pes == 0:
                slots.append((dataflow, 0, 0))
                continue
            count = bisect_right(self._bw_options, bw_left - reserve_bw)
            if not count:
                slots.append((dataflow, 0, 0))
                continue
            bw = int(self._bw_options[int(rng.integers(count))])
            pes_left -= pes
            bw_left -= bw
            slots.append((dataflow, pes, bw))
        return self.build(slots)

    def enumerate_designs(
        self,
        *,
        pe_stride: int | None = None,
        bw_stride: int | None = None,
    ) -> Iterator[HeterogeneousAccelerator]:
        """Enumerate feasible designs on a (possibly coarsened) grid.

        Used by the brute-force hardware exploration of the NAS->ASIC
        baseline.  ``pe_stride``/``bw_stride`` coarsen the grid (must be
        multiples of the base steps); the full 32-PE grid over two slots
        is ~10^6 designs, so baselines default to a coarser sweep.
        """
        pe_stride = pe_stride or self.pe_step
        bw_stride = bw_stride or self.bw_step
        if pe_stride % self.pe_step or bw_stride % self.bw_step:
            raise ValueError("strides must be multiples of the base steps")
        pe_opts = [p for p in self._pe_options if p % pe_stride == 0]
        bw_opts = [b for b in self._bw_options if b % bw_stride == 0]
        # Slots are interchangeable: designs that differ only in slot
        # order (or in which slot is empty) are the same accelerator, so
        # deduplicate on the sorted active-slot multiset.
        seen: set[tuple] = set()

        def rec(slot: int, pes_left: int, bw_left: int,
                acc: list[tuple[Dataflow, int, int]]):
            if slot == self.num_slots:
                if any(p > 0 for _, p, _ in acc):
                    key = tuple(sorted(
                        (df.value, p, b) for df, p, b in acc if p > 0))
                    if key not in seen:
                        seen.add(key)
                        yield self.build(list(acc))
                return
            slot_pe_opts = ([0] if self.allow_empty_slots else []) + [
                p for p in pe_opts if 0 < p <= pes_left]
            for dataflow in self.dataflows:
                for pes in slot_pe_opts:
                    if pes == 0:
                        # A single inactive combination per slot; dataflow
                        # of an empty slot is irrelevant, so only emit once.
                        if dataflow is self.dataflows[0]:
                            acc.append((dataflow, 0, 0))
                            yield from rec(slot + 1, pes_left, bw_left, acc)
                            acc.pop()
                        continue
                    for bw in bw_opts:
                        if bw > bw_left:
                            continue
                        acc.append((dataflow, pes, bw))
                        yield from rec(slot + 1, pes_left - pes,
                                       bw_left - bw, acc)
                        acc.pop()

        yield from rec(0, self.budget.max_pes,
                       self.budget.max_bandwidth_gbps, [])
