"""Heterogeneous assignment problem (HAP) instances.

§IV-③ reduces NASAIC's mapping/scheduling step to the classical
heterogeneous assignment problem [28], [29]: given per-layer latency and
energy on every sub-accelerator, chain dependencies within each DNN, and
a latency constraint ``LS``, choose an assignment (and schedule) that
minimises energy subject to makespan <= ``LS``.

:class:`MappingProblem` materialises the cost tables by querying the
MAESTRO-substitute oracle for every (layer, active sub-accelerator) pair;
:meth:`MappingProblem.build_many` does so for a whole batch of designs
with array gathers from the batch's distinct priced cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.accel.accelerator import HeterogeneousAccelerator
from repro.arch.layers import ConvLayer
from repro.arch.network import NetworkArch
from repro.cost.area import accelerator_area_um2
from repro.cost.model import CostModel
from repro.cost.params import CostModelParams

__all__ = ["MappingProblem"]


@dataclass(frozen=True)
class MappingProblem:
    """Flattened HAP instance over all layers of all networks.

    Attributes:
        networks: The DNNs of the workload, in task order.
        accelerator: The candidate hardware design.
        active_slots: Indices into ``accelerator.subaccs`` that have PEs;
            assignments refer to *positions in this tuple*.
        durations: ``[num_layers, num_active_slots]`` latency table, cycles.
        energies: ``[num_layers, num_active_slots]`` energy table, nJ.
        chains: Per-network tuples of flat layer ids in execution order.
        layer_net: Flat layer id -> owning network index.
        flat_layers: Flat layer id -> the layer record.
        working_sets: ``[num_layers, num_active_slots]`` global-buffer
            bytes each layer needs on each slot (sizes the buffers in
            :meth:`mapped_area_um2`); ``None`` for hand-built tables.
    """

    networks: tuple[NetworkArch, ...]
    accelerator: HeterogeneousAccelerator
    active_slots: tuple[int, ...]
    durations: np.ndarray
    energies: np.ndarray
    chains: tuple[tuple[int, ...], ...]
    layer_net: tuple[int, ...]
    flat_layers: tuple[ConvLayer, ...]
    working_sets: np.ndarray | None = None

    @classmethod
    def build(
        cls,
        networks: tuple[NetworkArch, ...] | list[NetworkArch],
        accelerator: HeterogeneousAccelerator,
        cost_model: CostModel,
        *,
        batched: bool = True,
    ) -> "MappingProblem":
        """Query the cost oracle and assemble the HAP tables.

        Args:
            batched: Build through :meth:`build_many` (a one-design
                batch).  ``False`` is the scalar reference: one
                :meth:`~repro.cost.model.CostModel.layer_cost` call per
                cell.  Both produce bit-identical tables
                (``tests/test_cost_model.py``, the ``cost-table`` fuzz
                pair).
        """
        if batched:
            return cls.build_many([(networks, accelerator)], cost_model)[0]
        fields = _flatten(networks, accelerator)
        subaccs = [accelerator.subaccs[s] for s in fields["active_slots"]]
        grid = [[cost_model.layer_cost(layer, sub) for sub in subaccs]
                for layer in fields["flat_layers"]]
        shape = (len(grid), len(subaccs))

        def table(name: str, dtype: type) -> np.ndarray:
            return np.array([[getattr(cost, name) for cost in row]
                             for row in grid], dtype=dtype).reshape(shape)

        return cls(durations=table("latency_cycles", np.int64),
                   energies=table("energy_nj", np.float64),
                   working_sets=table("working_set_bytes", np.int64),
                   **fields)

    @classmethod
    def build_many(
        cls,
        designs: Sequence[tuple],
        cost_model: CostModel,
        *,
        batched: bool = True,
    ) -> list["MappingProblem"]:
        """Build one problem per ``(networks, accelerator)`` design.

        The batch entry point: the batch's distinct cost cells are
        priced in one vectorised pass per dataflow, and every design's
        duration, energy and working-set tables are gathers from them
        (:meth:`repro.cost.model.CostModel.tables`).  The problems are
        bit-identical to the scalar reference; ``batched=False`` builds
        each design through it.
        """
        if not batched:
            return [cls.build(networks, accelerator, cost_model,
                              batched=False)
                    for networks, accelerator in designs]
        layouts = [_flatten(networks, accelerator)
                   for networks, accelerator in designs]
        tables = cost_model.tables([
            (fields["flat_layers"],
             [fields["accelerator"].subaccs[slot]
              for slot in fields["active_slots"]])
            for fields in layouts])
        return [cls(durations=durations, energies=energies,
                    working_sets=working_sets, **fields)
                for fields, (durations, energies, working_sets)
                in zip(layouts, tables)]

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def num_layers(self) -> int:
        return len(self.flat_layers)

    @property
    def num_slots(self) -> int:
        """Number of *active* sub-accelerators."""
        return len(self.active_slots)

    @property
    def _row_index(self) -> np.ndarray:
        """Cached ``arange(num_layers)`` for fancy-indexed table reads."""
        # Frozen dataclass: stash via __dict__ (bypasses the frozen guard)
        # so repeated energy reads stop allocating a fresh arange.
        cached = self.__dict__.get("_row_index_cache")
        if cached is None:
            cached = np.arange(self.num_layers)
            self.__dict__["_row_index_cache"] = cached
        return cached

    def assignment_energy(self, assignment: tuple[int, ...],
                          *, validate: bool = True) -> float:
        """Total energy of an assignment (makespan-independent).

        ``validate=False`` skips the entry check for callers that produced
        the assignment themselves (the HAP solver); public callers keep
        the default.
        """
        if validate:
            self.validate_assignment(assignment)
        return float(self.energies[self._row_index, list(assignment)].sum())

    def validate_assignment(self, assignment: tuple[int, ...]) -> None:
        """Raise ``ValueError`` unless every layer maps to an active slot."""
        if len(assignment) != self.num_layers:
            raise ValueError(
                f"assignment covers {len(assignment)} layers, expected "
                f"{self.num_layers}")
        if not self.num_layers:
            return
        positions = np.asarray(assignment, dtype=np.int64)
        bad = (positions < 0) | (positions >= self.num_slots)
        if bad.any():
            flat_id = int(np.argmax(bad))
            raise ValueError(
                f"layer {flat_id} assigned to slot position "
                f"{assignment[flat_id]}, valid range [0, {self.num_slots})")

    def mapped_layers_by_slot(
        self, assignment: tuple[int, ...]
    ) -> dict[int, list[ConvLayer]]:
        """Group layers by *accelerator slot index* (for buffer sizing)."""
        self.validate_assignment(assignment)
        grouped: dict[int, list[ConvLayer]] = {
            slot: [] for slot in self.active_slots}
        for flat_id, pos in enumerate(assignment):
            grouped[self.active_slots[pos]].append(self.flat_layers[flat_id])
        return grouped

    def mapped_area_um2(self, assignment: tuple[int, ...],
                        params: CostModelParams) -> float:
        """Accelerator area with each active slot's global buffer sized
        to the largest working set among the layers ``assignment`` maps
        to it (slots left empty keep the default buffer) — read from
        the :attr:`working_sets` table."""
        picked = self.working_sets[self._row_index, list(assignment)]
        largest: dict[int, int] = {}
        for pos, size in zip(assignment, picked.tolist()):
            if size > largest.get(pos, -1):
                largest[pos] = size
        return accelerator_area_um2(
            self.accelerator, params,
            glb_bytes_per_slot={self.active_slots[pos]: size
                                for pos, size in largest.items()})

    def min_latency_assignment(self) -> tuple[int, ...]:
        """Per-layer latency-greedy assignment (HAP heuristic seed)."""
        return tuple(int(i) for i in np.argmin(self.durations, axis=1))


def _flatten(networks, accelerator: HeterogeneousAccelerator) -> dict:
    """Every :class:`MappingProblem` field except the cost tables."""
    networks = tuple(networks)
    if not networks:
        raise ValueError("a mapping problem needs at least one network")
    flat_layers: list[ConvLayer] = []
    layer_net: list[int] = []
    chains: list[tuple[int, ...]] = []
    for net_idx, network in enumerate(networks):
        start = len(flat_layers)
        flat_layers.extend(network.layers)
        layer_net.extend([net_idx] * (len(flat_layers) - start))
        chains.append(tuple(range(start, len(flat_layers))))
    return dict(
        networks=networks,
        accelerator=accelerator,
        active_slots=tuple(i for i, s in enumerate(accelerator.subaccs)
                           if s.is_active),
        chains=tuple(chains),
        layer_net=tuple(layer_net),
        flat_layers=tuple(flat_layers),
    )
