"""Cost model facade: the MAESTRO role in NASAIC.

NASAIC uses MAESTRO as a black-box oracle (§IV-③): feed it a network layer
and a sub-accelerator, get latency and energy back; feed it the accelerator
set, get area back.  :class:`CostModel` provides exactly that interface on
top of the analytic components in this package.  A batch of designs is
priced cell by distinct cell, one vectorised pass per dataflow, and reads
its tables with gathers; nothing priced outlives the batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.accel.accelerator import HeterogeneousAccelerator
from repro.accel.dataflow import Dataflow
from repro.accel.subaccelerator import SubAccelerator
from repro.arch.layers import ConvLayer
from repro.arch.network import NetworkArch
from repro.cost.area import accelerator_area_um2
from repro.cost.energy import (dram_bytes, layer_energy_nj,
                               layer_energy_nj_batch)
from repro.cost.latency import (memory_cycles, memory_cycles_batch,
                                roofline_latency)
from repro.cost.params import DEFAULT_PARAMS, CostModelParams
from repro.cost.reuse import LayerGeometryBatch, analyze, analyze_batch

__all__ = ["CostModel", "LayerCost", "layer_identity"]


def layer_identity(layer: ConvLayer) -> tuple:
    """Content key of a layer for cost purposes: its geometry, not its name.

    Two layers with identical geometry price identically on any
    sub-accelerator, so keying cells by geometry lets repeated blocks
    within one network — and unchanged layers across the designs of one
    batch — share a single evaluation.
    """
    return (layer.in_channels, layer.out_channels, layer.kernel,
            layer.stride, layer.in_height, layer.in_width, layer.transposed)


@dataclass(frozen=True)
class LayerCost:
    """Full cost report for one layer on one sub-accelerator.

    Attributes:
        latency_cycles: Roofline latency including launch overhead.
        energy_nj: Total energy (MAC + NoC + DRAM).
        compute_cycles: Pure compute component.
        memory_cycles: Pure NoC-streaming component.
        utilization: Steady-state PE utilisation.
        noc_bytes: Bytes crossing the sub-accelerator NoC.
        dram_bytes: Bytes crossing the DRAM interface.
        working_set_bytes: Global-buffer bytes needed for full reuse.
    """

    latency_cycles: int
    energy_nj: float
    compute_cycles: int
    memory_cycles: int
    utilization: float
    noc_bytes: int
    dram_bytes: int
    working_set_bytes: int

    @property
    def bound(self) -> str:
        """Which roofline side limits this layer: compute or memory."""
        return ("memory" if self.memory_cycles > self.compute_cycles
                else "compute")


class CostModel:
    """Analytic cost oracle, stateless per cell.

    Nothing priced is kept between calls: :meth:`tables` collects the
    distinct ``(geometry, configuration)`` cells of one batch of designs
    — a geometry is a :func:`layer_identity`, a configuration is
    ``(dataflow, pes, bandwidth)`` — prices them in one vectorised pass
    per dataflow and gathers every design's tables from the priced
    arrays.  :meth:`layer_cost` is the unmemoised scalar reference.
    ``shared_cells`` counts table cells answered by another cell of the
    same batch, ``priced_cells`` cells priced.

    Args:
        params: Model constants; defaults to the calibrated set in
            :data:`repro.cost.params.DEFAULT_PARAMS`.
    """

    def __init__(self, params: CostModelParams | None = None) -> None:
        self.params = params or DEFAULT_PARAMS
        self.shared_cells = 0
        self.priced_cells = 0

    @staticmethod
    def _config_key(subacc: SubAccelerator) -> tuple:
        if not subacc.is_active:
            raise ValueError(
                "cost requested for an inactive sub-accelerator")
        # dataflow.value (a str) hashes much faster than the Enum member.
        return (subacc.dataflow.value, subacc.num_pes, subacc.bandwidth_gbps)

    # ------------------------------------------------------------------
    # Per-layer oracle
    # ------------------------------------------------------------------
    def layer_cost(self, layer: ConvLayer,
                   subacc: SubAccelerator) -> LayerCost:
        """Latency/energy of one layer on one sub-accelerator, priced by
        the scalar analyzers — the reference the batch pass is held
        to."""
        self._config_key(subacc)  # rejects an inactive sub-accelerator
        self.priced_cells += 1
        analysis = analyze(layer, subacc.dataflow, subacc.num_pes,
                           self.params)
        return LayerCost(
            latency_cycles=roofline_latency(analysis, subacc.bandwidth_gbps,
                                            self.params),
            energy_nj=layer_energy_nj(layer, analysis, self.params),
            compute_cycles=analysis.compute_cycles,
            memory_cycles=memory_cycles(analysis, subacc.bandwidth_gbps,
                                        self.params),
            utilization=analysis.utilization,
            noc_bytes=analysis.total_fetches * self.params.elem_bytes,
            dram_bytes=dram_bytes(layer, self.params),
            working_set_bytes=(analysis.working_set_elems
                               * self.params.elem_bytes),
        )

    # ------------------------------------------------------------------
    # Batch oracle
    # ------------------------------------------------------------------
    def tables(
        self,
        designs: Sequence[tuple[Sequence[ConvLayer],
                                Sequence[SubAccelerator]]],
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """``(durations, energies, working_sets)`` tables, each
        ``[layers, subaccs]``, of every ``(layers, subaccs)`` design.

        The batch's distinct cells are priced once each (repeated blocks
        and configurations shared between designs cost one evaluation),
        in one vectorised pass per dataflow; every table is then a
        gather from the priced arrays.  Each value is bit-identical to
        :meth:`layer_cost`, whatever else the batch holds.
        """
        geometry_ids: dict[tuple, int] = {}
        config_ids: dict[tuple, int] = {}
        plans = [
            (np.array([geometry_ids.setdefault(identity, len(geometry_ids))
                       for identity in map(layer_identity, layers)],
                      dtype=np.intp),
             np.array([config_ids.setdefault(key, len(config_ids))
                       for key in map(self._config_key, subaccs)],
                      dtype=np.intp))
            for layers, subaccs in designs]
        # needed[geometry, config]: the cells some design reads.
        needed = np.zeros((len(geometry_ids), len(config_ids)), dtype=bool)
        cells = 0
        for gids, cids in plans:
            needed[gids[:, None], cids] = True
            cells += len(gids) * len(cids)
        gids, cids = np.nonzero(needed)
        configs = list(config_ids)
        latency, energy, working_set = self._price(
            np.array(list(geometry_ids), dtype=np.int64).reshape(-1, 7)[gids],
            np.array([key[1:] for key in configs],
                     dtype=np.int64).reshape(-1, 2)[cids],
            np.array([key[0] for key in configs], dtype=str)[cids])
        # position[geometry, config]: where a cell sits in the arrays.
        position = np.zeros(needed.shape, dtype=np.intp)
        position[gids, cids] = np.arange(len(cids))
        self.priced_cells += len(cids)
        self.shared_cells += cells - len(cids)
        out = []
        for gids, cids in plans:
            at = position[gids[:, None], cids]
            out.append((latency[at], energy[at], working_set[at]))
        return out

    def _price(self, identities: np.ndarray, configs: np.ndarray,
               flows: np.ndarray) -> tuple[np.ndarray, ...]:
        """Latency, energy and working set of the cells ``identities``
        (geometry rows) on ``configs`` (``(pes, bandwidth)`` rows) and
        ``flows`` (dataflow values), one :func:`analyze_batch` call per
        dataflow."""
        params = self.params
        latency = np.empty(len(flows), dtype=np.int64)
        energy = np.empty(len(flows))
        working_set = np.empty(len(flows), dtype=np.int64)
        for flow in np.unique(flows).tolist():
            cells = np.flatnonzero(flows == flow)
            geometry = LayerGeometryBatch.from_identities(identities[cells])
            analysis = analyze_batch(geometry, Dataflow(flow),
                                     configs[cells, 0], params)
            mem = memory_cycles_batch(analysis, configs[cells, 1], params)
            latency[cells] = (np.maximum(analysis.compute_cycles, mem)
                              + params.layer_launch_cycles)
            energy[cells] = layer_energy_nj_batch(geometry, analysis, params)
            working_set[cells] = (analysis.working_set_elems
                                  * params.elem_bytes)
        return latency, energy, working_set

    def network_cost_on(self, network: NetworkArch,
                        subacc: SubAccelerator) -> tuple[int, float]:
        """(total latency cycles, total energy nJ) of a whole network
        executed sequentially on one sub-accelerator."""
        latency = 0
        energy = 0.0
        for layer in network.layers:
            cost = self.layer_cost(layer, subacc)
            latency += cost.latency_cycles
            energy += cost.energy_nj
        return latency, energy

    # ------------------------------------------------------------------
    # Area oracle
    # ------------------------------------------------------------------
    def area_um2(
        self,
        accelerator: HeterogeneousAccelerator,
        *,
        mapped_layers: dict[int, list[ConvLayer]] | None = None,
    ) -> float:
        """Total area, with buffers sized to the mapped working sets.

        Args:
            accelerator: The design to size.
            mapped_layers: Optional map from slot index to the layers the
                scheduler placed there; each slot's global buffer is sized
                to its largest working set.  Without a mapping, the default
                buffer size is charged per active slot.
        """
        glb: dict[int, int] = {}
        if mapped_layers:
            for slot, layers in mapped_layers.items():
                subacc = accelerator.subaccs[slot]
                if not layers:
                    continue
                glb[slot] = max(
                    self.layer_cost(layer, subacc).working_set_bytes
                    for layer in layers)
        return accelerator_area_um2(accelerator, self.params,
                                    glb_bytes_per_slot=glb)
