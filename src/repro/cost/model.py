"""Cost model facade: the MAESTRO role in NASAIC.

NASAIC uses MAESTRO as a black-box oracle (§IV-③): feed it a network layer
and a sub-accelerator, get latency and energy back; feed it the accelerator
set, get area back.  :class:`CostModel` provides exactly that interface on
top of the analytic components in this package, with memoisation held as
array columns — the search evaluates the same (layer, sub-accelerator)
pairs across thousands of episodes, and a batch of designs reads its
tables with gathers.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.accel.accelerator import HeterogeneousAccelerator
from repro.accel.dataflow import Dataflow
from repro.accel.subaccelerator import SubAccelerator
from repro.arch.layers import ConvLayer
from repro.arch.network import NetworkArch
from repro.cost.area import accelerator_area_um2
from repro.cost.energy import (dram_bytes, dram_bytes_batch,
                               layer_energy_nj, layer_energy_nj_batch)
from repro.cost.latency import (memory_cycles, memory_cycles_batch,
                                roofline_latency)
from repro.cost.params import DEFAULT_PARAMS, CostModelParams
from repro.cost.reuse import LayerGeometryBatch, analyze, analyze_batch

__all__ = ["CostModel", "LayerCost", "layer_identity"]


def layer_identity(layer: ConvLayer) -> tuple:
    """Content key of a layer for cost purposes: its geometry, not its name.

    Two layers with identical geometry price identically on any
    sub-accelerator, so memoising by geometry lets repeated blocks within
    one network — and unchanged layers across consecutively sampled
    designs — share a single evaluation.
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


#: Fields of a priced cell held in a column's integer and float blocks,
#: in row order.
_INT_FIELDS = ("latency_cycles", "compute_cycles", "memory_cycles",
               "noc_bytes", "dram_bytes", "working_set_bytes")
_FLOAT_FIELDS = ("energy_nj", "utilization")
_LATENCY = _INT_FIELDS.index("latency_cycles")
_WORKING_SET = _INT_FIELDS.index("working_set_bytes")
_ENERGY = _FLOAT_FIELDS.index("energy_nj")
_int_fields = attrgetter(*_INT_FIELDS)
_float_fields = attrgetter(*_FLOAT_FIELDS)
#: A cell's state: not priced, priced here, priced and persisted (loaded
#: from a store or already written by :meth:`CostModel.drain_fresh`).
_UNPRICED, _FRESH, _PERSISTED = 0, 1, 2


class _Column:
    """Priced cells of one sub-accelerator configuration, indexed by
    geometry id: an ``int64`` block, a ``float64`` block and a state
    byte per cell."""

    __slots__ = ("ints", "floats", "state")

    def __init__(self, size: int) -> None:
        self.ints = np.zeros((len(_INT_FIELDS), size), dtype=np.int64)
        self.floats = np.zeros((len(_FLOAT_FIELDS), size))
        self.state = np.zeros(size, dtype=np.uint8)

    def reserve(self, size: int) -> "_Column":
        """Grow (at least doubling) so geometry ids below ``size`` fit."""
        old = self.state.shape[0]
        if size > old:
            grown = _Column(max(size, 2 * old))
            grown.ints[:, :old], grown.floats[:, :old], grown.state[:old] = (
                self.ints, self.floats, self.state)
            self.ints, self.floats, self.state = (grown.ints, grown.floats,
                                                  grown.state)
        return self

    def cost(self, gid: int) -> LayerCost:
        return LayerCost(
            **dict(zip(_INT_FIELDS, self.ints[:, gid].tolist())),
            **dict(zip(_FLOAT_FIELDS, self.floats[:, gid].tolist())))


class CostModel:
    """Memoising analytic cost oracle.

    The memo is **content-keyed and cross-design**, held as *cost
    columns*: every distinct :func:`layer_identity` (geometry, not name)
    gets an integer id, and every sub-accelerator configuration
    ``(dataflow, pes, bandwidth)`` keeps arrays of the
    :class:`LayerCost` fields over those ids plus a priced mask.  A
    design's HAP tables are then array gathers (:meth:`tables`), and a
    batch's unpriced cells are priced in one vectorised pass per
    dataflow.  ``memo_hits`` counts cells answered from the memo,
    ``memo_misses`` cells priced.

    Args:
        params: Model constants; defaults to the calibrated set in
            :data:`repro.cost.params.DEFAULT_PARAMS`.
    """

    def __init__(self, params: CostModelParams | None = None) -> None:
        self.params = params or DEFAULT_PARAMS
        self.clear_cache()
        self.memo_hits = 0
        self.memo_misses = 0

    # ------------------------------------------------------------------
    # Geometry ids and columns
    # ------------------------------------------------------------------
    def _geometry_ids(self, identities: Iterable[tuple]) -> np.ndarray:
        """Integer ids of :func:`layer_identity` tuples, registering new
        ones.

        The identity rows are written as ids are assigned, so the
        geometry table always covers every id handed out.
        """
        ids = self._ids
        out = []
        for identity in identities:
            gid = ids.get(identity)
            if gid is None:
                gid = ids[identity] = len(ids)
                if gid == self._identities.shape[0]:
                    grown = np.zeros((2 * gid + 16, 7), dtype=np.int64)
                    grown[:gid] = self._identities
                    self._identities = grown
                self._identities[gid] = identity
            out.append(gid)
        return np.array(out, dtype=np.intp)

    def _column(self, key: tuple) -> _Column:
        """The column of one configuration, grown to cover every id."""
        column = self._columns.get(key)
        if column is None:
            column = self._columns[key] = _Column(len(self._ids))
        return column.reserve(len(self._ids))

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
        """Latency/energy of one layer on one sub-accelerator (cached).

        Priced by the scalar analyzers — the reference the batch pass is
        held to — and stored in the same columns the batch reads.
        """
        key = self._config_key(subacc)
        (gid,) = self._geometry_ids([layer_identity(layer)]).tolist()
        column = self._column(key)
        if column.state[gid] != _UNPRICED:
            self.memo_hits += 1
            return column.cost(gid)
        self.memo_misses += 1
        analysis = analyze(layer, subacc.dataflow, subacc.num_pes,
                           self.params)
        cost = LayerCost(
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
        self._fill({(layer_identity(layer),) + key: cost}, _FRESH)
        return cost

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

        The cells the batch needs that are not yet priced are priced in
        one vectorised pass per dataflow (deduplicated across the whole
        batch, so repeated blocks and shared configurations cost one
        evaluation); every table is then a gather from the columns.
        Each value is bit-identical to :meth:`layer_cost`.
        """
        plans = [(self._geometry_ids(map(layer_identity, layers)),
                  [self._config_key(sub) for sub in subaccs])
                 for layers, subaccs in designs]
        pending: dict[tuple, dict[int, None]] = {}
        cells = 0
        for gids, keys in plans:
            cells += len(gids) * len(keys)
            for key in keys:
                state = self._column(key).state
                missing = gids[state[gids] == _UNPRICED]
                if len(missing):
                    pending.setdefault(key, {}).update(
                        dict.fromkeys(missing.tolist()))
        self._price(pending)
        priced = sum(map(len, pending.values()))
        self._priced += priced
        self.memo_misses += priced
        self.memo_hits += cells - priced
        out = []
        for gids, keys in plans:
            columns = [self._columns[key] for key in keys]
            out.append(tuple(
                np.stack([row.take(gids) for row in rows], axis=1)
                for rows in ([c.ints[_LATENCY] for c in columns],
                             [c.floats[_ENERGY] for c in columns],
                             [c.ints[_WORKING_SET] for c in columns])))
        return out

    def _price(self, pending: dict[tuple, dict[int, None]]) -> None:
        """Price ``{config key: geometry ids}`` into the columns with one
        :func:`analyze_batch` call per dataflow, PE count and bandwidth
        passed per cell."""
        by_flow: dict[str, list[tuple[tuple, list[int]]]] = {}
        for key, gids in pending.items():
            by_flow.setdefault(key[0], []).append((key, list(gids)))
        params = self.params
        for flow, entries in by_flow.items():
            sizes = [len(gids) for _key, gids in entries]
            ids = np.array([g for _key, gids in entries for g in gids],
                           dtype=np.intp)
            configs = np.repeat(np.array([key[1:] for key, _ in entries],
                                         dtype=np.int64), sizes, axis=0)
            geometry = LayerGeometryBatch.from_identities(
                self._identities[ids])
            analysis = analyze_batch(geometry, Dataflow(flow),
                                     configs[:, 0], params)
            mem = memory_cycles_batch(analysis, configs[:, 1], params)
            ints = np.stack([
                np.maximum(analysis.compute_cycles, mem)
                + params.layer_launch_cycles,
                analysis.compute_cycles, mem,
                analysis.total_fetches * params.elem_bytes,
                dram_bytes_batch(geometry, params),
                analysis.working_set_elems * params.elem_bytes])
            floats = np.stack([
                layer_energy_nj_batch(geometry, analysis, params),
                analysis.utilization])
            start = 0
            for (key, _gids), size in zip(entries, sizes):
                cells = slice(start, start + size)
                column = self._columns[key]
                column.ints[:, ids[cells]] = ints[:, cells]
                column.floats[:, ids[cells]] = floats[:, cells]
                column.state[ids[cells]] = _FRESH
                start += size

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

    # ------------------------------------------------------------------
    # Maintenance and persistence
    # ------------------------------------------------------------------
    @property
    def cache_size(self) -> int:
        """Number of memoised (layer, sub-accelerator) evaluations."""
        return self._priced

    def clear_cache(self) -> None:
        """Drop all memoised evaluations."""
        self._ids: dict[tuple, int] = {}
        self._identities = np.zeros((0, 7), dtype=np.int64)
        self._columns: dict[tuple, _Column] = {}
        self._priced = 0

    def memo_state(self) -> dict:
        """Value snapshot of the memo (for checkpoints): copies of the
        geometry table and of every column's arrays, plus the hit/miss
        counters, so a resumed run's memo and its accounting match the
        uninterrupted run."""
        return {
            "identities": list(self._ids),
            "columns": {key: (c.ints.copy(), c.floats.copy(),
                              c.state.copy())
                        for key, c in self._columns.items()},
            "hits": self.memo_hits,
            "misses": self.memo_misses,
        }

    def load_memo_state(self, state: dict) -> None:
        """Restore a :meth:`memo_state` snapshot.  A version-2
        checkpoint's ``{"cache": {key: LayerCost}}`` form is accepted
        too; its cells load as priced but not yet persisted."""
        self.clear_cache()
        if "cache" in state:
            self._fill(state["cache"], _FRESH)
        else:
            self._geometry_ids(state["identities"])
            for key, (ints, floats, cell_state) in state["columns"].items():
                column = self._columns[key] = _Column(0)
                column.ints, column.floats = ints.copy(), floats.copy()
                column.state = cell_state.copy()
                self._priced += int(np.count_nonzero(cell_state))
        self.memo_hits = state["hits"]
        self.memo_misses = state["misses"]

    def preload_memo(self, entries: dict) -> None:
        """Seed the memo with persisted ``{(layer_identity,
        dataflow.value, pes, bandwidth): LayerCost}`` entries (no
        counter changes).

        Used when a persistent :class:`~repro.core.store.EvalStore` is
        attached: cells priced by earlier runs under bit-equal
        parameters become hits here, and :meth:`drain_fresh` never
        hands them back.  Cells priced here already are value-identical
        by construction; they are marked persisted too.
        """
        self._fill(entries, _PERSISTED)

    def _fill(self, entries: dict, state: int) -> None:
        """Write ``{(identity, dataflow, pes, bandwidth): LayerCost}``
        cells into the columns with the given state."""
        by_key: dict[tuple, list] = {}
        for (identity, *config), cost in entries.items():
            by_key.setdefault(tuple(config), []).append((identity, cost))
        for key, items in by_key.items():
            rows = self._geometry_ids([identity for identity, _ in items])
            column = self._column(key)
            self._priced += int(np.count_nonzero(
                column.state[rows] == _UNPRICED))
            column.ints[:, rows] = np.array(
                [_int_fields(cost) for _, cost in items], dtype=np.int64).T
            column.floats[:, rows] = np.array(
                [_float_fields(cost) for _, cost in items]).T
            column.state[rows] = state

    def drain_fresh(self, persist: Callable[[dict], int]) -> int:
        """Hand the cells priced since the last drain to ``persist`` as
        ``{(layer_identity, dataflow.value, pes, bandwidth): LayerCost}``
        store records, then mark them persisted; returns what
        ``persist`` returns.

        Only reads the columns until ``persist`` succeeds, so a failed
        write leaves the cells to the next drain, and a drain on another
        thread than the pricing one (the daemon's writer) never races a
        column's growth.
        """
        marks = []
        for key, column in list(self._columns.items()):
            state = column.state
            rows = np.flatnonzero(state == _FRESH)
            if len(rows):
                marks.append((key, column, state, rows))
        identities = list(self._ids)  # after the scan: covers every row
        written = persist({(identities[gid],) + key: column.cost(gid)
                           for key, column, _state, rows in marks
                           for gid in rows.tolist()})
        for _key, _column, state, rows in marks:
            state[rows] = _PERSISTED
        return written

