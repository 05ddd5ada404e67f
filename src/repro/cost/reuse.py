"""Per-dataflow tiling, utilisation and data-movement analysis.

This is the core of the MAESTRO substitute: for each dataflow template it
derives, from a layer's geometry and a PE count,

- **compute cycles** from the template's spatial unrolling (with ceiling
  effects — the source of each dataflow's layer affinity),
- **NoC traffic** per tensor (weight/input/output fetch counts including
  refetch multipliers from tiling passes), and
- the **working set** the global buffer must hold for full reuse (which
  sizes the buffer, §III-➋: "the memory size can be determined to support
  the full use of hardware").

Affinity structure reproduced from §II (Challenge 2):

- ``dla`` unrolls input x output channels, so channel-light high-res
  layers (U-Net encoders, stems) underutilise it, while channel-heavy
  low-res layers (deep ResNet blocks) saturate it.
- ``shi`` unrolls output pixels, the exact opposite.
- ``rs`` unrolls (filter row x output row) pairs with folding over output
  channels — balanced on both extremes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.accel.dataflow import Dataflow
from repro.arch.layers import ConvLayer
from repro.cost.params import CostModelParams

__all__ = ["LayerGeometryBatch", "TilingAnalysis", "TilingAnalysisBatch",
           "analyze", "analyze_batch"]


@dataclass(frozen=True)
class TilingAnalysis:
    """Result of mapping one layer onto one dataflow template.

    Attributes:
        compute_cycles: Cycles the PE array needs, ignoring memory stalls.
        weight_fetches: Weight elements crossing the NoC (with refetch).
        input_fetches: Input activation elements crossing the NoC.
        output_fetches: Output activation elements crossing the NoC
            (including partial-sum spill passes).
        utilization: Fraction of PEs doing useful work in steady state.
        working_set_elems: Elements the global buffer holds for full reuse.
    """

    compute_cycles: int
    weight_fetches: int
    input_fetches: int
    output_fetches: int
    utilization: float
    working_set_elems: int

    @property
    def total_fetches(self) -> int:
        """All elements crossing the NoC for this layer."""
        return self.weight_fetches + self.input_fetches + self.output_fetches


def _cap(count: int, cap: int) -> int:
    """Clamp a refetch multiplier at the mapper's re-tiling bound."""
    return min(count, cap)


def _analyze_nvdla(layer: ConvLayer, pes: int,
                   cap: int) -> TilingAnalysis:
    """NVDLA-style: spatial unrolling over input x output channels.

    The PE array is split into ``Ct`` input-channel lanes feeding an adder
    tree and ``Kt`` output-channel groups; each step produces partial sums
    for one output pixel per group.
    """
    c, k = layer.in_channels, layer.out_channels
    ct = min(c, pes)
    kt = min(k, max(1, pes // ct))
    passes_c = math.ceil(c / ct)
    passes_k = math.ceil(k / kt)
    taps = layer.kernel * layer.kernel
    compute = passes_c * passes_k * taps * layer.out_pixels
    utilization = min(1.0, (ct * kt) / pes)
    weight_fetches = layer.weight_elems
    input_fetches = layer.ifmap_elems * _cap(passes_k, cap)
    output_fetches = layer.ofmap_elems * _cap(passes_c, cap)
    working_set = (layer.ifmap_elems + layer.ofmap_elems
                   + ct * kt * taps)
    return TilingAnalysis(compute, weight_fetches, input_fetches,
                          output_fetches, utilization, working_set)


def _analyze_shidiannao(layer: ConvLayer, pes: int,
                        cap: int) -> TilingAnalysis:
    """ShiDianNao-style: spatial unrolling over output pixels.

    Each PE owns one output pixel (output-stationary); inputs are shifted
    between neighbours, weights are broadcast, and output channels are
    processed sequentially.
    """
    pixels = layer.out_pixels
    pt = min(pixels, pes)
    tiles = math.ceil(pixels / pt)
    k, c = layer.out_channels, layer.in_channels
    taps = layer.kernel * layer.kernel
    compute = tiles * k * c * taps
    utilization = min(1.0, pixels / (tiles * pes))
    weight_fetches = layer.weight_elems * _cap(tiles, cap)
    input_fetches = layer.ifmap_elems
    output_fetches = layer.ofmap_elems
    working_set = (layer.ifmap_elems + layer.ofmap_elems
                   + layer.weight_elems)
    return TilingAnalysis(compute, weight_fetches, input_fetches,
                          output_fetches, utilization, working_set)


def _analyze_row_stationary(layer: ConvLayer, pes: int,
                            cap: int) -> TilingAnalysis:
    """Eyeriss-style row-stationary: unrolls (filter row x output row).

    A PE computes the 1-D convolution of one filter row against one input
    row; ``R`` rows stack vertically to form one 2-D output row, replicated
    over output rows and output channels until PEs are exhausted.
    """
    r = layer.kernel
    yo = layer.out_height
    k, c = layer.out_channels, layer.in_channels
    r_t = min(r, pes)  # tiny arrays cannot unroll all kernel rows
    yo_t = min(yo, max(1, pes // r_t))
    kt = min(k, max(1, pes // (r_t * yo_t)))
    passes_r = math.ceil(r / r_t)
    passes_y = math.ceil(yo / yo_t)
    passes_k = math.ceil(k / kt)
    compute = (passes_r * passes_y * passes_k
               * c * layer.kernel * layer.out_width)
    utilization = min(1.0, (r_t * yo_t * kt) / pes)
    weight_fetches = layer.weight_elems * _cap(passes_y, cap)
    input_fetches = layer.ifmap_elems * _cap(passes_k, cap)
    output_fetches = layer.ofmap_elems
    working_set = (layer.ifmap_elems + layer.ofmap_elems
                   + layer.weight_elems)
    return TilingAnalysis(compute, weight_fetches, input_fetches,
                          output_fetches, utilization, working_set)


_ANALYZERS = {
    Dataflow.NVDLA: _analyze_nvdla,
    Dataflow.SHIDIANNAO: _analyze_shidiannao,
    Dataflow.ROW_STATIONARY: _analyze_row_stationary,
}


# ----------------------------------------------------------------------
# Batched (array-native) analysis
# ----------------------------------------------------------------------
# The batch path below vectorises the scalar analyzers over a set of
# (layer, PE count) cells of one dataflow.  Bit-identity with the scalar
# path is part of the contract (tests/test_cost_model.py): every quantity
# involved stays far below 2**52, where int64 -> float64 conversion is
# exact and float64 division is correctly rounded, so ``np.ceil(a / b)``
# equals ``math.ceil(a / b)`` element for element, and the float energy
# expressions are evaluated with the same operand order as the scalar
# code.


@dataclass(frozen=True)
class LayerGeometryBatch:
    """Struct-of-arrays geometry for a batch of layers (all ``int64``).

    The batch captures exactly the :class:`~repro.arch.layers.ConvLayer`
    quantities the analyzers read, so many cells can be priced with a
    handful of NumPy expressions instead of one Python call per layer.
    """

    in_channels: np.ndarray
    out_channels: np.ndarray
    kernel: np.ndarray
    out_height: np.ndarray
    out_width: np.ndarray
    out_pixels: np.ndarray
    macs: np.ndarray
    ifmap_elems: np.ndarray
    ofmap_elems: np.ndarray
    weight_elems: np.ndarray

    @classmethod
    def from_identities(cls, raw: np.ndarray) -> "LayerGeometryBatch":
        """Derive the geometry arrays from an ``(n, 7)`` ``int64`` array
        whose rows are :func:`repro.cost.model.layer_identity` tuples
        (in-channels, out-channels, kernel, stride, height, width,
        transposed)."""
        c = raw[:, 0]
        k = raw[:, 1]
        kernel = raw[:, 2]
        stride = raw[:, 3]
        h = raw[:, 4]
        w = raw[:, 5]
        transposed = raw[:, 6].astype(bool)
        # Same-padding convention, mirroring ConvLayer.out_height/out_width:
        # transposed upsamples by the stride, otherwise ceil-divide.
        out_h = np.where(transposed, h * stride,
                         np.ceil(h / stride).astype(np.int64))
        out_w = np.where(transposed, w * stride,
                         np.ceil(w / stride).astype(np.int64))
        out_pixels = out_h * out_w
        weight_elems = k * c * kernel * kernel
        return cls(
            in_channels=c,
            out_channels=k,
            kernel=kernel,
            out_height=out_h,
            out_width=out_w,
            out_pixels=out_pixels,
            macs=weight_elems * out_pixels,
            ifmap_elems=c * h * w,
            ofmap_elems=k * out_pixels,
            weight_elems=weight_elems,
        )


@dataclass(frozen=True)
class TilingAnalysisBatch:
    """Vectorised counterpart of :class:`TilingAnalysis` (parallel arrays)."""

    compute_cycles: np.ndarray
    weight_fetches: np.ndarray
    input_fetches: np.ndarray
    output_fetches: np.ndarray
    utilization: np.ndarray
    working_set_elems: np.ndarray

    @property
    def total_fetches(self) -> np.ndarray:
        """All elements crossing the NoC, per layer."""
        return self.weight_fetches + self.input_fetches + self.output_fetches


def _ceil_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vector twin of ``math.ceil(a / b)`` for the magnitudes used here."""
    return np.ceil(a / b).astype(np.int64)


def _cap_arr(count: np.ndarray, cap: int) -> np.ndarray:
    """Vector twin of :func:`_cap`."""
    return np.minimum(count, cap)


def _batch_nvdla(g: LayerGeometryBatch, pes: np.ndarray,
                 cap: int) -> TilingAnalysisBatch:
    c, k = g.in_channels, g.out_channels
    ct = np.minimum(c, pes)
    kt = np.minimum(k, np.maximum(1, pes // ct))
    passes_c = _ceil_div(c, ct)
    passes_k = _ceil_div(k, kt)
    taps = g.kernel * g.kernel
    compute = passes_c * passes_k * taps * g.out_pixels
    utilization = np.minimum(1.0, (ct * kt) / pes)
    return TilingAnalysisBatch(
        compute_cycles=compute,
        weight_fetches=g.weight_elems,
        input_fetches=g.ifmap_elems * _cap_arr(passes_k, cap),
        output_fetches=g.ofmap_elems * _cap_arr(passes_c, cap),
        utilization=utilization,
        working_set_elems=g.ifmap_elems + g.ofmap_elems + ct * kt * taps,
    )


def _batch_shidiannao(g: LayerGeometryBatch, pes: np.ndarray,
                      cap: int) -> TilingAnalysisBatch:
    pixels = g.out_pixels
    pt = np.minimum(pixels, pes)
    tiles = _ceil_div(pixels, pt)
    taps = g.kernel * g.kernel
    compute = tiles * g.out_channels * g.in_channels * taps
    utilization = np.minimum(1.0, pixels / (tiles * pes))
    return TilingAnalysisBatch(
        compute_cycles=compute,
        weight_fetches=g.weight_elems * _cap_arr(tiles, cap),
        input_fetches=g.ifmap_elems,
        output_fetches=g.ofmap_elems,
        utilization=utilization,
        working_set_elems=g.ifmap_elems + g.ofmap_elems + g.weight_elems,
    )


def _batch_row_stationary(g: LayerGeometryBatch, pes: np.ndarray,
                          cap: int) -> TilingAnalysisBatch:
    r = g.kernel
    yo = g.out_height
    k, c = g.out_channels, g.in_channels
    r_t = np.minimum(r, pes)
    yo_t = np.minimum(yo, np.maximum(1, pes // r_t))
    kt = np.minimum(k, np.maximum(1, pes // (r_t * yo_t)))
    passes_r = _ceil_div(r, r_t)
    passes_y = _ceil_div(yo, yo_t)
    passes_k = _ceil_div(k, kt)
    compute = (passes_r * passes_y * passes_k
               * c * g.kernel * g.out_width)
    utilization = np.minimum(1.0, (r_t * yo_t * kt) / pes)
    return TilingAnalysisBatch(
        compute_cycles=compute,
        weight_fetches=g.weight_elems * _cap_arr(passes_y, cap),
        input_fetches=g.ifmap_elems * _cap_arr(passes_k, cap),
        output_fetches=g.ofmap_elems,
        utilization=utilization,
        working_set_elems=g.ifmap_elems + g.ofmap_elems + g.weight_elems,
    )


_BATCH_ANALYZERS = {
    Dataflow.NVDLA: _batch_nvdla,
    Dataflow.SHIDIANNAO: _batch_shidiannao,
    Dataflow.ROW_STATIONARY: _batch_row_stationary,
}


def analyze_batch(geometry: LayerGeometryBatch, dataflow: Dataflow,
                  pes: int | np.ndarray,
                  params: CostModelParams) -> TilingAnalysisBatch:
    """Map a whole batch of layers onto ``pes`` PEs of ``dataflow`` style.

    ``pes`` is one PE count or an ``int64`` array with one count per
    layer, so cells of several configurations share one pass.
    Bit-identical to calling :func:`analyze` per cell (property held by
    ``tests/test_cost_model.py``): every operation is elementwise.

    Raises:
        ValueError: If any PE count is not positive.
    """
    if np.any(np.less_equal(pes, 0)):
        raise ValueError(f"cannot map layers onto {pes} PEs")
    return _BATCH_ANALYZERS[dataflow](geometry, pes, params.refetch_cap)


def analyze(layer: ConvLayer, dataflow: Dataflow, pes: int,
            params: CostModelParams) -> TilingAnalysis:
    """Map ``layer`` onto ``pes`` PEs of ``dataflow`` style.

    Raises:
        ValueError: If ``pes`` is not positive (inactive sub-accelerators
            cannot execute layers).
    """
    if pes <= 0:
        raise ValueError(
            f"cannot map layer {layer.name!r} onto {pes} PEs")
    return _ANALYZERS[dataflow](layer, pes, params.refetch_cap)
