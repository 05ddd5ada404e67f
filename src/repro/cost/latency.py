"""Layer latency: compute/memory roofline.

A layer's latency on a sub-accelerator is the maximum of its compute time
(from the dataflow tiling analysis) and the time to stream its NoC traffic
through the sub-accelerator's allocated bandwidth, plus a fixed per-layer
launch overhead.  At the 1 GHz convention, ``bw`` GB/s moves ``bw`` bytes
per cycle (see :mod:`repro.utils.units`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.cost.params import CostModelParams
from repro.cost.reuse import TilingAnalysis, TilingAnalysisBatch
from repro.utils.units import gbps_to_bytes_per_cycle

__all__ = ["memory_cycles", "memory_cycles_batch", "roofline_latency"]


def memory_cycles(analysis: TilingAnalysis, bandwidth_gbps: int,
                  params: CostModelParams) -> int:
    """Cycles needed to move the layer's NoC traffic at ``bandwidth_gbps``."""
    if bandwidth_gbps <= 0:
        raise ValueError(
            f"bandwidth must be positive, got {bandwidth_gbps} GB/s")
    bytes_per_cycle = gbps_to_bytes_per_cycle(bandwidth_gbps)
    noc_bytes = analysis.total_fetches * params.elem_bytes
    return math.ceil(noc_bytes / bytes_per_cycle)


def roofline_latency(analysis: TilingAnalysis, bandwidth_gbps: int,
                     params: CostModelParams) -> int:
    """Roofline latency: max(compute, memory) + launch overhead, cycles."""
    mem = memory_cycles(analysis, bandwidth_gbps, params)
    return max(analysis.compute_cycles, mem) + params.layer_launch_cycles


def memory_cycles_batch(analysis: TilingAnalysisBatch,
                        bandwidth_gbps: int | np.ndarray,
                        params: CostModelParams) -> np.ndarray:
    """Vector twin of :func:`memory_cycles`; ``bandwidth_gbps`` is one
    bandwidth or an ``int64`` array with one per layer.  Bit-identical
    per element: byte counts stay below 2**52, where ``np.ceil`` of a
    correctly rounded float64 division matches ``math.ceil``."""
    if np.any(np.less_equal(bandwidth_gbps, 0)):
        raise ValueError(
            f"bandwidth must be positive, got {bandwidth_gbps} GB/s")
    bytes_per_cycle = gbps_to_bytes_per_cycle(bandwidth_gbps)
    noc_bytes = analysis.total_fetches * params.elem_bytes
    return np.ceil(noc_bytes / bytes_per_cycle).astype(np.int64)
