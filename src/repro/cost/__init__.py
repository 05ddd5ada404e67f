"""MAESTRO-style analytic cost model (latency / energy / area)."""

from repro.cost.area import accelerator_area_um2, subaccelerator_area_um2
from repro.cost.energy import (dram_bytes, dram_bytes_batch, layer_energy_nj,
                               layer_energy_nj_batch)
from repro.cost.latency import (memory_cycles, memory_cycles_batch,
                                roofline_latency)
from repro.cost.model import CostModel, LayerCost, layer_identity
from repro.cost.params import DEFAULT_PARAMS, CostModelParams
from repro.cost.reuse import (LayerGeometryBatch, TilingAnalysis,
                              TilingAnalysisBatch, analyze, analyze_batch)

__all__ = [
    "CostModel",
    "CostModelParams",
    "DEFAULT_PARAMS",
    "LayerCost",
    "LayerGeometryBatch",
    "TilingAnalysis",
    "TilingAnalysisBatch",
    "accelerator_area_um2",
    "analyze",
    "analyze_batch",
    "dram_bytes",
    "dram_bytes_batch",
    "layer_energy_nj",
    "layer_energy_nj_batch",
    "layer_identity",
    "memory_cycles",
    "memory_cycles_batch",
    "roofline_latency",
    "subaccelerator_area_um2",
]
