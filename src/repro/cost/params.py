"""Calibrated constants for the analytic cost model.

The paper evaluates hardware with MAESTRO [23]; we reimplement its role as
an analytic ``(layer, sub-accelerator) -> (latency, energy, area)`` oracle.
The constants below are *calibrated units*: they are chosen so that the
hardware configurations published in Table I land in the paper's numeric
ranges (latency ~1e5-1e6 cycles, energy ~1e9 nJ, area ~1e9 um^2) and so
that every ordering the search exploits is preserved (more PEs => lower
latency & higher area; more bandwidth => lower memory-bound latency;
DRAM traffic dominates energy per byte).  They are not a silicon sign-off
model; :mod:`repro.cost.model` describes the oracle role.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CostModelParams", "DEFAULT_PARAMS"]


@dataclass(frozen=True)
class CostModelParams:
    """Every tunable constant of the analytic cost model.

    Attributes:
        elem_bytes: Datapath word width in bytes (int8 inference).
        mac_energy_nj: Energy per multiply-accumulate, nJ.
        noc_energy_nj_per_byte: Energy per byte moved over the
            sub-accelerator NoC (global buffer <-> PE array), nJ/B.
        dram_energy_nj_per_byte: Energy per byte moved between DRAM and the
            global buffer, nJ/B.  Dominates per-byte costs, as in every
            published accelerator energy breakdown.
        sram_area_um2_per_byte: Global-buffer SRAM area, um^2/B.
        noc_area_um2_per_gbps: NoC/NIC wiring+router area per GB/s of
            allocated bandwidth, um^2 per GB/s.
        nic_base_area_um2: Fixed per-sub-accelerator NIC overhead, um^2.
        refetch_cap: Upper bound on per-tensor NoC refetch multipliers;
            models the mapper's freedom to re-tile before refetch explodes.
        layer_launch_cycles: Fixed pipeline fill/drain overhead charged per
            layer invocation, cycles.
        default_glb_bytes: Buffer size assumed when a sub-accelerator has
            no layers mapped to it (area still accrues for the idle SRAM).
    """

    elem_bytes: int = 1
    mac_energy_nj: float = 1.8
    noc_energy_nj_per_byte: float = 0.06
    dram_energy_nj_per_byte: float = 180.0
    sram_area_um2_per_byte: float = 400.0
    noc_area_um2_per_gbps: float = 6.0e6
    nic_base_area_um2: float = 2.0e7
    refetch_cap: int = 16
    layer_launch_cycles: int = 64
    default_glb_bytes: int = 256 * 1024

    def __post_init__(self) -> None:
        positives = (
            "elem_bytes", "mac_energy_nj", "noc_energy_nj_per_byte",
            "dram_energy_nj_per_byte", "sram_area_um2_per_byte",
            "noc_area_um2_per_gbps", "nic_base_area_um2", "refetch_cap",
            "default_glb_bytes",
        )
        for name in positives:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.layer_launch_cycles < 0:
            raise ValueError("layer_launch_cycles must be non-negative")


#: Calibration used throughout the reproduction (see the module docstring).
DEFAULT_PARAMS = CostModelParams()
