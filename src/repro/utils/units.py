"""Unit conventions used throughout the cost model and experiments.

The accelerator clock is fixed at 1 GHz, matching the convention MAESTRO
uses when it reports latency in cycles and NoC bandwidth in GB/s: at 1 GHz,
``1 GB/s == 1 byte/cycle``.  Energies are reported in nJ and areas in um^2,
the units of the paper's Table I.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CYCLES_PER_SECOND", "gbps_to_bytes_per_cycle", "um2_to_mm2"]

#: Accelerator clock frequency (Hz); 1 GHz per the MAESTRO convention.
CYCLES_PER_SECOND: float = 1e9


def gbps_to_bytes_per_cycle(gbps: float | np.ndarray) -> float | np.ndarray:
    """Convert NoC bandwidth in GB/s (one value or an array) to bytes per
    clock cycle at 1 GHz."""
    if np.any(np.less(gbps, 0)):
        raise ValueError(f"bandwidth must be non-negative, got {gbps}")
    return gbps * 1e9 / CYCLES_PER_SECOND


def um2_to_mm2(um2: float) -> float:
    """Convert an area from um^2 (Table I unit) to mm^2 (Fig. 1 unit)."""
    return um2 / 1e6
