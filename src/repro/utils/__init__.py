"""Shared low-level helpers: seeded RNGs, stable hashing, units, tables.

These utilities sit below every other ``repro`` subpackage and must not
import from any of them.  The campaign pool's start-method policy,
``pool_context``, is imported from :mod:`repro.utils.pool`: importing
this package must not load :mod:`multiprocessing`, which every
``repro`` process would otherwise pay for.
"""

from repro.utils.hashing import stable_hash, stable_unit_float
from repro.utils.rng import new_rng, spawn_rng
from repro.utils.tables import format_table
from repro.utils.units import (
    CYCLES_PER_SECOND,
    gbps_to_bytes_per_cycle,
    um2_to_mm2,
)

__all__ = [
    "CYCLES_PER_SECOND",
    "format_table",
    "gbps_to_bytes_per_cycle",
    "new_rng",
    "spawn_rng",
    "stable_hash",
    "stable_unit_float",
    "um2_to_mm2",
]
