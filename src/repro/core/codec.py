"""Explicit binary codec for content keys and hardware evaluations.

The pricing daemon and the evaluation store exchange two kinds of
value: the content key of a design
(:func:`repro.core.evalservice.design_content`) and the
:class:`~repro.core.evaluator.HardwareEvaluation` priced for it.  Both
are encoded here with fixed ``struct`` layouts instead of pickle, so
what travels and what is persisted is a key and an evaluation's
numbers, never a Python object the receiver has to trust.

Key layout (little-endian; ``str`` is ``<u8 byte length> <utf-8>``)::

    u8 KEY_VERSION, u8 task count
    per task:  str backbone, str dataset, u8 genotype length,
               u32 per genotype value
    u8 slot count
    per slot:  str dataflow value, u32 PEs, u32 bandwidth (GB/s)
    u32 budget PEs, u32 budget bandwidth

Evaluation layout::

    u8 EVALUATION_VERSION
    i64 latency_cycles, f64 energy_nj, f64 area_um2, f64 penalty
    u8 flags (bit 0: feasible, bit 1: hap.feasible)
    i64 hap.makespan, f64 hap.energy_nj, i64 hap.latency_constraint
    u32 assignment length, u32 refinement-energy count,
    u16 violation count
    u8 per assignment entry (active-slot position)
    f64 per refinement energy
    per violation: u16 byte length, utf-8

Floats are IEEE ``d``, so every value round-trips bit for bit,
``-0.0``, infinities and NaN payloads included.  The accelerator is not
part of an encoded evaluation: it is the key's content, and
:func:`decode_evaluation` takes it from the caller (who holds the
request pair, or rebuilds it with :func:`accelerator_from_key`).

Decoding is strict: a wrong version, a count that overruns the blob, a
truncated blob or trailing bytes raise :class:`ValueError`; a decoder
never returns a partial value.
"""

from __future__ import annotations

import functools
import struct

from repro.accel.accelerator import HeterogeneousAccelerator, ResourceBudget
from repro.accel.dataflow import Dataflow
from repro.accel.subaccelerator import SubAccelerator
from repro.core.evaluator import HardwareEvaluation
from repro.mapping.hap import HAPResult

__all__ = ["EVALUATION_VERSION", "KEY_VERSION", "accelerator_from_key",
           "decode_evaluation", "decode_key", "encode_evaluation",
           "encode_key"]

#: Bumped on any change to the key layout.
KEY_VERSION = 1
#: Bumped on any change to the evaluation layout.
EVALUATION_VERSION = 1

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_KEY_HEAD = struct.Struct("<BB")
_SLOT = struct.Struct("<II")
_BUDGET = struct.Struct("<II")
_EVAL_HEAD = struct.Struct("<BqdddBqdqIIH")

_FEASIBLE = 1
_HAP_FEASIBLE = 2


def _blob(blob) -> bytes:
    if isinstance(blob, bytes):
        return blob
    if isinstance(blob, (bytearray, memoryview)):
        return bytes(blob)
    raise ValueError(
        f"expected an encoded blob (bytes), got {type(blob).__name__}")


def _finish(blob: bytes, pos: int) -> None:
    """Every read past the end either raised or left ``pos`` beyond
    ``len(blob)``; anything but an exact fit is refused."""
    if pos > len(blob):
        raise ValueError(
            f"truncated blob: needs {pos} bytes, has {len(blob)}")
    if pos < len(blob):
        raise ValueError(
            f"{len(blob) - pos} trailing bytes after the encoded value")


def _text(value: str, prefix: struct.Struct = _U8) -> bytes:
    data = value.encode("utf-8")
    return prefix.pack(len(data)) + data


def encode_key(key: tuple) -> bytes:
    """Encode one :func:`~repro.core.evalservice.design_content` tuple.

    Raises:
        ValueError: If a field does not fit its width (a negative or
            over-u32 value, more than 255 tasks, slots or genotype
            entries, a name over 255 bytes) or the key is malformed.
    """
    try:
        identities, slots, budget = key
        parts = [_KEY_HEAD.pack(KEY_VERSION, len(identities))]
        for backbone, dataset, genotype in identities:
            parts.append(_text(backbone))
            parts.append(_text(dataset))
            parts.append(_U8.pack(len(genotype)))
            parts.append(struct.pack(f"<{len(genotype)}I", *genotype))
        parts.append(_U8.pack(len(slots)))
        for dataflow, pes, bandwidth in slots:
            parts.append(_text(dataflow))
            parts.append(_SLOT.pack(pes, bandwidth))
        parts.append(_BUDGET.pack(*budget))
    except (struct.error, TypeError, AttributeError) as exc:
        raise ValueError(f"content key does not fit the codec: {exc}") \
            from exc
    return b"".join(parts)


def decode_key(blob: bytes) -> tuple:
    """Inverse of :func:`encode_key` (strict; raises ``ValueError``)."""
    blob = _blob(blob)
    try:
        version, tasks = _KEY_HEAD.unpack_from(blob, 0)
        if version != KEY_VERSION:
            raise ValueError(
                f"content key version {version} is not supported (this "
                f"codec reads version {KEY_VERSION})")
        pos = _KEY_HEAD.size
        identities = []
        for _ in range(tasks):
            size = blob[pos]
            backbone = blob[pos + 1:pos + 1 + size].decode("utf-8")
            pos += 1 + size
            size = blob[pos]
            dataset = blob[pos + 1:pos + 1 + size].decode("utf-8")
            pos += 1 + size
            length = blob[pos]
            genotype = struct.unpack_from(f"<{length}I", blob, pos + 1)
            pos += 1 + 4 * length
            identities.append((backbone, dataset, genotype))
        slots = []
        # ``pos`` trails one byte behind each slot (the count byte,
        # then each slot's last byte), so every slot reads at pos + 1.
        for _ in range(blob[pos]):
            size = blob[pos + 1]
            dataflow = blob[pos + 2:pos + 2 + size].decode("utf-8")
            pos += 2 + size
            slots.append((dataflow, *_SLOT.unpack_from(blob, pos)))
            pos += _SLOT.size - 1
        budget = _BUDGET.unpack_from(blob, pos + 1)
        pos += 1 + _BUDGET.size
    except (struct.error, IndexError) as exc:
        raise ValueError(f"truncated content key: {exc}") from exc
    _finish(blob, pos)
    return tuple(identities), tuple(slots), budget


def accelerator_from_key(key: tuple) -> HeterogeneousAccelerator:
    """The accelerator a content key describes (its slots and budget).

    ``design_content(networks, accelerator)`` keeps every slot's
    ``(dataflow, PEs, bandwidth)`` and the budget, so the rebuilt
    accelerator equals the original by dataclass equality.

    Raises:
        ValueError: If the slots name an unknown dataflow or violate
            the budget.
    """
    _identities, slots, budget = key
    return _accelerator(slots, budget)


@functools.lru_cache(maxsize=4096)
def _accelerator(slots: tuple, budget: tuple) -> HeterogeneousAccelerator:
    # Accelerators are immutable, so store reads of designs sharing a
    # hardware point can share one rebuilt object.
    max_pes, max_bandwidth = budget
    return HeterogeneousAccelerator(
        tuple(SubAccelerator(Dataflow(dataflow), pes, bandwidth)
              for dataflow, pes, bandwidth in slots),
        budget=ResourceBudget(max_pes, max_bandwidth))


def encode_evaluation(evaluation: HardwareEvaluation) -> bytes:
    """Encode one evaluation's numbers (not its accelerator).

    Raises:
        ValueError: If a field does not fit its width (an assignment
            position over 255, an integer over 64 bits).
    """
    hap = evaluation.hap
    flags = ((_FEASIBLE if evaluation.feasible else 0)
             | (_HAP_FEASIBLE if hap.feasible else 0))
    violations = evaluation.violations
    energies = hap.refinement_energies
    try:
        parts = [
            _EVAL_HEAD.pack(
                EVALUATION_VERSION, evaluation.latency_cycles,
                evaluation.energy_nj, evaluation.area_um2,
                evaluation.penalty, flags, hap.makespan, hap.energy_nj,
                hap.latency_constraint, len(hap.assignment), len(energies),
                len(violations)),
            bytes(hap.assignment),
            struct.pack(f"<{len(energies)}d", *energies),
        ]
        parts.extend(_text(name, _U16) for name in violations)
    except (struct.error, TypeError) as exc:
        raise ValueError(f"evaluation does not fit the codec: {exc}") \
            from exc
    return b"".join(parts)


def decode_evaluation(blob: bytes, accelerator: HeterogeneousAccelerator
                      ) -> HardwareEvaluation:
    """Inverse of :func:`encode_evaluation`, attached to ``accelerator``
    (strict; raises ``ValueError``)."""
    blob = _blob(blob)
    try:
        (version, latency, energy, area, penalty, flags, makespan,
         hap_energy, constraint, assigned, refined,
         violated) = _EVAL_HEAD.unpack_from(blob, 0)
        if version != EVALUATION_VERSION:
            raise ValueError(
                f"evaluation version {version} is not supported (this "
                f"codec reads version {EVALUATION_VERSION})")
        if flags & ~(_FEASIBLE | _HAP_FEASIBLE):
            raise ValueError(f"unknown evaluation flags {flags:#04x}")
        pos = _EVAL_HEAD.size + assigned
        assignment = tuple(blob[_EVAL_HEAD.size:pos])
        energies = struct.unpack_from(f"<{refined}d", blob, pos)
        pos += 8 * refined
        violations = []
        for _ in range(violated):
            (size,) = _U16.unpack_from(blob, pos)
            violations.append(blob[pos + 2:pos + 2 + size].decode("utf-8"))
            pos += 2 + size
    except (struct.error, IndexError) as exc:
        raise ValueError(f"truncated evaluation: {exc}") from exc
    _finish(blob, pos)
    return HardwareEvaluation(
        accelerator=accelerator,
        latency_cycles=latency,
        energy_nj=energy,
        area_um2=area,
        penalty=penalty,
        feasible=bool(flags & _FEASIBLE),
        violations=tuple(violations),
        hap=HAPResult(assignment=assignment, makespan=makespan,
                      energy_nj=hap_energy,
                      feasible=bool(flags & _HAP_FEASIBLE),
                      latency_constraint=constraint,
                      refinement_energies=energies))
