"""Serialisation of search results (JSON) and run checkpoints (pickle).

Lives in ``repro.core`` (not ``repro.utils``) because it consumes the
search-result types; ``repro.utils`` sits below every other subpackage.

Three artefact families with different contracts:

- **Run/campaign JSON** (:func:`save_result`, the campaign runner's
  consolidated output): plain dictionaries — genotypes, accelerator
  triples, metrics — enough to reproduce every table row without
  pickling live objects.  Diff-friendly, cross-version stable.
- **Checkpoints** (:func:`save_checkpoint` / :func:`load_checkpoint`):
  written by :class:`repro.core.driver.SearchDriver` mid-run so an
  interrupted search can resume *bit-identically*.  They must round-trip
  controller weight arrays, RMSProp moments, RNG bit-generator states
  and cached :class:`~repro.core.evaluator.HardwareEvaluation` records
  exactly, so they use pickle — same trade-off as ``torch.save``.  A
  checkpoint is a versioned envelope::

      {"format": "repro-checkpoint", "version": 1,
       "strategy_name": ..., "round": ..., "total_rounds": ...,
       "context_salt": ...,        # evaluation context of the service
       "store_path": ...,          # persistent store in use (or None)
       "stats_start": ...,         # driver's stats baseline (delta absorption)
       "strategy_state": {...},    # SearchStrategy.state()
       "service_state": {...}}     # EvalService.state_snapshot()

  Only load checkpoints you wrote yourself (standard pickle caveat).
- **Store offset indexes** (:func:`save_store_index` /
  :func:`load_store_index`): the ``<store>.idx`` sidecar that lets
  :class:`repro.core.evalstore.EvalStore` open without unpickling every
  record.  The sidecar is a pure *cache* of the store file — it is
  stamped with the store's covered byte count and a hash of the covered
  tail, and a store open whose stamp does not match rebuilds the index
  from the records instead of trusting it.  Layout::

      repro-evalstore-idx v1\\n
      u64 header_len, pickled header     # format/version/covered_bytes/
                                         # tail_hash/count/shadowed
      u64 memo_len, pickled memo map     # params digest -> [offsets]
      zero padding to an 8-byte boundary
      count * u64 bucket hashes          # sorted (hash, offset) pairs,
      count * u64 record offsets         # little-endian, column-major

  The two u64 columns are written raw (not pickled) and 8-byte aligned
  so a reader can ``mmap`` them and binary-search without
  materialising the index in memory; writes go through
  :func:`durable_replace` so a crashed rebuild can never leave a torn
  sidecar beside a good store.
"""

from __future__ import annotations

import json
import os
import pickle
import struct
from pathlib import Path
from typing import Any

from repro.core.results import ExploredSolution, SearchResult

__all__ = ["CHECKPOINT_FORMAT", "CHECKPOINT_VERSION",
           "STORE_INDEX_FORMAT", "STORE_INDEX_VERSION", "durable_append",
           "durable_replace", "load_checkpoint", "load_result",
           "load_store_index", "result_to_dict", "save_checkpoint",
           "save_result", "save_store_index", "solution_to_dict",
           "store_index_path"]

CHECKPOINT_FORMAT = "repro-checkpoint"
CHECKPOINT_VERSION = 1

STORE_INDEX_FORMAT = "repro-evalstore-index"
STORE_INDEX_VERSION = 1
_INDEX_MAGIC = b"repro-evalstore-idx v1\n"
_U64 = struct.Struct("<Q")


# ----------------------------------------------------------------------
# Durable writes
# ----------------------------------------------------------------------
def _fsync_directory(directory: Path) -> None:
    """Flush a directory entry to disk (no-op where unsupported).

    After ``os.replace`` the *file* contents are durable only once the
    containing directory's entry is too; platforms that cannot fsync a
    directory (e.g. Windows) simply skip this step.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir handles
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without dir fsync
        pass
    finally:
        os.close(fd)


def durable_replace(path: str | Path, blob: bytes) -> Path:
    """Crash-safe atomic write of ``blob`` to ``path``.

    The bytes go to a sibling ``.tmp`` file which is fsynced *before*
    ``os.replace`` — without the fsync a power loss shortly after the
    replace can leave a zero-length (yet valid-looking) file, because
    the rename may reach disk before the data does.  The temp file is
    removed even when the write or replace fails, so a crash never
    strands a stale ``.tmp`` beside the target, and the directory entry
    is fsynced after the replace.  Used by checkpoints; the evaluation
    store reuses :func:`durable_append` for the same guarantee on its
    append-only file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    _fsync_directory(path.parent)
    return path


def durable_append(handle, blob: bytes) -> None:
    """Append ``blob`` to an open binary file handle and fsync it.

    The companion of :func:`durable_replace` for append-only artefacts
    (the evaluation store): once this returns, the appended record
    survives a crash or power loss.
    """
    handle.write(blob)
    handle.flush()
    os.fsync(handle.fileno())


def solution_to_dict(solution: ExploredSolution) -> dict[str, Any]:
    """Flatten one solution into JSON-safe primitives."""
    return {
        "networks": [
            {
                "backbone": net.backbone,
                "dataset": net.dataset,
                "genotype": list(net.genotype),
                "macs": net.total_macs,
                "params": net.total_params,
            }
            for net in solution.networks
        ],
        "accelerator": [
            {
                "dataflow": sub.dataflow.value,
                "pes": sub.num_pes,
                "bandwidth_gbps": sub.bandwidth_gbps,
            }
            for sub in solution.accelerator.active_subaccs
        ],
        "latency_cycles": solution.latency_cycles,
        "energy_nj": solution.energy_nj,
        "area_um2": solution.area_um2,
        "feasible": solution.feasible,
        "accuracies": list(solution.accuracies),
        "weighted_accuracy": solution.weighted_accuracy,
    }


def result_to_dict(result: SearchResult) -> dict[str, Any]:
    """Flatten a whole search run (explored set + accounting).

    The ``pricing`` block mirrors the run's uncached-pricing counters
    (cross-design cost-table memo reuse and HAP move pricing — certified
    prunes, delta-resumes, simulation steps skipped) plus the fault
    counters (``degraded``, retries/reconnects, pool restarts), so JSON
    outputs track fast-path effectiveness and fault exposure per run.
    """
    return {
        "name": result.name,
        "best": (solution_to_dict(result.best)
                 if result.best is not None else None),
        "explored": [solution_to_dict(s) for s in result.explored],
        "trainings_run": result.trainings_run,
        "trainings_skipped": result.trainings_skipped,
        "hardware_evaluations": result.hardware_evaluations,
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
        "eval_seconds": result.eval_seconds,
        "num_feasible": len(result.feasible_solutions),
        "pricing": {
            "store_hits": result.store_hits,
            "cost_memo_hits": result.cost_memo_hits,
            "cost_memo_misses": result.cost_memo_misses,
            "hap_moves_priced": result.hap_moves_priced,
            "hap_moves_pruned": result.hap_moves_pruned,
            "hap_moves_resumed": result.hap_moves_resumed,
            "hap_steps_saved": result.hap_steps_saved,
            "hap_steps_replayed": result.hap_steps_replayed,
            "hap_batched_rounds": 0,  # read by perfbench/scenarios.py
            "degraded": result.degraded,
            "retries": result.pricing_retries,
            "reconnects": result.pricing_reconnects,
            "pool_restarts": result.pool_restarts,
        },
    }


def save_result(result: SearchResult, path: str | Path) -> Path:
    """Write a search run to ``path`` as indented JSON (atomic: an
    interrupted write never leaves a truncated file behind)."""
    blob = json.dumps(result_to_dict(result), indent=2).encode("utf-8")
    return durable_replace(path, blob)


def load_result(path: str | Path) -> dict[str, Any]:
    """Read back a serialised run as a plain dictionary."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------
def save_checkpoint(path: str | Path, payload: dict[str, Any]) -> Path:
    """Atomically write a mid-run checkpoint.

    The payload is pickled immediately (snapshot semantics: later
    mutations of live objects cannot leak into the file) and written via
    :func:`durable_replace` — fsynced temp file, atomic replace, temp
    cleanup, directory fsync — so neither a crash during checkpointing
    nor a power loss right after it can corrupt or zero out the
    previous checkpoint.
    """
    record = {"format": CHECKPOINT_FORMAT,
              "version": CHECKPOINT_VERSION, **payload}
    blob = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
    return durable_replace(path, blob)


# ----------------------------------------------------------------------
# Evaluation-store offset indexes
# ----------------------------------------------------------------------
def store_index_path(store_path: str | Path) -> Path:
    """The ``<store>.idx`` sidecar path for a store file."""
    store_path = Path(store_path)
    return store_path.with_name(store_path.name + ".idx")


def save_store_index(path: str | Path, *, covered_bytes: int,
                     tail_hash: str, shadowed: int, hashes: bytes,
                     offsets: bytes, memo: dict) -> Path:
    """Durably (re)write a store offset-index sidecar.

    ``hashes``/``offsets`` are the raw little-endian u64 columns of the
    ``(bucket hash, record offset)`` table, already sorted by
    ``(hash, offset)``; ``memo`` maps params digests to the offsets of
    their memo records.  ``covered_bytes``/``tail_hash`` stamp exactly
    which store-file prefix the index describes — a reader whose store
    does not match the stamp must rebuild, never trust the sidecar.
    ``shadowed`` carries the store's count of digest-shadowed duplicate
    records (compaction fodder) across sessions.
    """
    if len(hashes) != len(offsets) or len(hashes) % 8:
        raise ValueError("hash/offset columns must be equal-length "
                         "multiples of 8 bytes")
    header = {"format": STORE_INDEX_FORMAT,
              "version": STORE_INDEX_VERSION,
              "covered_bytes": int(covered_bytes),
              "tail_hash": str(tail_hash),
              "count": len(hashes) // 8,
              "shadowed": int(shadowed)}
    header_blob = pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL)
    memo_blob = pickle.dumps(memo, protocol=pickle.HIGHEST_PROTOCOL)
    prefix_len = (len(_INDEX_MAGIC) + 2 * _U64.size + len(header_blob)
                  + len(memo_blob))
    # Pad so the u64 columns start 8-byte aligned: numpy's binary
    # search on an unaligned memmap falls off its fast path (~100x).
    pad = -prefix_len % 8
    blob = b"".join([_INDEX_MAGIC,
                     _U64.pack(len(header_blob)), header_blob,
                     _U64.pack(len(memo_blob)), memo_blob,
                     b"\0" * pad, hashes, offsets])
    return durable_replace(path, blob)


def load_store_index(path: str | Path) -> dict[str, Any] | None:
    """Read a store offset-index sidecar written by
    :func:`save_store_index`.

    Returns ``None`` for a missing, truncated, malformed or
    wrong-version sidecar — the index is a cache, so every failure mode
    means "rebuild from the store file", never an error.  The u64
    columns are *not* materialised; the caller gets their byte offset
    (``arrays_offset``) and row ``count`` and maps them lazily.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            if handle.read(len(_INDEX_MAGIC)) != _INDEX_MAGIC:
                return None
            (header_len,) = _U64.unpack(handle.read(_U64.size))
            header = pickle.loads(handle.read(header_len))
            if (not isinstance(header, dict)
                    or header.get("format") != STORE_INDEX_FORMAT
                    or header.get("version") != STORE_INDEX_VERSION):
                return None
            (memo_len,) = _U64.unpack(handle.read(_U64.size))
            memo = pickle.loads(handle.read(memo_len))
            arrays_offset = handle.tell()
            arrays_offset += -arrays_offset % 8  # alignment padding
            count = int(header["count"])
            if count < 0 or not isinstance(memo, dict):
                return None
            if (os.fstat(handle.fileno()).st_size
                    != arrays_offset + 16 * count):
                return None
            return {"covered_bytes": int(header["covered_bytes"]),
                    "tail_hash": str(header["tail_hash"]),
                    "shadowed": int(header.get("shadowed", 0)),
                    "count": count,
                    "memo": memo,
                    "arrays_offset": arrays_offset}
    except Exception:
        return None


def load_checkpoint(path: str | Path) -> dict[str, Any]:
    """Read back a checkpoint written by :func:`save_checkpoint`.

    Raises:
        ValueError: If the file is not a repro checkpoint or was written
            by an incompatible checkpoint-format version.
    """
    record = pickle.loads(Path(path).read_bytes())
    if (not isinstance(record, dict)
            or record.get("format") != CHECKPOINT_FORMAT):
        raise ValueError(f"{path} is not a repro run checkpoint")
    if record.get("version") != CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint version {record.get('version')!r} is not "
            f"supported (expected {CHECKPOINT_VERSION})")
    return record
