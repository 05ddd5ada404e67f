"""Serialisation of search results (JSON) and run checkpoints (pickle).

Lives in ``repro.core`` (not ``repro.utils``) because it consumes the
search-result types; ``repro.utils`` sits below every other subpackage.

Two artefact families with different contracts, plus the durable-write
helpers they and the evaluation store share:

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

      {"format": "repro-checkpoint", "version": 4,
       "strategy_name": ..., "round": ..., "total_rounds": ...,
       "context_salt": ...,        # evaluation context of the service
       "store_path": ...,          # persistent store in use (or None)
       "stats_start": ...,         # driver's stats baseline (delta absorption)
       "strategy_state": {...},    # SearchStrategy.state()
       "service_state": {...}}     # EvalService.state_snapshot()

  Version 4 holds no cost memo (the cost model keeps nothing between
  batches), only the cost-cell counter totals.  Version-2 and -3
  checkpoints, which carry a memo (one record per cell, or column
  arrays), still load: the memo is skipped and its counter totals are
  restored, so the resumed run's ``pricing`` block continues them.
  Only load checkpoints you wrote yourself (standard pickle caveat).
- **Store sidecar path** (:func:`store_index_path`): where
  :class:`repro.core.store.EvalStore` keeps its ``<store>.idx`` offset
  index; the sidecar's format is the store's own (see
  :mod:`repro.core.store`).
"""

from __future__ import annotations

import json
import os
import pickle
from pathlib import Path
from typing import Any

from repro.core.results import ExploredSolution, SearchResult

__all__ = ["CHECKPOINT_FORMAT", "CHECKPOINT_VERSION", "durable_append",
           "durable_replace", "load_checkpoint", "load_result",
           "result_to_dict", "save_checkpoint", "save_result",
           "solution_to_dict", "store_index_path"]

CHECKPOINT_FORMAT = "repro-checkpoint"
#: Version 2: pending controller samples hold lockstep step caches.
#: Version 3: the cost memo is stored as column arrays.
#: Version 4: no cost memo, only its counter totals.
CHECKPOINT_VERSION = 4
#: Versions :func:`load_checkpoint` reads.
_READABLE_CHECKPOINTS = (2, 3, 4)


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


def store_index_path(store_path: str | Path) -> Path:
    """The ``<store>.idx`` offset-index sidecar path for a store file."""
    store_path = Path(store_path)
    return store_path.with_name(store_path.name + ".idx")


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

    The accounting comes from ``result.pricing`` (all zeros when no
    service priced the run).  The ``pricing`` block carries the run's
    uncached-pricing counters (cost-table cells shared within a batch
    and cells priced; HAP move pricing — certified prunes,
    delta-resumes, simulation steps skipped) plus the fault counters
    (``degraded``, retries/reconnects), so JSON outputs track fast-path
    effectiveness and fault exposure per run.
    """
    stats = result.pricing
    if stats is None:
        from repro.core.evalservice import EvalServiceStats
        stats = EvalServiceStats()
    return {
        "name": result.name,
        "best": (solution_to_dict(result.best)
                 if result.best is not None else None),
        "explored": [solution_to_dict(s) for s in result.explored],
        "trainings_run": result.trainings_run,
        "trainings_skipped": result.trainings_skipped,
        "hardware_evaluations": stats.requests,
        "cache_hits": stats.hits,
        "cache_misses": stats.misses,
        "eval_seconds": stats.miss_seconds,
        "num_feasible": len(result.feasible_solutions),
        "pricing": {
            "store_hits": stats.store_hits,
            "cost_memo_hits": stats.cost_memo_hits,
            "cost_memo_misses": stats.cost_memo_misses,
            "hap_moves_priced": stats.hap_moves_priced,
            "hap_moves_pruned": stats.hap_moves_pruned,
            "hap_moves_resumed": stats.hap_moves_resumed,
            "hap_steps_saved": stats.hap_steps_saved,
            "hap_steps_replayed": stats.hap_steps_replayed,
            "hap_batched_rounds": stats.hap_batched_rounds,
            "degraded": bool(stats.degraded),
            "retries": stats.retries,
            "reconnects": stats.reconnects,
        },
    }


def save_result(result: SearchResult, path: str | Path) -> Path:
    """Write a search run to ``path`` as compact JSON (atomic: an
    interrupted write never leaves a truncated file behind).  Compact
    separators keep ``json`` on its C encoder; ``indent`` would not."""
    blob = json.dumps(result_to_dict(result),
                      separators=(",", ":")).encode("utf-8")
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
    if record.get("version") not in _READABLE_CHECKPOINTS:
        raise ValueError(
            f"checkpoint version {record.get('version')!r} is not "
            f"supported (expected one of {_READABLE_CHECKPOINTS})")
    return record
