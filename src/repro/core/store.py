"""Persistent cross-run evaluation store: the disk tier under EvalService.

PRs 1-3 made repeat pricing cheap *within* a process — the LRU cache,
the cross-design cost-table memo and campaign-shared services all die
with the process, so every new session starts cold.  Apollo
(Yazdanbakhsh et al.) and NAAS both observe that once single-evaluation
cost is optimised, the next lever is persisting and transferring
evaluation knowledge across exploration runs.  :class:`EvalStore` is
that tier: a durable, append-only, content-addressed record of priced
designs that any later run — same process, pool worker, or a fresh
session days later — warm-starts from.

Design:

- **Content-addressed, salt-namespaced.**  Entries are indexed by
  ``(context_salt, design_digest)`` where the digest is the existing
  context-salted :func:`repro.core.evalservice.design_digest` of the
  pair.  The full canonical content tuple
  (:func:`repro.core.evalservice.design_content`) is stored alongside
  and compared on every read, so a 64-bit digest collision degrades to
  a store miss, never a wrong answer.  Because the salt captures the
  whole evaluation context (workload specs/bounds, cost-model
  parameters, rho), entries are only ever reused under an exactly equal
  context — the same guarantee PR 3's shared campaign services rely on.
- **Durable appends.**  The file is a magic header plus length-prefixed
  records; every append goes through
  :func:`repro.core.serialization.durable_append` (flush + fsync), so a
  priced design survives the process that priced it.  A truncated or
  corrupted file is rejected with a clear error on open — never
  silently half-loaded.
- **Record formats (file version 2).**  Every evaluation record is a
  codec record: a ``0x02`` tag, the salt and digest, the
  :func:`repro.core.codec.encode_key` content key and the
  :func:`repro.core.codec.encode_evaluation` numbers, decoded with the
  accelerator rebuilt from the key
  (:func:`repro.core.codec.accelerator_from_key`).
  :meth:`EvalStore.put_many` refuses any value that is not a
  :class:`~repro.core.evaluator.HardwareEvaluation` (``TypeError``,
  nothing appended).  Memo records stay pickled dictionaries.  Pickled
  records — memo records, version-1 records, evaluations older writers
  pickled — start with pickle's PROTO opcode (``0x80``) and are read by
  :func:`_legacy_record`, the store's only unpickling, so looking up
  an evaluation this code wrote never unpickles.
- **Version-1 files.**  Files headed ``repro-evalstore v1`` hold only
  pickled records; they are read as before and answer bit-identically.
  A writer never appends under the v1 magic: before its first append it
  rewrites the header to ``repro-evalstore v2`` in place (same length,
  fsynced), and :meth:`EvalStore.compact` always writes a v2 header.
  Code that predates version 2 refuses a v2 file by its magic instead
  of misreading it.
- **Offset index + lazy records.**  A ``<name>.idx`` sidecar holds a
  sorted ``(bucket hash, file offset)`` table, so opening a store reads
  a fixed-size stamp instead of decoding every record, and lookups
  binary-search the memory-mapped table and ``pread`` + decode only
  the records they touch (the service's LRU keeps hot answers).
  Resident memory is bounded by the working set, not the store size.
  Layout (little-endian, no pickle)::

      repro-evalstore-idx v2\\n
      u64 covered_bytes, 16-byte tail hash, u64 count,
      u64 shadowed, u64 memo_len           # fixed struct header
      memo map, memo_len bytes:            # params digest -> offsets
        per digest: u16 name length, u32 offset count, utf-8 name,
                    u64 per memo record offset
      zero padding to an 8-byte boundary
      count * u64 bucket hashes            # sorted (hash, offset) pairs,
      count * u64 record offsets           # column-major

  The columns are 8-byte aligned so they can be ``mmap``-ed and
  binary-searched in place.  The sidecar is a *cache*: it is stamped
  with the covered byte count and a hash of the covered tail, and any
  mismatch (store mutated behind the index, truncated, replaced) — or
  a sidecar in another layout, such as the pickled-header version 1 —
  triggers a rebuild; a stale index is never trusted.  Records
  appended after the stamp are scanned incrementally; writers rewrite
  the sidecar durably (:func:`repro.core.serialization.\
durable_replace`) on close.
- **Cost-memo records.**  The cross-design cost-table memo
  (:meth:`repro.cost.model.CostModel.memo_state`) persists alongside
  the evaluations, namespaced by a digest of the cost parameters, so a
  warm-started run also reprices no (layer, sub-accelerator) pair an
  earlier run already priced.  Memo records are decoded lazily per
  params digest and merged in file order.
- **Compaction.**  :meth:`EvalStore.compact` rewrites the file keeping
  the first record of every distinct ``(salt, key)`` (digest-shadowed
  duplicates dropped) and folding each params digest's memo records
  into one.  Surviving evaluation records are copied *byte-exact* —
  every surviving answer stays bit-identical — and the swap is
  crash-safe (fsynced temp file, lock handover, atomic replace).
  ``repro store compact`` runs it offline; the pricing daemon runs
  :meth:`EvalStore.maybe_compact` from its idle path.
- **Single writer, shard + merge for pools.**  One process appends to
  one store file, and the contract is *enforced*, not conventional: a
  writer takes an advisory exclusive ``fcntl.flock`` on the file for
  its whole lifetime, so a second writer fails loudly at open instead
  of interleaving length-prefixed records.  Read-only opens take a
  shared lock just long enough to snapshot the load.  Campaign
  process-pool mode gives each worker a private *shard* store layered
  over the main store read-only (``parent=``) — the parent downgrades
  its lock to shared around the pool phase so workers can load the
  main file — then merges the shards back into the main store
  afterwards; see :meth:`EvalStore.merge_from`.

The store is infrastructure beneath the exactness contracts: a warm
start changes *where* an evaluation's bits come from, never what they
are (the codec and pickle both round-trip records exactly), which
``tests/test_store.py``, the ``store-compact`` differential pair and
``benchmarks/bench_store.py`` pin down.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
from pathlib import Path
from typing import Any, Iterable, Iterator

import numpy as np

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

from repro.core.codec import (accelerator_from_key, decode_evaluation,
                              decode_key, encode_evaluation, encode_key)
from repro.core.evaluator import HardwareEvaluation
from repro.core.serialization import (_fsync_directory, durable_append,
                                      durable_replace, store_index_path)
from repro.utils.hashing import stable_hash

__all__ = ["EvalStore", "STORE_MAGIC", "STORE_VERSION",
           "cost_params_digest"]

#: File magic; bumping :data:`STORE_VERSION` changes this line.
STORE_VERSION = 2
STORE_MAGIC = b"repro-evalstore v2\n"
#: Magic of version-1 files (pickled records only): still read, and
#: upgraded in place before the first append.
_V1_MAGIC = b"repro-evalstore v1\n"
assert len(_V1_MAGIC) == len(STORE_MAGIC)

#: struct format of the record length prefix (little-endian u64).
_LEN = struct.Struct("<Q")

#: First byte of a codec evaluation record.  Pickled records start with
#: pickle's PROTO opcode (0x80), so the two never collide.
_CODEC_TAG = 0x02
#: Codec record head: tag, then the byte lengths of salt, digest and
#: encoded key; the encoded evaluation fills the rest of the record.
_CODEC_HEAD = struct.Struct("<BHHH")

#: Offset-index sidecar magic.  Version 1 pickled its header and memo
#: map; a version-1 sidecar fails this check and is rebuilt.
_INDEX_MAGIC = b"repro-evalstore-idx v2\n"
#: Sidecar header: covered bytes, tail hash, index rows, shadowed
#: records, byte length of the memo map that follows.
_INDEX_HEAD = struct.Struct("<Q16sQQQ")
#: Memo map entry head: params digest byte length, memo record count.
_INDEX_MEMO = struct.Struct("<HI")

#: Store-file bytes hashed into the index staleness stamp.  The window
#: always includes the end of the covered prefix, so any truncation,
#: replacement or tail rewrite invalidates the sidecar; for stores
#: smaller than the window it covers the whole file.
_TAIL_WINDOW = 65536

_EMPTY_U64 = np.empty(0, dtype="<u8")


def cost_params_digest(params: Any) -> str:
    """Stable digest namespacing persisted cost-memo entries.

    Two cost models share memo entries only under bit-equal parameters
    (mirrors how the evaluation-context salt gates design reuse).
    """
    return format(stable_hash(repr(params), salt="cost-params"), "016x")


def _bucket_hash(salt: str, digest: str) -> int:
    """64-bit index address of a ``(salt, digest)`` bucket.

    Process-independent (:func:`stable_hash`) because it persists in
    the ``.idx`` sidecar.  A hash collision merely merges two buckets'
    candidate offsets — every candidate record is decoded and compared
    by exact ``(salt, key)`` before anything is returned, so collisions
    cost a decode, never a wrong answer.
    """
    return stable_hash((salt, digest), salt="evalstore-bucket")


def _eval_body(salt: str, digest: str, key: tuple,
               evaluation: HardwareEvaluation) -> bytes:
    """One codec evaluation record body."""
    salt_bytes = salt.encode("utf-8")
    digest_bytes = digest.encode("utf-8")
    key_bytes = encode_key(key)
    return b"".join((
        _CODEC_HEAD.pack(_CODEC_TAG, len(salt_bytes), len(digest_bytes),
                         len(key_bytes)),
        salt_bytes, digest_bytes, key_bytes,
        encode_evaluation(evaluation)))


def _memo_body(params_digest: str, entries: dict) -> bytes:
    """One (pickled) cost-memo record body."""
    return pickle.dumps({"kind": "memo", "params": params_digest,
                         "entries": entries},
                        protocol=pickle.HIGHEST_PROTOCOL)


def _decode_record(body: bytes) -> dict:
    """Decode a record body: codec evaluation records here, pickled
    ones through :func:`_legacy_record` (raises ``ValueError`` on
    anything that is not a store record)."""
    if body[:1] != bytes((_CODEC_TAG,)):
        return _legacy_record(body)
    try:
        _tag, salt_len, digest_len, key_len = \
            _CODEC_HEAD.unpack_from(body, 0)
    except struct.error as exc:
        raise ValueError(f"truncated codec record: {exc}") from exc
    pos = _CODEC_HEAD.size
    salt = body[pos:pos + salt_len].decode("utf-8")
    pos += salt_len
    digest = body[pos:pos + digest_len].decode("utf-8")
    pos += digest_len
    if pos + key_len > len(body):
        raise ValueError("truncated codec record")
    key = decode_key(body[pos:pos + key_len])
    evaluation = decode_evaluation(body[pos + key_len:],
                                   accelerator_from_key(key))
    return {"kind": "eval", "salt": salt, "digest": digest, "key": key,
            "evaluation": evaluation}


def _legacy_record(body: bytes) -> dict:
    """A pickled record: any record of a version-1 file, an evaluation
    record an older writer pickled, or a memo record.  The store's only
    unpickling; it refuses a body that does not open with pickle's
    PROTO opcode."""
    if body[:1] != pickle.PROTO:
        raise ValueError(f"unknown record tag {body[:1]!r}")
    try:
        record = pickle.loads(body)
    except Exception as exc:
        raise ValueError(f"unreadable record: {exc}") from exc
    if not isinstance(record, dict) or "kind" not in record:
        raise ValueError("record is not a store record")
    return record


def _save_index(path: Path, *, covered_bytes: int, tail_hash: bytes,
                shadowed: int, hashes: np.ndarray, offsets: np.ndarray,
                memo: dict[str, list[int]]) -> None:
    """Durably (re)write an offset-index sidecar (layout in the module
    docstring); ``hashes``/``offsets`` are the ``<u8`` columns, sorted
    by ``(hash, offset)``."""
    memo_parts = []
    for params, memo_offsets in memo.items():
        name = params.encode("utf-8")
        memo_parts += [_INDEX_MEMO.pack(len(name), len(memo_offsets)), name,
                       np.asarray(memo_offsets, dtype="<u8").tobytes()]
    memo_blob = b"".join(memo_parts)
    head = _INDEX_HEAD.pack(covered_bytes, tail_hash, len(hashes),
                            shadowed, len(memo_blob))
    # Pad so the u64 columns start 8-byte aligned: numpy's binary
    # search on an unaligned memmap falls off its fast path (~100x).
    pad = -(len(_INDEX_MAGIC) + len(head) + len(memo_blob)) % 8
    durable_replace(path, b"".join((_INDEX_MAGIC, head, memo_blob,
                                    b"\0" * pad, hashes.tobytes(),
                                    offsets.tobytes())))


def _load_index(path: Path) -> dict[str, Any] | None:
    """Read a sidecar written by :func:`_save_index`.

    Returns ``None`` for a missing, truncated, malformed or
    other-layout sidecar — the index is a cache, so every failure mode
    means "rebuild from the store file", never an error.  The columns
    are *not* read: the caller gets their byte offset
    (``arrays_offset``) and row ``count`` and maps them lazily.
    """
    try:
        with open(path, "rb") as handle:
            if handle.read(len(_INDEX_MAGIC)) != _INDEX_MAGIC:
                return None
            covered, tail_hash, count, shadowed, memo_len = \
                _INDEX_HEAD.unpack(handle.read(_INDEX_HEAD.size))
            arrays_offset = len(_INDEX_MAGIC) + _INDEX_HEAD.size + memo_len
            arrays_offset += -arrays_offset % 8
            # Checked before the memo map is read, so a corrupt length
            # can never ask for more bytes than the file holds.
            if (os.fstat(handle.fileno()).st_size
                    != arrays_offset + 16 * count):
                return None
            memo_blob = handle.read(memo_len)
        memo: dict[str, list[int]] = {}
        pos = 0
        while pos < len(memo_blob):
            name_len, records = _INDEX_MEMO.unpack_from(memo_blob, pos)
            pos += _INDEX_MEMO.size + name_len
            params = memo_blob[pos - name_len:pos].decode("utf-8")
            memo[params] = np.frombuffer(memo_blob, dtype="<u8",
                                         count=records,
                                         offset=pos).tolist()
            pos += 8 * records
    except (OSError, ValueError, struct.error):
        return None
    return {"covered_bytes": covered, "tail_hash": tail_hash,
            "shadowed": shadowed, "count": count, "memo": memo,
            "arrays_offset": arrays_offset}


class EvalStore:
    """Disk-backed, content-addressed store of priced designs.

    Args:
        path: The store file; created (with parents) on first append.
            A missing file is an empty store.
        read_only: Open for lookups only — :meth:`put` and friends
            refuse.  Used by pool workers layering a writable shard
            over the main store.
        parent: Optional fallback store consulted on lookup misses
            (reads only; appends always go to this store's own file).
        recover: Opt-in crash recovery (writers only).  A file whose
            tail was torn by a crash mid-append is truncated back to
            the last valid record: the durable prefix is kept bit-exact
            and the torn tail is moved to a fresh ``<name>.corrupt``
            sidecar (``.corrupt``, ``.corrupt.1``, … — an earlier
            quarantine is never overwritten) for inspection;
            :attr:`recovered` records what happened.  The default stays
            the loud reject — recovery must be an explicit decision
            (the daemon makes it on startup), never something a reader
            does silently.  A file that is not a store at all (wrong
            magic) is still rejected.
        fault_injector: Test-only :class:`repro.core.faults.\
FaultInjector` hooked into the append path (torn-write injection).

    Raises:
        ValueError: If the file exists but is not a repro evaluation
            store, has an unsupported version, or is corrupted or
            truncated (unless ``recover=True``) — or if another process
            already holds the store's writer lock (single-writer
            contract; see :meth:`downgrade_lock` and ``repro serve``
            for sharing).
    """

    def __init__(self, path: str | Path, *, read_only: bool = False,
                 parent: "EvalStore | None" = None,
                 recover: bool = False, fault_injector=None) -> None:
        self.path = Path(path)
        self.read_only = read_only
        self.parent = parent
        if recover and read_only:
            raise ValueError(
                "recover=True rewrites the store file (truncating the "
                "torn tail) and therefore needs a writer; open the "
                "store without read_only to recover it")
        self._recover = recover
        self._fault_injector = fault_injector
        #: ``None``, or a dict describing the recovery that ran at
        #: open: ``kept_bytes``, ``quarantined_bytes``, ``sidecar``,
        #: ``detail``.
        self.recovered: dict[str, Any] | None = None
        self._handle = None
        self._needs_magic = False
        self._reset_state()
        if not read_only:
            # Writers lock eagerly: the second writer must fail at
            # *open*, before any record could interleave.
            self._acquire_writer_lock()
        try:
            if self.path.exists():
                self._load()
            if not read_only and self._idx_dirty:
                # The sidecar was stale (or a recovery truncated the
                # file): rewrite it now so the scan just paid is the
                # last one until the next unclean shutdown.
                self._write_index()
        except Exception:
            self.close()
            raise

    def _reset_state(self) -> None:
        """Forget everything derived from the file (index, caches,
        counters) — the next :meth:`_load` rebuilds it."""
        # Sorted u64 columns of the persisted index (numpy array or
        # memmap), or None until :meth:`_ensure_arrays` materialises
        # them from ``_idx_lazy`` = (arrays_offset, count).
        self._idx_hashes: Any | None = None
        self._idx_offsets: Any | None = None
        self._idx_lazy: tuple[int, int] | None = None
        #: bucket hash -> [record offsets] for records not covered by
        #: the persisted index (fresh appends, incremental tail scans).
        self._extra: dict[int, list[int]] = {}
        #: params digest -> [memo record offsets] (file order).
        self._memo_offsets: dict[str, list[int]] = {}
        #: params digest -> decoded merged entries (lazy, kept hot).
        self._memo_cache: dict[str, dict] = {}
        #: Distinct evaluations in this file — maintained incrementally
        #: so ``len``/gauges are O(1), never a bucket scan.
        self._entry_count = 0
        #: Digest-shadowed duplicate records seen on disk (not indexed;
        #: compaction drops them).  Persisted in the sidecar header.
        self._shadowed = 0
        #: Tracked file size — maintained incrementally so the pricing
        #: gauges need no ``stat()`` per batch.
        self._size_bytes = 0
        self._reader = None
        #: Open handle on the ``.idx`` sidecar between adopt and the
        #: first lookup — memory-mapping through a retained descriptor
        #: keeps a store readable even if its files are unlinked after
        #: open (the campaign pool relies on this for parents).
        self._idx_handle = None
        self._append_failed = False
        self._idx_dirty = False
        #: True while the file still carries the version-1 magic.
        self._v1_header = False
        #: True when the last load trusted the ``.idx`` sidecar.
        self.index_used = False
        #: Records decoded by load-time scans (0 on an index-fresh
        #: open) — observability for tests and ``repro store stats``.
        self.scanned_records = 0

    # ------------------------------------------------------------------
    # Locking
    # ------------------------------------------------------------------
    def _acquire_writer_lock(self) -> None:
        """Open the append handle and take the exclusive advisory lock.

        The handle doubles as the lock holder: ``flock`` locks live on
        the open file description, so closing the handle (or the
        process dying) always releases the lock — no stale lock files.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(self.path, "ab")
        if fcntl is not None:
            try:
                fcntl.flock(handle.fileno(),
                            fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError as exc:
                handle.close()
                raise ValueError(
                    f"evaluation store {self.path} is already open for "
                    f"writing elsewhere (single-writer contract: "
                    f"concurrent appends would interleave records and "
                    f"corrupt the file); to share one pricing tier "
                    f"across clients, run 'repro serve --store "
                    f"{self.path}' and point the searches at it with "
                    f"--service") from exc
        self._handle = handle
        # The magic header is owed exactly once per fresh file; the
        # flag (not a per-append stat) keeps a retried append after a
        # failed flush from buffering the header twice.
        self._needs_magic = self.path.stat().st_size == 0

    def downgrade_lock(self) -> None:
        """Convert the writer's exclusive lock to a shared one.

        Used by the campaign pool: workers open the main store
        ``read_only`` (shared lock) while the parent — which promises
        not to append during the pool phase — keeps only a shared
        claim.  No-op for read-only stores and where locking is
        unsupported.
        """
        if self._handle is not None and fcntl is not None:
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_SH)

    def upgrade_lock(self) -> None:
        """Re-take the exclusive writer lock after
        :meth:`downgrade_lock` (blocks until readers drain)."""
        if self._handle is not None and fcntl is not None:
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX)

    # ------------------------------------------------------------------
    # Loading / file format
    # ------------------------------------------------------------------
    @property
    def index_path(self) -> Path:
        """The ``<name>.idx`` offset-index sidecar path."""
        return store_index_path(self.path)

    def _corrupt(self, detail: str) -> ValueError:
        return ValueError(
            f"{self.path} is corrupted ({detail}); the evaluation store "
            f"cannot be trusted — delete or restore it and re-run")

    def _load(self) -> None:
        reader = open(self.path, "rb")
        # Install the lazy-read handle up front: the load-time scan
        # itself decodes candidate records through it.
        self._reader = reader
        try:
            # Readers snapshot under a shared lock so a load can never
            # observe a half-written append; the lock is released once
            # the load is done (the descriptor stays open for lazy
            # record reads).  A writer's own load is already protected
            # by its exclusive lock (taking a second flock on a fresh
            # descriptor would self-deadlock).
            if self.read_only and fcntl is not None:
                try:
                    fcntl.flock(reader.fileno(),
                                fcntl.LOCK_SH | fcntl.LOCK_NB)
                except OSError as exc:
                    raise ValueError(
                        f"evaluation store {self.path} is exclusively "
                        f"locked by a writer; read it once the writer "
                        f"closes (or query the writer through 'repro "
                        f"serve' instead of opening the file directly)"
                    ) from exc
            try:
                self._load_locked(reader)
            finally:
                if self.read_only and fcntl is not None:
                    try:
                        fcntl.flock(reader.fileno(), fcntl.LOCK_UN)
                    except OSError:  # pragma: no cover
                        pass
        except Exception:
            self._reader = None
            reader.close()
            raise

    def _load_locked(self, reader) -> None:
        size = os.fstat(reader.fileno()).st_size
        self._size_bytes = size
        if size == 0:
            # A crash between creating the file and the first durable
            # append leaves zero bytes: nothing was promised, so this
            # is an empty store, not corruption.
            return
        head = reader.read(len(STORE_MAGIC))
        self._v1_header = head == _V1_MAGIC
        if head != STORE_MAGIC and not self._v1_header:
            if self._recover and (STORE_MAGIC.startswith(head)
                                  or _V1_MAGIC.startswith(head)):
                # A crash during the very first append flushed only
                # part of the header: nothing durable was promised.
                self._quarantine_tail(reader, 0, "torn file header")
                return
            raise ValueError(
                f"{self.path} is not a repro evaluation store "
                f"(expected header {STORE_MAGIC!r})")
        scan_from = len(STORE_MAGIC)
        index = _load_index(self.index_path)
        if index is not None and self._index_fresh(reader, index, size):
            try:
                idx_handle = open(self.index_path, "rb")
            except OSError:
                idx_handle = None
            if idx_handle is not None:
                self._adopt_index(index, idx_handle)
                scan_from = index["covered_bytes"]
                self.index_used = True
        if scan_from < size:
            self._scan(reader, scan_from, size)
            self._idx_dirty = True

    def _index_fresh(self, reader, index: dict, size: int) -> bool:
        """Whether the sidecar's stamp matches the store file — a
        mismatched (truncated, replaced, rewritten) store means the
        index is rebuilt, never trusted."""
        covered = index["covered_bytes"]
        if covered < len(STORE_MAGIC) or covered > size:
            return False
        return index["tail_hash"] == self._tail_hash(reader.fileno(),
                                                     covered)

    @staticmethod
    def _tail_hash(fd: int, covered: int) -> bytes:
        start = max(0, covered - _TAIL_WINDOW)
        data = os.pread(fd, covered - start, start)
        return hashlib.blake2b(data, digest_size=16).digest()

    def _adopt_index(self, index: dict, idx_handle) -> None:
        count = index["count"]
        if count:
            # Columns stay on disk until the first lookup memory-maps
            # them — opening a million-entry store reads only the stamp.
            self._idx_lazy = (index["arrays_offset"], count)
            self._idx_handle = idx_handle
        else:
            idx_handle.close()
            self._idx_hashes = _EMPTY_U64
            self._idx_offsets = _EMPTY_U64
        self._entry_count = count
        self._shadowed = index["shadowed"]
        self._memo_offsets = index["memo"]

    def _ensure_arrays(self) -> None:
        if self._idx_hashes is not None:
            return
        if self._idx_lazy is None:
            self._idx_hashes = _EMPTY_U64
            self._idx_offsets = _EMPTY_U64
            return
        arrays_offset, count = self._idx_lazy
        try:
            # Mapping through the handle retained at adopt time (not
            # the path) keeps the columns readable even if the sidecar
            # was unlinked after open.
            self._idx_hashes = np.memmap(
                self._idx_handle, dtype="<u8", mode="r",
                offset=arrays_offset, shape=(count,))
            self._idx_offsets = np.memmap(
                self._idx_handle, dtype="<u8", mode="r",
                offset=arrays_offset + 8 * count, shape=(count,))
            self._idx_lazy = None
        except (OSError, ValueError):
            # The sidecar broke between the open-time validation and
            # the first lookup: fall back to a full reload (which will
            # rebuild the index from the records).
            self._reload()
            self._ensure_arrays()
            return
        # The mappings hold their own references; the handle is spent.
        self._idx_handle.close()
        self._idx_handle = None

    def _scan(self, reader, start: int, total: int) -> None:
        """Sequentially decode and index records in ``[start, total)``
        — the full-rebuild path (``start`` = header end) and the
        incremental tail scan behind a fresh index."""
        reader.seek(start)
        offset = start
        while offset < total:
            record_start = offset
            try:
                if offset + _LEN.size > total:
                    raise self._corrupt("truncated record length prefix")
                prefix = reader.read(_LEN.size)
                if len(prefix) < _LEN.size:
                    raise self._corrupt("truncated record length prefix")
                (length,) = _LEN.unpack(prefix)
                offset += _LEN.size
                if offset + length > total:
                    raise self._corrupt("truncated record body")
                blob = reader.read(length)
                if len(blob) < length:
                    raise self._corrupt("truncated record body")
                try:
                    record = _decode_record(blob)
                except ValueError as exc:
                    raise self._corrupt(str(exc)) from exc
                offset += length
                self._index_record(record, record_start)
                self.scanned_records += 1
            except ValueError as exc:
                if not self._recover:
                    raise
                # Appends are strictly sequential, so the first bad
                # record marks where durability ended: everything
                # before it is the bit-exact durable prefix, everything
                # from it on is the torn tail.
                self._quarantine_tail(reader, record_start, str(exc))
                return

    def _index_record(self, record: dict, offset: int) -> None:
        kind = record["kind"]
        if kind == "eval":
            bucket_hash = _bucket_hash(record["salt"], record["digest"])
            if self._find_own(bucket_hash, record["salt"],
                              record["key"]) is not None:
                # Same (salt, key) already on disk at a lower offset:
                # a digest-shadowed duplicate.  Leave it unindexed (the
                # earlier record keeps answering) and remember it as
                # compaction fodder.
                self._shadowed += 1
                return
            self._extra.setdefault(bucket_hash, []).append(offset)
            self._entry_count += 1
        elif kind == "memo":
            params = record["params"]
            self._memo_offsets.setdefault(params, []).append(offset)
            # Any decoded view of this digest predates the new record.
            self._memo_cache.pop(params, None)
        else:
            raise self._corrupt(f"unknown record kind {kind!r}")

    def _quarantine_tail(self, reader, keep: int, detail: str) -> None:
        """Recovery: quarantine the file's bytes from ``keep`` on to a
        fresh ``.corrupt`` sidecar and truncate the store back to the
        durable prefix (requires the writer handle — the lock is
        already held)."""
        reader.seek(keep)
        tail = reader.read()
        sidecar = self._fresh_sidecar()
        durable_replace(sidecar, tail)
        os.ftruncate(self._handle.fileno(), keep)
        os.fsync(self._handle.fileno())
        self._needs_magic = keep == 0
        self._size_bytes = keep
        self._idx_dirty = True
        self.recovered = {"kept_bytes": keep,
                          "quarantined_bytes": len(tail),
                          "sidecar": str(sidecar),
                          "detail": detail}

    def _fresh_sidecar(self) -> Path:
        """First unused ``.corrupt`` sidecar name (``.corrupt``,
        ``.corrupt.1``, …) — a second recovery must never overwrite the
        bytes quarantined by the first."""
        base = self.path.name + ".corrupt"
        suffix = 0
        while True:
            name = base if suffix == 0 else f"{base}.{suffix}"
            sidecar = self.path.with_name(name)
            if not sidecar.exists():
                return sidecar
            suffix += 1

    def _reload(self) -> None:
        """Drop all file-derived state and reload from disk (used when
        the file may have changed under us: reopen after ``close``, a
        vanished sidecar)."""
        reader, self._reader = self._reader, None
        if reader is not None:
            reader.close()
        idx_handle, self._idx_handle = self._idx_handle, None
        if idx_handle is not None:
            idx_handle.close()
        recovered = self.recovered
        needs_magic = self._needs_magic
        self._reset_state()
        self._needs_magic = needs_magic
        self.recovered = recovered
        if self.path.exists():
            self._load()
        if not self.read_only and self._idx_dirty:
            self._write_index()

    # ------------------------------------------------------------------
    # Lazy record access
    # ------------------------------------------------------------------
    def _ensure_reader(self):
        if self._reader is None:
            self._reader = open(self.path, "rb")
        return self._reader

    def _record_at(self, offset: int) -> dict:
        """``pread`` + decode the record at ``offset`` (positioned
        reads: safe under concurrent lookups, no seek state)."""
        fd = self._ensure_reader().fileno()
        prefix = os.pread(fd, _LEN.size, offset)
        if len(prefix) < _LEN.size:
            raise self._corrupt(
                f"record at offset {offset} lost its length prefix")
        (length,) = _LEN.unpack(prefix)
        if offset + _LEN.size + length > self._size_bytes:
            raise self._corrupt(
                f"record at offset {offset} overruns the file")
        body = os.pread(fd, length, offset + _LEN.size)
        if len(body) < length:
            raise self._corrupt(
                f"record at offset {offset} is truncated")
        try:
            return _decode_record(body)
        except ValueError as exc:
            raise self._corrupt(f"record at offset {offset}: {exc}") \
                from exc

    def _candidate_offsets(self, bucket_hash: int) -> list[int]:
        """Offsets of records addressed by ``bucket_hash``, in file
        order (persisted index rows first — always at lower offsets
        than the un-persisted extras)."""
        self._ensure_arrays()
        candidates: list[int] = []
        hashes = self._idx_hashes
        if hashes is not None and len(hashes):
            key = np.uint64(bucket_hash)
            lo = int(np.searchsorted(hashes, key, side="left"))
            hi = int(np.searchsorted(hashes, key, side="right"))
            if hi > lo:
                candidates.extend(int(off)
                                  for off in self._idx_offsets[lo:hi])
        extra = self._extra.get(bucket_hash)
        if extra:
            candidates.extend(extra)
        return candidates

    def _find_own(self, bucket_hash: int, salt: str,
                  key: tuple) -> dict | None:
        """Decode this store's candidates for a bucket and return the
        first record matching ``(salt, key)`` exactly (no parent)."""
        for offset in self._candidate_offsets(bucket_hash):
            record = self._record_at(offset)
            if (record.get("kind") == "eval"
                    and record.get("salt") == salt
                    and record.get("key") == key):
                return record
        return None

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def get(self, salt: str, digest: str, key: tuple) -> Any | None:
        """Evaluation stored for ``key`` under ``salt``, else ``None``.

        ``digest`` addresses the bucket; the exact content ``key`` is
        compared before anything is returned, so digest collisions fall
        back to a miss (or to the colliding bucket's other entry).
        """
        record = self._find_own(_bucket_hash(salt, digest), salt, key)
        if record is not None:
            return record["evaluation"]
        if self.parent is not None:
            return self.parent.get(salt, digest, key)
        return None

    def _own_memo(self, params_digest: str) -> dict:
        """Decoded, merged memo entries of this file alone (lazy; the
        merged view is cached per digest and kept hot by appends)."""
        cached = self._memo_cache.get(params_digest)
        if cached is None:
            cached = {}
            for offset in self._memo_offsets.get(params_digest, ()):
                record = self._record_at(offset)
                if record.get("kind") == "memo":
                    cached.update(record.get("entries", {}))
            self._memo_cache[params_digest] = cached
        return cached

    def get_memo(self, params_digest: str) -> dict:
        """Persisted cost-memo entries for one parameter set (merged
        with the parent store's, own entries winning)."""
        merged: dict = {}
        if self.parent is not None:
            merged.update(self.parent.get_memo(params_digest))
        merged.update(self._own_memo(params_digest))
        return merged

    def __len__(self) -> int:
        """Distinct evaluations reachable (own entries plus parent's)
        — O(1): the count is maintained incrementally."""
        return self._entry_count + (len(self.parent)
                                    if self.parent is not None else 0)

    def iter_records(self) -> Iterator[dict]:
        """Decode this store's own evaluation records in file order
        (shadowed duplicates skipped; memo records are read through
        :meth:`get_memo`)."""
        self._ensure_arrays()
        offsets = self._idx_offsets.tolist()
        for bucket in self._extra.values():
            offsets.extend(bucket)
        for offset in sorted(offsets):
            yield self._record_at(offset)

    def iter_all_evaluations(self) -> Iterator[tuple[str, tuple, Any]]:
        """Yield ``(salt, content_key, evaluation)`` for every distinct
        own record, in durable append order (no parent)."""
        for record in self.iter_records():
            yield record["salt"], record["key"], record["evaluation"]

    def iter_evaluations(self, salt: str):
        """Yield ``(content_key, evaluation)`` for every distinct record
        stored under ``salt`` — the warm-training read path.

        Own records come first (in durable append order), then the
        parent's records that this store does not shadow, so iteration
        order is deterministic for a given store file chain.  Records
        are decoded on demand: memory stays bounded by one record plus
        the dedup key set.
        """
        seen: set[tuple] = set()
        for stored_salt, key, evaluation in self.iter_all_evaluations():
            if stored_salt == salt and key not in seen:
                seen.add(key)
                yield key, evaluation
        if self.parent is not None:
            for key, evaluation in self.parent.iter_evaluations(salt):
                if key not in seen:
                    seen.add(key)
                    yield key, evaluation

    @property
    def size_bytes(self) -> int:
        """On-disk bytes of the store file (plus the parent chain's) —
        O(1): tracked incrementally, no ``stat()`` per read."""
        return self._size_bytes + (self.parent.size_bytes
                                   if self.parent is not None else 0)

    @property
    def redundant_records(self) -> int:
        """Records compaction would drop: digest-shadowed duplicates
        plus superseded (mergeable) memo records."""
        mergeable = sum(len(offsets) - 1
                        for offsets in self._memo_offsets.values()
                        if len(offsets) > 1)
        return self._shadowed + mergeable

    def __contains__(self, addr: tuple[str, str, tuple]) -> bool:
        salt, digest, key = addr
        if self._find_own(_bucket_hash(salt, digest), salt,
                          key) is not None:
            return True
        return self.parent is not None and addr in self.parent

    # ------------------------------------------------------------------
    # Appends
    # ------------------------------------------------------------------
    def _ensure_writable(self) -> None:
        """Refuse on read-only stores; reopen after ``close()``.

        Reopening re-takes the writer lock and then *reloads* — an
        interim writer may have appended (or compacted) while the file
        was unlocked, and writing against the stale in-memory index
        would duplicate its records or index ours at wrong offsets.
        Callers run their dedup checks after this, so interim records
        are visible to them.
        """
        if self.read_only:
            raise ValueError(f"evaluation store {self.path} is read-only")
        if self._handle is None:
            self._acquire_writer_lock()
            self._reload()

    def _append_bodies(self, bodies: list[bytes]) -> list[int]:
        """Durably append encoded record bodies (one fsync); returns
        their file offsets."""
        self._ensure_writable()
        if not bodies:
            return []
        if self._append_failed:
            # The previous append died part-way (disk full, torn
            # write): the on-disk size no longer matches the tracked
            # size, so resync before computing this batch's offsets.
            try:
                self._handle.flush()
            except OSError:  # pragma: no cover - flush still failing
                pass
            self._size_bytes = os.fstat(self._handle.fileno()).st_size
            self._append_failed = False
        if self._v1_header:
            self._upgrade_header()
        base = self._size_bytes
        header = b""
        if self._needs_magic:
            header = STORE_MAGIC
            base = len(STORE_MAGIC)
        frames = []
        offsets = []
        position = base
        for blob in bodies:
            frames.append(_LEN.pack(len(blob)) + blob)
            offsets.append(position)
            position += _LEN.size + len(blob)
        payload = b"".join(frames)
        self._append_failed = True
        if header:
            self._handle.write(header)
            self._needs_magic = False
        if self._fault_injector is not None:
            # Chaos seam: may flush only a torn prefix and raise (the
            # magic header buffered above is flushed with it, so the
            # torn file still opens far enough to be recovered).
            self._fault_injector.on_store_append(self._handle, payload)
        # One flush+fsync per batch: every record is durable on return.
        durable_append(self._handle, payload)
        self._append_failed = False
        self._size_bytes = position
        self._idx_dirty = True
        return offsets

    def _upgrade_header(self) -> None:
        """Rewrite a version-1 magic as the version-2 one, durably,
        before this writer's first append.

        The magics have the same length and differ in one byte, so the
        rewrite cannot tear a record; the append handle is ``O_APPEND``
        (whose ``pwrite`` appends on Linux), hence the separate
        descriptor.
        """
        fd = os.open(self.path, os.O_WRONLY)
        try:
            os.pwrite(fd, STORE_MAGIC, 0)
            os.fsync(fd)
        finally:
            os.close(fd)
        self._v1_header = False
        # The sidecar's tail hash may cover the header: restamp it.
        self._idx_dirty = True

    def put(self, salt: str, digest: str, key: tuple,
            evaluation: HardwareEvaluation) -> bool:
        """Durably record one priced design; returns whether it was new
        (already-present exact keys are not rewritten)."""
        return self.put_many([(salt, digest, key, evaluation)]) == 1

    def put_many(self, entries: Iterable[tuple[str, str, tuple,
                                               HardwareEvaluation]]) -> int:
        """Durably record a batch with a single fsync; returns how many
        entries were new.

        The in-memory index is updated only *after* the append
        succeeds: if the write fails (full disk), the store keeps
        claiming the entries are absent, so a retry rewrites them
        instead of silently skipping records that never reached disk.

        Raises:
            TypeError: If a value is not a
                :class:`~repro.core.evaluator.HardwareEvaluation` (the
                whole batch is refused; nothing is appended).
        """
        self._ensure_writable()
        buckets = []
        bodies = []
        batch_seen: set[tuple[str, str, tuple]] = set()
        for salt, digest, key, evaluation in entries:
            if not isinstance(evaluation, HardwareEvaluation):
                raise TypeError(
                    f"the evaluation store records HardwareEvaluation "
                    f"values, got {type(evaluation).__name__}")
            address = (salt, digest, key)
            if address in batch_seen or address in self:
                continue
            batch_seen.add(address)
            buckets.append(_bucket_hash(salt, digest))
            bodies.append(_eval_body(salt, digest, key, evaluation))
        offsets = self._append_bodies(bodies)
        for bucket_hash, offset in zip(buckets, offsets):
            self._extra.setdefault(bucket_hash, []).append(offset)
        self._entry_count += len(bodies)
        return len(bodies)

    def put_memo(self, params_digest: str, entries: dict) -> int:
        """Durably record cost-memo entries not yet persisted for this
        parameter set; returns how many were new."""
        self._ensure_writable()
        known = self.get_memo(params_digest)
        fresh = {key: value for key, value in entries.items()
                 if key not in known}
        if fresh:
            (offset,) = self._append_bodies([_memo_body(params_digest,
                                                        fresh)])
            self._memo_offsets.setdefault(params_digest,
                                          []).append(offset)
            cached = self._memo_cache.get(params_digest)
            if cached is not None:
                cached.update(fresh)
        return len(fresh)

    def merge_from(self, shard: "EvalStore") -> int:
        """Fold a shard store's own records into this store (the
        campaign pool's merge step); returns new evaluations added.

        The shard is streamed in bounded batches — merging a large lazy
        shard never materialises it in memory.
        """
        added = 0
        batch: list[tuple[str, str, tuple, Any]] = []
        for record in shard.iter_records():
            batch.append((record["salt"], record["digest"],
                          record["key"], record["evaluation"]))
            if len(batch) >= 512:
                added += self.put_many(batch)
                batch.clear()
        if batch:
            added += self.put_many(batch)
        for params_digest in list(shard._memo_offsets):
            self.put_memo(params_digest, shard._own_memo(params_digest))
        return added

    # ------------------------------------------------------------------
    # Index persistence
    # ------------------------------------------------------------------
    def _write_index(self) -> None:
        """Durably rewrite the ``.idx`` sidecar to cover the whole file
        (and fold the in-memory extras into the sorted columns)."""
        if self._size_bytes == 0:
            # Nothing durable: a stale sidecar for a now-empty file
            # would just be rebuilt-over; drop it.
            self.index_path.unlink(missing_ok=True)
            self._idx_dirty = False
            return
        self._ensure_arrays()
        base = int(len(self._idx_hashes))
        extra_total = sum(len(bucket) for bucket in self._extra.values())
        hashes = np.empty(base + extra_total, dtype="<u8")
        offsets = np.empty(base + extra_total, dtype="<u8")
        if base:
            hashes[:base] = self._idx_hashes
            offsets[:base] = self._idx_offsets
        row = base
        for bucket_hash, bucket in self._extra.items():
            for offset in bucket:
                hashes[row] = bucket_hash
                offsets[row] = offset
                row += 1
        # Primary key: bucket hash (binary search); secondary: offset,
        # so candidates inside a bucket keep durable append order and
        # the earliest record keeps winning lookups.
        order = np.lexsort((offsets, hashes))
        hashes = np.ascontiguousarray(hashes[order])
        offsets = np.ascontiguousarray(offsets[order])
        tail_hash = self._tail_hash(self._ensure_reader().fileno(),
                                    self._size_bytes)
        _save_index(self.index_path, covered_bytes=self._size_bytes,
                    tail_hash=tail_hash, shadowed=self._shadowed,
                    hashes=hashes, offsets=offsets, memo=self._memo_offsets)
        self._idx_hashes = hashes
        self._idx_offsets = offsets
        self._idx_lazy = None
        self._extra = {}
        self._idx_dirty = False

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self) -> dict[str, Any]:
        """Rewrite the store dropping digest-shadowed duplicates and
        folding each params digest's memo records into one.

        Surviving evaluation records are copied byte-exact, so every
        surviving answer is bit-identical to the original (the
        ``store-compact`` differential pair fuzzes this).  The swap is
        crash-safe: the compacted file is fsynced, the writer lock is
        taken on the new inode *before* the atomic replace, and a crash
        at any point leaves either the old file or the new one — never
        a mix.  Returns a report dict (bytes/records before/after).
        """
        if self.read_only:
            raise ValueError(
                f"evaluation store {self.path} is read-only; compaction "
                f"rewrites the file and needs the writer lock")
        self._ensure_writable()
        report = {"bytes_before": self._size_bytes,
                  "entries": self._entry_count,
                  "eval_duplicates_dropped": self._shadowed,
                  "memo_records_merged": sum(
                      len(offsets) - 1
                      for offsets in self._memo_offsets.values()
                      if len(offsets) > 1)}
        if self._size_bytes <= len(STORE_MAGIC):
            report["bytes_after"] = self._size_bytes
            report["records_dropped"] = 0
            return report
        self._ensure_arrays()
        eval_rows: list[tuple[int, int]] = []  # (offset, bucket hash)
        if len(self._idx_offsets):
            eval_rows.extend(zip((int(o) for o in self._idx_offsets),
                                 (int(h) for h in self._idx_hashes)))
        for bucket_hash, bucket in self._extra.items():
            eval_rows.extend((offset, bucket_hash) for offset in bucket)
        memo_heads = {min(offsets): params
                      for params, offsets in self._memo_offsets.items()
                      if offsets}
        events = sorted(
            [(offset, "eval", bucket_hash)
             for offset, bucket_hash in eval_rows]
            + [(offset, "memo", params)
               for offset, params in memo_heads.items()])
        source_fd = self._ensure_reader().fileno()
        tmp = self.path.with_name(self.path.name + ".compacting")
        new_hashes: list[int] = []
        new_offsets: list[int] = []
        new_memo: dict[str, list[int]] = {}
        new_handle = None
        try:
            with open(tmp, "wb") as out:
                out.write(STORE_MAGIC)
                position = len(STORE_MAGIC)
                for offset, kind, tag in events:
                    if kind == "eval":
                        prefix = os.pread(source_fd, _LEN.size, offset)
                        (length,) = _LEN.unpack(prefix)
                        frame = prefix + os.pread(source_fd, length,
                                                  offset + _LEN.size)
                        if len(frame) != _LEN.size + length:
                            raise self._corrupt(
                                f"record at offset {offset} is "
                                f"truncated")
                        new_hashes.append(tag)
                        new_offsets.append(position)
                    else:
                        blob = _memo_body(tag, self._own_memo(tag))
                        frame = _LEN.pack(len(blob)) + blob
                        new_memo[tag] = [position]
                    out.write(frame)
                    position += len(frame)
                out.flush()
                os.fsync(out.fileno())
            # Lock the new inode *before* it becomes visible under the
            # store path: after the replace, the exclusive claim moves
            # with it — at no point is the path unlocked.
            new_handle = open(tmp, "ab")
            if fcntl is not None:
                fcntl.flock(new_handle.fileno(),
                            fcntl.LOCK_EX | fcntl.LOCK_NB)
            os.replace(tmp, self.path)
        except Exception:
            if new_handle is not None:
                new_handle.close()
            tmp.unlink(missing_ok=True)
            raise
        _fsync_directory(self.path.parent)
        old_handle, self._handle = self._handle, new_handle
        old_handle.close()
        # Point lazy reads at the new inode.  The previous reader is
        # dropped, not closed: a concurrent lookup that already picked
        # it up keeps reading the old (complete) snapshot.
        self._reader = open(self.path, "rb")
        sorted_order = np.lexsort((np.asarray(new_offsets, dtype="<u8"),
                                   np.asarray(new_hashes, dtype="<u8")))
        self._idx_hashes = np.ascontiguousarray(
            np.asarray(new_hashes, dtype="<u8")[sorted_order])
        self._idx_offsets = np.ascontiguousarray(
            np.asarray(new_offsets, dtype="<u8")[sorted_order])
        self._idx_lazy = None
        self._extra = {}
        self._memo_offsets = new_memo
        self._shadowed = 0
        self._size_bytes = position
        self._needs_magic = False
        self._v1_header = False
        self._idx_dirty = True
        self._write_index()
        report["bytes_after"] = position
        report["records_dropped"] = (report["eval_duplicates_dropped"]
                                     + report["memo_records_merged"])
        return report

    def maybe_compact(self, min_redundant: int = 64
                      ) -> dict[str, Any] | None:
        """Compact only when at least ``min_redundant`` droppable
        records have accumulated — the daemon's idle-path maintenance
        hook.  Returns the compaction report, or ``None`` if the store
        is not worth rewriting (or is read-only)."""
        if self.read_only:
            return None
        if self.redundant_records < max(1, min_redundant):
            return None
        return self.compact()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Write the offset index if stale, then close the append
        handle, releasing the writer lock (idempotent; lookups keep
        working)."""
        if self._handle is not None:
            if not self.read_only and self._idx_dirty:
                try:
                    self._write_index()
                except OSError:  # pragma: no cover - index is a cache
                    pass
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "EvalStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        mode = "ro" if self.read_only else "rw"
        return (f"EvalStore({str(self.path)!r}, {mode}, "
                f"{len(self)} evaluations)")
