"""Persistent evaluation store: durability, addressing, warm-start.

The store's contract mirrors the campaign-sharing one: an entry is only
ever reused under an exactly equal context salt plus an exact content
key compare, so warm-starting can change *where* bits come from but
never what they are.  These tests pin the file format down (truncated
or corrupted files are rejected loudly), the collision fallback, the
shard/merge path used by pooled campaigns, and bit-identity of
warm-started searches against cold ones.
"""

from __future__ import annotations

import os
import pickle
import struct

import pytest

from suite_helpers import build_hw_evaluator as make_evaluator
from suite_helpers import legacy_memo_frame, normalised_run, priced_w1_designs
from repro.core import (
    Campaign,
    CampaignConfig,
    EvalService,
    EvalStore,
    NASAIC,
    NASAICConfig,
    Scenario,
)
import repro.core.store as store_module
from repro.core.store import STORE_MAGIC

#: Header of a version-1 store (every record pickled).
V1_MAGIC = b"repro-evalstore v1\n"
from repro.cost import CostModel
from repro.workloads import w1

NASAIC_CONFIG = dict(episodes=3, hw_steps=2, seed=11, joint_batch=2)


def design_key(index: int) -> tuple:
    """Content key of the ``index``-th priced W1 design."""
    return priced_w1_designs()[index][0]


def evaluation_of(index: int):
    """The evaluation priced for :func:`design_key` ``(index)``."""
    return priced_w1_designs()[index][1]


def normalised(result) -> dict:
    """Run record stripped of cache/timing accounting: the facts that
    must not depend on which tier answered."""
    return normalised_run(result, drop_accounting=True)


@pytest.fixture(scope="module")
def workload():
    return w1()


# ----------------------------------------------------------------------
# File format and addressing
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_put_get_reopen(self, tmp_path):
        path = tmp_path / "store.bin"
        with EvalStore(path) as store:
            assert store.put("salt", "d1", design_key(1), evaluation_of(1))
            assert store.get("salt", "d1", design_key(1)) == evaluation_of(1)
            assert len(store) == 1
        with EvalStore(path) as reopened:
            assert reopened.get("salt", "d1",
                                design_key(1)) == evaluation_of(1)
            assert len(reopened) == 1

    def test_duplicate_put_not_rewritten(self, tmp_path):
        path = tmp_path / "store.bin"
        with EvalStore(path) as store:
            assert store.put("salt", "d1", design_key(1), evaluation_of(1))
            size = path.stat().st_size
            assert not store.put("salt", "d1", design_key(1), evaluation_of(1))
            assert path.stat().st_size == size

    def test_salt_namespacing(self, tmp_path):
        with EvalStore(tmp_path / "s.bin") as store:
            store.put("salt-a", "d1", design_key(0), evaluation_of(0))
            assert store.get("salt-b", "d1", design_key(0)) is None
            assert store.get("salt-a", "d1", design_key(0)) == evaluation_of(0)

    def test_digest_collision_falls_back_to_full_key(self, tmp_path):
        """Two different contents sharing one digest coexist; the exact
        key compare disambiguates and unknown keys stay misses."""
        with EvalStore(tmp_path / "s.bin") as store:
            store.put("salt", "dd", design_key(0), evaluation_of(0))
            store.put("salt", "dd", design_key(1), evaluation_of(1))
            assert store.get("salt", "dd", design_key(0)) == evaluation_of(0)
            assert store.get("salt", "dd", design_key(1)) == evaluation_of(1)
            assert store.get("salt", "dd", design_key(2)) is None
        with EvalStore(tmp_path / "s.bin") as reopened:
            assert reopened.get("salt", "dd",
                                design_key(1)) == evaluation_of(1)
            assert len(reopened) == 2

    def test_put_memo_stub_refuses(self, tmp_path, workload):
        """The store keeps only evaluations: the retired ``put_memo``
        name raises and appends nothing, and ``flush_store`` has
        nothing to flush."""
        path = tmp_path / "s.bin"
        with EvalStore(path) as store:
            store.put("salt", "d1", design_key(1), evaluation_of(1))
            size = path.stat().st_size
            with pytest.raises(TypeError, match="only evaluations"):
                store.put_memo("params", {"k1": 1})
            service = EvalService(make_evaluator(workload), store=store)
            assert service.flush_store() == 0
            assert path.stat().st_size == size

    def test_intra_batch_duplicates_written_once(self, tmp_path):
        with EvalStore(tmp_path / "s.bin") as store:
            entry = ("s", "d", design_key(0), evaluation_of(0))
            assert store.put_many([entry, entry]) == 1
        with EvalStore(tmp_path / "s.bin") as reopened:
            assert len(reopened) == 1

    def test_failed_append_does_not_poison_index(self, tmp_path,
                                                 monkeypatch):
        """If the durable append fails, the store must keep reporting
        the entries as absent so a retry rewrites them — indexing
        before the write would make the retry silently skip."""
        import repro.core.store as store_module

        store = EvalStore(tmp_path / "s.bin")
        monkeypatch.setattr(
            store_module, "durable_append",
            lambda handle, blob: (_ for _ in ()).throw(
                OSError("disk full")))
        with pytest.raises(OSError, match="disk full"):
            store.put("s", "d", design_key(0), evaluation_of(0))
        assert store.get("s", "d", design_key(0)) is None
        assert ("s", "d", design_key(0)) not in store
        monkeypatch.undo()
        # The retry really writes.
        assert store.put("s", "d", design_key(0), evaluation_of(0))
        store.close()
        with EvalStore(tmp_path / "s.bin") as reopened:
            assert reopened.get("s", "d", design_key(0)) == evaluation_of(0)

    def test_non_evaluation_value_refused_before_any_byte(self,
                                                          tmp_path):
        path = tmp_path / "s.bin"
        with EvalStore(path) as store:
            store.put("s", "d1", design_key(1), evaluation_of(1))
            size = path.stat().st_size
            with pytest.raises(TypeError, match="HardwareEvaluation"):
                store.put("s", "d2", design_key(2), {"value": 2})
            with pytest.raises(TypeError, match="HardwareEvaluation"):
                store.put_many([("s", "d3", design_key(3), evaluation_of(3)),
                                ("s", "d4", design_key(4), "v4")])
            assert path.stat().st_size == size
            assert len(store) == 1
            assert store.get("s", "d3", design_key(3)) is None

    def test_missing_file_is_empty_store(self, tmp_path):
        with EvalStore(tmp_path / "absent.bin") as store:
            assert len(store) == 0
            assert store.get("s", "d", design_key(0)) is None

    def test_zero_length_file_is_empty_store(self, tmp_path):
        """A crash between file creation and the first durable append
        leaves zero bytes: nothing was promised, so it loads as empty
        and recovers into a normal store on the next append."""
        path = tmp_path / "empty.bin"
        path.touch()
        with EvalStore(path) as store:
            assert len(store) == 0
            store.put("s", "d", design_key(0), evaluation_of(0))
        with EvalStore(path) as reopened:
            assert reopened.get("s", "d", design_key(0)) == evaluation_of(0)


try:
    import fcntl  # noqa: F401  (lock tests need a flock platform)
    HAVE_FLOCK = True
except ImportError:  # pragma: no cover - non-POSIX platform
    HAVE_FLOCK = False

needs_flock = pytest.mark.skipif(not HAVE_FLOCK,
                                 reason="fcntl.flock unavailable")


@needs_flock
class TestWriterLock:
    """The single-writer contract is enforced, not conventional: the
    second writer on a path fails loudly at open, readers are fenced
    off an exclusively-locked file, and the campaign pool's
    downgrade/upgrade dance admits shared readers mid-campaign."""

    def test_second_writer_fails_loudly(self, tmp_path):
        path = tmp_path / "locked.bin"
        with EvalStore(path) as first:
            first.put("s", "d", design_key(0), evaluation_of(0))
            with pytest.raises(ValueError, match="repro serve"):
                EvalStore(path)

    def test_lock_released_on_close(self, tmp_path):
        path = tmp_path / "locked.bin"
        store = EvalStore(path)
        store.put("s", "d", design_key(0), evaluation_of(0))
        store.close()
        with EvalStore(path) as second:
            second.put("s", "d2", design_key(2), evaluation_of(2))
        with EvalStore(path, read_only=True) as reader:
            assert len(reader) == 2

    def test_lock_released_when_open_fails(self, tmp_path):
        """A writer open that dies during load (corrupt file) must not
        leave the path locked behind the raised error."""
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a store at all\n")
        with pytest.raises(ValueError, match="not a repro evaluation"):
            EvalStore(path)
        path.unlink()
        with EvalStore(path) as recovered:  # path is free again
            recovered.put("s", "d", design_key(0), evaluation_of(0))

    def test_reader_fails_while_writer_holds_exclusive(self, tmp_path):
        path = tmp_path / "locked.bin"
        with EvalStore(path) as writer:
            writer.put("s", "d", design_key(0), evaluation_of(0))
            with pytest.raises(ValueError, match="locked by a writer"):
                EvalStore(path, read_only=True)

    def test_downgrade_admits_readers_then_upgrade(self, tmp_path):
        path = tmp_path / "locked.bin"
        with EvalStore(path) as writer:
            writer.put("s", "d", design_key(0), evaluation_of(0))
            writer.downgrade_lock()
            with EvalStore(path, read_only=True) as reader:
                assert reader.get("s", "d",
                                  design_key(0)) == evaluation_of(0)
                # The reader's shared lock lives only for the load, so
                # the writer can re-take its exclusive claim at once.
                writer.upgrade_lock()
            with pytest.raises(ValueError, match="repro serve"):
                EvalStore(path)

    def test_append_after_close_retakes_lock(self, tmp_path):
        path = tmp_path / "locked.bin"
        store = EvalStore(path)
        store.put("s", "d1", design_key(1), evaluation_of(1))
        store.close()
        blocker = EvalStore(path)
        with pytest.raises(ValueError, match="repro serve"):
            store.put("s", "d2", design_key(2), evaluation_of(2))
        blocker.close()
        # Lock free: the append works.
        store.put("s", "d2", design_key(2), evaluation_of(2))
        store.close()
        with EvalStore(path, read_only=True) as reader:
            assert len(reader) == 2


class TestCorruption:
    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a store at all\n")
        with pytest.raises(ValueError, match="not a repro evaluation"):
            EvalStore(path)

    def test_truncated_length_prefix_rejected(self, tmp_path):
        path = tmp_path / "trunc.bin"
        with EvalStore(path) as store:
            store.put("s", "d", design_key(0), evaluation_of(0))
        path.write_bytes(path.read_bytes()[:len(STORE_MAGIC) + 3])
        with pytest.raises(ValueError, match="corrupted"):
            EvalStore(path)

    def test_truncated_record_body_rejected(self, tmp_path):
        path = tmp_path / "trunc.bin"
        with EvalStore(path) as store:
            store.put("s", "d", design_key(0), evaluation_of(0))
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(ValueError, match="truncated record body"):
            EvalStore(path)

    def test_garbage_record_rejected(self, tmp_path):
        path = tmp_path / "garbage.bin"
        blob = b"\x00garbage-not-pickle\xff"
        path.write_bytes(STORE_MAGIC + struct.pack("<Q", len(blob)) + blob)
        with pytest.raises(ValueError, match="corrupted"):
            EvalStore(path)

    def test_non_record_pickle_rejected(self, tmp_path):
        path = tmp_path / "odd.bin"
        blob = pickle.dumps([1, 2, 3])
        path.write_bytes(STORE_MAGIC + struct.pack("<Q", len(blob)) + blob)
        with pytest.raises(ValueError, match="corrupted"):
            EvalStore(path)

    @staticmethod
    def _two_record_store(tmp_path):
        """A store with two records, plus the byte offset where the
        second record's length prefix starts."""
        path = tmp_path / "tail.bin"
        with EvalStore(path) as store:
            store.put("s", "d1", design_key(1), evaluation_of(1))
            boundary = path.stat().st_size
            store.put("s", "d2", design_key(2), evaluation_of(2))
        return path, boundary

    def test_last_record_body_truncation_rejects_whole_store(
            self, tmp_path):
        """A crash mid-way through the *last* record must not half-load
        the earlier, intact records: the whole open fails loudly."""
        path, _ = self._two_record_store(tmp_path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ValueError, match="truncated record body"):
            EvalStore(path)

    def test_last_record_prefix_truncation_rejects_whole_store(
            self, tmp_path):
        """Same with the cut landing *inside* the last record's length
        prefix (4 of its 8 bytes survive)."""
        path, boundary = self._two_record_store(tmp_path)
        path.write_bytes(path.read_bytes()[:boundary + 4])
        with pytest.raises(ValueError,
                           match="truncated record length prefix"):
            EvalStore(path)

    def test_truncation_exactly_at_record_boundary_is_clean(
            self, tmp_path):
        """A cut at a record boundary loses only the later record — the
        prefix of durable appends before it is a valid store."""
        path, boundary = self._two_record_store(tmp_path)
        path.write_bytes(path.read_bytes()[:boundary])
        with EvalStore(path) as store:
            assert store.get("s", "d1", design_key(1)) == evaluation_of(1)
            assert store.get("s", "d2", design_key(2)) is None
            assert len(store) == 1


class TestRecovery:
    """``recover=True``: keep the durable prefix bit-exact, quarantine
    the torn tail to a ``.corrupt`` sidecar, stay appendable."""

    @staticmethod
    def _torn_store(tmp_path, cut: int):
        """A two-record store with `cut` bytes chopped off the end.
        Returns (path, durable_boundary, original_bytes)."""
        path = tmp_path / "torn.bin"
        with EvalStore(path) as store:
            store.put("s", "d1", design_key(1), evaluation_of(1))
            boundary = path.stat().st_size
            store.put("s", "d2", design_key(2), evaluation_of(2))
        original = path.read_bytes()
        path.write_bytes(original[:-cut])
        return path, boundary, original

    def test_torn_body_keeps_prefix_and_quarantines_tail(self, tmp_path):
        path, boundary, original = self._torn_store(tmp_path, cut=3)
        with EvalStore(path, recover=True) as store:
            assert store.get("s", "d1", design_key(1)) == evaluation_of(1)
            assert store.get("s", "d2", design_key(2)) is None
            assert len(store) == 1
            assert store.recovered is not None
            assert store.recovered["kept_bytes"] == boundary
            assert "truncated record body" in store.recovered["detail"]
        # Durable prefix untouched, torn tail preserved in the sidecar.
        assert path.read_bytes() == original[:boundary]
        sidecar = path.with_name(path.name + ".corrupt")
        assert sidecar.read_bytes() == original[boundary:-3]

    def test_torn_length_prefix_recovers_too(self, tmp_path):
        """The cut lands *inside* the second record's length prefix:
        only 4 of its 8 bytes survive."""
        path = tmp_path / "torn2.bin"
        with EvalStore(path) as store:
            store.put("s", "d1", design_key(1), evaluation_of(1))
            boundary = path.stat().st_size
            store.put("s", "d2", design_key(2), evaluation_of(2))
        path.write_bytes(path.read_bytes()[:boundary + 4])
        with EvalStore(path, recover=True) as store:
            assert len(store) == 1
            assert store.recovered["kept_bytes"] == boundary
            assert ("truncated record length prefix"
                    in store.recovered["detail"])
        assert path.stat().st_size == boundary

    def test_recovered_store_stays_appendable(self, tmp_path):
        path, _, _ = self._torn_store(tmp_path, cut=3)
        with EvalStore(path, recover=True) as store:
            assert store.put("s", "d3", design_key(3), evaluation_of(3))
        with EvalStore(path, read_only=True) as reopened:
            assert reopened.get("s", "d1",
                                design_key(1)) == evaluation_of(1)
            assert reopened.get("s", "d3",
                                design_key(3)) == evaluation_of(3)
            assert len(reopened) == 2

    def test_clean_store_recovery_is_a_noop(self, tmp_path):
        path = tmp_path / "clean.bin"
        with EvalStore(path) as store:
            store.put("s", "d", design_key(0), evaluation_of(0))
        before = path.read_bytes()
        with EvalStore(path, recover=True) as store:
            assert store.recovered is None
            assert len(store) == 1
        assert path.read_bytes() == before
        assert not path.with_name(path.name + ".corrupt").exists()

    def test_recover_with_read_only_is_refused(self, tmp_path):
        path = tmp_path / "s.bin"
        with EvalStore(path) as store:
            store.put("s", "d", design_key(0), evaluation_of(0))
        with pytest.raises(ValueError, match="recover=True rewrites"):
            EvalStore(path, read_only=True, recover=True)

    def test_mid_file_garbage_quarantines_from_bad_record(self, tmp_path):
        """Garbage *between* valid records cuts at the garbage: records
        behind it are unreachable (appends are strictly sequential, so
        they were never durably acknowledged in order)."""
        path = tmp_path / "mid.bin"
        with EvalStore(path) as store:
            store.put("s", "d1", design_key(1), evaluation_of(1))
            boundary = path.stat().st_size
            store.put("s", "d2", design_key(2), evaluation_of(2))
        data = path.read_bytes()
        blob = b"\xffgarbage"
        path.write_bytes(data[:boundary]
                         + struct.pack("<Q", len(blob)) + blob
                         + data[boundary:])
        with EvalStore(path, recover=True) as store:
            assert len(store) == 1
            assert store.recovered["kept_bytes"] == boundary
        assert path.stat().st_size == boundary

    def test_torn_header_recovers_to_empty_store(self, tmp_path):
        path = tmp_path / "header.bin"
        path.write_bytes(STORE_MAGIC[:4])
        with EvalStore(path, recover=True) as store:
            assert len(store) == 0
            assert store.recovered["kept_bytes"] == 0
            assert "torn file header" in store.recovered["detail"]
            assert store.put("s", "d", design_key(0), evaluation_of(0))
        with EvalStore(path, read_only=True) as reader:
            assert len(reader) == 1

    def test_wrong_magic_still_rejected_under_recover(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a store at all, but long enough\n")
        with pytest.raises(ValueError, match="not a repro evaluation"):
            EvalStore(path, recover=True)


class TestShards:
    def test_read_only_refuses_appends(self, tmp_path):
        path = tmp_path / "s.bin"
        with EvalStore(path) as store:
            store.put("s", "d", design_key(0), evaluation_of(0))
        with EvalStore(path, read_only=True) as frozen:
            with pytest.raises(ValueError, match="read-only"):
                frozen.put("s", "d2", design_key(2), evaluation_of(2))

    def test_parent_overlay_and_merge(self, tmp_path):
        main_path = tmp_path / "main.bin"
        with EvalStore(main_path) as main:
            main.put("s", "d1", design_key(1), evaluation_of(1))
        with EvalStore(main_path, read_only=True) as parent, \
                EvalStore(tmp_path / "main.bin.shard0",
                          parent=parent) as shard:
            # Reads see through to the parent; appends go to the shard.
            assert shard.get("s", "d1", design_key(1)) == evaluation_of(1)
            shard.put("s", "d2", design_key(2), evaluation_of(2))
        with EvalStore(main_path, read_only=True) as reader:
            assert reader.get("s", "d2", design_key(2)) is None
        with EvalStore(main_path) as main, \
                EvalStore(tmp_path / "main.bin.shard0",
                          read_only=True) as shard:
            added = main.merge_from(shard)
            assert added == 1  # the parent's entry is not re-merged
            assert main.get("s", "d2", design_key(2)) == evaluation_of(2)

    def test_merge_from_with_overlapping_keys(self, tmp_path):
        """Keys present in both stores are neither duplicated nor
        rewritten on disk; only genuinely new entries are appended."""
        main_path = tmp_path / "main.bin"
        with EvalStore(main_path) as main:
            main.put("s", "d1", design_key(1), evaluation_of(1))
            main.put("s", "d2", design_key(2), evaluation_of(2))
        with EvalStore(tmp_path / "shard.bin") as shard:
            shard.put("s", "d2", design_key(2), evaluation_of(2))  # overlap
            shard.put("s", "d3", design_key(3), evaluation_of(3))  # new
        size_before = main_path.stat().st_size
        with EvalStore(main_path) as main, \
                EvalStore(tmp_path / "shard.bin", read_only=True) as shard:
            added = main.merge_from(shard)
        assert added == 1
        assert main_path.stat().st_size > size_before
        with EvalStore(main_path, read_only=True) as reopened:
            assert len(reopened) == 3
            assert reopened.get("s", "d2",
                                design_key(2)) == evaluation_of(2)
            assert reopened.get("s", "d3",
                                design_key(3)) == evaluation_of(3)
        # Merging the same shard again appends nothing at all.
        size_after = main_path.stat().st_size
        with EvalStore(main_path) as again, \
                EvalStore(tmp_path / "shard.bin", read_only=True) as shard:
            assert again.merge_from(shard) == 0
        assert main_path.stat().st_size == size_after

    def test_parent_file_vanishing_after_open_is_harmless(self, tmp_path):
        """The parent overlay is loaded into memory on open: deleting
        its file between open and read must not break lookups through
        the child (the campaign pool's merge step unlinks shards while
        sibling readers may still hold them)."""
        parent_path = tmp_path / "parent.bin"
        with EvalStore(parent_path) as writer:
            writer.put("s", "d1", design_key(1), evaluation_of(1))
        parent = EvalStore(parent_path, read_only=True)
        child = EvalStore(tmp_path / "child.bin", parent=parent)
        parent_path.unlink()  # vanishes between open and first read
        assert child.get("s", "d1", design_key(1)) == evaluation_of(1)
        assert len(child) == 1
        assert ("s", "d1", design_key(1)) in child
        # The child's own appends still work with the parent file gone.
        child.put("s", "d2", design_key(2), evaluation_of(2))
        assert child.get("s", "d2", design_key(2)) == evaluation_of(2)
        child.close()
        parent.close()


# ----------------------------------------------------------------------
# EvalService integration
# ----------------------------------------------------------------------
class TestServiceTier:
    def test_warm_service_bit_identical_and_counted(self, tmp_path,
                                                    workload):
        from repro.core.evalservice import design_content
        from repro.utils.rng import new_rng
        from repro.accel import AllocationSpace

        alloc = AllocationSpace()
        rng = new_rng(3)
        pairs = []
        for _ in range(4):
            nets = tuple(t.space.decode(t.space.random_indices(rng))
                         for t in workload.tasks)
            pairs.append((nets, alloc.random_design(rng)))
        store = EvalStore(tmp_path / "s.bin")
        cold_service = EvalService(make_evaluator(workload), store=store)
        cold = cold_service.evaluate_many(pairs)
        assert cold_service.stats.store_hits == 0
        assert len(store) == len({design_content(*p) for p in pairs})
        warm_service = EvalService(make_evaluator(workload), store=store)
        warm = warm_service.evaluate_many(pairs)
        assert warm == cold  # frozen dataclasses: structural equality
        assert warm_service.stats.misses == 0
        assert warm_service.stats.store_hits == len(store)
        store.close()

    def test_store_serves_with_cache_disabled(self, tmp_path, workload):
        from repro.utils.rng import new_rng
        from repro.accel import AllocationSpace

        alloc = AllocationSpace()
        rng = new_rng(5)
        nets = tuple(t.space.decode(t.space.random_indices(rng))
                     for t in workload.tasks)
        pair = (nets, alloc.random_design(rng))
        store = EvalStore(tmp_path / "s.bin")
        with EvalService(make_evaluator(workload), store=store) as seeder:
            reference = seeder.evaluate_hardware(*pair)
        service = EvalService(make_evaluator(workload), cache_size=0,
                              store=store)
        assert service.evaluate_many([pair, pair]) == [reference,
                                                       reference]
        assert service.stats.store_hits == 2
        assert service.stats.misses == 0
        store.close()

    def test_digest_collisions_still_price_correctly(self, tmp_path,
                                                     workload,
                                                     monkeypatch):
        """Force every digest to collide: the full-key check must keep
        every answer exact (collisions degrade to bucket scans)."""
        import repro.core.evalservice as es
        from repro.utils.rng import new_rng
        from repro.accel import AllocationSpace

        monkeypatch.setattr(es.EvalService, "_key_digest",
                            lambda self, key: "constant")
        alloc = AllocationSpace()
        rng = new_rng(7)
        pairs = []
        for _ in range(3):
            nets = tuple(t.space.decode(t.space.random_indices(rng))
                         for t in workload.tasks)
            pairs.append((nets, alloc.random_design(rng)))
        reference_eval = make_evaluator(workload)
        references = [reference_eval.evaluate_hardware(*p) for p in pairs]
        store = EvalStore(tmp_path / "s.bin")
        with EvalService(make_evaluator(workload), store=store) as cold:
            assert cold.evaluate_many(pairs) == references
        with EvalService(make_evaluator(workload), store=store) as warm:
            assert warm.evaluate_many(pairs) == references
            assert warm.stats.store_hits == len(pairs)
        store.close()

    def test_attach_loads_no_cost_cells(self, tmp_path, workload):
        """Attaching a store holding old cost-memo records loads none of
        them: a miss prices its cells afresh, and answers equal a cold
        service's."""
        from suite_helpers import sample_design_pairs

        pairs = sample_design_pairs(workload, n=3, seed=1)
        path = tmp_path / "s.bin"
        with EvalStore(path) as store:
            EvalService(make_evaluator(workload),
                        store=store).evaluate_many(pairs[:2])
        with open(path, "ab") as handle:
            handle.write(legacy_memo_frame(0))
        with EvalStore(path) as store:
            warm = EvalService(make_evaluator(workload), store=store)
            assert warm.evaluator.cost_model.priced_cells == 0
            got = warm.evaluate_many(pairs)
            assert (warm.stats.store_hits, warm.stats.misses) == (2, 1)
        assert got == EvalService(make_evaluator(workload)).evaluate_many(
            pairs)

    def test_record_with_a_schedule_still_answers(self, tmp_path,
                                                  workload):
        """Stores written while evaluations still carried the HAP list
        schedule hold HAPResults that pickle a ``schedule`` field; such
        a (version-1, pickled) record is answered through EvalService
        and equals fresh pricing."""
        import dataclasses

        from repro.accel import AllocationSpace
        from repro.core.evalservice import design_content, design_digest
        from repro.mapping import MappingProblem, list_schedule
        from repro.utils.rng import new_rng

        rng = new_rng(9)
        nets = tuple(t.space.decode(t.space.random_indices(rng))
                     for t in workload.tasks)
        pair = (nets, AllocationSpace().random_design(rng))
        fresh = make_evaluator(workload).evaluate_hardware(*pair)
        hap = dataclasses.replace(fresh.hap)
        problem = MappingProblem.build(*pair, CostModel())
        object.__setattr__(hap, "schedule",
                           list_schedule(problem, hap.assignment))
        old_layout = dataclasses.replace(fresh, hap=hap)
        assert "schedule" in vars(pickle.loads(pickle.dumps(old_layout)).hap)
        key = design_content(*pair)
        path = tmp_path / "s.bin"
        salt = EvalService(make_evaluator(workload)).context_salt
        path.write_bytes(V1_MAGIC + raw_record(
            salt, design_digest(*pair, salt=salt), key, old_layout))
        with EvalStore(path) as store:
            service = EvalService(make_evaluator(workload), store=store)
            assert service.evaluate_many([pair]) == [fresh]
            assert (service.stats.store_hits, service.stats.misses) == (1, 0)


class TestRecordFormats:
    """Version-2 files hold codec records; version-1 files (every record
    pickled) still answer bit-identically, upgrade their magic before a
    writer appends, and compact into version-2 files."""

    @staticmethod
    def priced(workload, n=4, seed=5):
        from suite_helpers import sample_design_pairs
        from repro.core.evalservice import design_content, design_digest

        pairs = sample_design_pairs(workload, n=n, seed=seed)
        service = EvalService(make_evaluator(workload))
        evaluations = service.evaluate_many(pairs)
        salt = service.context_salt
        return [(salt, design_digest(*pair, salt=salt),
                 design_content(*pair), evaluation)
                for pair, evaluation in zip(pairs, evaluations)]

    def v1_store(self, tmp_path, entries):
        path = tmp_path / "v1.bin"
        path.write_bytes(V1_MAGIC + b"".join(
            raw_record(*entry) for entry in entries))
        return path

    def test_new_files_carry_codec_records_not_pickled_designs(
            self, tmp_path, workload):
        entries = self.priced(workload)
        path = tmp_path / "v2.bin"
        with EvalStore(path) as store:
            store.put_many(entries)
        data = path.read_bytes()
        assert data.startswith(STORE_MAGIC)
        assert data[len(STORE_MAGIC) + 8] == 0x02  # first record's tag
        for name in (b"HeterogeneousAccelerator", b"NetworkArch",
                     b"HardwareEvaluation"):
            assert name not in data
        with EvalStore(path, read_only=True) as reopened:
            for salt, digest, key, evaluation in entries:
                assert reopened.get(salt, digest, key) == evaluation

    def test_version_1_store_answers_bit_identically(self, tmp_path,
                                                     workload):
        entries = self.priced(workload)
        path = self.v1_store(tmp_path, entries)
        with EvalStore(path, read_only=True) as store:
            assert len(store) == len(entries)
            for salt, digest, key, evaluation in entries:
                got = store.get(salt, digest, key)
                assert got == evaluation
                assert pickle.dumps(got) == pickle.dumps(evaluation)
        assert path.read_bytes().startswith(V1_MAGIC), \
            "a reader must not rewrite the file"

    def test_writer_upgrades_the_magic_before_appending(self, tmp_path,
                                                        workload):
        entries = self.priced(workload, n=6)
        path = self.v1_store(tmp_path, entries[:3])
        original = path.read_bytes()
        with EvalStore(path) as store:
            assert path.read_bytes() == original, \
                "opening for writing alone changes nothing"
            assert store.put_many(entries[3:]) == 3
        data = path.read_bytes()
        assert data.startswith(STORE_MAGIC)
        # The version-1 records stay byte-exact behind the new magic.
        assert data[len(STORE_MAGIC):len(original)] == \
            original[len(V1_MAGIC):]
        with EvalStore(path, read_only=True) as reopened:
            assert len(reopened) == 6
            for salt, digest, key, evaluation in entries:
                assert reopened.get(salt, digest, key) == evaluation

    def test_version_1_store_compacts_into_version_2(self, tmp_path,
                                                     workload):
        entries = self.priced(workload)
        path = tmp_path / "v1.bin"
        path.write_bytes(V1_MAGIC + b"".join(
            raw_record(*entry) for entry in entries + entries[:2]))
        with EvalStore(path) as store:
            assert store.redundant_records == 2
            report = store.compact()
            assert report["eval_duplicates_dropped"] == 2
        data = path.read_bytes()
        assert data == STORE_MAGIC + b"".join(
            raw_record(*entry) for entry in entries), \
            "compaction copies version-1 records byte-exact"
        with EvalStore(path, read_only=True) as reopened:
            for salt, digest, key, evaluation in entries:
                assert reopened.get(salt, digest, key) == evaluation

    def test_lookups_never_unpickle_codec_records(self, tmp_path, workload,
                                                  monkeypatch):
        """A store filled by EvalService, with the pickled memo records
        an older version appended between its evaluations, reopened
        through a fresh sidecar answers every key through ``get``,
        ``iter_evaluations`` and ``merge_from`` with unpickling
        disabled."""
        import repro.core.store as store_module
        from suite_helpers import sample_design_pairs
        from repro.core.evalservice import design_content, design_digest

        pairs = sample_design_pairs(workload, n=6, seed=17)
        path = tmp_path / "s.bin"
        evaluations = []
        for chunk in (pairs[:3], pairs[3:]):
            with EvalStore(path) as store:
                svc = EvalService(make_evaluator(workload), store=store)
                evaluations += svc.evaluate_many(chunk)
            with open(path, "ab") as handle:
                handle.write(legacy_memo_frame(len(evaluations)))
        salt = svc.context_salt
        digests = [design_digest(*pair, salt=salt) for pair in pairs]
        EvalStore(path).close()  # re-index: the scan reads the memos
        store = EvalStore(path, read_only=True)
        assert store.index_used and store.scanned_records == 0
        assert store.redundant_records == 2

        def refuse(*_args, **_kwargs):
            raise AssertionError("pickle.loads called")

        monkeypatch.setattr(store_module.pickle, "loads", refuse)
        for pair, digest, evaluation in zip(pairs, digests, evaluations):
            assert store.get(salt, digest, design_content(*pair)) == \
                evaluation
        want = {design_content(*pair): evaluation
                for pair, evaluation in zip(pairs, evaluations)}
        assert dict(store.iter_evaluations(salt)) == want
        with EvalStore(tmp_path / "merged.bin") as merged:
            assert merged.merge_from(store) == len(pairs)
            assert dict(merged.iter_evaluations(salt)) == want
        store.close()

    def test_legacy_file_with_memo_records(self, tmp_path, workload):
        """A version-2 file written while the cost memo was persisted —
        codec evaluation records with pickled memo records between
        them, framed by hand — answers bit-identically, skips the memo
        records on every read path, and loses them to compaction."""
        entries = self.priced(workload, n=5)
        frames = [legacy_memo_frame(0)]
        for index, entry in enumerate(entries):
            body = store_module._eval_body(*entry)
            frames += [struct.pack("<Q", len(body)) + body,
                       legacy_memo_frame(index + 1)]
        path = tmp_path / "legacy.bin"
        path.write_bytes(STORE_MAGIC + b"".join(frames))
        memos = len(entries) + 1

        def check_answers(store):
            assert len(store) == len(entries)
            for salt, digest, key, evaluation in entries:
                got = store.get(salt, digest, key)
                assert pickle.dumps(got) == pickle.dumps(evaluation)
            salt = entries[0][0]
            assert list(store.iter_evaluations(salt)) == [
                (key, evaluation) for _, _, key, evaluation in entries]

        with EvalStore(path, read_only=True) as store:
            assert store.redundant_records == memos
            check_answers(store)
            with EvalStore(tmp_path / "merged.bin") as merged:
                assert merged.merge_from(store) == len(entries)
                check_answers(merged)
                assert merged.redundant_records == 0
        with EvalStore(path) as store:
            report = store.compact()
            assert report["memo_records_dropped"] == memos
            assert report["records_dropped"] == memos
            check_answers(store)
        with EvalStore(path, read_only=True) as store:
            assert store.redundant_records == 0
            check_answers(store)
        assert path.read_bytes() == STORE_MAGIC + b"".join(frames[1::2]), \
            "compaction keeps the evaluation records byte-exact"

    def test_truncated_codec_record_is_corruption(self, tmp_path,
                                                  workload):
        (entry,) = self.priced(workload, n=1)
        path = tmp_path / "v2.bin"
        with EvalStore(path) as store:
            store.put_many([entry])
        data = path.read_bytes()
        body = data[len(STORE_MAGIC) + 8:-1]
        path.write_bytes(STORE_MAGIC + struct.pack("<Q", len(body)) + body)
        with pytest.raises(ValueError, match="corrupted"):
            EvalStore(path)


# ----------------------------------------------------------------------
# Whole-search warm start
# ----------------------------------------------------------------------
class TestWarmStartSearch:
    def test_nasaic_warm_start_bit_identical(self, tmp_path, workload):
        reference = normalised(
            NASAIC(workload, config=NASAICConfig(**NASAIC_CONFIG)).run())
        path = tmp_path / "store.bin"
        with EvalStore(path) as store:
            cold = NASAIC(workload, config=NASAICConfig(**NASAIC_CONFIG),
                          store=store)
            cold_result = cold.run()
            cold.close()
            assert cold.evalservice.stats.store_hits == 0
        assert normalised(cold_result) == reference
        # A "fresh session": reopen the file, rebuild everything.
        with EvalStore(path) as store:
            warm = NASAIC(workload, config=NASAICConfig(**NASAIC_CONFIG),
                          store=store)
            warm_result = warm.run()
            warm.close()
            stats = warm.evalservice.stats
            assert stats.misses == 0
            assert stats.store_hits > 0
        assert normalised(warm_result) == reference


# ----------------------------------------------------------------------
# Campaign integration
# ----------------------------------------------------------------------
class TestCampaignStore:
    GRID = tuple(Scenario("W1", "mc", 6, seed=s) for s in (3, 4))

    def test_sequential_campaign_persists_and_warm_starts(self, tmp_path):
        path = tmp_path / "campaign.bin"
        config = CampaignConfig(scenarios=self.GRID, store_path=path)
        with Campaign(CampaignConfig(scenarios=self.GRID)) as baseline:
            want = [normalised(o.result) for o in baseline.run().outcomes]
        with Campaign(config) as cold:
            cold_result = cold.run()
        assert [normalised(o.result)
                for o in cold_result.outcomes] == want
        assert cold_result.cache["store_hits"] == 0
        assert path.exists()
        with Campaign(config) as warm:
            warm_result = warm.run()
        assert [normalised(o.result)
                for o in warm_result.outcomes] == want
        assert warm_result.cache["misses"] == 0
        assert warm_result.cache["store_hits"] > 0

    def test_pool_campaign_shards_and_merges(self, tmp_path):
        path = tmp_path / "pool.bin"
        config = CampaignConfig(scenarios=self.GRID, workers=2,
                                store_path=path)
        with Campaign(config) as pooled:
            pooled.run()
        assert path.exists()
        assert not list(tmp_path.glob("*.shard*")), \
            "shards must be merged and removed"
        with EvalStore(path, read_only=True) as merged:
            assert len(merged) > 0
        # A later sequential campaign warm-starts from the merged store.
        with Campaign(CampaignConfig(scenarios=self.GRID,
                                     store_path=path)) as warm:
            result = warm.run()
        assert result.cache["misses"] == 0
        assert result.cache["store_hits"] > 0


# ----------------------------------------------------------------------
# Offset-index sidecar: staleness, lazy loading, recovery interaction
# ----------------------------------------------------------------------
def raw_record(salt, digest, key, evaluation) -> bytes:
    """A length-prefixed eval record frame, bypassing EvalStore (for
    simulating a writer that never updated the index sidecar)."""
    blob = pickle.dumps({"kind": "eval", "salt": salt, "digest": digest,
                         "key": key, "evaluation": evaluation},
                        protocol=pickle.HIGHEST_PROTOCOL)
    return struct.pack("<Q", len(blob)) + blob


class TestOffsetIndex:
    @staticmethod
    def seeded(tmp_path, n=6):
        path = tmp_path / "indexed.bin"
        with EvalStore(path) as store:
            store.put_many([("s", f"d{i}", design_key(i), evaluation_of(i))
                            for i in range(n)])
        return path

    def test_index_written_on_close_and_trusted_on_reopen(self, tmp_path):
        path = self.seeded(tmp_path)
        store = EvalStore(path, read_only=True)
        assert store.index_path.exists()
        assert store.index_used, "fresh sidecar must be trusted"
        assert store.scanned_records == 0, "open must not decode records"
        assert len(store) == 6
        assert store.get("s", "d3", design_key(3)) == evaluation_of(3)
        store.close()

    def test_unindexed_tail_is_scanned_then_reindexed(self, tmp_path):
        """Records appended behind the sidecar's covered stamp (a
        writer that died before rewriting it) are found by an
        incremental tail scan, not ignored and not a full rebuild."""
        path = self.seeded(tmp_path)
        with open(path, "ab") as handle:
            handle.write(raw_record("s", "d9", design_key(9),
                                    evaluation_of(9)))
        store = EvalStore(path, read_only=True)
        assert store.index_used, "the covered prefix is still good"
        assert store.scanned_records == 1, "only the tail is decoded"
        assert store.get("s", "d9", design_key(9)) == evaluation_of(9)
        assert store.get("s", "d0", design_key(0)) == evaluation_of(0)
        assert len(store) == 7
        store.close()
        # A writer open rewrites the sidecar to cover the tail...
        EvalStore(path).close()
        # ...so the next reader trusts it outright again.
        reindexed = EvalStore(path, read_only=True)
        assert reindexed.index_used and reindexed.scanned_records == 0
        assert len(reindexed) == 7
        reindexed.close()

    def test_mutated_store_rebuilds_never_trusts_sidecar(self, tmp_path):
        """Same size, different bytes: the tail hash must catch a store
        rewritten underneath its sidecar and answer from the records."""
        path_a = tmp_path / "a.bin"
        path_b = tmp_path / "b.bin"
        with EvalStore(path_a) as store:
            store.put("salt-A", "d1", design_key(1), evaluation_of(1))
        with EvalStore(path_b) as store:
            store.put("salt-B", "d1", design_key(1), evaluation_of(1))
        assert path_a.stat().st_size == path_b.stat().st_size
        path_a.write_bytes(path_b.read_bytes())  # sidecar left behind
        store = EvalStore(path_a, read_only=True)
        assert not store.index_used, "stale sidecar must not be trusted"
        assert store.get("salt-B", "d1", design_key(1)) == evaluation_of(1)
        assert store.get("salt-A", "d1", design_key(1)) is None
        store.close()

    def test_truncated_store_forces_full_rebuild(self, tmp_path):
        path = tmp_path / "t.bin"
        with EvalStore(path) as store:
            store.put("s", "d1", design_key(1), evaluation_of(1))
            boundary = path.stat().st_size
            store.put("s", "d2", design_key(2), evaluation_of(2))
        with open(path, "r+b") as handle:
            handle.truncate(boundary)  # sidecar now covers beyond EOF
        store = EvalStore(path, read_only=True)
        assert not store.index_used
        assert len(store) == 1
        assert store.get("s", "d1", design_key(1)) == evaluation_of(1)
        assert store.get("s", "d2", design_key(2)) is None
        store.close()

    @staticmethod
    def old_sidecar(path, version: int) -> None:
        """Rewrite ``path``'s sidecar in an earlier layout over the same
        columns: version 1 pickled its header and memo map, version 2
        carried a struct header and memo-offset map."""
        with EvalStore(path, read_only=True) as store:
            idx = store.index_path
            index = store_module._load_index(idx)
            columns = idx.read_bytes()[store_module._INDEX_ARRAYS:]
        if version == 1:
            header = pickle.dumps({"format": "repro-evalstore-index",
                                   "version": 1,
                                   "covered_bytes": index["covered_bytes"],
                                   "tail_hash": index["tail_hash"].hex(),
                                   "count": index["count"],
                                   "shadowed": index["shadowed"]})
            memo = pickle.dumps({})
            prefix = b"".join((b"repro-evalstore-idx v1\n",
                               struct.pack("<Q", len(header)), header,
                               struct.pack("<Q", len(memo)), memo))
        else:
            name = b"cost-params"
            memo = (struct.pack("<HI", len(name), 1) + name
                    + struct.pack("<Q", len(STORE_MAGIC)))
            prefix = b"".join((b"repro-evalstore-idx v2\n",
                               struct.pack("<Q16sQQQ",
                                           index["covered_bytes"],
                                           index["tail_hash"],
                                           index["count"],
                                           index["shadowed"], len(memo)),
                               memo))
        idx.write_bytes(prefix + b"\0" * (-len(prefix) % 8) + columns)

    def rebuilds_once(self, path) -> None:
        """The first open rebuilds the sidecar from the records, the
        next one trusts the rewritten sidecar, and both answer alike."""
        def answers(store):
            return ([store.get("s", f"d{i}", design_key(i))
                     for i in range(6)], len(store))

        with EvalStore(path) as rebuilt:
            assert not rebuilt.index_used
            first = answers(rebuilt)
        with EvalStore(path, read_only=True) as reopened:
            assert reopened.index_used and reopened.scanned_records == 0
            assert answers(reopened) == first
        assert first == ([evaluation_of(i) for i in range(6)], 6)

    def test_pickled_layout_sidecar_rebuilds_once(self, tmp_path):
        """A version-1 sidecar (pickled header and memo map) fails the
        magic check and is rebuilt once."""
        path = self.seeded(tmp_path)
        self.old_sidecar(path, version=1)
        self.rebuilds_once(path)

    def test_memo_map_layout_sidecar_rebuilds_once(self, tmp_path):
        """A version-2 sidecar (struct header plus memo-offset map) fails
        the magic check and is rebuilt once."""
        path = self.seeded(tmp_path)
        self.old_sidecar(path, version=2)
        self.rebuilds_once(path)

    def test_garbage_sidecar_rebuilds(self, tmp_path):
        path = self.seeded(tmp_path)
        with EvalStore(path, read_only=True) as store:
            idx = store.index_path
        idx.write_bytes(b"not an index sidecar at all")
        store = EvalStore(path, read_only=True)
        assert not store.index_used
        assert len(store) == 6
        assert store.get("s", "d5", design_key(5)) == evaluation_of(5)
        store.close()
        # A writer open repairs the sidecar durably.
        EvalStore(path).close()
        repaired = EvalStore(path, read_only=True)
        assert repaired.index_used and len(repaired) == 6
        repaired.close()

    def test_recovery_rewrites_index_over_quarantined_tail(self, tmp_path):
        """Recovery truncates the store below the sidecar's stamp; the
        recovering writer must leave a sidecar matching the kept prefix
        so the next reader opens without a scan (and without
        re-quarantining anything)."""
        path = tmp_path / "r.bin"
        with EvalStore(path) as store:
            store.put("s", "d1", design_key(1), evaluation_of(1))
            store.put("s", "d2", design_key(2), evaluation_of(2))
        path.write_bytes(path.read_bytes()[:-3])
        with EvalStore(path, recover=True) as store:
            assert store.recovered is not None
            assert len(store) == 1
        reader = EvalStore(path, read_only=True)
        assert reader.index_used and reader.scanned_records == 0
        assert reader.get("s", "d1", design_key(1)) == evaluation_of(1)
        assert len(reader) == 1
        reader.close()
        assert path.with_name(path.name + ".corrupt").exists()

    def test_lazy_get_after_merge_from(self, tmp_path):
        """Merged records answer immediately (pre-index, from the
        in-memory extras) and again after reopening through the
        sidecar."""
        main_path = tmp_path / "main.bin"
        with EvalStore(main_path) as main:
            main.put("s", "d1", design_key(1), evaluation_of(1))
        with EvalStore(tmp_path / "shard.bin") as shard:
            shard.put("s", "d2", design_key(2), evaluation_of(2))
        with EvalStore(main_path) as main, \
                EvalStore(tmp_path / "shard.bin", read_only=True) as shard:
            main.merge_from(shard)
            assert main.get("s", "d2", design_key(2)) == evaluation_of(2)
            assert len(main) == 2
        lazy = EvalStore(main_path, read_only=True)
        assert lazy.index_used and lazy.scanned_records == 0
        assert lazy.get("s", "d2", design_key(2)) == evaluation_of(2)
        assert lazy.get("s", "d1", design_key(1)) == evaluation_of(1)
        lazy.close()


class TestCorruptSidecarSuffixes:
    def test_second_recovery_does_not_overwrite_first_quarantine(
            self, tmp_path):
        """Each recovery quarantines to a *fresh* ``.corrupt`` sidecar
        (``.corrupt``, ``.corrupt.1``, ...): a later torn tail must not
        destroy the forensic copy of an earlier one."""
        path = tmp_path / "twice.bin"
        with EvalStore(path) as store:
            store.put("s", "d1", design_key(1), evaluation_of(1))
            store.put("s", "d2", design_key(2), evaluation_of(2))
        path.write_bytes(path.read_bytes()[:-3])
        with EvalStore(path, recover=True) as store:
            assert store.recovered is not None
            store.put("s", "d3", design_key(3), evaluation_of(3))
        first = path.with_name(path.name + ".corrupt")
        first_bytes = first.read_bytes()
        path.write_bytes(path.read_bytes()[:-3])  # torn again
        with EvalStore(path, recover=True) as store:
            assert store.recovered is not None
            assert store.recovered["sidecar"].endswith(".corrupt.1")
        second = path.with_name(path.name + ".corrupt.1")
        assert second.exists()
        assert first.read_bytes() == first_bytes, \
            "second recovery overwrote the first quarantine"


class TestReopenAfterClose:
    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/self/fd")
    def test_close_releases_every_descriptor(self, tmp_path):
        """close() releases the append handle, the lazy reader, the
        sidecar handle and its column mappings (and readers a compaction
        retired).  A lookup after close reopens read-side, without the
        writer lock, and the next close releases it again."""
        def open_fds() -> int:
            return len(os.listdir("/proc/self/fd"))

        path = tmp_path / "fds.bin"
        with EvalStore(path) as store:
            store.put_many([("s", f"d{i}", design_key(i), evaluation_of(i))
                            for i in range(6)])
        baseline = open_fds()
        for read_only in (False, True):
            store = EvalStore(path, read_only=read_only)
            assert store.get("s", "d3", design_key(3)) == evaluation_of(3)
            if not read_only:
                store.compact()
            assert open_fds() > baseline
            store.close()
            assert open_fds() == baseline
            assert store.get("s", "d4", design_key(4)) == evaluation_of(4)
            assert len(store) == 6
            EvalStore(path).close()  # no writer lock is held
            store.close()
            assert open_fds() == baseline

    def test_reopen_sees_interim_writer_records(self, tmp_path):
        """A handle appending again after close() must reload first:
        another writer may have appended in between, and its records
        must be visible to lookups *and* to dedup."""
        path = tmp_path / "interim.bin"
        first = EvalStore(path)
        first.put("s", "d1", design_key(1), evaluation_of(1))
        first.close()
        second = EvalStore(path)
        second.put("s", "d2", design_key(2), evaluation_of(2))
        second.close()
        # Reopening through the stale handle reloads the file...
        assert first.put("s", "d3", design_key(3), evaluation_of(3))
        assert first.get("s", "d2", design_key(2)) == evaluation_of(2)
        # ...and dedup sees the interim record: no duplicate appended.
        assert not first.put("s", "d2", design_key(2), evaluation_of(2))
        assert len(first) == 3
        first.close()
        reopened = EvalStore(path, read_only=True)
        assert len(reopened) == 3
        assert reopened.redundant_records == 0
        reopened.close()


class TestScaleGauges:
    def test_store_gauges_are_incremental_and_exact(self, tmp_path):
        path = tmp_path / "gauges.bin"
        store = EvalStore(path)
        for i in range(3):
            store.put_many([("s", f"d{i}-{j}", design_key(4 * i + j),
                             evaluation_of(4 * i + j))
                            for j in range(4)])
            assert len(store) == (i + 1) * 4
            assert store.size_bytes == path.stat().st_size
        store.close()
        reopened = EvalStore(path, read_only=True)
        assert len(reopened) == 12
        assert reopened.size_bytes == path.stat().st_size
        reopened.close()

    def test_service_stats_mirror_store_gauges(self, tmp_path, workload):
        from repro.utils.rng import new_rng
        from repro.accel import AllocationSpace

        alloc = AllocationSpace()
        rng = new_rng(13)
        nets = tuple(t.space.decode(t.space.random_indices(rng))
                     for t in workload.tasks)
        pairs = [(nets, alloc.random_design(rng)) for _ in range(2)]
        with EvalStore(tmp_path / "s.bin") as store:
            service = EvalService(make_evaluator(workload), store=store)
            service.evaluate_many(pairs)
            assert service.stats.store_entries == len(store)
            assert service.stats.store_bytes == store.size_bytes
            assert store.size_bytes == (tmp_path / "s.bin").stat().st_size


# ----------------------------------------------------------------------
# Compaction
# ----------------------------------------------------------------------
class TestCompaction:
    @staticmethod
    def with_memo_records(path, memos: int, evaluations: int = 1):
        """A store of ``evaluations`` entries followed by ``memos``
        cost-memo records an older version appended."""
        with EvalStore(path) as store:
            store.put_many([("s", f"d{i}", design_key(i), evaluation_of(i))
                            for i in range(evaluations)])
        with open(path, "ab") as handle:
            for i in range(memos):
                handle.write(legacy_memo_frame(i))

    def test_old_memo_records_dropped(self, tmp_path):
        path = tmp_path / "memo.bin"
        self.with_memo_records(path, memos=3)
        store = EvalStore(path)
        assert store.redundant_records == 3
        report = store.compact()
        assert report["memo_records_dropped"] == 3
        assert report["records_dropped"] == 3
        assert report["bytes_after"] < report["bytes_before"]
        assert store.get("s", "d0", design_key(0)) == evaluation_of(0)
        assert store.redundant_records == 0
        store.close()
        with EvalStore(path, read_only=True) as reopened:
            assert len(reopened) == 1 and reopened.redundant_records == 0

    def test_digest_shadowed_duplicates_dropped(self, tmp_path):
        path = tmp_path / "dups.bin"
        with EvalStore(path) as store:
            store.put("s", "d1", design_key(1), evaluation_of(1))
        data = path.read_bytes()
        # Replay every record verbatim behind the indexed prefix — the
        # shape a crashed merge would leave behind.
        path.write_bytes(data + data[len(STORE_MAGIC):])
        store = EvalStore(path)
        assert len(store) == 1, "shadowed duplicate must not count"
        assert store.redundant_records == 1
        report = store.compact()
        assert report["eval_duplicates_dropped"] == 1
        assert store.get("s", "d1", design_key(1)) == evaluation_of(1)
        store.close()
        assert path.read_bytes() == data, \
            "compaction must restore the original byte-exact records"

    def test_compact_is_idempotent_and_keeps_the_writer_lock(
            self, tmp_path):
        path = tmp_path / "idem.bin"
        self.with_memo_records(path, memos=2, evaluations=4)
        store = EvalStore(path)
        assert store.compact()["records_dropped"] == 2
        first_bytes = path.read_bytes()
        second = store.compact()
        assert second["records_dropped"] == 0
        assert path.read_bytes() == first_bytes
        # The writer lock survived both rewrites.
        with pytest.raises(ValueError, match="already open for writing"):
            EvalStore(path)
        # The compacted handle still appends and answers.
        assert store.put("s", "d9", design_key(9), evaluation_of(9))
        assert store.get("s", "d9", design_key(9)) == evaluation_of(9)
        assert store.get("s", "d2", design_key(2)) == evaluation_of(2)
        store.close()

    def test_maybe_compact_threshold(self, tmp_path):
        path = tmp_path / "maybe.bin"
        self.with_memo_records(path, memos=1)
        store = EvalStore(path)
        assert store.redundant_records == 1
        assert store.maybe_compact(min_redundant=5) is None
        report = store.maybe_compact(min_redundant=1)
        assert report is not None and report["records_dropped"] == 1
        store.close()

    def test_compact_refused_on_read_only(self, tmp_path):
        path = tmp_path / "ro.bin"
        with EvalStore(path) as store:
            store.put("s", "d1", design_key(1), evaluation_of(1))
        frozen = EvalStore(path, read_only=True)
        with pytest.raises(ValueError, match="read-only"):
            frozen.compact()
        assert frozen.maybe_compact(min_redundant=0) is None
        frozen.close()
