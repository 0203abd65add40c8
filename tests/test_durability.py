"""Tests for the durability layer: WAL, checkpoints, crash recovery.

Covers the exact byte-level framing contract (torn tails are repaired,
mid-log corruption raises), the checkpoint protocol's crash windows, the
fault-injected kill-mid-record path, and the satellite fixes to
``UpdatableC2LSH`` (over-fetch, budget threading, validate-before-mutate).
"""

import os
import shutil
import struct

import numpy as np
import pytest

from repro import (
    CorruptIndexError,
    DurableUpdatableC2LSH,
    FaultInjector,
    FaultPlan,
    FaultRule,
    QueryBudget,
    TransientIOError,
)
from repro.core.persist import load_arrays, save_arrays
from repro.core.updatable import UpdatableC2LSH
from repro.durability import (
    CHECKPOINT_BEGIN,
    CHECKPOINT_KIND,
    DELETE,
    INSERT,
    WriteAheadLog,
    load_checkpoint,
    save_checkpoint,
    scan_log,
)
from repro.durability.wal import (
    decode_delete,
    decode_insert,
    encode_delete,
    encode_insert,
    encode_meta,
)

DIM = 8
HEADER_SIZE = 16  # magic + version + base seqno

#: CI sweeps this (see the ``chaos`` job): it shifts the RNG streams
#: feeding the fault-injected crash tests so each matrix leg kills the
#: writer at different points with different data.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


def make_index(path, **overrides):
    kwargs = dict(seed=0, c=2, min_index_size=60, rebuild_threshold=0.3,
                  fsync=False)
    kwargs.update(overrides)
    return DurableUpdatableC2LSH(path, **kwargs)


class TestWalFraming:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "wal.log"
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((3, DIM))
        with WriteAheadLog(path) as wal:
            s0 = wal.append(INSERT, encode_insert(0, rows))
            s1 = wal.append(DELETE, encode_delete(np.array([1], np.int64)))
            s2 = wal.append(CHECKPOINT_BEGIN, encode_meta({"x": 1}))
        assert (s0, s1, s2) == (0, 1, 2)
        result = scan_log(path)
        assert not result.torn
        assert [r.seqno for r in result.records] == [0, 1, 2]
        start, got = decode_insert(result.records[0].body)
        assert start == 0 and np.array_equal(got, rows)
        assert decode_delete(result.records[1].body).tolist() == [1]

    def test_empty_log_scans_clean(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal.log") as wal:
            assert wal.next_seqno == 0
        result = scan_log(tmp_path / "wal.log")
        assert result.records == [] and not result.torn

    def test_reopen_continues_seqno(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append(DELETE, encode_delete(np.array([0], np.int64)))
        with WriteAheadLog(path) as wal:
            assert wal.next_seqno == 1
            assert wal.append(DELETE,
                              encode_delete(np.array([1], np.int64))) == 1

    @pytest.mark.parametrize("drop", [1, 3, 7, 11])
    def test_torn_tail_at_any_byte_truncates(self, tmp_path, drop):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append(DELETE, encode_delete(np.array([0], np.int64)))
            wal.append(DELETE, encode_delete(np.array([1], np.int64)))
        intact = scan_log(path)
        size = os.path.getsize(path)
        cut = size - drop
        assert cut > intact.records[0].end - 1  # tear only the last record
        with open(path, "r+b") as fh:
            fh.truncate(cut)
        result = scan_log(path)
        assert result.torn
        assert [r.seqno for r in result.records] == [0]
        assert result.good_size == intact.records[0].end
        # Reopening repairs the tear and appends continue from seqno 1.
        with WriteAheadLog(path) as wal:
            assert wal.next_seqno == 1
            assert wal.metrics.snapshot()["durability.torn_tail"] == 1
        assert not scan_log(path).torn

    def test_tear_inside_first_record(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append(DELETE, encode_delete(np.array([0], np.int64)))
        with open(path, "r+b") as fh:
            fh.truncate(HEADER_SIZE + 3)
        result = scan_log(path)
        assert result.torn and result.records == []
        assert result.good_size == HEADER_SIZE

    def test_corrupt_final_record_is_torn(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append(DELETE, encode_delete(np.array([0], np.int64)))
        with open(path, "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            last = fh.read(1)
            fh.seek(-1, os.SEEK_END)
            fh.write(bytes([last[0] ^ 0xFF]))
        result = scan_log(path)
        assert result.torn and result.records == []

    def test_corrupt_mid_log_raises(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append(DELETE, encode_delete(np.array([0], np.int64)))
            wal.append(DELETE, encode_delete(np.array([1], np.int64)))
        first = scan_log(path).records[0]
        with open(path, "r+b") as fh:
            fh.seek(first.end - 1)  # last payload byte of record 0
            byte = fh.read(1)
            fh.seek(first.end - 1)
            fh.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(CorruptIndexError, match="wal_record_0"):
            scan_log(path)

    def test_sequence_gap_raises(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append(DELETE, encode_delete(np.array([0], np.int64)))
        # Re-frame the record with a wrong seqno but a valid CRC.
        import zlib
        payload = struct.pack("<BQ", DELETE, 5) \
            + encode_delete(np.array([0], np.int64))
        frame = struct.pack("<II", len(payload),
                            zlib.crc32(payload) & 0xFFFFFFFF) + payload
        with open(path, "r+b") as fh:
            fh.truncate(HEADER_SIZE)
            fh.seek(HEADER_SIZE)
            fh.write(frame)
        with pytest.raises(CorruptIndexError, match="sequence gap"):
            scan_log(path)

    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(CorruptIndexError, match="wal_header"):
            scan_log(path)
        path.write_bytes(b"RW")  # shorter than a header
        with pytest.raises(CorruptIndexError, match="wal_header"):
            scan_log(path)

    def test_reset_rotates_and_continues_numbering(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append(DELETE, encode_delete(np.array([0], np.int64)))
            wal.append(DELETE, encode_delete(np.array([1], np.int64)))
            wal.reset()
            assert wal.next_seqno == 2
            wal.append(DELETE, encode_delete(np.array([2], np.int64)))
        result = scan_log(path)
        assert result.base_seqno == 2
        assert [r.seqno for r in result.records] == [2]

    def test_fsync_true_appends(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal.log", fsync=True) as wal:
            wal.append(DELETE, encode_delete(np.array([0], np.int64)))
            assert wal.metrics.snapshot()["durability.wal_appends"] == 1


class TestCheckpoint:
    def test_snapshot_round_trip_exact_state(self, tmp_path):
        rng = np.random.default_rng(3)
        index = UpdatableC2LSH(seed=0, c=2, min_index_size=60,
                               rebuild_threshold=0.3)
        h = index.insert(rng.standard_normal((150, DIM)))
        index.delete(h[:7])
        index.insert(rng.standard_normal((20, DIM)))  # leaves a buffer
        config = {"rebuild_threshold": 0.3, "min_index_size": 60,
                  "c2lsh_kwargs": {"seed": 0, "c": 2}}
        path = save_checkpoint(tmp_path / "state.npz", index,
                               wal_seqno=41, config=config)
        restored, seqno, stored = load_checkpoint(path)
        assert seqno == 41 and stored == config
        assert len(restored) == len(index)
        assert restored._next_id == index._next_id
        assert restored.rebuilds == index.rebuilds
        assert np.array_equal(restored._live, index._live)
        assert np.array_equal(restored._indexed_ids, index._indexed_ids)
        assert np.array_equal(restored._buffer, index._buffer)
        q = rng.standard_normal(DIM)
        a, b = index.query(q, k=5), restored.query(q, k=5)
        assert np.array_equal(a.ids, b.ids)
        assert np.allclose(a.distances, b.distances)

    def test_empty_index_round_trip(self, tmp_path):
        index = UpdatableC2LSH(seed=0)
        path = save_checkpoint(tmp_path / "state.npz", index, wal_seqno=-1)
        restored, seqno, _ = load_checkpoint(path)
        assert seqno == -1 and len(restored) == 0
        assert restored._dim is None

    def test_flipped_byte_raises_corrupt(self, tmp_path):
        index = UpdatableC2LSH(seed=0)
        index.insert(np.random.default_rng(0).standard_normal((10, DIM)))
        path = save_checkpoint(tmp_path / "state.npz", index, wal_seqno=9)
        blob = bytearray((tmp_path / "state.npz").read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        (tmp_path / "state.npz").write_bytes(bytes(blob))
        with pytest.raises(CorruptIndexError):
            load_checkpoint(path)

    def test_handles_contradicting_the_store_raise_corrupt(self, tmp_path):
        """CRC-valid but wrongly written handles are refused by section:
        buffered handles must be the range ending at the next handle, and
        every stored handle must lie below it."""
        rng = np.random.default_rng(0)
        index = UpdatableC2LSH(seed=0, min_index_size=60)
        index.insert(rng.standard_normal((80, DIM)))
        index.insert(rng.standard_normal((5, DIM)))  # buffered
        path = save_checkpoint(tmp_path / "state.npz", index, wal_seqno=0)
        good = load_arrays(path, CHECKPOINT_KIND)
        for name, bad in (("buffer_handles", good["buffer_handles"] - 1),
                          ("tombstones", np.array([-1])),
                          ("indexed_ids", good["indexed_ids"] + 85)):
            save_arrays(path, CHECKPOINT_KIND, {**good, name: bad})
            with pytest.raises(CorruptIndexError) as err:
                load_checkpoint(path)
            assert err.value.section == name


class TestDurableIndex:
    def test_reopen_reproduces_state_and_answers(self, tmp_path):
        rng = np.random.default_rng(4)
        q = rng.standard_normal(DIM)
        idx = make_index(tmp_path / "idx")
        h1 = idx.insert(rng.standard_normal((120, DIM)))
        idx.delete(h1[:11])
        idx.checkpoint()
        h2 = idx.insert(rng.standard_normal((25, DIM)))
        idx.delete([h2[0], h1[50]])
        before = idx.query(q, k=5)
        idx.close()

        rec = make_index(tmp_path / "idx")
        assert len(rec) == 120 - 11 + 25 - 2
        assert rec.rebuilds == idx.rebuilds
        assert rec.recovered_records == 2
        after = rec.query(q, k=5)
        assert np.array_equal(before.ids, after.ids)
        assert np.allclose(before.distances, after.distances)
        # Handles keep counting from where the crashed instance stopped.
        h3 = rec.insert(rng.standard_normal((1, DIM)))
        assert h3[0] == h2[-1] + 1
        rec.close()

    def test_recovery_without_any_checkpoint(self, tmp_path):
        rng = np.random.default_rng(5)
        idx = make_index(tmp_path / "idx")
        h = idx.insert(rng.standard_normal((70, DIM)))
        idx.delete(h[:3])
        idx.close()
        rec = make_index(tmp_path / "idx")
        assert len(rec) == 67 and rec.recovered_records == 2
        rec.close()

    def test_stale_log_replay_is_idempotent(self, tmp_path):
        """Crash between the snapshot rename and the log rotation."""
        rng = np.random.default_rng(6)
        idx = make_index(tmp_path / "idx")
        h = idx.insert(rng.standard_normal((80, DIM)))
        idx.delete(h[:5])
        pre_rotate = (tmp_path / "idx" / "wal.log").read_bytes()
        idx.checkpoint()
        idx.close()
        # Simulate the rotation never reaching the disk: the full old log
        # (insert, delete, checkpoint-begin) sits next to the new snapshot.
        (tmp_path / "idx" / "wal.log").write_bytes(pre_rotate)
        rec = make_index(tmp_path / "idx")
        assert len(rec) == 75
        assert rec.recovered_records == 0  # everything was below the mark
        rec.close()

    def test_kill_mid_append_recovers_pre_crash_state(self, tmp_path):
        rng = np.random.default_rng(7 + CHAOS_SEED)
        q = rng.standard_normal(DIM)
        idx = make_index(tmp_path / "idx")
        idx.insert(rng.standard_normal((90, DIM)))
        oracle = idx.query(q, k=3)
        idx._wal.fault_injector = FaultInjector(
            FaultPlan((FaultRule("wal_append", "error"),)),
            seed=CHAOS_SEED)
        with pytest.raises(TransientIOError):
            idx.insert(rng.standard_normal((4, DIM)))
        with pytest.raises(TransientIOError):  # the log stays failed
            idx.delete(0)
        idx.close()
        rec = make_index(tmp_path / "idx")
        assert len(rec) == 90
        got = rec.query(q, k=3)
        assert np.array_equal(oracle.ids, got.ids)
        rec.close()

    def test_fsync_fault_fails_closed(self, tmp_path):
        idx = make_index(
            tmp_path / "idx",
            fault_injector=FaultInjector(
                FaultPlan((FaultRule("wal_fsync", "error"),)),
                seed=CHAOS_SEED),
            fsync=True)
        with pytest.raises(TransientIOError):
            idx.insert(np.zeros((1, DIM)))
        idx.close()

    def test_auto_checkpoint(self, tmp_path):
        rng = np.random.default_rng(8)
        idx = make_index(tmp_path / "idx", auto_checkpoint=3)
        for _ in range(7):
            idx.insert(rng.standard_normal((2, DIM)))
        snap = idx.metrics.snapshot()
        assert snap["durability.checkpoints"] == 2
        assert os.path.exists(idx.state_path)
        idx.close()

    def test_config_mismatch_rejected(self, tmp_path):
        idx = make_index(tmp_path / "idx")
        idx.insert(np.zeros((5, DIM)))
        idx.checkpoint()
        idx.close()
        with pytest.raises(ValueError, match="stored configuration"):
            make_index(tmp_path / "idx", min_index_size=61)

    def test_non_serializable_kwargs_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="JSON-serializable"):
            DurableUpdatableC2LSH(tmp_path / "idx",
                                  rng=np.random.default_rng(0))

    def test_invalid_ops_are_not_logged(self, tmp_path):
        idx = make_index(tmp_path / "idx")
        idx.insert(np.zeros((5, DIM)))
        appends = idx.metrics.snapshot()["durability.wal_appends"]
        with pytest.raises(ValueError):
            idx.insert(np.zeros((2, DIM + 1)))
        with pytest.raises(KeyError):
            idx.delete(99)
        assert idx.metrics.snapshot()["durability.wal_appends"] == appends
        idx.close()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_insert_is_not_logged(self, tmp_path, bad):
        """A logged NaN row would fail every later rebuild, and so every
        reopen, because recovery replays it."""
        rows = np.random.default_rng(4).standard_normal((70, DIM))
        idx = make_index(tmp_path / "idx", min_index_size=50)
        idx.insert(rows[:10])
        seqno = idx._wal.next_seqno
        poisoned = rows[10].copy()
        poisoned[3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            idx.insert(poisoned)
        assert len(idx) == 10
        assert idx._wal.next_seqno == seqno
        idx.insert(rows[10:])  # past min_index_size: rebuilds
        idx.close()
        reopened = make_index(tmp_path / "idx", min_index_size=50)
        assert len(reopened) == 70
        reopened.close()

    def test_replay_names_a_rejected_insert(self, tmp_path):
        """A log written before inserts were validated may hold a NaN
        row; reopening names that record instead of a bare ValueError."""
        rows = np.random.default_rng(4).standard_normal((11, DIM))
        rows[10, 3] = np.nan
        (tmp_path / "idx").mkdir()
        with WriteAheadLog(tmp_path / "idx" / "wal.log") as wal:
            wal.append(INSERT, encode_insert(0, rows[:10]))
            wal.append(INSERT, encode_insert(10, rows[10:]))
        with pytest.raises(CorruptIndexError) as info:
            make_index(tmp_path / "idx")
        assert info.value.section == "wal_record_1"
        assert "non-finite" in info.value.detail

    def test_recovery_metrics_recorded(self, tmp_path):
        idx = make_index(tmp_path / "idx")
        idx.insert(np.random.default_rng(9).standard_normal((10, DIM)))
        idx.close()
        rec = make_index(tmp_path / "idx")
        snap = rec.metrics.snapshot()
        assert snap["durability.wal_replays"] == 1
        assert snap["durability.recovery_seconds"]["count"] == 1
        rec.close()

    def test_corrupt_mid_log_surfaces_on_open(self, tmp_path):
        idx = make_index(tmp_path / "idx")
        idx.insert(np.zeros((5, DIM)))
        idx.delete(0)
        idx.close()
        first = scan_log(idx.wal_path).records[0]
        with open(idx.wal_path, "r+b") as fh:
            fh.seek(first.end - 1)
            byte = fh.read(1)
            fh.seek(first.end - 1)
            fh.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(CorruptIndexError):
            make_index(tmp_path / "idx")

    def test_context_manager_and_repr(self, tmp_path):
        with make_index(tmp_path / "idx") as idx:
            idx.insert(np.zeros((2, DIM)))
            assert "DurableUpdatableC2LSH" in repr(idx)
            assert idx.index is idx._inner


class TestUpdatableSatellites:
    """The PR's smaller fixes to the in-memory wrapper."""

    def _built(self, rng, n=150):
        index = UpdatableC2LSH(seed=0, c=2, min_index_size=60,
                               rebuild_threshold=0.3)
        handles = index.insert(rng.standard_normal((n, DIM)) * 3)
        assert index._index is not None
        return index, handles

    def test_overfetch_counts_only_indexed_deletes(self, rng):
        index, handles = self._built(rng)
        extra = index.insert(rng.standard_normal((10, DIM)))  # buffered
        index.delete(extra)          # deletes touch only the buffer
        seen = {}
        inner_query = index._index.query
        index._index.query = \
            lambda q, k=1, **kw: seen.update(k=k) or inner_query(q, k=k, **kw)
        index.query(rng.standard_normal(DIM), k=5)
        assert seen["k"] == 5  # not 5 + 10

    def test_overfetch_capped_at_indexed_size(self, rng):
        index, handles = self._built(rng, n=70)
        index.delete(handles[:65])
        seen = {}
        inner_query = index._index.query
        index._index.query = \
            lambda q, k=1, **kw: seen.update(k=k) or inner_query(q, k=k, **kw)
        result = index.query(rng.standard_normal(DIM), k=20)
        assert seen["k"] == 70  # min(indexed size, 20 + 65)
        assert len(result) == 5  # only 5 live points remain
        assert not np.isin(result.ids, handles[:65]).any()

    def test_budget_threads_through_and_degrades(self, rng):
        index, _ = self._built(rng, n=400)
        # A far-off query cannot satisfy T1/T2 in its first round, so the
        # (already expired) deadline trips at the first round boundary.
        result = index.query(np.full(DIM, 50.0), k=2,
                             budget=QueryBudget(deadline_s=1e-9))
        assert result.stats.degraded
        assert result.stats.budget_exhausted == "deadline"
        assert result.stats.terminated_by == "budget"

    def test_budget_none_unchanged(self, rng):
        index, _ = self._built(rng)
        result = index.query(rng.standard_normal(DIM), k=3)
        assert not result.stats.degraded

    def test_rebuild_clears_tombstone_state(self, rng):
        index, handles = self._built(rng)
        index.delete(handles[:20])
        index._rebuild()
        assert len(index) == 130
        assert not np.isin(handles[:20], index._indexed_ids).any()

    def test_delete_validates_before_mutating(self, rng):
        index, handles = self._built(rng)
        with pytest.raises(KeyError):
            index.delete([int(handles[0]), 10_000])
        assert len(index) == 150
