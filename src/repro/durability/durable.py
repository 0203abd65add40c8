"""Crash-safe facade over :class:`~repro.core.updatable.UpdatableC2LSH`.

:class:`DurableUpdatableC2LSH` write-ahead-logs every mutation before
applying it, checkpoints the full wrapper state through the persist-v2
container format, and reconstructs the exact pre-crash state on open:

* **Logging.** ``insert``/``delete`` validate their arguments, append a
  CRC32-framed record to the WAL (fsync'd by default), then apply the
  mutation in memory. A crash between the append and the apply is
  invisible — replay performs the apply on recovery.
* **Checkpointing.** :meth:`checkpoint` appends a ``checkpoint-begin``
  marker, snapshots the wrapper atomically (recording the marker's
  sequence number as the snapshot's high-water mark), appends
  ``checkpoint-end`` and rotates the log. A crash at *any* point in that
  protocol recovers cleanly: the snapshot rename is atomic, and replay
  skips records already folded into whichever snapshot survives.
* **Recovery.** Opening a directory that holds state loads the newest
  checkpoint (CRC-verified), repairs a torn WAL tail (the expected shape
  of a crash mid-append), replays the surviving records above the
  high-water mark through the ordinary ``insert``/``delete`` code paths,
  and raises :class:`~repro.reliability.CorruptIndexError` on mid-log or
  snapshot damage. Handles, deletes, the side buffer and the rebuild
  counter all come back exactly; with a fixed ``seed`` the rebuilt
  hash tables are bit-identical too.

Telemetry lands in a :class:`repro.obs.MetricsRegistry`: counters
``durability.wal_appends``, ``durability.wal_replays``,
``durability.torn_tail``, ``durability.checkpoints`` and histograms
``durability.recovery_seconds`` / ``durability.checkpoint_seconds``.
A :class:`repro.reliability.FaultInjector` passed at construction is
consulted at sites ``"wal_append"``, ``"wal_fsync"``, ``"wal_replay"``
and ``"checkpoint"`` so the chaos suite can kill writes mid-record.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from ..core.updatable import UpdatableC2LSH
from ..obs.registry import MetricsRegistry
from .checkpoint import load_checkpoint, save_checkpoint
from .wal import (
    CHECKPOINT_BEGIN,
    CHECKPOINT_END,
    DELETE,
    INSERT,
    WriteAheadLog,
    encode_delete,
    encode_insert,
    encode_meta,
)

__all__ = ["DurableUpdatableC2LSH"]


class DurableUpdatableC2LSH:
    """Durable insert/delete-capable C2LSH index rooted at a directory.

    Parameters
    ----------
    path:
        Directory holding the index's files (``wal.log`` plus
        ``state.npz`` once checkpointed). Created when missing; opening
        a directory with existing state **recovers it** — constructor
        parameters must then match the stored configuration.
    fsync:
        Fsync the WAL after every record (default). ``False`` trades
        power-loss durability for update throughput (records still
        survive process crashes).
    auto_checkpoint:
        Checkpoint automatically after this many logged mutations
        (``None`` — the default — leaves checkpointing manual).
    fault_injector:
        Optional :class:`repro.reliability.FaultInjector` wired into the
        WAL and checkpoint paths (see the module docstring for sites).
    metrics:
        A :class:`repro.obs.MetricsRegistry` receiving the
        ``durability.*`` series; private when omitted.
    rebuild_threshold / min_index_size / **c2lsh_kwargs:
        Forwarded to :class:`UpdatableC2LSH`. The kwargs must be
        JSON-serializable (they are persisted in every checkpoint so
        recovery can re-fit the inner index identically); pass ``seed``
        for bit-exact recovery of the hash tables.
    """

    WAL_NAME = "wal.log"
    STATE_NAME = "state.npz"

    def __init__(self, path, *, fsync=True, auto_checkpoint=None,
                 fault_injector=None, metrics=None,
                 rebuild_threshold=0.2, min_index_size=200,
                 **c2lsh_kwargs):
        if auto_checkpoint is not None and auto_checkpoint < 1:
            raise ValueError(
                f"auto_checkpoint must be >= 1, got {auto_checkpoint}"
            )
        self.path = os.fspath(path)
        os.makedirs(self.path, exist_ok=True)
        try:
            config = json.loads(json.dumps({
                "rebuild_threshold": float(rebuild_threshold),
                "min_index_size": int(min_index_size),
                "c2lsh_kwargs": dict(c2lsh_kwargs),
            }, sort_keys=True))
        except TypeError as exc:
            raise TypeError(
                "DurableUpdatableC2LSH persists its C2LSH kwargs in every "
                f"checkpoint, so they must be JSON-serializable: {exc}"
            ) from None
        self._config = config
        self.auto_checkpoint = auto_checkpoint
        self.fault_injector = fault_injector
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._mutations_since_checkpoint = 0
        self.recovered_records = 0
        self._recover(fsync)

    # -- recovery ------------------------------------------------------------

    @property
    def wal_path(self):
        """The write-ahead log file."""
        return os.path.join(self.path, self.WAL_NAME)

    @property
    def state_path(self):
        """The checkpoint snapshot file."""
        return os.path.join(self.path, self.STATE_NAME)

    def _recover(self, fsync):
        started = time.perf_counter()
        if os.path.exists(self.state_path):
            inner, applied_seqno, stored = load_checkpoint(self.state_path)
            if stored != self._config:
                raise ValueError(
                    f"stored configuration {stored} does not match the "
                    f"constructor arguments {self._config}; open the "
                    "directory with the parameters it was created with"
                )
        else:
            inner = UpdatableC2LSH(
                rebuild_threshold=self._config["rebuild_threshold"],
                min_index_size=self._config["min_index_size"],
                **self._config["c2lsh_kwargs"],
            )
            applied_seqno = -1
        wal = WriteAheadLog(self.wal_path, fsync=fsync,
                            fault_injector=self.fault_injector,
                            metrics=self.metrics)
        replayed = 0
        try:
            for record in wal.last_scan.records:
                if record.seqno <= applied_seqno:
                    continue
                if self.fault_injector is not None:
                    self.fault_injector.guard("wal_replay")
                self._apply(inner, record)
                replayed += 1
        except BaseException:
            wal.close()  # a failed open owns nothing; release the log
            raise
        self._inner = inner
        self._wal = wal
        self.recovered_records = replayed
        self.metrics.counter("durability.wal_replays").inc(replayed)
        self.metrics.histogram("durability.recovery_seconds").observe(
            time.perf_counter() - started)

    def _apply(self, inner, record):
        """Replay one WAL record through the ordinary update paths.

        A record that does not decode, or that the index rejects (say, a
        non-finite row logged before inserts were validated), raises
        :class:`~repro.reliability.CorruptIndexError` naming the record.
        """
        from ..reliability.errors import CorruptIndexError
        from .wal import decode_delete, decode_insert

        try:
            if record.rectype == INSERT:
                start, rows = decode_insert(record.body)
                if start != inner._next_id:
                    raise ValueError(
                        f"insert starts at handle {start} but the index "
                        f"expects {inner._next_id}"
                    )
                inner.insert(rows)
            elif record.rectype == DELETE:
                inner.delete(decode_delete(record.body))
            # Checkpoint markers carry no state mutation.
        except ValueError as exc:
            raise CorruptIndexError(
                self.wal_path, f"wal_record_{record.seqno}", str(exc)
            ) from exc

    # -- updates -------------------------------------------------------------

    def insert(self, points):
        """Durably insert one vector or an ``(n, dim)`` batch.

        The batch is logged (and fsync'd, per policy) before it is
        applied, so returned handles are stable across crashes.
        """
        points = self._inner._coerce_points(points)
        self._wal.append(INSERT,
                         encode_insert(self._inner._next_id, points))
        handles = self._inner.insert(points)
        self._after_mutation()
        return handles

    def delete(self, handles):
        """Durably delete one handle or an iterable of handles."""
        handles = self._inner._coerce_handles(handles)
        self._wal.append(
            DELETE, encode_delete(np.asarray(handles, dtype=np.int64)))
        self._inner.delete(handles)
        self._after_mutation()

    def _after_mutation(self):
        self._mutations_since_checkpoint += 1
        if (self.auto_checkpoint is not None
                and self._mutations_since_checkpoint >= self.auto_checkpoint):
            self.checkpoint()

    def checkpoint(self):
        """Snapshot the index and rotate the WAL; returns the snapshot path.

        Safe to crash at any point: see the module docstring for the
        begin → snapshot → end → rotate protocol.
        """
        started = time.perf_counter()
        if self.fault_injector is not None:
            self.fault_injector.guard("checkpoint")
        begin = self._wal.append(
            CHECKPOINT_BEGIN, encode_meta({"state": self.STATE_NAME}))
        written = save_checkpoint(self.state_path, self._inner,
                                  wal_seqno=begin, config=self._config)
        self._wal.append(
            CHECKPOINT_END,
            encode_meta({"state": self.STATE_NAME, "begin": begin}))
        self._wal.reset()
        self._mutations_since_checkpoint = 0
        self.metrics.counter("durability.checkpoints").inc()
        self.metrics.histogram("durability.checkpoint_seconds").observe(
            time.perf_counter() - started)
        return written

    # -- queries & introspection ---------------------------------------------

    def query(self, query, k=1, budget=None):
        """c-k-ANN over the live points (see :meth:`UpdatableC2LSH.query`)."""
        return self._inner.query(query, k=k, budget=budget)

    @property
    def index(self):
        """The in-memory :class:`UpdatableC2LSH` behind this facade."""
        return self._inner

    @property
    def rebuilds(self):
        """Main-index rebuilds performed (survives recovery)."""
        return self._inner.rebuilds

    def __len__(self):
        return len(self._inner)

    def close(self):
        """Release the WAL file handle (the index stays queryable)."""
        self._wal.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __repr__(self):
        return (f"DurableUpdatableC2LSH({self.path!r}, live={len(self)}, "
                f"next_seqno={self._wal.next_seqno}, "
                f"rebuilds={self.rebuilds})")
