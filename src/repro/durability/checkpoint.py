"""Checkpoint snapshots of :class:`~repro.core.updatable.UpdatableC2LSH`.

A checkpoint is one persist-v2 array container (atomic rename +
CRC32/dtype/shape manifest, written through
:func:`repro.core.persist.save_arrays`) holding the wrapper's *entire*
mutable state, as its ``_state``/``_from_state`` pair writes and reads
it: the indexed matrix and its ascending handles, the buffer matrix and
its handles (always the range just below the next handle), the deleted
handles among those (``tombstones``), the next-handle counter and the
rebuild count — plus the ``wal_seqno`` high-water mark: every WAL record
with a sequence number at or below it is folded into the snapshot, so
recovery replays only the records above it (which is what makes replay
over a stale, un-rotated log idempotent).

The inner :class:`~repro.core.c2lsh.C2LSH` is *not* serialized: it is
re-fit over the restored indexed matrix with the stored constructor
kwargs, exactly as every rebuild does. With a fixed ``seed`` the re-fit
is bit-identical to the pre-crash index (same data, same RNG stream);
without one the recovered index holds fresh hash functions — still a
valid c-ANN index over the exact same points, but pass ``seed`` when you
need bit-exact recovery.
"""

from __future__ import annotations

import json

import numpy as np

from ..core.persist import load_arrays, save_arrays
from ..core.updatable import UpdatableC2LSH
from ..reliability.errors import CorruptIndexError

__all__ = ["CHECKPOINT_KIND", "save_checkpoint", "load_checkpoint"]

#: The manifest ``kind`` stamped on checkpoint containers.
CHECKPOINT_KIND = "updatable-checkpoint"


def save_checkpoint(path, index, wal_seqno, config=None):
    """Snapshot ``index`` (an :class:`UpdatableC2LSH`) to ``path``.

    ``wal_seqno`` is the highest WAL sequence number reflected in the
    snapshot; ``config`` is a JSON-serializable dict restored verbatim by
    :func:`load_checkpoint` (the durable facade stores its constructor
    arguments there). Atomic: a crash mid-save leaves any previous
    checkpoint intact. Returns the path written.
    """
    dim, next_id, rebuilds, arrays = index._state()
    config_blob = json.dumps(config if config is not None else {},
                             sort_keys=True).encode("utf-8")
    return save_arrays(path, CHECKPOINT_KIND, {
        "scalars": np.asarray([dim, next_id, rebuilds, int(wal_seqno)],
                              dtype=np.int64),
        **arrays,
        "config": np.frombuffer(config_blob, dtype=np.uint8),
    })


def load_checkpoint(path):
    """Restore a snapshot; returns ``(index, wal_seqno, config)``.

    The returned :class:`UpdatableC2LSH` is in the exact state captured
    by :func:`save_checkpoint` — handles, buffer, deletes and rebuild
    counter included (see the module docstring for the one caveat on
    hash-function identity). Damage raises :class:`CorruptIndexError`;
    a missing file propagates as ``FileNotFoundError``.
    """
    blob = load_arrays(path, CHECKPOINT_KIND)
    try:
        config = json.loads(bytes(bytearray(blob["config"])).decode("utf-8"))
    except Exception as exc:
        raise CorruptIndexError(path, "config",
                                f"unparsable config: {exc}") from exc
    scalars = blob["scalars"]
    if scalars.shape != (4,):
        raise CorruptIndexError(
            path, "scalars", f"expected 4 scalars, got {scalars.shape}")
    dim, next_id, rebuilds, wal_seqno = (int(v) for v in scalars)

    n_indexed, n_buffered = len(blob["indexed"]), len(blob["buffer_rows"])
    if blob["indexed_ids"].size != n_indexed:
        raise CorruptIndexError(
            path, "indexed_ids",
            f"{blob['indexed_ids'].size} handles for {n_indexed} rows")
    if not np.array_equal(blob["buffer_handles"],
                          np.arange(next_id - n_buffered, next_id)):
        raise CorruptIndexError(
            path, "buffer_handles",
            f"{n_buffered} buffered rows are not handles "
            f"[{next_id - n_buffered}, {next_id})")
    for name in ("indexed_ids", "buffer_handles", "tombstones"):
        if np.any((blob[name] < 0) | (blob[name] >= next_id)):
            raise CorruptIndexError(path, name,
                                    f"handles outside [0, {next_id})")
    index = UpdatableC2LSH._from_state(
        dim, next_id, rebuilds, blob,
        rebuild_threshold=config.get("rebuild_threshold", 0.2),
        min_index_size=config.get("min_index_size", 200),
        **config.get("c2lsh_kwargs", {}),
    )
    return index, wal_seqno, config
