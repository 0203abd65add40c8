"""Shard layout and parallel-width policy (``os`` only)."""

from __future__ import annotations

import os

__all__ = ["default_parallelism", "shard_offsets", "assign_shards"]


def default_parallelism(limit=None):
    """The default width for any parallel fan-out in this repository.

    ``min(available cpus, limit)``, never below 1. ``limit`` is the
    natural task count (the number of shards), so a 4-shard index on a
    32-core box gets 4 workers, not 32. Respects CPU affinity masks
    (cgroup/container limits) where the platform exposes them. This is
    *the* one place a parallel width is derived;
    :class:`repro.sharding.ShardedC2LSH` resolves ``n_workers=None``
    here.
    """
    try:
        width = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        width = os.cpu_count() or 1
    if limit is not None:
        limit = int(limit)
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        width = min(width, limit)
    return max(1, width)


def shard_offsets(n, n_shards):
    """Row-partition boundaries: shard ``s`` owns rows ``[off[s], off[s+1])``.

    Returns ``n_shards + 1`` monotonically increasing offsets with
    ``off[0] == 0`` and ``off[-1] == n``. Sizes differ by at most one row
    (the first ``n % n_shards`` shards get the extra row). Every shard is
    non-empty, so ``n_shards`` may not exceed ``n``.
    """
    n = int(n)
    n_shards = int(n_shards)
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if n < n_shards:
        raise ValueError(
            f"cannot split {n} rows into {n_shards} non-empty shards"
        )
    base, extra = divmod(n, n_shards)
    offsets = [0]
    for s in range(n_shards):
        offsets.append(offsets[-1] + base + (1 if s < extra else 0))
    return tuple(offsets)


def assign_shards(n_shards, n_workers):
    """Round-robin shard→worker assignment; returns one tuple per worker.

    Worker ``w`` owns shards ``w, w + W, w + 2W, ...`` — interleaving
    keeps per-worker row counts balanced when ``n_shards`` is not a
    multiple of ``n_workers``.
    """
    n_shards = int(n_shards)
    n_workers = int(n_workers)
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if n_workers > n_shards:
        n_workers = n_shards
    return tuple(
        tuple(range(w, n_shards, n_workers)) for w in range(n_workers)
    )
