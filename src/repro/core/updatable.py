"""Updatable wrapper over the static C2LSH index.

C2LSH's sorted bucket files are bulk-built and immutable — the standard
trade-off for external-memory range scans. Real deployments still need
inserts and deletes, and the classical answer is the one implemented here
(a small LSM-style split):

* **inserts** append to an exactly-searched side buffer, one matrix of
  the rows inserted since the last rebuild; a query merges the main
  index's answer with a linear scan of the buffer (the buffer is small,
  so the scan is one or two pages);
* **deletes** clear the handle's entry in a live mask, and every answer
  keeps only live handles;
* when the buffer outgrows ``rebuild_threshold`` (a fraction of the indexed
  size), the wrapper rebuilds the main index over the live points —
  amortized O(polylog) per update for any constant fraction.

Ids are stable handles assigned at insert time and never reused, so callers
can keep external references across rebuilds.

Everything here lives in RAM; for crash safety wrap the index in
:class:`repro.durability.DurableUpdatableC2LSH`, which write-ahead-logs
every update and checkpoints the store through :meth:`UpdatableC2LSH._state`
and :meth:`UpdatableC2LSH._from_state`.
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from ..validation import as_query_vector, require_finite
from .c2lsh import C2LSH
from .results import QueryResult, QueryStats

__all__ = ["UpdatableC2LSH"]


class UpdatableC2LSH:
    """Insert/delete-capable facade over :class:`C2LSH`.

    Parameters
    ----------
    rebuild_threshold:
        Rebuild when the side buffer exceeds this fraction of the indexed
        point count (default 0.2).
    min_index_size:
        Below this many live points everything stays in the buffer
        (brute force) — too little data for LSH parameters to make sense.
    **c2lsh_kwargs:
        Forwarded to every :class:`C2LSH` (re)build, e.g. ``c=2, seed=0``.
    """

    def __init__(self, rebuild_threshold=0.2, min_index_size=200,
                 **c2lsh_kwargs):
        if not (0.0 < rebuild_threshold <= 1.0):
            raise ValueError(
                f"rebuild_threshold must lie in (0, 1], got {rebuild_threshold}"
            )
        if min_index_size < 1:
            raise ValueError(
                f"min_index_size must be positive, got {min_index_size}"
            )
        self.rebuild_threshold = float(rebuild_threshold)
        self.min_index_size = int(min_index_size)
        if "family" in c2lsh_kwargs:
            raise ValueError(
                "UpdatableC2LSH merges buffered points by Euclidean "
                "distance, so custom families are not supported"
            )
        self._kwargs = dict(c2lsh_kwargs)
        self._dim = None
        self._index = None          # C2LSH over the _indexed rows
        # The store. _live[h] is False once handle h is deleted. _indexed
        # holds the rows of the ascending handles _indexed_ids; _buffer
        # the rows inserted since the last rebuild, in order. A rebuild
        # takes every live point, so the buffered handles are exactly
        # [_next_id - len(_buffer), _next_id).
        self._live = np.empty(0, dtype=bool)
        self._indexed = self._buffer = np.empty((0, 0))
        self._indexed_ids = np.empty(0, dtype=np.int64)
        self._next_id = 0
        self.rebuilds = 0

    # -- updates -------------------------------------------------------------

    def _coerce_points(self, points):
        """Validate one vector or an ``(n, dim)`` batch; returns the batch.

        Shared with :class:`repro.durability.DurableUpdatableC2LSH`, which
        must reject bad input *before* write-ahead-logging it.
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim == 1:
            points = points[np.newaxis, :]
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("points must be a non-empty (n, dim) matrix")
        if self._dim is not None and points.shape[1] != self._dim:
            raise ValueError(
                f"dimension mismatch: index holds {self._dim}-d points, "
                f"got {points.shape[1]}-d"
            )
        return require_finite(points, "points")

    def insert(self, points):
        """Insert one vector or an ``(n, dim)`` batch; returns new handles."""
        points = self._coerce_points(points)
        if self._dim is None:
            self._dim = points.shape[1]
            self._indexed = self._buffer = np.empty((0, self._dim))
        handles = np.arange(self._next_id, self._next_id + points.shape[0],
                            dtype=np.int64)
        self._next_id += points.shape[0]
        self._buffer = np.concatenate((self._buffer, points))
        self._live = np.concatenate(
            (self._live, np.ones(points.shape[0], dtype=bool)))
        self._maybe_rebuild()
        return handles

    def _coerce_handles(self, handles):
        """Validate one handle or an iterable; returns a list of ints.

        Validation happens before any mutation, so a :class:`KeyError`
        leaves the live mask untouched (and lets the durable facade
        refuse to log invalid deletes).
        """
        if np.isscalar(handles):
            handles = [handles]
        out = []
        for handle in handles:
            handle = int(handle)
            if not (0 <= handle < self._next_id):
                raise KeyError(f"unknown handle {handle}")
            out.append(handle)
        return out

    def delete(self, handles):
        """Delete one handle or an iterable of handles.

        Deleting a handle that is already gone is a no-op.
        """
        self._live[self._coerce_handles(handles)] = False

    def __len__(self):
        """Number of live (inserted minus deleted) points."""
        return int(np.count_nonzero(self._live))

    def _maybe_rebuild(self):
        indexed = self._indexed_ids.size
        buffered = len(self._buffer)
        if indexed + buffered < self.min_index_size:
            return
        if buffered <= self.rebuild_threshold * max(indexed, 1):
            return
        self._rebuild()

    def _rebuild(self):
        first = self._next_id - len(self._buffer)
        indexed = self._live[self._indexed_ids]
        buffered = self._live[first:]
        self._indexed = np.concatenate((self._indexed[indexed],
                                        self._buffer[buffered]))
        self._indexed_ids = np.concatenate((self._indexed_ids[indexed],
                                            first + np.flatnonzero(buffered)))
        self._buffer = np.empty((0, self._dim))
        self._index = None
        if self._indexed_ids.size:
            self._index = C2LSH(**self._kwargs).fit(self._indexed)
            self.rebuilds += 1

    # -- checkpoints --------------------------------------------------------

    def _state(self):
        """``(dim, next_id, rebuilds, arrays)``, the checkpoint format of
        :mod:`repro.durability.checkpoint`: ``dim`` is -1 before the first
        insert, ``tombstones`` the deleted indexed and buffered handles."""
        held = np.concatenate((self._indexed_ids, np.arange(
            self._next_id - len(self._buffer), self._next_id,
            dtype=np.int64)))
        dim = -1 if self._dim is None else self._dim
        return dim, self._next_id, self.rebuilds, {
            "indexed": self._indexed,
            "indexed_ids": self._indexed_ids,
            "buffer_rows": self._buffer,
            "buffer_handles": held[self._indexed_ids.size:],
            "tombstones": held[~self._live[held]],
        }

    @classmethod
    def _from_state(cls, dim, next_id, rebuilds, arrays, **options):
        """The index whose :meth:`_state` this is (``options`` go to the
        constructor). Live are the indexed and buffered handles minus
        ``tombstones``, which may also name handles a rebuild dropped."""
        index = cls(**options)
        index._dim = dim if dim >= 0 else None
        index._next_id = next_id
        index.rebuilds = rebuilds
        index._indexed = np.ascontiguousarray(arrays["indexed"],
                                              dtype=np.float64)
        index._indexed_ids = np.asarray(arrays["indexed_ids"],
                                        dtype=np.int64)
        index._buffer = np.asarray(arrays["buffer_rows"], dtype=np.float64)
        index._live = np.zeros(next_id, dtype=bool)
        index._live[index._indexed_ids] = True
        index._live[next_id - len(index._buffer):] = True
        index._live[np.asarray(arrays["tombstones"], dtype=np.int64)] = False
        if index._indexed_ids.size:
            index._index = C2LSH(**index._kwargs).fit(index._indexed)
        return index

    # -- queries -------------------------------------------------------------

    def query(self, query, k=1, budget=None):
        """c-k-ANN over the live points; ids are insert-time handles.

        ``budget`` optionally caps the main-index search with a
        :class:`repro.reliability.QueryBudget`; on overrun the result is
        best-effort and ``stats.degraded`` / ``stats.budget_exhausted``
        report the tripped cap. The side-buffer scan is always exact (it
        is at most one or two pages), so a degraded answer still contains
        every live buffered point.
        """
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        if self._dim is None:
            raise RuntimeError("index is empty; insert points first")
        query = as_query_vector(query, self._dim)

        ids = []
        dists = []
        stats = QueryStats(terminated_by="merged")
        first = self._next_id - len(self._buffer)
        if self._index is not None:
            # Over-fetch for the indexed handles deleted since the rebuild
            # (every live handle below ``first`` is indexed), and never
            # ask the inner index for more than it holds.
            n_indexed = self._indexed_ids.size
            deleted = n_indexed - np.count_nonzero(self._live[:first])
            main = self._index.query(query, k=min(n_indexed, k + deleted),
                                     budget=budget)
            handles = self._indexed_ids[main.ids]
            live = self._live[handles]
            ids.append(handles[live])
            dists.append(main.distances[live])
            stats = main.stats
        buffered = np.flatnonzero(self._live[first:])
        if buffered.size:
            ids.append(first + buffered)
            dists.append(kernels.euclidean_distances(self._buffer[buffered],
                                                     query))
            stats.candidates += buffered.size
        if not ids:
            raise RuntimeError("index is empty; insert points first")
        return QueryResult.from_candidates(
            np.concatenate(ids), np.concatenate(dists), k, stats
        )

    def __repr__(self):
        return (f"UpdatableC2LSH(live={len(self)}, "
                f"indexed={self._indexed_ids.size}, "
                f"buffered={len(self._buffer)}, rebuilds={self.rebuilds})")
