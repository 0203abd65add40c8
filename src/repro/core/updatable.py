"""Updatable wrapper over the static C2LSH index.

C2LSH's sorted bucket files are bulk-built and immutable — the standard
trade-off for external-memory range scans. Real deployments still need
inserts and deletes, and the classical answer is the one implemented here
(a small LSM-style split):

* **inserts** accumulate in an exactly-searched side buffer; a query merges
  the main index's answer with a linear scan of the buffer (the buffer is
  small, so the scan is one or two pages);
* **deletes** go into a tombstone set filtered out of every answer;
* when the buffer outgrows ``rebuild_threshold`` (a fraction of the indexed
  size), the wrapper rebuilds the main index over the live points —
  amortized O(polylog) per update for any constant fraction.

Ids are stable handles assigned at insert time and never reused, so callers
can keep external references across rebuilds.

Everything here lives in RAM; for crash safety wrap the index in
:class:`repro.durability.DurableUpdatableC2LSH`, which write-ahead-logs
every update and checkpoints snapshots through :mod:`repro.core.persist`.
"""

from __future__ import annotations

import numpy as np

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
        self._index = None          # C2LSH over _indexed rows
        self._indexed = None        # (n_idx, dim) matrix behind _index
        self._indexed_ids = np.empty(0, dtype=np.int64)
        self._indexed_ids_sorted = np.empty(0, dtype=np.int64)
        self._buffer = []           # list of (handle, vector)
        self._deleted = set()
        # Sorted int64 mirror of _deleted: vectorized filtering uses this
        # array directly instead of rebuilding list(self._deleted) per call.
        self._tombstones = np.empty(0, dtype=np.int64)
        self._deleted_indexed = 0   # tombstones referring to indexed rows
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
        handles = np.arange(self._next_id, self._next_id + points.shape[0],
                            dtype=np.int64)
        self._next_id += points.shape[0]
        self._buffer.extend(zip(handles.tolist(), points))
        self._maybe_rebuild()
        return handles

    def _coerce_handles(self, handles):
        """Validate one handle or an iterable; returns a list of ints.

        Validation happens before any mutation, so a :class:`KeyError`
        leaves the tombstone set untouched (and lets the durable facade
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
        """Tombstone one handle or an iterable of handles."""
        fresh = [h for h in self._coerce_handles(handles)
                 if h not in self._deleted]
        if not fresh:
            return
        self._deleted.update(fresh)
        fresh = np.asarray(sorted(set(fresh)), dtype=np.int64)
        self._tombstones = np.union1d(self._tombstones, fresh)
        if self._indexed_ids_sorted.size:
            pos = np.searchsorted(self._indexed_ids_sorted, fresh)
            pos = np.minimum(pos, self._indexed_ids_sorted.size - 1)
            self._deleted_indexed += int(
                np.count_nonzero(self._indexed_ids_sorted[pos] == fresh)
            )

    def __len__(self):
        """Number of live (inserted minus deleted) points."""
        live_buffer = sum(1 for h, _ in self._buffer
                          if h not in self._deleted)
        return live_buffer + self._indexed_ids.size - self._deleted_indexed

    def _maybe_rebuild(self):
        indexed = self._indexed_ids.size
        buffered = len(self._buffer)
        if indexed + buffered < self.min_index_size:
            return
        if buffered <= self.rebuild_threshold * max(indexed, 1):
            return
        self._rebuild()

    def _rebuild(self):
        rows = []
        handles = []
        if self._indexed is not None:
            for handle, row in zip(self._indexed_ids, self._indexed):
                if int(handle) not in self._deleted:
                    rows.append(row)
                    handles.append(int(handle))
        for handle, row in self._buffer:
            if handle not in self._deleted:
                rows.append(row)
                handles.append(handle)
        self._buffer = []
        self._deleted = set()
        self._tombstones = np.empty(0, dtype=np.int64)
        self._deleted_indexed = 0
        if not rows:
            self._index = None
            self._indexed = None
            self._indexed_ids = np.empty(0, dtype=np.int64)
            self._indexed_ids_sorted = np.empty(0, dtype=np.int64)
            return
        self._indexed = np.vstack(rows)
        self._indexed_ids = np.asarray(handles, dtype=np.int64)
        self._indexed_ids_sorted = np.sort(self._indexed_ids)
        self._index = C2LSH(**self._kwargs).fit(self._indexed)
        self.rebuilds += 1

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
        if self._index is not None:
            # Over-fetch only for tombstones that can actually displace an
            # indexed answer (buffered deletes never appear in the main
            # index), and never ask the inner index for more than it holds.
            fetch = min(self._indexed_ids.size, k + self._deleted_indexed)
            main = self._index.query(query, k=fetch, budget=budget)
            handles = self._indexed_ids[main.ids]
            live = ~np.isin(handles, self._tombstones) \
                if self._deleted_indexed else np.ones(handles.size, dtype=bool)
            ids.append(handles[live])
            dists.append(main.distances[live])
            stats = main.stats
        live_buffer = [(h, row) for h, row in self._buffer
                       if h not in self._deleted]
        if live_buffer:
            buf_handles = np.array([h for h, _ in live_buffer],
                                   dtype=np.int64)
            buf_rows = np.vstack([row for _, row in live_buffer])
            diff = buf_rows - query
            ids.append(buf_handles)
            dists.append(np.sqrt(np.einsum("ij,ij->i", diff, diff)))
            stats.candidates += len(live_buffer)
        if not ids:
            raise RuntimeError("index is empty; insert points first")
        return QueryResult.from_candidates(
            np.concatenate(ids), np.concatenate(dists), k, stats
        )

    def __repr__(self):
        return (f"UpdatableC2LSH(live={len(self)}, "
                f"indexed={self._indexed_ids.size}, "
                f"buffered={len(self._buffer)}, rebuilds={self.rebuilds})")
