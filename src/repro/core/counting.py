"""Dynamic collision counting with virtual rehashing.

The engine keeps one sorted bucket file per LSH function: the table's
``(bucket_id, object_id)`` entries sorted by bucket id (the layout sized by
:data:`repro.storage.hashfile.ENTRY_BYTES`), held as stacked ``(m, n)``
arrays so all ``m`` lookups vectorize. For a query ``q`` and search radius
``R`` (an integer from the grid ``{1, c, c^2, ...}``), the radius-``R``
bucket of ``q`` under table ``j`` is the contiguous base-id interval::

    anchor = floor(q_j / R) * R        # q's radius-R bucket, as base ids
    [anchor, anchor + R)

Because ``R`` divides ``c * R``, these intervals are *nested* across radius
steps, so a collision at radius ``R`` persists at radius ``c*R`` and a
per-object collision count only ever grows. Incremental expansion exploits
this: stepping the radius scans only the two newly uncovered sub-ranges per
table (left and right extensions), which is what makes virtual rehashing
cheap. ``incremental=False`` re-scans every table's full interval at each
radius — identical answers, strictly more I/O — and exists for the A2
ablation.

Every table's bucket ids are also held as small unsigned *codes*, one per
object, that preserve the ids' order (:class:`CollisionCounter`). A covered
interval is a window of codes (:meth:`CollisionCounter.code_windows`), and
the batch engine's dense counting kernel compares codes against windows
instead of gathering the interval's entries.

All ``m`` binary searches per radius step run in lockstep via
:func:`repro.storage.vsearch.row_searchsorted`; bucket-scan I/O is charged
through :meth:`repro.storage.PageManager.charge_bucket_scans` so every
index shares one cost formula.
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from ..kernels import row_searchsorted
from ..storage.hashfile import ENTRY_BYTES

__all__ = ["CollisionCounter", "QueryCounter", "MAX_ROUNDS"]

#: Hard cap on radius-expansion rounds; 2**64 exceeds any int64 id span.
#: Shared by the block driver's radius grid and the start estimator.
MAX_ROUNDS = 64


class CollisionCounter:
    """Index-side state: ``m`` sorted hash tables over ``n`` objects.

    Besides each table's sorted bucket file (:attr:`order`,
    :attr:`sorted_ids`), every object has a *code* per table
    (:attr:`codes`) that preserves the order of the table's ids and maps
    distinct ids to distinct codes, so a run of whole buckets is a window
    of codes. When every table spans at most 65,536 ids, an object's code
    is its id minus the table's smallest id, in the narrower of uint8 and
    uint16 that holds every table: numpy sorts 8- and 16-bit keys with a
    stable radix sort, and a stable sort of ``id - min`` is the same
    permutation as a stable sort of ``id``. Otherwise the int64 ids are
    sorted and an object's code is the rank of its id among the table's
    distinct ids (below ``n``), so no code range is sized by the raw span.
    """

    def __init__(self, bucket_ids, page_manager=None, entry_bytes=ENTRY_BYTES):
        # ``bucket_ids`` may be a callable returning the ids: when the build
        # then holds the only reference, it drops the int64 ids once they
        # are coded, one ``(n, m)`` int64 array off the build's peak.
        if callable(bucket_ids):
            bucket_ids = bucket_ids()
        bucket_ids = np.asarray(bucket_ids, dtype=np.int64)
        if bucket_ids.ndim != 2:
            raise ValueError(
                f"bucket_ids must have shape (n, m), got {bucket_ids.shape}"
            )
        self.n, self.m = bucket_ids.shape
        if self.n == 0:
            raise ValueError("cannot index an empty database")
        #: Global bucket-id span; see _intervals_at for the saturation
        #: rule that keeps huge radii well-defined.
        self.id_span = int(bucket_ids.max()) - int(bucket_ids.min())
        columns = bucket_ids.T  # (m, n)
        low = columns.min(axis=1, keepdims=True)
        # Spans as unsigned: exact even where an int64 difference would wrap.
        spans = (columns.max(axis=1, keepdims=True) - low).view(np.uint64)
        dtype = np.min_scalar_type(int(spans.max()))
        if dtype.itemsize <= 2:
            codes = np.empty(columns.shape, dtype=dtype)
            np.subtract(columns, low, out=codes, casting="unsafe")
            del bucket_ids, columns  # the sorts below run without them
            order = np.argsort(codes, axis=1, kind="stable")
            sorted_ids = np.take_along_axis(codes, order, axis=1) + low
        else:
            order = np.argsort(columns, axis=1, kind="stable")
            sorted_ids = np.take_along_axis(columns, order, axis=1)
            ranks = np.zeros(columns.shape,
                             dtype=np.min_scalar_type(self.n - 1))
            np.cumsum(np.diff(sorted_ids, axis=1) != 0, axis=1,
                      dtype=ranks.dtype, out=ranks[:, 1:])
            codes = np.empty_like(ranks)
            np.put_along_axis(codes, order, ranks, axis=1)
        #: ``(m, n)`` code of every object in every table, and each
        #: table's code count (its codes lie in ``[0, code_widths[j])``).
        self.codes = codes
        self.code_widths = codes.max(axis=1).astype(np.int64) + 1
        self.order = order
        self.sorted_ids = sorted_ids
        self._pm = page_manager
        self._entry_bytes = int(entry_bytes)
        if self._pm is not None:
            self._pm.charge_write(
                self.m * self._pm.pages_for(self.n, self._entry_bytes),
                site="build",
            )

    def code_windows(self, lo, hi):
        """Closed code windows ``[wlo, whi]`` of position intervals.

        ``lo``/``hi`` are ``(A, m)`` intervals ``[lo, hi)`` as
        :func:`_intervals_at` returns them: runs of whole buckets. So the
        objects at positions ``[lo, hi)`` of table ``j`` are exactly those
        whose code lies between the codes at positions ``lo`` and
        ``hi - 1``. An empty interval maps to ``wlo > whi``. Both results
        are ``(A, m)`` arrays of the codes' dtype.
        """
        rows = np.arange(self.m)
        wlo = self.codes[rows, self.order[rows, np.minimum(lo, self.n - 1)]]
        whi = self.codes[rows, self.order[rows, np.maximum(hi - 1, 0)]]
        empty = hi <= lo
        wlo[empty] = 1
        whi[empty] = 0
        return wlo, whi

    def storage_pages(self, page_manager):
        """Total pages occupied by all hash-table entry files."""
        return self.m * page_manager.pages_for(self.n, self._entry_bytes)

    def start_query(self, query_bucket_ids, incremental=True):
        """Begin counting for a query hashed to ``(m,)`` base bucket ids."""
        query_bucket_ids = np.asarray(query_bucket_ids, dtype=np.int64)
        if query_bucket_ids.shape != (self.m,):
            raise ValueError(
                f"expected {self.m} query bucket ids, got shape "
                f"{query_bucket_ids.shape}"
            )
        return QueryCounter(self, query_bucket_ids, incremental=incremental)


def _intervals_at(counter, qids, radius):
    """Covered position intervals ``[lo, hi)`` at ``radius`` of the queries
    hashed to ``qids`` (``(m,)`` or ``(Q, m)`` base bucket ids)."""
    # Saturation: with an aligned grid, a query and a point on opposite
    # sides of a boundary that is aligned at *every* level (e.g. 0) never
    # share a bucket, however large the radius — so "cover everything"
    # is the correct limit semantics once the radius dwarfs the id span.
    # Saturating at 2*(span+1) also keeps anchor arithmetic inside int64.
    if radius >= 2 * (counter.id_span + 1):
        return (np.zeros(qids.shape, dtype=np.int64),
                np.full(qids.shape, counter.n, dtype=np.int64))
    anchors = (qids // radius) * radius
    lo = row_searchsorted(counter.sorted_ids, anchors, side="left")
    hi = row_searchsorted(counter.sorted_ids, anchors + radius, side="left")
    return lo, hi


class QueryCounter:
    """Per-query collision counts, expandable to growing radii."""

    def __init__(self, index, query_bucket_ids, incremental=True):
        self._index = index
        self._qids = query_bucket_ids
        self._incremental = bool(incremental)
        self.counts = np.zeros(index.n, dtype=np.int32)
        # Currently covered position interval [lo, hi) per table.
        self._lo = np.zeros(index.m, dtype=np.int64)
        self._hi = np.zeros(index.m, dtype=np.int64)
        self._started = False
        self.radius = 0  # last expanded radius (0 = nothing counted yet)
        #: Per-object count increment of the most recent expand() call
        #: (None before the first call / when nothing was touched). Lets
        #: callers detect threshold crossings without re-scanning ids.
        self.last_delta = None

    @property
    def exhausted(self):
        """True when every table's interval already covers all entries."""
        n = self._index.n
        return self._started and bool(
            np.all(self._lo == 0) and np.all(self._hi == n)
        )

    def _check_radius(self, radius):
        if radius < 1 or int(radius) != radius:
            raise ValueError(f"radius must be a positive integer, got {radius}")
        radius = int(radius)
        if self._started and (radius <= self.radius
                              or radius % self.radius != 0):
            raise ValueError(
                f"radius must grow by integer factors: "
                f"{self.radius} -> {radius}"
            )
        return radius

    def _gather(self, rows, lo, hi):
        """Collect object ids for per-table ``[lo, hi)`` segments, charge I/O.

        ``rows``/``lo``/``hi`` are parallel arrays: segment ``s`` is the
        position range ``[lo[s], hi[s])`` of table ``rows[s]``. Each segment
        is one contiguous bucket-range scan; the shared cost formula in
        ``PageManager.charge_bucket_scans`` prices them. The gather itself
        is a single flat fancy index built from ``np.repeat`` offsets — no
        per-segment Python loop.
        """
        keep = hi > lo
        rows, lo, hi = rows[keep], lo[keep], hi[keep]
        if rows.size == 0:
            return np.empty(0, dtype=np.int64)
        lengths = hi - lo
        pm = self._index._pm
        if pm is not None:
            pm.charge_bucket_scans(lengths, self._index._entry_bytes)
        total = int(lengths.sum())
        # Flat position of element t of the output: lo[s] + (t - start[s])
        # where s is t's segment and start[s] the cumulative offset.
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        pos = np.repeat(lo - starts, lengths) + np.arange(total)
        return self._index.order[np.repeat(rows, lengths), pos]

    def expand(self, radius):
        """Grow coverage to ``radius``; return object ids newly counted.

        ``radius`` must be a positive integer multiple of the previous
        radius (the grid ``{1, c, c^2, ...}`` satisfies this), so intervals
        nest and counts stay monotone. The returned array may contain an id
        once per table that newly covers it.
        """
        radius = self._check_radius(radius)
        if not self._incremental:
            return self._recount(radius)

        lo_new, hi_new = _intervals_at(self._index, self._qids, radius)
        if self._started:
            if np.any(lo_new > self._lo) or np.any(hi_new < self._hi):
                raise AssertionError(
                    "virtual-rehashing nesting violated: some table's "
                    f"radius-{radius} interval shrank"
                )
            # Interleave each table's left extension [lo_new, lo_old) and
            # right extension [hi_old, hi_new); _gather drops empty ones.
            js = np.flatnonzero((lo_new < self._lo) | (self._hi < hi_new))
            rows = np.repeat(js, 2)
            seg_lo = np.empty(rows.size, dtype=np.int64)
            seg_hi = np.empty(rows.size, dtype=np.int64)
            seg_lo[0::2], seg_hi[0::2] = lo_new[js], self._lo[js]
            seg_lo[1::2], seg_hi[1::2] = self._hi[js], hi_new[js]
        else:
            rows = np.arange(self._index.m)
            seg_lo, seg_hi = lo_new, hi_new
        self._lo, self._hi = lo_new, hi_new
        self._started = True
        self.radius = radius

        touched = self._gather(rows, seg_lo, seg_hi)
        self._apply(touched)
        return touched

    def _apply(self, touched):
        if touched.size:
            # An int32 bincount: an order of magnitude faster than
            # np.add.at.
            self.last_delta = kernels.bincount_i32(touched, self._index.n)
            self.counts += self.last_delta
        else:
            self.last_delta = None

    def newly_frequent(self, threshold):
        """Ids whose count crossed ``threshold`` in the last expand() call.

        In recount mode counts reset each round, so "crossed" means
        "frequent this round" — callers must dedupe across rounds.
        """
        if self.last_delta is None:
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(
            (self.counts >= threshold)
            & (self.counts - self.last_delta < threshold)
        )

    def _recount(self, radius):
        """Ablation mode: rebuild all counts from scratch at ``radius``."""
        self.counts[:] = 0
        lo_new, hi_new = _intervals_at(self._index, self._qids, radius)
        self._lo, self._hi = lo_new, hi_new
        self._started = True
        self.radius = radius
        touched = self._gather(np.arange(self._index.m), lo_new, hi_new)
        self._apply(touched)
        return touched

    def frequent(self, threshold):
        """All object ids with collision count ``>= threshold``."""
        return np.flatnonzero(self.counts >= threshold)
