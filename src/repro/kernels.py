"""Counting and verification kernels: the hot loops, vectorized in numpy.

The five primitives that dominate C2LSH query wall-clock — lockstep
row-wise binary search, dense counting over the tables' codes, sparse
gather/accumulate, threshold scans (crossings + the T1 tally), and
candidate distance verification — live here, one function each. Every
kernel validates and dtype-normalizes its inputs, then computes a fully
specified result: integer kernels as exact comparisons and additions
(the dense counts' float32 product adds 0/1 terms into integers below
``2**24``, exact in any order), the distance kernels as a fixed balanced
fold tree (:func:`_fold_sum`), so ids, counts and float64 distances do
not depend on how numpy or BLAS schedules the work. Call sites
(:mod:`repro.core.batchengine`, :mod:`repro.core.counting`,
:mod:`repro.core.adaptive`, :mod:`repro.core.qalsh`,
:mod:`repro.storage.vsearch` and the distance of
:mod:`repro.hashing.pstable` / :mod:`repro.hashing.cauchy`) route every
hot call through them.

No kernel calls another public kernel, so a tracer that wraps the public
functions counts each call exactly once.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "row_searchsorted", "dense_counts", "sparse_counts", "crossings",
    "count_leq", "merge_sorted", "bincount_i32", "euclidean_distances",
    "manhattan_distances",
]

#: Entries per chunk of the sparse gather: keeps temporaries small enough
#: for the allocator to recycle instead of faulting fresh pages.
_GATHER_CHUNK = 1 << 21

#: Objects per block of the code comparison: two ``(m, w)`` bool
#: temporaries of a few hundred KiB, reused across the block's queries.
_COMPARE_COLUMNS = 2048


def row_searchsorted(sorted_rows, targets, side="left"):
    """Insertion positions of ``targets[..., i]`` within ``sorted_rows[i]``.

    Parameters
    ----------
    sorted_rows:
        ``(m, n)`` array, each row sorted ascending.
    targets:
        ``(m,)`` array of per-row search keys, or ``(..., m)`` — most
        usefully ``(Q, m)`` — to search every row with a whole batch of
        keys at once. Row ``i`` always answers ``targets[..., i]``.
    side:
        ``"left"`` (first position with ``row[pos] >= target``) or
        ``"right"`` (first position with ``row[pos] > target``), matching
        ``numpy.searchsorted`` semantics.

    Returns
    -------
    numpy.ndarray of int64, same shape as ``targets``, values in ``[0, n]``.
    All searches run in lockstep with ``O(log n)`` vectorized passes.
    """
    sorted_rows = np.asarray(sorted_rows)
    targets = np.asarray(targets)
    if sorted_rows.ndim != 2:
        raise ValueError(f"sorted_rows must be 2-D, got {sorted_rows.shape}")
    m, n = sorted_rows.shape
    if targets.ndim == 0 or targets.shape[-1] != m:
        raise ValueError(
            f"targets must have shape (..., {m}), got {targets.shape}"
        )
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if n == 0:
        return np.zeros(targets.shape, dtype=np.int64)
    flat = targets.reshape(-1, m)
    side_left = side == "left"
    lo = np.zeros(flat.shape, dtype=np.int64)
    hi = np.full(flat.shape, n, dtype=np.int64)
    rows = np.arange(m)  # broadcasts over the leading batch axis
    # Invariant: per key the answer lies in [lo, hi]; each pass halves the
    # active ranges. Converged keys (lo == hi) may hold lo == n, so probe a
    # clamped index and mask their updates out.
    active = lo < hi
    while np.any(active):
        mid = (lo + hi) >> 1
        vals = sorted_rows[rows, np.minimum(mid, n - 1)]
        if side_left:
            go_right = vals < flat
        else:
            go_right = vals <= flat
        lo = np.where(active & go_right, mid + 1, lo)
        hi = np.where(active & ~go_right, mid, hi)
        active = lo < hi
    return lo.reshape(targets.shape)


def dense_counts(codes, widths, wlo, whi, block=None):
    """Absolute collision counts at per-cell code windows, ``(A, n)`` int32.

    ``codes`` is the ``(m, n)`` unsigned code of every object in every
    table, with table ``j``'s codes in ``[0, widths[j])``; ``wlo``/``whi``
    are ``(A, m)`` closed code windows, empty where ``wlo > whi``. Object
    ``o`` is counted for query ``i`` once per table ``j`` with
    ``wlo[i, j] <= codes[j, o] <= whi[i, j]``.

    Without ``block``, each query compares the codes with its windows,
    ``_COMPARE_COLUMNS`` objects at a time: ``O(A * m * n)`` byte
    comparisons. With ``block`` — a float32 ``(S, w)`` scratch array,
    ``S = widths.sum()`` — the counts are the product ``Q @ M``: ``Q`` is
    the ``(A, S)`` 0/1 matrix of each cell's covered codes and ``M`` the
    ``(S, n)`` one-hot of the codes, built ``w`` columns at a time in
    ``block``: ``O(n * S)`` to build plus ``A * n * S`` multiply-adds.
    Every count is an integer at most ``m < 2**24``, and so is every
    partial sum, so the float32 sums are exact in any order BLAS adds.
    """
    codes = np.asarray(codes)
    widths = np.asarray(widths, dtype=np.int64)
    wlo = np.asarray(wlo, dtype=codes.dtype)
    whi = np.asarray(whi, dtype=codes.dtype)
    m, n = codes.shape
    A = wlo.shape[0]
    out = np.empty((A, n), dtype=np.int32)
    if block is None:
        ge = np.empty((m, min(n, _COMPARE_COLUMNS)), dtype=bool)
        le = np.empty_like(ge)
        total = np.min_scalar_type(m)  # holds a count of up to m exactly
        for c0 in range(0, n, _COMPARE_COLUMNS):
            cols = codes[:, c0:c0 + _COMPARE_COLUMNS]
            k = cols.shape[1]
            for i in range(A):
                np.greater_equal(cols, wlo[i][:, None], out=ge[:, :k])
                np.less_equal(cols, whi[i][:, None], out=le[:, :k])
                np.logical_and(ge[:, :k], le[:, :k], out=ge[:, :k])
                out[i, c0:c0 + k] = np.add.reduce(
                    ge[:, :k].view(np.uint8), axis=0, dtype=total)
        return out
    table = np.repeat(np.arange(m), widths)
    value = (np.arange(table.size) - np.repeat(np.cumsum(widths) - widths,
                                               widths)).astype(codes.dtype)
    q = ((wlo[:, table] <= value) & (value <= whi[:, table])).astype(
        np.float32)
    w = block.shape[1]
    for c0 in range(0, n, w):
        onehot = block[:, :min(w, n - c0)]
        np.equal(codes[table, c0:c0 + w], value[:, None], out=onehot)
        out[:, c0:c0 + onehot.shape[1]] = q @ onehot
    return out


def sparse_counts(order, seg_q, seg_t, seg_lo, lengths, n_queries):
    """Collision-count deltas from newly covered segments, ``(A, n)`` int32.

    Segment ``s`` adds one count to ``(seg_q[s], order[seg_t[s], p])`` for
    each position ``p`` in ``[seg_lo[s], seg_lo[s] + lengths[s])``; the
    result accumulates every segment over an ``(n_queries, n)`` zero
    matrix. Integer additions commute exactly, so any accumulation order
    yields the same matrix. Segments are sorted by query (stable) so each
    chunk's flat codes stay inside a narrow query band, then chunks are
    bincounted into a band-rebased scratch added onto one preallocated
    ``A * n`` buffer — the per-chunk temporary is ``O(band * n)``, not
    ``O(A * n)``.
    """
    order = np.asarray(order, dtype=np.int64)
    seg_q = np.asarray(seg_q, dtype=np.int64)
    seg_t = np.asarray(seg_t, dtype=np.int64)
    seg_lo = np.asarray(seg_lo, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    A = int(n_queries)
    n = order.shape[1]
    delta_flat = np.zeros(A * n, dtype=np.int32)
    if lengths.size == 0:
        return delta_flat.reshape(A, n)
    by_q = np.argsort(seg_q, kind="stable")
    seg_q, seg_t = seg_q[by_q], seg_t[by_q]
    seg_lo, lengths = seg_lo[by_q], lengths[by_q]
    ends = np.cumsum(lengths)
    n_segments = lengths.size
    start = 0
    while start < n_segments:
        base = int(ends[start - 1]) if start else 0
        # Largest run of whole segments fitting the chunk budget; an
        # oversized single segment still goes through alone.
        stop = int(np.searchsorted(ends, base + _GATHER_CHUNK,
                                   side="right"))
        stop = min(max(stop, start + 1), n_segments)
        lens = lengths[start:stop]
        local_starts = np.cumsum(lens) - lens
        pos = (np.repeat(seg_lo[start:stop] - local_starts, lens)
               + np.arange(int(lens.sum())))
        flat = (np.repeat(seg_q[start:stop] * np.int64(n), lens)
                + order[np.repeat(seg_t[start:stop], lens), pos])
        # Chunk codes live in [q_first * n, (q_last + 1) * n): rebase so
        # the bincount scratch covers only the chunk's query band.
        q_first = int(seg_q[start])
        band = (int(seg_q[stop - 1]) - q_first + 1) * n
        rebase = q_first * n
        delta_flat[rebase:rebase + band] += np.bincount(
            flat - rebase, minlength=band)
        start = stop
    return delta_flat.reshape(A, n)


def crossings(counts, prev, threshold):
    """``(qs, ids)`` where ``counts >= threshold`` but ``prev < threshold``.

    Row-major (query then ascending object), both int64 — exactly
    ``numpy.nonzero`` order, the order the sequential path verifies fresh
    candidates in.
    """
    counts = np.asarray(counts)
    prev = np.asarray(prev)
    threshold = int(threshold)
    qs, ids = np.nonzero((counts >= threshold) & (prev < threshold))
    return qs.astype(np.int64, copy=False), ids.astype(np.int64, copy=False)


def count_leq(sorted_values, threshold):
    """Number of elements ``<= threshold`` in an ascending float64 array."""
    sorted_values = np.asarray(sorted_values, dtype=np.float64)
    return int(np.searchsorted(sorted_values, float(threshold),
                               side="right"))


def merge_sorted(sorted_values, new_values):
    """Merge ``new_values`` (any order) into ascending ``sorted_values``."""
    sorted_values = np.asarray(sorted_values, dtype=np.float64)
    new_values = np.sort(np.asarray(new_values, dtype=np.float64))
    merged = np.concatenate((sorted_values, new_values))
    merged.sort(kind="stable")  # timsort merges the two runs in O(n)
    return merged


def bincount_i32(ids, n):
    """Occurrences of each id in ``[0, n)``, as int32 (collision deltas)."""
    ids = np.asarray(ids, dtype=np.int64)
    return np.bincount(ids, minlength=int(n)).astype(np.int32)


def _fold_sum(terms):
    """Deterministic balanced-tree row reduction of ``(n, d)`` float64.

    The fold pairs index ``t`` with ``t + h`` where ``h = (d + 1) // 2``,
    halving until one column remains; an odd middle element is carried
    unchanged. Every float64 addition in the tree is a single rounding at
    a fixed position, so the sums are specified here rather than by
    numpy's summation internals (which may change with the numpy version
    or SIMD dispatch); a different tree would change distance bits.
    Consumes ``terms`` as scratch.
    """
    n, d = terms.shape
    if d == 0:
        return np.zeros(n, dtype=np.float64)
    while d > 1:
        h = (d + 1) // 2
        terms[:, : d - h] += terms[:, h:d]
        d = h
    return terms[:, 0].copy()


def euclidean_distances(points, query):
    """Euclidean distances from each row of ``(n, d)`` points to ``query``.

    Reduced with the fixed balanced fold tree of :func:`_fold_sum`.
    """
    points = np.asarray(points, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    diff = points - query
    return np.sqrt(_fold_sum(diff * diff))


def manhattan_distances(points, query):
    """Manhattan (l1) distances from each row of ``(n, d)`` to ``query``."""
    points = np.asarray(points, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    return _fold_sum(np.abs(points - query))
