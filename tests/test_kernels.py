"""Kernel tests: each kernel against a brute-force oracle, adversarial shapes.

The contract under test (see :mod:`repro.kernels`): every kernel's result
is fully specified — integer kernels as exact comparisons/additions, the
distance kernels as a fixed balanced fold tree — so the kernels and a
brute-force oracle must agree **bit for bit** on ids, counts and
positions, and the distances must match a naive reduction to rounding.

The Hypothesis properties drive every kernel against the oracle over
adversarial shapes: zero-row tables, single-query batches,
duplicate-heavy ties, empty active sets / segment lists, and
non-contiguous views (the shape shared_memory shard slices arrive in).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.counting import CollisionCounter


# --------------------------------------------------------------------------
# oracles
# --------------------------------------------------------------------------

def _oracle_searchsorted(rows, targets, side):
    flat = targets.reshape(-1, rows.shape[0])
    out = np.empty(flat.shape, dtype=np.int64)
    for b in range(flat.shape[0]):
        for j in range(rows.shape[0]):
            out[b, j] = np.searchsorted(rows[j], flat[b, j], side=side)
    return out.reshape(targets.shape)


def _oracle_dense(codes, wlo, whi):
    A, m = wlo.shape
    out = np.zeros((A, codes.shape[1]), dtype=np.int32)
    for i in range(A):
        for j in range(m):
            out[i] += ((int(wlo[i, j]) <= codes[j])
                       & (codes[j] <= int(whi[i, j])))
    return out


def _random_windows(rng, widths, A, dtype):
    """Closed code windows per (query, table): random, full and empty."""
    m = widths.size
    a = rng.integers(0, widths, (A, m))
    b = rng.integers(0, widths, (A, m))
    wlo, whi = np.minimum(a, b), np.maximum(a, b)
    kind = rng.integers(0, 4, (A, m))
    wlo[kind == 1], whi[kind == 1] = 0, (widths - 1)[
        np.nonzero(kind == 1)[1]]
    wlo[kind == 2], whi[kind == 2] = 1, 0  # empty
    return wlo.astype(dtype), whi.astype(dtype)


def _both_dense(codes, widths, wlo, whi, block_cols):
    """dense_counts' comparison and product results, in that order."""
    block = np.empty((int(widths.sum()), block_cols), dtype=np.float32)
    return (kernels.dense_counts(codes, widths, wlo, whi),
            kernels.dense_counts(codes, widths, wlo, whi, block))


def _oracle_sparse(order, seg_q, seg_t, seg_lo, lengths, A):
    out = np.zeros((A, order.shape[1]), dtype=np.int32)
    for q, t, lo, ln in zip(seg_q, seg_t, seg_lo, lengths):
        for p in range(lo, lo + ln):
            out[q, order[t, p]] += 1
    return out


# --------------------------------------------------------------------------
# shared strategies
# --------------------------------------------------------------------------

tables = st.tuples(st.integers(1, 5), st.integers(0, 40),
                   st.integers(0, 60))


# --------------------------------------------------------------------------
# properties vs the oracle (bit-exact)
# --------------------------------------------------------------------------

class TestKernelsMatchOracle:

    @settings(max_examples=60, deadline=None)
    @given(dims=tables, side=st.sampled_from(["left", "right"]),
           seed=st.integers(0, 2**32 - 1))
    def test_row_searchsorted(self, dims, side, seed):
        m, n, q = dims
        rng = np.random.default_rng(seed)
        # Duplicate-heavy: ids drawn from a tiny alphabet force tie cases.
        rows = np.sort(rng.integers(0, max(1, n // 3 + 1), (m, n)), axis=1)
        targets = rng.integers(-2, max(2, n // 3 + 2), (q, m))
        got = kernels.row_searchsorted(rows, targets, side=side)
        assert got.dtype == np.int64
        assert np.array_equal(got, _oracle_searchsorted(rows, targets, side))

    @settings(max_examples=60, deadline=None)
    @given(m=st.sampled_from([1, 3, 40, 400]), n=st.integers(1, 60),
           A=st.sampled_from([0, 1, 2, 64]),
           span=st.sampled_from([3, 300, 70_000, 2**40]),
           block_cols=st.integers(1, 70), seed=st.integers(0, 2**32 - 1))
    def test_dense_counts(self, m, n, A, span, block_cols, seed):
        """Both strategies against the oracle, on the codes an index
        builds: uint8 and uint16 offsets, and the ranks of wide tables."""
        rng = np.random.default_rng(seed)
        ids = rng.integers(-span, span, (n, m))
        counter = CollisionCounter(ids)
        codes, widths = counter.codes, counter.code_widths
        wlo, whi = _random_windows(rng, widths, A, codes.dtype)
        want = _oracle_dense(codes, wlo, whi)
        for got in _both_dense(codes, widths, wlo, whi, block_cols):
            assert got.dtype == np.int32 and got.shape == (A, n)
            assert np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(dims=tables, A=st.integers(1, 5), n_seg=st.integers(0, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_sparse_counts(self, dims, A, n_seg, seed):
        m, n, _ = dims
        if n == 0:
            n_seg = 0  # no coverable positions
        rng = np.random.default_rng(seed)
        order = np.stack([rng.permutation(max(n, 1)) for _ in range(m)]) \
            .astype(np.int64)[:, :n].reshape(m, n)
        seg_q = rng.integers(0, A, n_seg)
        seg_t = rng.integers(0, m, n_seg)
        seg_lo = rng.integers(0, max(n, 1), n_seg)
        lengths = rng.integers(0, n - seg_lo + 1) if n_seg else \
            np.zeros(0, np.int64)
        got = kernels.sparse_counts(order, seg_q.astype(np.int64),
                                    seg_t.astype(np.int64),
                                    seg_lo.astype(np.int64),
                                    np.asarray(lengths, np.int64), A)
        assert got.dtype == np.int32
        assert np.array_equal(
            got, _oracle_sparse(order, seg_q, seg_t, seg_lo, lengths, A))

    @settings(max_examples=60, deadline=None)
    @given(A=st.integers(0, 6), n=st.integers(0, 50),
           threshold=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
    def test_crossings(self, A, n, threshold, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 5, (A, n)).astype(np.int32)
        prev = np.minimum(counts, rng.integers(0, 5, (A, n))).astype(np.int32)
        qs, ids = kernels.crossings(counts, prev, threshold)
        eq, eids = np.nonzero((counts >= threshold) & (prev < threshold))
        assert qs.dtype == np.int64 and ids.dtype == np.int64
        assert np.array_equal(qs, eq) and np.array_equal(ids, eids)

    @settings(max_examples=60, deadline=None)
    @given(vals=st.lists(st.floats(-1e6, 1e6), max_size=30),
           threshold=st.floats(-1e6, 1e6))
    def test_count_leq(self, vals, threshold):
        arr = np.sort(np.asarray(vals, dtype=np.float64))
        assert kernels.count_leq(arr, threshold) == int(
            np.searchsorted(arr, threshold, side="right"))

    @settings(max_examples=60, deadline=None)
    @given(a=st.lists(st.floats(-100, 100), max_size=20),
           b=st.lists(st.floats(-100, 100), max_size=20))
    def test_merge_sorted(self, a, b):
        sa = np.sort(np.asarray(a, np.float64))
        sb = np.sort(np.asarray(b, np.float64))
        got = kernels.merge_sorted(sa, sb)
        assert np.array_equal(got, np.sort(np.concatenate((sa, sb))))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), size=st.integers(0, 100),
           seed=st.integers(0, 2**32 - 1))
    def test_bincount(self, n, size, seed):
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, n, size)
        got = kernels.bincount_i32(ids, n)
        assert got.dtype == np.int32
        assert np.array_equal(got, np.bincount(ids, minlength=n))

    @settings(max_examples=60, deadline=None)
    @given(shape=st.tuples(st.integers(0, 12), st.integers(0, 24)),
           seed=st.integers(0, 2**32 - 1))
    def test_distances_close_to_naive(self, shape, seed):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal(shape)
        q = rng.standard_normal(shape[1])
        np.testing.assert_allclose(
            kernels.euclidean_distances(pts, q),
            np.sqrt(((pts - q) ** 2).sum(axis=1)), rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            kernels.manhattan_distances(pts, q),
            np.abs(pts - q).sum(axis=1), rtol=1e-12, atol=0)


# --------------------------------------------------------------------------
# adversarial shapes
# --------------------------------------------------------------------------

class TestAdversarialShapes:

    def test_zero_row_tables(self):
        rows = np.empty((3, 0), dtype=np.int64)
        out = kernels.row_searchsorted(rows, np.array([1, 2, 3]))
        assert np.array_equal(out, np.zeros(3, dtype=np.int64))
        for counts in _both_dense(np.empty((3, 0), np.uint8),
                                  np.ones(3, np.int64),
                                  np.zeros((2, 3), np.uint8),
                                  np.zeros((2, 3), np.uint8), 4):
            assert counts.shape == (2, 0)

    def test_empty_active_set(self):
        codes = np.array([[0, 1, 2]], dtype=np.uint8)
        for counts in _both_dense(codes, np.array([3]),
                                  np.zeros((0, 1), np.uint8),
                                  np.zeros((0, 1), np.uint8), 2):
            assert counts.shape == (0, 3)
        qs, ids = kernels.crossings(np.zeros((0, 3), np.int32),
                                    np.zeros((0, 3), np.int32), 1)
        assert qs.size == 0 and ids.size == 0

    def test_no_segments(self):
        order = np.array([[2, 0, 1]], dtype=np.int64)
        z = np.zeros(0, np.int64)
        delta = kernels.sparse_counts(order, z, z, z, z, 4)
        assert delta.shape == (4, 3) and not delta.any()

    def test_dense_counts_across_column_blocks(self):
        """More objects than one comparison block; a ragged last block."""
        rng = np.random.default_rng(5)
        n = 2 * kernels._COMPARE_COLUMNS + 5
        codes = rng.integers(0, 7, (4, n)).astype(np.uint8)
        widths = np.full(4, 7)
        wlo, whi = _random_windows(rng, widths, 3, np.uint8)
        want = _oracle_dense(codes, wlo, whi)
        for got in _both_dense(codes, widths, wlo, whi, 1000):
            assert np.array_equal(got, want)

    def test_single_query_batch(self):
        rows = np.array([[0, 5, 5, 9]], dtype=np.int64)
        out = kernels.row_searchsorted(rows, np.array([[5]]), side="right")
        assert out.shape == (1, 1) and out[0, 0] == 3

    def test_non_contiguous_views(self):
        """Strided views (shared_memory shard slices) must work unchanged."""
        rng = np.random.default_rng(0)
        base = np.sort(rng.integers(0, 30, (8, 40)), axis=1)
        rows = base[::2]  # row-strided view
        assert not rows.flags["C_CONTIGUOUS"] or rows.base is not None
        tg_base = rng.integers(0, 30, (10, 8))
        targets = tg_base[::2, ::2]  # doubly strided
        got = kernels.row_searchsorted(rows, targets)
        assert np.array_equal(got, _oracle_searchsorted(
            np.ascontiguousarray(rows), np.ascontiguousarray(targets),
            "left"))
        pts_base = rng.standard_normal((12, 16))
        pts = pts_base[1::2, ::2]
        q = pts_base[0, ::2]
        np.testing.assert_allclose(
            kernels.euclidean_distances(pts, q),
            np.sqrt(((pts - q) ** 2).sum(axis=1)), rtol=1e-12)

    def test_duplicate_heavy_ties(self):
        rows = np.zeros((4, 32), dtype=np.int64)  # every id equal
        left = kernels.row_searchsorted(rows, np.zeros((3, 4), np.int64))
        right = kernels.row_searchsorted(rows, np.zeros((3, 4), np.int64),
                                         side="right")
        assert np.all(left == 0) and np.all(right == 32)


# --------------------------------------------------------------------------
# public surface and end to end
# --------------------------------------------------------------------------

def test_public_surface_is_the_kernels():
    assert kernels.__all__ == [
        "row_searchsorted", "dense_counts", "sparse_counts", "crossings",
        "count_leq", "merge_sorted", "bincount_i32", "euclidean_distances",
        "manhattan_distances"]
    assert all(callable(getattr(kernels, name)) for name in kernels.__all__)


def test_sequential_matches_batch(tiny):
    from repro import C2LSH

    data, queries = tiny
    index = C2LSH(seed=3).fit(data)
    seq = [index.query(q, k=4) for q in queries]
    bat = index.query_batch(queries, k=4)
    for a, b in zip(seq, bat):
        assert np.array_equal(a.ids, b.ids)
        assert a.distances.tobytes() == b.distances.tobytes()
