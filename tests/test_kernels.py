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


def _oracle_dense(rank, lo, hi):
    A, m = lo.shape
    n = rank.shape[1]
    out = np.zeros((A, n), dtype=np.int32)
    for i in range(A):
        for j in range(m):
            for o in range(n):
                if lo[i, j] <= rank[j, o] < hi[i, j]:
                    out[i, o] += 1
    return out


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
    @given(dims=tables, A=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
    def test_dense_counts(self, dims, A, seed):
        m, n, _ = dims
        rng = np.random.default_rng(seed)
        rank = np.stack([rng.permutation(n) for _ in range(m)]) \
            .astype(np.int32).reshape(m, n)
        lo = rng.integers(0, n + 1, (A, m))
        hi = np.minimum(lo + rng.integers(0, n + 1, (A, m)), n)
        got = kernels.dense_counts(rank, lo, hi)
        assert got.dtype == np.int32
        assert np.array_equal(got, _oracle_dense(rank, lo, hi))

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
        counts = kernels.dense_counts(np.empty((3, 0), np.int32),
                                      np.zeros((2, 3), np.int64),
                                      np.zeros((2, 3), np.int64))
        assert counts.shape == (2, 0)

    def test_empty_active_set(self):
        rank = np.array([[0, 1, 2]], dtype=np.int32)
        counts = kernels.dense_counts(rank, np.zeros((0, 1), np.int64),
                                      np.zeros((0, 1), np.int64))
        assert counts.shape == (0, 3)
        qs, ids = kernels.crossings(np.zeros((0, 3), np.int32),
                                    np.zeros((0, 3), np.int32), 1)
        assert qs.size == 0 and ids.size == 0

    def test_no_segments(self):
        order = np.array([[2, 0, 1]], dtype=np.int64)
        z = np.zeros(0, np.int64)
        delta = kernels.sparse_counts(order, z, z, z, z, 4)
        assert delta.shape == (4, 3) and not delta.any()

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
