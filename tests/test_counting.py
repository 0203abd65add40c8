"""Tests for the dynamic collision-counting engine (virtual rehashing)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.counting import CollisionCounter, _intervals_at
from repro.storage import PageManager


def brute_counts(bucket_ids, qids, radius):
    """Reference: #tables where floor(id/R) == floor(q/R), per object."""
    merged = bucket_ids // radius
    merged_q = qids // radius
    return (merged == merged_q).sum(axis=1)


@pytest.fixture()
def small_index():
    rng = np.random.default_rng(0)
    bucket_ids = rng.integers(-20, 20, size=(120, 7))
    qids = rng.integers(-20, 20, size=7)
    return bucket_ids, qids


class TestCollisionCounter:
    def test_shapes_and_validation(self):
        with pytest.raises(ValueError):
            CollisionCounter(np.zeros(5))
        with pytest.raises(ValueError):
            CollisionCounter(np.zeros((0, 3)))

    def test_query_id_shape_validated(self, small_index):
        bucket_ids, _ = small_index
        counter = CollisionCounter(bucket_ids)
        with pytest.raises(ValueError):
            counter.start_query(np.zeros(3, dtype=np.int64))

    def test_storage_pages(self, small_index):
        bucket_ids, _ = small_index
        pm = PageManager()
        counter = CollisionCounter(bucket_ids, page_manager=pm)
        assert counter.storage_pages(pm) == 7 * pm.pages_for(120, 12)
        assert pm.stats.writes == counter.storage_pages(pm)


class TestTableLayout:
    """The sorted bucket files of every table, and the codes beside them."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60),
           m=st.integers(1, 4),
           span=st.sampled_from([20, 300, 70_000, 2**40]),
           radius=st.sampled_from([1, 2, 3, 7, 64, 2**20]))
    @settings(max_examples=80, deadline=None)
    def test_property_intervals_equal_filter(self, seed, n, m, span,
                                             radius):
        """Each covered interval, and its code window, holds exactly the
        objects a linear filter over the ids finds."""
        rng = np.random.default_rng(seed)
        ids = rng.integers(-span, span, size=(n, m))
        counter = CollisionCounter(ids)
        assert np.array_equal(counter.order,
                              np.argsort(ids.T, axis=1, kind="stable"))
        # No code range is sized by a table's raw span.
        assert counter.codes.dtype.itemsize <= 2 or counter.codes.max() < n
        low, high = ids.min(axis=0), ids.max(axis=0)
        far = np.array([[2**40], [-2**40], [2**62], [-2**62]])
        qids = np.concatenate((rng.integers(-span - 5, span + 5, (3, m)),
                               ids[rng.integers(0, n, 3)],
                               np.stack((low - 1, low, high, high + 1)),
                               np.repeat(far, m, axis=1)))
        lo, hi = _intervals_at(counter, qids, radius)
        wlo, whi = counter.code_windows(lo, hi)
        saturated = radius >= 2 * (counter.id_span + 1)
        for i, row in enumerate(qids):
            for j in range(m):
                anchor = (row[j] // radius) * radius
                want = np.flatnonzero(
                    saturated | ((anchor <= ids[:, j])
                                 & (ids[:, j] < anchor + radius)))
                got = counter.order[j, lo[i, j]:hi[i, j]]
                assert np.array_equal(np.sort(got), want)
                in_window = np.flatnonzero((wlo[i, j] <= counter.codes[j])
                                           & (counter.codes[j] <= whi[i, j]))
                assert np.array_equal(in_window, want)

    def test_code_dtype_follows_widest_table(self):
        base = np.arange(10)[:, None]
        assert CollisionCounter(base * [1, 28]).codes.dtype == np.uint8
        assert CollisionCounter(base * [1, 29]).codes.dtype == np.uint16
        wide = CollisionCounter(base * [1, 10**6] - 5)
        assert wide.codes.dtype == np.uint8  # ranks below n = 10
        assert np.array_equal(wide.codes[1], np.arange(10))
        assert np.array_equal(wide.code_widths, [10, 10])
        # Rank-coded tables search their ids; byte-coded ones look up
        # bucket starts, one per code plus one per table.
        assert wide.bucket_starts is None and wide.sorted_ids is not None
        narrow = CollisionCounter(base * [1, 2])
        assert narrow.sorted_ids is None
        assert np.array_equal(narrow.bucket_starts,
                              np.r_[0:11, (np.arange(20) + 1) // 2])


class TestCountsCorrectness:
    def test_counts_match_brute_force_radius_1(self, small_index):
        bucket_ids, qids = small_index
        counter = CollisionCounter(bucket_ids)
        qc = counter.start_query(qids)
        qc.expand(1)
        assert np.array_equal(qc.counts, brute_counts(bucket_ids, qids, 1))

    def test_counts_match_after_expansion(self, small_index):
        bucket_ids, qids = small_index
        qc = CollisionCounter(bucket_ids).start_query(qids)
        for radius in (1, 2, 4, 8, 16):
            qc.expand(radius)
            assert np.array_equal(
                qc.counts, brute_counts(bucket_ids, qids, radius)
            ), f"counts diverge at radius {radius}"

    def test_counts_with_c3_grid(self, small_index):
        bucket_ids, qids = small_index
        qc = CollisionCounter(bucket_ids).start_query(qids)
        for radius in (1, 3, 9, 27):
            qc.expand(radius)
            assert np.array_equal(
                qc.counts, brute_counts(bucket_ids, qids, radius)
            )

    @given(st.integers(min_value=0, max_value=2**31),
           st.sampled_from([2, 3, 5]))
    @settings(max_examples=40, deadline=None)
    def test_property_counts_match_brute_force(self, seed, c):
        rng = np.random.default_rng(seed)
        n, m = rng.integers(2, 60), rng.integers(1, 6)
        bucket_ids = rng.integers(-30, 30, size=(n, m))
        qids = rng.integers(-30, 30, size=m)
        counter = CollisionCounter(bucket_ids)
        qc = counter.start_query(qids)
        radius = 1
        for _ in range(4):
            if radius >= 2 * (counter.id_span + 1):
                break  # beyond this the engine saturates by design
            qc.expand(radius)
            assert np.array_equal(
                qc.counts, brute_counts(bucket_ids, qids, radius)
            )
            radius *= c

    def test_counts_monotone_in_radius(self, small_index):
        bucket_ids, qids = small_index
        qc = CollisionCounter(bucket_ids).start_query(qids)
        prev = np.zeros(120, dtype=np.int64)
        for radius in (1, 2, 4, 8, 16, 32):
            qc.expand(radius)
            assert np.all(qc.counts >= prev)
            prev = qc.counts.copy()

    def test_counts_bounded_by_m(self, small_index):
        bucket_ids, qids = small_index
        qc = CollisionCounter(bucket_ids).start_query(qids)
        qc.expand(1)
        qc.expand(64)
        assert np.all(qc.counts <= 7)


class TestExpansionProtocol:
    def test_touched_ids_are_new_collisions_only(self, small_index):
        bucket_ids, qids = small_index
        qc = CollisionCounter(bucket_ids).start_query(qids)
        first = qc.expand(1)
        before = brute_counts(bucket_ids, qids, 1).sum()
        assert first.size == before
        second = qc.expand(2)
        total = brute_counts(bucket_ids, qids, 2).sum()
        assert second.size == total - before

    def test_radius_must_grow_by_integer_factor(self, small_index):
        bucket_ids, qids = small_index
        qc = CollisionCounter(bucket_ids).start_query(qids)
        qc.expand(2)
        with pytest.raises(ValueError):
            qc.expand(3)
        with pytest.raises(ValueError):
            qc.expand(2)

    def test_non_positive_or_fractional_radius_rejected(self, small_index):
        bucket_ids, qids = small_index
        qc = CollisionCounter(bucket_ids).start_query(qids)
        with pytest.raises(ValueError):
            qc.expand(0)
        with pytest.raises(ValueError):
            qc.expand(1.5)

    def test_exhausted_after_huge_radius(self, small_index):
        bucket_ids, qids = small_index
        qc = CollisionCounter(bucket_ids).start_query(qids)
        assert not qc.exhausted
        qc.expand(1)
        qc.expand(2 ** 40)
        assert qc.exhausted
        assert np.all(qc.counts == 7)

    def test_newly_frequent_detects_crossings(self, small_index):
        bucket_ids, qids = small_index
        qc = CollisionCounter(bucket_ids).start_query(qids)
        threshold = 3
        reported = set()
        for radius in (1, 2, 4, 8, 16, 32, 64):
            qc.expand(radius)
            fresh = qc.newly_frequent(threshold)
            assert not (set(fresh.tolist()) & reported), \
                "an id crossed the threshold twice"
            reported |= set(fresh.tolist())
            expected = set(np.flatnonzero(
                brute_counts(bucket_ids, qids, radius) >= threshold
            ).tolist())
            assert reported == expected


class TestRecountMode:
    def test_recount_matches_incremental_counts(self, small_index):
        bucket_ids, qids = small_index
        counter = CollisionCounter(bucket_ids)
        inc = counter.start_query(qids, incremental=True)
        rec = counter.start_query(qids, incremental=False)
        for radius in (1, 2, 4, 8):
            inc.expand(radius)
            rec.expand(radius)
            assert np.array_equal(inc.counts, rec.counts)

    def test_recount_costs_more_io(self, small_index):
        bucket_ids, qids = small_index
        pm_inc = PageManager()
        pm_rec = PageManager()
        inc = CollisionCounter(bucket_ids, page_manager=pm_inc) \
            .start_query(qids, incremental=True)
        rec = CollisionCounter(bucket_ids, page_manager=pm_rec) \
            .start_query(qids, incremental=False)
        pm_inc.reset()
        pm_rec.reset()
        for radius in (1, 2, 4, 8, 16):
            inc.expand(radius)
            rec.expand(radius)
        assert pm_rec.stats.reads >= pm_inc.stats.reads


class TestIOCharging:
    def test_expansion_charges_only_new_segments(self, small_index):
        bucket_ids, qids = small_index
        pm = PageManager()
        counter = CollisionCounter(bucket_ids, page_manager=pm)
        qc = counter.start_query(qids)
        pm.reset()
        qc.expand(1)
        first = pm.stats.reads
        assert first > 0
        qc.expand(2)
        # Each new segment costs at least one page, but re-reading covered
        # ranges would cost the full first-round amount again.
        assert pm.stats.reads >= first
