"""Tests for the insert/delete wrapper over C2LSH."""

import numpy as np
import pytest

from repro import kernels
from repro.core.updatable import UpdatableC2LSH
from repro.data import exact_knn


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


def make_index(**kwargs):
    defaults = dict(seed=0, c=2, min_index_size=100)
    defaults.update(kwargs)
    return UpdatableC2LSH(**defaults)


class TestInsert:
    def test_handles_are_sequential(self, rng):
        index = make_index()
        h1 = index.insert(rng.standard_normal((10, 8)))
        h2 = index.insert(rng.standard_normal(8))
        assert h1.tolist() == list(range(10))
        assert h2.tolist() == [10]

    def test_len_counts_live_points(self, rng):
        index = make_index()
        index.insert(rng.standard_normal((30, 8)))
        assert len(index) == 30
        index.delete([3, 4])
        assert len(index) == 28

    def test_dimension_mismatch_rejected(self, rng):
        index = make_index()
        index.insert(rng.standard_normal((5, 8)))
        with pytest.raises(ValueError):
            index.insert(rng.standard_normal((5, 9)))

    def test_empty_insert_rejected(self):
        with pytest.raises(ValueError):
            make_index().insert(np.empty((0, 4)))

    def test_small_sets_stay_brute_force(self, rng):
        index = make_index(min_index_size=1000)
        index.insert(rng.standard_normal((50, 8)))
        assert index.rebuilds == 0

    def test_rebuild_triggers_past_threshold(self, rng):
        index = make_index(min_index_size=50, rebuild_threshold=0.2)
        index.insert(rng.standard_normal((200, 8)))
        assert index.rebuilds >= 1


class TestQuery:
    def test_matches_exact_knn_through_growth(self, rng):
        index = make_index(min_index_size=50)
        all_rows = []
        for _ in range(6):
            batch = rng.standard_normal((60, 8)) * 5
            index.insert(batch)
            all_rows.append(batch)
        data = np.vstack(all_rows)
        q = data[17] + 0.001
        result = index.query(q, k=5)
        true_ids, _ = exact_knn(data, q, 5)
        assert set(result.ids.tolist()) == set(true_ids.tolist())

    def test_query_sees_unindexed_buffer(self, rng):
        index = make_index(min_index_size=10, rebuild_threshold=1.0)
        index.insert(rng.standard_normal((50, 8)))
        special = np.full(8, 42.0)
        handle = index.insert(special)[0]
        result = index.query(special, k=1)
        assert result.ids[0] == handle
        assert result.distances[0] == 0.0

    def test_deleted_points_never_returned(self, rng):
        index = make_index(min_index_size=10)
        data = rng.standard_normal((100, 8))
        handles = index.insert(data)
        target = handles[7]
        index.delete(target)
        result = index.query(data[7], k=10)
        assert target not in result.ids

    def test_buffered_distances_have_the_kernels_bits(self):
        """A point's distance does not change bits when a rebuild moves it
        from the buffer into the index: both go through one kernel."""
        rng = np.random.default_rng(0)
        data = 3 * rng.standard_normal((120, 24))
        index = make_index(min_index_size=100, rebuild_threshold=0.3)
        index.insert(data[:100])
        index.insert(data[100:])
        assert index.rebuilds == 1 and len(index._buffer) == 20
        for q in 3 * rng.standard_normal((20, 24)):
            result = index.query(q, k=120)
            assert np.array_equal(
                result.distances,
                kernels.euclidean_distances(data[result.ids], q))

    def test_delete_from_buffer(self, rng):
        index = make_index(min_index_size=10, rebuild_threshold=1.0)
        index.insert(rng.standard_normal((20, 8)))
        special = np.full(8, 9.0)
        handle = index.insert(special)[0]
        index.delete(handle)
        result = index.query(special, k=3)
        assert handle not in result.ids

    def test_handles_stable_across_rebuilds(self, rng):
        index = make_index(min_index_size=20, rebuild_threshold=0.1)
        first = rng.standard_normal((30, 8))
        handles = index.insert(first)
        for _ in range(5):
            index.insert(rng.standard_normal((20, 8)) + 50)
        assert index.rebuilds >= 1
        result = index.query(first[3], k=1)
        assert result.ids[0] == handles[3]

    def test_deleted_points_dropped_at_rebuild(self, rng):
        index = make_index(min_index_size=10, rebuild_threshold=0.05)
        handles = index.insert(rng.standard_normal((100, 8)))
        index.delete(handles[:50])
        index.insert(rng.standard_normal((30, 8)))  # forces rebuild
        assert len(index) == 80

    def test_query_empty_rejected(self):
        with pytest.raises(RuntimeError):
            make_index().query(np.zeros(4))

    def test_non_finite_query_rejected_while_buffered(self, rng):
        index = make_index()
        index.insert(rng.standard_normal((50, 4)))  # all still buffered
        query = np.zeros(4)
        query[1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            index.query(query, k=3)

    def test_unknown_handle_rejected(self, rng):
        index = make_index()
        index.insert(rng.standard_normal((5, 4)))
        with pytest.raises(KeyError):
            index.delete(99)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            UpdatableC2LSH(rebuild_threshold=0.0)
        with pytest.raises(ValueError):
            UpdatableC2LSH(min_index_size=0)
        with pytest.raises(ValueError):
            UpdatableC2LSH(family=object())
        index = make_index()
        index.insert(rng.standard_normal((5, 4)))
        with pytest.raises(ValueError):
            index.query(np.zeros(5))
        with pytest.raises(ValueError):
            index.query(np.zeros(4), k=0)

    def test_repr(self, rng):
        index = make_index()
        index.insert(rng.standard_normal((5, 4)))
        assert "live=5" in repr(index)
