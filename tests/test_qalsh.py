"""Tests for the QALSH query-aware extension."""

import math

import numpy as np
import pytest

from repro import QALSH, PageManager
from repro.core.qalsh import qalsh_collision_probability, qalsh_optimal_w
from repro.data import exact_knn


class TestCollisionProbability:
    def test_zero_distance(self):
        assert qalsh_collision_probability(0.0, w=2.0) == 1.0

    def test_monotone_decreasing(self):
        # ndtr saturates to exactly 1.0 for tiny s, so require non-increase
        # everywhere and strict decrease once out of the saturated regime.
        s = np.linspace(0.01, 10, 100)
        p = qalsh_collision_probability(s, w=2.0)
        assert np.all(np.diff(p) <= 0)
        assert np.all(np.diff(p[s > 0.5]) < 0)

    def test_scale_invariance_in_radius(self):
        """p(s, R) depends only on s / R."""
        a = qalsh_collision_probability(1.0, w=2.0, radius=1.0)
        b = qalsh_collision_probability(3.0, w=2.0, radius=3.0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_known_value(self):
        from scipy.special import ndtr
        expected = 2 * ndtr(1.0) - 1  # w=2, s=1 -> t = 1
        assert qalsh_collision_probability(1.0, w=2.0) == pytest.approx(
            expected, rel=1e-12)

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            qalsh_collision_probability(1.0, w=0.0)
        with pytest.raises(ValueError):
            qalsh_collision_probability(-1.0, w=1.0)
        with pytest.raises(ValueError):
            qalsh_collision_probability(1.0, w=1.0, radius=0.0)


class TestOptimalW:
    def test_published_formula(self):
        c = 2.0
        expected = math.sqrt(8 * c * c * math.log(c) / (c * c - 1))
        assert qalsh_optimal_w(c) == pytest.approx(expected)

    def test_invalid_c_rejected(self):
        with pytest.raises(ValueError):
            qalsh_optimal_w(1.0)


class TestQALSHIndex:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            QALSH(c=1.0)

    def test_unfitted_query_rejected(self):
        with pytest.raises(RuntimeError):
            QALSH(seed=0).query(np.zeros(4))

    def test_fit_sets_parameters(self, tiny):
        data, _ = tiny
        index = QALSH(seed=0).fit(data)
        assert index.m >= 1
        assert 1 <= index.l <= index.m
        assert index.p2 < index.alpha < index.p1

    def test_fractional_c_supported(self, clustered):
        data, queries = clustered
        index = QALSH(c=1.5, seed=0).fit(data)
        result = index.query(queries[0], k=5)
        assert len(result) == 5

    def test_final_radius_is_the_real_grid_radius(self, clustered):
        """At c = 1.5 the radii are 1, 1.5, 2.25, ...: ``final_radius`` is
        the last round's radius itself, not its integer part."""
        data, queries = clustered
        shifted = queries + np.random.default_rng(1).normal(0, 40, 20)
        index = QALSH(c=1.5, seed=0).fit(data)
        grid = [1]
        for _ in range(63):
            grid.append(grid[-1] * 1.5)
        for q in np.vstack([queries, shifted]):
            stats = index.query(q, k=10).stats
            assert stats.final_radius == grid[stats.rounds - 1]

    def test_exact_match_found(self, clustered):
        data, _ = clustered
        index = QALSH(seed=0).fit(data)
        result = index.query(data[42], k=1)
        assert result.ids[0] == 42

    def test_high_recall_on_clustered_data(self, clustered):
        data, queries = clustered
        index = QALSH(c=2, seed=0).fit(data)
        true_ids, _ = exact_knn(data, queries, 10)
        hits = 0
        for q, truth in zip(queries, true_ids):
            got = index.query(q, k=10)
            hits += len(set(got.ids.tolist()) & set(truth.tolist()))
        assert hits / (10 * len(queries)) > 0.8

    def test_uses_fewer_functions_than_c2lsh(self, clustered):
        """Query-aware windows have a wider p1-p2 gap, so m shrinks —
        QALSH's headline improvement over C2LSH."""
        from repro import C2LSH
        data, _ = clustered
        qalsh = QALSH(c=2, seed=0).fit(data)
        c2lsh = C2LSH(c=2, seed=0).fit(data)
        assert qalsh.m < c2lsh.params.m

    def test_io_accounting(self, tiny):
        data, queries = tiny
        pm = PageManager()
        index = QALSH(seed=0, page_manager=pm).fit(data)
        assert pm.stats.writes > 0
        result = index.query(queries[0], k=3)
        assert result.stats.io_reads >= result.stats.candidates
        assert index.index_pages() == index.m * pm.pages_for(
            data.shape[0], 12)

    def test_query_validation(self, tiny):
        data, _ = tiny
        index = QALSH(seed=0).fit(data)
        with pytest.raises(ValueError):
            index.query(np.zeros(9))
        with pytest.raises(ValueError):
            index.query(np.zeros(8), k=0)

    def test_batch(self, tiny):
        data, queries = tiny
        index = QALSH(seed=0).fit(data)
        batch = index.query_batch(queries, k=3)
        assert len(batch) == len(queries)

    def test_determinism(self, tiny):
        data, queries = tiny
        a = QALSH(seed=4).fit(data).query(queries[0], k=5)
        b = QALSH(seed=4).fit(data).query(queries[0], k=5)
        assert np.array_equal(a.ids, b.ids)

    def test_results_sorted(self, tiny):
        data, queries = tiny
        index = QALSH(seed=0).fit(data)
        for q in queries:
            assert np.all(np.diff(index.query(q, k=6).distances) >= 0)

    def test_termination_labels(self, clustered):
        data, queries = clustered
        index = QALSH(seed=0).fit(data)
        for q in queries[:5]:
            assert index.query(q, k=5).stats.terminated_by in {
                "T1", "T2", "exhausted", "fallback"}
