"""Batch query engine: lockstep counting must match the sequential path.

The contract of :mod:`repro.core.batchengine` is *bit-identical* results:
same ids, same distances, same :class:`QueryStats` (including charged page
I/O), for every query in the batch — only the wall-clock differs. Every
test here therefore builds two identically seeded indexes and compares
``query_batch`` against a plain ``query`` loop field by field.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import C2LSH, PageManager
from repro.core import BatchQueryCounter, WithinRadiusTally
from repro.core.batchengine import batch_query
from repro.hashing import SignRandomProjectionFamily

STAT_FIELDS = ("rounds", "final_radius", "candidates", "scanned_entries",
               "terminated_by", "io_reads", "io_writes")


def build_pair(data, seed=0, **kwargs):
    """Two independent, identically seeded indexes (separate page managers)."""
    indexes = []
    for _ in range(2):
        kw = dict(kwargs)
        if kw.pop("sign_family", False):
            kw["family"] = SignRandomProjectionFamily(data.shape[1])
        indexes.append(
            C2LSH(seed=seed, page_manager=PageManager(), **kw).fit(data)
        )
    return indexes


def assert_equivalent(seq_results, batch_results):
    assert len(seq_results) == len(batch_results)
    for i, (s, b) in enumerate(zip(seq_results, batch_results)):
        assert np.array_equal(s.ids, b.ids), f"query {i}: ids differ"
        assert np.array_equal(s.distances, b.distances), \
            f"query {i}: distances differ"
        for field in STAT_FIELDS:
            assert getattr(s.stats, field) == getattr(b.stats, field), \
                f"query {i}: stats.{field} differs"
        # elapsed_s parity: both paths measure wall time, so the values
        # cannot be equal — but both must be populated and positive.
        assert s.stats.elapsed_s > 0.0, f"query {i}: sequential elapsed_s"
        assert b.stats.elapsed_s > 0.0, f"query {i}: batch elapsed_s"


class TestWithinRadiusTally:
    def test_matches_rescan(self):
        rng = np.random.default_rng(0)
        tally = WithinRadiusTally()
        seen = []
        threshold = 0.0
        for _ in range(12):
            fresh = rng.uniform(0, 10, size=rng.integers(0, 6))
            tally.add(fresh)
            seen.extend(fresh)
            threshold += rng.uniform(0, 3)  # non-decreasing
            expect = int(np.sum(np.asarray(seen) <= threshold))
            assert tally.count_within(threshold) == expect

    def test_empty(self):
        tally = WithinRadiusTally()
        assert tally.count_within(1.0) == 0
        tally.add(np.empty(0))
        assert tally.count_within(2.0) == 0


class TestBatchEquivalence:
    @pytest.mark.parametrize("layout", ["scattered", "id", "zorder"])
    def test_layouts(self, tiny, layout):
        data, queries = tiny
        seq_idx, bat_idx = build_pair(data, data_layout=layout)
        seq = [seq_idx.query(q, k=5) for q in queries]
        assert_equivalent(seq, bat_idx.query_batch(queries, k=5))

    def test_clustered_mixed_termination(self, clustered):
        data, queries = clustered
        # Mix in far-off queries so termination radii differ across the
        # batch — otherwise the active-set bookkeeping is untested.
        rng = np.random.default_rng(11)
        far = queries + rng.normal(0, 40.0, size=queries.shape)
        queries = np.concatenate([queries, far])
        seq_idx, bat_idx = build_pair(data)
        seq = [seq_idx.query(q, k=10) for q in queries]
        bat = bat_idx.query_batch(queries, k=10)
        assert_equivalent(seq, bat)
        assert len({r.stats.final_radius for r in bat}) > 1

    def test_single_granularity_family(self, tiny):
        data, queries = tiny
        seq_idx, bat_idx = build_pair(data, sign_family=True)
        seq = [seq_idx.query(q, k=3) for q in queries]
        bat = bat_idx.query_batch(queries, k=3)
        assert_equivalent(seq, bat)
        assert all(r.stats.rounds == 1 for r in bat)

    def test_k_exceeds_n(self, tiny):
        data, queries = tiny
        seq_idx, bat_idx = build_pair(data)
        k = data.shape[0] + 10
        seq = [seq_idx.query(q, k=k) for q in queries]
        assert_equivalent(seq, bat_idx.query_batch(queries, k=k))

    def test_single_query_batch(self, tiny):
        data, queries = tiny
        seq_idx, bat_idx = build_pair(data)
        seq = [seq_idx.query(queries[0], k=4)]
        assert_equivalent(seq, bat_idx.query_batch(queries[:1], k=4))

    def test_empty_batch(self, tiny):
        data, _ = tiny
        _, bat_idx = build_pair(data)
        assert bat_idx.query_batch(np.empty((0, data.shape[1]))) == []

    def test_t1_disabled(self, tiny):
        data, queries = tiny
        seq_idx, bat_idx = build_pair(data, use_t1=False)
        seq = [seq_idx.query(q, k=4) for q in queries]
        assert_equivalent(seq, bat_idx.query_batch(queries, k=4))

    def test_recount_ablation_uses_sequential_path(self, tiny):
        data, queries = tiny
        seq_idx, bat_idx = build_pair(data, incremental=False)
        seq = [seq_idx.query(q, k=4) for q in queries]
        assert_equivalent(seq, bat_idx.query_batch(queries, k=4))

    def test_no_page_manager(self, tiny):
        data, queries = tiny
        seq_idx = C2LSH(seed=0).fit(data)
        bat_idx = C2LSH(seed=0).fit(data)
        seq = [seq_idx.query(q, k=5) for q in queries]
        bat = bat_idx.query_batch(queries, k=5)
        for s, b in zip(seq, bat):
            assert np.array_equal(s.ids, b.ids)
            assert s.stats.io_reads == b.stats.io_reads == 0

    def test_a_round_holds_one_querys_candidate_vectors(self):
        """Verification reads, measures and drops one query's candidate
        vectors before reading the next query's, so a block never holds
        all of its candidates' vectors at once. On nus-like about half of
        n is verified per query, so holding them all would dwarf every
        other working array of the block."""
        import tracemalloc

        from repro.data import nus_like

        ds = nus_like(scale=0.02, n_queries=64, seed=7)
        index = C2LSH(seed=7, page_manager=PageManager()).fit(ds.data)
        tracemalloc.start()
        try:
            results = index.query_batch(ds.queries, k=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        vector_bytes = (sum(r.stats.candidates for r in results)
                        * ds.dim * ds.data.itemsize)
        assert peak < vector_bytes / 4, (peak, vector_bytes)

    def test_validation(self, tiny):
        data, queries = tiny
        _, idx = build_pair(data)
        with pytest.raises(ValueError):
            idx.query_batch(queries, k=0)
        with pytest.raises(ValueError):
            idx.query_batch(queries[:, :-1])
        with pytest.raises(RuntimeError):
            C2LSH(seed=0).query_batch(queries)

    @settings(deadline=None, max_examples=15)
    @given(
        n=st.integers(30, 120),
        dim=st.integers(2, 12),
        q=st.integers(1, 6),
        k=st.integers(1, 8),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_property_equivalence(self, n, dim, q, k, seed):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((n, dim))
        queries = rng.standard_normal((q, dim))
        seq_idx, bat_idx = build_pair(data, seed=seed % 1000)
        seq = [seq_idx.query(qv, k=k) for qv in queries]
        assert_equivalent(seq, bat_idx.query_batch(queries, k=k))


class TestBatchQueryCounter:
    def test_shape_validated(self, tiny):
        data, _ = tiny
        index = C2LSH(seed=0).fit(data)
        with pytest.raises(ValueError):
            BatchQueryCounter(index._counter, np.zeros((3, 2)))

    def test_counts_match_sequential_counters(self, tiny):
        data, queries = tiny
        index = C2LSH(seed=0).fit(data)
        qids = index._funcs.hash(index._hash_view(queries))
        batch = BatchQueryCounter(index._counter, qids)
        seq = [index._counter.start_query(row) for row in qids]
        active = np.arange(len(queries))
        radius = 1
        for _ in range(3):
            batch.expand(radius, active)
            for counter in seq:
                counter.expand(radius)
            for i, counter in enumerate(seq):
                assert np.array_equal(batch.counts[i], counter.counts)
            radius *= index.params.c

    def test_partial_active_set(self, tiny):
        """Dropped-out queries keep their counts frozen."""
        data, queries = tiny
        index = C2LSH(seed=0).fit(data)
        qids = index._funcs.hash(index._hash_view(queries))
        batch = BatchQueryCounter(index._counter, qids)
        batch.expand(1, np.arange(len(queries)))
        frozen = batch.counts[0].copy()
        batch.expand(index.params.c, np.arange(1, len(queries)))
        assert np.array_equal(batch.counts[0], frozen)

    def test_dense_and_sparse_kernels_agree(self, tiny, monkeypatch):
        """Force each counting strategy over the same expansions: radius 1,
        c and c^2, a masked adaptive chunk, a partial active set and a
        saturating radius. Counts and crossings must be identical, on an
        index's tables and on uint16-coded and wide (rank-coded) ones."""
        from repro.core import batchengine
        from repro.core.counting import CollisionCounter

        data, queries = tiny
        index = C2LSH(seed=0).fit(data)
        rng = np.random.default_rng(0)
        cases = [(index._counter,
                  index._funcs.hash(index._hash_view(queries)),
                  index.params.c)]
        for span in (300, 200_000):
            ids = rng.integers(-span, span, (150, 9))
            cases.append((CollisionCounter(ids), ids[:4] + 1, 3))
        assert {c.codes.dtype for c, _, _ in cases} >= {
            np.dtype(np.uint8), np.dtype(np.uint16)}
        assert cases[-1][0].code_widths.max() <= 150  # ranks, not offsets
        for counter, qids, c in cases:
            n_queries, m = qids.shape
            mask = rng.random((n_queries, m)) < 0.5
            saturating = c ** 2
            while saturating < 2 * (counter.id_span + 1):
                saturating *= c
            everyone = np.arange(n_queries)
            plan = [(1, everyone, None), (c, everyone, None),
                    (c * c, everyone, mask), (c * c, everyone, ~mask),
                    (c ** 3, everyone[1:], None),
                    (saturating, everyone, None)]
            runs = {}
            for how in ("sparse", "compare", "product"):
                monkeypatch.setattr(batchengine, "_cheapest",
                                    lambda *args, how=how: how)
                batch = BatchQueryCounter(counter, qids)
                steps = []
                for radius, active, tables in plan:
                    batch.expand(radius, active, tables=tables)
                    steps.append((batch.counts.copy(), batch.crossings(2)))
                runs[how] = steps
            assert np.all(runs["sparse"][-1][0] == m)  # saturated
            for how in ("compare", "product"):
                for (counts, (qs, ids)), (want, (wqs, wids)) in zip(
                        runs[how], runs["sparse"]):
                    assert np.array_equal(counts, want)
                    assert np.array_equal(qs, wqs)
                    assert np.array_equal(ids, wids)

    def test_crossings_sorted_by_query_then_id(self, tiny):
        data, queries = tiny
        index = C2LSH(seed=0).fit(data)
        qids = index._funcs.hash(index._hash_view(queries))
        batch = BatchQueryCounter(index._counter, qids)
        batch.expand(1, np.arange(len(queries)))
        qs, ids = batch.crossings(1)
        assert np.all(np.diff(qs) >= 0)
        for q in np.unique(qs):
            assert np.all(np.diff(ids[qs == q]) > 0)

    def test_batch_query_k_validated(self, tiny):
        data, queries = tiny
        index = C2LSH(seed=0).fit(data)
        qids = index._funcs.hash(index._hash_view(queries))
        with pytest.raises(ValueError):
            batch_query(index, queries, qids, k=0)
