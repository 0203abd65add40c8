"""Adaptive probing: classic-oracle parity plus its own invariants.

The adaptive engine's contract has two halves. With the early exits
disabled (``chunks=1, start_estimate=False``) it must be *bit-identical*
to the classic oracle — same ids, distances, stats, page charges — on
every path (sequential, batch, sharded). With the defaults on, it must
preserve the result contract (exact verified distances, sorted, valid
unique ids, full result size) while reading strictly fewer pages, and
its probe accounting must balance. Adversarial datasets (duplicates,
ties, single queries, empty batches) are pinned by a Hypothesis
property; chaos cases reuse the ``REPRO_CHAOS_SEED`` convention from
the reliability suite.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AdaptiveConfig,
    C2LSH,
    FaultInjector,
    FaultPlan,
    FaultRule,
    PageManager,
    QueryBudget,
    RetryPolicy,
    ShardedC2LSH,
)
from repro.core import explain, tune_c2lsh
from repro.core.adaptive import (
    _chunk_bounds,
    as_probe_config,
    check_adaptive_supported,
    estimate_start_levels,
    merge_start_levels,
    probe_order,
    saturation_level,
    start_payload,
)
from repro.core.explain import QueryExplanation, explain_sharded
from repro.data import exact_knn, load_profile
from repro.hashing import SignRandomProjectionFamily

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

EXACT = AdaptiveConfig(chunks=1, start_estimate=False)

STAT_FIELDS = ("rounds", "final_radius", "candidates", "scanned_entries",
               "terminated_by", "io_reads")


def build(data, seed=0, **kwargs):
    return C2LSH(seed=seed, page_manager=PageManager(), **kwargs).fit(data)


def assert_bit_equal(classic, adaptive):
    assert len(classic) == len(adaptive)
    for i, (s, a) in enumerate(zip(classic, adaptive)):
        assert np.array_equal(s.ids, a.ids), f"query {i}: ids differ"
        assert np.array_equal(s.distances, a.distances), \
            f"query {i}: distances differ"
        for field in STAT_FIELDS:
            assert getattr(s.stats, field) == getattr(a.stats, field), \
                f"query {i}: stats.{field} differs"


def assert_contract(result, data, query, k):
    """The result-shape contract every probing mode must preserve."""
    n = data.shape[0]
    assert result.ids.size == min(k, n)
    assert result.ids.size == result.distances.size
    assert np.unique(result.ids).size == result.ids.size
    assert np.all((result.ids >= 0) & (result.ids < n))
    assert np.all(np.diff(result.distances) >= 0)
    exact = np.linalg.norm(data[result.ids] - query, axis=1)
    np.testing.assert_allclose(result.distances, exact)


# -- probe argument handling -------------------------------------------------


class TestProbeArg:
    def test_normalization(self):
        assert as_probe_config(None) is None
        assert as_probe_config("classic") is None
        assert as_probe_config("adaptive") == AdaptiveConfig()
        cfg = AdaptiveConfig(chunks=4)
        assert as_probe_config(cfg) is cfg

    def test_bad_probe_rejected(self, tiny):
        data, queries = tiny
        index = build(data)
        with pytest.raises(ValueError, match="probe"):
            index.query(queries[0], probe="fast")
        with pytest.raises(ValueError, match="probe"):
            as_probe_config(7)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="chunks"):
            AdaptiveConfig(chunks=0)

    def test_nonrehashable_family_rejected(self, tiny):
        data, queries = tiny
        index = C2LSH(family=SignRandomProjectionFamily(data.shape[1]),
                      seed=1).fit(data)
        index.query(queries[0], k=2)  # classic path still fine
        with pytest.raises(ValueError, match="rehashable"):
            index.query(queries[0], k=2, probe="adaptive")

    def test_recount_ablation_rejected(self, tiny):
        data, queries = tiny
        index = build(data, incremental=False)
        index.query(queries[0], k=2)  # classic path still fine
        with pytest.raises(ValueError, match="incremental"):
            index.query_batch(queries, k=2, probe="adaptive")

    def test_supported_check_is_direct(self, tiny):
        data, _ = tiny
        index = build(data)
        check_adaptive_supported(index._funcs)  # no raise
        with pytest.raises(ValueError, match="incremental"):
            check_adaptive_supported(index._funcs, incremental=False)


# -- estimator ---------------------------------------------------------------


class TestEstimator:
    def _qids(self, index, queries):
        return index._funcs.hash(index._hash_view(queries))

    def test_collide_levels_match_bruteforce(self, tiny):
        data, queries = tiny
        index = build(data)
        counter = index._counter
        qids = self._qids(index, queries)
        got = start_payload(counter, qids, index.params.c)["collide"]
        sat = saturation_level(counter.id_span, index.params.c)
        for qi in range(qids.shape[0]):
            for t in range(counter.m):
                ids = counter.sorted_ids[t]
                level, radius = 0, 1
                while level < sat:
                    anchor = (qids[qi, t] // radius) * radius
                    if np.any((ids >= anchor) & (ids < anchor + radius)):
                        break
                    level += 1
                    radius *= index.params.c
                assert got[qi, t] == level

    def test_occupancy_table_matches_bruteforce(self, tiny):
        data, queries = tiny
        index = build(data)
        counter = index._counter
        qids = self._qids(index, queries)
        c = index.params.c
        occ = start_payload(counter, qids, c)["occ"]
        sat = saturation_level(counter.id_span, c)
        assert occ.shape == (qids.shape[0], sat + 1)
        for qi in range(qids.shape[0]):
            radius = 1
            for level in range(sat + 1):
                total = 0
                for t in range(counter.m):
                    ids = counter.sorted_ids[t]
                    if radius >= 2 * (counter.id_span + 1):
                        total += ids.size
                    else:
                        anchor = (qids[qi, t] // radius) * radius
                        total += int(np.sum((ids >= anchor)
                                            & (ids < anchor + radius)))
                assert occ[qi, level] == total
                radius *= c
        # Saturation column covers everything, and occupancy only grows.
        assert np.all(occ[:, -1] == counter.m * counter.n)
        assert np.all(np.diff(occ, axis=1) >= 0)

    def test_start_levels_are_sound(self, tiny):
        """Below the start level no object can cross the threshold."""
        data, queries = tiny
        index = build(data)
        counter = index._counter
        params = index.params
        qids = self._qids(index, queries)
        k = 3
        levels = estimate_start_levels(counter, qids, params.l, params.c,
                                       k=k)
        payload = start_payload(counter, qids, params.c)
        coll, occ = payload["collide"], payload["occ"]
        for qi in range(qids.shape[0]):
            for t in range(int(levels[qi])):
                nonempty = int(np.sum(coll[qi] <= t))
                # Either not enough non-empty buckets for any object to
                # collect l collisions, or the total occupancy cannot
                # hold k threshold-crossers: the round is outcome-free.
                assert (nonempty < params.l
                        or occ[qi, t] < params.l * k)

    def test_merge_single_payload_matches_unsharded(self, tiny):
        data, queries = tiny
        index = build(data)
        counter = index._counter
        params = index.params
        qids = self._qids(index, queries)
        payload = start_payload(counter, qids, params.c)
        expect = estimate_start_levels(counter, qids, params.l, params.c,
                                       k=2)
        got = merge_start_levels([payload], params.l, params.l * 2)
        np.testing.assert_array_equal(got, expect)
        # An empty shard contributes nothing: its buckets never fill, so
        # the merged start levels cannot move.
        sat = payload["occ"].shape[1] - 1
        empty = {
            "collide": np.full_like(payload["collide"], sat),
            "occ": np.zeros((qids.shape[0], 1), dtype=np.int64),
            "total": 0,
        }
        got2 = merge_start_levels([payload, empty], params.l,
                                  params.l * 2)
        np.testing.assert_array_equal(got2, expect)

    def test_probe_order_prefers_central_buckets(self):
        # Query sits mid-bucket in table 0, on the edge in table 1.
        uids = np.array([[4.5, 4.999]])
        qids = np.floor(uids).astype(np.int64)
        order = probe_order(uids, qids, 1)
        np.testing.assert_array_equal(order[0], [0, 1])

    def test_chunk_bounds(self):
        np.testing.assert_array_equal(_chunk_bounds(10, 1), [0, 10])
        bounds = _chunk_bounds(10, 4)
        assert bounds[0] == 0 and bounds[-1] == 10
        assert np.all(np.diff(bounds) >= 1)
        # More chunks than tables degrades to one table per chunk.
        np.testing.assert_array_equal(_chunk_bounds(3, 8), [0, 1, 2, 3])


# -- bit-identity against the classic oracle ---------------------------------


class TestBitIdentity:
    def test_chunks1_no_estimate_is_bit_identical(self, tiny):
        data, queries = tiny
        classic = build(data).query_batch(queries, k=5)
        adaptive = build(data).query_batch(queries, k=5, probe=EXACT)
        assert_bit_equal(classic, adaptive)
        m = build(data).params.m
        for s, a in zip(classic, adaptive):
            assert a.stats.probes_issued == m * s.stats.rounds
            assert a.stats.probes_skipped == 0

    def test_start_estimate_is_answer_preserving(self, tiny):
        data, queries = tiny
        classic = build(data).query_batch(queries, k=5)
        index = build(data)
        adaptive = index.query_batch(
            queries, k=5, probe=AdaptiveConfig(chunks=1))
        m = index.params.m
        for i, (s, a) in enumerate(zip(classic, adaptive)):
            np.testing.assert_array_equal(s.ids, a.ids)
            np.testing.assert_array_equal(s.distances, a.distances)
            assert s.stats.terminated_by == a.stats.terminated_by
            assert s.stats.final_radius == a.stats.final_radius
            assert s.stats.candidates == a.stats.candidates
            # The skipped prefix is pure savings: same answer, fewer
            # rounds, no more pages, and the accounting balances.
            assert a.stats.rounds <= s.stats.rounds
            assert a.stats.io_reads <= s.stats.io_reads
            assert a.stats.probes_skipped == \
                m * (s.stats.rounds - a.stats.rounds)

    def test_query_matches_query_batch(self, tiny):
        data, queries = tiny
        index = build(data)
        batch = index.query_batch(queries, k=4, probe="adaptive")
        solo_index = build(data)
        for q, b in zip(queries, batch):
            s = solo_index.query(q, k=4, probe="adaptive")
            np.testing.assert_array_equal(s.ids, b.ids)
            np.testing.assert_array_equal(s.distances, b.distances)
            assert s.stats.terminated_by == b.stats.terminated_by

    def test_default_adaptive_contract_and_savings(self, clustered):
        data, queries = clustered
        k = 5
        classic = build(data).query_batch(queries, k=k)
        index = build(data)
        adaptive = index.query_batch(queries, k=k, probe="adaptive")
        for q, r in zip(queries, adaptive):
            assert_contract(r, data, q, k)
            assert r.stats.probes_issued > 0
        pages_classic = sum(r.stats.io_reads for r in classic)
        pages_adaptive = sum(r.stats.io_reads for r in adaptive)
        assert pages_adaptive < pages_classic
        # Probe accounting balances: every (round, table) pair of the
        # classic schedule from radius 1 to the final radius is either
        # probed or skipped.
        for r in adaptive:
            assert r.stats.probes_issued + r.stats.probes_skipped >= \
                index.params.m * r.stats.rounds

    def test_empty_batch(self, tiny):
        data, _ = tiny
        index = build(data)
        assert index.query_batch(np.empty((0, data.shape[1])),
                                 k=3, probe="adaptive") == []

    def test_nus_reads_a_third_of_classic_pages_at_no_recall_loss(self):
        """The mode's headline on the paper's hardest profile: at least
        3x fewer pages per query than classic, at recall@1 no lower.
        Smaller nus profiles save less (2.9x at scale 0.02)."""
        ds = load_profile("nus", scale=0.05, n_queries=20, seed=0)
        true_ids, _ = ds.ground_truth(1)
        index = C2LSH(c=2, delta=0.1, seed=7,
                      page_manager=PageManager()).fit(ds.data)
        # One query at a time bounds classic's candidate-vector memory.
        classic = [index.query(q, k=1) for q in ds.queries]
        adaptive = index.query_batch(ds.queries, k=1, probe="adaptive")

        def pages(results):
            return np.mean([r.stats.io_reads for r in results])

        def recall(results):
            return np.mean([r.ids[0] == t[0]
                            for r, t in zip(results, true_ids)])

        assert pages(classic) >= 3 * pages(adaptive)
        assert recall(adaptive) >= recall(classic)


# -- adversarial parity (Hypothesis) -----------------------------------------


class TestAdversarialParity:
    @settings(max_examples=20, deadline=None)
    @given(data_seed=st.integers(0, 2**20), n=st.integers(5, 40),
           dim=st.integers(2, 5), k=st.integers(1, 5))
    def test_duplicates_and_ties(self, data_seed, n, dim, k):
        # Integer-grid data maximizes duplicate rows and tied distances —
        # exactly where a reordered probe schedule could leak.
        rng = np.random.default_rng(data_seed)
        data = rng.integers(-3, 4, size=(n, dim)).astype(np.float64)
        query = rng.integers(-3, 4, size=dim).astype(np.float64)
        classic = build(data).query(query, k=k)
        exact = build(data).query(query, k=k, probe=EXACT)
        np.testing.assert_array_equal(classic.ids, exact.ids)
        np.testing.assert_array_equal(classic.distances, exact.distances)
        for field in STAT_FIELDS:
            assert getattr(classic.stats, field) == \
                getattr(exact.stats, field)
        fast = build(data).query(query, k=k, probe="adaptive")
        assert_contract(fast, data, query, k)

    def test_all_duplicates_dataset(self):
        # Every point identical: maximal ties, zero distances.
        data = np.zeros((3, 4))
        r = build(data).query(np.ones(4), k=2, probe="adaptive")
        assert_contract(r, data, np.ones(4), 2)


# -- budgets and chaos -------------------------------------------------------


class TestBudgetsAndChaos:
    def test_budget_degrades_gracefully(self, tiny):
        data, queries = tiny
        # A fine radius grid forces a multi-round search, so the
        # round-boundary budget check fires before natural termination
        # (budgets, like classic's, never cut a naturally-done query).
        index = build(data, base_radius=0.05)
        tight = QueryBudget(max_io_pages=3)
        r = index.query(queries[0], k=3, probe="adaptive", budget=tight)
        assert r.stats.degraded
        assert r.stats.budget_exhausted == "io_pages"
        assert r.stats.terminated_by == "budget"
        assert_contract(r, data, queries[0], 3)

    def test_loose_budget_is_a_noop(self, tiny):
        data, queries = tiny
        plain = build(data).query_batch(queries, k=4, probe="adaptive")
        loose = build(data).query_batch(
            queries, k=4, probe="adaptive",
            budget=QueryBudget(max_io_pages=10**9))
        for p, l in zip(plain, loose):
            np.testing.assert_array_equal(p.ids, l.ids)
            np.testing.assert_array_equal(p.distances, l.distances)
            assert not l.stats.degraded

    def test_chaos_determinism_and_contract(self, tiny):
        """Transient faults + retries: deterministic, contract intact."""
        data, queries = tiny
        plan = FaultPlan((
            FaultRule("bucket_scan", "error", probability=0.05),
            FaultRule("data_read", "error", probability=0.05),
        ))

        def run():
            injector = FaultInjector(plan, seed=CHAOS_SEED,
                                     retry=RetryPolicy(max_retries=8))
            index = C2LSH(
                seed=0,
                page_manager=PageManager(fault_injector=injector),
            ).fit(data)
            return index.query_batch(queries, k=3, probe="adaptive")

        first, second = run(), run()
        for q, a, b in zip(queries, first, second):
            np.testing.assert_array_equal(a.ids, b.ids)
            np.testing.assert_array_equal(a.distances, b.distances)
            assert a.stats.io_reads == b.stats.io_reads
            assert a.stats.probes_issued == b.stats.probes_issued
            assert_contract(a, data, q, 3)


# -- explain -----------------------------------------------------------------


class TestExplain:
    def test_adaptive_explain_shows_skips_and_probes(self, tiny):
        data, _ = tiny
        index = build(data)
        # A far-away query has empty small-radius buckets, so the
        # estimator provably skips the first rounds.
        far = data[0] + 200.0
        exp = explain(index, far, k=2, probe="adaptive")
        assert any(r.skipped for r in exp.rounds)
        skipped = [r for r in exp.rounds if r.skipped]
        assert all(r.io_reads == 0 and r.probes_issued == 0
                   for r in skipped)
        assert sum(r.probes_skipped for r in exp.rounds) > 0
        text = exp.render()
        assert "probes" in text and "pages_saved" in text
        assert "skip" in text

    def test_classic_explain_renders_zero_probe_columns(self, tiny):
        data, queries = tiny
        index = build(data)
        exp = explain(index, queries[0], k=2)
        assert exp.rounds
        assert all(r.probes_issued == 0 and r.probes_skipped == 0
                   and r.pages_saved == 0 and not r.skipped
                   for r in exp.rounds)
        assert "probes" in exp.render()

    def test_t2_early_verdict_renders(self):
        exp = QueryExplanation(
            rounds=[], terminated_by="T2-early", k=1, target=5,
            result_ids=np.empty(0, dtype=np.int64),
            result_distances=np.empty(0))
        assert "provisional" in exp.render()


# -- sharded engine ----------------------------------------------------------


class TestSharded:
    @pytest.fixture(scope="class")
    def setup(self, clustered):
        data, queries = clustered
        classic = build(data, seed=3).query_batch(queries, k=4)
        with ShardedC2LSH(n_shards=3, n_workers=0, seed=3,
                          page_accounting=True).fit(data) as eng:
            yield data, queries, classic, eng

    def test_classic_sharded_still_bit_identical(self, setup):
        data, queries, classic, eng = setup
        sharded = eng.query_batch(queries, k=4)
        for s, g in zip(classic, sharded):
            np.testing.assert_array_equal(s.ids, g.ids)
            np.testing.assert_array_equal(s.distances, g.distances)
            assert s.stats.terminated_by == g.stats.terminated_by

    def test_adaptive_sharded_contract_and_recall(self, setup):
        data, queries, classic, eng = setup
        k = 4
        base = eng.query_batch(queries, k=k)
        fast = eng.query_batch(queries, k=k, probe="adaptive")
        for q, r in zip(queries, fast):
            assert_contract(r, data, q, k)
            assert r.stats.probes_issued > 0
        assert sum(r.stats.io_reads for r in fast) <= \
            sum(r.stats.io_reads for r in base)
        # Recall stays at the classic level on this easy clustered set.
        true_ids, _ = exact_knn(data, queries, k)

        def recall(results):
            hit = sum(np.intersect1d(r.ids, t).size
                      for r, t in zip(results, true_ids))
            return hit / true_ids.size
        assert recall(fast) >= recall(base) - 0.1

    def test_adaptive_sharded_estimator_saves_pages(self, setup):
        """Out-of-distribution queries have empty small-radius buckets,
        so the merged cross-shard start estimate must skip whole levels
        — fewer probes, strictly fewer pages, same exact contract."""
        data, queries, classic, eng = setup
        far = queries + 100.0
        base = eng.query_batch(far, k=4)
        fast = eng.query_batch(far, k=4, probe="adaptive")
        assert sum(r.stats.probes_skipped for r in fast) > 0
        assert sum(r.stats.io_reads for r in fast) < \
            sum(r.stats.io_reads for r in base)
        for q, r in zip(far, fast):
            assert_contract(r, data, q, 4)

    def test_adaptive_sharded_explain(self, setup):
        data, queries, classic, eng = setup
        exp = explain_sharded(eng, queries[0], k=3, probe="adaptive")
        assert exp.spans
        assert sum(s.probes_issued for s in exp.spans) > 0
        assert "probes" in exp.render()

    def test_sharded_chaos_parity(self, clustered):
        """Worker-side transient faults: adaptive answers stay exact."""
        data, queries = clustered
        plan = FaultPlan((
            FaultRule("bucket_scan", "error", probability=0.02),
        ))
        with ShardedC2LSH(n_shards=2, n_workers=0, seed=5,
                          page_accounting=True, fault_plan=plan,
                          fault_seed=CHAOS_SEED).fit(data) as eng:
            for q in queries[:4]:
                r = eng.query(q, k=3, probe="adaptive")
                assert_contract(r, data, q, 3)


# -- tuning pass-through -----------------------------------------------------


def test_tune_accepts_probe(tiny):
    data, _ = tiny
    result = tune_c2lsh(data, target_recall=0.1, k=2, n_validation=5,
                        c_grid=(2,), budget_grid=(25,), seed=0,
                        probe="adaptive")
    assert result.trials
