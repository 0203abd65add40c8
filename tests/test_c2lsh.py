"""End-to-end tests for the C2LSH index."""

import numpy as np
import pytest

from repro import C2LSH, PageManager, QueryBudget
from repro.core import batchengine
from repro.data import exact_knn
from repro.hashing import (
    BitSamplingFamily,
    PStableFamily,
    SignRandomProjectionFamily,
)
from repro.storage.hashfile import ENTRY_BYTES


class TestFitValidation:
    def test_unfitted_query_rejected(self):
        with pytest.raises(RuntimeError):
            C2LSH(seed=0).query(np.zeros(4))

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            C2LSH(seed=0).fit(np.empty((0, 4)))

    def test_1d_data_rejected(self):
        with pytest.raises(ValueError):
            C2LSH(seed=0).fit(np.zeros(10))

    def test_fit_returns_self(self, tiny):
        data, _ = tiny
        index = C2LSH(seed=0)
        assert index.fit(data) is index
        assert index.is_fitted

    def test_query_dimension_checked(self, tiny):
        data, _ = tiny
        index = C2LSH(seed=0).fit(data)
        with pytest.raises(ValueError):
            index.query(np.zeros(9))

    def test_k_validated(self, tiny):
        data, queries = tiny
        index = C2LSH(seed=0).fit(data)
        with pytest.raises(ValueError):
            index.query(queries[0], k=0)

    def test_params_exposed(self, tiny):
        data, _ = tiny
        index = C2LSH(seed=0).fit(data)
        assert index.m == index.params.m
        assert index.l == index.params.l
        assert "C2LSH" in repr(index)

    def test_repr_unfitted(self):
        assert "unfitted" in repr(C2LSH())

    def test_base_radius_validated(self, tiny):
        data, _ = tiny
        with pytest.raises(ValueError):
            C2LSH(seed=0, base_radius=-2.0).fit(data)


class TestAccuracy:
    def test_high_recall_on_clustered_data(self, clustered):
        data, queries = clustered
        index = C2LSH(c=2, seed=0).fit(data)
        true_ids, _ = exact_knn(data, queries, 10)
        hits = 0
        for q, truth in zip(queries, true_ids):
            result = index.query(q, k=10)
            hits += len(set(result.ids.tolist()) & set(truth.tolist()))
        assert hits / (10 * len(queries)) > 0.8

    def test_exact_match_query_finds_itself(self, clustered):
        data, _ = clustered
        index = C2LSH(c=2, seed=1).fit(data)
        result = index.query(data[17], k=1)
        assert result.ids[0] == 17
        assert result.distances[0] == 0.0

    def test_c2_guarantee_holds_empirically(self, clustered):
        """Returned NN distance <= c^2 * true NN distance, with margin for
        the 1/2 - delta probability (we allow a small failure fraction)."""
        data, queries = clustered
        index = C2LSH(c=2, seed=2).fit(data)
        _, true_dists = exact_knn(data, queries, 1)
        failures = 0
        for q, true_d in zip(queries, true_dists[:, 0]):
            got = index.query(q, k=1).distances[0]
            if got > 4 * true_d + 1e-9:
                failures += 1
        assert failures <= len(queries) // 2

    def test_distances_match_returned_ids(self, tiny):
        data, queries = tiny
        index = C2LSH(seed=0).fit(data)
        result = index.query(queries[0], k=5)
        expected = np.linalg.norm(data[result.ids] - queries[0], axis=1)
        assert np.allclose(result.distances, expected)

    def test_results_sorted_ascending(self, tiny):
        data, queries = tiny
        index = C2LSH(seed=0).fit(data)
        for q in queries:
            d = index.query(q, k=8).distances
            assert np.all(np.diff(d) >= 0)

    def test_k_larger_than_candidates_still_returns(self, tiny):
        data, queries = tiny
        index = C2LSH(seed=0).fit(data)
        result = index.query(queries[0], k=150)
        assert len(result) == 150
        assert len(set(result.ids.tolist())) == 150


class TestDeterminism:
    def test_same_seed_same_answers(self, tiny):
        data, queries = tiny
        a = C2LSH(seed=9).fit(data).query(queries[0], k=5)
        b = C2LSH(seed=9).fit(data).query(queries[0], k=5)
        assert np.array_equal(a.ids, b.ids)

    def test_different_seeds_differ_in_hashing(self, tiny):
        data, _ = tiny
        a = C2LSH(seed=1).fit(data)
        b = C2LSH(seed=2).fit(data)
        assert not np.array_equal(
            a._funcs.hash(data[:5] / a.base_radius),
            b._funcs.hash(data[:5] / b.base_radius),
        )


class TestTermination:
    def test_termination_label_is_set(self, clustered):
        data, queries = clustered
        index = C2LSH(c=2, seed=0).fit(data)
        for q in queries[:5]:
            label = index.query(q, k=5).stats.terminated_by
            assert label in {"T1", "T2", "exhausted", "fallback"}

    def test_t2_budget_bounds_candidates(self, clustered):
        data, queries = clustered
        index = C2LSH(c=2, seed=0, beta=0.02).fit(data)
        budget = index.params.false_positive_budget
        for q in queries[:5]:
            stats = index.query(q, k=5).stats
            if stats.terminated_by == "T2":
                # T2 fires as soon as the budget fills; one final round may
                # overshoot by at most the objects crossing in that round.
                assert stats.candidates >= 5 + budget

    def test_disabling_t1_costs_more_candidates(self, clustered):
        data, queries = clustered
        with_t1 = C2LSH(c=2, seed=0).fit(data)
        without = C2LSH(c=2, seed=0, use_t1=False).fit(data)
        a = np.mean([with_t1.query(q, k=5).stats.candidates
                     for q in queries])
        b = np.mean([without.query(q, k=5).stats.candidates
                     for q in queries])
        assert b >= a

    def test_incremental_and_recount_agree_on_answers(self, clustered):
        data, queries = clustered
        inc = C2LSH(c=2, seed=0, incremental=True).fit(data)
        rec = C2LSH(c=2, seed=0, incremental=False).fit(data)
        for q in queries[:5]:
            assert np.array_equal(inc.query(q, k=5).ids,
                                  rec.query(q, k=5).ids)

    def test_c3_grid(self, clustered):
        data, queries = clustered
        index = C2LSH(c=3, seed=0).fit(data)
        result = index.query(queries[0], k=5)
        assert len(result) == 5

    @staticmethod
    def _paper_loop(index, hashed, data, q, k, budget=None):
        """The paper's query loop over brute-force collision counts.

        Returns ``(terminated_by, final_radius, rounds, candidates,
        scanned_entries, io_reads, budget_exhausted)`` and the answer ids
        as a set. Pages are priced with the index's page manager's
        formulas (0 without one); ``budget`` caps candidates and pages.
        A single-granularity family stops after one round, and a finished
        query short of ``k`` verifies its best-counted objects.
        """
        params, pm = index.params, index._pm
        n, m = hashed.shape
        hq = index._funcs.hash(index._hash_view(q))
        saturated = 2 * (index._counter.id_span + 1)
        dist = index._family.distance(data, q)
        target = min(n, k + params.false_positive_budget)
        rehashable = index._funcs.rehashable
        t1 = index._use_t1 and rehashable
        object_pages = (0 if pm is None
                        else max(1, pm.pages_for(1, data.shape[1] * 8)))
        verified = np.zeros(n, dtype=bool)
        covered = np.zeros((n, m), dtype=bool)
        scanned = pages = 0
        radius, cap = 1, ""
        for rounds in range(1, 65):
            inside = (np.ones((n, m), dtype=bool) if radius >= saturated
                      else hashed // radius == hq // radius)
            if rounds == 1 or not index._incremental:
                segments = [inside.sum(axis=0)]
            else:
                # The ids newly covered below and above the last bucket
                # are scanned as two segments per table.
                new = inside & ~covered
                below = hashed < (hq // (radius // params.c)) * (
                    radius // params.c)
                segments = [(new & below).sum(axis=0),
                            (new & ~below).sum(axis=0)]
            lengths = np.concatenate(segments)
            scanned += int(lengths.sum())
            if pm is not None:
                pages += int(pm.bucket_scan_pages(
                    lengths[lengths > 0], ENTRY_BYTES).sum())
            covered = inside
            counts = inside.sum(axis=1)
            fresh = (counts >= params.l) & ~verified
            verified |= fresh
            pages += object_pages * int(fresh.sum())
            within = dist <= params.c * radius * index._scale
            if verified.sum() >= target:
                reason = "T2"
            elif t1 and (verified & within).sum() >= k:
                reason = "T1"
            elif inside.all() or rounds == 64 or not rehashable:
                reason = "exhausted"
            else:
                if budget is not None:
                    if (budget.max_candidates is not None
                            and verified.sum() >= budget.max_candidates):
                        cap = "candidates"
                    elif (budget.max_io_pages is not None and pm is not None
                          and pages >= budget.max_io_pages):
                        cap = "io_pages"
                if not cap:
                    radius *= params.c
                    continue
                reason = "budget"
            break
        if verified.sum() < k:
            need = k - int(verified.sum()) + params.false_positive_budget
            rest = np.flatnonzero(~verified)
            extra = rest[np.argsort(-counts[rest], kind="stable")[:need]]
            verified[extra] = True
            pages += object_pages * extra.size
            if extra.size and not cap:
                reason = "fallback"
        ids = np.flatnonzero(verified)
        best = ids[np.argsort(dist[ids], kind="stable")[:k]]
        return ((reason, radius, rounds, int(verified.sum()), scanned,
                 pages, cap), set(best.tolist()))

    @staticmethod
    def _observed(result):
        s = result.stats
        return ((s.terminated_by, s.final_radius, s.rounds, s.candidates,
                 s.scanned_entries, s.io_reads, s.budget_exhausted),
                set(result.ids.tolist()))

    @pytest.mark.parametrize("case", ["clustered", "tiny", "tiny_k_over_n"])
    def test_query_and_batch_follow_the_paper_loop(self, case, clustered,
                                                   tiny):
        if case == "clustered":
            data, held = clustered
            noise = np.random.default_rng(0).normal(0.0, 40.0, held.shape)
            queries, k = np.vstack([held, held + noise]), 10
        else:
            data, queries = tiny
            k = 5 if case == "tiny" else data.shape[0] + 50
        index = C2LSH(seed=0).fit(data)
        hashed = index._funcs.hash(index._hash_view(data))
        for q, batched in zip(queries, index.query_batch(queries, k=k)):
            want = self._paper_loop(index, hashed, data, q, k)
            for r in (index.query(q, k=k), batched):
                assert self._observed(r) == want

    @pytest.mark.parametrize("case", ["candidates_cap", "pages_cap",
                                      "sign_family", "no_t1", "recount"])
    def test_every_mode_follows_the_paper_loop(self, case, clustered):
        """Budgets, a single-granularity family, T1 off and the recount
        ablation, each with a page manager: ``query()`` and
        ``query_batch`` both match the brute-force loop."""
        data, held = clustered
        noise = np.random.default_rng(0).normal(0.0, 40.0, held.shape)
        queries = np.vstack([held, held + noise])
        knobs = {"candidates_cap": {}, "pages_cap": {},
                 "sign_family": {"family": SignRandomProjectionFamily(
                     data.shape[1])},
                 "no_t1": {"use_t1": False},
                 "recount": {"incremental": False}}[case]
        budget = {"candidates_cap": QueryBudget(max_candidates=20),
                  "pages_cap": QueryBudget(max_io_pages=300)}.get(case)
        # At k = 100 neither T1 nor T2 ends the held-out queries' first
        # round, so the candidate cap does.
        k = 100 if case == "candidates_cap" else 10
        index = C2LSH(seed=0, page_manager=PageManager(), **knobs).fit(data)
        hashed = index._funcs.hash(index._hash_view(data))
        seen = []
        batched = index.query_batch(queries, k=k, budget=budget)
        for q, b in zip(queries, batched):
            want = self._paper_loop(index, hashed, data, q, k, budget)
            for r in (index.query(q, k=k, budget=budget), b):
                assert self._observed(r) == want
            seen.append(want)
        reasons = {stats[0] for stats, _ in seen}
        caps = {stats[6] for stats, _ in seen}
        # Each case reaches the behaviour it is about.
        assert {"candidates_cap": "candidates" in caps,
                "pages_cap": "io_pages" in caps,
                "sign_family": "fallback" in reasons,
                "no_t1": "T1" not in reasons,
                "recount": max(stats[2] for stats, _ in seen) > 1}[case]
        if case == "recount":
            # Incremental counting: the same answers, fewer scanned entries.
            inc = C2LSH(seed=0, page_manager=PageManager()).fit(data)
            fewer = 0
            for q, (stats, ids) in zip(queries, seen):
                r = inc.query(q, k=k)
                assert (r.stats.terminated_by, r.stats.candidates,
                        set(r.ids.tolist())) == (stats[0], stats[3], ids)
                assert r.stats.scanned_entries <= stats[4]
                fewer += r.stats.scanned_entries < stats[4]
            assert fewer

    def test_product_block_follows_the_paper_loop(self, clustered,
                                                  monkeypatch):
        """A block large enough for the float32 product keeps every
        answer and stat of the brute-force loop."""
        data, held = clustered
        rng = np.random.default_rng(1)
        queries = np.vstack([
            held, held + rng.normal(0.0, 40.0, held.shape),
            data[rng.integers(0, data.shape[0], 30)]
            + rng.normal(0.0, 1.0, (30, data.shape[1]))])
        index = C2LSH(seed=0, page_manager=PageManager()).fit(data)
        hashed = index._funcs.hash(index._hash_view(data))
        chosen = []
        cheapest = batchengine._cheapest

        def spy(*args):
            chosen.append(cheapest(*args))
            return chosen[-1]

        monkeypatch.setattr(batchengine, "_cheapest", spy)
        results = index.query_batch(queries, k=10)
        assert chosen[0] == "product"
        for q, r in zip(queries, results):
            assert self._observed(r) == self._paper_loop(index, hashed,
                                                         data, q, 10)


class TestIOAccounting:
    def test_io_counted_when_page_manager_attached(self, tiny):
        data, queries = tiny
        pm = PageManager()
        index = C2LSH(seed=0, page_manager=pm).fit(data)
        assert pm.stats.writes > 0  # index + data files written
        result = index.query(queries[0], k=3)
        assert result.stats.io_reads > 0

    def test_io_zero_in_memory_mode(self, tiny):
        data, queries = tiny
        index = C2LSH(seed=0).fit(data)
        assert index.query(queries[0], k=3).stats.io_reads == 0

    def test_index_pages_matches_counter(self, tiny):
        data, _ = tiny
        pm = PageManager()
        index = C2LSH(seed=0, page_manager=pm).fit(data)
        assert index.index_pages() == index.params.m * pm.pages_for(
            data.shape[0], 12)

    def test_index_pages_requires_page_manager(self, tiny):
        data, _ = tiny
        index = C2LSH(seed=0).fit(data)
        with pytest.raises(RuntimeError):
            index.index_pages()

    def test_verification_charged_per_candidate(self, tiny):
        data, queries = tiny
        pm = PageManager()
        index = C2LSH(seed=0, page_manager=pm).fit(data)
        result = index.query(queries[0], k=3)
        # I/O must at least cover one read per verified candidate.
        assert result.stats.io_reads >= result.stats.candidates


class TestBaseRadius:
    def test_auto_scale_estimated(self, clustered):
        data, _ = clustered
        index = C2LSH(seed=0).fit(data)
        assert index.base_radius > 0

    def test_explicit_scale_respected(self, tiny):
        data, _ = tiny
        index = C2LSH(seed=0, base_radius=2.5).fit(data)
        assert index.base_radius == 2.5

    def test_badly_scaled_data_still_works(self):
        """The same geometry at 1000x the coordinate scale must still work."""
        rng = np.random.default_rng(0)
        base = rng.standard_normal((800, 12))
        data = base * 1000.0
        index = C2LSH(c=2, seed=0).fit(data)
        result = index.query(data[3] + 0.001, k=1)
        assert result.ids[0] == 3


class TestOtherFamilies:
    def test_angular_family_single_granularity(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((500, 16))
        data /= np.linalg.norm(data, axis=1, keepdims=True)
        family = SignRandomProjectionFamily(dim=16)
        index = C2LSH(family=family, c=2, seed=0).fit(data)
        result = index.query(data[7], k=1)
        assert result.ids[0] == 7

    def test_hamming_family(self):
        rng = np.random.default_rng(1)
        data = rng.integers(0, 2, size=(400, 64)).astype(np.float64)
        family = BitSamplingFamily(dim=64)
        index = C2LSH(family=family, c=2, seed=0).fit(data)
        result = index.query(data[11], k=1)
        assert result.distances[0] == 0.0

    def test_explicit_euclidean_family(self, tiny):
        data, queries = tiny
        family = PStableFamily(dim=8, w=3.0)
        index = C2LSH(family=family, seed=0).fit(data)
        assert len(index.query(queries[0], k=3)) == 3


class TestBatch:
    def test_query_batch_matches_single(self, tiny):
        data, queries = tiny
        index = C2LSH(seed=0).fit(data)
        batch = index.query_batch(queries, k=4)
        assert len(batch) == len(queries)
        for q, res in zip(queries, batch):
            assert np.array_equal(res.ids, index.query(q, k=4).ids)

    def test_batch_requires_2d(self, tiny):
        data, _ = tiny
        index = C2LSH(seed=0).fit(data)
        with pytest.raises(ValueError):
            index.query_batch(np.zeros(8), k=1)
