"""Chaos suite: fault injection, query budgets, crash-safe persistence.

The sweep seed is adjustable from the environment (``REPRO_CHAOS_SEED``)
so CI can run the probabilistic cases over a matrix of seeds; every test
stays deterministic for a fixed seed value.
"""

from __future__ import annotations

import gc
import os
import warnings
import zipfile

import numpy as np
import pytest

from repro import (
    C2LSH,
    CorruptIndexError,
    FaultInjector,
    FaultPlan,
    FaultRule,
    PageManager,
    QALSH,
    QueryBudget,
    RetryPolicy,
    TransientIOError,
)
from repro.core import load_c2lsh, save_c2lsh
from repro.obs import MetricsRegistry
from repro.storage.btree import BPlusTree

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


def _plan(*rules):
    return FaultPlan(tuple(rules))


# --------------------------------------------------------------------------
# fault plans and rules
# --------------------------------------------------------------------------

class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultRule("bucket_scan", "explode")

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            FaultRule("bucket_scan", "error", probability=1.5)

    def test_bad_cadence_rejected(self):
        with pytest.raises(ValueError):
            FaultRule("bucket_scan", "error", every=0)
        with pytest.raises(ValueError):
            FaultRule("bucket_scan", "error", start_after=-1)
        with pytest.raises(ValueError):
            FaultRule("bucket_scan", "error", max_triggers=0)

    def test_unknown_corruption_mode_rejected(self):
        with pytest.raises(ValueError):
            FaultRule("data_read", "corrupt", mode="scramble")

    def test_non_rule_entries_rejected(self):
        with pytest.raises(TypeError):
            FaultPlan(("not a rule",))

    def test_dict_roundtrip(self):
        plan = _plan(
            FaultRule("bucket_scan", "error", every=3, max_triggers=2),
            FaultRule("data_read", "corrupt", mode="bias", amount=0.5),
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_from_bare_list(self):
        plan = FaultPlan.from_dict([{"site": "*", "kind": "latency",
                                     "latency_s": 0.0}])
        assert plan.rules[0].site == "*"

    def test_wildcard_matches_everything(self):
        rule = FaultRule("*", "error")
        assert rule.matches("bucket_scan")
        assert rule.matches("btree_descend")


# --------------------------------------------------------------------------
# the injector itself
# --------------------------------------------------------------------------

class TestFaultInjector:
    def test_empty_plan_is_noop(self):
        fi = FaultInjector()
        for _ in range(10):
            assert fi.guard("bucket_scan") == 0

    def test_every_cadence(self):
        fi = FaultInjector(_plan(FaultRule("s", "error", every=3)))
        outcomes = []
        for _ in range(6):
            try:
                fi.check("s")
                outcomes.append("ok")
            except TransientIOError:
                outcomes.append("err")
        assert outcomes == ["ok", "ok", "err", "ok", "ok", "err"]

    def test_start_after_and_max_triggers(self):
        fi = FaultInjector(_plan(FaultRule("s", "error", every=1,
                                           start_after=2, max_triggers=1)))
        fi.check("s")
        fi.check("s")
        with pytest.raises(TransientIOError):
            fi.check("s")
        fi.check("s")  # trigger budget spent

    def test_guard_recovers_with_retry(self):
        fi = FaultInjector(_plan(FaultRule("s", "error", every=2)),
                           retry=RetryPolicy(max_retries=1))
        assert fi.guard("s") == 0          # op 1
        assert fi.guard("s") == 1          # op 2 fails, op 3 succeeds
        assert fi.snapshot()["reliability.retry.s"] == 1

    def test_guard_gives_up_after_budget(self):
        fi = FaultInjector(_plan(FaultRule("s", "error", every=1)),
                           retry=RetryPolicy(max_retries=2))
        with pytest.raises(TransientIOError) as err:
            fi.guard("s")
        assert err.value.site == "s"
        snap = fi.snapshot()
        assert snap["reliability.retry.s"] == 2
        assert snap["reliability.giveup.s"] == 1

    def test_probabilistic_rules_are_seed_deterministic(self):
        def run(seed):
            fi = FaultInjector(
                _plan(FaultRule("s", "error", probability=0.5)),
                seed=seed, retry=RetryPolicy(max_retries=0))
            hits = []
            for _ in range(50):
                try:
                    fi.check("s")
                    hits.append(0)
                except TransientIOError:
                    hits.append(1)
            return hits

        assert run(CHAOS_SEED) == run(CHAOS_SEED)
        assert 0 < sum(run(CHAOS_SEED)) < 50

    def test_reset_replays_identically(self):
        fi = FaultInjector(_plan(FaultRule("s", "error", probability=0.4)),
                           seed=CHAOS_SEED, retry=RetryPolicy(max_retries=0))

        def run():
            hits = []
            for _ in range(30):
                try:
                    fi.check("s")
                    hits.append(0)
                except TransientIOError:
                    hits.append(1)
            return hits

        first = run()
        fi.reset()
        assert run() == first

    def test_corrupt_zero_and_bias(self):
        data = np.ones((3, 4))
        zero = FaultInjector(_plan(FaultRule("d", "corrupt", mode="zero")))
        out = zero.corrupt("d", data)
        assert np.all(out == 0.0)
        assert np.all(data == 1.0)  # caller's array untouched
        bias = FaultInjector(_plan(FaultRule("d", "corrupt", mode="bias",
                                             amount=2.5)))
        assert np.allclose(bias.corrupt("d", data), 3.5)

    def test_corrupt_noise_is_seed_deterministic(self):
        data = np.ones((2, 3))
        plan = _plan(FaultRule("d", "corrupt", mode="noise", amount=0.1))
        a = FaultInjector(plan, seed=CHAOS_SEED).corrupt("d", data)
        b = FaultInjector(plan, seed=CHAOS_SEED).corrupt("d", data)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, data)

    def test_corrupt_without_matching_rule_returns_same_object(self):
        fi = FaultInjector(_plan(FaultRule("other", "corrupt")))
        data = np.ones(4)
        assert fi.corrupt("d", data) is data

    def test_disabled_injector_is_inert(self):
        fi = FaultInjector(_plan(FaultRule("*", "error", every=1)))
        fi.enabled = False
        assert fi.guard("s") == 0
        data = np.ones(3)
        assert fi.corrupt("s", data) is data

    def test_metrics_registry_is_shared(self):
        reg = MetricsRegistry()
        fi = FaultInjector(_plan(FaultRule("s", "error", every=1)),
                           retry=RetryPolicy(max_retries=1), metrics=reg)
        with pytest.raises(TransientIOError):
            fi.guard("s")
        assert reg.snapshot()["reliability.giveup.s"] == 1


# --------------------------------------------------------------------------
# faults flowing through the storage charge sites
# --------------------------------------------------------------------------

def _fit_c2lsh(data, plan=None, retry=None, use_t1=True):
    """A C2LSH whose queries walk several radius levels.

    The base radius is deliberately shrunk (the A2-ablation trick) so
    searches expand through multiple rounds: budgets then have round
    boundaries to trip at, and fault rules see a realistic stream of
    charge-site operations instead of one bulk charge per query.
    """
    from repro.core.scaling import estimate_base_radius

    unit = estimate_base_radius(data, rng=0) / 8.0
    fi = None
    if plan is not None:
        fi = FaultInjector(plan, seed=CHAOS_SEED, retry=retry)
    pm = PageManager(fault_injector=fi)
    index = C2LSH(c=2, seed=0, base_radius=unit, use_t1=use_t1,
                  page_manager=pm).fit(data)
    return index, fi


class TestChargeSiteFaults:
    def test_transient_bucket_scan_errors_are_retried(self, clustered):
        data, queries = clustered
        clean, _ = _fit_c2lsh(data)
        faulty, fi = _fit_c2lsh(
            data, _plan(FaultRule("bucket_scan", "error", every=5)))
        for q in queries[:3]:
            a = clean.query(q, k=5)
            b = faulty.query(q, k=5)
            assert np.array_equal(a.ids, b.ids)
            assert np.allclose(a.distances, b.distances)
        assert fi.snapshot()["reliability.retry.bucket_scan"] >= 1

    def test_retries_do_not_change_io_accounting(self, clustered):
        data, queries = clustered
        clean, _ = _fit_c2lsh(data)
        faulty, _ = _fit_c2lsh(
            data, _plan(FaultRule("bucket_scan", "error", every=5)))
        a = clean.query(queries[0], k=5)
        b = faulty.query(queries[0], k=5)
        assert a.stats.io_reads == b.stats.io_reads

    def test_persistent_fault_escapes_after_retries(self, clustered):
        data, queries = clustered
        faulty, fi = _fit_c2lsh(
            data,
            _plan(FaultRule("bucket_scan", "error", every=1,
                            start_after=20)),
        )
        with pytest.raises(TransientIOError):
            for q in queries:
                faulty.query(q, k=5)
        assert fi.snapshot()["reliability.giveup.bucket_scan"] == 1

    def test_data_read_corruption_reaches_distances(self, clustered):
        data, queries = clustered
        clean, _ = _fit_c2lsh(data)
        faulty, fi = _fit_c2lsh(
            data, _plan(FaultRule("data_read", "corrupt", mode="bias",
                                  amount=100.0)))
        a = clean.query(queries[0], k=5)
        b = faulty.query(queries[0], k=5)
        assert fi.snapshot()["reliability.fault.data_read.corrupt"] >= 1
        assert not np.allclose(a.distances, b.distances)

    def test_latency_rule_does_not_change_results(self, clustered):
        data, queries = clustered
        clean, _ = _fit_c2lsh(data)
        slow, _ = _fit_c2lsh(
            data, _plan(FaultRule("*", "latency", latency_s=0.0)))
        a = clean.query(queries[0], k=5)
        b = slow.query(queries[0], k=5)
        assert np.array_equal(a.ids, b.ids)

    def test_btree_descend_faults(self):
        fi = FaultInjector(
            _plan(FaultRule("btree_descend", "error", every=2)),
            retry=RetryPolicy(max_retries=1))
        pm = PageManager(fault_injector=fi)
        tree = BPlusTree(list(range(256)), list(range(256)),
                         leaf_capacity=4, fanout=4, page_manager=pm)
        for key in (3, 77, 200):
            pos = tree.search_position(key)
            assert tree.key_at(pos) == key
        assert fi.snapshot()["reliability.retry.btree_descend"] >= 1

    def test_btree_descend_giveup_raises(self):
        fi = FaultInjector(
            _plan(FaultRule("btree_descend", "error", every=1)),
            retry=RetryPolicy(max_retries=1))
        pm = PageManager(fault_injector=fi)
        tree = BPlusTree(list(range(64)), list(range(64)),
                         leaf_capacity=4, fanout=4, page_manager=pm)
        with pytest.raises(TransientIOError):
            tree.search_position(10)

    def test_qalsh_under_faults(self, clustered):
        data, queries = clustered
        fi = FaultInjector(_plan(FaultRule("bucket_scan", "error", every=7)),
                           seed=CHAOS_SEED)
        clean = QALSH(c=2.0, seed=0, page_manager=PageManager()).fit(data)
        faulty = QALSH(c=2.0, seed=0,
                       page_manager=PageManager(fault_injector=fi)).fit(data)
        a = clean.query(queries[0], k=5)
        b = faulty.query(queries[0], k=5)
        assert np.array_equal(a.ids, b.ids)


# --------------------------------------------------------------------------
# batch vs sequential equivalence under identical fault plans
# --------------------------------------------------------------------------

class TestBatchFaultEquivalence:
    def _pair(self, data, plan):
        seq, _ = _fit_c2lsh(data, plan)
        bat, _ = _fit_c2lsh(data, plan)
        return seq, bat

    def test_equivalent_under_deterministic_corruption(self, clustered):
        data, queries = clustered
        plan = _plan(FaultRule("data_read", "corrupt", mode="bias",
                               amount=0.25))
        seq, bat = self._pair(data, plan)
        a = [seq.query(q, k=5) for q in queries]
        b = bat.query_batch(queries, k=5)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.ids, rb.ids)
            assert np.allclose(ra.distances, rb.distances)

    def test_equivalent_under_recovered_transients(self, clustered):
        data, queries = clustered
        plan = _plan(FaultRule("bucket_scan", "error", every=9))
        seq, bat = self._pair(data, plan)
        a = [seq.query(q, k=5) for q in queries]
        b = bat.query_batch(queries, k=5)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.ids, rb.ids)


# --------------------------------------------------------------------------
# query budgets and graceful degradation
# --------------------------------------------------------------------------

def _multi_round_query(index, queries, k=5):
    """A held-out query whose unbudgeted search runs several rounds."""
    for q in queries:
        if index.query(q, k=k).stats.rounds >= 2:
            return q
    pytest.skip("no multi-round query in fixture")


class TestQueryBudget:
    def test_requires_at_least_one_cap(self):
        with pytest.raises(ValueError):
            QueryBudget()

    def test_rejects_non_positive_caps(self):
        with pytest.raises(ValueError):
            QueryBudget(deadline_s=0.0)
        with pytest.raises(ValueError):
            QueryBudget(max_io_pages=0)
        with pytest.raises(ValueError):
            QueryBudget(max_candidates=0)

    def test_io_budget_degrades_gracefully(self, clustered):
        data, queries = clustered
        index, _ = _fit_c2lsh(data)
        q = _multi_round_query(index, queries)
        result = index.query(q, k=5, budget=QueryBudget(max_io_pages=1))
        assert result.stats.degraded
        assert result.stats.budget_exhausted == "io_pages"
        assert result.stats.terminated_by == "budget"
        assert len(result) > 0
        assert np.all(np.isfinite(result.distances))

    def test_io_budget_degrades_on_batch_path(self, clustered):
        data, queries = clustered
        index, _ = _fit_c2lsh(data)
        results = index.query_batch(queries, k=5,
                                    budget=QueryBudget(max_io_pages=1))
        assert all(len(r) > 0 for r in results)
        degraded = [r for r in results if r.stats.degraded]
        assert degraded
        for r in degraded:
            assert r.stats.terminated_by == "budget"
            assert r.stats.budget_exhausted == "io_pages"

    def test_budget_path_equivalence(self, clustered):
        data, queries = clustered
        seq, _ = _fit_c2lsh(data)
        bat, _ = _fit_c2lsh(data)
        budget = QueryBudget(max_io_pages=1)
        a = [seq.query(q, k=5, budget=budget) for q in queries]
        b = bat.query_batch(queries, k=5, budget=budget)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.ids, rb.ids)
            assert ra.stats.degraded == rb.stats.degraded
            assert ra.stats.budget_exhausted == rb.stats.budget_exhausted

    def test_degraded_result_is_deterministic(self, clustered):
        data, queries = clustered
        index, _ = _fit_c2lsh(data)
        q = _multi_round_query(index, queries)
        budget = QueryBudget(max_io_pages=1)
        a = index.query(q, k=5, budget=budget)
        b = index.query(q, k=5, budget=budget)
        assert np.array_equal(a.ids, b.ids)
        assert a.stats.final_radius == b.stats.final_radius

    def test_candidate_cap(self, clustered):
        data, queries = clustered
        # T1 disabled: the natural stop then needs the full false-positive
        # budget, so a 1-candidate cap reliably binds first.
        index, _ = _fit_c2lsh(data, use_t1=False)
        budget = QueryBudget(max_candidates=1)
        degraded = [index.query(q, k=5, budget=budget) for q in queries]
        hit = [r for r in degraded if r.stats.degraded]
        assert hit
        assert all(r.stats.budget_exhausted == "candidates" for r in hit)
        assert all(len(r) > 0 for r in hit)

    def test_deadline_cap(self, clustered):
        data, queries = clustered
        index, _ = _fit_c2lsh(data)
        q = _multi_round_query(index, queries)
        result = index.query(q, k=5, budget=QueryBudget(deadline_s=1e-9))
        assert result.stats.degraded
        assert result.stats.budget_exhausted == "deadline"
        assert len(result) > 0

    def test_generous_budget_is_bit_identical(self, clustered):
        data, queries = clustered
        index, _ = _fit_c2lsh(data)
        budget = QueryBudget(deadline_s=3600.0, max_io_pages=10**9,
                             max_candidates=10**9)
        for q in queries[:5]:
            a = index.query(q, k=5)
            b = index.query(q, k=5, budget=budget)
            assert np.array_equal(a.ids, b.ids)
            assert np.allclose(a.distances, b.distances)
            assert not b.stats.degraded
            assert a.stats.terminated_by == b.stats.terminated_by
            assert a.stats.io_reads == b.stats.io_reads

    def test_achieved_radius_recorded(self, clustered):
        data, queries = clustered
        index, _ = _fit_c2lsh(data)
        q = _multi_round_query(index, queries)
        full = index.query(q, k=5)
        cut = index.query(q, k=5, budget=QueryBudget(max_io_pages=1))
        assert 1 <= cut.stats.final_radius <= full.stats.final_radius

    def test_qalsh_budget(self, clustered):
        from repro.core.scaling import estimate_base_radius

        data, queries = clustered
        unit = estimate_base_radius(data, rng=0) / 8.0
        index = QALSH(c=2.0, seed=0, base_radius=unit,
                      page_manager=PageManager()).fit(data)
        q = _multi_round_query(index, queries)
        result = index.query(q, k=5, budget=QueryBudget(max_io_pages=1))
        assert result.stats.degraded
        assert result.stats.terminated_by == "budget"
        assert len(result) > 0

    def test_qalsh_batch_takes_per_query_budgets(self, clustered):
        from repro.core.scaling import estimate_base_radius

        data, queries = clustered
        unit = estimate_base_radius(data, rng=0) / 8.0
        index = QALSH(c=2.0, seed=0, base_radius=unit,
                      page_manager=PageManager()).fit(data)
        results = index.query_batch(
            queries, k=5, budget=[QueryBudget(max_io_pages=1), None] * 5)
        for i, r in enumerate(results):
            if i % 2 == 0:
                assert r.stats.degraded
                assert r.stats.budget_exhausted == "io_pages"
            else:
                plain = index.query(queries[i], k=5)
                assert not r.stats.degraded
                assert np.array_equal(r.ids, plain.ids)
                assert np.array_equal(r.distances, plain.distances)

    def test_budget_without_page_manager_io_cap_inert(self, clustered):
        data, queries = clustered
        index = C2LSH(c=2, seed=0).fit(data)  # no page manager
        result = index.query(queries[0], k=5,
                             budget=QueryBudget(max_io_pages=1))
        assert not result.stats.degraded


# --------------------------------------------------------------------------
# validation parity between the batch and sequential entry points
# --------------------------------------------------------------------------

class TestValidationParity:
    def test_c2lsh_batch_names_bad_row(self, tiny):
        data, queries = tiny
        index = C2LSH(c=2, seed=0).fit(data)
        bad = np.array(queries[:4], copy=True)
        bad[2, 3] = np.nan
        with pytest.raises(ValueError, match=r"queries\[2\].*non-finite"):
            index.query_batch(bad, k=2)

    def test_qalsh_batch_names_bad_row(self, tiny):
        data, queries = tiny
        index = QALSH(c=2.0, seed=0).fit(data)
        bad = np.array(queries[:4], copy=True)
        bad[1, 0] = np.inf
        with pytest.raises(ValueError, match=r"queries\[1\].*non-finite"):
            index.query_batch(bad, k=2)

    def test_batch_shape_message(self, tiny):
        data, _ = tiny
        index = C2LSH(c=2, seed=0).fit(data)
        with pytest.raises(ValueError, match=r"\(q, 8\)"):
            index.query_batch(np.zeros((3, 5)), k=1)

    def test_sequential_loop_path_validates_too(self, tiny):
        data, queries = tiny
        index = C2LSH(c=2, seed=0, incremental=False).fit(data)
        bad = np.array(queries[:3], copy=True)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match=r"queries\[0\]"):
            index.query_batch(bad, k=2)


# --------------------------------------------------------------------------
# crash-safe persistence
# --------------------------------------------------------------------------

class TestPersistenceChaos:
    @pytest.fixture()
    def saved(self, tiny, tmp_path):
        data, queries = tiny
        index = C2LSH(c=2, seed=0).fit(data)
        path = tmp_path / "index.npz"
        save_c2lsh(index, path)
        return index, path, queries

    def test_mutated_array_named_in_error(self, saved):
        index, path, _ = saved
        blob = dict(np.load(path))
        blob["projections"] = blob["projections"] + 1e-3
        np.savez_compressed(path, **blob)
        with pytest.raises(CorruptIndexError) as err:
            load_c2lsh(path)
        assert err.value.section == "projections"
        assert "projections" in str(err.value)

    def test_flipped_byte_in_stored_member_named(self, saved):
        index, path, _ = saved
        raw = bytearray(path.read_bytes())
        # Members are stored, so the array's bytes sit in the file as is.
        pos = raw.find(index._funcs._projections.tobytes())
        assert pos > 0
        raw[pos + 3] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptIndexError) as err:
            load_c2lsh(path)
        assert err.value.section == "projections"

    def test_deflated_container_still_loads(self, saved):
        index, path, queries = saved
        with np.load(path) as blob:
            members = dict(blob)
        np.savez_compressed(path, **members)
        with zipfile.ZipFile(path) as archive:
            assert {i.compress_type for i in archive.infolist()} \
                == {zipfile.ZIP_DEFLATED}
        loaded = load_c2lsh(path)
        for q in queries:
            want, got = index.query(q, k=3), loaded.query(q, k=3)
            assert np.array_equal(got.ids, want.ids)
            assert np.array_equal(got.distances, want.distances)

    def test_truncated_file_rejected(self, saved):
        _, path, _ = saved
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CorruptIndexError):
            load_c2lsh(path)

    def test_unreadable_container_closes_its_file(self, saved):
        _, path, _ = saved
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(CorruptIndexError) as err:
                load_c2lsh(path)
            assert err.value.section == "container"
            del err
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaks, [str(w.message) for w in leaks]

    def test_random_byte_flips_never_load_silently_wrong(self, saved):
        index, path, queries = saved
        baseline = index.query(queries[0], k=3)
        raw = bytearray(path.read_bytes())
        rng = np.random.default_rng(CHAOS_SEED)
        for _ in range(8):
            pos = int(rng.integers(0, len(raw)))
            flipped = bytearray(raw)
            flipped[pos] ^= 0xFF
            path.write_bytes(bytes(flipped))
            try:
                loaded = load_c2lsh(path)
            except CorruptIndexError:
                continue  # detected — the guarantee we want
            result = loaded.query(queries[0], k=3)
            assert np.array_equal(result.ids, baseline.ids)
            assert np.allclose(result.distances, baseline.distances)
        path.write_bytes(bytes(raw))

    def test_interrupted_save_leaves_previous_file_intact(
            self, saved, tiny, monkeypatch):
        index, path, queries = saved
        baseline = index.query(queries[0], k=3)
        import repro.core.persist as persist

        def explode(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(persist.os, "replace", explode)
        with pytest.raises(OSError):
            save_c2lsh(index, path)
        monkeypatch.undo()
        assert not list(path.parent.glob(".index-*"))  # temp cleaned up
        loaded = load_c2lsh(path)
        result = loaded.query(queries[0], k=3)
        assert np.array_equal(result.ids, baseline.ids)

    def test_kind_mismatch_names_section(self, tiny, tmp_path):
        from repro.core import load_qalsh

        data, _ = tiny
        path = tmp_path / "c2.npz"
        save_c2lsh(C2LSH(c=2, seed=0).fit(data), path)
        with pytest.raises(CorruptIndexError) as err:
            load_qalsh(path)
        assert err.value.section == "kind"

    def test_version_tamper_names_section(self, saved):
        _, path, _ = saved
        blob = dict(np.load(path))
        blob["format_version"] = np.array(99)
        np.savez_compressed(path, **blob)
        with pytest.raises(CorruptIndexError) as err:
            load_c2lsh(path)
        assert err.value.section == "format_version"

    def test_corrupt_index_error_is_value_error(self):
        err = CorruptIndexError("/tmp/x.npz", "data", "boom")
        assert isinstance(err, ValueError)
        assert err.path == "/tmp/x.npz"

    def test_missing_file_is_not_corruption(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_c2lsh(tmp_path / "never-written.npz")

    def test_save_appends_npz_suffix(self, tiny, tmp_path):
        data, _ = tiny
        index = C2LSH(c=2, seed=0).fit(data)
        written = save_c2lsh(index, str(tmp_path / "plain"))
        assert written.endswith("plain.npz")
        assert load_c2lsh(written).params == index.params

    def test_qalsh_roundtrip_verified(self, tiny, tmp_path):
        from repro.core import load_qalsh, save_qalsh

        data, queries = tiny
        index = QALSH(c=2.0, seed=0).fit(data)
        path = tmp_path / "qalsh.npz"
        save_qalsh(index, path)
        blob = dict(np.load(path))
        blob["scalars"] = blob["scalars"] + 1.0
        np.savez_compressed(path, **blob)
        with pytest.raises(CorruptIndexError) as err:
            load_qalsh(path)
        assert err.value.section == "scalars"


# --------------------------------------------------------------------------
# harness resilience
# --------------------------------------------------------------------------

class TestHarnessResilience:
    def _patched(self, monkeypatch, experiments):
        import repro.eval.harness as harness

        monkeypatch.setattr(harness, "EXPERIMENTS", experiments)
        return harness

    def test_failed_experiment_writes_error_file(self, monkeypatch,
                                                 tmp_path, capsys):
        calls = []

        def ok(args):
            calls.append("ok")

        def boom(args):
            raise RuntimeError("synthetic failure")

        harness = self._patched(monkeypatch, {"boom": boom, "ok": ok})
        code = harness.main(["all", "--out-dir", str(tmp_path)])
        assert code == 1
        assert calls == ["ok"]  # the sweep kept going after the crash
        import json

        payload = json.loads((tmp_path / "boom_error.json").read_text())
        assert payload["error"] == "RuntimeError"
        assert payload["message"] == "synthetic failure"
        assert "Traceback" in payload["traceback"]

    def test_all_green_returns_zero(self, monkeypatch, tmp_path):
        harness = self._patched(monkeypatch, {"ok": lambda args: None})
        assert harness.main(["all", "--out-dir", str(tmp_path)]) == 0
        assert not list(tmp_path.glob("*_error.json"))

    def test_single_experiment_failure_is_contained(self, monkeypatch,
                                                    tmp_path, capsys):
        def boom(args):
            raise ValueError("nope")

        harness = self._patched(monkeypatch, {"boom": boom})
        assert harness.main(["boom", "--out-dir", str(tmp_path)]) == 1
        assert (tmp_path / "boom_error.json").exists()

    def test_keyboard_interrupt_propagates(self, monkeypatch, tmp_path):
        def interrupted(args):
            raise KeyboardInterrupt

        harness = self._patched(monkeypatch, {"boom": interrupted})
        with pytest.raises(KeyboardInterrupt):
            harness.main(["boom", "--out-dir", str(tmp_path)])
        assert not (tmp_path / "boom_error.json").exists()


class TestFlightOnGiveup:
    def test_giveup_writes_flight_postmortem(self, tmp_path):
        import json

        from repro.obs import FlightRecorder, flight

        mine = FlightRecorder(capacity=16, directory=str(tmp_path),
                              min_dump_interval_s=0.0)
        old = flight.install(mine)
        try:
            fi = FaultInjector(_plan(FaultRule("s", "error", every=1)),
                               retry=RetryPolicy(max_retries=1))
            with pytest.raises(TransientIOError):
                fi.guard("s")
        finally:
            flight.install(old)
        events = [e for e in mine.events() if e["kind"] == "retry_giveup"]
        assert events and events[0]["site"] == "s"
        assert events[0]["attempts"] == 2
        dumps = sorted(tmp_path.glob("flight_retry_giveup_*.json"))
        assert dumps
        payload = json.loads(dumps[0].read_text())
        assert payload["extra"] == {"site": "s"}
