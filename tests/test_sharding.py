"""Sharded engine: exactness, determinism, budgets, persistence, planning.

The headline guarantee under test is *bit-identical results*: a
``ShardedC2LSH`` over any shard count answers exactly like an unsharded
``C2LSH`` built on the same data and seed — same ids, same distances,
same termination reasons — ties included. Most tests run the serial
executor (``n_workers=0``), which shares every line of protocol code with
the process path; the process-pool integration tests carry the ``shard``
marker so the main CI job can deselect them.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import C2LSH, PageManager, ShardedC2LSH
from repro.core.persist import load_arrays, save_arrays
from repro.obs import MetricsRegistry
from repro.reliability import CorruptIndexError, QueryBudget
from repro.sharding import (
    assign_shards,
    default_parallelism,
    load_sharded,
    shard_offsets,
)

pytestmark = []


def _assert_same_results(expected, got):
    assert len(expected) == len(got)
    for r, g in zip(expected, got):
        np.testing.assert_array_equal(r.ids, g.ids)
        np.testing.assert_array_equal(r.distances, g.distances)
        assert r.stats.terminated_by == g.stats.terminated_by
        assert r.stats.candidates == g.stats.candidates
        assert r.stats.scanned_entries == g.stats.scanned_entries
        assert r.stats.rounds == g.stats.rounds
        assert r.stats.final_radius == g.stats.final_radius


# -- planning helpers --------------------------------------------------------


def test_default_parallelism_respects_limit():
    width = default_parallelism()
    assert width >= 1
    assert default_parallelism(limit=1) == 1
    assert default_parallelism(limit=10_000) == width
    assert default_parallelism(limit=max(1, width - 1)) == max(1, width - 1)


def test_default_parallelism_rejects_bad_limit():
    with pytest.raises(ValueError, match="limit"):
        default_parallelism(limit=0)


def test_shard_offsets_partition_everything():
    for n, s in [(10, 1), (10, 3), (7, 7), (20_001, 8)]:
        off = shard_offsets(n, s)
        assert off[0] == 0 and off[-1] == n and len(off) == s + 1
        sizes = np.diff(off)
        assert sizes.min() >= 1
        assert sizes.max() - sizes.min() <= 1


def test_shard_offsets_rejects_impossible_splits():
    with pytest.raises(ValueError, match="non-empty"):
        shard_offsets(2, 3)
    with pytest.raises(ValueError, match="n_shards"):
        shard_offsets(10, 0)


def test_assign_shards_round_robin():
    assert assign_shards(5, 2) == ((0, 2, 4), (1, 3))
    assert assign_shards(4, 4) == ((0,), (1,), (2,), (3,))
    # More workers than shards collapses to one shard each.
    assert assign_shards(2, 8) == ((0,), (1,))


# -- exactness (serial executor) --------------------------------------------


@pytest.mark.parametrize("n_shards", [1, 2, 3])
def test_sharded_matches_unsharded(clustered, n_shards):
    data, queries = clustered
    base = C2LSH(seed=42).fit(data)
    expected = base.query_batch(queries, k=10)
    with ShardedC2LSH(n_shards=n_shards, n_workers=0, seed=42).fit(
            data) as eng:
        _assert_same_results(expected, eng.query_batch(queries, k=10))
        # Single-query path goes through the same protocol.
        single = eng.query(queries[0], k=10)
        np.testing.assert_array_equal(single.ids, expected[0].ids)


@given(seed=st.integers(min_value=0, max_value=2**31),
       n_shards=st.sampled_from([1, 2, 3]),
       k=st.sampled_from([1, 3, 7]))
@settings(max_examples=8, deadline=None)
def test_property_exact_ids_and_distances(seed, n_shards, k):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((230, 6))
    # Duplicate a block of rows so tied distances actually occur and the
    # tie-breaking order is exercised, not just distance equality.
    data[60:90] = data[0:30]
    queries = rng.standard_normal((4, 6))
    expected = C2LSH(seed=seed).fit(data).query_batch(queries, k=k)
    with ShardedC2LSH(n_shards=n_shards, n_workers=0,
                      seed=seed).fit(data) as eng:
        got = eng.query_batch(queries, k=k)
    for r, g in zip(expected, got):
        np.testing.assert_array_equal(r.ids, g.ids)
        np.testing.assert_array_equal(r.distances, g.distances)


def test_exact_on_duplicate_heavy_ties(tiny):
    data, queries = tiny
    # Every point duplicated: all top-k distances are ties.
    doubled = np.vstack([data, data])
    expected = C2LSH(seed=5).fit(doubled).query_batch(queries, k=6)
    with ShardedC2LSH(n_shards=3, n_workers=0, seed=5).fit(
            doubled) as eng:
        _assert_same_results(expected, eng.query_batch(queries, k=6))


def test_results_independent_of_execution_order(tiny):
    """Shard execution order must not leak into answers or stats."""
    data, queries = tiny
    with ShardedC2LSH(n_shards=3, n_workers=0, seed=9).fit(data) as eng:
        forward = eng.query_batch(queries, k=5)
        # Reverse the serial runner's execution order: shard 2 now runs
        # each round (and each fallback step) before shards 1 and 0.
        eng._runner.order = list(reversed(range(len(
            eng._runner._hosts))))
        reversed_order = eng.query_batch(queries, k=5)
    _assert_same_results(forward, reversed_order)


# -- stats, budgets, telemetry ----------------------------------------------


def test_stats_aggregate_across_shards(tiny):
    data, queries = tiny
    pm = PageManager()
    base = C2LSH(seed=11, page_manager=pm).fit(data)
    expected = base.query_batch(queries, k=4)
    with ShardedC2LSH(n_shards=2, n_workers=0, seed=11,
                      page_accounting=True).fit(data) as eng:
        before = {sid: io for sid, io in eng.io_totals().items()}
        got = eng.query_batch(queries, k=4)
        after = eng.io_totals()
    _assert_same_results(expected, got)
    # Per-query io_reads must sum exactly to the pages the shards charged.
    charged = sum(after[s][0] - before[s][0] for s in after)
    assert sum(g.stats.io_reads for g in got) == charged
    assert all(g.stats.io_reads > 0 for g in got)


def test_budget_candidates_parity(clustered):
    data, queries = clustered
    budget = QueryBudget(max_candidates=5)
    expected = C2LSH(seed=21).fit(data).query_batch(queries, k=10,
                                                    budget=budget)
    with ShardedC2LSH(n_shards=3, n_workers=0, seed=21).fit(data) as eng:
        got = eng.query_batch(queries, k=10, budget=budget)
    _assert_same_results(expected, got)
    for r, g in zip(expected, got):
        assert r.stats.degraded == g.stats.degraded
        assert r.stats.budget_exhausted == g.stats.budget_exhausted


def test_budget_io_pages_trips_on_aggregate(tiny):
    data, queries = tiny
    with ShardedC2LSH(n_shards=2, n_workers=0, seed=3,
                      page_accounting=True).fit(data) as eng:
        res = eng.query_batch(queries, k=3,
                              budget=QueryBudget(max_io_pages=1))
    # One page is less than any real query costs across 2 shards, so the
    # shard-aggregated cap fires at the first round boundary for every
    # query a natural rule (which has priority) didn't already stop.
    assert all(r.stats.rounds == 1 for r in res)
    capped = [r for r in res if r.stats.terminated_by == "budget"]
    assert capped
    assert all(r.stats.budget_exhausted == "io_pages" for r in capped)
    assert all(r.stats.degraded for r in capped)
    assert all(len(r) > 0 for r in res)  # still best-effort answers


def test_telemetry_lands_under_shard_metrics(tiny):
    data, queries = tiny
    registry = MetricsRegistry()
    with ShardedC2LSH(n_shards=2, n_workers=0, seed=1,
                      metrics=registry).fit(data) as eng:
        eng.query_batch(queries, k=3)
    snap = registry.snapshot()
    assert {"shard.build.seconds", "shard.rounds", "shard.queries",
            "shard.worker.seconds"} <= set(snap)
    assert registry.counter("shard.queries").value == len(queries)
    assert registry.counter("shard.rounds").value > 0


# -- lifecycle and validation ------------------------------------------------


def test_engine_validates_arguments(tiny):
    data, queries = tiny
    with pytest.raises(ValueError, match="n_shards"):
        ShardedC2LSH(n_shards=0)
    with pytest.raises(ValueError, match="n_workers"):
        ShardedC2LSH(n_workers=-1)
    with pytest.raises(ValueError, match="shards"):
        ShardedC2LSH(n_shards=4, n_workers=0).fit(data[:3])
    eng = ShardedC2LSH(n_shards=2, n_workers=0, seed=0)
    with pytest.raises(RuntimeError, match="not fitted"):
        eng.query(queries[0])
    eng.fit(data)
    with pytest.raises(ValueError, match="k must be positive"):
        eng.query(queries[0], k=0)
    with pytest.raises(RuntimeError, match="already fitted"):
        eng.fit(data)
    eng.close()
    with pytest.raises(RuntimeError, match="closed"):
        eng.query(queries[0])


# -- persistence -------------------------------------------------------------


def test_save_load_round_trip(tiny, tmp_path):
    data, queries = tiny
    with ShardedC2LSH(n_shards=3, n_workers=0, seed=13,
                      page_accounting=True).fit(data) as eng:
        expected = eng.query_batch(queries, k=5)
        path = eng.save(tmp_path / "sharded")
        boundaries = eng.shard_boundaries
    with load_sharded(path, n_workers=0) as restored:
        assert restored.shard_boundaries == boundaries
        assert restored.n_shards == 3
        _assert_same_results(expected, restored.query_batch(queries, k=5))


def test_load_ignores_retired_page_latency_field(tiny, tmp_path):
    """Files saved while engines could simulate a per-page device latency
    hold a ``page_latency_s`` member; loading ignores it."""
    data, queries = tiny
    with ShardedC2LSH(n_shards=3, n_workers=0, seed=13,
                      page_accounting=True).fit(data) as eng:
        expected = eng.query_batch(queries, k=5)
        path = eng.save(tmp_path / "sharded")
    blob = load_arrays(path, "sharded-c2lsh")
    save_arrays(path, "sharded-c2lsh", {**blob, "page_latency_s": 1e-6})
    with load_sharded(path, n_workers=0) as restored:
        _assert_same_results(expected, restored.query_batch(queries, k=5))


def test_load_detects_corruption(tiny, tmp_path):
    data, _ = tiny
    with ShardedC2LSH(n_shards=2, n_workers=0, seed=13).fit(data) as eng:
        path = eng.save(tmp_path / "sharded")
    blob = bytearray((tmp_path / "sharded.npz").read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    (tmp_path / "sharded.npz").write_bytes(bytes(blob))
    with pytest.raises(CorruptIndexError):
        load_sharded(path, n_workers=0)


def test_load_rejects_wrong_kind(tiny, tmp_path):
    data, _ = tiny
    from repro.core.persist import save_c2lsh

    index = C2LSH(seed=1).fit(data)
    path = save_c2lsh(index, tmp_path / "plain")
    with pytest.raises(CorruptIndexError, match="kind"):
        load_sharded(path, n_workers=0)


def test_save_requires_fitted(tmp_path):
    eng = ShardedC2LSH(n_shards=2, n_workers=0)
    with pytest.raises(ValueError, match="unfitted"):
        eng.save(tmp_path / "nope")


# -- process-pool integration (slow; deselected from the main CI job) --------


@pytest.mark.shard
def test_process_workers_match_unsharded(clustered):
    data, queries = clustered
    expected = C2LSH(seed=33).fit(data).query_batch(queries, k=10)
    with ShardedC2LSH(n_shards=4, n_workers=2, seed=33).fit(data) as eng:
        _assert_same_results(expected, eng.query_batch(queries, k=10))


@pytest.mark.shard
def test_results_independent_of_worker_count(tiny):
    """The worker layout (1, 2 procs, or serial) never changes answers."""
    data, queries = tiny
    outcomes = []
    for workers in (0, 1, 2):
        with ShardedC2LSH(n_shards=4, n_workers=workers,
                          seed=17).fit(data) as eng:
            outcomes.append(eng.query_batch(queries, k=5))
    _assert_same_results(outcomes[0], outcomes[1])
    _assert_same_results(outcomes[0], outcomes[2])


@pytest.mark.shard
def test_process_budget_and_accounting(tiny):
    data, queries = tiny
    budget = QueryBudget(max_candidates=6)
    with ShardedC2LSH(n_shards=2, n_workers=0, seed=29,
                      page_accounting=True).fit(data) as eng:
        expected = eng.query_batch(queries, k=4, budget=budget)
    with ShardedC2LSH(n_shards=2, n_workers=2, seed=29,
                      page_accounting=True).fit(data) as eng:
        got = eng.query_batch(queries, k=4, budget=budget)
    _assert_same_results(expected, got)
    for r, g in zip(expected, got):
        assert r.stats.io_reads == g.stats.io_reads


@pytest.mark.shard
def test_load_onto_process_workers(tiny, tmp_path):
    data, queries = tiny
    with ShardedC2LSH(n_shards=2, n_workers=0, seed=13).fit(data) as eng:
        expected = eng.query_batch(queries, k=5)
        path = eng.save(tmp_path / "sharded")
    with load_sharded(path, n_workers=2) as restored:
        _assert_same_results(expected, restored.query_batch(queries, k=5))


# -- cross-process observability (PR 7) --------------------------------------


def _worker_span_events(tr):
    from repro.obs import SpanEvent

    return [e for e in tr.events if isinstance(e, SpanEvent)
            and e.name.startswith("shard.worker.")]


def test_worker_spans_propagate_with_identity(tiny):
    """Per-shard spans carry shard id and pid, stitched in."""
    import os

    from repro.obs import SpanEvent, tracing

    data, queries = tiny
    with ShardedC2LSH(n_shards=3, n_workers=0, seed=5,
                      page_accounting=True).fit(data) as eng:
        with tracing() as tr:
            eng.query_batch(queries, k=5)
    spans = _worker_span_events(tr)
    assert spans
    round_spans = [e for e in spans if e.name == "shard.worker.round"]
    assert {e.attrs["shard"] for e in round_spans} == {0, 1, 2}
    assert all(e.attrs["pid"] == os.getpid() for e in spans)  # serial mode
    # Every worker span is parented inside the coordinator's trace.
    span_ids = {e.span_id for e in tr.events if isinstance(e, SpanEvent)}
    assert all(e.parent_id in span_ids for e in spans)


def test_worker_span_pages_sum_to_query_totals(tiny):
    """Acceptance: per-shard page counts sum to the coordinator totals."""
    from repro.obs import tracing

    data, queries = tiny
    with ShardedC2LSH(n_shards=3, n_workers=0, seed=5,
                      page_accounting=True).fit(data) as eng:
        with tracing() as tr:
            results = eng.query_batch(queries, k=5)
        span_pages = sum(e.attrs.get("pages", 0)
                         for e in _worker_span_events(tr))
        stats_pages = sum(r.stats.io_reads for r in results)
        assert span_pages == stats_pages > 0
        assert eng.metrics.counter("shard.io.pages").value == stats_pages
        # The worker-shipped per-shard counters agree with the total too.
        per_shard = {name: metric.value for name, metric in eng.metrics
                     if name.startswith("shard.worker.")
                     and name.endswith(".io.pages")}
        assert len(per_shard) == 3
        assert sum(per_shard.values()) == stats_pages


def test_worker_counters_fold_even_untraced(tiny):
    """Counter deltas ship with every round, tracing active or not."""
    data, queries = tiny
    with ShardedC2LSH(n_shards=2, n_workers=0, seed=5,
                      page_accounting=True).fit(data) as eng:
        eng.query_batch(queries, k=5)
        snapshot = eng.telemetry_snapshot()
    assert snapshot["shard.worker.0.rounds"] >= 1
    assert snapshot["shard.worker.1.rounds"] >= 1
    assert snapshot["shard.worker.0.io.pages"] > 0


def test_worker_spans_jsonl_round_trip(tiny, tmp_path):
    """Grafted worker spans survive the JSONL round trip exactly."""
    from repro.obs import JsonlSink, SnapshotSink, load_jsonl, replay, \
        tracing

    data, queries = tiny
    path = tmp_path / "events.jsonl"
    live = SnapshotSink()
    with ShardedC2LSH(n_shards=2, n_workers=0, seed=5,
                      page_accounting=True).fit(data) as eng:
        with tracing(live, JsonlSink(path)):
            eng.query_batch(queries, k=5)
    replayed, = replay(load_jsonl(path), SnapshotSink())
    assert replayed.snapshot() == live.snapshot()
    assert live.registry.counter(
        "span.shard.worker.round.count").value > 0


def test_explain_sharded_per_shard_rows(tiny):
    data, queries = tiny
    with ShardedC2LSH(n_shards=3, n_workers=0, seed=5,
                      page_accounting=True).fit(data) as eng:
        explanation = eng.explain(queries[0], k=4)
        with pytest.raises(ValueError, match="k must be positive"):
            eng.explain(queries[0], k=0)
        unsharded = C2LSH(seed=5, page_manager=PageManager()).fit(data)
        expected = unsharded.query(queries[0], k=4)
    assert explanation.spans
    assert {s.shard for s in explanation.spans} <= {0, 1, 2}
    assert sum(s.pages for s in explanation.spans) == explanation.io_reads
    np.testing.assert_array_equal(explanation.result_ids, expected.ids)
    rendered = explanation.render()
    assert "shard" in rendered
    assert "=>" in rendered


def test_budget_trip_writes_flight_dump(tiny, tmp_path):
    """Acceptance: a budget-exhausted query leaves a postmortem the
    ``python -m repro.obs`` CLI can summarize."""
    import json

    from repro.obs import FlightRecorder, flight
    from repro.obs.__main__ import main as obs_main

    data, queries = tiny
    mine = FlightRecorder(capacity=64, directory=str(tmp_path),
                          min_dump_interval_s=0.0)
    old = flight.install(mine)
    try:
        with ShardedC2LSH(n_shards=2, n_workers=0, seed=3,
                          page_accounting=True).fit(data) as eng:
            results = eng.query_batch(queries, k=3,
                                      budget=QueryBudget(max_io_pages=1))
    finally:
        flight.install(old)
    assert any(r.stats.budget_exhausted for r in results)
    dumps = sorted(tmp_path.glob("flight_budget_exhausted_*.json"))
    assert dumps
    payload = json.loads(dumps[0].read_text())
    assert payload["reason"] == "budget_exhausted"
    assert payload["extra"]["engine"] == "sharded"
    assert any(e["kind"] == "budget_exhausted" for e in payload["events"])
    assert obs_main([str(dumps[0])]) == 0


@pytest.mark.shard
def test_worker_spans_propagate_across_processes(tiny):
    """Spans recorded in real worker processes reach the coordinator."""
    import os

    from repro.obs import tracing

    data, queries = tiny
    with ShardedC2LSH(n_shards=4, n_workers=2, seed=5,
                      page_accounting=True).fit(data) as eng:
        with tracing() as tr:
            results = eng.query_batch(queries, k=5)
    spans = [e for e in _worker_span_events(tr)
             if e.name == "shard.worker.round"]
    assert {e.attrs["shard"] for e in spans} == {0, 1, 2, 3}
    pids = {e.attrs["pid"] for e in spans}
    assert os.getpid() not in pids      # recorded worker-side
    assert len(pids) == 2               # one pid per worker pool
    span_pages = sum(e.attrs.get("pages", 0)
                     for e in _worker_span_events(tr))
    assert span_pages == sum(r.stats.io_reads for r in results)
