"""One block driver for every batch query; classic is its preset.

Classic probing runs through the same block driver as adaptive probing,
as the ``AdaptiveConfig(chunks=1, start_estimate=False)`` schedule. These
tests pin that preset as the oracle on the sharded engine — serial
runner, process runner, and through a worker rebuild — pin a one-shard
engine's certified adaptive answers to the unsharded engine's, check
that the driver's EXPLAIN rows carry each round's own scanned entries,
pages and probes, so that rows add up to the query's totals on every
path, and check that the four batch paths keep their flight labels and
probe accounting.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import (
    AdaptiveConfig,
    C2LSH,
    FaultPlan,
    FaultRule,
    PageManager,
    QueryBudget,
    ShardedC2LSH,
)
from repro.core import explain
from repro.obs import FlightRecorder, flight
from repro.sharding.worker import ShardHost

EXACT = AdaptiveConfig(chunks=1, start_estimate=False)

STAT_FIELDS = ("rounds", "final_radius", "candidates", "scanned_entries",
               "terminated_by", "io_reads")


def _assert_same(classic, exact):
    assert len(classic) == len(exact)
    for i, (s, a) in enumerate(zip(classic, exact)):
        np.testing.assert_array_equal(s.ids, a.ids, err_msg=f"query {i}")
        np.testing.assert_array_equal(s.distances, a.distances,
                                      err_msg=f"query {i}")
        for field in STAT_FIELDS:
            assert getattr(s.stats, field) == getattr(a.stats, field), \
                f"query {i}: stats.{field} differs"
        assert s.stats.probes_issued == s.stats.probes_skipped == 0


def _sharded(data, n_workers, **kwargs):
    return ShardedC2LSH(n_shards=3, n_workers=n_workers, seed=3,
                        page_accounting=True, **kwargs).fit(data)


def test_sharded_exact_config_is_classic_serial(clustered):
    data, queries = clustered
    with _sharded(data, 0) as eng:
        classic = eng.query_batch(queries, k=4)
        exact = eng.query_batch(queries, k=4, probe=EXACT)
    _assert_same(classic, exact)


@pytest.mark.shard
def test_sharded_exact_config_is_classic_process(clustered):
    data, queries = clustered
    with _sharded(data, 2) as eng:
        classic = eng.query_batch(queries, k=4)
        exact = eng.query_batch(queries, k=4, probe=EXACT)
    _assert_same(classic, exact)


def test_sharded_exact_config_is_classic_through_rebuild(clustered):
    """A worker killed mid-round is respawned and its session replayed
    round by round; the preset's answers do not move."""
    data, queries = clustered
    with _sharded(data, 0) as eng:
        classic = eng.query_batch(queries, k=4)
    kill = FaultPlan((FaultRule(site="worker_exit.batch_round", kind="exit",
                                max_triggers=1),))
    with _sharded(data, 0, fault_plan=kill,
                  on_worker_failure="rebuild") as eng:
        exact = eng.query_batch(queries, k=4, probe=EXACT)
        assert eng.metrics.snapshot().get("shard.failover.rebuilds") == 1
    _assert_same(classic, exact)


def _assert_one_shard_is_local(clustered, n_workers, chunks):
    """A shard's round is the local round: one certified shard answers
    like the unsharded engine, stat for stat."""
    data, queries = clustered
    # Far-off copies make the estimator skip start levels.
    queries = np.vstack([queries, queries + 40.0])
    config = AdaptiveConfig(chunks=chunks, provisional_exit=False)
    local = C2LSH(seed=3, page_manager=PageManager()).fit(data).query_batch(
        queries, k=4, probe=config)
    with ShardedC2LSH(n_shards=1, n_workers=n_workers, seed=3,
                      page_accounting=True).fit(data) as eng:
        sharded = eng.query_batch(queries, k=4, probe=config)
    assert any(r.stats.probes_skipped for r in local)
    assert any(r.stats.terminated_by == "T2" for r in local)
    for i, (a, b) in enumerate(zip(local, sharded, strict=True)):
        np.testing.assert_array_equal(a.ids, b.ids, err_msg=f"query {i}")
        np.testing.assert_array_equal(a.distances, b.distances,
                                      err_msg=f"query {i}")
        sa, sb = dataclasses.asdict(a.stats), dataclasses.asdict(b.stats)
        sa.pop("elapsed_s")
        sb.pop("elapsed_s")
        assert sa == sb, f"query {i}"


@pytest.mark.parametrize("chunks", [16, 4])
def test_one_shard_adaptive_is_local_adaptive_serial(clustered, chunks):
    _assert_one_shard_is_local(clustered, 0, chunks)


@pytest.mark.shard
@pytest.mark.parametrize("chunks", [16, 4])
def test_one_shard_adaptive_is_local_adaptive_process(clustered, chunks):
    _assert_one_shard_is_local(clustered, 1, chunks)


@pytest.mark.parametrize("probe", [None, EXACT, "adaptive"],
                         ids=["classic", "exact", "adaptive"])
def test_explain_rows_add_up_to_query_totals(probe):
    rng = np.random.default_rng(0)
    data = rng.standard_normal((3000, 16))
    query = data[3] + 0.3
    # A fine radius grid makes the search walk several rounds.
    index = C2LSH(seed=0, page_manager=PageManager(),
                  base_radius=0.5).fit(data)
    exp = explain(index, query, k=3, probe=probe)
    stats = index.query(query, k=3, probe=probe).stats
    rows = [r for r in exp.rounds if not r.skipped]
    assert len(rows) >= 3
    assert sum(r.io_reads for r in rows) == stats.io_reads
    assert sum(r.scanned_entries for r in rows) == stats.scanned_entries
    assert sum(r.probes_issued for r in exp.rounds) == stats.probes_issued
    assert sum(r.probes_skipped for r in exp.rounds) == \
        stats.probes_skipped


@pytest.mark.parametrize("sharded,probe,label", [
    (False, None, "batch"), (False, "adaptive", "adaptive"),
    (True, None, "sharded"), (True, "adaptive", "sharded-adaptive")])
def test_paths_keep_their_labels(tiny, tmp_path, monkeypatch, sharded,
                                 probe, label):
    """One driver, four paths: each keeps its flight label, classic
    reports no probes, and only sharded adaptive asks for estimates."""
    data, queries = tiny
    estimates = []
    batch_estimate = ShardHost.batch_estimate
    monkeypatch.setattr(ShardHost, "batch_estimate", lambda host, sid: (
        estimates.append(sid), batch_estimate(host, sid))[1])
    recorder = FlightRecorder(capacity=256, directory=str(tmp_path),
                              min_dump_interval_s=0.0)
    old = flight.install(recorder)
    try:
        # A fine radius grid makes the budget trip before any rule fires.
        budget = QueryBudget(max_io_pages=3)
        if sharded:
            with ShardedC2LSH(n_shards=2, n_workers=0, seed=0,
                              base_radius=0.05,
                              page_accounting=True).fit(data) as eng:
                results = eng.query_batch(queries, k=3, budget=budget,
                                          probe=probe)
        else:
            index = C2LSH(seed=0, page_manager=PageManager(),
                          base_radius=0.05).fit(data)
            results = index.query_batch(queries, k=3, budget=budget,
                                        probe=probe)
    finally:
        flight.install(old)
    notes = [e["engine"] for e in recorder.events()
             if e["kind"] == "budget_exhausted"]
    assert notes and set(notes) == {label}
    probes = sum(r.stats.probes_issued + r.stats.probes_skipped
                 for r in results)
    assert (probes > 0) == (probe is not None)
    assert bool(estimates) == (sharded and probe is not None)
