"""Self-healing sharded engine: worker death at every protocol step.

The contract under test: killing a worker — injected ``os._exit`` via
``worker_exit.*`` fault rules, or a real ``SIGKILL`` — at *any* step of
the lockstep protocol is survivable. ``"rebuild"`` answers stay
bit-identical to the unsharded index (the respawned worker replays the
session); ``"degrade"`` answers come from surviving shards only, flagged
``QueryStats.degraded`` with ``failed_shards`` naming the losses;
``"raise"`` fails fast with :class:`WorkerFailureError`. Failovers must
also be observable (``shard.failover.*`` counters, ``worker_failure``
flight dumps) and leak-free (worker pools and the shared-memory segment
are released even when the build itself dies).

``REPRO_CHAOS_SEED`` (the CI ``chaos`` job varies it) picks which
worker dies in the multi-worker tests — changing which shards are lost,
what replays, and what a degraded answer may cite — while every kill
schedule stays deterministic for a fixed seed. Serial-runner tests cover
the failover logic without process overhead; ``@pytest.mark.shard``
tests drive real pools, real process death, and real respawns.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro import C2LSH, ShardedC2LSH
from repro.obs import FlightRecorder, flight
from repro.reliability import (
    FaultPlan,
    FaultRule,
    InjectedWorkerExit,
    QueryBudget,
    WorkerFailureError,
)
from repro.sharding import CircuitBreaker, FailoverPolicy
from repro.sharding.supervisor import protocol_timeout

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

#: Every chaos-injectable protocol step (the ``worker_exit.*`` family).
STEPS = ("batch_start", "batch_round", "fallback_candidates",
         "fallback_verify", "batch_end")

#: No background threads: tests control respawn timing explicitly.
NO_RESPAWN = dict(auto_respawn=False)


def _kill_once(step, worker=None):
    """Kill-once on the first call at ``step``: most protocol steps run
    once per query block, so deterministic first-call placement is the
    only schedule that reaches every site."""
    return FaultPlan((FaultRule(site=f"worker_exit.{step}", kind="exit",
                                worker=worker, max_triggers=1),))


def _assert_identical(expected, got):
    assert len(expected) == len(got)
    for r, g in zip(expected, got):
        np.testing.assert_array_equal(r.ids, g.ids)
        np.testing.assert_array_equal(r.distances, g.distances)
        # Budget trips may degrade both runs alike; failover must not.
        assert g.stats.degraded == r.stats.degraded
        assert g.stats.budget_exhausted == r.stats.budget_exhausted
        assert g.stats.failed_shards == ()


def _true_distances(data, query, ids):
    return np.sqrt(((data[ids] - query) ** 2).sum(axis=1))


# -- policy & breaker units --------------------------------------------------


def test_failover_policy_validation():
    with pytest.raises(ValueError, match="failure policy"):
        FailoverPolicy(on_failure="retry")
    with pytest.raises(ValueError, match="round_timeout_s"):
        FailoverPolicy(round_timeout_s=0)
    with pytest.raises(ValueError, match="max_failures"):
        FailoverPolicy(max_failures=0)
    with pytest.raises(ValueError, match="failure_window_s"):
        FailoverPolicy(failure_window_s=-1)
    # round_timeout_s=None disables protocol deadlines entirely.
    assert FailoverPolicy(round_timeout_s=None).round_timeout_s is None


def test_circuit_breaker_sliding_window():
    breaker = CircuitBreaker(max_failures=2, window_s=10.0)
    assert not breaker.record(0, now=0.0)
    assert not breaker.tripped(0, now=0.0)
    assert breaker.record(0, now=1.0)
    assert breaker.tripped(0, now=1.0)
    # Old failures age out of the window...
    assert not breaker.tripped(0, now=20.0)
    # ...and reset() forgets a worker entirely.
    breaker.record(1, now=0.0)
    breaker.record(1, now=0.5)
    breaker.reset(1)
    assert not breaker.tripped(1, now=0.5)
    assert breaker.snapshot() == {0: 1} or breaker.snapshot() == {}


def test_protocol_timeout_adds_budget_remaining():
    policy = FailoverPolicy(round_timeout_s=2.0)
    assert protocol_timeout(policy) == 2.0
    # Remaining budget is *added*: a slow-but-alive worker near the
    # deadline is the budget check's problem, not a presumed death.
    started = time.perf_counter()
    t = protocol_timeout(policy, QueryBudget(deadline_s=100.0), started)
    assert 2.0 < t <= 102.0
    assert protocol_timeout(FailoverPolicy(round_timeout_s=None)) is None


def test_exit_rules_round_trip_and_validate():
    plan = _kill_once("batch_round", worker=1)
    restored = FaultPlan.from_dict(plan.to_dict())
    assert restored.rules[0].kind == "exit"
    assert restored.rules[0].worker == 1
    with pytest.raises(ValueError, match="worker"):
        FaultRule(site="worker_exit.build", kind="exit", worker=-1)


def test_worker_failure_error_carries_causes():
    err = WorkerFailureError("batch_round", {1: "timeout", 0: "dead"})
    assert err.method == "batch_round"
    assert err.failures == {0: "dead", 1: "timeout"}
    assert "batch_round" in str(err) and "timeout" in str(err)


# -- rebuild: bit-identical through death at every step ----------------------


@pytest.mark.parametrize("step", STEPS)
def test_rebuild_is_bit_identical_at_every_step(tiny, step):
    """Kill the worker at each protocol step; replay keeps exactness."""
    data, queries = tiny
    expected = C2LSH(seed=11).fit(data).query_batch(
        queries, k=4, budget=QueryBudget(max_candidates=2))
    # max_candidates=1-ish budgets force the fallback path, so the
    # fallback_* sites actually execute (and die, and recover).
    with ShardedC2LSH(n_shards=3, n_workers=0, seed=11,
                      fault_plan=_kill_once(step),
                      failover=FailoverPolicy(**NO_RESPAWN)).fit(data) \
            as eng:
        got = eng.query_batch(queries, k=4,
                              budget=QueryBudget(max_candidates=2))
        _assert_identical(expected, got)
        snap = eng.metrics.snapshot()
    assert snap.get("shard.failover.failures", 0) >= 1
    assert snap.get("shard.failover.respawns", 0) >= 1


def test_rebuild_unbudgeted_matches_unsharded(clustered):
    data, queries = clustered
    expected = C2LSH(seed=5).fit(data).query_batch(queries, k=10)
    with ShardedC2LSH(n_shards=4, n_workers=0, seed=5,
                      fault_plan=_kill_once("batch_round"),
                      failover=FailoverPolicy(**NO_RESPAWN)).fit(data) \
            as eng:
        _assert_identical(expected, eng.query_batch(queries, k=10))
        assert eng.metrics.snapshot().get("shard.failover.rebuilds") >= 1


def test_rebuild_writes_postmortem_and_notes(tiny, tmp_path):
    import json

    data, queries = tiny
    mine = FlightRecorder(capacity=128, directory=str(tmp_path),
                          min_dump_interval_s=0.0)
    old = flight.install(mine)
    try:
        with ShardedC2LSH(n_shards=2, n_workers=0, seed=3,
                          fault_plan=_kill_once("batch_round"),
                          failover=FailoverPolicy(**NO_RESPAWN)).fit(data) \
                as eng:
            eng.query_batch(queries, k=3)
    finally:
        flight.install(old)
    dumps = sorted(tmp_path.glob("flight_worker_failure_*.json"))
    assert dumps
    payload = json.loads(dumps[0].read_text())
    assert payload["extra"]["policy"] == "rebuild"
    assert payload["extra"]["failures"] == {"0": "worker_exit"}
    kinds = {e["kind"] for e in payload["events"]}
    assert "worker_failure" in kinds
    # The respawn/rebuild notes land after the dump; check the recorder.
    kinds = {e["kind"] for e in mine.events()}
    assert {"worker_respawned", "worker_rebuilt"} <= kinds


def test_rebuild_survives_kill_during_build(tiny):
    """A worker that dies mid-build is respawned before fit returns."""
    data, queries = tiny
    expected = C2LSH(seed=9).fit(data).query_batch(queries, k=3)
    plan = FaultPlan((FaultRule(site="worker_exit.build", kind="exit",
                                max_triggers=1),))
    with ShardedC2LSH(n_shards=2, n_workers=0, seed=9,
                      fault_plan=plan).fit(data) as eng:
        assert eng.is_fitted
        assert set(eng.build_info["shards"]) == {0, 1}
        _assert_identical(expected, eng.query_batch(queries, k=3))


# -- degrade: partial answers, honest stats ----------------------------------


def test_degrade_serial_total_loss_is_flagged(tiny):
    """Serial mode has one host: its death degrades in-flight queries."""
    data, queries = tiny
    with ShardedC2LSH(n_shards=4, n_workers=0, seed=3,
                      fault_plan=_kill_once("batch_round"),
                      failover=FailoverPolicy(on_failure="degrade",
                                              **NO_RESPAWN)).fit(data) \
            as eng:
        results = eng.query_batch(queries, k=3)
        snap = eng.metrics.snapshot()
    degraded = [r for r in results if r.stats.degraded]
    assert degraded, "the in-flight query must be degraded"
    for r in degraded:
        assert r.stats.failed_shards == (0, 1, 2, 3)
        assert r.stats.terminated_by == "failover"
        assert not r.stats.budget_exhausted
    assert snap["shard.failover.degraded_queries"] == len(degraded)
    # Whatever was collected before the death carries true distances.
    for r, q in zip(results, queries):
        np.testing.assert_allclose(
            r.distances, _true_distances(data, q, r.ids))


def test_degrade_is_deterministic(tiny):
    data, queries = tiny

    def run():
        with ShardedC2LSH(n_shards=4, n_workers=0, seed=3,
                          fault_plan=_kill_once("batch_round"),
                          failover=FailoverPolicy(on_failure="degrade",
                                                  **NO_RESPAWN)
                          ).fit(data) as eng:
            return eng.query_batch(queries, k=3)

    first, second = run(), run()
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a.ids, b.ids)
        np.testing.assert_array_equal(a.distances, b.distances)
        assert a.stats.degraded == b.stats.degraded
        assert a.stats.failed_shards == b.stats.failed_shards


# -- raise: fail-fast preserved ----------------------------------------------


@pytest.mark.parametrize("step",
                         ("batch_start", "batch_round",
                          "fallback_candidates", "fallback_verify"))
def test_raise_policy_fails_fast(tiny, step):
    data, queries = tiny
    with ShardedC2LSH(n_shards=2, n_workers=0, seed=3,
                      fault_plan=_kill_once(step),
                      on_worker_failure="raise").fit(data) as eng:
        with pytest.raises(WorkerFailureError) as excinfo:
            eng.query_batch(queries, k=4,
                            budget=QueryBudget(max_candidates=2))
        assert excinfo.value.method == step
        assert excinfo.value.failures == {0: "worker_exit"}


def test_injected_exit_escapes_retry_guard():
    """InjectedWorkerExit is death, not a transient I/O fault — the
    bounded-retry machinery must not swallow it."""
    from repro.reliability import FaultInjector, RetryPolicy

    injector = FaultInjector(
        FaultPlan((FaultRule(site="worker_exit.build", kind="exit"),)),
        seed=0, retry=RetryPolicy(max_retries=5, backoff_s=0.0))
    with pytest.raises(InjectedWorkerExit):
        injector.guard("worker_exit.build")


# -- failed build: no half-fitted engine -------------------------------------


def test_failed_build_resets_state_for_retry(tiny):
    data, _ = tiny
    plan = FaultPlan((FaultRule(site="worker_exit.build", kind="exit",
                                max_triggers=1),))
    eng = ShardedC2LSH(n_shards=2, n_workers=0, seed=3, fault_plan=plan,
                       on_worker_failure="raise")
    with pytest.raises(WorkerFailureError):
        eng.fit(data)
    assert not eng.is_fitted
    assert eng._runner is None and eng._shm is None
    assert eng.params is None and eng.build_info is None
    # fit() is retryable on the same object once the cause is gone.
    eng._fault_plan = None
    eng.fit(data)
    assert eng.is_fitted
    expected = C2LSH(seed=3).fit(data).query(data[0], k=3)
    got = eng.query(data[0], k=3)
    np.testing.assert_array_equal(expected.ids, got.ids)
    eng.close()


# -- circuit breaker: give up on a worker that keeps dying -------------------


def test_breaker_quarantines_repeat_offender(tiny):
    """An unlimited kill rule defeats replay; the breaker must bound the
    rebuild-crash loop and fall back to degraded service."""
    data, queries = tiny
    plan = FaultPlan((FaultRule(site="worker_exit.batch_round",
                                kind="exit"),))  # unlimited triggers
    with ShardedC2LSH(n_shards=2, n_workers=0, seed=3, fault_plan=plan,
                      failover=FailoverPolicy(max_failures=2,
                                              **NO_RESPAWN)).fit(data) \
            as eng:
        results = eng.query_batch(queries, k=3)
        snap = eng.metrics.snapshot()
        assert eng._supervisor.breaker.tripped(0)
        assert eng._supervisor.dead_workers() == [0]
    assert snap["shard.failover.failures"] >= 2
    # Bounded: once tripped, no further respawn attempts are made.
    assert snap.get("shard.failover.respawns", 0) <= 2
    assert any(r.stats.degraded for r in results)


# -- process pools: real death, real respawn ---------------------------------


@pytest.mark.shard
@pytest.mark.parametrize("step", STEPS)
def test_process_kill_rebuild_bit_identical(tiny, step):
    """os._exit in a real pool worker at every step; replay recovers."""
    data, queries = tiny
    expected = C2LSH(seed=11).fit(data).query_batch(
        queries, k=4, budget=QueryBudget(max_candidates=2))
    with ShardedC2LSH(n_shards=4, n_workers=2, seed=11,
                      fault_plan=_kill_once(step, worker=CHAOS_SEED % 2),
                      failover=FailoverPolicy(**NO_RESPAWN)).fit(data) \
            as eng:
        got = eng.query_batch(queries, k=4,
                              budget=QueryBudget(max_candidates=2))
        _assert_identical(expected, got)
        assert eng.metrics.snapshot().get(
            "shard.failover.failures", 0) >= 1


@pytest.mark.shard
def test_process_degrade_restricts_to_surviving_rows(tiny):
    """Degraded answers draw only from live shards, with true distances
    and ``failed_shards`` naming exactly the dead worker's shards."""
    data, queries = tiny
    plan = _kill_once("batch_round", worker=0)
    with ShardedC2LSH(n_shards=4, n_workers=2, seed=11, fault_plan=plan,
                      failover=FailoverPolicy(on_failure="degrade",
                                              **NO_RESPAWN)).fit(data) \
            as eng:
        results = eng.query_batch(queries, k=4)
        bounds = eng.shard_boundaries
        lost = tuple(eng._supervisor.shards_of(0))
    degraded = [r for r in results if r.stats.degraded]
    assert degraded
    for r, q in zip(results, queries):
        if not r.stats.degraded:
            continue
        assert r.stats.failed_shards == lost
        for s in r.stats.failed_shards:
            lo, hi = bounds[s], bounds[s + 1]
            assert not np.any((r.ids >= lo) & (r.ids < hi)), \
                "answer cites a row from a dead shard"
        np.testing.assert_allclose(
            r.distances, _true_distances(data, q, r.ids))


@pytest.mark.shard
def test_process_sigkill_mid_stream_rebuild(tiny):
    """A real SIGKILL between queries; the next call heals and stays
    bit-identical (the acceptance scenario)."""
    data, queries = tiny
    expected = C2LSH(seed=7).fit(data).query_batch(queries, k=5)
    with ShardedC2LSH(n_shards=4, n_workers=2, seed=7).fit(data) as eng:
        _assert_identical(expected, eng.query_batch(queries, k=5))
        victim = eng.worker_pids()[0]
        assert victim != os.getpid()
        os.kill(victim, signal.SIGKILL)
        time.sleep(0.2)
        _assert_identical(expected, eng.query_batch(queries, k=5))
        snap = eng.metrics.snapshot()
        assert snap.get("shard.failover.respawns", 0) >= 1
        report = eng.healthcheck()
        assert all(info["ok"] for info in report.values())
        assert eng.worker_pids()[0] != victim


@pytest.mark.shard
@pytest.mark.parametrize("policy", ["rebuild", "degrade", "raise"])
def test_process_sigkill_between_blocks_per_policy(policy):
    """A real SIGKILL between two blocks under each failure policy:
    ``rebuild`` answers as before, ``degrade`` flags every answer with
    its lost shards, ``raise`` fails fast; every policy counts it."""
    rng = np.random.default_rng(CHAOS_SEED)
    data = rng.standard_normal((2000, 16))
    queries = rng.standard_normal((8, 16))
    with ShardedC2LSH(n_shards=4, n_workers=2, seed=0,
                      on_worker_failure=policy).fit(data) as eng:
        baseline = eng.query_batch(queries, k=5)
        os.kill(eng.worker_pids()[CHAOS_SEED % 2], signal.SIGKILL)
        time.sleep(0.2)
        if policy == "raise":
            with pytest.raises(WorkerFailureError):
                eng.query_batch(queries, k=5)
        else:
            healed = eng.query_batch(queries, k=5)
            if policy == "rebuild":
                for a, b in zip(baseline, healed):
                    np.testing.assert_array_equal(a.ids, b.ids)
            else:
                assert all(r.stats.degraded and r.stats.failed_shards
                           for r in healed)
        snapshot = eng.telemetry_snapshot()
    assert snapshot.get("shard.failover.failures", 0) >= 1


@pytest.mark.shard
def test_process_stuck_worker_times_out_and_degrades(tiny):
    """A wedged (not dead) worker misses the protocol deadline and is
    treated exactly like a crash."""
    data, queries = tiny
    stall = FaultPlan((FaultRule(site="worker_exit.batch_round",
                                 kind="latency", latency_s=20.0,
                                 worker=0, max_triggers=1),))
    policy = FailoverPolicy(on_failure="degrade", round_timeout_s=1.0,
                            **NO_RESPAWN)
    with ShardedC2LSH(n_shards=4, n_workers=2, seed=11, fault_plan=stall,
                      failover=policy).fit(data) as eng:
        started = time.perf_counter()
        results = eng.query_batch(queries, k=3)
        elapsed = time.perf_counter() - started
        snap = eng.metrics.snapshot()
    assert elapsed < 15.0, "coordinator must not wait out the stall"
    assert snap.get("shard.failover.timeout", 0) >= 1
    assert any(r.stats.degraded for r in results)


@pytest.mark.shard
def test_process_background_respawn_rejoins_fanout(tiny):
    """degrade + auto_respawn: a later block gets the healed worker back
    and answers go bit-identical again."""
    data, queries = tiny
    expected = C2LSH(seed=7).fit(data).query_batch(queries, k=5)
    plan = _kill_once("batch_round", worker=0)
    with ShardedC2LSH(n_shards=4, n_workers=2, seed=7, fault_plan=plan,
                      on_worker_failure="degrade").fit(data) as eng:
        first = eng.query_batch(queries, k=5)
        assert any(r.stats.degraded for r in first)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if not eng._supervisor.dead_workers():
                break
            # adopt_ready only runs at block boundaries; poke it.
            eng.query_batch(queries[:1], k=5)
            time.sleep(0.1)
        assert not eng._supervisor.dead_workers(), "respawn never landed"
        _assert_identical(expected, eng.query_batch(queries, k=5))


@pytest.mark.shard
def test_no_shm_leak_after_failover_or_failed_build(tiny):
    """The shared-memory segment dies with the engine in every path."""
    from multiprocessing import shared_memory

    data, queries = tiny

    def _gone(name):
        try:
            seg = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            return True
        seg.close()
        return False

    # Failover path: kill + rebuild, then close.
    eng = ShardedC2LSH(n_shards=4, n_workers=2, seed=7,
                       fault_plan=_kill_once("batch_round", worker=0),
                       failover=FailoverPolicy(**NO_RESPAWN)).fit(data)
    name = eng._shm.name
    eng.query_batch(queries, k=3)
    eng.close()
    assert _gone(name)

    # Failed-build path: the segment is released before fit() raises.
    plan = FaultPlan((FaultRule(site="worker_exit.build", kind="exit",
                                max_triggers=1),))
    eng = ShardedC2LSH(n_shards=2, n_workers=2, seed=7, fault_plan=plan,
                       on_worker_failure="raise")
    with pytest.raises(WorkerFailureError):
        eng.fit(data)
    assert eng._shm is None and not eng.is_fitted


@pytest.mark.shard
def test_healthcheck_repair_recovers_sigkilled_worker(tiny):
    data, queries = tiny
    with ShardedC2LSH(n_shards=4, n_workers=2, seed=7).fit(data) as eng:
        os.kill(eng.worker_pids()[1], signal.SIGKILL)
        time.sleep(0.2)
        report = eng.healthcheck(repair=True)
        assert not report[1]["ok"]
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            eng.query_batch(queries[:1], k=3)  # block boundary adopts
            if all(i["ok"] for i in eng.healthcheck().values()):
                break
            time.sleep(0.1)
        assert all(i["ok"] for i in eng.healthcheck().values())
