"""Serving front-end: protocol, admission, coalescing exactness, overload.

The contract under test mirrors the serving layer's promises:

* the wire protocol round-trips losslessly (float64 survives JSON) and
  rejects malformed requests with ``bad_request`` instead of dropped
  connections;
* admission is bounded and deadline-aware — overflow sheds explicitly,
  a drain refuses new work while queued work completes, batch formation
  sweeps expired requests and caps any one client's share;
* **coalescing is exact**: however requests interleave across clients,
  every answer (ids, distances, degraded/budget_exhausted stats) is
  bit-identical to querying the index sequentially — pinned by a
  Hypothesis property over random interleavings;
* overload is survivable: at 2x capacity the server sheds rather than
  queues unboundedly, shed responses are well-formed, admitted queries
  are still answered exactly, and readiness/metrics reflect the
  pressure;
* a SIGKILLed shard worker mid-stream resolves per the index's
  failover policy without stalling other clients (``@pytest.mark.shard``).
"""

from __future__ import annotations

import json
import os
import signal
import socket
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import C2LSH, QueryBudget, QueryClient, QueryServer, ServerConfig
from repro.obs import MetricsRegistry, ObsServer
from repro.reliability.budget import as_budget_list, tripped_cap
from repro.serving import (
    SHED_REASONS,
    AdmissionController,
    CoalesceTuner,
    PendingQuery,
    ProtocolError,
    decode_frames,
    encode_frame,
    error_response,
    ok_response,
    parse_request,
    shed_response,
)

DIM = 8


@pytest.fixture(scope="module")
def index(tiny):
    data, _ = tiny
    return C2LSH(seed=7).fit(data)


def _pending(client="c", k=1, deadline_s=None, admitted_at=0.0, req_id=0):
    return PendingQuery(vector=np.zeros(DIM), k=k, deadline_s=deadline_s,
                        budget=None, client=client, req_id=req_id,
                        admitted_at=admitted_at, respond=None)


# -- protocol ----------------------------------------------------------------


def test_frame_round_trip_and_partial_frames():
    objs = [{"a": 1}, {"b": [1.5, -2.25]}, {"c": "x"}]
    blob = b"".join(encode_frame(o) for o in objs)
    # Whole buffer decodes in order; a split mid-frame leaves a remainder.
    decoded, rest = decode_frames(blob)
    assert decoded == objs and rest == b""
    decoded, rest = decode_frames(blob[:len(blob) - 3])
    assert decoded == objs[:2]
    more, rest = decode_frames(rest + blob[len(blob) - 3:])
    assert more == [objs[2]] and rest == b""


def test_frame_rejects_oversize_and_bad_json():
    import struct

    huge = struct.pack("!I", 64 * 1024 * 1024) + b"x"
    with pytest.raises(ProtocolError, match="exceeds"):
        decode_frames(huge)
    bad = struct.pack("!I", 3) + b"{{{"
    with pytest.raises(ProtocolError, match="invalid JSON"):
        decode_frames(bad)


def test_float64_json_round_trip_is_exact():
    # The bit-identity of served results rests on this property.
    rng = np.random.default_rng(0)
    values = np.concatenate([rng.standard_normal(100) * 1e6,
                             rng.standard_normal(100) * 1e-6])
    round_tripped = np.asarray(json.loads(json.dumps(
        [float(v) for v in values])))
    np.testing.assert_array_equal(round_tripped, values)


@pytest.mark.parametrize("request_obj, match", [
    ([1, 2], "JSON object"),
    ({"id": 1.5}, "id must be"),
    ({"op": "wat"}, "unknown op"),
    ({"query": "nope"}, "non-empty array"),
    ({"query": [1.0] * (DIM + 1)}, "dimensions"),
    ({"query": [float("nan")] + [0.0] * (DIM - 1)}, "non-finite"),
    ({"query": [0.0] * DIM, "k": 0}, "positive integer"),
    ({"query": [0.0] * DIM, "k": True}, "positive integer"),
    ({"query": [0.0] * DIM, "k": 99}, "max_k"),
    ({"query": [0.0] * DIM, "deadline_s": -1}, "deadline_s"),
    ({"query": [0.0] * DIM, "deadline_s": "soon"}, "deadline_s"),
])
def test_parse_request_rejections(request_obj, match):
    with pytest.raises(ProtocolError, match=match):
        parse_request(request_obj, DIM, max_k=16)


def test_parse_request_accepts_query_and_ping():
    req_id, op, vec, k, deadline = parse_request(
        {"id": "r1", "query": [0.5] * DIM, "k": 3, "deadline_s": 0.25}, DIM)
    assert (req_id, op, k, deadline) == ("r1", "query", 3, 0.25)
    assert vec.dtype == np.float64 and vec.shape == (DIM,)
    assert parse_request({"op": "ping", "id": 9}, DIM)[:2] == (9, "ping")


def test_response_builders_shapes():
    assert shed_response(3, "overloaded") == {
        "id": 3, "status": "shed", "reason": "overloaded"}
    err = error_response(None, "bad_request", "nope")
    assert err["status"] == "error" and err["error"] == "bad_request"


# -- coalescing window tuner -------------------------------------------------


def test_tuner_zero_window_when_sparse():
    tuner = CoalesceTuner(target_batch=8, max_window_s=0.005)
    assert tuner.window() == 0.0            # no history
    tuner.on_arrival(0.0)
    tuner.on_arrival(1.0)                   # 1 s gaps: far sparser than max
    assert tuner.gap_ewma_s == 1.0
    assert tuner.window() == 0.0


def test_tuner_dense_traffic_targets_batch_worth_of_time():
    tuner = CoalesceTuner(target_batch=10, max_window_s=0.005, alpha=1.0)
    t = 0.0
    for _ in range(5):                      # 100 us gaps
        tuner.on_arrival(t)
        t += 1e-4
    assert tuner.gap_ewma_s == pytest.approx(1e-4)
    assert tuner.window() == pytest.approx(1e-3)   # 10 arrivals' worth
    # Even denser traffic clamps at max_window_s from below.
    tuner2 = CoalesceTuner(target_batch=1000, max_window_s=0.005, alpha=1.0)
    tuner2.on_arrival(0.0)
    tuner2.on_arrival(1e-4)
    assert tuner2.window() == 0.005


def test_tuner_validation():
    with pytest.raises(ValueError, match="target_batch"):
        CoalesceTuner(target_batch=0)
    with pytest.raises(ValueError, match="min_window_s"):
        CoalesceTuner(min_window_s=0.1, max_window_s=0.01)
    with pytest.raises(ValueError, match="alpha"):
        CoalesceTuner(alpha=0.0)


# -- admission controller ----------------------------------------------------


def test_admission_bounded_queue_sheds_overloaded():
    adm = AdmissionController(capacity=2)
    assert adm.offer(_pending()) == ""
    assert adm.offer(_pending()) == ""
    assert adm.offer(_pending()) == "overloaded"
    assert adm.depth == 2


def test_admission_drain_refuses_but_keeps_queue():
    adm = AdmissionController(capacity=4)
    adm.offer(_pending(req_id=1))
    adm.begin_drain()
    assert adm.offer(_pending(req_id=2)) == "draining"
    assert adm.depth == 1                   # queued work still completes
    batch, expired = adm.take_batch(8, now=0.0)
    assert [p.req_id for p in batch] == [1] and expired == []


def test_admission_deadline_shed_uses_service_estimate():
    adm = AdmissionController(capacity=100)
    adm.record_service(10, 1.0)             # 100 ms per query, observed
    for _ in range(4):
        adm.offer(_pending(deadline_s=10.0))
    # 5th request would wait ~0.5 s; a 0.2 s deadline is hopeless.
    assert adm.offer(_pending(deadline_s=0.2)) == "deadline"
    assert adm.offer(_pending(deadline_s=10.0)) == ""
    assert adm.offer(_pending(deadline_s=None)) == ""   # no deadline, no shed


def test_take_batch_sweeps_expired_and_pins_k():
    adm = AdmissionController(capacity=10)
    adm.offer(_pending(req_id="dead", deadline_s=0.5, admitted_at=0.0))
    adm.offer(_pending(req_id="a", k=5, admitted_at=1.0))
    adm.offer(_pending(req_id="b", k=3, admitted_at=1.0))
    adm.offer(_pending(req_id="c", k=5, admitted_at=1.0))
    batch, expired = adm.take_batch(8, now=2.0)
    assert [p.req_id for p in expired] == ["dead"]
    # Head pins k=5; the k=3 request waits for the next batch.
    assert [p.req_id for p in batch] == ["a", "c"]
    batch2, _ = adm.take_batch(8, now=2.0)
    assert [p.req_id for p in batch2] == ["b"]
    assert adm.depth == 0


def test_take_batch_fairness_caps_flooding_client():
    adm = AdmissionController(capacity=100)
    for i in range(20):
        adm.offer(_pending(client="flood", req_id=f"f{i}"))
    for i in range(3):
        adm.offer(_pending(client=f"small{i}", req_id=f"s{i}"))
    batch, _ = adm.take_batch(8, now=0.0)
    by_client = {}
    for p in batch:
        by_client[p.client] = by_client.get(p.client, 0) + 1
    # 4 clients, max_batch=8 -> each capped at ceil(8/4)=2 slots.
    assert by_client["flood"] == 2
    assert all(by_client[f"small{i}"] == 1 for i in range(3))
    # The flooding client's overflow waits; nobody else's does.
    assert adm.depth == 18


# -- budget anchoring (queue wait counts against the deadline) ---------------


def test_budget_started_at_anchors_deadline():
    anchor = time.perf_counter() - 10.0
    budget = QueryBudget(deadline_s=5.0).with_start(anchor)
    assert budget.started_at == anchor
    # The anchor overrides any caller-supplied start: 10 s of queue wait
    # already consumed the whole 5 s deadline.
    assert budget.remaining_s(time.perf_counter()) == 0.0
    # Without an anchor, the caller's start stamp rules as before.
    plain = QueryBudget(deadline_s=5.0)
    assert plain.remaining_s(time.perf_counter()) == pytest.approx(
        5.0, abs=0.1)


def test_tripped_cap_order_and_anchor():
    b = QueryBudget(deadline_s=100.0, max_candidates=10, max_io_pages=5)
    assert tripped_cap(b, 11, 6, True, None, time.perf_counter()) \
        == "candidates"                     # candidates outranks io_pages
    assert tripped_cap(b, 9, 5, True, None, time.perf_counter()) == "io_pages"
    assert tripped_cap(b, 9, 99, False, None, time.perf_counter()) == ""
    anchored = b.with_start(time.perf_counter() - 200.0)
    assert tripped_cap(anchored, 0, 0, False, None,
                       time.perf_counter()) == "deadline"


def test_as_budget_list_normalization():
    b = QueryBudget(max_candidates=3)
    assert as_budget_list(None, 4) is None
    assert as_budget_list([None, None], 2) is None
    assert as_budget_list(b, 3) == [b, b, b]
    assert as_budget_list([b, None], 2) == [b, None]
    with pytest.raises(ValueError, match="1 budgets for 3 queries"):
        as_budget_list([b], 3)
    with pytest.raises(TypeError, match="QueryBudget"):
        as_budget_list([b, "soon"], 2)


def test_query_batch_accepts_per_query_budgets(index, tiny):
    data, queries = tiny
    plain = index.query_batch(queries, k=3)
    tight = QueryBudget(max_candidates=1)
    budgets = [None] * len(queries)
    budgets[0] = tight                      # query 0 needs several rounds
    mixed = index.query_batch(queries, k=3, budget=budgets)
    # Query 0 degrades under its private cap; the others are untouched.
    assert mixed[0].stats.budget_exhausted == "candidates"
    assert mixed[0].stats.degraded
    for i in (1, 2, 3, 4):
        np.testing.assert_array_equal(mixed[i].ids, plain[i].ids)
        np.testing.assert_array_equal(mixed[i].distances, plain[i].distances)
        assert not mixed[i].stats.degraded
    # And the capped answer matches a solo run under the same cap.
    solo = index.query(queries[0], k=3, budget=tight)
    np.testing.assert_array_equal(mixed[0].ids, solo.ids)
    assert solo.stats.budget_exhausted == "candidates"


# -- end-to-end server -------------------------------------------------------


def _serve(index, **overrides):
    config = ServerConfig(**overrides)
    return QueryServer(index, config, metrics=MetricsRegistry())


def test_server_round_trip_is_bit_identical(index, tiny):
    data, queries = tiny
    with _serve(index) as server:
        with QueryClient("127.0.0.1", server.port) as client:
            for q in queries:
                resp = client.query(q, k=4, deadline_s=30.0)
                direct = index.query(q, k=4)
                assert resp["status"] == "ok"
                assert resp["ids"] == [int(i) for i in direct.ids]
                np.testing.assert_array_equal(
                    np.asarray(resp["distances"]), direct.distances)
                assert resp["stats"]["terminated_by"] == \
                    direct.stats.terminated_by
                assert resp["stats"]["queue_wait_s"] >= 0.0
    snap = server.metrics.snapshot()
    assert snap["serving.completed"] == len(queries)
    assert snap.get("serving.shed", 0) == 0


def test_server_coalesces_pipelined_queries_exactly(index, tiny):
    """Many pipelined requests across clients coalesce into batches, and
    every answer still matches the sequential path bit for bit."""
    data, queries = tiny
    reps = np.tile(queries, (6, 1))         # 30 requests
    with _serve(index, max_window_s=0.02, target_batch=8) as server:
        clients = [QueryClient("127.0.0.1", server.port) for _ in range(3)]
        try:
            ids = []
            for i, q in enumerate(reps):
                ids.append(clients[i % 3].send(q, k=3, deadline_s=30.0))
            responses = [clients[i % 3].recv_for(req_id)
                         for i, req_id in enumerate(ids)]
        finally:
            for c in clients:
                c.close()
        for q, resp in zip(reps, responses):
            direct = index.query(q, k=3)
            assert resp["status"] == "ok"
            assert resp["ids"] == [int(i) for i in direct.ids]
            np.testing.assert_array_equal(
                np.asarray(resp["distances"]), direct.distances)
    snap = server.metrics.snapshot()
    assert snap["serving.completed"] == len(reps)
    # Coalescing actually happened: fewer batches than requests.
    assert snap["serving.batches"] < len(reps)


def test_server_budget_stats_match_direct_query(index, tiny):
    """Server-wide deterministic caps degrade exactly like a direct
    budgeted query — including the stats the client sees."""
    data, queries = tiny
    cap = QueryBudget(max_candidates=2)
    with _serve(index, budget=cap) as server:
        with QueryClient("127.0.0.1", server.port) as client:
            for q in queries:
                resp = client.query(q, k=3)
                direct = index.query(q, k=3, budget=cap)
                assert resp["ids"] == [int(i) for i in direct.ids]
                assert resp["stats"]["degraded"] == direct.stats.degraded
                assert resp["stats"]["budget_exhausted"] == \
                    direct.stats.budget_exhausted


def test_server_sheds_draining_and_expired_deadline(index, tiny):
    data, queries = tiny
    with _serve(index) as server:
        with QueryClient("127.0.0.1", server.port) as client:
            # A microscopic deadline expires while queued -> shed.
            resp = client.query(queries[0], k=2, deadline_s=1e-9)
            assert resp == {"id": 0, "status": "shed", "reason": "deadline"}
            # Draining refuses new admissions explicitly.
            server.admission.begin_drain()
            resp = client.query(queries[1], k=2, deadline_s=30.0)
            assert resp["status"] == "shed" and resp["reason"] == "draining"
    snap = server.metrics.snapshot()
    assert snap["serving.shed.deadline"] == 1
    assert snap["serving.shed.draining"] == 1


def test_server_drain_answers_inflight_work(index, tiny):
    """Graceful drain: admitted-but-unanswered queries are completed
    before the listener goes away."""
    data, queries = tiny
    slow = _SlowIndex(index, delay_s=0.1)
    server = _serve(slow, max_batch=2, max_window_s=0.0).start_in_thread()
    client = QueryClient("127.0.0.1", server.port)
    try:
        ids = [client.send(q, k=2, deadline_s=30.0) for q in queries]
        time.sleep(0.05)                    # all admitted, first batch busy
        server.stop_in_thread(drain=True)   # drain with a full queue
        responses = [client.recv_for(i) for i in ids]
        assert all(r["status"] == "ok" for r in responses)
    finally:
        client.close()


class _SlowIndex:
    """Delegating index whose batches take a fixed wall-clock time —
    deterministic pressure for the overload tests."""

    def __init__(self, inner, delay_s):
        self._inner = inner
        self._delay_s = delay_s
        self.dim = inner._data.shape[1]

    def query_batch(self, queries, k=1, budget=None):
        time.sleep(self._delay_s)
        return self._inner.query_batch(queries, k=k, budget=budget)


def test_server_sheds_overloaded_and_stays_exact(index, tiny):
    """At ~2x capacity the server sheds rather than queues unboundedly;
    every shed is explicit and every admitted answer is still exact."""
    data, queries = tiny
    slow = _SlowIndex(index, delay_s=0.05)
    with _serve(slow, queue_capacity=4, max_batch=2,
                max_window_s=0.0) as server:
        with QueryClient("127.0.0.1", server.port) as client:
            n = 24
            ids = [client.send(queries[i % len(queries)], k=2)
                   for i in range(n)]
            responses = [client.recv_for(i) for i in ids]
        shed = [r for r in responses if r["status"] == "shed"]
        ok = [r for r in responses if r["status"] == "ok"]
        assert len(shed) + len(ok) == n
        assert shed, "2x-capacity load must shed"
        assert {r["reason"] for r in shed} <= {"overloaded", "deadline"}
        for i, resp in enumerate(responses):
            if resp["status"] != "ok":
                continue
            direct = index.query(queries[i % len(queries)], k=2)
            assert resp["ids"] == [int(j) for j in direct.ids]
    snap = server.metrics.snapshot()
    assert snap["serving.shed.overloaded"] == len(
        [r for r in shed if r["reason"] == "overloaded"])
    assert not server.readiness()["ready"]  # overload hysteresis


@pytest.mark.parametrize("deadline_from", ["request", "server"])
def test_server_answers_every_admitted_request_inside_its_deadline(
        index, tiny, deadline_from):
    """A burst of 40 requests against 40 q/s of capacity with 250 ms
    deadlines, so about a quarter can be answered in time: the rest are
    shed explicitly, and every admitted answer is exact and arrives
    within 1.5x the deadline of the burst's first send (queue wait
    counts against the deadline). The deadline is each request's own,
    or the server budget's for requests that send none."""
    data, queries = tiny
    deadline_s = 0.25
    slow = _SlowIndex(index, delay_s=0.05)   # 2 queries per 50 ms batch
    server_budget = (QueryBudget(deadline_s=deadline_s)
                     if deadline_from == "server" else None)
    sent_deadline = deadline_s if deadline_from == "request" else None
    with _serve(slow, max_batch=2, max_window_s=0.0, queue_capacity=64,
                budget=server_budget) as server:
        with QueryClient("127.0.0.1", server.port) as client:
            started = time.perf_counter()
            sent = {}
            for i in range(40):
                q = queries[i % len(queries)]
                sent[client.send(q, k=2, deadline_s=sent_deadline)] = q
            arrived = []
            for _ in sent:
                resp = client.recv()
                arrived.append((time.perf_counter() - started, resp))
    assert sorted(resp["id"] for _, resp in arrived) == sorted(sent)
    shed = [resp for _, resp in arrived if resp["status"] == "shed"]
    assert shed, "a burst four times what its deadlines allow must shed"
    assert {resp["reason"] for resp in shed} <= set(SHED_REASONS)
    for latency_s, resp in arrived:
        if resp["status"] == "shed":
            continue
        assert resp["status"] == "ok"
        assert latency_s <= 1.5 * deadline_s
        direct = index.query(sent[resp["id"]], k=2)
        assert resp["ids"] == [int(j) for j in direct.ids]


def test_readiness_flows_through_obs_healthz(index):
    from urllib.request import urlopen
    from urllib.error import HTTPError

    with _serve(index) as server:
        with ObsServer(metrics={"repro_serving": server.metrics},
                       readiness=server.readiness) as obs:
            with urlopen(obs.url + "/healthz", timeout=5) as resp:
                body = json.loads(resp.read())
                assert resp.status == 200
                assert body["ready"] is True and body["status"] == "ok"
            server.admission.begin_drain()
            server._draining = True
            try:
                with urlopen(obs.url + "/healthz", timeout=5) as resp:
                    raise AssertionError("draining must probe 503")
            except HTTPError as exc:
                body = json.loads(exc.read())
                # Liveness stays ok; readiness flips; detail says why.
                assert exc.code == 503
                assert body["status"] == "ok" and body["ready"] is False
                assert body["readiness"]["draining"] is True


def test_protocol_errors_answered_not_dropped(index):
    with _serve(index) as server:
        with QueryClient("127.0.0.1", server.port) as client:
            client.send_raw({"op": "query", "id": 7, "query": [1, 2]})
            resp = client.recv()
            assert resp["status"] == "error"
            assert resp["error"] == "bad_request" and resp["id"] == 7
            # The connection survives a well-framed bad request.
            assert client.ping()["status"] == "ok"
        # Unframeable garbage gets one answer, then a hangup.
        raw = socket.create_connection(("127.0.0.1", server.port))
        try:
            raw.sendall((64 * 1024 * 1024).to_bytes(4, "big"))
            chunks = b""
            while True:
                chunk = raw.recv(65536)
                if not chunk:
                    break
                chunks += chunk
        finally:
            raw.close()
        objs, _ = decode_frames(chunks)
        assert objs and objs[0]["error"] == "bad_request"


# -- property: interleaving never changes an answer --------------------------


@settings(max_examples=15, deadline=None)
@given(
    plan=st.lists(
        st.tuples(st.integers(0, 2),        # which client
                  st.integers(0, 4),        # which query
                  st.integers(1, 5)),       # k
        min_size=1, max_size=12),
    seed=st.integers(0, 3),
)
def test_property_coalesced_answers_match_sequential(plan, seed):
    """Whatever the clients, ordering, ks, and per-query caps, a served
    answer is bit-identical to the sequential path — ids, distances,
    and degradation stats alike."""
    rng = np.random.default_rng(3)
    data = rng.standard_normal((200, DIM))
    queries = rng.standard_normal((5, DIM))
    index = C2LSH(seed=7).fit(data)
    # A deterministic server-wide cap on some runs exercises the
    # degraded/budget_exhausted parity, not just the happy path.
    cap = QueryBudget(max_candidates=3) if seed % 2 else None
    with _serve(index, budget=cap, max_window_s=0.002) as server:
        clients = [QueryClient("127.0.0.1", server.port) for _ in range(3)]
        try:
            sent = [(ci, qi, k, clients[ci].send(queries[qi], k=k))
                    for ci, qi, k in plan]
            got = [(qi, k, clients[ci].recv_for(req_id))
                   for ci, qi, k, req_id in sent]
        finally:
            for c in clients:
                c.close()
    for qi, k, resp in got:
        direct = index.query(queries[qi], k=k, budget=cap)
        assert resp["status"] == "ok"
        assert resp["ids"] == [int(i) for i in direct.ids]
        np.testing.assert_array_equal(
            np.asarray(resp["distances"]), direct.distances)
        assert resp["stats"]["degraded"] == direct.stats.degraded
        assert resp["stats"]["budget_exhausted"] == \
            direct.stats.budget_exhausted


# -- chaos: worker death under serving load ----------------------------------


@pytest.mark.shard
def test_sigkill_mid_serving_honors_failover_policy(tiny):
    """A SIGKILLed shard worker while the server is answering load:
    the failover policy resolves it (degrade -> flagged answers from
    survivors, then heal), no client stalls, the server keeps serving."""
    from repro import ShardedC2LSH
    from repro.sharding import FailoverPolicy

    data, queries = tiny
    policy = FailoverPolicy(on_failure="degrade", round_timeout_s=10.0)
    with ShardedC2LSH(n_shards=4, n_workers=2, seed=7,
                      failover=policy).fit(data) as eng:
        with _serve(eng, max_window_s=0.002) as server:
            with QueryClient("127.0.0.1", server.port) as c1, \
                    QueryClient("127.0.0.1", server.port) as c2:
                # Healthy baseline.
                baseline = c1.query(queries[0], k=3, deadline_s=30.0)
                assert baseline["status"] == "ok"
                # Kill a worker, then hit the server from two clients.
                victim = eng.worker_pids()[0]
                os.kill(victim, signal.SIGKILL)
                ids1 = [c1.send(q, k=3, deadline_s=30.0) for q in queries]
                ids2 = [c2.send(q, k=3, deadline_s=30.0) for q in queries]
                r1 = [c1.recv_for(i) for i in ids1]
                r2 = [c2.recv_for(i) for i in ids2]
        for resp in r1 + r2:
            # Every client gets an answer — degraded at worst, never a
            # stall, never a torn connection.
            assert resp["status"] == "ok"
            assert isinstance(resp["ids"], list)
            if resp["stats"]["degraded"]:
                assert resp["stats"]["failed_shards"]
        snap = server.metrics.snapshot()
        assert snap["serving.completed"] == 2 * len(queries) + 1
        assert snap.get("serving.errors", 0) == 0


def test_server_adaptive_probe_matches_direct_query(tiny):
    data, queries = tiny
    served = C2LSH(seed=7).fit(data)
    direct = C2LSH(seed=7).fit(data)
    with _serve(served, probe="adaptive") as server:
        with QueryClient("127.0.0.1", server.port) as client:
            for q in queries:
                resp = client.query(q, k=4, deadline_s=30.0)
                want = direct.query(q, k=4, probe="adaptive")
                assert resp["status"] == "ok"
                assert resp["ids"] == [int(i) for i in want.ids]
                np.testing.assert_array_equal(
                    np.asarray(resp["distances"]), want.distances)
