"""Admission never wedges: a finished batch stops costing wait.

The admission estimate adds one whole batch's observed duration only
while a batch is in flight — the head-of-line wait a new request really
faces. Charging it with nothing running would, after one large slow
batch, shed every request whose deadline is shorter than that batch,
for as long as the server stays idle.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import C2LSH, QueryClient, QueryServer, ServerConfig
from repro.obs import MetricsRegistry
from repro.serving import AdmissionController, PendingQuery


def _pending(deadline_s):
    return PendingQuery(vector=np.zeros(8), k=1, deadline_s=deadline_s,
                        budget=None, client="c", req_id=0, admitted_at=0.0,
                        respond=None)


@settings(max_examples=50, deadline=None)
@given(bursts=st.lists(st.tuples(st.integers(1, 256),
                                 st.floats(1e-4, 5.0)),
                       min_size=1, max_size=8))
def test_lone_request_admitted_after_any_burst(bursts):
    """Whatever was served before, a lone request whose deadline covers
    one query's service is admitted while nothing is in flight — and a
    running batch's cost still counts."""
    adm = AdmissionController(capacity=8)
    for n_queries, seconds in bursts:
        adm.record_service(n_queries, seconds)
    assert adm.offer(_pending(2 * adm.service_estimate_s)) == ""
    busy = adm.estimated_wait_s(inflight=True)
    assert busy > adm.estimated_wait_s()
    assert adm.offer(_pending(0.99 * busy), inflight=True) == "deadline"


def test_server_admits_lone_request_after_slow_batch(tiny):
    """After a 0.9 s 64-query batch has finished, a lone request with a
    feasible 250 ms deadline is admitted and answered."""
    data, queries = tiny
    server = QueryServer(C2LSH(seed=7).fit(data), ServerConfig(),
                         metrics=MetricsRegistry())
    server.admission.record_service(64, 0.9)
    with server:
        with QueryClient("127.0.0.1", server.port) as client:
            resp = client.query(queries[0], k=3, deadline_s=0.25)
    assert resp["status"] == "ok"
    assert server.readiness()["inflight"] == 0
