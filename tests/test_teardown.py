"""Teardown: sessions and connections are closed when work stops early.

* A sharded query block whose ``batch_start`` fan-out fails still sends
  ``batch_end`` to every worker that opened a session, so no surviving
  worker keeps the block's count and candidate matrices after the error.
  ``@pytest.mark.shard``: the serial runner has a single host, so only
  process workers can show one worker failing while another succeeds.
* Stopping a threaded :class:`~repro.QueryServer` while a client is still
  connected lets every connection handler finish before the event loop
  cancels what is left; a handler cancelled mid-read makes asyncio log
  ``Exception in callback StreamReaderProtocol...`` at ERROR.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro import C2LSH, QueryClient, QueryServer, ShardedC2LSH
from repro.reliability import FaultPlan, FaultRule, WorkerFailureError


@pytest.mark.shard
def test_failed_batch_start_ends_sessions_on_other_workers():
    data = np.random.default_rng(5).standard_normal((600, 8))
    plan = FaultPlan((FaultRule(site="worker_exit.batch_start", kind="exit",
                                worker=1, max_triggers=1),))
    with ShardedC2LSH(n_shards=2, n_workers=2, seed=3, fault_plan=plan,
                      on_worker_failure="raise").fit(data) as eng:
        with pytest.raises(WorkerFailureError) as excinfo:
            eng.query_batch(data[:4], k=3)
        assert excinfo.value.method == "batch_start"
        assert set(excinfo.value.failures) == {1}
        report = eng.healthcheck()
        assert report[0]["ok"]
        assert report[0]["sessions"] == 0


def test_server_stop_with_connected_client_logs_no_error(caplog):
    data = np.random.default_rng(5).standard_normal((500, 8))
    server = QueryServer(C2LSH(seed=7).fit(data)).start_in_thread()
    client = QueryClient("127.0.0.1", server.port)
    try:
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            assert client.query(data[0], k=3)["status"] == "ok"
            server.stop_in_thread()
        errors = [r.getMessage() for r in caplog.records
                  if r.name == "asyncio"]
        assert errors == []
    finally:
        client.close()
