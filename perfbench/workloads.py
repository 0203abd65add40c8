"""The benchmark workloads, driven only through ``repro``'s public API.

Each workload is a class with the same life cycle, run by ``run.py``:

* ``setup()`` builds the index ``SETUP_REPEATS`` times and keeps the
  last; only the program's own calls are timed (fit, worker start,
  server bind, bulk load plus first checkpoint), never input generation
  or ground truth.
* ``warm()`` runs one untimed operation block.
* ``run_pass(seconds)`` runs the timed operations, for ``seconds`` or,
  on ``durable``, a fixed count sized from ``seconds``, and returns their
  time; ``check_pass()`` then checks every answer.
* ``close()`` stops every process the workload started.

Inputs come from the ``repro.data`` profiles, seeded by the workload seed.
"""

from __future__ import annotations

import os
import shutil
import threading
import time
from collections import Counter

import numpy as np

from measure import (check_answer, exact_distances, latency_summary,
                     quality, vm_hwm_mb)

K = 10
BLOCK = 64              # QueryServer's default max_batch
#: Set-ups per run; ``setup_s`` is their median. Each takes well under a
#: second.
SETUP_REPEATS = 9
QUERY_POOL = 256        # held-out queries per workload, cycled

#: ``served`` phase 1: open-loop Poisson arrival rate (queries/s), per-request
#: deadline, and share of the run spent in phase 1. The rate is a fifth of
#: the capacity phase 2 measures on a 2-CPU host when the host is fast and
#: a third when it runs at half speed, so queueing stays short and nothing
#: is shed either way.
SERVED_RATE = 12.0
SERVED_DEADLINE_S = 0.25
SERVED_PHASE1_SHARE = 0.4
SERVED_OUTSTANDING = 64
#: The generator is behind, and the run invalid, when a request leaves
#: this much later than its due time.
SERVED_MAX_LAG_S = 0.05

#: ``durable``: bulk-loaded points, operation mix and batch sizes.
DURABLE_BULK = 10_000
DURABLE_MIX = (0.5, 0.4, 0.1)       # query, insert, delete
DURABLE_INSERT_ROWS = 8
DURABLE_DELETE_HANDLES = 4
DURABLE_AUTO_CHECKPOINT = 400
#: Stream operations per second of ``--seconds``. The stream has this many
#: operations times the run's seconds whatever the host's speed, so every
#: run of one seed does identical work (rebuilds, checkpoints, the WAL
#: position at the crash, the final index size). The stream ran at 99 to
#: 150 operations per second on a 2-CPU host, so it ends at about the
#: run's seconds or sooner.
DURABLE_OPS_PER_S = 100
DURABLE_PROBES = 32
#: A 25-second run holds six stalled writes (three rebuilds, three
#: checkpoints); with this many writes beyond it the write tail stays
#: inside the fsync'd-append mode instead of straddling the two.
DURABLE_WRITE_TAIL_BEYOND = 30


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


class ShardedAdaptive:
    """nus-like on two shard workers with adaptive probing.

    A closed loop of ``BLOCK``-query ``query_batch`` calls; every query's
    latency is the wall time of the call that answered it.
    """

    name = "sharded_adaptive"
    threads = 1             # load-generating threads in this process

    def __init__(self, seed, workdir):
        from repro.data import nus_like
        ds = nus_like(scale=0.05, n_queries=QUERY_POOL, seed=seed)
        self.seed = seed
        self.data, self.queries = ds.data, ds.queries
        self.index = None
        self.setup_times = []
        self.records = []       # (pool positions, seconds, results)
        self._next = 0

    def _build(self):
        from repro import ShardedC2LSH
        return ShardedC2LSH(n_shards=2, n_workers=2, seed=self.seed,
                            page_accounting=True).fit(self.data)

    def setup(self):
        for _ in range(SETUP_REPEATS):
            self.close()
            self.index, elapsed = _timed(self._build)
            self.setup_times.append(elapsed)

    def rebuild(self):
        """A fresh engine whose workers were forked without wrappers."""
        self.close()
        self.index = self._build()
        self.warm()

    def _block(self):
        positions = [(self._next + i) % QUERY_POOL for i in range(BLOCK)]
        self._next = (self._next + BLOCK) % QUERY_POOL
        return positions

    def _query(self, positions):
        return _timed(self.index.query_batch, self.queries[positions], k=K,
                      probe="adaptive")

    def warm(self):
        self._next = 0
        self._query(self._block())

    def run_pass(self, seconds):
        """Whole cycles over the query pool for about ``seconds``, so every
        run weighs each of the pool's blocks equally."""
        self.records = []
        spent, cycle_start, first = 0.0, 0.0, self._next
        while True:
            positions = self._block()
            results, elapsed = self._query(positions)
            self.records.append((positions, elapsed, results))
            spent += elapsed
            if self._next == first:
                # Stop at the end of the cycle nearest to ``seconds``.
                if spent + (spent - cycle_start) / 2 >= seconds:
                    return spent
                cycle_start = spent

    def ops(self):
        return sum(len(p) for p, _, _ in self.records)

    def results(self):
        for positions, _, results in self.records:
            yield from zip(positions, results)

    def check_pass(self, truth):
        """``(attempted, failed, metrics, report)`` for the last pass."""
        exact_ids, exact_dists = truth
        answers, failed = [], 0
        for pos, res in self.results():
            ok = check_answer(self.data, self.queries[pos], res.ids,
                              res.distances, K, exact_dists[pos])
            failed += not ok
            answers.append((res.ids, res.distances))
        positions = [pos for pos, _ in self.results()]
        recall, ratio = quality(answers, exact_ids[positions],
                                exact_dists[positions])
        seconds = [elapsed for p, elapsed, _ in self.records for _ in p]
        lat = latency_summary(seconds)
        stats = [res.stats for _, res in self.results()]
        self.incorrect = failed
        metrics = {
            "qps": self.ops() / sum(e for _, e, _ in self.records),
            "latency_p50_ms": lat["p50_ms"],
            "latency_tail_ms": lat["tail_ms"],
            "recall": recall, "ratio": ratio,
            "pages_per_query": float(np.mean([s.io_reads for s in stats])),
        }
        report = {"latency": lat, "blocks": len(self.records)}
        return len(answers), failed, metrics, report

    def query_stats(self):
        return [(res.stats, len(res.ids)) for _, res in self.results()]

    def truth(self):
        from repro.data import exact_knn
        return exact_knn(self.data, self.queries, K, block=32)

    def processes(self):
        return {f"worker-{w}": pid
                for w, pid in self.index.worker_pids().items()}

    def layer_extras(self):
        failures = self.index.metrics.snapshot().get(
            "shard.failover.failures", 0)
        return {"worker_failures": failures}

    def close(self):
        if self.index is not None:
            self.index.close()
            self.index = None


def _serve(conn, data, seed, repeats, trace_dir):
    """Server process: build, bind, report, serve until told to stop."""
    from repro import C2LSH, PageManager, QueryServer, ServerConfig

    recorder = None
    if trace_dir is not None:
        import layers
        recorder = layers.Recorder(trace_dir, "server")
        layers.install(recorder)
    server, setup = None, []
    for rep in range(repeats):
        if server is not None:
            server.stop_in_thread()
        start = time.perf_counter()
        index = C2LSH(seed=seed, page_manager=PageManager()).fit(data)
        server = QueryServer(index, ServerConfig()).start_in_thread()
        setup.append(time.perf_counter() - start)
    conn.send({"port": server.port, "setup": setup, "pid": os.getpid()})
    conn.recv()                     # the parent's request to stop
    hwm, threads = vm_hwm_mb(), threading.active_count()
    server.stop_in_thread()
    if recorder is not None:
        recorder.dump()
    conn.send({"vm_hwm_mb": hwm, "threads": threads})


class Served:
    """color-like behind a ``QueryServer`` in its own process.

    Phase 1 is an open loop of seeded Poisson arrivals at
    ``SERVED_RATE``, each a single ``k=10`` request with a 250 ms
    deadline, timed from its due time. Phase 2 keeps
    ``SERVED_OUTSTANDING`` requests in flight with no deadline. One
    connection; the calling thread sends and one thread reads.
    """

    name = "served"
    threads = 2

    def __init__(self, seed, workdir):
        from repro.data import color_like
        ds = color_like(scale=0.25, n_queries=QUERY_POOL, seed=seed)
        self.seed = seed
        self.data, self.queries = ds.data, ds.queries
        self.trace_dir = None
        self.proc = self.conn = self.client = None
        self.setup_times = []
        self.server_info = {}
        self._next_id = 0

    def setup(self):
        import multiprocessing as mp
        from repro import QueryClient
        ctx = mp.get_context("spawn")
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(
            target=_serve, args=(child, self.data, self.seed,
                                 SETUP_REPEATS, self.trace_dir))
        self.proc.start()
        child.close()
        if not self.conn.poll(150):
            raise RuntimeError("server process did not come up")
        info = self.conn.recv()
        self.setup_times = info["setup"]
        self.server_pid = info["pid"]
        self.client = QueryClient("127.0.0.1", info["port"])

    def rebuild(self):
        """Restart the server process untraced, keeping the first's record."""
        setup_times = self.setup_times
        self.close()
        server_info, self.trace_dir = self.server_info, None
        self.setup()
        self.warm()
        self.setup_times, self.server_info = setup_times, server_info

    def _exchange(self, plan, outstanding=SERVED_OUTSTANDING):
        """Send per ``plan`` from this thread while one thread reads.

        ``plan(send)`` calls ``send(position, deadline_s, due, gate)`` per
        request and returns when done; a gated send waits until fewer
        than ``outstanding`` requests are unanswered. Returns
        ``{id: record}``.
        """
        records, lock = {}, threading.Lock()
        state = {"sent": 0}
        window = threading.Semaphore(outstanding)
        client = self.client

        def reader():
            received, ended = 0, False
            while not (ended and received == state["sent"]):
                resp = client.recv()
                now = time.perf_counter()
                if resp.get("id") == "end":
                    ended = True
                    continue
                with lock:
                    records[resp["id"]]["recv"] = now
                    records[resp["id"]]["resp"] = resp
                received += 1
                window.release()

        thread = threading.Thread(target=reader, name="perfbench-reader")
        thread.start()

        def send(position, deadline_s, due, gate=False):
            if gate:
                window.acquire()
            req_id = self._next_id
            self._next_id += 1
            if due is not None:
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            with lock:
                records[req_id] = {"pos": position, "due": due}
            sent_at = time.perf_counter()
            client.send(self.queries[position], k=K, deadline_s=deadline_s,
                        req_id=req_id)
            records[req_id]["sent"] = sent_at
            state["sent"] += 1

        try:
            plan(send)
        finally:
            client.send_raw({"op": "ping", "id": "end"})
            thread.join()
        return records

    def warm(self):
        # Single requests, as in phase 1: the admission controller's
        # service estimate starts from what the timed traffic looks like.
        self._exchange(lambda send: [send(p, None, None, gate=True)
                                     for p in range(16)], outstanding=1)

    def run_pass(self, seconds):
        rng = np.random.default_rng([self.seed, 1])
        n1 = max(11, int(round(SERVED_RATE * seconds * SERVED_PHASE1_SHARE)))
        gaps = rng.exponential(1.0 / SERVED_RATE, n1)
        start_pos = int(rng.integers(QUERY_POOL))

        def phase1(send):
            t0 = time.perf_counter() + 0.01
            for i, at in enumerate(np.cumsum(gaps)):
                send((start_pos + i) % QUERY_POOL, SERVED_DEADLINE_S,
                     t0 + at)
        started = time.perf_counter()
        self.phase1 = self._exchange(phase1)
        phase2_s = max(0.5, seconds - (time.perf_counter() - started))

        def phase2(send):
            end = time.perf_counter() + phase2_s
            i = 0
            while time.perf_counter() < end:
                send((start_pos + n1 + i) % QUERY_POOL, None, None,
                     gate=True)
                i += 1
        self.phase2 = self._exchange(phase2)
        return time.perf_counter() - started

    def ops(self):
        return len(self.phase1) + len(self.phase2)

    def truth(self):
        from repro.data import exact_knn
        return exact_knn(self.data, self.queries, K, block=64)

    def _reference(self):
        """Answers of an identically seeded in-process index."""
        from repro import C2LSH, PageManager
        index = C2LSH(seed=self.seed, page_manager=PageManager())
        return index.fit(self.data).query_batch(self.queries, k=K)

    def check_pass(self, truth):
        exact_ids, exact_dists = truth
        reference = self._reference()
        answers, positions = [], []
        failed = incorrect = 0
        latencies, lags = [], []
        for phase, records in ((1, self.phase1), (2, self.phase2)):
            for rec in records.values():
                resp, pos = rec["resp"], rec["pos"]
                if phase == 1:
                    lags.append(rec["sent"] - rec["due"])
                if resp["status"] != "ok":
                    failed += 1
                    continue
                if phase == 1:
                    latencies.append(rec["recv"] - rec["due"])
                ids = np.asarray(resp["ids"], dtype=np.int64)
                dists = np.asarray(resp["distances"], dtype=np.float64)
                good = check_answer(self.data, self.queries[pos], ids,
                                    dists, K, exact_dists[pos])
                if phase == 2 or not resp["stats"]["degraded"]:
                    ref = reference[pos]
                    good = (good and np.array_equal(ids, ref.ids)
                            and np.array_equal(dists, ref.distances))
                if not good:
                    incorrect += 1
                    failed += 1
                    continue
                if phase == 1 and latencies[-1] > SERVED_DEADLINE_S:
                    failed += 1
                answers.append((ids, dists))
                positions.append(pos)
        recall, ratio = quality(answers, exact_ids[positions],
                                exact_dists[positions])
        lat = latency_summary(latencies)
        p2 = self.phase2.values()
        phase2_s = max(r["recv"] for r in p2) - min(r["sent"] for r in p2)
        self.lags = lags
        self.incorrect = incorrect
        oks = [r["resp"] for recs in (self.phase1, self.phase2)
               for r in recs.values() if r["resp"]["status"] == "ok"]
        metrics = {
            "qps": len(self.phase2) / phase2_s,
            "latency_p50_ms": lat["p50_ms"],
            "latency_tail_ms": lat["tail_ms"],
            "recall": recall, "ratio": ratio,
            "pages_per_query": float(np.mean([r["stats"]["io_reads"]
                                              for r in oks])),
        }
        report = {
            "latency": lat,
            "phase1_requests": len(self.phase1),
            "phase2_requests": len(self.phase2),
            "statuses": dict(Counter(r["resp"]["status"]
                                     for recs in (self.phase1, self.phase2)
                                     for r in recs.values())),
            "generator_lag_max_ms": 1e3 * max(lags),
            "generator_valid": bool(max(lags) <= SERVED_MAX_LAG_S),
        }
        return self.ops(), failed, metrics, report

    def query_stats(self):
        out = []
        for records in (self.phase1, self.phase2):
            for rec in records.values():
                resp = rec["resp"]
                if resp["status"] == "ok":
                    out.append((resp["stats"], len(resp["ids"])))
        return out

    def layer_extras(self):
        oks = [r for r in self.phase1.values()
               if r["resp"]["status"] == "ok"]
        waits = [r["resp"]["stats"]["queue_wait_s"] for r in oks]
        front = [(r["recv"] - r["sent"]) - r["resp"]["stats"]["queue_wait_s"]
                 - r["resp"]["stats"]["elapsed_s"] for r in oks]
        statuses = Counter(r["resp"]["status"]
                           for recs in (self.phase1, self.phase2)
                           for r in recs.values())
        wait = latency_summary(waits)
        return {
            "phase1": (min(r["due"] for r in self.phase1.values()),
                       max(r["recv"] for r in self.phase1.values())),
            "phase1_answered": len(oks),
            "queue_wait_p50_ms": wait["p50_ms"],
            "queue_wait_tail_ms": wait["tail_ms"],
            "front_end_ms": 1e3 * float(np.mean(front)) if front else 0.0,
            "shed": statuses.get("shed", 0),
            "errors": statuses.get("error", 0),
            "generator_lag_ms": 1e3 * max(self.lags),
        }

    def processes(self):
        return {"server": self.server_pid}

    def close(self):
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.proc is not None:
            if self.proc.is_alive():
                self.conn.send("stop")
                if self.conn.poll(60):
                    self.server_info = self.conn.recv()
            self.proc.join(60)
            if self.proc.is_alive():
                self.proc.kill()
                self.proc.join()
            self.proc = None


class Durable:
    """Seeded read/write stream over a fsync'd ``DurableUpdatableC2LSH``.

    Handles are assigned in insert order, so handle ``h`` is row ``h`` of
    the generated data: the first ``DURABLE_BULK`` rows are bulk-loaded
    and later rows feed the stream's inserts.
    """

    name = "durable"
    threads = 1             # load-generating threads in this process

    def __init__(self, seed, workdir):
        from repro.data import mnist_like
        ds = mnist_like(scale=0.7, n_queries=QUERY_POOL, seed=seed)
        self.seed = seed
        self.data, self.queries = ds.data, ds.queries
        self.workdir = workdir
        self.index = None
        self.setup_times = []
        self._reset_stream()

    def _reset_stream(self):
        """Rewind the seeded stream to its first operation."""
        self.rng = np.random.default_rng([self.seed, 2])
        self.op = 0
        self.next_row = DURABLE_BULK
        self.live = list(range(DURABLE_BULK))
        self.live_set = set(self.live)
        self.buffered = set()

    def _open(self, path):
        from repro import DurableUpdatableC2LSH
        return DurableUpdatableC2LSH(
            path, fsync=True, auto_checkpoint=DURABLE_AUTO_CHECKPOINT,
            seed=self.seed)

    def setup(self, repeats=SETUP_REPEATS):
        for _ in range(repeats):
            self.close()
            if getattr(self, "path", None):
                shutil.rmtree(self.path)
            self.path = os.path.join(self.workdir,
                                     f"index-{len(self.setup_times)}")
            start = time.perf_counter()
            self.index = self._open(self.path)
            self.index.insert(self.data[:DURABLE_BULK])
            self.index.checkpoint()
            self.setup_times.append(time.perf_counter() - start)

    def rebuild(self):
        """A fresh index and a rewound stream, for an identical repeat."""
        setup_times = list(self.setup_times)
        self._reset_stream()
        self.setup(repeats=1)
        self.warm()
        self.setup_times = setup_times

    def warm(self):
        for pos in range(8):
            self.index.query(self.queries[pos], k=K)

    def _step(self):
        """Run the next stream operation; returns ``(kind, seconds, ok)``."""
        kind = int(self.kinds[self.op])
        self.op += 1
        if kind == 0:
            pos = int(self.rng.integers(QUERY_POOL))
            query = self.queries[pos]
            res, elapsed = _timed(self.index.query, query, k=K)
            self.buffer_scanned.append(len(self.buffered))
            self.stats.append((res.stats, len(res.ids)))
            return "query", elapsed, self._check_query(query, res)
        if kind == 1:
            rows = self.data[self.next_row:self.next_row
                             + DURABLE_INSERT_ROWS]
            expected = np.arange(self.next_row, self.next_row + len(rows))
            before = self.index.rebuilds
            handles, elapsed = _timed(self.index.insert, rows)
            self.next_row += len(rows)
            self.live.extend(expected.tolist())
            self.live_set.update(expected.tolist())
            if self.index.rebuilds != before:
                self.buffered = set()
                self.stalls.append(elapsed)
            else:
                self.buffered.update(expected.tolist())
            return "insert", elapsed, np.array_equal(handles, expected)
        picks = self.rng.choice(len(self.live), DURABLE_DELETE_HANDLES,
                                replace=False)
        handles = [self.live[i] for i in picks]
        for i in sorted(picks, reverse=True):
            self.live[i] = self.live[-1]
            self.live.pop()
        self.live_set.difference_update(handles)
        self.buffered.difference_update(handles)
        _, elapsed = _timed(self.index.delete, handles)
        return "delete", elapsed, True

    def _check_query(self, query, res):
        ids = np.asarray(res.ids, dtype=np.int64)
        if ids.shape != (K,) or np.unique(ids).size != K:
            return False
        if not all(int(h) in self.live_set for h in ids):
            return False
        if np.any(np.diff(res.distances) < 0):
            return False
        return bool(np.allclose(res.distances,
                                exact_distances(self.data, ids, query),
                                rtol=1e-9, atol=1e-12))

    def run_pass(self, seconds):
        """Run ``DURABLE_OPS_PER_S * seconds`` stream operations."""
        self.ops_log = []          # (kind, seconds, ok)
        self.stats, self.buffer_scanned, self.stalls = [], [], []
        self.rebuilds_before = self.index.rebuilds
        n_ops = max(1, int(round(DURABLE_OPS_PER_S * seconds)))
        # Exactly the mix's share of each kind, in seeded order, so every
        # seed writes as often and crashes as far past its last checkpoint.
        counts = np.floor(np.asarray(DURABLE_MIX) * n_ops).astype(int)
        counts[0] += n_ops - counts.sum()
        self.kinds = self.rng.permutation(np.repeat(np.arange(3), counts))
        spent = 0.0
        for _ in range(n_ops):
            kind, elapsed, ok = self._step()
            self.ops_log.append((kind, elapsed, ok))
            spent += elapsed
        self.rebuilds_in_pass = self.index.rebuilds - self.rebuilds_before
        return spent

    def ops(self):
        return len(self.ops_log)

    def crash_and_recover(self):
        """Drop the index without ``close()``, reopen it, check the state."""
        probes = self.queries[:DURABLE_PROBES]
        before = [self.index.query(q, k=K) for q in probes]
        rebuilds, size = self.index.rebuilds, len(self.index)
        self.index = None                       # simulated crash
        self.index, self.recovery_s = _timed(self._open, self.path)
        after = [self.index.query(q, k=K) for q in probes]
        same = all(np.array_equal(a.ids, b.ids)
                   and np.array_equal(a.distances, b.distances)
                   for a, b in zip(before, after))
        live = np.asarray(sorted(self.live_set), dtype=np.int64)
        self.recovered = {
            "live_matches": len(self.index) == size == live.size,
            "rebuilds_match": self.index.rebuilds == rebuilds,
            "probe_answers_identical": same,
            "replayed_records": self.index.recovered_records,
        }
        from repro.data import exact_knn
        exact_ids, exact_dists = exact_knn(self.data[live], probes, K)
        answers = [(a.ids, a.distances) for a in after]
        checks = [check_answer(self.data, q, a.ids, a.distances, K, d)
                  and set(a.ids.tolist()) <= self.live_set
                  for q, a, d in zip(probes, after, exact_dists)]
        self.probe_quality = quality(answers, live[exact_ids], exact_dists)
        return all(checks) and same and self.recovered["live_matches"] \
            and self.recovered["rebuilds_match"]

    def truth(self):
        return None

    def check_pass(self, truth):
        recovered_ok = self.crash_and_recover()
        failed = sum(not ok for _, _, ok in self.ops_log)
        attempted = len(self.ops_log) + 1
        failed += not recovered_ok
        self.incorrect = failed
        total = sum(e for _, e, _ in self.ops_log)
        queries = [e for kind, e, _ in self.ops_log if kind == "query"]
        writes = [e for kind, e, _ in self.ops_log if kind != "query"]
        lat = latency_summary(queries)
        wlat = latency_summary(writes, DURABLE_WRITE_TAIL_BEYOND)
        recall, ratio = self.probe_quality
        metrics = {
            "qps": len(queries) / total,
            "latency_p50_ms": lat["p50_ms"],
            "latency_tail_ms": lat["tail_ms"],
            "recall": recall, "ratio": ratio,
            "ops_per_s": len(self.ops_log) / total,
            "write_p50_ms": wlat["p50_ms"], "write_tail_ms": wlat["tail_ms"],
            "recovery_s": self.recovery_s,
        }
        report = {
            "latency": lat, "write_latency": wlat,
            "ops": dict(Counter(kind for kind, _, _ in self.ops_log)),
            "rebuilds": self.rebuilds_in_pass,
            "stalls": len(self.stalls),
            "recovery": self.recovered,
        }
        return attempted, failed, metrics, report

    def query_stats(self):
        return self.stats

    def layer_extras(self):
        return {
            "replayed_records": self.recovered["replayed_records"],
            "rebuilds": self.rebuilds_in_pass,
            "rebuild_stall_s": sum(self.stalls),
            "buffer_scanned_per_query": (float(np.mean(self.buffer_scanned))
                                         if self.buffer_scanned else 0.0),
        }

    def processes(self):
        return {}

    def close(self):
        if self.index is not None:
            self.index.close()
            self.index = None


WORKLOADS = {cls.name: cls for cls in (ShardedAdaptive, Served, Durable)}
