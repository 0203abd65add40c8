"""Serve a query stream from a 4-shard index under a deadline budget.

A production-shaped tour of :class:`repro.ShardedC2LSH`:

1. build a 4-shard index (the dataset is placed in shared memory once;
   each worker process builds its shard over a zero-copy view);
2. serve a stream of queries with a per-query deadline
   :class:`~repro.reliability.QueryBudget` — queries that can't finish
   their radius rounds in time degrade gracefully to their best verified
   candidates instead of blocking the stream;
3. ``SIGKILL`` a worker process mid-stream and keep serving — the
   supervisor respawns it and replays its session, so answers stay
   bit-identical through real process death;
4. print the engine's aggregated ``shard.*`` telemetry snapshot,
   failover counters included.

Results are bit-identical to an unsharded index (the script spot-checks
this on the first batch), so sharding is purely a deployment decision.

Run:  python examples/sharded_serving.py
"""

import json
import os
import signal
import time

import numpy as np

from repro import C2LSH, ShardedC2LSH
from repro.reliability import QueryBudget

K = 10
SHARDS = 4
rng = np.random.default_rng(42)
data = rng.standard_normal((8_000, 24))
# A realistic mix: half the stream is in-distribution (answered in one
# radius round), half is out-of-distribution (needs several rounds and
# will collide with the serving deadline).
stream = np.vstack([rng.standard_normal((24, 24)),
                    rng.standard_normal((24, 24)) * 2.5])
rng.shuffle(stream)

# 1. Build.
engine = ShardedC2LSH(n_shards=SHARDS, n_workers=SHARDS, seed=7,
                      page_accounting=True)
t0 = time.perf_counter()
engine.fit(data)
print(f"built {SHARDS} shards ({engine.n_workers} workers) "
      f"in {time.perf_counter() - t0:.2f}s: {engine!r}")

with engine:
    # Spot-check: the sharded engine answers exactly like an unsharded
    # index on the same data and seed.
    first = engine.query_batch(stream[:4], k=K)
    plain = C2LSH(seed=7).fit(data).query_batch(stream[:4], k=K)
    assert all(np.array_equal(a.ids, b.ids)
               for a, b in zip(first, plain))
    print("spot-check vs unsharded C2LSH: identical top-k\n")

    # 2. Serve the stream in small batches under a deadline budget. The
    # deadline is checked at radius-round boundaries on shard-aggregated
    # totals: queries the first round already satisfies (T1/T2) finish
    # normally; the rest are cut off and return their best-so-far top-k.
    budget = QueryBudget(deadline_s=0.02)
    served = degraded = 0
    t0 = time.perf_counter()
    for start in range(0, len(stream), 8):
        batch = stream[start:start + 8]
        for result in engine.query_batch(batch, k=K, budget=budget):
            served += 1
            degraded += result.stats.degraded
    elapsed = time.perf_counter() - t0
    print(f"served {served} queries in {elapsed:.2f}s "
          f"({served / elapsed:.1f} q/s), {degraded} degraded by the "
          f"{budget.deadline_s * 1e3:.0f}ms deadline")

    # 3. Chaos: SIGKILL one worker mid-stream. The default failover
    # policy ("rebuild") detects the broken pool on the next call,
    # respawns the worker from the retained config (the dataset is still
    # in shared memory), replays the block's completed rounds, and the
    # answer comes back bit-identical — the stream never sees the death.
    reference = engine.query_batch(stream[:8], k=K)
    victim = engine.worker_pids()[0]
    os.kill(victim, signal.SIGKILL)
    print(f"\nSIGKILL worker 0 (pid {victim}) mid-stream...")
    healed = engine.query_batch(stream[:8], k=K)
    assert all(np.array_equal(a.ids, b.ids)
               for a, b in zip(reference, healed))
    assert not any(r.stats.degraded for r in healed)
    print(f"healed: identical top-k, worker 0 respawned as "
          f"pid {engine.worker_pids()[0]}")

    # 4. Aggregated telemetry: every engine phase lands under shard.*,
    # and the failover above under shard.failover.*.
    snapshot = engine.telemetry_snapshot()
    print("\ntelemetry snapshot:")
    for name in sorted(snapshot):
        value = snapshot[name]
        if isinstance(value, dict):
            value = {k: round(v, 5) for k, v in value.items()
                     if k in ("count", "mean", "p95")}
        print(f"  {name}: {json.dumps(value)}")
