"""Sharded-engine build/query scaling, tracked in ``BENCH_shard.json``.

Sweeps shard counts S ∈ {1, 2, 4, 8} (``n_workers = S``) over the standard
synthetic profile, timing index build and batch-query throughput, and
verifies at every S that the answers are bit-identical to an unsharded
:class:`repro.C2LSH` over the same data and seed::

    python benchmarks/bench_shard.py             # full run, n=20k
    python benchmarks/bench_shard.py --smoke     # small sizes, 2 workers

**What the speedup measures.** C2LSH is an external-memory method: its
cost model is pages read/written, and this benchmark runs every shard's
:class:`~repro.storage.PageManager` with a simulated per-page device
latency (``--page-latency-us``, default 300µs — commodity-SSD territory).
Shards on separate worker processes overlap their device waits, which is
exactly the resource a sharded deployment parallelizes; the JSON records
``cpu_count`` and the latency model so the numbers cannot be mistaken for
pure-CPU scaling (on a single-core box the CPU portion of the work still
serializes). At S=4 the build must reach ``--min-build-speedup`` (2.5x)
and queries ``--min-query-speedup`` (2x) over S=1; the exit code reflects
both plus result identity, so CI can gate on regressions. ``--smoke``
checks only identity.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import C2LSH, ShardedC2LSH  # noqa: E402
from repro.obs import MetricsRegistry, provenance  # noqa: E402


def _identical(expected, got):
    return all(
        np.array_equal(e.ids, g.ids)
        and np.array_equal(e.distances, g.distances)
        and e.stats.terminated_by == g.stats.terminated_by
        for e, g in zip(expected, got)
    )


def run_sweep(n, dim, n_queries, k, seed, shard_counts, n_workers,
              page_latency_s, probe="classic"):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, dim))
    queries = rng.standard_normal((n_queries, dim))
    classic = probe in ("classic", "both")
    adaptive = probe in ("adaptive", "both")

    # Unsharded ground truth for the identity check (no latency model —
    # answers don't depend on I/O accounting, only wall-clock would).
    # Only classic mode promises bit-identity; adaptive promises the
    # result contract at fewer pages, so its runs are reported without
    # the identity gate.
    reference = (C2LSH(seed=seed).fit(data).query_batch(queries, k=k)
                 if classic else None)

    sweep = []
    for s in shard_counts:
        workers = n_workers if n_workers is not None else s
        metrics = MetricsRegistry()
        engine = ShardedC2LSH(n_shards=s, n_workers=workers, seed=seed,
                              page_accounting=True,
                              page_latency_s=page_latency_s,
                              metrics=metrics)
        t0 = time.perf_counter()
        engine.fit(data)
        t_fit = time.perf_counter() - t0
        with engine:
            engine.query_batch(queries[:2], k=k)  # warm the round path
            entry = {
                "shards": s,
                "workers": workers,
                "build_seconds": round(t_fit, 4),
            }
            if classic:
                t0 = time.perf_counter()
                results = engine.query_batch(queries, k=k)
                t_query = time.perf_counter() - t0
                entry.update(
                    query_seconds=round(t_query, 4),
                    queries_per_sec=round(n_queries / t_query, 2),
                    amortized_ms=round(t_query / n_queries * 1e3, 4),
                    io_pages_per_query=round(
                        sum(r.stats.io_reads for r in results)
                        / n_queries, 1),
                    identical_results=_identical(reference, results),
                )
            if adaptive:
                t0 = time.perf_counter()
                fast = engine.query_batch(queries, k=k, probe="adaptive")
                t_query = time.perf_counter() - t0
                entry["adaptive"] = {
                    "query_seconds": round(t_query, 4),
                    "queries_per_sec": round(n_queries / t_query, 2),
                    "io_pages_per_query": round(
                        sum(r.stats.io_reads for r in fast)
                        / n_queries, 1),
                    "probes_skipped": int(sum(r.stats.probes_skipped
                                              for r in fast)),
                }
                if classic and entry["adaptive"]["io_pages_per_query"]:
                    entry["adaptive"]["pages_vs_classic"] = round(
                        entry["io_pages_per_query"]
                        / entry["adaptive"]["io_pages_per_query"], 3)
                if not classic:
                    entry.update(
                        query_seconds=entry["adaptive"]["query_seconds"],
                        queries_per_sec=entry["adaptive"][
                            "queries_per_sec"],
                        amortized_ms=round(t_query / n_queries * 1e3, 4),
                        io_pages_per_query=entry["adaptive"][
                            "io_pages_per_query"],
                    )
            entry["metrics"] = engine.telemetry_snapshot()
        sweep.append(entry)
        print(f"S={s} W={workers}: build {t_fit:.2f}s, "
              f"query {entry['queries_per_sec']:.1f} q/s, "
              f"identical={entry.get('identical_results', 'n/a')}")
    return data.nbytes, sweep


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=20_000)
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--queries", type=int, default=32)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--shards", type=int, nargs="+",
                        default=[1, 2, 4, 8])
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: one per shard)")
    parser.add_argument("--page-latency-us", type=float, default=300.0,
                        help="simulated per-page device latency")
    parser.add_argument("--probe", choices=["classic", "adaptive", "both"],
                        default="classic",
                        help="probing mode(s) to time; the identity gate "
                             "only applies to classic runs")
    parser.add_argument("--min-build-speedup", type=float, default=2.5)
    parser.add_argument("--min-query-speedup", type=float, default=2.0)
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_shard.json")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes + fixed 2 workers, identity only")
    args = parser.parse_args(argv)

    if args.smoke:
        args.n, args.dim, args.queries = 2_000, 16, 8
        args.shards = [1, 2]
        if args.workers is None:
            args.workers = 2
        args.page_latency_us = 20.0

    latency_s = args.page_latency_us * 1e-6
    data_bytes, sweep = run_sweep(args.n, args.dim, args.queries, args.k,
                                  args.seed, args.shards, args.workers,
                                  latency_s, probe=args.probe)

    base = sweep[0]
    for entry in sweep:
        entry["build_speedup"] = round(
            base["build_seconds"] / entry["build_seconds"], 3)
        entry["query_speedup"] = round(
            entry["queries_per_sec"] / base["queries_per_sec"], 3)

    result = {
        "config": {
            "n": args.n, "dim": args.dim, "queries": args.queries,
            "k": args.k, "seed": args.seed, "probe": args.probe,
            "shared_memory_bytes": data_bytes,
            "cpu_count": os.cpu_count(),
            "io_model": {
                "kind": "simulated paged device",
                "page_latency_us": args.page_latency_us,
                "note": "per-page latency charged in the worker that "
                        "performs the I/O; shards overlap device waits, "
                        "CPU work still serializes on few-core hosts",
            },
        },
        "sweep": sweep,
        "identical_results": all(e.get("identical_results", True)
                                 for e in sweep),
        "smoke": args.smoke,
    }
    s4 = next((e for e in sweep if e["shards"] == 4), None)
    if s4 is not None:
        result["s4_build_speedup"] = s4["build_speedup"]
        result["s4_query_speedup"] = s4["query_speedup"]
        print(f"S=4 vs S=1: build {s4['build_speedup']:.2f}x, "
              f"query {s4['query_speedup']:.2f}x")

    result["provenance"] = provenance()
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.out}")

    if not result["identical_results"]:
        print("FAIL: sharded results differ from unsharded",
              file=sys.stderr)
        return 1
    if not args.smoke and s4 is not None:
        if s4["build_speedup"] < args.min_build_speedup:
            print(f"FAIL: S=4 build speedup {s4['build_speedup']:.2f}x "
                  f"below {args.min_build_speedup}x", file=sys.stderr)
            return 1
        if s4["query_speedup"] < args.min_query_speedup:
            print(f"FAIL: S=4 query speedup {s4['query_speedup']:.2f}x "
                  f"below {args.min_query_speedup}x", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
