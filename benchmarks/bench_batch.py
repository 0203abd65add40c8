"""Sequential-vs-batch query throughput, tracked in ``BENCH_batch.json``.

The lockstep batch engine (:mod:`repro.core.batchengine`) promises the
same answers as a plain :meth:`C2LSH.query` loop at a multiple of the
throughput. This script measures both paths on the standard synthetic
profile (standard-normal points, default n=10k, dim=32, Q=64), checks the
results really are identical, and writes the numbers to a JSON file so the
speedup is tracked across future changes::

    python benchmarks/bench_batch.py                # full run, ~10 s
    python benchmarks/bench_batch.py --smoke        # small sizes for CI

The batch path is expected to reach at least ``--min-speedup`` (default
3.0) times the sequential queries/sec at the full size; the exit code
reflects it so CI can gate on regressions. ``--smoke`` checks only
equivalence — tiny workloads leave no room for the batch win.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import C2LSH  # noqa: E402
from repro.obs import Histogram, provenance  # noqa: E402


def _latency_summary(results):
    """p50/p95/p99 per-query latency (ms) from ``QueryStats.elapsed_s``.

    Only meaningful for the sequential path, where each query is timed
    individually. Batch-path queries are stamped when their radius round
    terminates, measured from the *batch* start — nearly one identical
    wall-clock value per batch, so percentiles over them are noise; the
    batch section reports ``amortized_ms`` (batch seconds / Q) instead.
    """
    hist = Histogram("latency.seconds")
    for r in results:
        hist.observe(r.stats.elapsed_s)
    snap = hist.snapshot()
    return {
        "p50_ms": round(snap["p50"] * 1e3, 4),
        "p95_ms": round(snap["p95"] * 1e3, 4),
        "p99_ms": round(snap["p99"] * 1e3, 4),
        "mean_ms": round(snap["mean"] * 1e3, 4),
        "max_ms": round(snap["max"] * 1e3, 4),
    }


def run_once(n, dim, n_queries, k, seed, n_jobs):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, dim))
    queries = rng.standard_normal((n_queries, dim))

    index = C2LSH(seed=seed).fit(data)
    # Warm both paths so neither pays first-call costs (lazy rank matrix,
    # numpy internals) inside the timed region.
    index.query(queries[0], k=k)
    index.query_batch(queries[:2], k=k)

    t0 = time.perf_counter()
    seq = [index.query(q, k=k) for q in queries]
    t_seq = time.perf_counter() - t0

    t0 = time.perf_counter()
    bat = index.query_batch(queries, k=k, n_jobs=n_jobs)
    t_bat = time.perf_counter() - t0

    identical = all(
        np.array_equal(s.ids, b.ids)
        and np.array_equal(s.distances, b.distances)
        and s.stats.terminated_by == b.stats.terminated_by
        for s, b in zip(seq, bat)
    )
    return {
        "config": {"n": n, "dim": dim, "queries": n_queries, "k": k,
                   "seed": seed, "n_jobs": n_jobs},
        "sequential": {"seconds": round(t_seq, 4),
                       "queries_per_sec": round(n_queries / t_seq, 2),
                       "latency": _latency_summary(seq)},
        "batch": {"seconds": round(t_bat, 4),
                  "queries_per_sec": round(n_queries / t_bat, 2),
                  "amortized_ms": round(t_bat / n_queries * 1e3, 4)},
        "speedup": round(t_seq / t_bat, 3),
        "identical_results": identical,
    }


def _print_run(result):
    """Human-readable summary of one run_once() result."""
    lat = result["sequential"]["latency"]
    print(f"{'sequential:':<12}{result['sequential']['seconds']:.3f}s "
          f"({result['sequential']['queries_per_sec']:.1f} q/s)  "
          f"p50={lat['p50_ms']:.2f}ms p95={lat['p95_ms']:.2f}ms "
          f"p99={lat['p99_ms']:.2f}ms")
    print(f"{'batch:':<12}{result['batch']['seconds']:.3f}s "
          f"({result['batch']['queries_per_sec']:.1f} q/s)  "
          f"amortized={result['batch']['amortized_ms']:.2f}ms/query")
    print(f"speedup:    {result['speedup']:.2f}x  "
          f"identical={result['identical_results']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=10_000)
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--queries", type=int, default=64)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n-jobs", type=int, default=None,
                        help="thread pool size for distance verification")
    parser.add_argument("--min-speedup", type=float, default=3.0)
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_batch.json")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, equivalence check only (CI)")
    args = parser.parse_args(argv)

    if args.smoke:
        args.n, args.dim, args.queries = 1500, 16, 12

    print(f"n={args.n} dim={args.dim} Q={args.queries} k={args.k}")

    result = run_once(args.n, args.dim, args.queries, args.k, args.seed,
                      args.n_jobs)
    _print_run(result)
    result["smoke"] = args.smoke
    # Environment stamp: BENCH files are only comparable (see
    # ``python -m repro.obs diff``) across matching provenance.
    result["provenance"] = provenance()

    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.out}")

    if not result["identical_results"]:
        print("FAIL: batch results differ from sequential", file=sys.stderr)
        return 1
    if not args.smoke and result["speedup"] < args.min_speedup:
        print(f"FAIL: speedup {result['speedup']:.2f}x below "
              f"{args.min_speedup}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
