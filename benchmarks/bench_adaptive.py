"""Adaptive vs. classic probing I/O frontier, tracked in ``BENCH_adaptive.json``.

Measures, on the paper's dataset profiles, how many pages per query the
query-adaptive probing engine (``probe="adaptive"``) reads compared to the
classic paper-exact schedule at what recall, and where a tuned multi-probe
E2LSH baseline sits on the same axes::

    python benchmarks/bench_adaptive.py            # full run + 3x gate
    python benchmarks/bench_adaptive.py --smoke    # tiny sizes, no gate

Per profile the sweep records the classic anchor, three adaptive
configurations along the savings/recall frontier (certified-exits only;
the provisional-T2 default; an aggressive provisional variant), and the
:class:`repro.baselines.MultiProbeLSH` comparison point. ``--probe``
restricts the sweep to one mode (``classic``/``adaptive``/``both``); the
probe mode is recorded in the JSON config.

Two correctness guards ship with the numbers: ``identical_contract``
asserts that adaptive mode with the early exits disabled
(``chunks=1, start_estimate=False``) is bit-identical to classic on the
gate profile — ids, distances, stats, page charges — and the non-smoke
exit code enforces ``--min-page-ratio`` (default 3x): the best adaptive
configuration must read at least that many times fewer pages per query
than classic at equal-or-better recall on the gate profile.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import AdaptiveConfig, C2LSH, MultiProbeLSH, PageManager  # noqa: E402
from repro.data import load_profile  # noqa: E402
from repro.obs import provenance  # noqa: E402

#: The frontier sweep: label -> AdaptiveConfig. Ordered from the
#: conservative certified-exits-only end to the aggressive provisional end.
CONFIGS = {
    "certified-ch16": AdaptiveConfig(chunks=16, provisional_exit=False),
    "provisional-default": AdaptiveConfig(chunks=16),
    "provisional-aggressive": AdaptiveConfig(
        chunks=16, provisional_min_frac=0.33, provisional_pool_mult=8.0),
}

STAT_FIELDS = ("rounds", "final_radius", "candidates", "scanned_entries",
               "terminated_by", "io_reads")


def _build(ds, seed):
    return C2LSH(c=2, delta=0.1, seed=seed,
                 page_manager=PageManager()).fit(ds.data)


def _recall(results, true_ids):
    hit = sum(np.intersect1d(r.ids, t).size
              for r, t in zip(results, true_ids))
    return hit / true_ids.size


def _measure(results, true_ids, n_queries):
    return {
        "pages_per_query": round(
            sum(r.stats.io_reads for r in results) / n_queries, 1),
        "recall": round(_recall(results, true_ids), 4),
        "probes_issued": int(sum(r.stats.probes_issued for r in results)),
        "probes_skipped": int(sum(r.stats.probes_skipped
                                  for r in results)),
    }


def identical_contract(ds, k, seed):
    """Bit-parity of exact-mode adaptive vs. classic on this profile."""
    classic = _build(ds, seed).query_batch(ds.queries, k=k)
    exact = _build(ds, seed).query_batch(
        ds.queries, k=k,
        probe=AdaptiveConfig(chunks=1, start_estimate=False))
    for c, a in zip(classic, exact):
        if not (np.array_equal(c.ids, a.ids)
                and np.array_equal(c.distances, a.distances)):
            return False
        if any(getattr(c.stats, f) != getattr(a.stats, f)
               for f in STAT_FIELDS):
            return False
    return True


def run_profile(name, scale, n_queries, k, seed, probe_modes):
    ds = load_profile(name, scale=scale, n_queries=n_queries, seed=0)
    true_ids, _ = ds.ground_truth(k)
    entry = {"profile": name, "n": int(ds.n), "dim": int(ds.dim),
             "queries": int(n_queries), "k": int(k), "runs": {}}

    if "classic" in probe_modes:
        index = _build(ds, seed)
        t0 = time.perf_counter()
        results = index.query_batch(ds.queries, k=k)
        entry["runs"]["classic"] = dict(
            _measure(results, true_ids, n_queries),
            seconds=round(time.perf_counter() - t0, 4))
        print(f"  {name}/classic: "
              f"{entry['runs']['classic']['pages_per_query']} pages/q, "
              f"recall {entry['runs']['classic']['recall']}")

    if "adaptive" in probe_modes:
        for label, config in CONFIGS.items():
            index = _build(ds, seed)
            t0 = time.perf_counter()
            results = index.query_batch(ds.queries, k=k, probe=config)
            entry["runs"][label] = dict(
                _measure(results, true_ids, n_queries),
                seconds=round(time.perf_counter() - t0, 4))
            print(f"  {name}/{label}: "
                  f"{entry['runs'][label]['pages_per_query']} pages/q, "
                  f"recall {entry['runs'][label]['recall']}")

    # Multi-probe E2LSH comparison point (independent baseline, always
    # classic-probed — it has no adaptive mode).
    baseline = MultiProbeLSH(K=8, L=8, n_probes=16, seed=seed,
                             page_manager=PageManager()).fit(ds.data)
    results = baseline.query_batch(ds.queries, k=k)
    entry["runs"]["multiprobe-e2lsh"] = {
        "pages_per_query": round(
            sum(r.stats.io_reads for r in results) / n_queries, 1),
        "recall": round(_recall(results, true_ids), 4),
    }
    print(f"  {name}/multiprobe-e2lsh: "
          f"{entry['runs']['multiprobe-e2lsh']['pages_per_query']} "
          f"pages/q, recall {entry['runs']['multiprobe-e2lsh']['recall']}")

    classic = entry["runs"].get("classic")
    if classic:
        for label in CONFIGS:
            run = entry["runs"].get(label)
            if run and run["pages_per_query"] > 0:
                run["pages_ratio_vs_classic"] = round(
                    classic["pages_per_query"] / run["pages_per_query"],
                    3)
    return entry


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.05,
                        help="profile subsample fraction")
    parser.add_argument("--queries", type=int, default=20)
    parser.add_argument("--k", type=int, default=1)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--profiles", nargs="+",
                        default=["nus", "mnist"],
                        help="dataset profiles; the first is the gate "
                             "profile")
    parser.add_argument("--probe", choices=["classic", "adaptive", "both"],
                        default="both",
                        help="which probing modes to sweep")
    parser.add_argument("--min-page-ratio", type=float, default=3.0,
                        help="gate: best adaptive config must read this "
                             "many times fewer pages than classic at "
                             "equal-or-better recall")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_adaptive.json")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, contract check only, no gate")
    args = parser.parse_args(argv)

    if args.smoke:
        args.scale, args.queries = 0.02, 6
        args.profiles = args.profiles[:1]

    probe_modes = (("classic", "adaptive") if args.probe == "both"
                   else (args.probe,))

    profiles = [run_profile(name, args.scale, args.queries, args.k,
                            args.seed, probe_modes)
                for name in args.profiles]

    gate = load_profile(args.profiles[0], scale=args.scale,
                        n_queries=args.queries, seed=0)
    contract_ok = identical_contract(gate, args.k, args.seed)
    print(f"identical_contract({args.profiles[0]}): {contract_ok}")

    result = {
        "config": {
            "scale": args.scale, "queries": args.queries, "k": args.k,
            "seed": args.seed, "profiles": args.profiles,
            "probe": args.probe,
            "gate_profile": args.profiles[0],
            "min_page_ratio": args.min_page_ratio,
            "adaptive_configs": {
                label: {
                    "chunks": cfg.chunks,
                    "start_estimate": cfg.start_estimate,
                    "provisional_exit": cfg.provisional_exit,
                    "provisional_min_frac": cfg.provisional_min_frac,
                    "provisional_pool_mult": cfg.provisional_pool_mult,
                } for label, cfg in CONFIGS.items()
            },
        },
        "profiles": profiles,
        "identical_contract": contract_ok,
        "smoke": args.smoke,
    }

    failures = []
    if not contract_ok:
        failures.append("exact-mode adaptive is not bit-identical to "
                        "classic on the gate profile")
    if not args.smoke and args.probe == "both":
        runs = profiles[0]["runs"]
        classic = runs["classic"]
        best = max(
            (runs[label] for label in CONFIGS
             if label in runs
             and runs[label]["recall"] >= classic["recall"]),
            key=lambda r: r.get("pages_ratio_vs_classic", 0.0),
            default=None)
        ratio = (best or {}).get("pages_ratio_vs_classic", 0.0)
        result["gate"] = {
            "pages_ratio": ratio,
            "classic_recall": classic["recall"],
            "passed": ratio >= args.min_page_ratio,
        }
        print(f"gate: best adaptive config reads {ratio:.2f}x fewer "
              f"pages at recall >= classic "
              f"({classic['recall']})")
        if ratio < args.min_page_ratio:
            failures.append(
                f"pages ratio {ratio:.2f}x below {args.min_page_ratio}x "
                f"on {args.profiles[0]}")

    result["provenance"] = provenance()
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.out}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
