"""Experiment harness: regenerates every table and figure of the evaluation.

Each subcommand maps to one experiment ID from DESIGN.md §6 and prints the
rows the corresponding paper artifact reports (plus a CSV next to it when
``--out-dir`` is given). Absolute numbers are simulator-scale; the shapes —
who wins, by what factor, where crossovers fall — are what EXPERIMENTS.md
records against the paper's claims.

Run ``python -m repro.eval.harness all --scale 0.05`` for a quick full pass,
or individual experiments::

    python -m repro.eval.harness table-params
    python -m repro.eval.harness vs-k --datasets mnist color --ks 1 10 100
    python -m repro.eval.harness ablation-rehash --scale 0.02
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

import numpy as np

from ..baselines import E2LSH, LSBForest, LinearScan, MultiProbeLSH
from ..core import C2LSH, QALSH, design_params
from ..data import exact_knn, gaussian_clusters, load_profile, split_queries
from ..data.profiles import PROFILES, Dataset
from ..hashing import PStableFamily
from ..obs import SnapshotSink, flight, provenance, trace, tracing
from ..storage import DEFAULT_PAGE_SIZE, PageManager
from .reporting import Table
from .sweep import timed_build, timed_queries

__all__ = ["main", "EXPERIMENTS"]

DEFAULT_KS = (1, 10, 20, 40, 60, 80, 100)


# --------------------------------------------------------------------------
# shared plumbing
# --------------------------------------------------------------------------

def _datasets(args):
    for name in args.datasets:
        yield load_profile(name, scale=args.scale, seed=args.seed,
                           n_queries=args.queries)


def _method_factories(args, pm_for):
    """Name -> zero-arg index factory; ``pm_for(name)`` supplies accounting."""

    def c2lsh():
        return C2LSH(c=args.c, seed=args.seed, page_manager=pm_for("c2lsh"))

    def qalsh():
        return QALSH(c=args.c, seed=args.seed, page_manager=pm_for("qalsh"))

    def lsb():
        return LSBForest(n_trees=args.lsb_trees, seed=args.seed,
                         page_manager=pm_for("lsb"))

    def e2lsh():
        return E2LSH(K=args.e2lsh_K, L=args.e2lsh_L, c=args.c,
                     seed=args.seed, page_manager=pm_for("e2lsh"))

    def linear():
        return LinearScan(page_manager=pm_for("linear"))

    def mplsh():
        return MultiProbeLSH(K=args.e2lsh_K, L=max(1, args.e2lsh_L // 8),
                             n_probes=args.mp_probes, c=args.c,
                             seed=args.seed, page_manager=pm_for("mplsh"))

    registry = {"c2lsh": c2lsh, "qalsh": qalsh, "lsb": lsb, "e2lsh": e2lsh,
                "mplsh": mplsh, "linear": linear}
    return {name: registry[name] for name in args.methods}


def _save(args, table, stem):
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        table.save_csv(os.path.join(args.out_dir, f"{stem}.csv"))
        _save_metrics(args, stem)


def _save_metrics(args, stem):
    """Write the active trace's metrics snapshot next to the CSV.

    ``main`` runs each experiment under a :class:`SnapshotSink` when
    ``--out-dir`` is given, so the phase/I-O aggregates of everything the
    experiment executed land in ``{stem}_metrics.json`` alongside
    ``{stem}.csv``.
    """
    tr = trace.current()
    if tr is None:
        return
    for sink in tr.sinks:
        if isinstance(sink, SnapshotSink):
            path = os.path.join(args.out_dir, f"{stem}_metrics.json")
            snapshot = sink.snapshot()
            # Full environment stamp (git SHA, host, cpu count, library
            # versions): two metrics files are only comparable — e.g. by
            # ``python -m repro.obs diff`` — when their provenance says
            # they came from comparable environments.
            snapshot["provenance"] = provenance()
            with open(path, "w") as fh:
                json.dump(snapshot, fh, indent=2, sort_keys=True)
            return


def _ground_truth(dataset, max_k):
    k = min(max_k, dataset.n)
    return dataset.ground_truth(k)


# --------------------------------------------------------------------------
# T1 — parameter table
# --------------------------------------------------------------------------

def exp_table_params(args):
    """T1: the parameters C2LSH derives per dataset and ratio c."""
    table = Table(
        ["dataset", "n", "dim", "c", "w", "p1", "p2", "alpha", "m", "l",
         "beta*n"],
        title="T1. C2LSH parameter settings",
    )
    for dataset in _datasets(args):
        for c in (2, 3):
            family = PStableFamily(dataset.dim, c=c)
            params = design_params(dataset.n, family, c=c, delta=args.delta)
            table.add(
                dataset.name, dataset.n, dataset.dim, c,
                f"{params.w:.3f}", f"{params.p1:.4f}", f"{params.p2:.4f}",
                f"{params.alpha:.4f}", params.m, params.l,
                params.false_positive_budget,
            )
    table.print()
    _save(args, table, "t1_params")
    return table


# --------------------------------------------------------------------------
# T2 — index size / build time table
# --------------------------------------------------------------------------

def _table_count(index):
    """How many sorted files/trees the index keeps (for build-I/O modeling)."""
    if hasattr(index, "params") and index.params is not None:
        return index.params.m
    for attr in ("m", "L"):
        value = getattr(index, attr, None)
        if isinstance(value, int) and value > 0:
            return value
    return 0


def exp_table_index(args):
    """T2: index pages, build time, and modeled external-sort build I/O."""
    from ..storage.extsort import external_sort_pages

    table = Table(
        ["dataset", "method", "build_s", "index_pages", "index_MB",
         "build_io(est)", "note"],
        title="T2. Index size and construction cost",
    )
    for dataset in _datasets(args):
        for name, factory in _method_factories(
                args, lambda _n: PageManager()).items():
            report = timed_build(factory, dataset.data)
            mb = report.index_pages * DEFAULT_PAGE_SIZE / 1e6
            tables = _table_count(report.index)
            pm = PageManager()
            build_io = tables * external_sort_pages(dataset.n, pm) \
                + pm.pages_for(dataset.n, dataset.dim * 8)
            table.add(dataset.name, name, f"{report.build_time:.2f}",
                      report.index_pages, f"{mb:.1f}", build_io, "built")
        # Analytic sizes at the *theoretical* parameter settings, which are
        # what makes E2LSH/LSB-forest impractically large (paper's point).
        pm = PageManager()
        per_table = pm.pages_for(dataset.n, 12)
        K_th, L_th = E2LSH.theoretical_parameters(dataset.n, c=args.c)
        table.add(dataset.name, "e2lsh(theory)", "-", L_th * per_table,
                  f"{L_th * per_table * DEFAULT_PAGE_SIZE / 1e6:.1f}", "-",
                  f"K={K_th} L={L_th}, single radius")
        m_th, L_lsb = LSBForest.theoretical_parameters(dataset.n, dataset.dim)
        table.add(dataset.name, "lsb(theory)", "-", L_lsb * per_table,
                  f"{L_lsb * per_table * DEFAULT_PAGE_SIZE / 1e6:.1f}", "-",
                  f"m={m_th} L={L_lsb} trees")
    table.print()
    _save(args, table, "t2_index")
    return table


# --------------------------------------------------------------------------
# F1/F2/F3 — ratio / I/O / time vs k
# --------------------------------------------------------------------------

def exp_vs_k(args):
    """F1+F2+F3: overall ratio, I/O cost and query time as k grows."""
    table = Table(
        ["dataset", "method", "k", "ratio", "recall", "io_pages",
         "candidates", "ms/query"],
        title="F1-F3. Accuracy and cost vs k",
    )
    for dataset in _datasets(args):
        gt_ids, gt_dists = _ground_truth(dataset, max(args.ks))
        factories = _method_factories(args, lambda _n: PageManager())
        for name, factory in factories.items():
            build = timed_build(factory, dataset.data)
            for k in args.ks:
                if k > dataset.n:
                    continue
                summary = timed_queries(build.index, dataset.queries, k,
                                        gt_ids[:, :k], gt_dists[:, :k])
                table.add(dataset.name, name, k, f"{summary.ratio:.4f}",
                          f"{summary.recall:.4f}",
                          f"{summary.io_reads:.0f}",
                          f"{summary.candidates:.0f}",
                          f"{summary.query_time * 1e3:.2f}")
    table.print()
    _save(args, table, "f1_f3_vs_k")
    _vs_k_charts(args, table)
    return table


def _vs_k_charts(args, table):
    """Terminal figures of the F1/F2 shapes (one per dataset)."""
    from .plots import AsciiChart

    if len(args.ks) < 2:
        return
    for dataset_name in dict.fromkeys(row[0] for row in table.rows):
        for column, index, y_log in (("ratio", 3, False),
                                     ("io_pages", 5, True)):
            chart = AsciiChart(width=56, height=12,
                               title=f"{column} vs k — {dataset_name}",
                               x_label="k", y_label=column, y_log=y_log)
            added = False
            for method in dict.fromkeys(row[1] for row in table.rows):
                points = [(row[2], float(row[index]))
                          for row in table.rows
                          if row[0] == dataset_name and row[1] == method
                          and float(row[index]) > 0]
                if points:
                    chart.add_series(method, [p[0] for p in points],
                                     [p[1] for p in points])
                    added = True
            if added:
                chart.print()


# --------------------------------------------------------------------------
# F4 — effect of the approximation ratio c
# --------------------------------------------------------------------------

def exp_effect_c(args):
    """F4: larger c buys cheaper queries at worse ratio (C2LSH and QALSH)."""
    table = Table(
        ["dataset", "method", "c", "k", "ratio", "recall", "io_pages",
         "candidates", "m"],
        title="F4. Effect of the approximation ratio c",
    )
    k = args.ks[len(args.ks) // 2]
    for dataset in _datasets(args):
        gt_ids, gt_dists = _ground_truth(dataset, k)
        for c in (2, 3):
            for name, cls in (("c2lsh", C2LSH), ("qalsh", QALSH)):
                index = cls(c=c, seed=args.seed,
                            page_manager=PageManager()).fit(dataset.data)
                summary = timed_queries(index, dataset.queries, k,
                                        gt_ids[:, :k], gt_dists[:, :k])
                m = index.params.m if name == "c2lsh" else index.m
                table.add(dataset.name, name, c, k, f"{summary.ratio:.4f}",
                          f"{summary.recall:.4f}",
                          f"{summary.io_reads:.0f}",
                          f"{summary.candidates:.0f}", m)
    table.print()
    _save(args, table, "f4_effect_c")
    return table


# --------------------------------------------------------------------------
# F5 — accuracy/cost trade-off via the false-positive budget
# --------------------------------------------------------------------------

def exp_tradeoff(args):
    """F5: sweeping beta trades candidates (cost) against recall."""
    table = Table(
        ["dataset", "beta*n", "k", "ratio", "recall", "io_pages",
         "candidates"],
        title="F5. Recall/cost trade-off (false-positive budget sweep)",
    )
    k = args.ks[len(args.ks) // 2]
    for dataset in _datasets(args):
        gt_ids, gt_dists = _ground_truth(dataset, k)
        for budget in (25, 50, 100, 200, 400):
            beta = min(budget / dataset.n, 0.9)
            index = C2LSH(c=args.c, beta=beta, seed=args.seed,
                          page_manager=PageManager()).fit(dataset.data)
            summary = timed_queries(index, dataset.queries, k,
                                    gt_ids[:, :k], gt_dists[:, :k])
            table.add(dataset.name, budget, k, f"{summary.ratio:.4f}",
                      f"{summary.recall:.4f}", f"{summary.io_reads:.0f}",
                      f"{summary.candidates:.0f}")
    table.print()
    _save(args, table, "f5_tradeoff")
    return table


# --------------------------------------------------------------------------
# A1 — ablation: collision-threshold percentage alpha
# --------------------------------------------------------------------------

def exp_ablation_alpha(args):
    """A1: thresholds off the optimum break the FP/FN balance."""
    table = Table(
        ["dataset", "alpha", "position", "k", "ratio", "recall",
         "candidates", "io_pages"],
        title="A1. Ablation: collision-threshold percentage alpha",
    )
    k = args.ks[len(args.ks) // 2]
    for dataset in _datasets(args):
        gt_ids, gt_dists = _ground_truth(dataset, k)
        family = PStableFamily(dataset.dim, c=args.c)
        base = design_params(dataset.n, family, c=args.c, delta=args.delta)
        p1, p2 = base.p1, base.p2
        positions = [
            ("near-p2", p2 + 0.10 * (p1 - p2)),
            ("optimal", base.alpha),
            ("near-p1", p1 - 0.10 * (p1 - p2)),
        ]
        for label, alpha in positions:
            index = C2LSH(c=args.c, alpha=alpha, m=base.m, seed=args.seed,
                          page_manager=PageManager()).fit(dataset.data)
            summary = timed_queries(index, dataset.queries, k,
                                    gt_ids[:, :k], gt_dists[:, :k])
            table.add(dataset.name, f"{alpha:.4f}", label, k,
                      f"{summary.ratio:.4f}", f"{summary.recall:.4f}",
                      f"{summary.candidates:.0f}",
                      f"{summary.io_reads:.0f}")
    table.print()
    _save(args, table, "a1_alpha")
    return table


# --------------------------------------------------------------------------
# A2 — ablation: incremental virtual rehashing vs full recounting
# --------------------------------------------------------------------------

def exp_ablation_rehash(args):
    """A2: re-counting from scratch at every radius costs strictly more I/O.

    The starting radius unit is deliberately shrunk to a quarter of the
    estimated near-distance unit so every query walks several radius
    levels — otherwise most queries finish in round one and the two modes
    coincide trivially.
    """
    from ..core.scaling import estimate_base_radius

    table = Table(
        ["dataset", "mode", "k", "recall", "io_pages", "scanned_entries"],
        title="A2. Ablation: incremental expansion vs full recount",
    )
    k = args.ks[len(args.ks) // 2]
    for dataset in _datasets(args):
        gt_ids, gt_dists = _ground_truth(dataset, k)
        unit = estimate_base_radius(dataset.data, rng=args.seed) / 4.0
        for label, incremental in (("incremental", True), ("recount", False)):
            index = C2LSH(c=args.c, seed=args.seed, incremental=incremental,
                          base_radius=unit,
                          page_manager=PageManager()).fit(dataset.data)
            summary = timed_queries(index, dataset.queries, k,
                                    gt_ids[:, :k], gt_dists[:, :k])
            table.add(dataset.name, label, k, f"{summary.recall:.4f}",
                      f"{summary.io_reads:.0f}",
                      f"{summary.scanned_entries:.0f}")
    table.print()
    _save(args, table, "a2_rehash")
    return table


# --------------------------------------------------------------------------
# A3 — scalability in n and dim
# --------------------------------------------------------------------------

def exp_scalability(args):
    """A3: candidate/I-O growth with n and dim on controlled synthetics."""
    table = Table(
        ["axis", "n", "dim", "method", "ratio", "recall", "io_pages",
         "candidates", "ms/query"],
        title="A3. Scalability in n and dim (synthetic clusters)",
    )
    k = 10
    n_grid = [2_000, 5_000, 10_000, 20_000]
    d_grid = [16, 64, 256]
    combos = [("n", n, 50) for n in n_grid] + [("dim", 10_000, d)
                                               for d in d_grid]
    for axis, n, dim in combos:
        raw = gaussian_clusters(n + args.queries, dim, n_clusters=20,
                                cluster_std=1.5, spread=10.0, seed=args.seed)
        data, queries = split_queries(raw, args.queries, seed=args.seed + 1)
        dataset = Dataset("synthetic", data, queries, "scalability grid")
        gt_ids, gt_dists = dataset.ground_truth(k)
        for name, factory in (
            ("c2lsh", lambda: C2LSH(c=args.c, seed=args.seed,
                                    page_manager=PageManager())),
            ("linear", lambda: LinearScan(page_manager=PageManager())),
        ):
            build = timed_build(factory, dataset.data)
            summary = timed_queries(build.index, dataset.queries, k,
                                    gt_ids[:, :k], gt_dists[:, :k])
            table.add(axis, dataset.n, dim, name, f"{summary.ratio:.4f}",
                      f"{summary.recall:.4f}", f"{summary.io_reads:.0f}",
                      f"{summary.candidates:.0f}",
                      f"{summary.query_time * 1e3:.2f}")
    table.print()
    _save(args, table, "a3_scalability")
    return table


# --------------------------------------------------------------------------
# A4 — termination conditions
# --------------------------------------------------------------------------

def exp_termination(args):
    """A4: T1 keeps cost bounded; T2 alone verifies the full FP budget."""
    table = Table(
        ["dataset", "variant", "k", "recall", "ratio", "io_pages",
         "candidates", "stopped_by"],
        title="A4. Ablation: termination rules",
    )
    k = args.ks[len(args.ks) // 2]
    for dataset in _datasets(args):
        gt_ids, gt_dists = _ground_truth(dataset, k)
        variants = (
            ("T1+T2", dict()),
            ("T2-only", dict(use_t1=False)),
            ("T1-only", dict(beta=0.999)),
        )
        for label, overrides in variants:
            index = C2LSH(c=args.c, seed=args.seed,
                          page_manager=PageManager(), **overrides)
            index.fit(dataset.data)
            start = time.perf_counter()
            results = index.query_batch(dataset.queries, k=k)
            elapsed = time.perf_counter() - start
            from .metrics import evaluate_results
            summary = evaluate_results(results, gt_ids[:, :k],
                                       gt_dists[:, :k], k,
                                       total_time=elapsed)
            stops = sorted({r.stats.terminated_by for r in results})
            table.add(dataset.name, label, k, f"{summary.recall:.4f}",
                      f"{summary.ratio:.4f}", f"{summary.io_reads:.0f}",
                      f"{summary.candidates:.0f}", "/".join(stops))
    table.print()
    _save(args, table, "a4_termination")
    return table


# --------------------------------------------------------------------------
# A5 — data-file layout (verification locality)
# --------------------------------------------------------------------------

def exp_layout(args):
    """A5: clustering the data file turns candidate locality into I/O."""
    table = Table(
        ["dataset", "layout", "k", "recall", "io_pages", "candidates"],
        title="A5. Ablation: raw-vector file layout",
    )
    k = args.ks[len(args.ks) // 2]
    for dataset in _datasets(args):
        gt_ids, gt_dists = _ground_truth(dataset, k)
        for layout in ("scattered", "id", "zorder"):
            index = C2LSH(c=args.c, seed=args.seed, data_layout=layout,
                          page_manager=PageManager()).fit(dataset.data)
            summary = timed_queries(index, dataset.queries, k,
                                    gt_ids[:, :k], gt_dists[:, :k])
            table.add(dataset.name, layout, k, f"{summary.recall:.4f}",
                      f"{summary.io_reads:.0f}",
                      f"{summary.candidates:.0f}")
    table.print()
    _save(args, table, "a5_layout")
    return table


# --------------------------------------------------------------------------
# devices — page counts priced on HDD / SSD / NVMe
# --------------------------------------------------------------------------

def exp_devices(args):
    """Estimated per-query device time for every method (cost model).

    Index probes/verifications are priced as random reads; the linear
    scan reads the data file front to back, so its pages amortize seeks
    over one long run.
    """
    from ..storage import IOStats
    from ..storage.costmodel import HDD, NVME, SSD, estimate_seconds

    table = Table(
        ["dataset", "method", "io_pages", "access", "hdd_ms", "ssd_ms",
         "nvme_ms", "cpu_ms"],
        title="Device-time estimates per query (k=10)",
    )
    k = 10
    for dataset in _datasets(args):
        gt_ids, gt_dists = _ground_truth(dataset, k)
        factories = _method_factories(args, lambda _n: PageManager())
        for name, factory in factories.items():
            build = timed_build(factory, dataset.data)
            summary = timed_queries(build.index, dataset.queries, k,
                                    gt_ids[:, :k], gt_dists[:, :k])
            pages = int(round(summary.io_reads))
            io = IOStats(reads=pages, writes=0)
            run = max(1, pages) if name == "linear" else 1
            table.add(dataset.name, name, pages,
                      "seq" if name == "linear" else "random",
                      f"{estimate_seconds(io, HDD, read_run_length=run) * 1e3:.1f}",
                      f"{estimate_seconds(io, SSD, read_run_length=run) * 1e3:.2f}",
                      f"{estimate_seconds(io, NVME, read_run_length=run) * 1e3:.3f}",
                      f"{summary.query_time * 1e3:.2f}")
    table.print()
    _save(args, table, "devices")
    return table


# --------------------------------------------------------------------------
# compare — paired significance test between two methods
# --------------------------------------------------------------------------

def exp_compare(args):
    """Paired sign test + bootstrap CI between the first two --methods."""
    from .significance import bootstrap_mean_diff, sign_test

    if len(args.methods) < 2:
        raise SystemExit("compare needs two entries in --methods")
    name_a, name_b = args.methods[0], args.methods[1]
    table = Table(
        ["dataset", "metric", f"mean({name_a})", f"mean({name_b})",
         "wins/losses/ties", "p(sign)", "CI(mean diff)"],
        title=f"Paired comparison: {name_a} vs {name_b} "
              f"(k={args.ks[len(args.ks) // 2]})",
    )
    k = args.ks[len(args.ks) // 2]
    for dataset in _datasets(args):
        gt_ids, gt_dists = _ground_truth(dataset, k)
        factories = _method_factories(args, lambda _n: PageManager())
        summaries = {}
        for name in (name_a, name_b):
            build = timed_build(factories[name], dataset.data)
            summaries[name] = timed_queries(build.index, dataset.queries,
                                            k, gt_ids[:, :k],
                                            gt_dists[:, :k])
        for metric in ("recalls", "ratios"):
            a = getattr(summaries[name_a], metric)
            b = getattr(summaries[name_b], metric)
            test = sign_test(a, b)
            boot = bootstrap_mean_diff(a, b, seed=args.seed)
            table.add(
                dataset.name, metric[:-1],
                f"{np.mean(a):.4f}", f"{np.mean(b):.4f}",
                f"{test.wins}/{test.losses}/{test.ties}",
                f"{test.p_value:.3f}",
                f"[{boot.ci_low:+.4f}, {boot.ci_high:+.4f}]",
            )
    table.print()
    _save(args, table, "compare")
    return table


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------

EXPERIMENTS = {
    "table-params": exp_table_params,
    "table-index": exp_table_index,
    "vs-k": exp_vs_k,
    "effect-c": exp_effect_c,
    "tradeoff": exp_tradeoff,
    "ablation-alpha": exp_ablation_alpha,
    "ablation-rehash": exp_ablation_rehash,
    "scalability": exp_scalability,
    "termination": exp_termination,
    "layout": exp_layout,
    "devices": exp_devices,
    "compare": exp_compare,
}


def build_parser():
    """The harness's argparse CLI (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="c2lsh-harness",
        description="Regenerate the C2LSH paper's tables and figures.",
    )
    parser.add_argument("experiment",
                        choices=sorted(EXPERIMENTS) + ["all"],
                        help="experiment ID from DESIGN.md section 6")
    parser.add_argument("--datasets", nargs="+", default=["mnist", "color"],
                        choices=sorted(PROFILES),
                        help="dataset profiles to run on")
    parser.add_argument("--scale", type=float, default=0.1,
                        help="dataset size multiplier (1.0 = paper size)")
    parser.add_argument("--queries", type=int, default=50,
                        help="held-out queries per dataset")
    parser.add_argument("--ks", type=int, nargs="+", default=list(DEFAULT_KS),
                        help="k values for the vs-k experiments")
    parser.add_argument("--c", type=int, default=2,
                        help="approximation ratio")
    parser.add_argument("--delta", type=float, default=0.01,
                        help="false-negative probability bound")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--methods", nargs="+",
                        default=["c2lsh", "qalsh", "lsb", "e2lsh", "mplsh",
                                 "linear"],
                        choices=["c2lsh", "qalsh", "lsb", "e2lsh", "mplsh",
                                 "linear"])
    parser.add_argument("--mp-probes", type=int, default=16,
                        help="extra probes per table for Multi-Probe LSH")
    parser.add_argument("--lsb-trees", type=int, default=10,
                        help="LSB-forest trees (theory value is far larger)")
    parser.add_argument("--e2lsh-K", type=int, default=8)
    parser.add_argument("--e2lsh-L", type=int, default=64)
    parser.add_argument("--out-dir", default=None,
                        help="directory to drop per-experiment CSVs into")
    return parser


def _run_experiment(name, args, sink=None):
    """Run one experiment, traced into the sweep's shared sink.

    ``sink`` is the one :class:`SnapshotSink` ``main`` creates for the
    whole sweep when ``--out-dir`` is given; it is reset between
    experiments (see :meth:`SnapshotSink.reset`) so each
    ``{stem}_metrics.json`` reflects exactly one experiment.
    """
    if sink is not None:
        sink.reset()
        with tracing(sink, keep_events=False):
            return EXPERIMENTS[name](args)
    return EXPERIMENTS[name](args)


def _run_safely(name, args, sink=None):
    """Run one experiment, containing failures so a sweep can continue.

    Returns True on success. An unexpected exception is reported on
    stderr and — when ``--out-dir`` is given — recorded as
    ``{name}_error.json`` (type, message, traceback) next to where the
    experiment's CSV would have landed, plus a flight-recorder postmortem
    (``{name}_flight.json``) holding the telemetry tail leading up to the
    crash — so a long sweep both keeps going and leaves a
    machine-readable trail of what broke.
    ``KeyboardInterrupt`` and ``SystemExit`` still propagate: argument
    errors and user interrupts must not be swallowed as experiment
    failures.
    """
    try:
        _run_experiment(name, args, sink)
        return True
    except Exception as exc:
        print(f"experiment {name} failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        flight.note("experiment_failed", experiment=name,
                    error=type(exc).__name__, message=str(exc))
        if args.out_dir:
            os.makedirs(args.out_dir, exist_ok=True)
            stem = name.replace("-", "_")
            payload = {
                "experiment": name,
                "error": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(),
            }
            with open(os.path.join(args.out_dir,
                                   f"{stem}_error.json"), "w") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
            flight.dump("experiment_failed",
                        extra={"experiment": name},
                        path=os.path.join(args.out_dir,
                                          f"{stem}_flight.json"),
                        force=True)
        return False


def main(argv=None):
    """CLI entry point; returns a process exit code.

    Individual experiments are fault-contained (see :func:`_run_safely`):
    a crash in one experiment of an ``all`` sweep is logged and the sweep
    continues; the exit code is 1 when anything failed.
    """
    args = build_parser().parse_args(argv)
    names = list(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    sink = SnapshotSink() if args.out_dir else None
    failed = []
    for name in names:
        if args.experiment == "all":
            print(f"== {name} ==")
        if not _run_safely(name, args, sink):
            failed.append(name)
    if failed:
        print(f"{len(failed)} experiment(s) failed: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
