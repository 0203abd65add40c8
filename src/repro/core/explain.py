"""EXPLAIN for C2LSH queries: a per-round trace of the search.

Debugging an approximate index means answering "why did this query stop
where it did?". :func:`explain` runs the query under a
:mod:`repro.obs` trace and rebuilds, per radius round: the grid radius,
entries scanned, objects that crossed the collision threshold, the
closest verified distance so far, the state of both termination rules,
and the I/O bill — then renders it as a table.

The round records come straight from the ``"round"`` span attributes the
engine itself emits (``QueryState.annotate``, on every path), so the
telemetry stream is the single source of truth: what EXPLAIN shows is
literally what ``query`` did, not a re-implementation of the search
loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..eval.reporting import Table
from ..obs import tracing
from ..validation import as_query_vector

__all__ = ["RoundTrace", "QueryExplanation", "explain",
           "ShardSpanTrace", "ShardedQueryExplanation", "explain_sharded"]


@dataclass
class RoundTrace:
    """What one radius round did.

    The probe columns are populated by adaptive-mode queries
    (``probe="adaptive"``): per-table probes executed vs. avoided and the
    page bill the avoided probes would have cost. Classic rounds render
    zeros — the classic engine probes every table every round and skips
    nothing. ``skipped`` marks a start round the adaptive estimator
    proved outcome-free and never ran.
    """

    radius: int
    scanned_entries: int
    new_candidates: int
    total_candidates: int
    best_distance: float
    t1_threshold: float
    within_t1: int
    io_reads: int
    probes_issued: int = 0
    probes_skipped: int = 0
    pages_saved: int = 0
    skipped: bool = False


@dataclass
class QueryExplanation:
    """Full account of one query's execution."""

    rounds: list
    terminated_by: str
    k: int
    target: int          # the T2 candidate cap (k + beta*n)
    result_ids: np.ndarray
    result_distances: np.ndarray

    def render(self):
        """The trace as an aligned text table plus a verdict line."""
        table = Table(
            ["round", "radius", "scanned", "new_cand", "total_cand",
             "best_dist", "T1_thresh", "within_T1", "io_pages",
             "probes", "skipped", "pages_saved"],
            title=f"Query explanation (k={self.k}, "
                  f"T2 cap={self.target})",
        )
        for i, r in enumerate(self.rounds, start=1):
            table.add("skip" if r.skipped else i, r.radius,
                      r.scanned_entries, r.new_candidates,
                      r.total_candidates,
                      f"{r.best_distance:.4f}" if np.isfinite(
                          r.best_distance) else "-",
                      f"{r.t1_threshold:.4f}", r.within_t1, r.io_reads,
                      r.probes_issued, r.probes_skipped, r.pages_saved)
        verdict = {
            "T1": "stopped by T1: enough verified candidates within c*R",
            "T2": "stopped by T2: the false-positive budget filled",
            "T2-early": "stopped by provisional T2: projected crossers "
                        "filled the budget mid-round",
            "exhausted": "stopped because the tables were exhausted",
            "fallback": "fell back to count-ordered verification",
            "budget": "stopped by the query budget (degraded result)",
        }.get(self.terminated_by, self.terminated_by)
        return table.render() + f"\n=> {verdict}"

    def print(self, file=None):
        """Print the rendered explanation."""
        print(self.render(), file=file)


@dataclass
class ShardSpanTrace:
    """One worker-side span as observed during a sharded query.

    ``round_no`` is the coordinator round the span belongs to (0 for the
    fallback phase); ``pid`` identifies the worker process, proving the
    span really was recorded on the shard side and propagated back.
    """

    round_no: int
    radius: int
    shard: int
    pid: int
    scanned: int
    candidates: int
    pages: int
    seconds: float
    probes_issued: int = 0
    probes_skipped: int = 0


@dataclass
class ShardedQueryExplanation:
    """Full account of one sharded query's execution, per shard."""

    spans: list              # ShardSpanTrace, (round, shard) order
    terminated_by: str
    k: int
    n_shards: int
    io_reads: int            # coordinator-aggregated page total
    result_ids: np.ndarray
    result_distances: np.ndarray

    def render(self):
        """The per-shard timeline as a table plus a verdict line."""
        table = Table(
            ["round", "radius", "shard", "pid", "scanned",
             "new_cand", "pages", "probes", "skipped", "ms"],
            title=f"Sharded query explanation (k={self.k}, "
                  f"{self.n_shards} shards, {self.io_reads} pages)",
        )
        for s in self.spans:
            table.add(s.round_no if s.round_no else "FB",
                      s.radius if s.radius else "-",
                      s.shard, s.pid, s.scanned,
                      s.candidates, s.pages, s.probes_issued,
                      s.probes_skipped, f"{s.seconds * 1e3:.3f}")
        verdict = {
            "T1": "stopped by T1: enough verified candidates within c*R",
            "T2": "stopped by T2: the false-positive budget filled",
            "exhausted": "stopped because the tables were exhausted",
            "fallback": "fell back to count-ordered verification",
            "budget": "stopped by the query budget (degraded result)",
        }.get(self.terminated_by, self.terminated_by)
        return table.render() + f"\n=> {verdict}"

    def print(self, file=None):
        """Print the rendered explanation."""
        print(self.render(), file=file)


def explain_sharded(engine, query, k=1, probe=None):
    """Trace one sharded query; per-shard rounds from worker spans.

    Runs the real :meth:`~repro.sharding.ShardedC2LSH.query` under a
    local telemetry trace. The coordinator's ``shard.round`` spans give
    the round timeline; the ``shard.worker.round`` /
    ``shard.worker.fallback`` spans — recorded *inside the worker
    process* and shipped back on the round payloads — give the per-shard
    rows, each stamped with the worker's pid. The sum of per-shard
    ``pages`` equals the query's aggregate ``io_reads``.
    ``probe="adaptive"`` traces the adaptive protocol; its rows
    additionally show per-shard probes issued vs. skipped (classic rows
    render zeros).
    """
    engine._require_fitted()
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    query = as_query_vector(query, engine.dim)

    with tracing() as tr:
        result = engine.query(query, k=k, probe=probe)

    # Coordinator rounds close in radius order; number them 1..R so the
    # worker spans (matched by radius) can be grouped per round.
    round_no = {}
    for ev in tr.events:
        if getattr(ev, "name", None) == "shard.round":
            round_no.setdefault(ev.attrs["radius"], len(round_no) + 1)

    spans = []
    for ev in tr.events:
        name = getattr(ev, "name", None)
        if name not in ("shard.worker.round", "shard.worker.fallback"):
            continue
        attrs = ev.attrs
        radius = int(attrs.get("radius", 0))
        spans.append(ShardSpanTrace(
            round_no=round_no.get(radius, 0) if name.endswith(".round")
            else 0,
            radius=radius,
            shard=int(attrs["shard"]),
            pid=int(attrs["pid"]),
            scanned=int(attrs.get("scanned", 0)),
            candidates=int(attrs.get("candidates",
                                     attrs.get("queries", 0))),
            pages=int(attrs.get("pages", 0)),
            seconds=float(ev.duration_s),
            probes_issued=int(attrs.get("probes_issued", 0)),
            probes_skipped=int(attrs.get("probes_skipped", 0)),
        ))
    spans.sort(key=lambda s: (s.round_no or len(round_no) + 1, s.shard))
    return ShardedQueryExplanation(
        spans=spans, terminated_by=result.stats.terminated_by, k=k,
        n_shards=engine.n_shards, io_reads=result.stats.io_reads,
        result_ids=result.ids, result_distances=result.distances,
    )


def explain(index, query, k=1, probe=None):
    """Trace one C2LSH query round by round.

    Runs the real :meth:`~repro.core.c2lsh.C2LSH.query` under a local
    telemetry trace and decodes the emitted ``"round"`` spans into
    :class:`RoundTrace` records, so the explanation is guaranteed to match
    what the engine actually executed (same counter, same verification,
    same termination decision).

    Parameters
    ----------
    index:
        A fitted :class:`repro.core.c2lsh.C2LSH` over a rehashable family.
    query, k:
        As for ``index.query``.
    probe:
        Probing mode, as for ``index.query``. Under ``"adaptive"`` the
        trace includes estimator-skipped start rounds (rendered as
        ``skip`` rows) and per-round probes issued/skipped with the page
        bill the skips saved; classic traces render zeros there.

    Returns
    -------
    QueryExplanation
    """
    index._require_fitted()
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if not index._funcs.rehashable:
        raise ValueError("explain requires a rehashable family "
                         "(radius rounds do not exist otherwise)")
    query = as_query_vector(query, index._data.shape[1])
    params = index.params
    n = index._data.shape[0]
    target = min(n, k + params.false_positive_budget)

    with tracing() as tr:
        result = index.query(query, k=k, probe=probe)

    rounds = [
        RoundTrace(
            radius=ev.attrs["radius"],
            scanned_entries=ev.attrs["scanned"],
            new_candidates=ev.attrs["new_candidates"],
            total_candidates=ev.attrs["total_candidates"],
            best_distance=ev.attrs["best_distance"],
            t1_threshold=ev.attrs["t1_threshold"],
            within_t1=ev.attrs["within_t1"],
            io_reads=ev.attrs["io_reads"],
            probes_issued=ev.attrs.get("probes_issued", 0),
            probes_skipped=ev.attrs.get("probes_skipped", 0),
            pages_saved=ev.attrs.get("pages_saved", 0),
            skipped=bool(ev.attrs.get("skipped", False)),
        )
        for ev in tr.events
        if getattr(ev, "name", None) == "round"
    ]
    return QueryExplanation(
        rounds=rounds, terminated_by=result.stats.terminated_by, k=k,
        target=target, result_ids=result.ids,
        result_distances=result.distances,
    )
