"""Result and statistics containers shared by all indexes."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["QueryStats", "QueryResult"]


@dataclass
class QueryStats:
    """Work performed to answer one query.

    Attributes
    ----------
    rounds:
        Radius-expansion rounds executed (C2LSH/QALSH) or probe rounds.
    final_radius:
        Grid radius of the last round (0 when radii do not apply): an
        int on C2LSH's integer grid, the real radius for QALSH.
    candidates:
        Number of objects whose true distance was computed.
    scanned_entries:
        Hash-table / leaf entries read while counting or sweeping.
    io_reads / io_writes:
        Page I/O charged during the query (0 in pure in-memory mode).
    terminated_by:
        Which rule stopped the search: ``"T1"``, ``"T2"``, ``"exhausted"``,
        ``"budget"`` or an index-specific label.
    elapsed_s:
        Wall-clock seconds from the query entering the engine until its
        result was final. The sequential path times each call; the batch
        engine stamps each query when it terminates, so the value is the
        query's observed latency inside its batch (not a per-query share
        of the batch total).
    degraded:
        True when the result is best-effort rather than a full search:
        a :class:`repro.reliability.QueryBudget` cap tripped
        (``budget_exhausted`` names it), or — on the sharded engine —
        one or more shards were lost to worker failure while the query
        ran (``failed_shards`` names them). Always False for unbudgeted
        queries on healthy deployments.
    budget_exhausted:
        Which budget cap tripped (``"deadline"``, ``"io_pages"`` or
        ``"candidates"``); empty when no cap tripped.
    failed_shards:
        Shard ids whose rows could not contribute to this answer because
        their worker was dead or quarantined while the query was active
        (sharded engine, ``on_worker_failure="degrade"`` or a tripped
        circuit breaker). Empty on healthy deployments and under the
        ``"rebuild"`` policy, whose answers are never degraded.
    probes_issued / probes_skipped:
        Per-table bucket probes executed vs. avoided (adaptive probing:
        estimator-skipped start rounds plus early-exited tables; both 0
        in classic mode, which probes every table every round).
    """

    rounds: int = 0
    final_radius: float = 0
    candidates: int = 0
    scanned_entries: int = 0
    io_reads: int = 0
    io_writes: int = 0
    terminated_by: str = ""
    elapsed_s: float = 0.0
    degraded: bool = False
    budget_exhausted: str = ""
    failed_shards: tuple = ()
    probes_issued: int = 0
    probes_skipped: int = 0


@dataclass
class QueryResult:
    """Top-``k`` answer to one query, sorted by ascending distance."""

    ids: np.ndarray
    distances: np.ndarray
    stats: QueryStats = field(default_factory=QueryStats)

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.distances = np.asarray(self.distances, dtype=np.float64)
        if self.ids.shape != self.distances.shape:
            raise ValueError("ids and distances must have the same shape")
        if self.distances.size > 1 and np.any(np.diff(self.distances) < 0):
            raise ValueError("result distances must be sorted ascending")

    def __len__(self):
        return self.ids.shape[0]

    @staticmethod
    def from_candidates(ids, distances, k, stats=None):
        """Select the ``k`` nearest of the verified candidates."""
        ids = np.asarray(ids, dtype=np.int64)
        distances = np.asarray(distances, dtype=np.float64)
        if ids.shape != distances.shape:
            raise ValueError("ids and distances must have the same shape")
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        if ids.size > k:
            keep = np.argpartition(distances, k - 1)[:k]
            ids, distances = ids[keep], distances[keep]
        order = np.argsort(distances, kind="stable")
        return QueryResult(ids[order], distances[order],
                           stats or QueryStats())
