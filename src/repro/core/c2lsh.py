"""The C2LSH index: dynamic collision counting for c-approximate k-NN.

Usage::

    import numpy as np
    from repro import C2LSH

    rng = np.random.default_rng(0)
    data = rng.standard_normal((10_000, 32))
    index = C2LSH(c=2, seed=0).fit(data)
    result = index.query(data[0], k=10)
    result.ids, result.distances, result.stats

The index builds ``m`` single-function hash tables (``m`` chosen by the
Hoeffding-bound machinery in :mod:`repro.core.params`), then answers a query
by growing the search radius through ``{1, c, c^2, ...}`` and *verifying*
every object that collides with the query in at least ``l`` tables. It
terminates when enough verified candidates are provably close (**T1**) or
when the false-positive budget is exhausted (**T2**), which yields the
paper's ``c^2``-approximation guarantee with probability ``1/2 - delta``.

With a non-rehashable family (sign projections, bit sampling) the index runs
in single-granularity mode: one counting round at the base granularity, then
a graceful fallback that verifies objects in decreasing collision-count
order until ``k`` answers exist. This family-independence mode is an
extension beyond the 2012 paper (DESIGN.md §7).
"""

from __future__ import annotations

import time

import numpy as np

from ..hashing.pstable import PStableFamily
from ..obs import trace
from ..reliability.budget import as_budget_list
from ..validation import as_data_matrix, as_query_matrix, as_query_vector
from ..storage.datafile import DataFile
from .adaptive import CLASSIC, as_probe_config, check_adaptive_supported
from .batchengine import (BatchQueryCounter, LocalRounds, QueryRounds,
                          QueryState, answer_one, batch_query)
from .counting import CollisionCounter
from .scaling import resolve_base_radius
from .params import C2LSHParams, design_params
from .results import QueryResult, QueryStats

__all__ = ["C2LSH"]

#: Batch queries are processed in blocks of this many to bound the batch
#: engine's (block, n) working matrices; see :meth:`C2LSH.query_batch`.
_BATCH_BLOCK = 1024


class C2LSH:
    """Locality-sensitive hashing with dynamic collision counting.

    Parameters
    ----------
    family:
        An :class:`repro.hashing.LSHFamily`. Defaults to a
        :class:`PStableFamily` (Euclidean) constructed at :meth:`fit` time
        with width ``w`` (or the rho-minimizing width for ``c``).
    c:
        Integer approximation ratio (the guarantee is ``c**2``).
    w:
        Bucket width for the default family; ignored when ``family`` given.
    beta, delta, alpha, m:
        Parameter overrides forwarded to
        :func:`repro.core.params.design_params`.
    seed:
        Seed for the hash-function sample (or pass a ``Generator`` as
        ``rng``).
    page_manager:
        Optional :class:`repro.storage.PageManager`; enables I/O accounting.
    base_radius:
        The dataset's near-distance unit. ``"auto"`` (default) estimates it
        from a sample at :meth:`fit` time (see :mod:`repro.core.scaling`);
        points are divided by it before hashing so the radius grid
        ``{1, c, ...}`` starts at nearest-neighbor scale. Only applied to
        Euclidean families.
    data_layout:
        Placement policy of the raw-vector file: ``"scattered"`` (default,
        the paper's one-page-per-candidate model), ``"id"`` or ``"zorder"``
        (charge per distinct page; see :class:`repro.storage.DataFile` and
        the A5 ablation).
    incremental:
        When false, recount from scratch at every radius (A2 ablation).
    use_t1:
        When false, disable the T1 ("k candidates within c*R") stopping
        rule; search then runs until the false-positive budget fills or the
        tables are exhausted (A4 ablation).
    """

    def __init__(self, family=None, c=2, w=None, beta=None, delta=0.01,
                 alpha=None, m=None, seed=None, rng=None, page_manager=None,
                 base_radius="auto", data_layout="scattered",
                 incremental=True, use_t1=True):
        self._family = family
        self._c = int(c)
        self._w = w
        self._beta = beta
        self._delta = delta
        self._alpha = alpha
        self._m_override = m
        if rng is None:
            rng = np.random.default_rng(seed)
        self._rng = rng
        self._pm = page_manager
        self._base_radius = base_radius
        self._data_layout = data_layout
        self._scale = 1.0
        self._incremental = bool(incremental)
        self._use_t1 = bool(use_t1)

        self.params: C2LSHParams | None = None
        self._data = None
        self._datafile = None
        self._funcs = None
        self._counter = None

    # -- indexing ------------------------------------------------------------

    def fit(self, data):
        """Build the index over ``data`` of shape ``(n, dim)``; returns self."""
        data = as_data_matrix(data)
        return self._assemble(data, *self._design(data))

    def _design(self, data):
        """The design for ``data``: ``(family, funcs, params, scale)``.

        Draws from the RNG in a fixed order, the distance-scale sample
        first and the hash functions second, so a sharded engine holding
        the same knobs and seed designs exactly this index.
        """
        n, dim = data.shape
        family = self._family
        if family is None:
            family = PStableFamily(dim, w=self._w, c=self._c)
        scale = 1.0
        if family.metric in ("euclidean", "manhattan"):
            scale = resolve_base_radius(self._base_radius, data, self._rng,
                                        metric=family.metric)
        params = design_params(
            n, family, c=self._c, beta=self._beta, delta=self._delta,
            alpha=self._alpha, m=self._m_override,
        )
        return family, family.sample(params.m, self._rng), params, scale

    def _assemble(self, data, family, funcs, params, scale):
        """Index ``data`` under a design: hash the rows, build the tables
        and the data file. Fit, load and every shard build run this."""
        self._family, self._funcs, self.params = family, funcs, params
        self._scale = scale
        self._data = data
        # ``pop`` hands the counter the only reference to the hashes, so
        # its build can drop them once they are coded.
        self._counter = CollisionCounter(
            [funcs.hash(self._hash_view(data))].pop, self._pm)
        # The data file charges its own build write and verification reads.
        self._datafile = DataFile(data, self._pm, layout=self._data_layout)
        return self

    @property
    def is_fitted(self):
        """Whether fit() has been called."""
        return self._counter is not None

    def _require_fitted(self):
        if not self.is_fitted:
            raise RuntimeError("index is not fitted; call fit(data) first")

    @property
    def m(self):
        """Number of hash tables the fitted index uses."""
        self._require_fitted()
        return self.params.m

    @property
    def l(self):
        """Collision threshold of the fitted index."""
        self._require_fitted()
        return self.params.l

    def index_pages(self):
        """Pages occupied by the hash tables (excluding the raw data file)."""
        self._require_fitted()
        if self._pm is None:
            raise RuntimeError("index was built without a page manager")
        return self._counter.storage_pages(self._pm)

    # -- querying ------------------------------------------------------------

    def query(self, query, k=1, budget=None, probe=None):
        """Answer a c-k-ANN query; returns a :class:`QueryResult`.

        ``budget`` optionally caps the query's work with a
        :class:`repro.reliability.QueryBudget`; on overrun the verified
        candidates collected so far are returned with
        ``stats.degraded = True`` instead of the search running on.

        ``probe`` selects the probing schedule: ``"classic"`` (default)
        walks the full paper-exact radius grid; ``"adaptive"`` (or an
        :class:`repro.core.AdaptiveConfig`) skips provably-empty start
        rounds, probes tables most-promising-first and early-exits rounds
        — far fewer pages read, same result contract (see
        :mod:`repro.core.adaptive` and docs/PERFORMANCE.md).
        """
        self._require_fitted()
        config = as_probe_config(probe)
        query = as_query_vector(query, self._data.shape[1])
        if config is not None:
            return self.query_batch(query[None, :], k=k, budget=budget,
                                    probe=config)[0]
        started = time.perf_counter()
        with trace.span("query", k=int(k)) as qspan:
            with trace.span("hash"):
                qids = self._funcs.hash(self._hash_view(query))
            return self._query_hashed(query, qids, k, started=started,
                                      qspan=qspan, budget=budget)

    def _query_hashed(self, query, query_bucket_ids, k, started=None,
                      qspan=trace.NULL_SPAN, budget=None):
        """Query with precomputed bucket ids (batch path hashes once).

        Runs the block driver over a one-query block: a
        :class:`~repro.core.batchengine.LocalRounds` of the classic
        schedule, the counting ``query_batch`` does, or in the A2 recount
        ablation a :class:`~repro.core.batchengine.QueryRounds` over the
        sequential :class:`~repro.core.counting.QueryCounter`.
        ``started`` anchors ``stats.elapsed_s`` (defaults to now);
        ``qspan`` is the enclosing telemetry span, annotated with the
        final stats before it closes. ``budget`` is checked at round
        boundaries: an exhausted cap stops the radius walk after the
        in-flight round's verification completes.
        """
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        state = QueryState(
            1, k, self.params, self._data.shape[0], self._scale,
            t1=self._use_t1 and self._funcs.rehashable,
            budgets=as_budget_list(budget, 1),
            started=started if started is not None else time.perf_counter(),
            accounting=self._pm is not None, engine="sequential",
            probing=False,
        )
        if self._incremental:
            source = LocalRounds(self, query[None, :],
                                 query_bucket_ids[None, :], None, CLASSIC)
        else:
            source = QueryRounds(self, query, self._counter.start_query(
                query_bucket_ids, incremental=False))
        return answer_one(state, source, qspan)

    def query_radius(self, query, radius, k=1):
        """Answer the decision-version (R, c)-NNS the paper formalizes.

        Runs a *single* virtual-rehashing level — the smallest grid power
        ``c^i >= radius`` (in base-radius units; ``radius`` itself is in
        original distance units) — and verifies frequent objects until
        ``k`` of them lie within ``c * radius`` (success) or the
        false-positive budget fills.

        Returns a :class:`QueryResult` holding up to ``k`` objects within
        ``c * radius`` of ``query``; an **empty** result means "no point
        within ``radius``" in the (R, c)-NNS sense (correct with the usual
        probability when no point is within ``radius``; undefined in the
        gap zone).
        """
        self._require_fitted()
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        if not self._funcs.rehashable:
            raise ValueError(
                "query_radius needs a rehashable (quantized-projection) "
                "family"
            )
        query = as_query_vector(query, self._data.shape[1])
        started = time.perf_counter()
        params = self.params
        grid_radius = 1
        while grid_radius * self._scale < radius:
            grid_radius *= params.c
        target = min(self._data.shape[0],
                     k + params.false_positive_budget)
        snapshot = self._pm.snapshot() if self._pm is not None else None

        with trace.span("query", k=int(k), decision=True) as qspan:
            with trace.span("hash"):
                qids = self._funcs.hash(self._hash_view(query))
            counter = BatchQueryCounter(self._counter, qids[None, :])
            with trace.span("count_round", radius=grid_radius):
                scanned, _ = counter.expand(grid_radius,
                                            np.zeros(1, dtype=np.int64))
                frequent = np.flatnonzero(
                    counter.counts[0] >= params.l)[:target]
            with trace.span("verify", count=int(frequent.size)):
                dists = self._verify(frequent, query)
            keep = dists <= params.c * radius
            stats = QueryStats(rounds=1, final_radius=grid_radius,
                               candidates=int(frequent.size),
                               scanned_entries=int(scanned[0]),
                               terminated_by="decision")
            if snapshot is not None:
                delta_io = self._pm.since(snapshot)
                stats.io_reads = delta_io.reads
                stats.io_writes = delta_io.writes
            stats.elapsed_s = time.perf_counter() - started
            qspan.set(rounds=1, candidates=stats.candidates,
                      io_reads=stats.io_reads, io_writes=stats.io_writes,
                      terminated_by=stats.terminated_by,
                      elapsed_s=stats.elapsed_s)
        return QueryResult.from_candidates(
            frequent[keep], dists[keep], k, stats
        ) if np.any(keep) else QueryResult(
            np.empty(0, np.int64), np.empty(0), stats
        )

    @property
    def base_radius(self):
        """The distance unit the radius grid is expressed in."""
        self._require_fitted()
        return self._scale

    def _hash_view(self, points):
        """Points in radius-grid units (hashing only; never verification)."""
        if self._scale == 1.0:
            return points
        return points / self._scale

    def _verify(self, ids, query):
        """True distances for ``ids``, charging reads per the data layout."""
        return self._family.distance(self._datafile.read(ids), query)

    def query_batch(self, queries, k=1, budget=None, probe=None):
        """Answer many queries; returns a list of :class:`QueryResult`.

        Queries run through the lockstep batch engine
        (:mod:`repro.core.batchengine`): hashing is one ``(q, m)`` matrix
        product, and every radius round advances all still-active queries
        with one bucket lookup and one counting pass. Results — ids,
        distances, stats, charged I/O — are identical to looping
        :meth:`query`; only the throughput changes. Candidate
        distances are verified on the calling thread, one query's
        candidates at a time.

        ``budget`` applies a :class:`repro.reliability.QueryBudget` to
        every query in the batch individually, with the same
        graceful-degradation semantics as :meth:`query`; a *sequence* of
        budgets (``None`` entries unbudgeted) instead budgets each query
        separately — how the serving front-end coalesces requests
        carrying different per-client deadlines into one batch. With
        ``incremental=False`` (the A2 recount ablation) each query runs
        :meth:`query`'s one-query path in turn, so the ablation's I/O
        pattern stays untouched. Batches larger than 1024 queries are processed in
        blocks to bound the engine's ``(block, n)`` working matrices.

        ``probe="adaptive"`` (or an :class:`repro.core.AdaptiveConfig`)
        runs the same block driver on the query-adaptive schedule
        (:mod:`repro.core.adaptive`): estimated radius starts,
        margin-ordered probing, chunked early exit. Requires a rehashable
        family and incremental counting; classic mode (the default, the
        schedule's ``CLASSIC`` preset) is the bit-exactness oracle.
        """
        self._require_fitted()
        config = as_probe_config(probe)
        queries = as_query_matrix(queries, self._data.shape[1])
        if config is not None:
            check_adaptive_supported(self._funcs, self._incremental)
        started = time.perf_counter()
        budgets = as_budget_list(budget, queries.shape[0])
        with trace.span("hash", queries=int(queries.shape[0])):
            if config is not None:
                # Same two ops funcs.hash() performs, so the bucket ids
                # are bit-identical; the raw grid coordinates additionally
                # feed the margin-ordered probe schedule.
                uids = self._funcs.project(self._hash_view(queries)) \
                    / self._funcs.w
                all_ids = np.floor(uids).astype(np.int64)
            else:
                all_ids = self._funcs.hash(self._hash_view(queries))
        if not self._incremental:
            results = []
            for i, (q, qids) in enumerate(zip(queries, all_ids)):
                with trace.span("query", k=int(k)) as qspan:
                    results.append(self._query_hashed(
                        q, qids, k, qspan=qspan,
                        budget=budgets[i] if budgets is not None
                        else None))
            return results
        results = []
        for start in range(0, queries.shape[0], _BATCH_BLOCK):
            stop = start + _BATCH_BLOCK
            block_budget = (budgets[start:stop] if budgets is not None
                            else None)
            results.extend(batch_query(
                self, queries[start:stop], all_ids[start:stop], k,
                started=started, budget=block_budget, config=config,
                uids=None if config is None else uids[start:stop]))
        return results

    def __repr__(self):
        if not self.is_fitted:
            return f"C2LSH(c={self._c}, unfitted)"
        return (f"C2LSH(n={self._data.shape[0]}, dim={self._data.shape[1]}, "
                f"m={self.params.m}, l={self.params.l}, c={self.params.c})")
