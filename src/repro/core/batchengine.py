"""Lockstep batch query engine: one block driver for every batch query.

Answering one C2LSH query means walking the radius grid ``{1, c, c^2, ...}``
and, at each step, locating the query's bucket in all ``m`` sorted hash
tables and counting the newly covered entries. Every query walks the
*same* grid over the *same* ``(m, n)`` tables, so a batch of ``Q`` queries
is naturally data-parallel: this module advances all of them through each
radius round simultaneously —

* one lookup in the tables' bucket starts answers all ``Q × m`` interval
  extensions per round (:meth:`repro.core.counting.CollisionCounter.positions`;
  a binary search only where a table spans more than 65,536 ids);
* one counting pass updates all ``Q`` queries' collision counts — code
  comparisons, a matrix product over the tables' one-hot codes, or a
  gather of the newly covered entries, whichever :func:`_cheapest`
  estimates cheapest (:meth:`BatchQueryCounter.expand`);
* queries that terminate (T1/T2/exhausted) drop out of the active set
  while the rest keep expanding.

The paper's loop — count at radius ``R``, verify the newly frequent
objects, stop on T1 or T2, else ``R <- cR`` — is written here once, and
every query path runs it. :class:`QueryState` owns a block's candidates
and every stopping decision (T2, then T1, then exhaustion, then the
budget caps), the fallback's bookkeeping and the per-query
:class:`~repro.core.results.QueryStats`; :func:`drive_block` walks the
grid; a *round source* counts and verifies one round.
:class:`LocalRounds` is the in-process lockstep source, and
``C2LSH.query`` runs it as a one-query block (:func:`answer_one`); the
sharded engine's source fans each round out to shard workers
(:mod:`repro.sharding.engine`); :class:`QueryRounds` answers one query
on a sequential per-query counter — ``QALSH.query`` and C2LSH's A2
recount ablation run the driver through it. Classic probing is the
:data:`~repro.core.adaptive.CLASSIC` preset of the adaptive schedule —
every round scans all ``m`` tables in one pass, no start estimate — and
differs from an explicit ``AdaptiveConfig(chunks=1,
start_estimate=False)`` only in its telemetry labels and in reporting no
probe counts.

A classic block is **bit-identical** to answering each of its queries
alone with :meth:`repro.core.c2lsh.C2LSH.query`, whatever the block size
and counting strategy: same candidate sets verified in the same per-query
order, same termination reasons, same
:class:`~repro.core.results.QueryStats`, and the same page I/O charged per
query (bucket scans are costed per segment by the shared
``PageManager.bucket_scan_pages`` formula and attributed back to each
query). Only the wall-clock changes: the per-round Python overhead is paid
once per batch instead of once per query.

Verification runs on the calling thread, one query at a time: a query's
candidate vectors are read, their pages charged to it and their distances
computed before the next query's are read, so a round holds one query's
candidate vectors, never the block's.
"""

from __future__ import annotations

import time
from itertools import accumulate, repeat
from operator import mul

import numpy as np

from .. import kernels
from ..obs import flight, trace
from ..reliability.budget import as_budget_list, tripped_cap
from .adaptive import (
    CLASSIC,
    _chunk_bounds,
    estimate_start_levels,
    probe_order,
    skipped_round_pages,
)
from .counting import MAX_ROUNDS, _intervals_at
from .results import QueryResult, QueryStats

__all__ = ["BatchQueryCounter", "WithinRadiusTally", "QueryState",
           "LocalRounds", "QueryRounds", "answer_one", "drive_block",
           "batch_query", "MAX_ROUNDS"]

#: Estimated nanoseconds per unit of work of each counting strategy,
#: measured with one BLAS thread on 2 vCPUs over the color, nus and mnist
#: profiles at radius 1 (docs/PERFORMANCE.md, "Counting strategies"):
#: compare 0.45-0.56 ns per (query, table, object) code comparison;
#: product 1.1 ns per (code, object) cell of the one-hot matrix — building
#: it and the product's pass over it — plus 0.015 ns per multiply-add;
#: sparse 8-16 ns per newly covered entry gathered and bincounted.
_NS_COMPARE = 0.5
_NS_ONEHOT = 1.1
_NS_MULADD = 0.015
_NS_GATHER = 12.0

#: Objects per column block of the product's one-hot matrix, at most:
#: the block holds ``2**20`` float32 cells (4 MiB) whatever the code count.
_ONEHOT_CELLS = 1 << 20


def _cheapest(A, m, n, S, total):
    """The counting strategy with the least estimated cost.

    ``A`` queries over ``m`` tables of ``n`` objects with ``S`` codes in
    all; ``total`` newly covered entries. ``"compare"`` and ``"product"``
    recompute all ``A x n`` counts (:func:`repro.kernels.dense_counts`),
    ``"sparse"`` gathers only the new entries
    (:func:`repro.kernels.sparse_counts`). Ties go to the earlier name.
    """
    costs = {"sparse": _NS_GATHER * total,
             "compare": _NS_COMPARE * A * m * n,
             "product": n * S * (_NS_ONEHOT + _NS_MULADD * A)}
    return min(costs, key=costs.get)


class WithinRadiusTally:
    """Running count of verified distances within a growing threshold.

    The T1 stopping rule asks, every round, how many verified candidates
    lie within ``c * R`` of the query. Rescanning every stored distance
    each round is ``O(rounds x candidates)``; because the threshold only
    ever grows along the radius grid, a distance that is within once stays
    within forever. This tally keeps the not-yet-within distances in a
    sorted ``pending`` array and migrates the newly covered prefix on each
    call — amortized ``O(candidates log candidates)`` over a whole query.

    Thresholds passed to :meth:`count_within` must be non-decreasing
    (the radius grid guarantees it).
    """

    def __init__(self):
        self._within = 0
        self._pending = np.empty(0, dtype=np.float64)

    def add(self, distances):
        """Record freshly verified distances (any order)."""
        distances = np.asarray(distances, dtype=np.float64)
        if distances.size:
            self._pending = kernels.merge_sorted(self._pending, distances)

    def count_within(self, threshold):
        """Total recorded distances ``<= threshold``."""
        cut = kernels.count_leq(self._pending, threshold)
        if cut:
            self._within += cut
            self._pending = self._pending[cut:]
        return self._within


class BatchQueryCounter:
    """Collision counts for ``Q`` queries advanced through radii in lockstep.

    The batched analogue of :class:`repro.core.counting.QueryCounter`:
    state is a ``(Q, n)`` count matrix and ``(Q, m)`` covered-interval
    bounds, advanced for an arbitrary *active subset* of queries per round.
    Only incremental (virtual-rehashing) expansion is supported — the
    recount ablation stays on the sequential path.
    """

    def __init__(self, index, query_bucket_ids):
        qids = np.asarray(query_bucket_ids, dtype=np.int64)
        if qids.ndim != 2 or qids.shape[1] != index.m:
            raise ValueError(
                f"query bucket ids must have shape (Q, {index.m}), "
                f"got {qids.shape}"
            )
        self._index = index
        self._qids = qids
        self.n_queries = qids.shape[0]
        self.counts = np.zeros((self.n_queries, index.n), dtype=np.int32)
        # Covered position interval [lo, hi) per (query, table). A cell
        # only means anything once probed at least once; `_covered` tracks
        # that per cell so adaptive probing can grow different tables of
        # the same query at different times (classic full-round expansion
        # covers every cell in round one, collapsing this to the old
        # global started flag).
        self._lo = np.zeros((self.n_queries, index.m), dtype=np.int64)
        self._hi = np.zeros((self.n_queries, index.m), dtype=np.int64)
        self._covered = np.zeros((self.n_queries, index.m), dtype=bool)
        self._started = False
        self.radius = 0
        self._last_active = None
        # The active rows' counts before the last expand(), for crossings.
        self._prev = np.empty_like(self.counts)
        self._onehot = None

    def _segments(self, radius, active, tables, lo_new, hi_new):
        """Scan segments growing ``active``'s selected cells to ``radius``.

        Returns ``(seg_q, seg_t, seg_lo, lengths)`` with zero-length
        segments dropped. Already-covered selected cells contribute their
        left ``[lo_new, lo_old)`` and right ``[hi_old, hi_new)`` interval
        extensions; never-covered ones contribute the full interval. With
        a full selection these are byte-for-byte the segments the classic
        engine builds (fresh cells in row-major order on the first round;
        left-block-then-right-block on later rounds), so classic page
        charges and kernel inputs are unchanged. Both counting kernels
        accumulate integer deltas, so segment order never affects counts.
        """
        A = active.size
        m = self._index.m
        covered = self._covered[active]
        sel = (np.ones((A, m), dtype=bool) if tables is None
               else np.asarray(tables, dtype=bool))
        grow = covered & sel
        fresh = sel & ~covered
        old_lo, old_hi = self._lo[active], self._hi[active]
        if np.any((lo_new > old_lo) & grow) or np.any((hi_new < old_hi)
                                                      & grow):
            raise AssertionError(
                "virtual-rehashing nesting violated: some table's "
                f"radius-{radius} interval shrank"
            )
        gq, gt = np.nonzero(grow)
        fq, ft = np.nonzero(fresh)
        seg_q = np.concatenate((gq, gq, fq))
        seg_t = np.concatenate((gt, gt, ft))
        seg_lo = np.concatenate((lo_new[grow], old_hi[grow],
                                 lo_new[fresh]))
        seg_hi = np.concatenate((old_lo[grow], hi_new[grow],
                                 hi_new[fresh]))
        keep = seg_hi > seg_lo
        lengths = seg_hi[keep] - seg_lo[keep]
        return seg_q[keep], seg_t[keep], seg_lo[keep], lengths, sel

    def expand(self, radius, active, tables=None):
        """Grow every query in ``active`` to ``radius``; count in one pass.

        ``active`` is an int array of query indices (callers advance the
        whole batch through the same grid, dropping terminated queries).
        ``tables`` — an optional ``(A, m)`` bool mask — restricts the
        growth to selected (query, table) cells, which is how the adaptive
        engine probes a round chunk by chunk; ``None`` grows everything,
        the classic full round. Returns ``(scanned, pages)``:
        per-active-query newly scanned entry counts, and per-active-query
        bucket-scan pages charged (``None`` without a page manager). The
        total page charge equals the sum of what the sequential path would
        charge each query this round; a masked round charges only the
        probed cells, and probing a round in chunks charges exactly what
        one full expansion would (same segment set, split across calls).

        Counting takes the strategy :func:`_cheapest` estimates cheapest
        for the call. Heavy rounds (typically the first, whose radius-1
        buckets in high dimension hold a large fraction of the database)
        recompute all ``(A, n)`` counts from each cell's code window,
        independent of how many entries the intervals cover: by per-query
        code comparisons for a few queries, as one matrix product for
        more. Light rounds gather only the newly covered entries and
        bincount them. All three produce the exact counts the sequential
        incremental path maintains; the I/O and scanned-entry accounting
        below is shared and runs before any of them.
        """
        radius = int(radius)
        index = self._index
        m, n = index.m, index.n
        A = active.size
        lo_new, hi_new = _intervals_at(index, self._qids[active], radius)
        seg_q, seg_t, seg_lo, lengths, sel = self._segments(
            radius, active, tables, lo_new, hi_new)

        scanned = np.bincount(
            seg_q, weights=lengths, minlength=A
        ).astype(np.int64)
        pages_per_query = None
        pm = index._pm
        if pm is not None:
            if lengths.size:
                pages = pm.bucket_scan_pages(lengths, index._entry_bytes)
                pm.charge_read(int(pages.sum()), site="bucket_scan")
                pages_per_query = np.bincount(
                    seg_q, weights=pages, minlength=A
                ).astype(np.int64)
            else:
                pages_per_query = np.zeros(A, dtype=np.int64)

        # Merged per-cell intervals: selected cells move to the new
        # bounds, unselected keep theirs (uncovered cells sit at the
        # empty [0, 0), contributing nothing to the dense recount).
        lo_m = np.where(sel, lo_new, self._lo[active])
        hi_m = np.where(sel, hi_new, self._hi[active])
        total = int(lengths.sum())
        np.take(self.counts, active, axis=0, out=self._prev[:A])
        how = _cheapest(A, m, n, int(index.code_widths.sum()), total)
        if how == "sparse":
            if total:
                self.counts[active] += kernels.sparse_counts(
                    index.order, seg_q, seg_t, seg_lo, lengths, A)
        else:
            wlo, whi = index.code_windows(lo_m, hi_m)
            self.counts[active] = kernels.dense_counts(
                index.codes, index.code_widths, wlo, whi,
                self._onehot_block() if how == "product" else None)
        self._lo[active] = lo_m
        self._hi[active] = hi_m
        self._covered[active] |= sel
        self._started = True
        self.radius = radius
        self._last_active = active
        return scanned, pages_per_query

    def peek_pages(self, radius, active, tables=None):
        """Would-be page bill of an :meth:`expand` call, without the call.

        Prices growing ``active``'s selected cells to ``radius`` against
        the current coverage using the shared ``bucket_scan_pages``
        formula, but charges nothing and mutates nothing. The adaptive
        engine uses this to report ``pages_saved`` for tables an
        early-exiting query never probed and for start rounds the
        estimator skipped. Returns an int64 per-active-query page count
        (zeros without a page manager).
        """
        index = self._index
        pm = index._pm
        A = active.size
        if pm is None or A == 0:
            return np.zeros(A, dtype=np.int64)
        lo_new, hi_new = _intervals_at(index, self._qids[active],
                                       int(radius))
        seg_q, _, _, lengths, _ = self._segments(
            int(radius), active, tables, lo_new, hi_new)
        if not lengths.size:
            return np.zeros(A, dtype=np.int64)
        pages = pm.bucket_scan_pages(lengths, index._entry_bytes)
        return np.bincount(seg_q, weights=pages,
                           minlength=A).astype(np.int64)

    def _onehot_block(self):
        """The product's column block of the one-hot matrix, allocated on
        first use and reused by every later product of this block."""
        if self._onehot is None:
            n_codes = int(self._index.code_widths.sum())
            width = max(1, min(self._index.n, _ONEHOT_CELLS // n_codes))
            self._onehot = np.empty((n_codes, width), dtype=np.float32)
        return self._onehot

    def crossings(self, threshold):
        """``(query, object)`` pairs that crossed ``threshold`` last round.

        Query indices are positions into the last ``expand()``'s active
        array; pairs come out sorted by query then ascending object id —
        the same order ``QueryCounter.newly_frequent`` yields per query.
        """
        active = self._last_active
        if active is None:
            return (np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.int64))
        return kernels.crossings(self.counts[active],
                                 self._prev[:active.size], threshold)

    def exhausted_mask(self, active):
        """Per-active-query flag: every table already covers all entries."""
        if not self._started:
            return np.zeros(active.size, dtype=bool)
        n = self._index.n
        return np.all((self._lo[active] == 0) & (self._hi[active] == n),
                      axis=1)


def _verify_many(index, jobs, io_reads):
    """Distances for ``(query_index, ids, query_vector)`` jobs.

    One job at a time through the index's own ``_verify`` (read the
    vectors, compute their distances), adding the pages it read to
    ``io_reads[query_index]`` — so only one job's vectors are held at a
    time. Returns one distance array per job.
    """
    pm = index._pm
    out = []
    for q, ids, qvec in jobs:
        before = pm.stats.reads if pm is not None else 0
        out.append(index._verify(ids, qvec))
        if pm is not None:
            io_reads[q] += pm.stats.reads - before
    return out


class QueryState:
    """One query block's bookkeeping and every stopping decision.

    Round sources report what a round found through :meth:`charge`,
    :meth:`skip` and :meth:`add`, and ask :meth:`stop` which queries the
    paper's rules end; :func:`drive_block` applies the budget caps, the
    fallback and the round telemetry. Single queries and local and
    sharded blocks, classic and adaptive, all share this one copy of the
    rules, so a given seed and budget degrade identically on every path.

    ``t1`` enables the T1 rule's tallies; ``budgets`` is ``None`` or a
    per-query list; ``accounting`` tells whether pages are charged.
    ``engine`` labels flight-recorder notes and dumps (``extra`` is added
    to the dumps), and ``probing`` turns on adaptive mode's per-table
    probe counts — classic reports zeros. A sharded source records in
    ``failed`` the shards each finished query was answered without.
    """

    def __init__(self, n_queries, k, params, n, scale, t1, budgets,
                 started, accounting, engine, probing, extra=None):
        self.n_queries = n_queries
        self.k = k
        self.fpb = params.false_positive_budget
        self.target = min(n, k + self.fpb)  # T2 threshold
        self.c = params.c
        # The radius grid 1, c, c*c, ... by repeated multiplication: exact
        # integers for C2LSH's integer c; for QALSH's real c, ``c ** level``
        # would round differently from the third power on.
        self.grid = list(accumulate(repeat(params.c, MAX_ROUNDS - 1), mul,
                                    initial=1))
        self.scale = scale
        self.budgets = budgets
        self.t0 = started
        self.accounting = accounting
        self.engine = engine
        self.probing = probing
        self.extra = extra or {}
        self.cand_ids = [[] for _ in range(n_queries)]
        self.cand_dists = [[] for _ in range(n_queries)]
        self.n_cand = np.zeros(n_queries, dtype=np.int64)
        self.rounds = np.zeros(n_queries, dtype=np.int64)
        self.last_level = np.zeros(n_queries, dtype=np.int64)
        self.scanned = np.zeros(n_queries, dtype=np.int64)
        self.io_reads = np.zeros(n_queries, dtype=np.int64)
        self.probes_issued = np.zeros(n_queries, dtype=np.int64)
        self.probes_skipped = np.zeros(n_queries, dtype=np.int64)
        self.elapsed = np.zeros(n_queries, dtype=np.float64)
        self.reason = [""] * n_queries
        self.budget_cap = [""] * n_queries
        self.failed = [()] * n_queries
        self.tallies = ([WithinRadiusTally() for _ in range(n_queries)]
                        if t1 else None)
        self.traced = trace.active()
        self.best = np.full(n_queries, np.inf) if self.traced else None
        self.pages_saved = 0

    @property
    def first_stop(self):
        """Fewest candidates any stopping rule needs: ``k`` for T1, else
        the T2 target (the start estimator's occupancy bound)."""
        return self.k if self.tallies is not None else self.target

    def charge(self, sub, scanned, pages, probes=0):
        """Account scanned entries, pages and table probes to ``sub``."""
        self.scanned[sub] += scanned
        if pages is not None:
            self.io_reads[sub] += pages
        if self.probing:
            self.probes_issued[sub] += probes

    def skip(self, sub, probes):
        """Account table probes ``sub`` avoided (adaptive mode only)."""
        if self.probing:
            self.probes_skipped[sub] += probes

    def add(self, q, ids, dists, tally=True):
        """Record verified candidates of query ``q``.

        Candidates verified after the query's stopping decision (fallback,
        provisional exits) pass ``tally=False``: T1 is no longer asked.
        """
        self.cand_ids[q].append(ids)
        self.cand_dists[q].append(dists)
        self.n_cand[q] += ids.size
        if tally and self.tallies is not None:
            self.tallies[q].add(dists)
        if self.best is not None and dists.size:
            self.best[q] = min(self.best[q], float(dists.min()))

    def stop(self, sub, radius, exhausted=None, level=0, lost=False):
        """Which queries of ``sub`` stop now: T2, then T1, then exhaustion.

        At a round's end ``exhausted`` flags the queries whose tables are
        fully covered (the grid cap :data:`MAX_ROUNDS` exhausts all of
        them at ``level + 1``). Between the chunks of a round it is
        ``None`` and only T2 is asked: a mid-round T1 would return the
        bare ``k`` within-radius candidates and cost recall. ``lost``
        (every shard worker gone) labels exhaustion ``"failover"``.
        Records each stopped query's reason; returns the mask.
        """
        t2 = self.n_cand[sub] >= self.target
        t1 = np.zeros(sub.size, dtype=bool)
        if exhausted is None:
            fired = t2
        else:
            if self.tallies is not None:
                threshold = self.c * radius * self.scale
                for i in np.flatnonzero(~t2 & (self.n_cand[sub] >= self.k)):
                    t1[i] = (self.tallies[int(sub[i])]
                             .count_within(threshold) >= self.k)
            if level + 1 >= MAX_ROUNDS:
                exhausted = np.ones(sub.size, dtype=bool)
            fired = t2 | t1 | exhausted
        for i in np.flatnonzero(fired):
            self.reason[sub[i]] = ("T2" if t2[i] else "T1" if t1[i]
                                   else "failover" if lost else "exhausted")
        return fired

    def check_budgets(self, group, done, radius):
        """Budget caps for the queries of ``group`` no rule stopped.

        Cap order (candidates, io_pages, deadline) and deadline anchoring
        are :func:`~repro.reliability.budget.tripped_cap`'s; one clock
        read serves the whole round. Each deadline is measured from its
        budget's ``started_at`` anchor when set, else from the block's
        start.
        """
        if self.budgets is None:
            return done
        now = time.perf_counter()
        for i in np.flatnonzero(~done):
            q = int(group[i])
            b = self.budgets[q]
            if b is None:
                continue
            cap = tripped_cap(b, int(self.n_cand[q]), int(self.io_reads[q]),
                              self.accounting, self.t0, now)
            if not cap:
                continue
            done[i] = True
            self.reason[q] = "budget"
            self.budget_cap[q] = cap
            flight.note(
                "budget_exhausted", engine=self.engine, query=q, cap=cap,
                radius=int(radius), candidates=int(self.n_cand[q]),
                io_pages=int(self.io_reads[q]),
            )
        return done

    def shortfall(self, finished):
        """``{query: fallback candidates to verify}`` for finished queries
        short of ``k``: the rest of ``k`` plus the false-positive
        budget."""
        return {int(q): self.k - int(self.n_cand[q]) + self.fpb
                for q in finished if self.n_cand[q] < self.k}

    def add_fallback(self, q, ids, dists):
        """Record fallback-verified candidates of finished query ``q``."""
        self.add(q, ids, dists, tally=False)
        if self.reason[q] != "budget":
            self.reason[q] = "fallback"

    def marks(self, group):
        """Running totals a traced round's EXPLAIN record is the change
        of; ``None`` when untraced."""
        if not self.traced:
            return None
        return [int(a[group].sum()) for a in (
            self.scanned, self.n_cand, self.io_reads, self.probes_issued,
            self.probes_skipped)]

    def annotate(self, rspan, group, radius, marks):
        """Attach a round's EXPLAIN record to its span (traced only).

        Scanned entries, new candidates, pages and probes are the round's
        own, summed over the group. Total candidates, the within-T1 count
        and the best distance are running values.
        """
        scanned, new, pages, issued, skipped = (
            now - before for now, before in zip(self.marks(group), marks))
        threshold = self.c * radius * self.scale
        within = 0
        if self.tallies is not None:
            for q in group:
                within += self.tallies[int(q)].count_within(threshold)
        best = self.best[group]
        best = best[np.isfinite(best)]
        rspan.set(
            scanned=scanned, new_candidates=new,
            total_candidates=int(self.n_cand[group].sum()),
            best_distance=float(best.min()) if best.size else float("inf"),
            t1_threshold=float(threshold), within_t1=int(within),
            io_reads=pages, probes_issued=issued, probes_skipped=skipped,
            pages_saved=int(self.pages_saved),
        )
        self.pages_saved = 0

    def results(self):
        """The block's :class:`QueryResult` list, in query order."""
        tripped = [q for q in range(self.n_queries) if self.budget_cap[q]]
        if tripped:
            flight.dump("budget_exhausted", extra={
                "engine": self.engine,
                "queries": tripped,
                "caps": sorted({self.budget_cap[q] for q in tripped}),
                **self.extra,
            })
        out = []
        for q in range(self.n_queries):
            stats = QueryStats(
                rounds=int(self.rounds[q]),
                final_radius=self.grid[self.last_level[q]],
                candidates=int(self.n_cand[q]),
                scanned_entries=int(self.scanned[q]),
                terminated_by=self.reason[q],
                elapsed_s=float(self.elapsed[q]),
                degraded=bool(self.budget_cap[q]) or bool(self.failed[q]),
                budget_exhausted=self.budget_cap[q],
                failed_shards=self.failed[q],
                probes_issued=int(self.probes_issued[q]),
                probes_skipped=int(self.probes_skipped[q]),
            )
            if self.accounting:
                stats.io_reads = int(self.io_reads[q])
            if self.traced:
                trace.event(
                    "query_stats", query=q, rounds=stats.rounds,
                    final_radius=stats.final_radius,
                    candidates=stats.candidates,
                    scanned_entries=stats.scanned_entries,
                    io_reads=stats.io_reads, io_writes=stats.io_writes,
                    terminated_by=stats.terminated_by,
                    elapsed_s=stats.elapsed_s, degraded=stats.degraded,
                    probes_issued=stats.probes_issued,
                    probes_skipped=stats.probes_skipped,
                )
            ids = (np.concatenate(self.cand_ids[q]) if self.cand_ids[q]
                   else np.empty(0, dtype=np.int64))
            dists = (np.concatenate(self.cand_dists[q])
                     if self.cand_dists[q] else np.empty(0))
            out.append(QueryResult.from_candidates(ids, dists, self.k,
                                                   stats))
        return out


def drive_block(state, source, levels):
    """Walk one block through the radius grid: the paper's query loop.

    Every active query sits at a grid level — its start level, then one
    more per round. Each pass runs the lowest level's queries through one
    round of ``source``, stops those no rule ended but a budget cap did,
    has ``source`` verify fallback candidates for the finished ones, and
    moves the rest up a level. ``source.run_round(state, group, radius,
    level)`` returns the group's stop mask, ``source.finish(state,
    finished)`` runs the fallback, and ``source.round_span`` names the
    round's telemetry span.
    """
    n_queries = levels.size
    active = np.arange(n_queries)
    while active.size:
        level = int(levels[active].min())
        group = active[levels[active] == level]
        radius = state.grid[level]
        with trace.span(source.round_span, radius=radius,
                        active=int(group.size)) as rspan:
            marks = state.marks(group)
            state.rounds[group] += 1
            state.last_level[group] = level
            done = source.run_round(state, group, radius, level)
            done = state.check_budgets(group, done, radius)
            if marks is not None:
                state.annotate(rspan, group, radius, marks)
            finished = group[done]
            if finished.size:
                source.finish(state, finished)
                state.elapsed[finished] = time.perf_counter() - state.t0
            rspan.set(finished=int(finished.size))
        levels[group[~done]] += 1
        if finished.size:
            keep = np.ones(n_queries, dtype=bool)
            keep[finished] = False
            active = active[keep[active]]


#: A provisional exit is considered only once this fraction of a round's
#: tables has been probed; earlier exits rest on noisier projections.
_PROVISIONAL_MIN_FRAC = 0.5

#: A provisional exit verifies up to this many times the T2 target of
#: best-counted objects. Partial counts are heavily tied, so the bare
#: target can drop true neighbors from the pool; verification costs one
#: page per object — far cheaper than probing more tables — so a wider
#: verified pool buys recall back at small I/O cost.
_PROVISIONAL_POOL_MULT = 4.0


class LocalRounds:
    """Round source over an in-process index: chunked expand, then verify.

    Each round probes the tables in ``config.chunks`` margin-ordered
    slices (:func:`~repro.core.adaptive.probe_order`), verifying every
    slice's threshold-crossers and asking T2 — and the provisional exit —
    in between; a query that stops skips the rest of the round and is
    charged only for the buckets it probed. With one chunk a round is the
    classic full expansion: identical segments, page charges and
    verification order. ``uids`` (the raw projections over the bucket
    width) are needed only for the margin order.

    A shard worker runs this same source over its shard's index
    (:mod:`repro.sharding.worker`): :meth:`run_round` then reports to a
    shard-local observer in place of the :class:`QueryState`, and the
    coordinator's block driver takes every stopping decision.
    """

    round_span = "round"

    def __init__(self, index, queries, qids, uids, config):
        self.index = index
        self.queries = queries
        self.qids = qids
        self.uids = uids
        self.config = config
        self.counter = BatchQueryCounter(index._counter, qids)
        self.counts = self.counter.counts
        self.is_candidate = np.zeros(self.counts.shape, dtype=bool)
        self.bounds = _chunk_bounds(index.params.m, config.chunks)

    def start_levels(self, state):
        """Per-query start levels: the estimator's, else all zero.

        Estimated rounds below a query's start are provably outcome-free
        (see :func:`~repro.core.adaptive.estimate_start_levels`); each
        skips ``m`` probes.
        """
        n_queries = self.queries.shape[0]
        if not self.config.start_estimate:
            return np.zeros(n_queries, dtype=np.int64)
        counter, params = self.index._counter, self.index.params
        with trace.span("estimate_start", queries=n_queries):
            levels = estimate_start_levels(counter, self.qids, params.l,
                                           params.c, k=state.first_stop)
        state.skip(np.arange(n_queries), params.m * levels)
        if state.traced:
            _trace_skipped_starts(counter, self.qids, levels, params.c,
                                  params.m)
        return levels

    def run_round(self, state, group, radius, level):
        """One radius round for a same-level group; returns its stop mask."""
        m = self.index.params.m
        bounds = self.bounds
        last = len(bounds) - 2
        order = (probe_order(self.uids[group], self.qids[group], radius)
                 if last else None)
        done = np.zeros(group.size, dtype=bool)
        pos = np.arange(group.size)  # group positions still probing
        for ci in range(last + 1):
            if not pos.size:
                break
            lo_t, hi_t = int(bounds[ci]), int(bounds[ci + 1])
            sub = group[pos]
            tables = None  # whole round: the classic expansion
            if order is not None:
                tables = np.zeros((sub.size, m), dtype=bool)
                np.put_along_axis(tables, order[pos, lo_t:hi_t], True,
                                  axis=1)
            with trace.span("count_round", radius=radius, chunk=ci):
                scanned, pages = self.counter.expand(radius, sub,
                                                     tables=tables)
            state.charge(sub, scanned, pages, hi_t - lo_t)
            self._verify_crossers(state, sub)
            if ci == last:
                # A single-granularity family has one round only.
                exhausted = (self.counter.exhausted_mask(sub)
                             if self.index._funcs.rehashable
                             else np.ones(sub.size, dtype=bool))
                fired = state.stop(sub, radius, exhausted, level)
            else:
                fired = state.stop(sub, radius)
                if (self.config.provisional_exit
                        and hi_t >= _PROVISIONAL_MIN_FRAC * m):
                    fired = fired | self._provisional_exits(
                        state, sub, fired, hi_t)
                if fired.any():
                    state.skip(sub[fired], m - hi_t)
                    if state.traced:
                        state.pages_saved += _pages_saved(
                            self.counter, sub[fired],
                            order[pos[fired], hi_t:], radius)
            done[pos] |= fired
            pos = pos[~fired]
        return done

    def _verify_crossers(self, state, sub):
        """Verify the objects that crossed the collision threshold in the
        last expand, per query in ascending id order."""
        qs, fresh = self.counter.crossings(self.index.params.l)
        if not qs.size:
            return
        bounds = np.searchsorted(qs, np.arange(sub.size + 1))
        jobs = [(int(sub[i]), fresh[bounds[i]:bounds[i + 1]],
                 self.queries[sub[i]])
                for i in range(sub.size) if bounds[i + 1] > bounds[i]]
        with trace.span("verify", count=int(fresh.size)):
            verified = _verify_many(self.index, jobs, state.io_reads)
        for (q, ids, _), dists in zip(jobs, verified):
            self.is_candidate[q, ids] = True
            state.add(q, ids, dists)

    def _provisional_exits(self, state, sub, fired, probed):
        """Projected-T2 exits after ``probed`` of ``m`` tables this round.

        An object with partial collision count ``>= ceil(l * probed/m)`` is
        on track to cross the threshold ``l`` by round end. When at least
        ``target`` objects are on track, probing further tables can only
        refine *which* ``target`` objects the pool holds, so the engine
        verifies the best-counted ones (the fallback's selection: count
        descending, stable) and stops the query. Returns the mask over
        ``sub``; exits report ``terminated_by == "T2-early"``.
        """
        params = self.index.params
        counts = self.counter.counts
        l_p = max(1, int(np.ceil(params.l * probed / params.m)))
        pool_size = int(_PROVISIONAL_POOL_MULT * state.target)
        provisional = np.zeros(sub.size, dtype=bool)
        jobs = []
        for i in np.flatnonzero(~fired):
            q = int(sub[i])
            projected = int((counts[q] >= l_p).sum())
            if projected < state.target:
                continue
            provisional[i] = True
            state.reason[q] = "T2-early"
            extra = self.best_unverified(
                q, min(pool_size, projected) - int(state.n_cand[q]))
            if extra.size:
                jobs.append((q, extra, self.queries[q]))
        if jobs:
            with trace.span("verify", provisional=True,
                            count=int(sum(j[1].size for j in jobs))):
                verified = _verify_many(self.index, jobs, state.io_reads)
            for (q, extra, _), dists in zip(jobs, verified):
                self.is_candidate[q, extra] = True
                state.add(q, extra, dists, tally=False)
        return provisional

    def finish(self, state, finished):
        """Graceful fallback for finished queries still short of ``k``.

        Verifies the best-counted unverified objects (the order of
        :meth:`best_unverified`): single-granularity families and tiny
        databases land here.
        """
        jobs = []
        for q, need in state.shortfall(finished).items():
            extra = self.best_unverified(q, need)
            if extra.size:
                jobs.append((q, extra, self.queries[q]))
        if not jobs:
            return
        with trace.span("verify", fallback=True,
                        count=int(sum(j[1].size for j in jobs))):
            verified = _verify_many(self.index, jobs, state.io_reads)
        for (q, extra, _), dists in zip(jobs, verified):
            state.add_fallback(q, extra, dists)

    def best_unverified(self, q, need):
        """Up to ``need`` unverified objects of query ``q``, best first.

        The fallback's order: collision count descending, then id
        ascending (``argsort(-counts, kind="stable")``). A shard nominates
        its fallback candidates in this order too, so the coordinator's
        merge reproduces it over the whole database.
        """
        if need <= 0:
            return np.empty(0, dtype=np.int64)
        remaining = np.flatnonzero(~self.is_candidate[q])
        order = np.argsort(-self.counts[q, remaining], kind="stable")
        return remaining[order[:need]]


class QueryRounds:
    """Round source for one query on a sequential per-query counter.

    :meth:`repro.core.qalsh.QALSH.query` runs the block driver through it
    over its query-centred window counter, and ``C2LSH.query`` over
    :class:`~repro.core.counting.QueryCounter` in the A2 recount ablation
    (``incremental=False``) only. Each round expands the counter, charges
    the scanned entries and the page manager's delta over the expansion,
    and verifies the newly frequent objects in ascending id order. The
    fallback is :class:`LocalRounds`' over a ``(1, n)`` view of the
    counter's counts.
    """

    round_span = "round"

    def __init__(self, index, query, counter):
        self.index = index
        self.queries = query[None, :]
        self.counter = counter
        self.counts = counter.counts[None, :]
        self.is_candidate = np.zeros(self.counts.shape, dtype=bool)

    def run_round(self, state, group, radius, level):
        """One radius round of the query; returns its stop mask."""
        index, counter = self.index, self.counter
        pm = index._pm
        before = pm.stats.reads if pm is not None else 0
        with trace.span("count_round", radius=radius):
            touched = counter.expand(radius)
            fresh = counter.newly_frequent(index.l)
            fresh = fresh[~self.is_candidate[0, fresh]]
        state.charge(group, touched.size,
                     None if pm is None else pm.stats.reads - before)
        if fresh.size:
            with trace.span("verify", count=int(fresh.size)):
                dists, = _verify_many(index, [(0, fresh, self.queries[0])],
                                      state.io_reads)
            self.is_candidate[0, fresh] = True
            state.add(0, fresh, dists)
        # A single-granularity family has one round only.
        exhausted = counter.exhausted or not index._funcs.rehashable
        return state.stop(group, radius, np.array([exhausted]), level)

    finish = LocalRounds.finish
    best_unverified = LocalRounds.best_unverified


def answer_one(state, source, qspan=trace.NULL_SPAN):
    """Drive the one-query ``state`` through ``source`` from radius 1;
    annotate ``qspan`` with its stats and return its :class:`QueryResult`.

    ``C2LSH.query`` and ``QALSH.query`` answer through this; it opens no
    ``batch_block`` span, so telemetry counts only batch calls as blocks.
    """
    drive_block(state, source, np.zeros(1, dtype=np.int64))
    result, = state.results()
    s = result.stats
    qspan.set(rounds=s.rounds, final_radius=s.final_radius,
              candidates=s.candidates, scanned_entries=s.scanned_entries,
              io_reads=s.io_reads, io_writes=s.io_writes,
              terminated_by=s.terminated_by, elapsed_s=s.elapsed_s,
              degraded=s.degraded)
    return result


def _pages_saved(counter, exiting, remaining_tables, radius):
    """Pages the exiting queries' unprobed tables would have cost."""
    m = counter._index.m
    tables = np.zeros((exiting.size, m), dtype=bool)
    np.put_along_axis(tables, remaining_tables, True, axis=1)
    return int(counter.peek_pages(radius, exiting, tables).sum())


def _trace_skipped_starts(counter, qids, levels, c, m):
    """Emit one span per skipped start level with its would-be page bill.

    Only runs under an active trace: pricing the skipped scans costs
    bucket lookups at every skipped level, so the fast path never does
    this. Each span renders as an EXPLAIN row showing what the
    classic schedule would have paid.
    """
    for level, radius, group, pages in skipped_round_pages(
            counter, qids, levels, c):
        with trace.span("round", radius=int(radius), skipped=True,
                        active=int(group.size)) as span:
            span.set(scanned=0, new_candidates=0, total_candidates=0,
                     best_distance=float("inf"), t1_threshold=0.0,
                     within_t1=0, io_reads=0, probes_issued=0,
                     probes_skipped=int(m * group.size),
                     pages_saved=int(pages))


def batch_query(index, queries, query_bucket_ids, k, started=None,
                budget=None, config=None, uids=None):
    """Answer ``Q`` queries in lockstep; returns a list of results.

    Drives one block of :class:`LocalRounds` through :func:`drive_block`,
    as ``C2LSH.query`` does for a block of one: the same termination
    rules and graceful fallback. ``config`` is an
    :class:`~repro.core.adaptive.AdaptiveConfig`, or ``None`` for
    classic; a chunked config needs ``uids``, the raw projections over
    the bucket width (``floor(uids) == query_bucket_ids``). ``started``
    (a ``time.perf_counter()`` value) lets the caller include work done
    before entry — e.g. batched hashing — in the per-query
    ``elapsed_s``; each query is stamped the moment it terminates, not
    when the whole batch returns.

    ``budget`` (a :class:`repro.reliability.QueryBudget`, or a sequence
    of per-query budgets — ``None`` entries unbudgeted) applies to each
    query individually: per-query attributed I/O pages and candidate
    counts are compared against the caps after every round, as for a
    single ``query()``, so a given seed and budget degrade identically on
    both paths. Each deadline cap is measured from
    its budget's ``started_at`` anchor when set, else from ``started`` —
    a shared entry-anchored deadline therefore trips all still-active
    queries together, while a serving front-end's per-request anchors
    trip each query on its own clock.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    n_queries = queries.shape[0]
    if n_queries == 0:
        return []
    state = QueryState(
        n_queries, k, index.params, index._data.shape[0], index._scale,
        t1=index._use_t1 and index._funcs.rehashable,
        budgets=as_budget_list(budget, n_queries),
        started=started if started is not None else time.perf_counter(),
        accounting=index._pm is not None,
        engine="batch" if config is None else "adaptive",
        probing=config is not None,
    )
    labels = {} if config is None else {"probe": "adaptive"}
    with trace.span("batch_block", queries=int(n_queries), k=int(k),
                    **labels):
        source = LocalRounds(index, queries, query_bucket_ids, uids,
                             config or CLASSIC)
        drive_block(state, source, source.start_levels(state))
    return state.results()
