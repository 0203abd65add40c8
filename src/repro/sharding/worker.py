"""Shard-side execution: per-process shard state and lockstep round tasks.

A worker process (or the in-process serial runner) hosts one or more
*shards*. A shard is an ordinary :class:`~repro.core.c2lsh.C2LSH` over a
contiguous row slice of the dataset, assembled from the coordinator's
global design (hash functions, ``(m, l)``, distance scale) with its own
:class:`~repro.storage.PageManager`. The dataset itself is never pickled
per task: process workers attach a :mod:`multiprocessing.shared_memory`
segment the coordinator filled once, and every shard index is built over a
zero-copy slice view of it.

A shard's round is the unsharded engine's round. A lockstep session opens
one :class:`~repro.core.batchengine.LocalRounds` per shard, and each round
runs its ``run_round`` with a shard-local observer (:class:`_ShardRound`)
in place of the block's :class:`~repro.core.batchengine.QueryState`. The
coordinator (:class:`repro.sharding.ShardedC2LSH`) owns *all* termination
logic; a worker only ever executes one radius round (or one fallback step)
for the shards it hosts and reports raw per-query observations back. That
split is what makes the sharded engine bit-identical to the unsharded
index: the same global T1/T2/exhaustion/budget decisions are applied to
the union of per-shard observations that the lockstep batch engine
applies to its own.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from ..core.adaptive import AdaptiveConfig, start_payload
from ..core.batchengine import LocalRounds, _verify_many
from ..core.c2lsh import C2LSH
from ..hashing.pstable import PStableFamily, PStableFunctions
from ..obs import trace
from ..obs.registry import Counter, MetricsRegistry
from ..obs.remote import export_events
from ..obs.trace import tracing
from ..reliability.errors import InjectedWorkerExit
from ..reliability.faults import FaultInjector, FaultPlan
from ..storage.pages import PageManager

__all__ = ["ShardSpec", "HostConfig", "ShardHost", "RoundPayload"]


@dataclass(frozen=True)
class ShardSpec:
    """One shard's identity: its id and global row range ``[start, stop)``."""

    shard_id: int
    start: int
    stop: int


@dataclass(frozen=True)
class HostConfig:
    """Everything a worker needs to build its shards (picklable).

    ``shm_name`` names a shared-memory segment holding the full dataset;
    when ``None`` (serial runner, or spawn-less fallbacks) ``data`` carries
    the matrix directly. ``projections``/``offsets``/``funcs_w`` are the
    *global* hash functions every shard shares, and ``params`` (a
    :class:`~repro.core.params.C2LSHParams`) and ``scale`` the global
    design — sampling them once at the coordinator is what makes
    per-shard collision counts equal the unsharded index's counts
    restricted to the shard's rows.

    ``worker_index`` is this host's position in the engine's worker
    layout; ``worker_exit.*`` fault rules scoped with
    :attr:`~repro.reliability.FaultRule.worker` match against it.
    ``chaos_generation`` counts how many times the supervisor has
    respawned this worker: ``worker_exit.*`` rules with ``max_triggers``
    are treated as exhausted once the generation reaches the trigger
    budget, so a kill-once chaos rule does not re-kill every respawned
    incarnation (each incarnation's injector state is necessarily
    fresh).
    """

    shards: tuple
    shape: tuple
    dtype: str
    shm_name: str | None = None
    data: object = None
    projections: object = None
    offsets: object = None
    funcs_w: float = 1.0
    family_w: float = 1.0
    scale: float = 1.0
    params: object = None
    data_layout: str = "scattered"
    page_accounting: bool = False
    page_size: int = 4096
    fault_plan: object = None
    fault_seed: int = 0
    worker_index: int = 0
    chaos_generation: int = 0


@dataclass
class RoundPayload:
    """One shard's observations for one radius round.

    ``qpos`` indexes into the round's *active* array; ``ids`` are global
    object ids (shard offset already applied) sorted ascending within each
    query, exactly the order the unsharded engine verifies them in.

    ``spans`` (present when the coordinator asked for collection) is the
    shard's span subtree for this round, exported with
    :func:`repro.obs.remote.export_events` and stamped worker-side with
    shard id and pid; the coordinator grafts it into its live trace.
    ``metrics`` piggybacks the host's counter deltas since the last
    report (attached to one payload per host call).

    ``probes_issued`` / ``probes_skipped`` (adaptive rounds only; ``None``
    on classic rounds) count per-table bucket probes this shard executed
    vs. early-exited past, per active query — shipped home so the
    coordinator's global stats and termination decisions stay
    centralized.
    """

    shard_id: int
    qpos: np.ndarray
    ids: np.ndarray
    dists: np.ndarray
    scanned: np.ndarray
    io_pages: np.ndarray
    exhausted: np.ndarray
    seconds: float = 0.0
    spans: list = None
    metrics: dict = None
    probes_issued: np.ndarray = None
    probes_skipped: np.ndarray = None


class _ShardRound:
    """What one shard's round found, gathered while ``LocalRounds`` runs it.

    Stands in for the coordinator's
    :class:`~repro.core.batchengine.QueryState` and takes the one decision
    a shard takes: between chunks, a query stops probing this shard once
    the shard's new candidates cover its global T2 deficit (``need["t2"]``
    per query of ``group``). The coordinator adds at least these
    candidates, so its own T2 is sure to fire this round; every other
    decision is the coordinator's. Arrays are indexed by block query.
    """

    traced = False  # the payload carries no pages_saved

    def __init__(self, n_queries, group, need):
        self.scanned = np.zeros(n_queries, dtype=np.int64)
        self.io_reads = np.zeros(n_queries, dtype=np.int64)
        self.probes_issued = np.zeros(n_queries, dtype=np.int64)
        self.probes_skipped = np.zeros(n_queries, dtype=np.int64)
        self.deficit = np.zeros(n_queries, dtype=np.int64)
        if need is not None:
            self.deficit[group] = need["t2"]
        self.found = {}  # query -> [(ids, dists)], in verification order

    def charge(self, sub, scanned, pages, probes):
        self.scanned[sub] += scanned
        if pages is not None:
            self.io_reads[sub] += pages
        self.probes_issued[sub] += probes

    def skip(self, sub, probes):
        self.probes_skipped[sub] += probes

    def add(self, q, ids, dists):
        self.found.setdefault(q, []).append((ids, dists))
        self.deficit[q] -= ids.size

    def stop(self, sub, radius, exhausted=None, level=None):
        # Asked between chunks; at a round's end the answer goes unused.
        return self.deficit[sub] <= 0

    def payload(self, shard_id, offset, group, exhausted, seconds,
                probing):
        """The round as a :class:`RoundPayload` over ``group``; ids
        become global."""
        parts = [(i, ids, dists) for i, q in enumerate(group.tolist())
                 for ids, dists in self.found.get(q, ())]
        return RoundPayload(
            shard_id=shard_id,
            qpos=np.concatenate([np.empty(0, dtype=np.int64)] + [
                np.full(ids.size, i) for i, ids, _ in parts]),
            ids=np.concatenate([np.empty(0, dtype=np.int64)] + [
                ids for _, ids, _ in parts]) + offset,
            dists=np.concatenate([np.empty(0)] + [
                dists for _, _, dists in parts]),
            scanned=self.scanned[group],
            io_pages=self.io_reads[group],
            exhausted=exhausted,
            seconds=seconds,
            probes_issued=self.probes_issued[group] if probing else None,
            probes_skipped=self.probes_skipped[group] if probing else None,
        )


class ShardHost:
    """All shards hosted by one worker, plus their live batch sessions.

    Construction only attaches the data (shared memory or direct array);
    :meth:`build` does the actual index construction so the coordinator
    can time the parallel build phase.
    """

    def __init__(self, config):
        self.config = config
        self._subprocess = False  # _init_host flips this in pool workers
        self._chaos = self._chaos_injector(config)
        self._shm = None
        if config.shm_name is not None:
            from multiprocessing import shared_memory

            # Attaching re-registers the segment with the resource
            # tracker, but pool children inherit the coordinator's tracker
            # process and its cache is a name-keyed set, so this is
            # idempotent; the coordinator's unlink() removes the single
            # entry. (Unregistering here instead would yank that entry
            # and make the coordinator's unlink die in the tracker.)
            self._shm = shared_memory.SharedMemory(name=config.shm_name)
            self._full = np.ndarray(config.shape, dtype=config.dtype,
                                    buffer=self._shm.buf)
        else:
            self._full = np.asarray(config.data)
        self._shards = {}     # shard id -> (row offset, C2LSH)
        self._sessions = {}   # (session id, shard id) -> LocalRounds
        # Host-local telemetry: counters accumulate here and ship to the
        # coordinator as deltas piggybacked on round payloads.
        self.metrics = MetricsRegistry()
        self._shipped = {}

    # -- chaos (worker_exit sites) -------------------------------------------

    @staticmethod
    def _chaos_injector(config):
        """The host's protocol-step injector, or ``None`` when inert.

        Only ``worker_exit.*`` rules are installed (page-fault rules stay
        with the per-shard page managers, whose seeds and op counts must
        be untouched for bit-identical replay after a respawn). Rules
        scoped to another worker are dropped, as are kill-``N``-times
        rules whose trigger budget the respawn generation has consumed.
        """
        if config.fault_plan is None:
            return None
        plan = FaultPlan.from_dict(config.fault_plan)
        rules = tuple(
            r for r in plan.rules
            if r.site.startswith("worker_exit")
            and (r.worker is None or r.worker == config.worker_index)
            and (r.max_triggers is None
                 or r.max_triggers > config.chaos_generation)
        )
        if not rules:
            return None
        return FaultInjector(
            FaultPlan(rules),
            seed=config.fault_seed + 100_003 + config.worker_index,
        )

    def _chaos_step(self, step):
        """One op at the ``worker_exit.<step>`` site; may stall or die.

        An ``"exit"`` rule firing here kills the worker process with
        ``os._exit`` — indistinguishable from an OOM kill as far as the
        coordinator's pool is concerned. In-process hosts (serial
        runner) let :class:`InjectedWorkerExit` propagate instead so the
        runner can simulate the death without taking the caller down.
        """
        if self._chaos is None:
            return
        try:
            self._chaos.check(f"worker_exit.{step}")
        except InjectedWorkerExit:
            if self._subprocess:
                os._exit(17)
            raise

    # -- build ---------------------------------------------------------------

    def build(self):
        """Build every hosted shard; returns per-shard build info."""
        self._chaos_step("build")
        config = self.config
        family = PStableFamily(config.shape[1], w=config.family_w)
        funcs = PStableFunctions(config.projections, config.offsets,
                                 config.funcs_w)
        info = {}
        for spec in config.shards:
            started = time.perf_counter()
            pm = self._page_manager(spec)
            index = C2LSH(page_manager=pm, data_layout=config.data_layout)
            index._assemble(self._full[spec.start:spec.stop], family, funcs,
                            config.params, config.scale)
            self._shards[spec.shard_id] = (spec.start, index)
            info[spec.shard_id] = {
                "n": spec.stop - spec.start,
                "seconds": time.perf_counter() - started,
                "io_writes": 0 if pm is None else pm.stats.writes,
            }
        return info

    def _page_manager(self, spec):
        """A shard's own page manager, or ``None`` without accounting."""
        config = self.config
        if not config.page_accounting:
            return None
        injector = None
        if config.fault_plan is not None:
            # Per-shard seeds keep fault schedules independent across
            # shards while staying deterministic for a fixed layout.
            injector = FaultInjector(
                FaultPlan.from_dict(config.fault_plan),
                seed=config.fault_seed + spec.shard_id,
            )
        return PageManager(page_size=config.page_size,
                           fault_injector=injector)

    # -- batch session protocol ---------------------------------------------

    def batch_start(self, session_id, queries, qids, probe=None):
        """Open a lockstep session for a ``(Q, dim)`` query block.

        Each shard gets its own :class:`~repro.core.batchengine.
        LocalRounds`. ``probe`` (adaptive blocks only) carries the query
        projection coordinates and the chunk count; classic blocks omit
        it and probe every table in one pass. Shards take certified exits
        only: a provisional exit ranks objects by partial counts over the
        whole database, which no shard holds.
        """
        self._chaos_step("batch_start")
        chunks = 1 if probe is None else probe["chunks"]
        config = AdaptiveConfig(chunks=chunks, start_estimate=False,
                                provisional_exit=False)
        uids = None if probe is None else probe["uids"]
        for shard_id, (_, index) in self._shards.items():
            self._sessions[(session_id, shard_id)] = LocalRounds(
                index, queries, qids, uids, config)
        return True

    def batch_estimate(self, session_id):
        """Radius-start statistics for the session, one entry per shard.

        Each entry is the shard's
        :func:`repro.core.adaptive.start_payload`: one shard's part of the
        coordinator's :func:`repro.core.adaptive.merge_start_levels`,
        which does the only merge. No pages are charged, matching the
        unsharded estimator.
        """
        self._chaos_step("batch_estimate")
        out = []
        for shard_id in sorted(self._shards):
            rounds = self._sessions[(session_id, shard_id)]
            out.append(start_payload(rounds.index._counter, rounds.qids,
                                     rounds.index.params.c))
        return out

    def batch_round(self, session_id, radius, active, collect=False,
                    need=None):
        """Advance every hosted shard one radius round for ``active``.

        Returns one :class:`RoundPayload` per shard (see
        :meth:`_shard_round`). ``need`` is ``None`` on classic sessions;
        adaptive rounds send a dict whose ``"t2"`` entry gives each
        active query's remaining T2 deficit.

        When ``collect`` is true (the coordinator's trace is live) each
        shard's round runs inside a local span capture; the exported
        subtree — stamped with shard id and worker pid — ships back on the
        payload for the coordinator to graft.
        """
        self._chaos_step("batch_round")
        payloads = []
        for shard_id in sorted(self._shards):
            if collect:
                with tracing() as local:
                    with trace.span(
                        "shard.worker.round",
                        shard=shard_id,
                        radius=int(radius),
                        pid=os.getpid(),
                    ) as wspan:
                        payload = self._shard_round(
                            session_id, shard_id, radius, active, need)
                        wspan.set(
                            pages=int(payload.io_pages.sum()),
                            candidates=int(payload.ids.size),
                            scanned=int(payload.scanned.sum()),
                        )
                        if payload.probes_issued is not None:
                            wspan.set(
                                probes_issued=int(
                                    payload.probes_issued.sum()),
                                probes_skipped=int(
                                    payload.probes_skipped.sum()),
                            )
                payload.spans = export_events(local.events)
            else:
                payload = self._shard_round(session_id, shard_id, radius,
                                            active, need)
            self._note_round(shard_id, payload)
            payloads.append(payload)
        if payloads:
            payloads[0].metrics = self._counter_deltas()
        return payloads

    def _shard_round(self, session_id, shard_id, radius, active, need):
        """One shard's round: the local engine's round under a
        :class:`_ShardRound` observer, returned as its payload.

        A classic session (no ``uids``) reports no probe counts.
        """
        offset, _ = self._shards[shard_id]
        rounds = self._sessions[(session_id, shard_id)]
        started = time.perf_counter()
        seen = _ShardRound(rounds.queries.shape[0], active, need)
        rounds.run_round(seen, active, radius, level=None)
        return seen.payload(shard_id, offset, active,
                            rounds.counter.exhausted_mask(active),
                            time.perf_counter() - started,
                            probing=rounds.uids is not None)

    def _note_round(self, shard_id, payload):
        """Fold one round's numbers into the host-local registry."""
        self.metrics.counter(f"shard.worker.{shard_id}.rounds").inc()
        self.metrics.counter(f"shard.worker.{shard_id}.io.pages").inc(
            int(payload.io_pages.sum()))
        self.metrics.counter(f"shard.worker.{shard_id}.candidates").inc(
            int(payload.ids.size))
        if payload.probes_issued is not None:
            self.metrics.counter(
                f"shard.worker.{shard_id}.probes.issued").inc(
                int(payload.probes_issued.sum()))
            self.metrics.counter(
                f"shard.worker.{shard_id}.probes.skipped").inc(
                int(payload.probes_skipped.sum()))

    def _counter_deltas(self):
        """Counter movement since the last report, or ``None``.

        Only deltas travel, so the coordinator can fold them into its own
        registry with plain ``inc()`` regardless of how many broadcasts a
        batch takes. Shard ids live in the metric *names*, keeping the
        merge trivially commutative across hosts.
        """
        deltas = {}
        for name, metric in self.metrics:
            if not isinstance(metric, Counter):
                continue
            prev = self._shipped.get(name, 0)
            if metric.value != prev:
                deltas[name] = metric.value - prev
                self._shipped[name] = metric.value
        return deltas or None

    def fallback_candidates(self, session_id, requests):
        """Best-counted unverified objects per query, for the global merge.

        ``requests`` maps query index → how many fallback candidates the
        coordinator may still take. Each shard returns its top slice under
        the unsharded fallback order
        (:meth:`~repro.core.batchengine.LocalRounds.best_unverified`) with
        the objects' collision counts, so the coordinator's k-way merge
        reproduces ``argsort(-counts, kind="stable")`` over the whole
        database.
        """
        self._chaos_step("fallback_candidates")
        out = {}
        for shard_id in sorted(self._shards):
            offset, _ = self._shards[shard_id]
            rounds = self._sessions[(session_id, shard_id)]
            per_query = {}
            for q, need in requests.items():
                ids = rounds.best_unverified(q, int(need))
                if ids.size:
                    per_query[q] = (ids + offset, rounds.counter.counts[
                        q, ids].astype(np.int64))
            out[shard_id] = per_query
        return out

    def fallback_verify(self, session_id, requests, collect=False):
        """Verify globally selected fallback ids; returns dists + I/O.

        ``requests`` maps shard id → {query → global ids}, each id list in
        the coordinator's merged order. Returns ``{"answers": {shard_id:
        {query: (dists, io)}}, "spans": [...], "metrics": {...}}`` —
        fallback verification reads real pages, so its spans and counter
        deltas travel exactly like round payloads do.
        """
        self._chaos_step("fallback_verify")
        out = {}
        spans = []
        for shard_id, per_query in requests.items():
            if collect:
                with tracing() as local:
                    with trace.span(
                        "shard.worker.fallback",
                        shard=shard_id,
                        pid=os.getpid(),
                    ) as wspan:
                        answers = self._shard_fallback_verify(
                            session_id, shard_id, per_query)
                        pages = sum(io for _, io in answers.values())
                        wspan.set(pages=int(pages),
                                  queries=len(per_query))
                spans.extend(export_events(local.events))
            else:
                answers = self._shard_fallback_verify(
                    session_id, shard_id, per_query)
                pages = sum(io for _, io in answers.values())
            self.metrics.counter(
                f"shard.worker.{shard_id}.io.pages").inc(int(pages))
            out[shard_id] = answers
        return {"answers": out, "spans": spans,
                "metrics": self._counter_deltas()}

    def _shard_fallback_verify(self, session_id, shard_id, per_query):
        """Verify one shard's fallback ids; ``{query: (dists, io)}``."""
        offset, index = self._shards[shard_id]
        rounds = self._sessions[(session_id, shard_id)]
        jobs = [(q, np.asarray(gids, dtype=np.int64) - offset,
                 rounds.queries[q]) for q, gids in per_query.items()]
        io = np.zeros(rounds.queries.shape[0], dtype=np.int64)
        verified = _verify_many(index, jobs, io)
        return {q: (dists, int(io[q]))
                for (q, _, _), dists in zip(jobs, verified)}

    def batch_end(self, session_id):
        """Drop the session's per-shard state."""
        self._chaos_step("batch_end")
        for shard_id in self._shards:
            self._sessions.pop((session_id, shard_id), None)
        return True

    # -- introspection -------------------------------------------------------

    def ping(self):
        """Heartbeat probe: identity and liveness of this host.

        Deliberately does *not* pass through the chaos site — a probe
        answering "alive" must mean the process can still run protocol
        steps, and the supervisor uses the response to decide whether a
        quiet worker is stuck or merely idle.
        """
        return {
            "pid": os.getpid(),
            "worker": self.config.worker_index,
            "shards": sorted(self._shards),
            "sessions": len(self._sessions),
        }

    def io_totals(self):
        """Cumulative (reads, writes) per hosted shard."""
        return {sid: (0, 0) if index._pm is None
                else (index._pm.stats.reads, index._pm.stats.writes)
                for sid, (_, index) in self._shards.items()}

    def close(self):
        """Drop all shard state and detach the shared-memory view."""
        self._shards.clear()
        self._sessions.clear()
        self._full = None
        if self._shm is not None:
            self._shm.close()
            self._shm = None
        return True

# -- process-pool entry points (module-level for picklability) ---------------

_HOST = None


def _init_host(config):
    """ProcessPoolExecutor initializer: build this worker's ShardHost."""
    global _HOST
    _HOST = ShardHost(config)
    # Real process death on injected exits: the coordinator's supervisor
    # must see a broken pool, exactly as it would after an OOM kill.
    _HOST._subprocess = True


def _call_host(method, *args):
    """Dispatch one task to the process-global host."""
    return getattr(_HOST, method)(*args)
