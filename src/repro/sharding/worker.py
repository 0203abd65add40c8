"""Shard-side execution: per-process shard state and lockstep round tasks.

A worker process (or the in-process serial runner) hosts one or more
*shards* — contiguous row ranges of the dataset, each with its own
:class:`~repro.core.counting.CollisionCounter`, :class:`~repro.storage.
DataFile` and :class:`~repro.storage.PageManager`. The dataset itself is
never pickled per task: process workers attach a
:mod:`multiprocessing.shared_memory` segment the coordinator filled once,
and every shard index is built over a zero-copy slice view of it.

The protocol is deliberately thin. The coordinator
(:class:`repro.sharding.ShardedC2LSH`) owns *all* termination logic; a
worker only ever executes one radius round (or one fallback step) for the
shards it hosts and reports raw per-query observations back. That split is
what makes the sharded engine bit-identical to the unsharded index: the
same global T1/T2/exhaustion/budget decisions are applied to the union of
per-shard observations that the lockstep batch engine applies to its own.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from ..core.adaptive import (
    _chunk_bounds,
    collide_levels,
    occupancy_table,
    probe_order,
)
from ..core.batchengine import BatchQueryCounter
from ..core.counting import CollisionCounter
from ..hashing.pstable import PStableFamily, PStableFunctions
from ..obs import trace
from ..obs.registry import Counter, MetricsRegistry
from ..obs.remote import export_events
from ..obs.trace import tracing
from ..reliability.errors import InjectedWorkerExit
from ..reliability.faults import FaultInjector, FaultPlan
from ..storage.datafile import DataFile
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
    *global* hash functions every shard shares — sampling them once at the
    coordinator is what makes per-shard collision counts equal the
    unsharded index's counts restricted to the shard's rows.

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
    l: int = 1
    data_layout: str = "scattered"
    page_accounting: bool = False
    page_size: int = 4096
    page_latency_s: float = 0.0
    fault_plan: object = None
    fault_seed: int = 0
    c: int = 2
    incremental: bool = True
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


@dataclass
class _Session:
    """Per-(shard, batch) lockstep state, kept between rounds.

    ``probe`` (adaptive sessions only) is the coordinator's probe payload:
    the ``(Q, m)`` projection coordinates plus the chunk count of the
    :class:`repro.core.adaptive.AdaptiveConfig` driving the block.
    """

    counter: BatchQueryCounter
    queries: np.ndarray
    is_candidate: np.ndarray = field(default=None)
    qids: np.ndarray = field(default=None)
    probe: dict = field(default=None)


class _ShardIndex:
    """One shard: counting tables + data file over a zero-copy row slice."""

    def __init__(self, spec, data_slice, funcs, config):
        self.spec = spec
        self.offset = spec.start
        self.n = data_slice.shape[0]
        pm = None
        if config.page_accounting:
            injector = None
            if config.fault_plan is not None:
                # Per-shard seeds keep fault schedules independent across
                # shards while staying deterministic for a fixed layout.
                injector = FaultInjector(
                    FaultPlan.from_dict(config.fault_plan),
                    seed=config.fault_seed + spec.shard_id,
                )
            pm = PageManager(page_size=config.page_size,
                             page_latency_s=config.page_latency_s,
                             fault_injector=injector)
        self.pm = pm
        self.family = PStableFamily(data_slice.shape[1], w=config.family_w)
        started = time.perf_counter()
        hashed = data_slice if config.scale == 1.0 \
            else data_slice / config.scale
        self.counter = CollisionCounter(funcs.hash(hashed), pm)
        self.datafile = DataFile(data_slice, pm, layout=config.data_layout)
        self.build_seconds = time.perf_counter() - started

    def io_totals(self):
        if self.pm is None:
            return (0, 0)
        return (self.pm.stats.reads, self.pm.stats.writes)


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
        self._shards = {}
        self._sessions = {}
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
        funcs = PStableFunctions(self.config.projections,
                                 self.config.offsets, self.config.funcs_w)
        info = {}
        for spec in self.config.shards:
            shard = _ShardIndex(spec, self._full[spec.start:spec.stop],
                                funcs, self.config)
            self._shards[spec.shard_id] = shard
            reads, writes = shard.io_totals()
            info[spec.shard_id] = {
                "n": shard.n,
                "seconds": shard.build_seconds,
                "io_writes": writes,
            }
        return info

    # -- batch session protocol ---------------------------------------------

    def batch_start(self, session_id, queries, qids, probe=None):
        """Open a lockstep session for a ``(Q, dim)`` query block.

        ``probe`` (adaptive blocks only) carries the query projection
        coordinates and probing knobs; classic blocks omit it and every
        later round runs the exact classic protocol.
        """
        self._chaos_step("batch_start")
        for shard in self._shards.values():
            self._sessions[(session_id, shard.spec.shard_id)] = _Session(
                counter=BatchQueryCounter(shard.counter, qids),
                queries=queries,
                is_candidate=np.zeros((queries.shape[0], shard.n),
                                      dtype=bool),
                qids=np.asarray(qids, dtype=np.int64),
                probe=probe,
            )
        return True

    def batch_estimate(self, session_id):
        """Radius-start statistics for the session, reduced over shards.

        Returns ``{"collide": (Q, m) min collide levels, "occ": (Q, L)
        occupancy sums, "total": occupancy at saturation}`` — this
        worker's contribution to the coordinator's global
        :func:`repro.core.adaptive.merge_start_levels` reduction. Reads
        only the in-memory sorted id arrays; no pages are charged,
        matching the unsharded estimator.
        """
        self._chaos_step("batch_estimate")
        c = self.config.c
        collide = None
        occs = []
        total = 0
        for shard_id in sorted(self._shards):
            shard = self._shards[shard_id]
            session = self._sessions[(session_id, shard_id)]
            levels = collide_levels(shard.counter, session.qids, c)
            collide = levels if collide is None \
                else np.minimum(collide, levels)
            occs.append(occupancy_table(shard.counter, session.qids, c))
            total += shard.counter.m * shard.n
        width = max(o.shape[1] for o in occs)
        occ = np.zeros((collide.shape[0], width), dtype=np.int64)
        for shard_occ, shard_id in zip(occs, sorted(self._shards)):
            w = shard_occ.shape[1]
            occ[:, :w] += shard_occ
            if w < width:
                # Past its saturation a shard's buckets cover all its
                # entries in every table.
                shard = self._shards[shard_id]
                occ[:, w:] += shard.counter.m * shard.n
        return {"collide": collide, "occ": occ, "total": int(total)}

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
        """One shard's expand/cross/verify for one radius round.

        Mirrors one round of the unsharded block driver's local source
        (:class:`repro.core.batchengine.LocalRounds`), restricted to the
        shard's rows. A classic session probes all ``m`` tables in one
        pass. An adaptive session probes them most-promising-first (the
        same :func:`~repro.core.adaptive.probe_order` ranking), ``chunks``
        at a time, verifying each chunk's threshold-crossers as it goes;
        a query stops probing — and charges nothing for its remaining
        tables — once this shard's new candidates alone cover its global
        T2 deficit (``need["t2"]``): the coordinator adds at least these
        candidates, so its centralized T2 decision is guaranteed to fire
        this round. Global T1/T2/exhaustion/budget decisions all remain at
        the coordinator; the shard only ever cuts provably-redundant local
        work, shipping the per-query probe counts home on adaptive
        payloads.
        """
        shard = self._shards[shard_id]
        session = self._sessions[(session_id, shard_id)]
        probe = session.probe
        started = time.perf_counter()
        counter = session.counter
        m = session.qids.shape[1]
        A = active.size
        bounds = _chunk_bounds(m, 1 if probe is None else probe["chunks"])
        last = len(bounds) - 2
        order = (probe_order(probe["uids"][active], session.qids[active],
                             radius) if last else None)

        scanned = np.zeros(A, dtype=np.int64)
        io_pages = np.zeros(A, dtype=np.int64)
        probes_issued = np.zeros(A, dtype=np.int64)
        probes_skipped = np.zeros(A, dtype=np.int64)
        new_count = np.zeros(A, dtype=np.int64)
        parts = [[] for _ in range(A)]
        round_pos = np.arange(A)
        for ci in range(last + 1):
            if round_pos.size == 0:
                break
            lo_t, hi_t = int(bounds[ci]), int(bounds[ci + 1])
            sub = active[round_pos]
            tables = None  # whole round: the classic expansion
            if order is not None:
                tables = np.zeros((sub.size, m), dtype=bool)
                np.put_along_axis(tables, order[round_pos, lo_t:hi_t],
                                  True, axis=1)
            chunk_scanned, chunk_pages = counter.expand(radius, sub,
                                                        tables=tables)
            scanned[round_pos] += chunk_scanned
            if chunk_pages is not None:
                io_pages[round_pos] += chunk_pages
            probes_issued[round_pos] += hi_t - lo_t

            qpos_c, fresh = counter.crossings(self.config.l)
            if fresh.size:
                qb = np.searchsorted(qpos_c, np.arange(sub.size + 1))
                for i in range(sub.size):
                    s, e = int(qb[i]), int(qb[i + 1])
                    if e <= s:
                        continue
                    ids = fresh[s:e]
                    vecs, io = self._read(shard, ids)
                    pos = int(round_pos[i])
                    io_pages[pos] += io
                    parts[pos].append((
                        ids,
                        shard.family.distance(vecs,
                                              session.queries[sub[i]]),
                    ))
                    session.is_candidate[sub[i], ids] = True
                    new_count[pos] += ids.size

            if ci < last:
                fired = new_count[round_pos] >= need["t2"][round_pos]
                if np.any(fired):
                    probes_skipped[round_pos[fired]] += m - hi_t
                    round_pos = round_pos[~fired]

        qpos_parts, ids_parts, dists_parts = [], [], []
        for pos in range(A):
            for ids, dists in parts[pos]:
                qpos_parts.append(np.full(ids.size, pos, dtype=np.int64))
                ids_parts.append(ids)
                dists_parts.append(dists)
        qpos = (np.concatenate(qpos_parts) if qpos_parts
                else np.empty(0, dtype=np.int64))
        ids = (np.concatenate(ids_parts) if ids_parts
               else np.empty(0, dtype=np.int64))
        dists = (np.concatenate(dists_parts) if dists_parts
                 else np.empty(0, dtype=np.float64))
        adaptive = probe is not None
        return RoundPayload(
            shard_id=shard_id,
            qpos=qpos,
            ids=ids + shard.offset,
            dists=dists,
            scanned=scanned,
            io_pages=io_pages,
            exhausted=counter.exhausted_mask(active),
            seconds=time.perf_counter() - started,
            probes_issued=probes_issued if adaptive else None,
            probes_skipped=probes_skipped if adaptive else None,
        )

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
        the unsharded fallback order — collision count descending, global
        id ascending — so the coordinator's k-way merge reproduces
        ``argsort(-counts, kind="stable")`` over the whole database.
        """
        self._chaos_step("fallback_candidates")
        out = {}
        for shard_id in sorted(self._shards):
            shard = self._shards[shard_id]
            session = self._sessions[(session_id, shard_id)]
            per_query = {}
            for q, need in requests.items():
                remaining = np.flatnonzero(~session.is_candidate[q])
                if remaining.size == 0:
                    continue
                counts = session.counter.counts[q, remaining]
                order = np.argsort(-counts, kind="stable")[:int(need)]
                per_query[q] = (remaining[order] + shard.offset,
                                counts[order].astype(np.int64))
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
        shard = self._shards[shard_id]
        session = self._sessions[(session_id, shard_id)]
        answers = {}
        for q, gids in per_query.items():
            ids = np.asarray(gids, dtype=np.int64) - shard.offset
            vecs, io = self._read(shard, ids)
            answers[q] = (shard.family.distance(vecs,
                                                session.queries[q]), io)
        return answers

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
        return {sid: shard.io_totals()
                for sid, shard in self._shards.items()}

    def close(self):
        """Drop all shard state and detach the shared-memory view."""
        self._shards.clear()
        self._sessions.clear()
        self._full = None
        if self._shm is not None:
            self._shm.close()
            self._shm = None
        return True

    @staticmethod
    def _read(shard, ids):
        """Data-file read returning (vectors, pages charged)."""
        if shard.pm is None:
            return shard.datafile.read(ids), 0
        before = shard.pm.stats.reads
        vecs = shard.datafile.read(ids)
        return vecs, shard.pm.stats.reads - before


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
