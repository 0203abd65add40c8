"""ShardedC2LSH: a multi-core C2LSH engine with exact fan-out queries.

The dataset is row-partitioned into ``S`` shards. Each shard is a C2LSH
index (its own sorted hash tables and data file) built over its rows —
but all shards share *one* set of hash functions, one distance scale and
one global ``(m, l)`` design, all derived from the full dataset exactly
as :meth:`repro.core.c2lsh.C2LSH.fit` derives them. An object's
collision count with a query depends only on its own hashes, so
per-shard counts equal the unsharded counts restricted to the shard's
rows.

Queries run in **lockstep across shards**: every radius round fans out to
all workers, and the coordinator applies the T1/T2/exhaustion/budget
termination rules to the *union* of per-shard observations — with the
very block driver the unsharded batch engine runs
(:func:`repro.core.batchengine.drive_block`), fed by a round source that
fans out and merges (:class:`_ShardRounds`). Merged candidates keep
ascending-global-id order within each round (shards own contiguous row
ranges, merged in shard order), so the final top-``k`` selection sees the
identical candidate array the unsharded index builds — results are
**bit-identical**, ties included.

Parallelism is process-based: ``n_workers`` persistent single-process
pools, each owning a round-robin group of shards. The dataset is placed in
:mod:`multiprocessing.shared_memory` once at ``fit`` time and every worker
builds its shards over zero-copy slice views — no per-task pickling of the
data matrix. ``n_workers=0`` runs the identical protocol in-process (no
pools, no shared memory) so tests and small indexes pay no process
overhead.

Worker death is survivable. Every protocol call runs under a deadline
derived from the active query budget plus the failover policy's round
timeout, and a :class:`repro.sharding.supervisor.WorkerSupervisor`
dispatches failures (broken pool, missed deadline, injected exit) to a
configurable policy: ``"rebuild"`` respawns the worker from its retained
config — the shared-memory segment is still alive at the coordinator —
replays the current lockstep session onto it and retries the failed call,
keeping answers bit-identical; ``"degrade"`` answers from surviving
shards, marking ``QueryStats.degraded`` and naming the lost shards in
``QueryStats.failed_shards``; ``"raise"`` fails fast with
:class:`repro.reliability.WorkerFailureError`. A circuit breaker
quarantines a worker that keeps dying (served around, degraded, while a
background respawn heals it), and every failover leaves a flight-recorder
postmortem plus ``shard.failover.*`` metrics.
"""

from __future__ import annotations

import itertools
import time
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from ..core.adaptive import (
    CLASSIC,
    as_probe_config,
    check_adaptive_supported,
    merge_start_levels,
)
from ..core.batchengine import QueryState, drive_block
from ..core.c2lsh import C2LSH
from ..obs import flight, trace
from ..obs.registry import MetricsRegistry
from ..obs.remote import graft
from ..reliability.budget import as_budget_list
from ..reliability.errors import InjectedWorkerExit, WorkerFailureError
from ..reliability.faults import FaultPlan
from ..storage.pages import DEFAULT_PAGE_SIZE
from ..validation import as_data_matrix, as_query_matrix, as_query_vector
from .plan import assign_shards, default_parallelism, shard_offsets
from .supervisor import FailoverPolicy, WorkerSupervisor, protocol_timeout
from .worker import HostConfig, ShardHost, ShardSpec, _call_host, _init_host

__all__ = ["ShardedC2LSH"]

#: Query blocks are capped like the unsharded batch path, bounding every
#: worker's ``(block, n_shard)`` working matrices.
_BATCH_BLOCK = 1024


class _SerialRunner:
    """In-process execution of the worker protocol (``n_workers=0``).

    ``order`` is a test hook: a permutation of host indices controlling
    *execution* order. Results are always returned keyed by host index,
    which is how the engine's merges stay independent of scheduling.

    Failure semantics mirror the process backend closely enough for the
    supervision layer to be exercised without processes: an
    :class:`InjectedWorkerExit` escaping a host "kills" it (the slot is
    cleared and reported as ``"worker_exit"``) and the slot answers
    ``"dead"`` until :meth:`respawn` installs a fresh host. Timeouts are
    accepted but inert — an in-process call cannot be preempted.
    """

    def __init__(self, configs, order=None):
        self._hosts = [ShardHost(config) for config in configs]
        self.order = order

    def _sequence(self, workers):
        if self.order is None:
            return list(workers)
        selected = set(workers)
        return [i for i in self.order if i in selected]

    def run(self, method, args_for, workers, timeout=None):
        """Execute ``method`` on each worker; ``(results, failures)``.

        Application exceptions re-raise only after every requested host
        has run, matching the process backend's full-gather contract.
        """
        results, failures = {}, {}
        error = None
        for i in self._sequence(workers):
            host = self._hosts[i]
            if host is None:
                failures[i] = "dead"
                continue
            try:
                results[i] = getattr(host, method)(*args_for(i))
            except InjectedWorkerExit:
                # In-process stand-in for process death: everything the
                # host held (shards, live sessions) is gone.
                self._hosts[i] = None
                failures[i] = "worker_exit"
            except Exception as exc:
                error = error if error is not None else exc
        if error is not None:
            raise error
        return results, failures

    def respawn(self, i, config):
        self._hosts[i] = ShardHost(config)

    def close(self):
        for host in self._hosts:
            if host is not None:
                host.close()
        self._hosts = []


class _ProcessRunner:
    """One persistent single-process pool per worker (shard affinity).

    A plain multi-worker ``ProcessPoolExecutor`` routes tasks to arbitrary
    idle workers; per-shard state (counting tables, live sessions) needs
    every task for a shard to land on the process that owns it. One
    executor per worker gives that affinity with stock library machinery.

    Gathers are all-or-nothing: :meth:`run` waits — under one shared
    deadline — on *every* submitted future before returning or raising,
    so a crashed worker can neither wedge the coordinator forever nor
    strand sibling results half-collected while the shared-memory segment
    is still mapped. A worker that breaks its pool or misses the deadline
    is killed and its slot cleared; later calls report it ``"dead"``
    until :meth:`respawn` builds a replacement pool from the retained
    host config.
    """

    def __init__(self, configs):
        import multiprocessing as mp

        methods = mp.get_all_start_methods()
        self._context = mp.get_context("fork" if "fork" in methods
                                       else None)
        self._pools = [self._spawn(config) for config in configs]

    def _spawn(self, config):
        return ProcessPoolExecutor(max_workers=1, mp_context=self._context,
                                   initializer=_init_host,
                                   initargs=(config,))

    def run(self, method, args_for, workers, timeout=None):
        """Execute ``method`` on each worker; ``(results, failures)``.

        ``timeout`` (seconds, ``None`` = unbounded) is one deadline shared
        by the whole gather — the engine's per-call protocol deadline.
        Worker deaths land in ``failures`` as ``"broken_pool"``,
        ``"timeout"`` or ``"dead"``; an application exception is
        re-raised, but only once every future has been gathered.
        """
        results, failures = {}, {}
        futures = {}
        for i in workers:
            pool = self._pools[i]
            if pool is None:
                failures[i] = "dead"
                continue
            try:
                futures[i] = pool.submit(_call_host, method, *args_for(i))
            except Exception:
                self._kill(i)
                failures[i] = "broken_pool"
        deadline = None if timeout is None \
            else time.monotonic() + float(timeout)
        error = None
        for i, future in futures.items():
            remaining = None if deadline is None \
                else max(0.0, deadline - time.monotonic())
            try:
                results[i] = future.result(timeout=remaining)
            except _FuturesTimeout:
                self._kill(i)
                failures[i] = "timeout"
            except BrokenProcessPool:
                self._kill(i)
                failures[i] = "broken_pool"
            except Exception as exc:
                error = error if error is not None else exc
        if error is not None:
            raise error
        return results, failures

    def _kill(self, i):
        """Tear worker ``i``'s pool down without waiting on it."""
        pool, self._pools[i] = self._pools[i], None
        if pool is None:
            return
        try:
            for proc in list(getattr(pool, "_processes", {}).values()):
                proc.kill()
        except Exception:
            pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    def respawn(self, i, config):
        self._kill(i)
        self._pools[i] = self._spawn(config)

    def close(self):
        for pool in self._pools:
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)
        self._pools = []


def _release_resources(runner, shm):
    """Idempotent teardown shared by close(), GC and interpreter exit."""
    if runner is not None:
        try:
            runner.close()
        except Exception:
            pass
    if shm is not None:
        try:
            shm.close()
            shm.unlink()
        except Exception:
            pass


class ShardedC2LSH:
    """Row-sharded C2LSH with parallel build and exact fan-out queries.

    Parameters
    ----------
    n_shards:
        Number of row partitions (``S``).
    n_workers:
        Worker processes. ``None`` resolves to
        ``min(available cpus, n_shards)`` via
        :func:`repro.sharding.default_parallelism`; ``0`` runs everything
        in-process (serial fallback — identical results, no process or
        shared-memory overhead).
    c, w, beta, delta, alpha, m, seed, rng, base_radius, data_layout:
        As on :class:`repro.core.c2lsh.C2LSH`; the derived design
        (``scale``, ``params``, hash functions) is computed from the
        *full* dataset with the exact RNG consumption order of
        ``C2LSH.fit``, so ``ShardedC2LSH(seed=s)`` answers queries
        bit-identically to ``C2LSH(seed=s)`` over the same data.
    use_t1:
        Disable the T1 stopping rule (A4 ablation parity).
    page_accounting:
        Give every shard its own :class:`repro.storage.PageManager`;
        per-query ``QueryStats.io_reads`` then reports the *sum* of pages
        charged across shards.
    page_size:
        Forwarded to the per-shard page managers.
    fault_plan, fault_seed:
        Optional :class:`repro.reliability.FaultPlan` (or its dict form)
        installed on every shard's page manager, seeded per shard as
        ``fault_seed + shard_id``. ``"exit"`` rules at the
        ``worker_exit.*`` sites additionally arm worker-death chaos in
        each host (see :mod:`repro.sharding.worker`).
    on_worker_failure:
        What a dead or stuck worker does to in-flight queries.
        ``"rebuild"`` (default) respawns it from its retained config and
        replays the current lockstep session so answers stay
        bit-identical to the unsharded index; ``"degrade"`` answers from
        surviving shards, setting ``QueryStats.degraded`` and
        ``QueryStats.failed_shards``; ``"raise"`` fails fast with
        :class:`repro.reliability.WorkerFailureError`. Shorthand for
        ``failover=FailoverPolicy(on_failure=...)``.
    failover:
        A full :class:`repro.sharding.FailoverPolicy` — protocol
        deadlines, circuit-breaker tuning, background-respawn switch.
        Overrides ``on_worker_failure`` when given.
    metrics:
        A :class:`repro.obs.MetricsRegistry` for the engine's ``shard.*``
        counters and histograms; private registry when omitted.

    The engine owns OS resources (worker processes, a shared-memory
    segment); call :meth:`close` — or use it as a context manager — when
    done. Queries after :meth:`close` raise ``RuntimeError``.
    """

    def __init__(self, n_shards=4, n_workers=None, *, c=2, w=None,
                 beta=None, delta=0.01, alpha=None, m=None, seed=None,
                 rng=None, base_radius="auto", data_layout="scattered",
                 use_t1=True, page_accounting=False,
                 page_size=DEFAULT_PAGE_SIZE, fault_plan=None, fault_seed=0,
                 on_worker_failure="rebuild", failover=None, metrics=None):
        if int(n_shards) < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = int(n_shards)
        if n_workers is None:
            n_workers = default_parallelism(limit=self.n_shards)
        if int(n_workers) < 0:
            raise ValueError(f"n_workers must be >= 0, got {n_workers}")
        self.n_workers = min(int(n_workers), self.n_shards)
        # The coordinator designs the index as an unsharded C2LSH with the
        # same knobs and seed would (C2LSH._design).
        self._designer = C2LSH(c=c, w=w, beta=beta, delta=delta,
                               alpha=alpha, m=m, seed=seed, rng=rng,
                               base_radius=base_radius)
        self._data_layout = data_layout
        self._use_t1 = bool(use_t1)
        self._page_accounting = bool(page_accounting)
        self._page_size = int(page_size)
        if fault_plan is not None and isinstance(fault_plan, FaultPlan):
            fault_plan = fault_plan.to_dict()
        self._fault_plan = fault_plan
        self._fault_seed = int(fault_seed)
        if failover is None:
            failover = FailoverPolicy(on_failure=on_worker_failure)
        self._failover = failover
        self.metrics = metrics if metrics is not None else MetricsRegistry()

        self.params = None
        self.build_info = None
        self._data = None
        self._funcs = None
        self._family = None
        self._scale = 1.0
        self._offsets = None
        self._shard_worker = None
        self._runner = None
        self._supervisor = None
        self._shm = None
        self._finalizer = None
        self._closed = False
        self._session_ids = itertools.count()

    # -- lifecycle -----------------------------------------------------------

    def fit(self, data):
        """Partition ``data``, build all shards in parallel; returns self.

        The design phase (distance scale, ``(m, l)``, hash-function
        sample) runs at the coordinator over the full dataset, through the
        design step of :meth:`repro.core.c2lsh.C2LSH.fit`; each worker then
        assembles its shards as C2LSH indexes under that design.
        """
        if self._runner is not None:
            raise RuntimeError(
                "engine is already fitted; create a new ShardedC2LSH"
            )
        data = as_data_matrix(data)
        self._assemble(data, *self._designer._design(data))
        return self

    def _assemble(self, data, family, funcs, params, scale, offsets=None):
        """Wire a prepared design into live shards (fit and load paths)."""
        n = data.shape[0]
        if self.n_shards > n:
            raise ValueError(
                f"cannot split {n} rows into {self.n_shards} shards"
            )
        self._family = family
        self._funcs = funcs
        self.params = params
        self._scale = float(scale)
        if offsets is None:
            offsets = shard_offsets(n, self.n_shards)
        self._offsets = np.asarray(offsets, dtype=np.int64)
        specs = [ShardSpec(s, int(self._offsets[s]),
                           int(self._offsets[s + 1]))
                 for s in range(self.n_shards)]
        groups = assign_shards(self.n_shards, max(self.n_workers, 1))
        self._shard_worker = {}
        for w, group in enumerate(groups):
            for s in group:
                self._shard_worker[s] = w

        serial = self.n_workers == 0
        with trace.span("shard.build", shards=self.n_shards,
                        workers=self.n_workers, n=int(n)):
            common = dict(
                shape=tuple(data.shape), dtype=str(data.dtype),
                projections=funcs._projections, offsets=funcs._offsets,
                funcs_w=funcs.w, family_w=family.w, scale=self._scale,
                params=params, data_layout=self._data_layout,
                page_accounting=self._page_accounting,
                page_size=self._page_size,
                fault_plan=self._fault_plan, fault_seed=self._fault_seed,
            )
            if serial:
                self._data = common["data"] = data
            else:
                from multiprocessing import shared_memory

                self._shm = shared_memory.SharedMemory(create=True,
                                                       size=data.nbytes)
                shared = np.ndarray(data.shape, dtype=data.dtype,
                                    buffer=self._shm.buf)
                shared[:] = data
                self._data = shared
                common["shm_name"] = self._shm.name
            configs = [HostConfig(shards=tuple(specs[s] for s in group),
                                  worker_index=w, **common)
                       for w, group in enumerate(groups)]
            self._runner = (_SerialRunner if serial
                            else _ProcessRunner)(configs)
            self._supervisor = WorkerSupervisor(
                self._runner, configs, groups, self._failover,
                self.metrics)
            self._finalizer = weakref.finalize(
                self, _release_resources, self._runner, self._shm)
            started = time.perf_counter()
            try:
                infos = self._build_with_failover()
            except BaseException:
                # A failed build must not leave a half-fitted engine:
                # release the pools and the shared-memory segment and
                # return to the pre-fit state so fit() can be retried.
                self._reset_unfitted()
                raise
            build_seconds = time.perf_counter() - started

        self.build_info = {
            "seconds": build_seconds,
            "shards": {sid: info for worker in infos.values()
                       for sid, info in worker.items()},
        }
        self.metrics.gauge("shard.shards").set(self.n_shards)
        self.metrics.gauge("shard.workers").set(self.n_workers)
        self.metrics.histogram("shard.build.seconds").observe(build_seconds)

    def _build_with_failover(self):
        """Fan the build out; respawn-and-retry dead workers if allowed.

        Returns ``{worker: {shard_id: build info}}``. A worker that dies
        mid-build is respawned and rebuilt under the ``"rebuild"`` policy
        (its chaos generation advances, so a kill-once fault rule does
        not re-kill the replacement); any other policy — or a failed
        respawn, or a tripped breaker — raises
        :class:`WorkerFailureError` (and the caller resets the engine).
        """
        sup = self._supervisor
        results, failures = sup.call(
            "build", timeout=sup.policy.build_timeout_s)
        if failures and sup.policy.on_failure != "rebuild":
            raise WorkerFailureError("build", failures, results)
        for worker, cause in sorted(failures.items()):
            info = None if sup.breaker.tripped(worker) \
                else sup.respawn(worker)
            if info is None:
                raise WorkerFailureError("build", {worker: cause},
                                         results)
            results[worker] = info
        return results

    def _reset_unfitted(self):
        """Tear everything down and return to the pre-fit state."""
        if self._supervisor is not None:
            self._supervisor.close()
        if self._finalizer is not None:
            self._finalizer()
        self._finalizer = None
        self._runner = None
        self._supervisor = None
        self._shm = None
        self._data = None
        self._funcs = None
        self._family = None
        self._offsets = None
        self._shard_worker = None
        self.params = None
        self.build_info = None

    def close(self):
        """Shut worker pools down and release the shared-memory segment."""
        if self._supervisor is not None:
            self._supervisor.close()
        if self._finalizer is not None:
            self._finalizer()
        self._runner = None
        self._supervisor = None
        self._shm = None
        self._closed = True

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # -- introspection -------------------------------------------------------

    @property
    def is_fitted(self):
        """True once fit() has run and the engine is not closed."""
        return self.params is not None and not self._closed

    def _require_fitted(self):
        if self._closed:
            raise RuntimeError("engine is closed")
        if self._runner is None:
            raise RuntimeError("index is not fitted; call fit(data) first")

    @property
    def n(self):
        """Number of indexed objects across all shards."""
        self._require_fitted()
        return self._data.shape[0]

    @property
    def dim(self):
        """Dimensionality of the indexed vectors."""
        self._require_fitted()
        return self._data.shape[1]

    @property
    def m(self):
        """Number of hash functions (shared by every shard)."""
        self._require_fitted()
        return self.params.m

    @property
    def l(self):
        """Collision-count threshold (shared by every shard)."""
        self._require_fitted()
        return self.params.l

    @property
    def base_radius(self):
        """Distance unit: the radius the integer grid multiplies."""
        self._require_fitted()
        return self._scale

    @property
    def shard_boundaries(self):
        """Row offsets: shard ``s`` owns ``[off[s], off[s+1])``."""
        self._require_fitted()
        return tuple(int(x) for x in self._offsets)

    def io_totals(self):
        """Cumulative (reads, writes) per shard since build.

        Live workers only: shards owned by a currently dead worker are
        absent from the answer until its respawn completes.
        """
        self._require_fitted()
        results, failures = self._supervisor.call(
            "io_totals", timeout=self._failover.round_timeout_s)
        for worker, cause in sorted(failures.items()):
            self._supervisor.mark_dead(worker, cause=cause)
            self._supervisor.schedule_respawn(worker)
        merged = {}
        for worker in results.values():
            merged.update(worker)
        return dict(sorted(merged.items()))

    @property
    def failover(self):
        """The active :class:`repro.sharding.FailoverPolicy`."""
        return self._failover

    def healthcheck(self, repair=False):
        """Probe every worker; returns ``{worker: {"ok": bool, ...}}``.

        A live worker answers its heartbeat with pid, hosted shards and
        open sessions; dead or unresponsive workers report ``ok=False``
        with a cause (a worker that misses the heartbeat deadline is
        killed by the probe, exactly as a missed protocol deadline
        would). With ``repair=True`` every unhealthy
        worker is taken out of the fan-out and a background respawn is
        scheduled; it rejoins at the next query-block boundary.
        """
        self._require_fitted()
        report = self._supervisor.probe()
        if repair:
            for worker, info in sorted(report.items()):
                if not info["ok"]:
                    self._supervisor.mark_dead(
                        worker, cause=info.get("cause", ""))
                    self._supervisor.schedule_respawn(worker)
        return report

    def worker_pids(self):
        """Pid per live worker (the coordinator's own pid when serial)."""
        self._require_fitted()
        return {worker: info["pid"]
                for worker, info in self._supervisor.probe().items()
                if info.get("ok")}

    def telemetry_snapshot(self):
        """The engine's ``shard.*`` metrics as one serializable dict."""
        return self.metrics.snapshot()

    def _fold_metrics(self, deltas):
        """Merge worker counter deltas into the coordinator registry.

        Workers key counters by shard id (``shard.worker.<sid>.*``), so
        adding the deltas is commutative across hosts and rounds and the
        coordinator's ``/metrics`` surface shows true per-shard totals.
        """
        for name, delta in deltas.items():
            self.metrics.counter(name).inc(delta)

    def explain(self, query, k=1, probe=None):
        """Trace one query end to end; returns a
        :class:`repro.core.explain.ShardedQueryExplanation` with the
        coordinator's round timeline and the grafted per-shard worker
        spans (shard id, worker pid, pages, candidates — plus probes
        issued/skipped under ``probe="adaptive"``)."""
        from ..core.explain import explain_sharded

        return explain_sharded(self, query, k=k, probe=probe)

    # -- querying ------------------------------------------------------------

    def query(self, query, k=1, budget=None, probe=None):
        """Answer one c-k-ANN query; returns a :class:`QueryResult`.

        Identical ids/distances to the unsharded index — see the module
        docstring for the equivalence argument. ``budget`` caps the
        query's aggregate work and ``probe`` selects classic or adaptive
        probing (see :meth:`query_batch`).
        """
        self._require_fitted()
        query = as_query_vector(query, self.dim)
        return self.query_batch(query[None, :], k=k, budget=budget,
                                probe=probe)[0]

    def query_batch(self, queries, k=1, budget=None, probe=None):
        """Answer many queries with per-round shard fan-out.

        Each worker runs the local batch engine's round over its own
        shards; the coordinator merges every round's observations and
        applies the global termination rules. ``budget`` (a
        :class:`repro.reliability.QueryBudget`) applies to each query's
        *shard-aggregated* totals — candidate counts and page I/O are
        summed across shards and compared against the caps at round
        boundaries, in the same cap order as the unsharded paths, so the
        deterministic caps degrade identically to an unsharded index.
        A *sequence* of per-query budgets (``None`` entries unbudgeted)
        budgets each query separately, honoring each budget's
        ``started_at`` anchor — the serving front-end's coalesced-batch
        contract.

        ``probe`` selects the probing mode: ``None``/``"classic"`` is
        the bit-exact lockstep protocol; ``"adaptive"`` (or an
        :class:`repro.core.adaptive.AdaptiveConfig`) skips
        estimator-certified start rounds globally and lets each shard
        probe its tables margin-ordered with local early exit, while
        every T1/T2/exhaustion/budget decision stays at the coordinator
        (see :class:`_ShardRounds`). Sharded adaptive mode runs
        certified exits only — the provisional projected-crosser exit
        ranks objects by *global* partial counts mid-round, which exist
        on no single shard, and is disabled here.
        """
        self._require_fitted()
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        config = as_probe_config(probe)
        if config is not None:
            check_adaptive_supported(self._funcs)
        queries = as_query_matrix(queries, self.dim)
        budgets = as_budget_list(budget, queries.shape[0])
        started = time.perf_counter()
        with trace.span("shard.query_batch",
                        queries=int(queries.shape[0]), k=int(k),
                        shards=self.n_shards) as qspan:
            with trace.span("hash", queries=int(queries.shape[0])):
                hashed = queries if self._scale == 1.0 \
                    else queries / self._scale
                if config is None:
                    all_uids = None
                    all_qids = self._funcs.hash(hashed)
                else:
                    all_uids = self._funcs.project(hashed) / self._funcs.w
                    all_qids = np.floor(all_uids).astype(np.int64)
            results = []
            for start in range(0, queries.shape[0], _BATCH_BLOCK):
                stop = start + _BATCH_BLOCK
                block_budgets = (budgets[start:stop]
                                 if budgets is not None else None)
                results.extend(self._drive_block(
                    queries[start:stop], all_qids[start:stop],
                    None if all_uids is None else all_uids[start:stop],
                    k, block_budgets, started, config))
            qspan.set(seconds=time.perf_counter() - started)
        self.metrics.counter("shard.queries").inc(len(results))
        self.metrics.histogram("shard.query_batch.seconds").observe(
            time.perf_counter() - started)
        return results

    def _drive_block(self, queries, qids, uids, k, budgets, started,
                     config):
        """Drive one query block through the lockstep shard rounds.

        The shared block driver
        (:func:`repro.core.batchengine.drive_block`) applies every
        T1/T2/exhaustion/budget decision here, to the union of shard
        observations; only counting and verification are remote
        (:class:`_ShardRounds`). ``budgets`` is already normalized:
        ``None`` or a per-query list. ``config`` is ``None`` for classic.
        """
        n_queries = queries.shape[0]
        if n_queries == 0:
            return []
        # Background-respawned workers rejoin here: a block boundary is
        # the only point where a fresh worker needs no session replay.
        self._supervisor.adopt_ready()
        state = QueryState(
            n_queries, k, self.params, self._data.shape[0], self._scale,
            t1=self._use_t1, budgets=budgets, started=started,
            accounting=self._page_accounting,
            engine="sharded" if config is None else "sharded-adaptive",
            probing=config is not None,
            extra={"shards": self.n_shards, "workers": self.n_workers},
        )
        source = _ShardRounds(self, queries, qids, uids, config, budgets,
                              started)
        try:
            # Opened inside the try: when batch_start fails on one worker,
            # the sessions it already opened on the others still get
            # their batch_end.
            source.open()
            drive_block(state, source, source.start_levels(state))
        finally:
            # Best-effort under non-raise policies: a worker that dies
            # here takes only its own session state with it, and that
            # state was being dropped anyway.
            self._call(source.replay, "batch_end", (source.sid,),
                       best_effort=True)
        results = state.results()
        lost = sum(1 for failed in state.failed if failed)
        if lost:
            self.metrics.counter(
                "shard.failover.degraded_queries").inc(lost)
        if config is not None:
            self.metrics.counter("shard.probes.issued").inc(
                int(state.probes_issued.sum()))
            self.metrics.counter("shard.probes.skipped").inc(
                int(state.probes_skipped.sum()))
        if self._page_accounting:
            self.metrics.counter("shard.io.pages").inc(
                int(state.io_reads.sum()))
        return results

    # -- failover ------------------------------------------------------------

    def _call(self, replay, method, args=(), per_worker=None,
              best_effort=False):
        """One supervised protocol call, with policy-dispatched failover.

        Returns results keyed by worker index; a worker missing from the
        dict was lost and the policy chose to continue without it.
        ``"raise"`` re-raises as :class:`WorkerFailureError`;
        ``"rebuild"`` respawns each dead worker, replays this block's
        session onto it and retries the call — falling back to
        quarantine once its circuit breaker trips; ``"degrade"`` drops
        the worker and schedules a background respawn. ``best_effort``
        (session teardown) never replays: a dead worker's sessions died
        with it, so it is respawned fresh (rebuild) or dropped
        (degrade). Every failover decision leaves a flight-recorder
        postmortem.
        """
        sup = self._supervisor
        policy = sup.policy
        timeout = protocol_timeout(policy, replay["budget"],
                                   replay["started"])
        results, failures = sup.call(method, args, per_worker=per_worker,
                                     timeout=timeout)
        while failures:
            self._postmortem(method, failures)
            if policy.on_failure == "raise" and not best_effort:
                raise WorkerFailureError(method, failures, results)
            recovered = []
            for worker, cause in sorted(failures.items()):
                if best_effort:
                    # Never raise out of teardown — it would mask the
                    # failure that ended the block in the first place.
                    if (policy.on_failure == "rebuild"
                            and not sup.breaker.tripped(worker)
                            and sup.respawn(worker)):
                        continue  # fresh worker; no session to replay
                    sup.mark_dead(worker, cause=cause)
                    if policy.on_failure != "raise":
                        sup.schedule_respawn(worker)
                    continue
                rebuild = (policy.on_failure == "rebuild"
                           and not sup.breaker.tripped(worker))
                if rebuild and self._rebuild_worker(worker, replay,
                                                    timeout):
                    recovered.append(worker)
                elif rebuild:
                    sup.quarantine(worker, cause=cause)
                else:
                    sup.mark_dead(worker, cause=cause)
                    sup.schedule_respawn(worker)
            if not recovered:
                break
            more, failures = sup.call(method, args, per_worker=per_worker,
                                      workers=recovered, timeout=timeout)
            results.update(more)
        return results

    def _rebuild_worker(self, worker, replay, timeout):
        """Respawn ``worker`` and replay the current block's session.

        Per-round expansion is a deterministic function of (shard rows,
        hash functions, radius sequence, active arrays), so replaying
        ``batch_start`` plus every completed round reconstructs exactly
        the session state the worker lost — the retried call then
        returns bit-identical payloads to the ones the dead worker would
        have sent. Replay payloads are discarded wholesale: their
        candidates, spans and counter deltas were already merged during
        the rounds' first life, and folding them again would
        double-count.
        """
        sup = self._supervisor
        sid = replay["sid"]
        with trace.span("shard.rebuild", worker=worker,
                        rounds=len(replay["rounds"])) as span:
            if not sup.respawn(worker):
                span.set(ok=False)
                return False
            start_args = (sid, replay["queries"], replay["qids"])
            if replay.get("probe") is not None:
                start_args += (replay["probe"],)
            _, failures = sup.call(
                "batch_start", start_args,
                workers=[worker], timeout=timeout)
            for radius, active, need in replay["rounds"]:
                if failures:
                    break
                # Replaying each round's need reproduces the worker's
                # chunked schedule exactly.
                _, failures = sup.call(
                    "batch_round", (sid, radius, active, False, need),
                    workers=[worker], timeout=timeout)
            span.set(ok=not failures)
            if failures:
                return False
        self.metrics.counter("shard.failover.rebuilds").inc()
        self.metrics.counter("shard.failover.replayed_rounds").inc(
            len(replay["rounds"]))
        flight.note("worker_rebuilt", worker=worker, sid=sid,
                    rounds=len(replay["rounds"]))
        return True

    def _postmortem(self, method, failures):
        """Flight-recorder postmortem on every failover decision."""
        flight.dump("worker_failure", extra={
            "engine": "sharded",
            "method": method,
            "failures": {int(w): c for w, c in sorted(failures.items())},
            "policy": self._failover.on_failure,
            "dead_workers": self._supervisor.dead_workers(),
            "failed_shards": self._supervisor.failed_shards(),
            "shards": self.n_shards,
            "workers": self.n_workers,
        })

    # -- persistence ---------------------------------------------------------

    def save(self, path):
        """Persist the index + shard layout as a verified v2 container."""
        from .persist import save_sharded

        return save_sharded(self, path)

    @classmethod
    def load(cls, path, n_workers=None, **overrides):
        """Load an engine saved by :meth:`save`; see
        :func:`repro.sharding.load_sharded`."""
        from .persist import load_sharded

        return load_sharded(path, n_workers=n_workers, **overrides)

    def __repr__(self):
        if not self.is_fitted:
            state = "closed" if self._closed else "unfitted"
            return (f"ShardedC2LSH(shards={self.n_shards}, "
                    f"workers={self.n_workers}, {state})")
        return (f"ShardedC2LSH(n={self.n}, dim={self.dim}, "
                f"shards={self.n_shards}, workers={self.n_workers}, "
                f"m={self.params.m}, l={self.params.l})")


class _ShardRounds:
    """Round source over shard workers: fan a round out, merge payloads.

    :meth:`open` starts one lockstep session per block on every worker.
    Each round ships its radius and query group — plus, on adaptive
    blocks, each query's remaining T2 deficit, against which a shard may
    stop probing early — and merges the per-shard payloads in shard
    order. Shards own contiguous row ranges, so every query's candidates
    keep ascending global id order within a round: the order the
    unsharded engine verifies them in. ``replay`` holds what a failover
    needs to rebuild a respawned worker's session.
    """

    round_span = "shard.round"

    def __init__(self, engine, queries, qids, uids, config, budgets,
                 started):
        self.engine = engine
        self.config = config or CLASSIC
        self.sid = next(engine._session_ids)
        self.probe = (None if config is None
                      else {"uids": uids, "chunks": int(config.chunks)})
        # Everything a failover needs to replay this block's session onto
        # a respawned worker: the batch_start arguments plus every
        # completed round's (radius, group, need).
        self.replay = {"sid": self.sid, "queries": queries, "qids": qids,
                       "rounds": [], "budget": budgets, "started": started,
                       "probe": self.probe}

    def open(self):
        """Start this block's session on every worker (``batch_start``)."""
        args = (self.sid, self.replay["queries"], self.replay["qids"])
        self.engine._call(
            self.replay, "batch_start",
            args if self.probe is None else args + (self.probe,))

    def start_levels(self, state):
        """Global per-query start levels from the workers' estimates.

        One ``batch_estimate`` fan-out gathers per-worker collide levels
        and occupancy sums, merged exactly (:func:`merge_start_levels`);
        skipped rounds charge nothing on any shard.
        """
        eng = self.engine
        levels = np.zeros(state.n_queries, dtype=np.int64)
        if not self.config.start_estimate:
            return levels
        params = eng.params
        with trace.span("shard.estimate_start",
                        queries=int(state.n_queries)):
            estimates = eng._call(self.replay, "batch_estimate", (self.sid,))
            payloads = [shard for w in sorted(estimates)
                        for shard in estimates[w]]
            if payloads:
                levels = merge_start_levels(payloads, params.l,
                                            params.l * state.first_stop)
        # A probe is one bucket scan in one shard's table: a skipped
        # level avoids m probes on every shard.
        state.skip(np.arange(state.n_queries),
                   params.m * eng.n_shards * levels)
        return levels

    def run_round(self, state, group, radius, level):
        """One fanned-out round for a same-level group; its stop mask."""
        eng = self.engine
        started = time.perf_counter()
        need = (None if self.probe is None else
                {"t2": (state.target - state.n_cand[group]).astype(np.int64)})
        by_worker = eng._call(self.replay, "batch_round",
                              (self.sid, radius, group, trace.active(), need))
        self.replay["rounds"].append((radius, group.copy(), need))
        worker_payloads = [by_worker[w] for w in sorted(by_worker)]
        eng.metrics.counter("shard.fanout.tasks").inc(len(worker_payloads))
        payloads = sorted((p for worker in worker_payloads for p in worker),
                          key=lambda p: p.shard_id)
        exhausted = np.ones(group.size, dtype=bool)
        for p in payloads:
            if p.spans:
                # Worker-side subtree, stamped shard/pid; grafts
                # under this shard.round span.
                graft(p.spans)
            if p.metrics:
                eng._fold_metrics(p.metrics)
            state.charge(group, p.scanned, p.io_pages, p.probes_issued)
            state.skip(group, p.probes_skipped)
            exhausted &= p.exhausted
            eng.metrics.histogram("shard.worker.seconds").observe(p.seconds)
            bounds = np.searchsorted(p.qpos, np.arange(group.size + 1))
            for i in np.flatnonzero(np.diff(bounds)):
                lo, hi = int(bounds[i]), int(bounds[i + 1])
                state.add(int(group[i]), p.ids[lo:hi], p.dists[lo:hi])
        # With every worker lost (degrade mode under total failure)
        # nothing can ever expand again; the honest label for the forced
        # termination is "failover".
        done = state.stop(group, radius, exhausted, level,
                          lost=not worker_payloads)
        eng.metrics.counter("shard.rounds").inc()
        eng.metrics.histogram("shard.round.seconds").observe(
            time.perf_counter() - started)
        return done

    def finish(self, state, finished):
        """Graceful fallback for finished queries still short of ``k``.

        Reproduces the unsharded order exactly: each shard nominates its
        best-counted unverified objects, the coordinator merges them under
        (collision count desc, global id asc) — the total order behind
        ``argsort(-counts, kind="stable")`` — takes the global prefix, and
        only the selected objects are verified.

        Under degraded operation the merge simply sees fewer shards: dead
        workers nominate nothing, and a nominated id whose verification
        answer never arrived (its worker died between nomination and
        verify) is dropped rather than returned with an unverified
        distance. Finished queries then record the shards lost so far.
        """
        eng = self.engine
        requests = state.shortfall(finished)
        if requests:
            eng.metrics.counter("shard.fallback.queries").inc(len(requests))
            with trace.span("shard.fallback", queries=len(requests)):
                self._fallback(state, requests)
        failed = eng._supervisor.failed_shards()
        if failed:
            for q in finished:
                state.failed[int(q)] = tuple(failed)

    def _fallback(self, state, requests):
        eng = self.engine
        nominations = eng._call(self.replay, "fallback_candidates",
                                (self.sid, requests))
        by_shard = {}
        for worker in nominations.values():
            by_shard.update(worker)

        selected = {}
        for q, need in requests.items():
            gids, counts = [], []
            for shard_id in sorted(by_shard):
                entry = by_shard[shard_id].get(q)
                if entry is not None:
                    gids.append(entry[0])
                    counts.append(entry[1])
            if not gids:
                continue
            gids = np.concatenate(gids)
            counts = np.concatenate(counts)
            order = np.lexsort((gids, -counts))[:need]
            selected[q] = gids[order]

        if not selected:
            return
        verify_req = {}
        placements = {}
        for q, gids in selected.items():
            shard_of = np.searchsorted(eng._offsets, gids, side="right") - 1
            placements[q] = shard_of
            for shard_id in np.unique(shard_of):
                worker = eng._shard_worker[int(shard_id)]
                verify_req.setdefault(worker, {}).setdefault(
                    int(shard_id), {})[q] = gids[shard_of == shard_id]
        collect = trace.active()
        answers = eng._call(
            self.replay, "fallback_verify",
            per_worker={w: (self.sid, req, collect)
                        for w, req in verify_req.items()})
        merged = {}
        for worker in answers.values():
            if worker.get("spans"):
                graft(worker["spans"])
            if worker.get("metrics"):
                eng._fold_metrics(worker["metrics"])
            merged.update(worker["answers"])

        for q, gids in selected.items():
            shard_of = placements[q]
            dists = np.empty(gids.size, dtype=np.float64)
            have = np.ones(gids.size, dtype=bool)
            for shard_id in np.unique(shard_of):
                mask = shard_of == shard_id
                entry = merged.get(int(shard_id), {}).get(q)
                if entry is None:
                    have &= ~mask
                    continue
                shard_dists, io = entry
                dists[mask] = shard_dists
                state.io_reads[q] += io
            if not have.all():
                gids, dists = gids[have], dists[have]
            if gids.size:
                state.add_fallback(q, gids, dists)
