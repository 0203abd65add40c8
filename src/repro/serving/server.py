"""Overload-resilient asyncio serving front-end for C2LSH engines.

:class:`QueryServer` turns an in-process index (:class:`~repro.core.c2lsh.C2LSH`
or :class:`~repro.sharding.engine.ShardedC2LSH`) into a network service that
stays correct and responsive under load it cannot absorb:

* **Coalescing** — single-query requests arriving close together are merged
  into one lockstep micro-batch (:class:`~repro.serving.admission.CoalesceTuner`
  sizes the wait window from the observed arrival rate), amortizing the
  per-round hash/count work across the batch. Results are bit-identical to
  answering each query alone: the batch engine is exact by construction, and
  per-request deadlines are carried as *per-query* budgets so one client's
  deadline never changes another client's answer.
* **Admission control and load shedding** — a bounded queue
  (:class:`~repro.serving.admission.AdmissionController`); overflow and
  hopeless deadlines are refused with an explicit ``shed`` response instead of
  queuing unboundedly. Queue wait counts against the deadline: each admitted
  request's :class:`~repro.reliability.QueryBudget` is anchored at admission
  time via ``with_start``, so a query that waited 80 ms of its 100 ms deadline
  gets 20 ms of engine time, not 100.
* **Graceful drain** — :meth:`drain` refuses new admissions (``draining``)
  while in-flight and queued work completes; the readiness callback flips the
  paired :class:`~repro.obs.ObsServer`'s ``/healthz`` to 503 so load balancers
  stop routing here, while liveness stays ok.
* **Failure isolation** — the engine runs in a single-thread executor, so a
  worker death mid-batch (sharded engine) resolves per the index's
  :class:`~repro.reliability.FailoverPolicy` without wedging the event loop:
  ``degrade``/``rebuild`` surface as degraded-but-ok responses, ``raise``
  becomes a ``worker_failure`` error response for that batch only.

Everything observable flows through :mod:`repro.obs`: ``serving.*`` counters
and histograms, a span per dispatched batch, and flight-recorder postmortems
on shed storms.
"""

from __future__ import annotations

import asyncio
import contextvars
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from functools import partial
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..obs import flight, trace
from ..obs.registry import MetricsRegistry
from ..reliability.budget import QueryBudget
from ..reliability.errors import WorkerFailureError
from .admission import AdmissionController, CoalesceTuner, PendingQuery
from .protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    encode_frame,
    error_response,
    ok_response,
    parse_request,
    read_frame,
    shed_response,
)

__all__ = ["QueryServer", "ServerConfig"]

#: How long shutdown waits for connection handlers to see their closed
#: sockets. A handler exits within a loop turn unless its client stopped
#: reading and the close is still flushing a full send buffer.
_HANDLER_EXIT_S = 1.0


@dataclass(frozen=True)
class ServerConfig:
    """Tuning knobs for :class:`QueryServer`.

    The defaults are sized for the test/benchmark scale of this repo
    (thousands of points, sub-millisecond queries); a real deployment
    would raise ``max_batch``/``queue_capacity`` together with the
    engine's capacity.
    """

    #: Bind address; ``port=0`` picks an ephemeral port.
    host: str = "127.0.0.1"
    port: int = 0
    #: Hard cap on queries dispatched in one engine batch.
    max_batch: int = 64
    #: Bound on the admission queue; overflow sheds ``overloaded``.
    queue_capacity: int = 256
    #: Batch size the coalescing window aims for under dense traffic.
    target_batch: int = 32
    #: Clamp on the adaptive coalescing window.
    min_window_s: float = 0.0
    max_window_s: float = 0.005
    #: Largest ``k`` a request may ask for (protocol-level guard).
    max_k: int = 1024
    #: Frame size ceiling for this server's connections.
    max_frame_bytes: int = MAX_FRAME_BYTES
    #: Server-wide deterministic budget caps (``max_candidates`` /
    #: ``max_io_pages``) merged into every request's budget. A
    #: ``deadline_s`` here is the deadline of every request that sends
    #: none, counted from admission like a request's own.
    budget: object = None
    #: How long after the last overload shed the readiness probe keeps
    #: reporting not-ready (hysteresis, so probes see sustained
    #: pressure rather than a single blip).
    overload_grace_s: float = 1.0
    #: Shed-storm postmortem trigger: this many sheds inside
    #: ``shed_storm_window_s`` dumps the flight recorder once.
    shed_storm_threshold: int = 50
    shed_storm_window_s: float = 1.0
    #: Probing mode forwarded to the engine (``"classic"`` or
    #: ``"adaptive"``). ``"classic"`` keeps the engine call identical to
    #: a probe-unaware server, so it also works with indexes predating
    #: the ``probe`` parameter.
    probe: str = "classic"


def _index_dim(index):
    """The query dimensionality of ``index`` (engine-agnostic)."""
    dim = getattr(index, "dim", None)
    if dim is not None:
        return int(dim)
    data = getattr(index, "_data", None)
    if data is not None:
        return int(data.shape[1])
    raise TypeError(f"cannot determine query dim of {type(index).__name__}")


class QueryServer:
    """Asyncio front-end coalescing single queries into exact micro-batches.

    ::

        server = QueryServer(index, ServerConfig(port=0))
        server.start_in_thread()
        try:
            with QueryClient("127.0.0.1", server.port) as client:
                resp = client.query(vector, k=10, deadline_s=0.25)
        finally:
            server.stop_in_thread()          # graceful drain

    Inside an existing event loop, use ``await server.start()`` /
    ``await server.drain()`` directly. ``server.readiness`` plugs into
    :class:`~repro.obs.ObsServer` so ``/healthz`` reflects drain and
    overload state.
    """

    def __init__(self, index, config=None, metrics=None):
        self.index = index
        self.config = config or ServerConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.dim = _index_dim(index)
        self.admission = AdmissionController(
            capacity=self.config.queue_capacity)
        self.tuner = CoalesceTuner(
            target_batch=self.config.target_batch,
            min_window_s=self.config.min_window_s,
            max_window_s=self.config.max_window_s)
        self._asyncio_server = None
        self._loop = None
        self._batch_task = None
        self._executor = None
        self._arrival = None
        self._stopping = False
        self._draining = False
        self._inflight = 0
        self._connections = {}  # writer -> its connection handler task
        self._shed_times = deque()
        self._last_overload_shed = None
        self._storm_dumped = False
        self._response_tasks = set()
        # start_in_thread machinery
        self._thread = None
        self._thread_ready = None
        self._thread_error = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self):
        """Bind the listening socket and start the dispatch loop."""
        if self._asyncio_server is not None:
            raise RuntimeError("server is already running")
        self._loop = asyncio.get_running_loop()
        self._arrival = asyncio.Event()
        # One engine thread: batches run strictly one at a time, so the
        # engine never sees concurrent calls (C2LSH is not thread-safe)
        # and batch timing feeds a meaningful service-rate estimate.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serving")
        self._asyncio_server = await asyncio.start_server(
            self._handle_client, host=self.config.host, port=self.config.port)
        self._batch_task = asyncio.ensure_future(self._batch_loop())
        return self

    @property
    def port(self):
        """The bound port (resolves ``port=0`` to the real one)."""
        if self._asyncio_server is None:
            raise RuntimeError("server is not running")
        return self._asyncio_server.sockets[0].getsockname()[1]

    async def drain(self):
        """Graceful shutdown: finish queued + in-flight work, then stop.

        New admissions are refused with ``draining`` the moment this is
        called; the method returns once the last admitted query has been
        answered and the listener is closed.
        """
        await self._shutdown(drain=True)

    async def stop(self):
        """Hard stop: shed everything still queued, then shut down."""
        await self._shutdown(drain=False)

    async def _shutdown(self, drain):
        if self._asyncio_server is None:
            return
        self._draining = True
        self.admission.begin_drain()
        if not drain:
            for p in self.admission.drain_pending():
                self._respond(p, shed_response(p.req_id, "draining"))
                self._count_shed("draining")
        self._stopping = True
        self._arrival.set()
        if self._batch_task is not None:
            await self._batch_task
            self._batch_task = None
        # Responses are sent from fire-and-forget tasks; flush them
        # before tearing connections down so drained clients get their
        # answers.
        if self._response_tasks:
            await asyncio.gather(*self._response_tasks,
                                 return_exceptions=True)
        self._asyncio_server.close()
        await self._asyncio_server.wait_closed()
        self._asyncio_server = None
        handlers = list(self._connections.values())
        for writer in list(self._connections):
            writer.close()
        # A closed writer ends its handler's pending read; let every
        # handler unwind before the caller cancels the loop's remaining
        # tasks, or asyncio logs each handler cancelled mid-read.
        if handlers:
            await asyncio.wait(handlers, timeout=_HANDLER_EXIT_S)
        self._executor.shutdown(wait=True)
        self._executor = None

    # -- threaded convenience --------------------------------------------------

    def start_in_thread(self, timeout=10.0):
        """Run the server on a private event-loop thread; returns ``self``.

        For synchronous callers (tests, benchmarks, examples). Blocks
        until the socket is bound, so ``server.port`` is valid on
        return.
        """
        if self._thread is not None:
            raise RuntimeError("server thread is already running")
        self._thread_ready = threading.Event()
        self._thread_error = None

        def runner():
            async def main():
                try:
                    await self.start()
                except BaseException as exc:
                    self._thread_error = exc
                    self._thread_ready.set()
                    return
                self._thread_ready.set()
                # Serve until a shutdown coroutine cancels this wait.
                try:
                    await asyncio.get_running_loop().create_future()
                except asyncio.CancelledError:
                    pass

            asyncio.run(main())

        self._thread = threading.Thread(
            target=runner, name="repro-serving-loop", daemon=True)
        self._thread.start()
        if not self._thread_ready.wait(timeout):
            raise RuntimeError("server failed to start within timeout")
        if self._thread_error is not None:
            self._thread = None
            raise self._thread_error
        return self

    def stop_in_thread(self, drain=True, timeout=30.0):
        """Shut down a :meth:`start_in_thread` server and join its thread."""
        if self._thread is None:
            return

        async def shutdown():
            await (self.drain() if drain else self.stop())
            # Cancel every other task (the create_future() keep-alive) so
            # asyncio.run() unwinds.
            for task in asyncio.all_tasks():
                if task is not asyncio.current_task():
                    task.cancel()

        future = asyncio.run_coroutine_threadsafe(shutdown(), self._loop)
        try:
            future.result(timeout=timeout)
        finally:
            self._thread.join(timeout=timeout)
            self._thread = None

    def __enter__(self):
        return self.start_in_thread()

    def __exit__(self, *exc):
        self.stop_in_thread()
        return False

    # -- readiness -------------------------------------------------------------

    def readiness(self):
        """Readiness verdict for :class:`~repro.obs.ObsServer` ``/healthz``.

        Not-ready while draining/stopped, and for ``overload_grace_s``
        after the most recent ``overloaded`` shed — a load balancer
        should stop routing to a server that is actively refusing work,
        even though the process itself is healthy (liveness stays ok).
        """
        overloaded = (
            self._last_overload_shed is not None
            and time.perf_counter() - self._last_overload_shed
            < self.config.overload_grace_s)
        ready = not self._draining and not overloaded \
            and self._asyncio_server is not None
        return {
            "ready": ready,
            "draining": self._draining,
            "overloaded": overloaded,
            "queue_depth": self.admission.depth,
            "inflight": self._inflight,
        }

    # -- connection handling ---------------------------------------------------

    async def _handle_client(self, reader, writer):
        self._connections[writer] = asyncio.current_task()
        peer = writer.get_extra_info("peername")
        client_key = f"{peer[0]}:{peer[1]}" if peer else repr(writer)
        send_lock = asyncio.Lock()

        async def send(obj):
            async with send_lock:
                if writer.is_closing():
                    return
                writer.write(encode_frame(obj))
                try:
                    await writer.drain()
                except ConnectionError:
                    writer.close()

        try:
            while True:
                try:
                    obj = await read_frame(
                        reader, max_bytes=self.config.max_frame_bytes)
                except ProtocolError as exc:
                    # Unframeable garbage: answer once, then hang up —
                    # the stream offset is no longer trustworthy.
                    self.metrics.counter("serving.protocol_errors").inc()
                    await send(error_response(None, "bad_request", str(exc)))
                    break
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                if obj is None:
                    break
                await self._handle_request(obj, client_key, send)
        finally:
            self._connections.pop(writer, None)
            writer.close()

    async def _handle_request(self, obj, client_key, send):
        self.metrics.counter("serving.requests").inc()
        try:
            req_id, op, vector, k, deadline_s = parse_request(
                obj, self.dim, max_k=self.config.max_k)
        except ProtocolError as exc:
            # A well-framed but invalid request (bad k, NaN vector, …)
            # is answered without dropping the connection.
            self.metrics.counter("serving.protocol_errors").inc()
            await send(error_response(obj.get("id") if isinstance(obj, dict)
                                      else None, "bad_request", str(exc)))
            return
        if op == "ping":
            await send({"id": req_id, "status": "ok", "op": "ping",
                        "ready": bool(self.readiness()["ready"])})
            return

        now = time.perf_counter()
        self.tuner.on_arrival(now)
        if deadline_s is None and self.config.budget is not None:
            deadline_s = self.config.budget.deadline_s
        pending = PendingQuery(
            vector=vector, k=k, deadline_s=deadline_s,
            budget=self._budget_for(deadline_s, now),
            client=client_key, req_id=req_id, admitted_at=now, respond=send)
        reason = self.admission.offer(pending, window_s=self.tuner.window(),
                                      inflight=self._inflight > 0)
        if reason:
            self._count_shed(reason)
            await send(shed_response(req_id, reason))
            return
        self.metrics.counter("serving.admitted").inc()
        self.metrics.gauge("serving.queue.depth").set(self.admission.depth)
        self._arrival.set()

    def _budget_for(self, deadline_s, admitted_at):
        """The per-query budget: server caps + the deadline, anchored.

        Anchoring at admission time is what makes queue wait count
        against the deadline — the engine's deadline check measures from
        ``started_at``, not from when the batch happened to dispatch.
        """
        budget = self.config.budget
        if deadline_s is not None:
            budget = (QueryBudget(deadline_s=float(deadline_s))
                      if budget is None
                      else replace(budget, deadline_s=float(deadline_s)))
        return None if budget is None else budget.with_start(admitted_at)

    def _count_shed(self, reason):
        self.metrics.counter("serving.shed").inc()
        self.metrics.counter(f"serving.shed.{reason}").inc()
        now = time.perf_counter()
        if reason == "overloaded":
            self._last_overload_shed = now
        flight.note("serving_shed", reason=reason,
                    queue_depth=self.admission.depth)
        # Shed-storm postmortem: sustained shedding is exactly the
        # moment a postmortem of the recent past is worth the disk.
        window = self.config.shed_storm_window_s
        times = self._shed_times
        times.append(now)
        while times and now - times[0] > window:
            times.popleft()
        if (len(times) >= self.config.shed_storm_threshold
                and not self._storm_dumped):
            self._storm_dumped = True
            flight.dump("shed_storm", extra={
                "sheds_in_window": len(times),
                "window_s": window,
                "queue_depth": self.admission.depth,
            })

    # -- dispatch loop ---------------------------------------------------------

    async def _batch_loop(self):
        """Coalesce admitted queries into micro-batches and run them."""
        while True:
            if self.admission.depth == 0:
                if self._stopping:
                    return
                self._arrival.clear()
                # Re-check: an admission may have raced the clear.
                if self.admission.depth == 0 and not self._stopping:
                    await self._arrival.wait()
                continue
            await self._coalesce_wait()
            batch, expired = self.admission.take_batch(self.config.max_batch)
            self.metrics.gauge("serving.queue.depth").set(self.admission.depth)
            for p in expired:
                self._count_shed("deadline")
                self._respond(p, shed_response(p.req_id, "deadline"))
            if batch:
                await self._run_batch(batch)

    async def _coalesce_wait(self):
        """Hold dispatch for the tuner's window (or until the batch fills)."""
        window = self.tuner.window()
        self.metrics.histogram("serving.coalesce.window_s").observe(window)
        if window <= 0.0 or self._stopping:
            return
        deadline = time.perf_counter() + window
        while (self.admission.depth < self.config.max_batch
               and not self._stopping):
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return
            self._arrival.clear()
            if self.admission.depth >= self.config.max_batch:
                return
            try:
                await asyncio.wait_for(self._arrival.wait(), remaining)
            except asyncio.TimeoutError:
                return

    async def _run_batch(self, batch):
        """Dispatch one coalesced batch to the engine and fan responses out."""
        n = len(batch)
        k = batch[0].k
        self._inflight = n
        self.metrics.gauge("serving.inflight").set(n)
        self.metrics.counter("serving.batches").inc()
        self.metrics.histogram("serving.coalesce.size").observe(n)
        queries = np.stack([p.vector for p in batch])
        budgets = [p.budget for p in batch]
        budget_arg = None if all(b is None for b in budgets) else budgets
        started = time.perf_counter()
        try:
            with trace.span("serving.batch", size=n, k=k):
                # copy_context() carries the active span into the
                # executor thread so engine-side spans nest under it.
                ctx = contextvars.copy_context()
                kwargs = {"k": k, "budget": budget_arg}
                if self.config.probe != "classic":
                    # Only name the kwarg when it differs from the
                    # default, so a classic server keeps working with
                    # probe-unaware index objects.
                    kwargs["probe"] = self.config.probe
                call = partial(self.index.query_batch, queries, **kwargs)
                results = await self._loop.run_in_executor(
                    self._executor, partial(ctx.run, call))
        except WorkerFailureError as exc:
            # FailoverPolicy(on_failure="raise"): this batch failed, but
            # the server (and other batches) must keep going.
            self.metrics.counter("serving.errors").inc()
            flight.dump("serving_worker_failure",
                        extra={"batch_size": n, "error": str(exc)})
            for p in batch:
                self._respond(p, error_response(
                    p.req_id, "worker_failure", str(exc)))
            return
        except Exception as exc:
            self.metrics.counter("serving.errors").inc()
            flight.note("serving_batch_error", error=type(exc).__name__,
                        message=str(exc), batch_size=n)
            for p in batch:
                self._respond(p, error_response(
                    p.req_id, "internal", type(exc).__name__))
            return
        finally:
            self._inflight = 0
            self.metrics.gauge("serving.inflight").set(0)
        elapsed = time.perf_counter() - started
        self.admission.record_service(n, elapsed)
        self.metrics.histogram("serving.batch.seconds").observe(elapsed)
        done = time.perf_counter()
        for p, result in zip(batch, results):
            wait = started - p.admitted_at
            self.metrics.histogram("serving.queue.wait_s").observe(wait)
            self.metrics.histogram("serving.latency.seconds").observe(
                done - p.admitted_at)
            self.metrics.counter("serving.completed").inc()
            if result.stats.degraded:
                self.metrics.counter("serving.degraded").inc()
            self._respond(p, ok_response(p.req_id, result, queue_wait_s=wait))

    def _respond(self, pending, obj):
        """Schedule one response send without blocking the dispatch loop."""
        task = asyncio.ensure_future(pending.respond(obj))
        self._response_tasks.add(task)
        task.add_done_callback(self._response_tasks.discard)
