"""Admission control, load shedding, and coalescing-window tuning.

The serving front-end's core robustness property — *staying up under
overload* — lives here. An unprotected server accepts everything, queues
unboundedly, and collapses: memory grows without limit, every queued
request eventually blows its deadline, and the server does maximal work
for zero successful responses. :class:`AdmissionController` inverts
that: a **bounded** queue (overflow is shed with an explicit
``overloaded`` rejection, never buffered), **deadline-based admission**
(a request whose deadline cannot plausibly be met given the current
queue is refused immediately — wait time counts against the deadline,
so the estimate uses queue depth × the observed per-query service rate
plus the coalescing window), and **drain** (a draining server refuses
new work with ``draining`` while in-flight work completes).

Batch formation adds two more guarantees. *Expiry sweeping*: a request
whose deadline lapsed while it queued is shed at dispatch time instead
of being processed into a worthless answer. *Fairness*: when several
clients are waiting, one client may occupy at most its proportional
share of a micro-batch (never less than one slot), so a flooding client
lengthens its own queue, not everyone's batch.

:class:`CoalesceTuner` sizes the micro-batching window from the observed
arrival rate: the window targets ``target_batch`` arrivals' worth of
time (EWMA inter-arrival gap × target), clamped to
``[min_window_s, max_window_s]`` — and collapses to zero under sparse
traffic, where waiting would add latency with no batching to gain.
"""

from __future__ import annotations

import time
from collections import deque

__all__ = ["AdmissionController", "CoalesceTuner", "PendingQuery"]


class PendingQuery:
    """One admitted request waiting for (or inside) a micro-batch."""

    __slots__ = ("vector", "k", "deadline_s", "budget", "client", "req_id",
                 "admitted_at", "respond")

    def __init__(self, vector, k, deadline_s, budget, client, req_id,
                 admitted_at, respond):
        self.vector = vector
        self.k = k
        self.deadline_s = deadline_s
        self.budget = budget
        self.client = client
        self.req_id = req_id
        self.admitted_at = admitted_at
        self.respond = respond

    def expired(self, now):
        """Whether the request's deadline lapsed (while queued)."""
        return (self.deadline_s is not None
                and now - self.admitted_at >= self.deadline_s)


class CoalesceTuner:
    """Arrival-rate-adaptive micro-batching window.

    ``window()`` answers "how long is it worth waiting for more arrivals
    before dispatching the batch we already have?":

    * no traffic history, or arrivals sparser than ``max_window_s`` —
      zero: dispatch immediately, waiting buys nothing but latency;
    * dense traffic — ``target_batch × EWMA gap``, clamped to
      ``[min_window_s, max_window_s]``: roughly the time for a
      target-size batch to accumulate.

    The EWMA (``alpha`` per observation) adapts within tens of arrivals,
    so a traffic burst shrinks per-batch latency headroom quickly and a
    lull stops the server from idling in windows.
    """

    def __init__(self, target_batch=32, min_window_s=0.0,
                 max_window_s=0.005, alpha=0.1):
        if target_batch < 1:
            raise ValueError(f"target_batch must be >= 1, got {target_batch}")
        if not 0.0 <= min_window_s <= max_window_s:
            raise ValueError(
                f"need 0 <= min_window_s <= max_window_s, got "
                f"{min_window_s} and {max_window_s}"
            )
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.target_batch = int(target_batch)
        self.min_window_s = float(min_window_s)
        self.max_window_s = float(max_window_s)
        self.alpha = float(alpha)
        self._gap_ewma = None
        self._last_arrival = None

    def on_arrival(self, now=None):
        """Record one request arrival (admitted or not — load is load)."""
        now = now if now is not None else time.perf_counter()
        if self._last_arrival is not None:
            gap = max(0.0, now - self._last_arrival)
            if self._gap_ewma is None:
                self._gap_ewma = gap
            else:
                self._gap_ewma += self.alpha * (gap - self._gap_ewma)
        self._last_arrival = now

    @property
    def gap_ewma_s(self):
        """Smoothed inter-arrival gap (``None`` before two arrivals)."""
        return self._gap_ewma

    def window(self):
        """The coalescing wait to apply before dispatching a batch."""
        gap = self._gap_ewma
        if gap is None or gap >= self.max_window_s:
            return 0.0
        return min(self.max_window_s,
                   max(self.min_window_s, self.target_batch * gap))


class AdmissionController:
    """Bounded admission queue with deadline-aware shedding and drain.

    Single-threaded by design: every method runs on the server's event
    loop, so there are no locks. The server calls :meth:`offer` per
    request, :meth:`take_batch` per dispatch, and
    :meth:`record_service` after each batch completes (feeding the
    service-rate estimate the deadline check uses).
    """

    def __init__(self, capacity=256, clock=time.perf_counter,
                 service_alpha=0.2):
        if int(capacity) < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.clock = clock
        self.draining = False
        self._queue = deque()
        self._service_alpha = float(service_alpha)
        self._service_ewma_s = None   # per-query service estimate
        self._batch_ewma_s = None     # whole-batch duration estimate

    # -- introspection --

    @property
    def depth(self):
        """Requests currently queued (admitted, not yet dispatched)."""
        return len(self._queue)

    @property
    def service_estimate_s(self):
        """Smoothed per-query service seconds (``None`` until measured)."""
        return self._service_ewma_s

    def estimated_wait_s(self, window_s=0.0, inflight=False):
        """Predicted queue wait + service for a request admitted now.

        Queue depth × per-query rate, plus the coalescing window a fresh
        request may sit through, plus — while a batch is ``inflight`` —
        one *full batch's* observed duration (the worst case for that
        batch: head-of-line latency the depth term cannot see). With
        nothing in flight there is no such wait, and charging it anyway
        would shed every short deadline after one large batch, for good.
        Deliberately simple and deliberately conservative — it
        exists to refuse *hopeless* deadlines, not to promise
        latencies; the benchmark validates that admitted p99 stays
        within deadline under 2x overload.
        """
        per_query = self._service_ewma_s or 0.0
        inflight_cost = (self._batch_ewma_s or 0.0) if inflight else 0.0
        return window_s + inflight_cost + (len(self._queue) + 1) * per_query

    # -- admission --

    def offer(self, pending, window_s=0.0, inflight=False):
        """Admit ``pending`` or return a shed reason.

        Returns ``""`` on admission; else one of the protocol's shed
        reasons — ``"draining"``, ``"overloaded"`` (queue at capacity),
        ``"deadline"`` (the request's deadline cannot be met even if
        everything ahead of it behaves as estimated). ``inflight`` tells
        whether a batch is running now (see :meth:`estimated_wait_s`).
        """
        if self.draining:
            return "draining"
        if len(self._queue) >= self.capacity:
            return "overloaded"
        if pending.deadline_s is not None and self.estimated_wait_s(
                window_s, inflight) > pending.deadline_s:
            return "deadline"
        self._queue.append(pending)
        return ""

    def begin_drain(self):
        """Refuse all future admissions; queued work still completes."""
        self.draining = True

    # -- dispatch --

    def take_batch(self, max_batch, now=None):
        """Form one micro-batch: ``(batch, expired)``.

        Scans the queue in FIFO order. The head request pins the batch's
        ``k`` (one ``query_batch`` call answers one ``k``); requests
        with a different ``k`` keep their place for a later batch.
        Requests whose deadline already lapsed are swept into
        ``expired`` — the caller sheds them with reason ``"deadline"``
        instead of spending engine work on an answer nobody is waiting
        for. When several clients are queued, each may take at most
        ``ceil(max_batch / clients)`` slots (at least 1) so a single
        flooding client cannot fill every batch.
        """
        now = now if now is not None else self.clock()
        expired = []
        survivors = deque()
        while self._queue:
            p = self._queue.popleft()
            if p.expired(now):
                expired.append(p)
            else:
                survivors.append(p)
        self._queue = survivors
        if not self._queue:
            return [], expired

        clients = {p.client for p in self._queue}
        per_client_cap = max(1, -(-int(max_batch) // max(1, len(clients))))
        batch_k = self._queue[0].k
        batch, taken, leftover = [], {}, deque()
        while self._queue and len(batch) < int(max_batch):
            p = self._queue.popleft()
            if p.k != batch_k \
                    or taken.get(p.client, 0) >= per_client_cap:
                leftover.append(p)
                continue
            taken[p.client] = taken.get(p.client, 0) + 1
            batch.append(p)
        # Skipped requests keep their arrival order ahead of nothing —
        # they simply wait for the next batch.
        leftover.extend(self._queue)
        self._queue = leftover
        return batch, expired

    def record_service(self, n_queries, seconds):
        """Fold one completed batch into the service-rate estimate."""
        if n_queries < 1:
            return
        per_query = float(seconds) / n_queries
        a = self._service_alpha
        if self._service_ewma_s is None:
            self._service_ewma_s = per_query
            self._batch_ewma_s = float(seconds)
        else:
            self._service_ewma_s += a * (per_query - self._service_ewma_s)
            self._batch_ewma_s += a * (float(seconds) - self._batch_ewma_s)

    def drain_pending(self):
        """Pop every queued request (server shutdown path)."""
        pending = list(self._queue)
        self._queue.clear()
        return pending
