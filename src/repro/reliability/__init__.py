"""Reliability layer: fault injection, query budgets, integrity errors.

Production indexes fail in three ways this package makes first-class:

* **Storage faults** — :class:`FaultInjector` + :class:`FaultPlan` inject
  deterministic transient errors, latency, and page corruption at the
  storage charge sites (``bucket_scan``, ``data_read``,
  ``btree_descend``, ...), with a bounded retry-with-backoff wrapper
  (:class:`RetryPolicy`) whose retries land in a
  :class:`repro.obs.MetricsRegistry`. Attach one via
  ``PageManager(fault_injector=...)``.
* **Runaway queries** — :class:`QueryBudget` caps a query's wall clock,
  charged I/O pages, or candidate count; on overrun the engines return
  verified best-effort results flagged ``QueryStats.degraded`` instead of
  raising or running unbounded (see :mod:`repro.reliability.budget`).
* **Torn or damaged index files** — :mod:`repro.core.persist` writes
  atomically (temp file + fsync + rename) and verifies per-array CRC32
  checksums on load, raising :class:`CorruptIndexError` naming the
  damaged section.
* **Dead or stuck worker processes** — ``"exit"`` fault rules at the
  ``worker_exit.*`` sites make worker death chaos-injectable at every
  step of the sharded engine's protocol; the engine's supervision layer
  (:mod:`repro.sharding.supervisor`) detects the loss (broken pool,
  missed deadline, failed heartbeat) and applies a configurable failover
  policy — respawn-and-replay, degrade to surviving shards, or raise
  :class:`WorkerFailureError`.

See ``docs/RELIABILITY.md`` for the fault-plan schema, budget semantics,
and the degraded-result contract.
"""

from .budget import QueryBudget, as_budget_list
from .errors import (
    CorruptIndexError,
    InjectedWorkerExit,
    TransientIOError,
    WorkerFailureError,
)
from .faults import (
    CORRUPT_MODES,
    KINDS,
    FaultInjector,
    FaultPlan,
    FaultRule,
    RetryPolicy,
)

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "RetryPolicy",
    "QueryBudget",
    "as_budget_list",
    "TransientIOError",
    "CorruptIndexError",
    "WorkerFailureError",
    "InjectedWorkerExit",
    "KINDS",
    "CORRUPT_MODES",
]
