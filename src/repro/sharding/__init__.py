"""Sharded multi-core C2LSH: parallel build, exact fan-out queries.

:class:`ShardedC2LSH` row-partitions the dataset into shards, builds each
shard's counting structure in a persistent worker process (the dataset is
shared zero-copy via :mod:`multiprocessing.shared_memory`), fans every
query out to all shards in lockstep radius rounds, and merges the
per-shard verified candidates into an exact global top-k — bit-identical,
ties included, to an unsharded :class:`repro.core.c2lsh.C2LSH` over the
same data and seed. ``n_workers=0`` selects an in-process serial executor
with identical semantics.

The engine is self-healing: a :class:`WorkerSupervisor` puts deadlines on
every protocol call, detects dead or stuck workers, and applies a
:class:`FailoverPolicy` — respawn-and-replay for bit-identical answers
(``"rebuild"``), partial results from surviving shards (``"degrade"``),
or fail-fast (``"raise"``) — with a circuit breaker quarantining workers
that keep dying. See ``docs/RELIABILITY.md``.

:func:`default_parallelism` is the repository's one source of truth for
"how wide should a parallel fan-out be"; ``ShardedC2LSH(n_workers=None)``
resolves its worker count through it.
"""

from .engine import ShardedC2LSH
from .persist import load_sharded, save_sharded
from .plan import assign_shards, default_parallelism, shard_offsets
from .supervisor import CircuitBreaker, FailoverPolicy, WorkerSupervisor
from .worker import ShardSpec

__all__ = [
    "ShardedC2LSH",
    "save_sharded",
    "load_sharded",
    "default_parallelism",
    "shard_offsets",
    "assign_shards",
    "ShardSpec",
    "FailoverPolicy",
    "CircuitBreaker",
    "WorkerSupervisor",
]
