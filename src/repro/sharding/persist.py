"""Persist sharded engines through the verified v2 container format.

A sharded index is fully determined by the dataset, the *global* design
(hash functions, parameters, distance scale — shared by every shard) and
the shard layout, so one :func:`repro.core.persist.save_arrays` container
of kind ``"sharded-c2lsh"`` captures it: atomic write, CRC32-verified
load, :class:`~repro.reliability.CorruptIndexError` on damage. Per-shard
hash tables are rebuilt on load — in parallel, by the restored engine's
own workers — which is both cheaper than storing them and bit-identical
because hashing is deterministic.

Worker count is a *deployment* property, not an index property: the saved
file records the shard layout, and ``load_sharded(n_workers=...)`` may
restore it onto any worker width (including the serial fallback) without
changing a single query answer. Fault plans are runtime attachments and
are likewise not persisted.
"""

from __future__ import annotations

import numpy as np

from ..core.persist import (
    _design_arrays,
    _design_from,
    load_arrays,
    save_arrays,
)
from .engine import ShardedC2LSH

__all__ = ["save_sharded", "load_sharded"]

_KIND = "sharded-c2lsh"


def save_sharded(engine, path):
    """Persist a fitted :class:`ShardedC2LSH` to ``path`` (``.npz``).

    Atomic and checksummed like every v2 container; returns the path
    written (``.npz`` appended when missing).
    """
    if not engine.is_fitted:
        raise ValueError("cannot save an unfitted or closed engine")
    return save_arrays(path, _KIND, {
        **_design_arrays(engine),
        "shard_offsets": np.asarray(engine._offsets, dtype=np.int64),
        "use_t1": engine._use_t1,
        "page_accounting": engine._page_accounting,
        "page_size": engine._page_size,
        "fault_seed": engine._fault_seed,
    })


def load_sharded(path, n_workers=None, *, fault_plan=None,
                 on_worker_failure="rebuild", failover=None, metrics=None):
    """Restore an engine written by :func:`save_sharded`.

    Every array is verified against its recorded CRC32/dtype/shape;
    damage raises :class:`~repro.reliability.CorruptIndexError` naming
    the bad section. The shard layout is restored exactly as saved;
    ``n_workers`` (default: auto width) chooses how the restored shards
    are spread over processes. ``fault_plan`` attaches runtime-only
    fault injection; ``on_worker_failure``/``failover`` select the
    restored deployment's failover policy (like worker width, a
    deployment property — not persisted); ``metrics`` supplies the
    registry for the restored engine's ``shard.*`` metrics. Members the
    loader does not read, such as retired fields in older files, are
    ignored.
    """
    blob = load_arrays(path, _KIND)
    data, design, layout = _design_from(blob)
    _, _, params, scale = design
    shard_off = np.asarray(blob["shard_offsets"], dtype=np.int64)

    engine = ShardedC2LSH(
        n_shards=shard_off.size - 1,
        n_workers=n_workers,
        c=params.c,
        base_radius=scale,
        data_layout=layout,
        use_t1=bool(blob["use_t1"]),
        page_accounting=bool(blob["page_accounting"]),
        page_size=int(blob["page_size"]),
        fault_plan=fault_plan,
        fault_seed=int(blob["fault_seed"]),
        on_worker_failure=on_worker_failure,
        failover=failover,
        metrics=metrics,
    )
    engine._assemble(data, *design, offsets=shard_off)
    return engine
