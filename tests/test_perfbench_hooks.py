"""The benchmark's traced-run hooks still find every name they patch.

``perfbench/layers.py`` wraps a fixed list of ``repro`` functions and
methods for ``--trace 1`` runs, looking each one up by name; a renamed or
removed name makes every traced run exit nonzero. Installing and undoing
the hooks here turns that into a tier-1 failure instead.
"""

from __future__ import annotations

import importlib.util
import pathlib

LAYERS = (pathlib.Path(__file__).resolve().parents[1]
          / "perfbench" / "layers.py")


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_hooks_patch_and_restore_every_name(tmp_path):
    from repro import C2LSH, DurableUpdatableC2LSH, ShardedC2LSH, kernels
    from repro.core.counting import CollisionCounter
    from repro.durability.wal import WriteAheadLog
    from repro.hashing.pstable import PStableFunctions
    from repro.serving.protocol import QueryClient
    from repro.sharding.supervisor import WorkerSupervisor
    from repro.sharding.worker import ShardHost
    from repro.storage.pages import PageManager

    layers = _load_layers()
    methods = [(ShardHost, name) for name in layers.WORKER_METHODS] + [
        (C2LSH, "query"), (C2LSH, "query_batch"),
        (ShardedC2LSH, "query_batch"), (CollisionCounter, "__init__"),
        (PStableFunctions, "hash"), (PStableFunctions, "project"),
        (WorkerSupervisor, "call"), (PageManager, "charge_read"),
        (QueryClient, "send"), (WriteAheadLog, "append"),
        (DurableUpdatableC2LSH, "checkpoint"),
    ]
    functions = {name: getattr(kernels, name) for name in layers.KERNELS}
    originals = {(cls, name): cls.__dict__[name] for cls, name in methods}

    undo = layers.install(layers.Recorder(str(tmp_path), "main"))
    try:
        for name, fn in functions.items():
            assert getattr(kernels, name) is not fn, f"kernels.{name}"
        for (cls, name), fn in originals.items():
            assert cls.__dict__[name] is not fn, f"{cls.__name__}.{name}"
    finally:
        undo()
    for name, fn in functions.items():
        assert getattr(kernels, name) is fn, f"kernels.{name}"
    for (cls, name), fn in originals.items():
        assert cls.__dict__[name] is fn, f"{cls.__name__}.{name}"
