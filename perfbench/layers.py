"""Traced runs: spans around each layer's public calls, from outside ``src/``.

Nothing here is imported by a measured (untraced) run. A traced run calls
:func:`install`, which replaces a fixed list of public functions and
methods of the ``repro`` package with wrappers that record one span per
call (name, start, end, parent span, operation id) into an in-memory
:class:`Recorder`. The operation id is the id of the span's top-level
span, so every span of one query block, request or stream operation
shares it. Shard worker processes are forked from the process that
installs the wrappers, so they inherit them; every process writes its
spans to ``<trace_dir>/spans-<pid>.json`` when it exits, and
:func:`layer_metrics` folds the files into per-layer figures.

A span's parent is the innermost span open on the same thread; a span
opened on a thread with nothing open (a verification pool thread) takes
the newest open ``C2LSH.query_batch`` span, the call waiting for the
pool. A layer's self time is its spans' durations minus the union of
their children's intervals, clipped to the span.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

#: Kernels of :mod:`repro.kernels` whose calls and seconds are reported.
KERNELS = ("row_searchsorted", "dense_counts", "sparse_counts", "crossings",
           "count_leq", "merge_sorted", "bincount_i32",
           "euclidean_distances")

#: Spans whose calls hand work to a thread pool: a span opened on a thread
#: with nothing open takes the newest of these still open as its parent.
POOL_PARENTS = ("core.query_batch",)

#: Shard-host protocol methods timed inside worker processes.
WORKER_METHODS = ("batch_start", "batch_estimate", "batch_round",
                  "fallback_candidates", "fallback_verify", "batch_end")


class Recorder:
    """Spans and counts of one process, kept in memory until :meth:`dump`."""

    def __init__(self, trace_dir, role):
        self.trace_dir = trace_dir
        self.role = role
        self.spans = []           # (id, parent, name, start, end, op, tid)
        self.counts = []          # (time, name, amount)
        self._ids = itertools.count(1)
        self._names = {}
        self._ops = {}            # span id -> id of its top-level span
        self._open = {}           # open pool-parent span ids, start order
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs):
        """Run ``fn`` inside a span named ``name``."""
        stack = self._stack()
        if stack and self._names.get(stack[-1]) == name:
            return fn(*args, **kwargs)      # re-entry: one span per call
        with self._lock:
            sid = next(self._ids)
            if stack:
                parent = stack[-1]
            else:
                parent = next(reversed(self._open), None)
            self._names[sid] = name
            op = self._ops[sid] = self._ops.get(parent, sid)
            if name in POOL_PARENTS:
                self._open[sid] = None
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self._open.pop(sid, None)
                self.spans.append((sid, parent, name, start, end, op,
                                   threading.get_ident()))

    def count(self, name, amount=1):
        """Record ``amount`` more of ``name``, stamped with the time."""
        with self._lock:
            self.counts.append((time.perf_counter(), name, amount))

    def reset(self, role):
        """Forget everything recorded (a forked child starts empty)."""
        self.role = role
        self.spans = []
        self.counts = []
        self._open = {}
        self._names = {}
        self._ops = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def dump(self):
        """Write this process's spans and counts to the trace directory."""
        path = os.path.join(self.trace_dir, f"spans-{os.getpid()}.json")
        with self._lock:
            payload = {"role": self.role, "pid": os.getpid(),
                       "spans": self.spans, "counts": self.counts}
        with open(path, "w") as fh:
            json.dump(payload, fh)
        return path


def _wrap(recorder, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs)
    return wrapper


def _rebind(original, replacement):
    """Point every ``repro`` module's reference to ``original`` elsewhere.

    Call sites bind kernels both as ``kernels.f`` and through ``from
    ..kernels import f``; rebinding every module attribute that *is* the
    original function covers both.
    """
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(recorder):
    """Wrap each layer's public calls; returns an undo function.

    Import every module first so that rebinding reaches all call sites.
    """
    # Imported so that their ``from ..kernels import`` bindings exist
    # before the rebinding below looks for them.
    import repro.core.adaptive  # noqa: F401
    import repro.storage.vsearch  # noqa: F401
    from repro import kernels
    from repro.core import c2lsh, counting
    from repro.durability import durable, wal
    from repro.hashing import pstable
    from repro.serving import protocol
    from repro.sharding import engine, supervisor, worker
    from repro.storage.pages import PageManager

    undo = []

    def patch_function(fn, name):
        wrapped = _wrap(recorder, name, fn)
        _rebind(fn, wrapped)
        undo.append(lambda: _rebind(wrapped, fn))

    def patch_method(cls, attr, name, wrapper=None):
        fn = cls.__dict__[attr]
        setattr(cls, attr, wrapper or _wrap(recorder, name, fn))
        undo.append(lambda: setattr(cls, attr, fn))

    for kernel in KERNELS:
        patch_function(getattr(kernels, kernel), f"kernels.{kernel}")
    patch_method(pstable.PStableFunctions, "hash", "hashing.hash")
    patch_method(pstable.PStableFunctions, "project", "hashing.hash")
    patch_method(counting.CollisionCounter, "__init__", "counting.build")
    patch_method(c2lsh.C2LSH, "query_batch", "core.query_batch")
    patch_method(c2lsh.C2LSH, "query", "core.query")
    patch_method(engine.ShardedC2LSH, "query_batch", "sharding.block")
    for method in WORKER_METHODS:
        patch_method(worker.ShardHost, method, f"sharding.worker.{method}")
    patch_method(protocol.QueryClient, "send", "serving.client_encode")
    patch_function(protocol.decode_frames, "serving.client_decode")
    patch_method(wal.WriteAheadLog, "append", "durability.wal_append")
    patch_method(durable.DurableUpdatableC2LSH, "checkpoint",
                 "durability.checkpoint")

    call = supervisor.WorkerSupervisor.__dict__["call"]

    def supervised_call(self, method, *args, **kwargs):
        return recorder.call(f"sharding.call.{method}", call,
                             (self, method) + args, kwargs)
    patch_method(supervisor.WorkerSupervisor, "call", None,
                 functools.wraps(call)(supervised_call))

    charge_read = PageManager.__dict__["charge_read"]

    def counted_charge_read(self, pages=1, site=None):
        recorder.count(f"pages.{site or 'unattributed'}", int(pages))
        return charge_read(self, pages, site=site)
    patch_method(PageManager, "charge_read", None,
                 functools.wraps(charge_read)(counted_charge_read))

    def uninstall():
        for step in reversed(undo):
            step()
    return uninstall


def install_for_forks(recorder):
    """Make forked children (shard workers) record and dump on exit."""
    from multiprocessing import util

    def in_child(rec):
        rec.reset("worker")
        util.Finalize(None, rec.dump, exitpriority=100)

    util.register_after_fork(recorder, in_child)


# -- analysis ----------------------------------------------------------------


def _union_length(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cur_start, cur_end = 0.0, None, None
    clipped = [(max(s, lo), min(e, hi)) for s, e in intervals]
    for start, end in sorted(c for c in clipped if c[0] < c[1]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """``{span id: self seconds}``: duration minus covered child time."""
    children = defaultdict(list)
    for sid, parent, _name, start, end, _op, _tid in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {sid: (end - start) - _union_length(children.get(sid, ()),
                                               start, end)
            for sid, _p, _n, start, end, _o, _t in spans}


def load_dumps(trace_dir):
    """Every ``spans-<pid>.json`` payload in ``trace_dir``."""
    dumps = []
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(trace_dir, name)) as fh:
                dump = json.load(fh)
            dump["spans"] = [tuple(s) for s in dump["spans"]]
            dump["self"] = self_times(dump["spans"])
            dumps.append(dump)
    return dumps


def _spans(dumps, window, name=None, role=None):
    """``(dump role, span, self seconds)`` of spans ending in ``window``."""
    lo, hi = window
    for dump in dumps:
        if role is not None and dump["role"] != role:
            continue
        for span in dump["spans"]:
            if lo <= span[4] <= hi and (name is None or span[2] == name):
                yield dump["role"], span, dump["self"][span[0]]


def _totals(dumps, window):
    """Per span name: calls, self seconds and total seconds."""
    out = defaultdict(lambda: [0, 0.0, 0.0])
    for _role, span, self_s in _spans(dumps, window):
        entry = out[span[2]]
        entry[0] += 1
        entry[1] += self_s
        entry[2] += span[4] - span[3]
    return out


def _counts(dumps, window):
    lo, hi = window
    out = defaultdict(int)
    for dump in dumps:
        for stamp, name, amount in dump["counts"]:
            if lo <= stamp <= hi:
                out[name] += amount
    return out


def _stat(stats, key):
    if isinstance(stats, dict):
        return stats.get(key, 0)
    return getattr(stats, key, 0)


def _rounds(dumps, window):
    """Per lockstep round: coordinator seconds and slowest worker seconds.

    Shard workers serve protocol calls in the order the coordinator makes
    them, so the ``i``-th ``batch_round`` on every worker belongs to the
    coordinator's ``i``-th round.
    """
    coordinator = [span[4] - span[3] for _r, span, _s in _spans(
        dumps, window, "sharding.call.batch_round", "main")]
    per_worker = []
    for dump in dumps:
        if dump["role"] == "worker":
            durations = [span[4] - span[3] for _r, span, _s in _spans(
                [dump], window, "sharding.worker.batch_round")]
            if durations:
                per_worker.append(durations)
    pairs = []
    for i, coord in enumerate(coordinator):
        workers = [d[i] for d in per_worker if i < len(d)]
        if workers:
            pairs.append((coord, max(workers)))
    return coordinator, pairs


def layer_metrics(dumps, windows, ops, query_stats, extras):
    """Every per-layer metric of one traced run (0 where a layer is idle).

    Times are self seconds per timed operation (a query, a served request
    or a stream operation) and calls are per operation, except
    ``counting.build.s``, the mean seconds of one table build over set-up
    and the timed pass, and the sharding round figures, which are per
    round.
    """
    totals = _totals(dumps, windows["pass"])
    counts = _counts(dumps, windows["pass"])
    out = {}
    for kernel in KERNELS:
        calls, self_s, _ = totals[f"kernels.{kernel}"]
        out[f"kernels.{kernel}.calls"] = calls / ops
        out[f"kernels.{kernel}.s"] = self_s / ops
    out["hashing.hash.calls"] = totals["hashing.hash"][0] / ops
    out["hashing.hash.s"] = totals["hashing.hash"][1] / ops
    builds, _, build_s = _totals(dumps, windows["run"])["counting.build"]
    out["counting.build.s"] = build_s / builds if builds else 0.0

    out["core.query_batch.s"] = totals["core.query_batch"][1] / ops
    out["core.query.s"] = totals["core.query"][1] / ops
    n = max(1, len(query_stats))
    candidates = sum(_stat(s, "candidates") for s, _ in query_stats)
    out["core.rounds_per_query"] = sum(
        _stat(s, "rounds") for s, _ in query_stats) / n
    out["core.candidates_per_query"] = candidates / n
    out["core.verify_yield"] = (sum(r for _, r in query_stats) / candidates
                                if candidates else 0.0)
    for rule in ("T1", "T2", "exhausted"):
        out[f"core.terminated_{rule}_frac"] = sum(
            _stat(s, "terminated_by") == rule for s, _ in query_stats) / n
    issued = sum(_stat(s, "probes_issued") for s, _ in query_stats)
    skipped = sum(_stat(s, "probes_skipped") for s, _ in query_stats)
    out["adaptive.probes_issued_per_query"] = issued / n
    out["adaptive.probes_skipped_per_query"] = skipped / n
    out["adaptive.skip_frac"] = (skipped / (issued + skipped)
                                 if issued + skipped else 0.0)
    out["storage.bucket_scan_pages_per_query"] = \
        counts["pages.bucket_scan"] / n if query_stats else 0.0
    out["storage.data_read_pages_per_query"] = \
        counts["pages.data_read"] / n if query_stats else 0.0

    blocks = totals["sharding.block"][0]
    coordinator, pairs = _rounds(dumps, windows["pass"])
    out["sharding.block.s"] = totals["sharding.block"][1] / ops
    out["sharding.rounds_per_block"] = (len(coordinator) / blocks
                                        if blocks else 0.0)
    out["sharding.round.s"] = (sum(coordinator) / len(coordinator)
                               if coordinator else 0.0)
    out["sharding.worker_round.s"] = (sum(w for _, w in pairs) / len(pairs)
                                      if pairs else 0.0)
    out["sharding.coord_overhead.s"] = (
        sum(c - w for c, w in pairs) / len(pairs) if pairs else 0.0)
    out["sharding.worker_failures"] = extras.get("worker_failures", 0)

    out["serving.client_encode.s"] = totals["serving.client_encode"][1] / ops
    out["serving.client_decode.s"] = totals["serving.client_decode"][1] / ops
    phase1 = windows.get("phase1")
    services = [span[4] - span[3] for _r, span, _s in _spans(
        dumps, phase1, "core.query_batch", "server")] if phase1 else []
    out["serving.batch_service_p50_ms"] = (
        1e3 * sorted(services)[(len(services) - 1) // 2] if services else 0.0)
    out["serving.coalesce_size_mean"] = (
        extras["phase1_answered"] / len(services) if services else 0.0)
    for key in ("queue_wait_p50_ms", "queue_wait_tail_ms", "front_end_ms",
                "shed", "errors", "generator_lag_ms"):
        out[f"serving.{key}"] = extras.get(key, 0)

    for name in ("wal_append", "checkpoint"):
        calls, self_s, _ = totals[f"durability.{name}"]
        out[f"durability.{name}.calls"] = calls / ops
        out[f"durability.{name}.s"] = self_s / ops
    out["durability.replayed_records"] = extras.get("replayed_records", 0)
    out["updatable.rebuilds"] = extras.get("rebuilds", 0)
    out["updatable.rebuild_stall.s"] = extras.get("rebuild_stall_s", 0.0) / ops
    out["updatable.buffer_scanned_per_query"] = extras.get(
        "buffer_scanned_per_query", 0.0)
    out["obs.trace_overhead"] = extras["trace_overhead"]
    return out


def by_role(dumps, window):
    """Self seconds per span name, split by process role (for the report)."""
    out = defaultdict(lambda: defaultdict(float))
    for role, span, self_s in _spans(dumps, window):
        out[role][span[2]] += self_s
    return {role: dict(sorted(v.items())) for role, v in out.items()}
