"""Run one benchmark workload and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload served --seed 1 --seconds 25 \\
        --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json;
``--trace 1`` runs the same workload with spans around each layer's
public calls and prints the per-layer metrics instead. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit). The exit code is 0
only when every answer passed its check. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: End-to-end figures printed for the workloads they apply to but not
#: gated (see README.md, "End-to-end metrics"), with their units.
REPORTED_UNITS = {"latency_p50_ms": "ms", "latency_tail_ms": "ms",
                  "pages_per_query": "pages", "ops_per_s": "ops/s",
                  "write_p50_ms": "ms", "write_tail_ms": "ms",
                  "recovery_s": "s"}

BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


def _children():
    """Process ids of this process's children, zombies included."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def _reap(pid, deadline):
    """Wait for child ``pid`` to end; kill it once ``deadline`` passes."""
    while time.monotonic() < deadline:
        try:
            if os.waitpid(pid, os.WNOHANG)[0]:
                return
        except ChildProcessError:
            return
        time.sleep(0.02)
    try:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    except (ProcessLookupError, ChildProcessError):
        pass


def _end_children(grace_s=30.0):
    """Wait for every child process to end, the resource tracker last.

    Shared memory (the shard workers' segment) and the spawn start method
    (the server) start multiprocessing's resource tracker, which would
    otherwise outlive this process for a moment. Closing its pipe, once
    every other child has ended, stops it. A child still running after
    ``grace_s`` is killed.
    """
    from multiprocessing import resource_tracker
    tracker = resource_tracker._resource_tracker
    deadline = time.monotonic() + grace_s
    for pid in sorted(_children(), key=lambda pid: pid == tracker._pid):
        if pid == tracker._pid:
            os.close(tracker._fd)
            tracker._fd = tracker._pid = None
        _reap(pid, deadline)


def _terminate(signum, frame):
    sys.exit(128 + signum)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _measure(workload, seconds, trace, workdir):
    """Set up, run and check one workload; returns the run's record."""
    from measure import vm_hwm_mb

    recorder = uninstall = None
    if trace:
        import layers
        trace_dir = os.path.join(workdir, "trace")
        os.makedirs(trace_dir)
        recorder = layers.Recorder(trace_dir, "main")
        uninstall = layers.install(recorder)
        layers.install_for_forks(recorder)
        workload.trace_dir = trace_dir
    run = {}
    try:
        setup_start = time.perf_counter()
        workload.setup()
        workload.warm()
        pass_start = time.perf_counter()
        pass_s = workload.run_pass(seconds)
        pass_end = time.perf_counter()
        ops = workload.ops()
        processes = workload.processes()
        rss = {"main": vm_hwm_mb()}
        for role, pid in processes.items():
            if role != "server":            # the server reports its own
                rss[role] = vm_hwm_mb(pid)
        run["resources"] = {"processes": 1 + len(processes),
                            "threads": workload.threads,
                            "connections": int("server" in processes),
                            "blas_threads_per_process": 1}
        attempted, failed, metrics, report = workload.check_pass(
            workload.truth())
        if trace:
            query_stats = workload.query_stats()
            extras = workload.layer_extras()
            uninstall()
            uninstall = None
            if hasattr(workload, "rebuild"):
                workload.rebuild()
            untraced_s = workload.run_pass(seconds)
            extras["trace_overhead"] = (pass_s / ops) / (
                untraced_s / workload.ops())
    finally:
        if uninstall is not None:
            uninstall()
        workload.close()
    server = getattr(workload, "server_info", {})
    if "vm_hwm_mb" in server:
        rss["server"] = server["vm_hwm_mb"]
        run["resources"]["server_threads"] = server["threads"]
    metrics["setup_s"] = statistics.median(workload.setup_times)
    metrics["peak_rss_mb"] = sum(rss.values())
    metrics["ok_frac"] = (attempted - failed) / attempted
    report.update(setup_times_s=workload.setup_times, rss_mb=rss,
                  timed_ops=ops, timed_s=pass_s)
    run.update(attempted=attempted, failed=failed, metrics=metrics,
               report=report, incorrect=workload.incorrect)
    if trace:
        recorder.dump()
        dumps = layers.load_dumps(recorder.trace_dir)
        windows = {"run": (setup_start, pass_end),
                   "pass": (pass_start, pass_end),
                   "phase1": extras.get("phase1")}
        run["layers"] = layers.layer_metrics(dumps, windows, ops,
                                             query_stats, extras)
        run["report"]["self_s_by_process"] = layers.by_role(
            dumps, windows["pass"])
    return run


def main(argv=None):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    # The numpy tier is the reference tier and the one installable
    # everywhere; pin it so runs on hosts with numba stay comparable.
    os.environ["REPRO_KERNELS"] = "numpy"
    # One BLAS thread per process, set before numpy loads and inherited
    # by shard workers and the server: otherwise every process starts a
    # thread per CPU and they contend for the same cores.
    os.environ.update(BLAS_THREADS)
    sys.path[:0] = [SRC, HERE]
    import workloads
    from repro.obs import provenance

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    # A terminated run still stops its processes and removes its files.
    signal.signal(signal.SIGTERM, _terminate)
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        run = _measure(workload, args.seconds, args.trace, workdir)
    finally:
        _end_children()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    valid = run["report"].get("generator_valid", True)
    correct = run["incorrect"] == 0 and valid
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = run["layers"] if args.trace else run["metrics"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, entry in metrics.items():
        print(f"  {name:40s} {entry['value']:14.6g} {entry['unit']}")
    if not args.trace:
        print("reported, not gated:")
        for name, unit in REPORTED_UNITS.items():
            if name in run["metrics"] and name not in metrics:
                print(f"  {name:40s} {run['metrics'][name]:14.6g} {unit}")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "provenance": provenance(),
                      "resources": run["resources"],
                      "end_to_end": run["metrics"],
                      "report": run["report"]}, default=str))
    if not valid:
        print("perfbench: the load generator fell behind its schedule; "
              "this run is invalid", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
