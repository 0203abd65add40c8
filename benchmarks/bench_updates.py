"""Update throughput and recovery time, tracked in ``BENCH_updates.json``.

Measures what durability costs on the update path and what it buys back
at recovery: insert/delete throughput for the plain in-memory
:class:`UpdatableC2LSH`, the durable facade without fsync (crash-safe
against process death), and the durable facade with per-record fsync
(crash-safe against power loss) — then kills the fsync'd index without a
checkpoint and times a full WAL replay, and again right after a
checkpoint where recovery is one snapshot load::

    python benchmarks/bench_updates.py               # full run, ~20 s
    python benchmarks/bench_updates.py --smoke       # small sizes for CI

All three variants must answer a probe query identically (same live set,
same handles); the exit code reflects it so CI can gate on recovery
correctness as well as report the numbers.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import DurableUpdatableC2LSH  # noqa: E402
from repro.core.updatable import UpdatableC2LSH  # noqa: E402
from repro.obs import provenance  # noqa: E402

KWARGS = dict(seed=0, c=2, min_index_size=200, rebuild_threshold=0.3)


def _drive(index, batches, delete_every):
    """Apply the update stream; returns (seconds, handles_deleted)."""
    deleted = 0
    t0 = time.perf_counter()
    for i, batch in enumerate(batches):
        handles = index.insert(batch)
        if (i + 1) % delete_every == 0:
            index.delete(handles[: len(handles) // 4])
            deleted += len(handles) // 4
    return time.perf_counter() - t0, deleted


def run_once(n_batches, batch_size, dim, seed):
    rng = np.random.default_rng(seed)
    batches = [rng.standard_normal((batch_size, dim)) * 3
               for _ in range(n_batches)]
    n_points = n_batches * batch_size
    probe = batches[0][0] + 0.01 * rng.standard_normal(dim)
    result = {"config": {"batches": n_batches, "batch_size": batch_size,
                         "dim": dim, "seed": seed}}
    answers = {}

    plain = UpdatableC2LSH(**KWARGS)
    seconds, _ = _drive(plain, batches, delete_every=4)
    answers["in_memory"] = plain.query(probe, k=5)
    result["in_memory"] = {
        "seconds": round(seconds, 4),
        "updates_per_sec": round(n_points / seconds, 1),
    }

    workdir = tempfile.mkdtemp(prefix="bench-updates-")
    try:
        for label, fsync in (("durable_nofsync", False),
                             ("durable_fsync", True)):
            path = f"{workdir}/{label}"
            index = DurableUpdatableC2LSH(path, fsync=fsync, **KWARGS)
            seconds, _ = _drive(index, batches, delete_every=4)
            answers[label] = index.query(probe, k=5)
            index.close()
            t0 = time.perf_counter()
            recovered = DurableUpdatableC2LSH(path, fsync=fsync, **KWARGS)
            replay_s = time.perf_counter() - t0
            answers[label + "_recovered"] = recovered.query(probe, k=5)
            recovered.checkpoint()
            recovered.close()
            t0 = time.perf_counter()
            snapped = DurableUpdatableC2LSH(path, fsync=fsync, **KWARGS)
            checkpointed_s = time.perf_counter() - t0
            snapped.close()
            result[label] = {
                "seconds": round(seconds, 4),
                "updates_per_sec": round(n_points / seconds, 1),
                "recovery_replay_s": round(replay_s, 4),
                "recovery_after_checkpoint_s": round(checkpointed_s, 4),
                "replayed_records": recovered.recovered_records,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reference = answers["in_memory"]
    result["identical_results"] = all(
        np.array_equal(reference.ids, other.ids)
        and np.allclose(reference.distances, other.distances)
        for other in answers.values()
    )
    result["fsync_slowdown"] = round(
        result["durable_fsync"]["updates_per_sec"]
        / result["in_memory"]["updates_per_sec"], 4)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--batches", type=int, default=200)
    parser.add_argument("--batch-size", type=int, default=50)
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_updates.json")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, correctness check only (CI)")
    args = parser.parse_args(argv)

    if args.smoke:
        args.batches, args.batch_size, args.dim = 30, 20, 16

    result = run_once(args.batches, args.batch_size, args.dim, args.seed)
    result["smoke"] = args.smoke

    print(f"batches={args.batches} batch_size={args.batch_size} "
          f"dim={args.dim}")
    for label in ("in_memory", "durable_nofsync", "durable_fsync"):
        row = result[label]
        line = (f"{label + ':':<18}{row['seconds']:.3f}s "
                f"({row['updates_per_sec']:.0f} updates/s)")
        if "recovery_replay_s" in row:
            line += (f"  recovery: replay {row['recovery_replay_s']:.3f}s, "
                     f"checkpointed "
                     f"{row['recovery_after_checkpoint_s']:.3f}s")
        print(line)
    print(f"fsync keeps {result['fsync_slowdown']:.1%} of in-memory "
          f"throughput  identical={result['identical_results']}")

    result["provenance"] = provenance()
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.out}")

    if not result["identical_results"]:
        print("FAIL: durable/recovered answers differ from in-memory",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
