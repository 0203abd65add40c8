"""Streaming updates: inserts, deletes, and automatic rebuilds.

C2LSH's bucket files are bulk-built; :class:`repro.core.UpdatableC2LSH`
turns them into a living index with an LSM-style side buffer, stable
handles, deletes as a live mask, and threshold-triggered rebuilds. This
example simulates a feed of arriving and expiring items and checks the
index stays exact-quality against a brute-force oracle throughout.

Run:  python examples/updatable_stream.py
"""

import numpy as np

from repro.core import UpdatableC2LSH
from repro.data import exact_knn
from repro.eval import Table

rng = np.random.default_rng(0)
index = UpdatableC2LSH(seed=0, c=2, min_index_size=500,
                       rebuild_threshold=0.25)

# Oracle state: handle -> vector for everything currently live.
oracle = {}

table = Table(["step", "live", "indexed", "buffered", "rebuilds",
               "recall@5"],
              title="Streaming inserts/deletes against a brute-force oracle")

for step in range(10):
    # A batch of arrivals near 3 drifting topic centers...
    centers = rng.uniform(-10, 10, size=(3, 24))
    batch = centers[rng.integers(0, 3, size=300)] \
        + rng.standard_normal((300, 24))
    handles = index.insert(batch)
    oracle.update(zip(handles.tolist(), batch))

    # ...and some departures.
    if len(oracle) > 600:
        victims = rng.choice(list(oracle), size=150, replace=False)
        index.delete(victims)
        for handle in victims:
            del oracle[int(handle)]

    # Check top-5 quality against the oracle on a few probes.
    live_handles = np.array(sorted(oracle))
    live_rows = np.vstack([oracle[h] for h in live_handles])
    hits = total = 0
    for probe_row in live_rows[rng.integers(0, len(live_rows), size=5)]:
        query = probe_row + 0.05 * rng.standard_normal(24)
        result = index.query(query, k=5)
        true_pos, _ = exact_knn(live_rows, query, 5)
        truth = set(live_handles[true_pos].tolist())
        hits += len(set(result.ids.tolist()) & truth)
        total += 5
    table.add(step, len(index), index._indexed_ids.size,
              len(index._buffer), index.rebuilds, f"{hits / total:.2f}")

table.print()
print("The side buffer absorbs arrivals between rebuilds; handles stay")
print("stable across rebuilds, deletes are filtered everywhere, and")
print("recall tracks the exact oracle throughout the stream.")

# -- the durable variant: the same stream, surviving a crash ----------------
#
# DurableUpdatableC2LSH write-ahead-logs every update before applying it
# and checkpoints full snapshots, so abandoning the object mid-stream
# (the moral equivalent of kill -9) loses nothing: reopening the
# directory replays the log and reproduces the exact state.

import shutil
import tempfile

from repro.durability import DurableUpdatableC2LSH

workdir = tempfile.mkdtemp(prefix="updatable-stream-")
durable = DurableUpdatableC2LSH(workdir, seed=0, c=2, min_index_size=500,
                                rebuild_threshold=0.25, fsync=False)
live = np.vstack([oracle[h] for h in sorted(oracle)])
durable.insert(live[: len(live) // 2])
durable.checkpoint()                       # snapshot + WAL rotation
durable.insert(live[len(live) // 2:])      # only in the WAL
probe = live[0] + 0.05 * rng.standard_normal(24)
before = durable.query(probe, k=5)
durable.close()                            # "crash": no checkpoint since

recovered = DurableUpdatableC2LSH(workdir, seed=0, c=2, min_index_size=500,
                                  rebuild_threshold=0.25, fsync=False)
after = recovered.query(probe, k=5)
assert np.array_equal(before.ids, after.ids)
print(f"\ndurable: {len(recovered)} live points recovered "
      f"({recovered.recovered_records} WAL records replayed); "
      f"answers match the pre-crash index exactly.")
recovered.close()
shutil.rmtree(workdir)
