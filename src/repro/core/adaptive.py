"""Query-adaptive probing: estimated radius starts, ordered probes, early exit.

The classic C2LSH schedule makes every query pay for the full radius grid
``{1, c, c^2, ...}`` and, within each round, for all ``m`` table scans plus
the verification of *every* object that crossed the collision threshold —
even when the first few probed tables already satisfy the termination
rules. This module implements the query-adaptive mode (DB-LSH / multi-probe
direction; see docs/PERFORMANCE.md):

1. **Radius-start estimation** (:func:`estimate_start_levels`): from the
   per-table sorted hash arrays, compute for each query the smallest grid
   level at which at least ``l`` tables have a non-empty query bucket.
   Below that level no object can reach collision count ``l``, so no
   candidate, T1, or T2 outcome is possible — skipping straight to the
   estimated level is *answer-preserving* (interval nesting makes the
   jumped-to counts equal the incremental ones). The estimate costs two
   binary searches per table and grid level up to saturation, on data
   already in memory, and charges no pages, consistent with the classic
   path never charging its searchsorted descents.

2. **Likelihood-ordered probing** (:func:`probe_order`): within a round,
   tables are probed in descending *margin* order — the distance from the
   query's raw projection to the nearest boundary of its radius-``R``
   bucket, the same boundary-distance score multi-probe LSH ranks
   perturbations by. Central buckets are the likeliest to contain near
   neighbors, so candidates (and T1/T2 satisfaction) arrive early.

3. **Chunked early exit**: the ordered tables are processed in
   ``AdaptiveConfig.chunks`` slices; after each slice the engine verifies
   the new threshold-crossers and re-checks T2. A query whose
   termination rule is already satisfiable stops probing — the remaining
   tables are never scanned and their would-be crossers never verified.
   With ``chunks=1`` the single slice is the whole round and the mode is
   provably bit-identical to classic (same candidates, same order, same
   page charges); larger values trade a little tie-order fidelity for
   large I/O savings. PageManager is only ever charged for buckets
   actually probed.

This module holds the schedule: the config, the estimator and the probe
order. The query loop that runs it is the one block driver in
:mod:`repro.core.batchengine`, shared with classic mode, which is the
:data:`CLASSIC` preset of this schedule. Classic remains the bit-exactness
oracle; adaptive mode preserves the result-size / sortedness /
verified-distance contract and the budget semantics, but may settle for a
smaller candidate pool. See docs/THEORY.md for which of the paper's
guarantees survive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counting import MAX_ROUNDS, _intervals_at

__all__ = ["AdaptiveConfig", "CLASSIC", "as_probe_config",
           "check_adaptive_supported", "estimate_start_levels",
           "start_payload", "merge_start_levels", "probe_order",
           "saturation_level"]


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs of the adaptive probing mode.

    Attributes
    ----------
    chunks:
        Number of slices each round's margin-ordered table list is probed
        in; T2 is re-checked after every slice (T1 only at round end: a
        mid-round T1 would return the bare ``k`` within-radius candidates
        and cost recall). ``1`` scans all ``m`` tables in one pass, the
        classic round; larger values exit earlier at a small cost in
        tie-order fidelity. Default 16.
    start_estimate:
        Skip the provably-empty small-radius rounds via
        :func:`estimate_start_levels` (answer-preserving).
    provisional_exit:
        Fire T2 on *projected* crossers: after probing a fraction ``p/m``
        of the round's tables, an object with partial count
        ``>= ceil(l * p/m)`` is on track to cross the collision
        threshold. When the projected pool reaches the T2 target, the
        engine verifies the best-counted objects (the classic engine's
        own graceful-fallback selection) and stops probing — this is
        what breaks through the "no candidate can be certified before
        ``l`` tables are probed" scan floor. Distances in the result are
        always exactly verified; only the *selection* of which objects
        to verify is predictive, so recall can dip slightly below an
        exit at certified counts. Queries that exit this way report
        ``terminated_by == "T2-early"``.
    """

    chunks: int = 16
    start_estimate: bool = True
    provisional_exit: bool = True

    def __post_init__(self):
        if int(self.chunks) < 1:
            raise ValueError(f"chunks must be >= 1, got {self.chunks}")


#: Classic C2LSH as a schedule: every round scans all ``m`` tables in one
#: pass from radius 1 — the paper's algorithm, and bit-identical to the
#: sequential path. ``probe="classic"`` runs this preset.
CLASSIC = AdaptiveConfig(chunks=1, start_estimate=False)


def as_probe_config(probe):
    """Normalize a ``probe=`` argument: ``None`` for classic, else a config.

    Accepts ``"classic"`` / ``None`` (classic mode), ``"adaptive"`` (the
    default :class:`AdaptiveConfig`), or an explicit config instance.
    """
    if probe is None or probe == "classic":
        return None
    if probe == "adaptive":
        return AdaptiveConfig()
    if isinstance(probe, AdaptiveConfig):
        return probe
    raise ValueError(
        f"probe must be 'classic', 'adaptive' or an AdaptiveConfig, "
        f"got {probe!r}"
    )


def check_adaptive_supported(funcs, incremental=True):
    """Raise when the index cannot run adaptive probing.

    The estimator and the margin score need quantized-projection bucket
    ids (a rehashable family exposing raw projections), and the chunked
    counter only exists on the incremental path — the A2 recount ablation
    keeps its classic I/O pattern. docs/PERFORMANCE.md lists these as the
    "when classic is required" cases.
    """
    if not getattr(funcs, "rehashable", False) \
            or not hasattr(funcs, "project"):
        raise ValueError(
            "adaptive probing requires a rehashable quantized-projection "
            "family (radius rounds and projection margins do not exist "
            "otherwise); use probe='classic'"
        )
    if not incremental:
        raise ValueError(
            "adaptive probing requires incremental counting; the recount "
            "ablation (incremental=False) must use probe='classic'"
        )


def saturation_level(id_span, c):
    """Smallest grid level whose radius saturates the bucket-id span.

    At radius ``>= 2 * (id_span + 1)`` every table's interval covers all
    entries (the :class:`~repro.core.counting.QueryCounter` saturation
    rule), so no per-table collide level ever needs to exceed this.
    """
    level, radius = 0, 1
    limit = 2 * (int(id_span) + 1)
    while radius < limit and level < MAX_ROUNDS:
        radius *= c
        level += 1
    return level


def estimate_start_levels(counter, qids, l, c, k=1):
    """Per-query start level: first level where termination is possible.

    The elementwise max of two exact lower bounds on the first level at
    which any candidate — and hence any T1/T2 firing — can exist:

    * the *l-th smallest per-table collide level*: below it fewer than
      ``l`` tables have a non-empty query bucket, so no object can reach
      collision count ``l``;
    * the *occupancy level*: the first level whose total bucket
      occupancy ``S_t(q)`` reaches ``l * k``.
      Every object that crossed the collision threshold ``l`` by level
      ``t`` contributes at least ``l`` entries to ``S_t``, so below it
      the buckets cannot hold even ``k`` threshold-crossers (T1 and T2
      both need ``k`` candidates). Queries whose occupancy never reaches
      ``l * k`` start at the saturation level, where classic would also
      arrive (exhausted) with the identical pool.

    Rounds below the start level are provably outcome-free, and by
    interval nesting the counts at the jumped-to level equal the
    incrementally accumulated ones — skipping is answer-preserving. The
    rule is :func:`merge_start_levels` over the whole index as one
    partition, so the sharded engine's merged estimate matches it
    decision for decision; :func:`start_payload` computes both levels'
    inputs in one walk over the grid.
    """
    return merge_start_levels([start_payload(counter, qids, c)], l, l * k)


def start_payload(counter, qids, c):
    """One row partition's radius-start statistics for ``qids``.

    ``{"collide": (Q, m) collide levels, "occ": (Q, L) occupancy table,
    "total": occupancy at saturation}`` — what
    :func:`merge_start_levels` combines. One walk over the grid levels up
    to :func:`saturation_level` (where every bucket covers all entries)
    takes each level's bucket intervals ``[lo, hi)``:

    * ``collide[q, j]`` is the first level at which query ``q``'s bucket
      in table ``j`` holds an entry (``hi > lo``);
    * ``occ[q, t]`` is ``S_t(q)``, the summed sizes of the query's
      level-``t`` buckets over all ``m`` tables. Occupancies add across
      row partitions, so the sharded coordinator's column-wise sum
      equals the unsharded table exactly.

    Reads only the in-memory sorted id arrays; no pages are charged,
    matching the classic path's uncharged searchsorted descent.
    """
    qids = np.asarray(qids, dtype=np.int64)
    sat = saturation_level(counter.id_span, c)
    collide = np.full(qids.shape, sat, dtype=np.int64)  # sat: none yet
    occ = np.empty((qids.shape[0], sat + 1), dtype=np.int64)
    radius = 1
    for level in range(sat + 1):
        lo, hi = _intervals_at(counter, qids, radius)
        occ[:, level] = (hi - lo).sum(axis=1)
        collide[(hi > lo) & (collide == sat)] = level
        radius *= c
    return {"collide": collide, "occ": occ, "total": counter.m * counter.n}


def merge_start_levels(payloads, l, need):
    """Start levels from the :func:`start_payload` of each row partition.

    The one copy of the start rule: :func:`estimate_start_levels` passes
    the whole index as one partition, the sharded engine one payload per
    shard. A global bucket is non-empty iff some partition's restriction
    of it is, so the elementwise minimum of the ``collide`` levels
    reproduces the global collide levels; occupancies are additive, with
    short ``occ`` rows padded by ``total`` (past its saturation a
    partition's buckets cover all its entries). A query starts at the
    larger of its ``l``-th smallest collide level and its first level
    whose occupancy reaches ``need``.
    """
    collide = np.minimum.reduce([p["collide"] for p in payloads])
    width = max(p["occ"].shape[1] for p in payloads)
    occ = np.zeros((collide.shape[0], width), dtype=np.int64)
    for p in payloads:
        w = p["occ"].shape[1]
        occ[:, :w] += p["occ"]
        if w < width:
            occ[:, w:] += int(p["total"])
    if l <= 1:
        table_levels = collide.min(axis=1)
    else:
        table_levels = np.partition(collide, l - 1, axis=1)[:, l - 1]
    meets = occ >= int(need)
    meets[:, -1] = True  # at saturation classic also arrives, exhausted
    occ_levels = meets.argmax(axis=1)
    levels = np.maximum(np.minimum(table_levels, width - 1), occ_levels)
    return np.minimum(levels, MAX_ROUNDS - 1)


def probe_order(uids, qids, radius):
    """Tables ranked most-promising-first for a round at ``radius``.

    ``uids`` are the raw projections divided by the bucket width — the
    query's real-valued coordinate in base-bucket units (``floor(uids) ==
    qids``). The margin of table ``j`` is the distance from that
    coordinate to the nearest boundary of the query's radius-``R`` bucket
    ``[anchor, anchor + R)``; a large margin means the query sits
    centrally and near neighbors likely share the bucket, a small margin
    means they likely fell just across the boundary. Descending margin is
    the multi-probe boundary-distance heuristic applied to C2LSH's
    compound buckets. Stable-sorted so the order is deterministic.
    """
    anchors = (qids // radius) * radius
    rel = uids - anchors
    margin = np.minimum(rel, radius - rel)
    return np.argsort(-margin, axis=1, kind="stable")


def _chunk_bounds(m, chunks):
    """Chunk boundaries over ``m`` tables (balanced contiguous slices)."""
    chunks = max(1, min(int(chunks), m))
    return np.linspace(0, m, chunks + 1).astype(np.int64)


def skipped_round_pages(counter, qids, levels, c):
    """Per-skipped-level page bills the classic schedule would have paid.

    Returns ``[(level, radius, queries, pages)]`` for every level below
    some query's start, pricing each round as classic would: fresh full
    intervals at level 0, then the incremental left/right extensions.
    Costs the binary searches the estimator skipped, so callers only run
    this under an active trace (or in benchmarks).
    """
    pm = counter._pm
    if pm is None:
        return []
    qids = np.asarray(qids, dtype=np.int64)
    max_start = int(levels.max()) if levels.size else 0
    out = []
    prev_lo = prev_hi = None
    radius = 1
    for level in range(max_start):
        group = np.flatnonzero(levels > level)
        if not group.size:
            break
        lo, hi = _intervals_at(counter, qids, radius)
        if prev_lo is None:
            lens = (hi - lo)[group].ravel()
        else:
            lens = np.concatenate(((prev_lo - lo)[group].ravel(),
                                   (hi - prev_hi)[group].ravel()))
        lens = lens[lens > 0]
        pages = int(pm.bucket_scan_pages(
            lens, counter._entry_bytes).sum()) if lens.size else 0
        out.append((level, radius, group, pages))
        prev_lo, prev_hi = lo, hi
        radius *= c
    return out
