"""Statistics and answer checks shared by the workloads."""

from __future__ import annotations

import math

import numpy as np

#: Percentiles tried for a tail, highest first; the first one with at
#: least ``TAIL_BEYOND`` samples above it is reported.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 97.0, 96.0, 95.0, 90.0, 80.0, 50.0)
TAIL_BEYOND = 10


def percentile(values, p):
    """Nearest-rank ``p``-th percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values, beyond=TAIL_BEYOND):
    """``(percentile, value)`` of the highest ladder step with ``beyond``
    samples above it.

    When no step qualifies the maximum is returned, labelled 100.
    """
    n = len(values)
    for p in TAIL_LADDER:
        if n - max(1, math.ceil(p / 100.0 * n)) >= beyond:
            return p, percentile(values, p)
    return 100.0, max(values)


def latency_summary(seconds, beyond=TAIL_BEYOND):
    """Median and tail of per-operation seconds, in milliseconds.

    With no samples (nothing was answered) both read 0 and ``samples``
    says so.
    """
    if not seconds:
        return {"p50_ms": 0.0, "tail_ms": 0.0, "tail_percentile": 0.0,
                "samples": 0}
    p, value = tail(seconds, beyond)
    return {"p50_ms": 1e3 * percentile(seconds, 50), "tail_ms": 1e3 * value,
            "tail_percentile": p, "samples": len(seconds)}


def vm_hwm_mb(pid="self"):
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def exact_distances(data, ids, query):
    """Euclidean distances recomputed directly from the data rows."""
    diff = data[ids] - query
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def check_answer(data, query, ids, dists, k, exact_dists):
    """Whether one answer is well-formed, exactly verified and plausible.

    It must hold ``k`` distinct ids (or all points when fewer exist), its
    distances must be ascending and equal (to 1e-9 relative) to distances
    recomputed from the data, and its ``i``-th distance can never be
    below the exact ``i``-th nearest distance.
    """
    ids = np.asarray(ids, dtype=np.int64)
    dists = np.asarray(dists, dtype=np.float64)
    want = min(k, data.shape[0])
    if ids.shape != (want,) or dists.shape != (want,):
        return False
    if np.unique(ids).size != want or ids.min() < 0 \
            or ids.max() >= data.shape[0]:
        return False
    if np.any(np.diff(dists) < 0):
        return False
    if not np.allclose(dists, exact_distances(data, ids, query),
                       rtol=1e-9, atol=1e-12):
        return False
    return bool(np.all(dists >= exact_dists[:want] * (1 - 1e-9) - 1e-12))


def quality(answers, exact_ids, exact_dists):
    """Mean recall and mean overall ratio of ``[(ids, dists)]`` answers.

    Recall is the share of the exact k nearest ids returned; the ratio is
    the paper's overall ratio, the mean over ranks of returned distance
    divided by exact distance (ranks whose exact distance is 0 skipped).
    """
    recalls, ratios = [], []
    for (ids, dists), true_ids, true_dists in zip(answers, exact_ids,
                                                  exact_dists):
        k = true_ids.shape[0]
        recalls.append(len(set(ids[:k].tolist())
                           & set(true_ids.tolist())) / k)
        d = np.asarray(dists[:k], dtype=np.float64)
        t = true_dists[:d.shape[0]]
        keep = t > 0
        ratios.append(float(np.mean(d[keep] / t[keep])) if keep.any()
                      else 1.0)
    return float(np.mean(recalls)), float(np.mean(ratios))
