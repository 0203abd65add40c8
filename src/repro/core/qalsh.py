"""QALSH: query-aware dynamic collision counting (extension module).

QALSH (Huang et al., PVLDB 2015) is the published successor of C2LSH's
framework: instead of pre-quantized buckets ``floor((a.o + b)/w)``, it keeps
the *raw* projections ``a.o`` sorted, and at search radius ``R`` counts a
collision for object ``o`` under function ``a`` iff::

    |a.o - a.q| <= w * R / 2

i.e. the bucket is always centered on the query ("query-aware"). This
removes the boundary effect of static buckets. The collision probability at
distance ``s`` and radius ``R`` is ``2*Phi(w*R/(2*s)) - 1``, which depends
only on ``s/R`` — so, exactly as in C2LSH, one ``(m, l)`` pair is valid at
every radius of the grid ``{1, c, c^2, ...}``.

This module is an **extension** beyond the 2012 paper (DESIGN.md §3 item 6);
the ablation benchmark compares it against C2LSH under the identical cost
model.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.special import ndtr

from .. import kernels
from ..hashing.pstable import PStableFamily
from ..kernels import row_searchsorted
from ..obs import trace
from ..storage.hashfile import ENTRY_BYTES
from ..validation import as_data_matrix, as_query_matrix, as_query_vector
from .scaling import resolve_base_radius
from .params import optimal_alpha, required_m
from .results import QueryResult, QueryStats

__all__ = ["QALSH", "qalsh_collision_probability", "qalsh_optimal_w"]

_MAX_ROUNDS = 64


def qalsh_collision_probability(s, w, radius=1.0):
    """P[|a.(o-q)| <= w*radius/2] for points at Euclidean distance ``s``."""
    if w <= 0 or radius <= 0:
        raise ValueError("w and radius must be positive")
    s_arr = np.asarray(s, dtype=np.float64)
    if np.any(s_arr < 0):
        raise ValueError("distances must be non-negative")
    scalar = s_arr.ndim == 0
    s_arr = np.atleast_1d(s_arr)
    p = np.ones_like(s_arr)
    positive = s_arr > 0
    t = (w * radius / 2.0) / s_arr[positive]
    p[positive] = 2.0 * ndtr(t) - 1.0
    if scalar:
        return float(p[0])
    return p


def qalsh_optimal_w(c):
    """QALSH's rho-minimizing bucket width ``sqrt(8 c^2 ln c / (c^2 - 1))``."""
    if c <= 1:
        raise ValueError(f"approximation ratio c must exceed 1, got {c}")
    return math.sqrt(8.0 * c * c * math.log(c) / (c * c - 1.0))


class QALSH:
    """Query-aware LSH index with dynamic collision counting.

    Accepts the same tuning knobs as :class:`repro.core.c2lsh.C2LSH`, but
    ``c`` may be any real number greater than 1 (query-centered windows need
    no integer bucket merging).
    """

    def __init__(self, c=2.0, w=None, beta=None, delta=0.01, alpha=None,
                 m=None, seed=None, rng=None, page_manager=None,
                 base_radius="auto"):
        if c <= 1:
            raise ValueError(f"approximation ratio c must exceed 1, got {c}")
        self.c = float(c)
        self.w = float(w) if w is not None else qalsh_optimal_w(self.c)
        self._beta = beta
        self._delta = float(delta)
        self._alpha_override = alpha
        self._m_override = m
        if rng is None:
            rng = np.random.default_rng(seed)
        self._rng = rng
        self._pm = page_manager
        self._base_radius = base_radius
        self._scale = 1.0

        self._data = None
        self._funcs = None
        self._order = None       # (m, n) argsort per projection
        self._sorted_proj = None  # (m, n) sorted projections
        self._object_pages = 1

        self.p1 = qalsh_collision_probability(1.0, self.w)
        self.p2 = qalsh_collision_probability(self.c, self.w)
        self.alpha = None
        self.m = None
        self.l = None
        self.beta = None
        self.delta = self._delta

    def fit(self, data):
        """Build sorted projection files over ``data``; returns self."""
        data = as_data_matrix(data)
        n, dim = data.shape
        self.beta = self._beta if self._beta is not None else min(100.0 / n, 0.5)
        self.alpha = (self._alpha_override
                      if self._alpha_override is not None
                      else optimal_alpha(self.p1, self.p2, self.beta, self._delta))
        self.m = (self._m_override
                  if self._m_override is not None
                  else required_m(self.p1, self.p2, self.alpha, self.beta,
                                  self._delta))
        self.l = int(math.ceil(self.alpha * self.m))

        self._data = data
        self._scale = resolve_base_radius(self._base_radius, data, self._rng)
        family = PStableFamily(dim, w=self.w)
        self._funcs = family.sample(self.m, self._rng)
        proj = self._funcs.project(data / self._scale)  # (n, m)
        self._order = np.argsort(proj, axis=0).T.copy()        # (m, n)
        self._sorted_proj = np.take_along_axis(
            proj, self._order.T, axis=0
        ).T.copy()                                              # (m, n)
        if self._pm is not None:
            self._object_pages = max(1, self._pm.pages_for(1, dim * 8))
            self._pm.charge_write(
                self.m * self._pm.pages_for(n, ENTRY_BYTES)
                + self._pm.pages_for(n, dim * 8),
                site="build",
            )
        return self

    @property
    def is_fitted(self):
        """Whether fit() has been called."""
        return self._data is not None

    @property
    def false_positive_budget(self):
        """Maximum tolerated false positives, ceil(beta * n)."""
        return int(math.ceil(self.beta * self._data.shape[0]))

    def index_pages(self):
        """Pages occupied by the m sorted projection files."""
        if self._pm is None:
            raise RuntimeError("index was built without a page manager")
        return self.m * self._pm.pages_for(self._data.shape[0], ENTRY_BYTES)

    def query(self, query, k=1, budget=None):
        """Answer a c-k-ANN query; returns a :class:`QueryResult`.

        ``budget`` optionally caps the query's work with a
        :class:`repro.reliability.QueryBudget`; on overrun the verified
        candidates collected so far are returned with
        ``stats.degraded = True``.
        """
        if not self.is_fitted:
            raise RuntimeError("index is not fitted; call fit(data) first")
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        started = time.perf_counter()
        with trace.span("query", k=int(k), index="qalsh") as qspan:
            return self._traced_query(query, k, started, qspan, budget)

    def _traced_query(self, query, k, started, qspan, budget=None):
        """Body of :meth:`query`, run inside its ``"query"`` span."""
        n, dim = self._data.shape
        query = as_query_vector(query, dim)
        with trace.span("hash"):
            centers = self._funcs.project(query / self._scale)  # (m,)
        target = min(n, k + self.false_positive_budget)
        snapshot = self._pm.snapshot() if self._pm is not None else None
        tracker = budget.start(self._pm, started) \
            if budget is not None else None

        counts = np.zeros(n, dtype=np.int32)
        lo = np.zeros(self.m, dtype=np.int64)
        hi = np.zeros(self.m, dtype=np.int64)
        is_candidate = np.zeros(n, dtype=bool)
        cand_ids, cand_dists = [], []
        n_candidates = 0
        stats = QueryStats()

        radius = 1.0
        opened = False
        while True:
            with trace.span("count_round", radius=int(radius)):
                half = self.w * radius / 2.0
                lo_new = row_searchsorted(self._sorted_proj, centers - half,
                                          side="left")
                hi_new = row_searchsorted(self._sorted_proj, centers + half,
                                          side="right")
                segments = []
                if opened:
                    for j in np.flatnonzero((lo_new < lo) | (hi < hi_new)):
                        if lo_new[j] < lo[j]:
                            segments.append((j, int(lo_new[j]), int(lo[j])))
                        if hi[j] < hi_new[j]:
                            segments.append((j, int(hi[j]), int(hi_new[j])))
                else:
                    segments = [(j, int(lo_new[j]), int(hi_new[j]))
                                for j in range(self.m)]
                touched = [self._order[j, a:b]
                           for j, a, b in segments if b > a]
                if self._pm is not None and touched:
                    self._pm.charge_bucket_scans(
                        [b - a for _, a, b in segments if b > a], ENTRY_BYTES
                    )
                lo, hi = lo_new, hi_new
                opened = True
                stats.rounds += 1
                stats.final_radius = int(radius)

                fresh = np.empty(0, dtype=np.int64)
                if touched:
                    touched = np.concatenate(touched)
                    stats.scanned_entries += int(touched.size)
                    delta = kernels.bincount_i32(touched, n)
                    counts += delta
                    fresh = np.flatnonzero(
                        (counts >= self.l) & (counts - delta < self.l)
                    )
                    fresh = fresh[~is_candidate[fresh]]
            if fresh.size:
                with trace.span("verify", count=int(fresh.size)):
                    dists = self._verify(fresh, query)
                is_candidate[fresh] = True
                cand_ids.append(fresh)
                cand_dists.append(dists)
                n_candidates += fresh.size

            if n_candidates >= target:
                stats.terminated_by = "T2"
                break
            if n_candidates >= k:
                threshold = self.c * radius * self._scale
                within = sum(
                    int(np.count_nonzero(d <= threshold))
                    for d in cand_dists
                )
                if within >= k:
                    stats.terminated_by = "T1"
                    break
            exhausted = bool(np.all(lo == 0) and np.all(hi == n))
            if exhausted or stats.rounds >= _MAX_ROUNDS:
                stats.terminated_by = "exhausted"
                break
            if tracker is not None:
                tripped = tracker.exceeded(n_candidates)
                if tripped:
                    stats.terminated_by = "budget"
                    stats.degraded = True
                    stats.budget_exhausted = tripped
                    break
            radius *= self.c

        if n_candidates < k:
            remaining = np.flatnonzero(~is_candidate)
            if remaining.size:
                order = np.argsort(-counts[remaining], kind="stable")
                need = min(k - n_candidates + self.false_positive_budget,
                           remaining.size)
                extra = remaining[order[:need]]
                cand_ids.append(extra)
                with trace.span("verify", count=int(extra.size),
                                fallback=True):
                    cand_dists.append(self._verify(extra, query))
                n_candidates += extra.size
                if not stats.degraded:
                    stats.terminated_by = "fallback"

        stats.candidates = n_candidates
        if snapshot is not None:
            delta_io = self._pm.since(snapshot)
            stats.io_reads = delta_io.reads
            stats.io_writes = delta_io.writes
        stats.elapsed_s = time.perf_counter() - started
        qspan.set(rounds=stats.rounds, final_radius=stats.final_radius,
                  candidates=stats.candidates,
                  scanned_entries=stats.scanned_entries,
                  io_reads=stats.io_reads, io_writes=stats.io_writes,
                  terminated_by=stats.terminated_by,
                  elapsed_s=stats.elapsed_s, degraded=stats.degraded)

        ids = np.concatenate(cand_ids) if cand_ids else np.empty(0, np.int64)
        dists = np.concatenate(cand_dists) if cand_dists else np.empty(0)
        return QueryResult.from_candidates(ids, dists, k, stats)

    def query_batch(self, queries, k=1, budget=None):
        """Answer many queries; returns a list of QueryResult."""
        if not self.is_fitted:
            raise RuntimeError("index is not fitted; call fit(data) first")
        queries = as_query_matrix(queries, self._data.shape[1])
        return [self.query(q, k=k, budget=budget) for q in queries]

    def _verify(self, ids, query):
        if self._pm is not None:
            self._pm.charge_read(self._object_pages * ids.size,
                                 site="data_read")
        vectors = self._data[ids]
        if self._pm is not None and self._pm.fault_injector is not None \
                and ids.size:
            vectors = self._pm.fault_injector.corrupt("data_read", vectors)
        diff = vectors - query
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))

    def __repr__(self):
        if not self.is_fitted:
            return f"QALSH(c={self.c}, unfitted)"
        return (f"QALSH(n={self._data.shape[0]}, dim={self._data.shape[1]}, "
                f"m={self.m}, l={self.l}, c={self.c})")
