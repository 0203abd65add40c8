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
from ..reliability.budget import as_budget_list
from ..storage.hashfile import ENTRY_BYTES
from ..validation import as_data_matrix, as_query_matrix, as_query_vector
from .batchengine import QueryRounds, QueryState
from .counting import QueryCounter
from .scaling import resolve_base_radius
from .params import optimal_alpha, required_m

__all__ = ["QALSH", "qalsh_collision_probability", "qalsh_optimal_w"]


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
            n, dim = self._data.shape
            query = as_query_vector(query, dim)
            with trace.span("hash"):
                centers = self._funcs.project(query / self._scale)  # (m,)
            # The index stands in for C2LSH's params: it has ``c`` and
            # ``false_positive_budget``.
            state = QueryState(
                1, k, self, n, self._scale, t1=True,
                budgets=as_budget_list(budget, 1), started=started,
                accounting=self._pm is not None, engine="qalsh",
                probing=False,
            )
            counter = _WindowCounter(self, centers)
            return QueryRounds(self, query, counter).answer(state, qspan)

    def query_batch(self, queries, k=1, budget=None):
        """Answer many queries; returns a list of QueryResult.

        ``budget`` is one :class:`repro.reliability.QueryBudget` for every
        query or a sequence of per-query budgets (``None`` entries
        unbudgeted), as for :meth:`repro.core.c2lsh.C2LSH.query_batch`.
        """
        if not self.is_fitted:
            raise RuntimeError("index is not fitted; call fit(data) first")
        queries = as_query_matrix(queries, self._data.shape[1])
        budgets = (as_budget_list(budget, queries.shape[0])
                   or [None] * queries.shape[0])
        return [self.query(q, k=k, budget=b)
                for q, b in zip(queries, budgets)]

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


class _WindowCounter:
    """One query's collision counts over QALSH's query-centred windows.

    At radius ``R`` table ``j`` counts the objects whose projection lies
    in ``[a_j.q - wR/2, a_j.q + wR/2]``; a wider radius scans only each
    window's left and right extensions. Offers the
    :class:`~repro.core.counting.QueryCounter` interface ``QueryRounds``
    counts through: :meth:`expand`, ``newly_frequent``, :attr:`exhausted`
    and ``counts``.
    """

    newly_frequent = QueryCounter.newly_frequent

    def __init__(self, index, centers):
        self._index = index
        self._centers = centers
        self.counts = np.zeros(index._data.shape[0], dtype=np.int32)
        self._lo = self._hi = None
        self.last_delta = None

    @property
    def exhausted(self):
        """True when every window covers every entry."""
        return self._lo is not None and bool(
            np.all(self._lo == 0) and np.all(self._hi == self.counts.size))

    def expand(self, radius):
        """Widen every window to ``radius``; return the object ids newly
        counted (once per window that newly covers them)."""
        index = self._index
        half = index.w * radius / 2.0
        lo = row_searchsorted(index._sorted_proj, self._centers - half,
                              side="left")
        hi = row_searchsorted(index._sorted_proj, self._centers + half,
                              side="right")
        if self._lo is None:
            segments = [(j, lo[j], hi[j]) for j in range(index.m)]
        else:
            segments = []
            for j in np.flatnonzero((lo < self._lo) | (self._hi < hi)):
                segments += [(j, lo[j], self._lo[j]), (j, self._hi[j], hi[j])]
        self._lo, self._hi = lo, hi
        segments = [(j, a, b) for j, a, b in segments if b > a]
        if not segments:
            self.last_delta = None
            return np.empty(0, dtype=np.int64)
        if index._pm is not None:
            index._pm.charge_bucket_scans([b - a for _, a, b in segments],
                                          ENTRY_BYTES)
        touched = np.concatenate([index._order[j, a:b]
                                  for j, a, b in segments])
        self.last_delta = kernels.bincount_i32(touched, self.counts.size)
        self.counts += self.last_delta
        return touched
