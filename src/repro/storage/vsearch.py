"""Vectorized row-wise binary search.

``numpy.searchsorted`` only handles one sorted array at a time; C2LSH and
QALSH need *m* simultaneous lookups, one per hash table, every radius step.
``row_searchsorted`` runs all m binary searches in lockstep, which is what
keeps queries fast (the repro band's "hashing loops slow without C
extensions" warning).

The search also batches across *queries*: passing a ``(Q, m)`` target
matrix runs all ``Q * m`` lookups against the shared ``(m, n)`` sorted rows
together, which is the primitive the lockstep batch query engine
(:mod:`repro.core.batchengine`) is built on.

The implementation lives in :mod:`repro.kernels`, which runs all searches
with ``O(log n)`` vectorized passes; this module remains the public entry
point.
"""

from __future__ import annotations

from ..kernels import row_searchsorted

__all__ = ["row_searchsorted"]
