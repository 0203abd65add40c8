"""Disk layout of C2LSH's hash tables.

One hash table per LSH function, stored as the list of ``(bucket_id,
object_id)`` entries sorted by bucket id. Because virtual rehashing turns a
radius-``R`` lookup into a *range* of ``R`` consecutive base buckets, a
sorted file supports every radius with one binary search (the directory) and
one sequential scan — this is exactly why C2LSH needs no physical rehash.

The bucket-id column doubles as the in-memory directory: position lookups
are free (the directory is assumed cached, as in the paper), while entry
scans are charged to the :class:`repro.storage.pages.PageManager`.
:class:`repro.core.counting.CollisionCounter` holds all ``m`` tables of an
index in this layout; every index sizes its entries by :data:`ENTRY_BYTES`.
"""

from __future__ import annotations

__all__ = ["ENTRY_BYTES"]

#: Bytes per hash-table entry: 8-byte bucket id + 4-byte object id.
ENTRY_BYTES = 12
