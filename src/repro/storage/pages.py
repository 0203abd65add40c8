"""Page-based storage cost model.

C2LSH was published as an external-memory method: its headline efficiency
metric is the number of 4-KiB pages read per query. This module provides a
single accounting object, :class:`PageManager`, that every index in the
repository charges its page accesses to, so all methods are measured under
one identical cost model:

* scanning ``s`` consecutive entries of ``entry_bytes`` each costs
  ``ceil(s / entries_per_page)`` sequential page reads;
* locating a bucket / descending one B-tree node costs one page read;
* verifying one data object (reading its raw vector) costs
  ``pages_for(1, dim * 8)`` random page reads (one page unless the vector is
  larger than a page).

The pages themselves are simulated — data lives in memory — but the counts
are exact for the modeled layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..obs import trace as _trace

__all__ = ["IOStats", "PageManager", "DEFAULT_PAGE_SIZE"]

DEFAULT_PAGE_SIZE = 4096


@dataclass
class IOStats:
    """Cumulative page-access counters."""

    reads: int = 0
    writes: int = 0

    @property
    def total(self):
        """Reads plus writes."""
        return self.reads + self.writes

    def copy(self):
        """An independent copy of the counters."""
        return IOStats(reads=self.reads, writes=self.writes)

    def __sub__(self, other):
        return IOStats(reads=self.reads - other.reads,
                       writes=self.writes - other.writes)


class PageManager:
    """Charges and accumulates page I/O under a fixed page size.

    ``fault_injector`` optionally attaches a
    :class:`repro.reliability.FaultInjector`: every charge call then
    consults the injector's retry-guarded fault check for its site
    before the pages are counted, so latency and transient-error rules
    fire exactly where the modeled I/O happens. Charges are counted only
    for operations that (eventually) succeed; retries are recorded in
    the injector's metrics registry, not in :attr:`stats`.
    """

    def __init__(self, page_size=DEFAULT_PAGE_SIZE, fault_injector=None):
        if page_size < 16:
            raise ValueError(f"page size unreasonably small: {page_size}")
        self.page_size = int(page_size)
        self.stats = IOStats()
        self.fault_injector = fault_injector

    def entries_per_page(self, entry_bytes):
        """How many fixed-size entries fit on one page (at least 1)."""
        if entry_bytes <= 0:
            raise ValueError(f"entry size must be positive, got {entry_bytes}")
        return max(1, self.page_size // int(entry_bytes))

    def pages_for(self, n_entries, entry_bytes):
        """Pages needed to store ``n_entries`` entries contiguously."""
        if n_entries < 0:
            raise ValueError(f"entry count must be non-negative, got {n_entries}")
        if n_entries == 0:
            return 0
        return math.ceil(n_entries / self.entries_per_page(entry_bytes))

    def charge_read(self, pages=1, site=None):
        """Record page reads; ``site`` names the charging call site.

        When a :mod:`repro.obs` trace is active, the charge is also
        reported as an I/O event attributed to ``site`` (default
        ``"unattributed"``) and to the currently open span.
        """
        if pages < 0:
            raise ValueError("cannot charge a negative number of page reads")
        if self.fault_injector is not None:
            self.fault_injector.guard(site or "unattributed")
        self.stats.reads += int(pages)
        trace = _trace.current()
        if trace is not None:
            trace.record_io("read", int(pages), site or "unattributed")

    def charge_write(self, pages=1, site=None):
        """Record page writes; ``site`` names the charging call site."""
        if pages < 0:
            raise ValueError("cannot charge a negative number of page writes")
        if self.fault_injector is not None:
            self.fault_injector.guard(site or "unattributed")
        self.stats.writes += int(pages)
        trace = _trace.current()
        if trace is not None:
            trace.record_io("write", int(pages), site or "unattributed")

    def charge_sequential_read(self, n_entries, entry_bytes, site=None):
        """Charge a sequential scan of ``n_entries`` entries; returns pages."""
        pages = self.pages_for(n_entries, entry_bytes)
        self.charge_read(pages, site=site)
        return pages

    def bucket_scan_pages(self, entry_counts, entry_bytes):
        """Per-scan page costs of bucket-range scans, without charging.

        Locating a non-empty range lands on its first data page, so each
        positive count costs ``max(1, ceil(count / entries_per_page))``
        pages; zero counts are free. This is *the* bucket cost formula —
        every index in the repository routes range scans through it (via
        :meth:`charge_bucket_scans`) so the methods stay comparable; the
        batch query engine uses the uncharged form to attribute one global
        charge back to individual queries.
        """
        counts = np.asarray(entry_counts, dtype=np.int64)
        if np.any(counts < 0):
            raise ValueError("entry counts must be non-negative")
        epp = self.entries_per_page(entry_bytes)
        return np.maximum(1, -(-counts // epp)) * (counts > 0)

    def charge_bucket_scans(self, entry_counts, entry_bytes,
                            site="bucket_scan"):
        """Charge one bucket-range scan per count; returns total pages.

        See :meth:`bucket_scan_pages` for the per-scan cost formula.
        """
        pages = int(self.bucket_scan_pages(entry_counts, entry_bytes).sum())
        self.charge_read(pages, site=site)
        return pages

    def snapshot(self):
        """A copy of the counters, for before/after differencing."""
        return self.stats.copy()

    def since(self, snapshot):
        """I/O accumulated since ``snapshot`` was taken."""
        return self.stats - snapshot

    def reset(self):
        """Zero all counters."""
        self.stats = IOStats()

    def __repr__(self):
        return (f"PageManager(page_size={self.page_size}, "
                f"reads={self.stats.reads}, writes={self.stats.writes})")
