"""External-memory substrate: simulated pages, bucket files, B+-tree, Z-order.

Everything cost-related in the repository funnels through
:class:`PageManager`, so C2LSH, LSB-forest and E2LSH are compared under one
identical I/O model (see DESIGN.md §7).
"""

from .btree import BPlusTree, LeafCursor
from .costmodel import HDD, NVME, SSD, DeviceProfile, estimate_seconds
from .datafile import LAYOUTS, DataFile
from .extsort import ExternalSorter, external_sort_pages
from .hashfile import ENTRY_BYTES
from .pages import DEFAULT_PAGE_SIZE, IOStats, PageManager
from .vsearch import row_searchsorted
from .zorder import code_words, deinterleave, interleave, llcp, sort_order

__all__ = [
    "PageManager",
    "IOStats",
    "DEFAULT_PAGE_SIZE",
    "ENTRY_BYTES",
    "BPlusTree",
    "LeafCursor",
    "interleave",
    "deinterleave",
    "llcp",
    "sort_order",
    "code_words",
    "row_searchsorted",
    "ExternalSorter",
    "external_sort_pages",
    "DataFile",
    "LAYOUTS",
    "DeviceProfile",
    "HDD",
    "SSD",
    "NVME",
    "estimate_seconds",
]
