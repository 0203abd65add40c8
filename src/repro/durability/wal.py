"""CRC32-framed, fsync'd write-ahead log for the updatable index.

On-disk layout (little-endian throughout)::

    header   ::=  magic "RWAL" | u32 version (=1) | u64 base_seqno
    record   ::=  u32 payload_len | u32 crc32(payload) | payload
    payload  ::=  u8 record_type | u64 seqno | body

Record types are :data:`INSERT`, :data:`DELETE`,
:data:`CHECKPOINT_BEGIN` and :data:`CHECKPOINT_END`; their body codecs
live at the bottom of this module. Sequence numbers are global and
contiguous: the header's ``base_seqno`` names the first record the file
may hold, every following record increments by one, and a checkpoint
rotates to a fresh file whose ``base_seqno`` continues the count — which
is what lets recovery skip records already folded into a snapshot.

Failure semantics on :func:`scan_log`:

* **Torn tail** — the final record is incomplete (truncated frame) or
  fails its CRC: the intact prefix is returned with ``torn=True`` and
  ``good_size`` marking where to truncate. This is the expected shape of
  a crash mid-append and is repaired silently on reopen.
* **Mid-log corruption** — a record that is *not* the last fails its
  CRC, carries an unknown type, or breaks seqno contiguity:
  :class:`repro.reliability.CorruptIndexError` is raised naming the bad
  record. Damage before intact data cannot be an interrupted append, so
  it is never silently dropped. (One undecidable case: a corrupted
  length field that makes the claimed frame run past end-of-file is
  indistinguishable from a torn final record and is classified torn.)

Fault injection: when a :class:`repro.reliability.FaultInjector` is
attached, every append consults site ``"wal_append"`` *before* writing —
an ``"error"`` rule there simulates a crash mid-record by persisting a
deterministic prefix of the frame and re-raising — and site
``"wal_fsync"`` between the buffered write and the fsync. After either
failure the log refuses further appends (the process is "dead"); reopen
the file to recover.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import tempfile
import zlib
from dataclasses import dataclass, field

import numpy as np

from ..obs.registry import MetricsRegistry
from ..reliability.errors import CorruptIndexError, TransientIOError

__all__ = [
    "WriteAheadLog", "WalRecord", "ScanResult", "scan_log",
    "INSERT", "DELETE", "CHECKPOINT_BEGIN", "CHECKPOINT_END",
    "RECORD_TYPES",
    "encode_insert", "decode_insert", "encode_delete", "decode_delete",
    "encode_meta", "decode_meta",
]

_MAGIC = b"RWAL"
_VERSION = 1
_HEADER = struct.Struct("<4sIQ")    # magic, version, base_seqno
_FRAME = struct.Struct("<II")       # payload length, CRC32(payload)
_PREFIX = struct.Struct("<BQ")      # record type, seqno
_INSERT_HEAD = struct.Struct("<QII")  # start handle, count, dim
_DELETE_HEAD = struct.Struct("<I")    # handle count
_MAX_PAYLOAD = 1 << 30

#: Record types.
INSERT = 1
DELETE = 2
CHECKPOINT_BEGIN = 3
CHECKPOINT_END = 4
RECORD_TYPES = {
    INSERT: "insert",
    DELETE: "delete",
    CHECKPOINT_BEGIN: "checkpoint_begin",
    CHECKPOINT_END: "checkpoint_end",
}


@dataclass(frozen=True)
class WalRecord:
    """One decoded log record plus its byte extent in the file."""

    rectype: int
    seqno: int
    body: bytes
    offset: int     # byte offset of the record's frame header
    end: int        # byte offset one past the record's last byte


@dataclass
class ScanResult:
    """Outcome of :func:`scan_log`: intact records + tail diagnosis."""

    records: list = field(default_factory=list)
    torn: bool = False
    good_size: int = _HEADER.size   # truncate here to drop a torn tail
    base_seqno: int = 0

    @property
    def next_seqno(self):
        """Sequence number the next append must carry."""
        if self.records:
            return self.records[-1].seqno + 1
        return self.base_seqno


def _crc(payload):
    return zlib.crc32(payload) & 0xFFFFFFFF


def scan_log(path):
    """Read and verify a WAL file; returns a :class:`ScanResult`.

    A torn tail (see the module docstring) sets ``torn`` and stops the
    scan; mid-log damage raises :class:`CorruptIndexError`. A missing
    file propagates as ``FileNotFoundError`` (absence is not corruption).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size:
        raise CorruptIndexError(
            path, "wal_header",
            f"file holds {len(data)} bytes, header needs {_HEADER.size}",
        )
    magic, version, base_seqno = _HEADER.unpack_from(data, 0)
    if magic != _MAGIC:
        raise CorruptIndexError(path, "wal_header",
                                f"bad magic {magic!r}")
    if version != _VERSION:
        raise CorruptIndexError(
            path, "wal_header",
            f"unsupported WAL version {version} (expected {_VERSION})",
        )
    result = ScanResult(base_seqno=int(base_seqno))
    expected = int(base_seqno)
    pos = _HEADER.size
    size = len(data)
    while pos < size:
        if size - pos < _FRAME.size:
            result.torn = True
            break
        length, crc = _FRAME.unpack_from(data, pos)
        body_start = pos + _FRAME.size
        end = body_start + length
        if length < _PREFIX.size or length > _MAX_PAYLOAD or end > size:
            # The frame claims bytes the file does not hold — only ever
            # the final (interrupted) append, so a torn tail.
            result.torn = True
            break
        payload = data[body_start:end]
        label = f"wal_record_{len(result.records)}"
        if _crc(payload) != crc:
            if end == size:
                result.torn = True
                break
            raise CorruptIndexError(
                path, label,
                "CRC32 mismatch on a record followed by intact data "
                "(mid-log corruption, not a torn append)",
            )
        rectype, seqno = _PREFIX.unpack_from(payload, 0)
        if rectype not in RECORD_TYPES:
            raise CorruptIndexError(path, label,
                                    f"unknown record type {rectype}")
        if seqno != expected:
            raise CorruptIndexError(
                path, label,
                f"sequence gap: record carries seqno {seqno}, "
                f"expected {expected}",
            )
        result.records.append(
            WalRecord(int(rectype), int(seqno), payload[_PREFIX.size:],
                      pos, end)
        )
        expected += 1
        pos = end
        result.good_size = pos
    return result


def _write_fresh(path, base_seqno):
    """Atomically (re)create ``path`` as an empty log with ``base_seqno``."""
    dest_dir = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=dest_dir, prefix=".wal-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(_HEADER.pack(_MAGIC, _VERSION, int(base_seqno)))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    dir_fd = os.open(dest_dir, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


class WriteAheadLog:
    """Append-only durable log of index mutations.

    Opening scans and verifies the whole file: a torn tail is truncated
    away (recorded as the ``durability.torn_tail`` counter) and the
    surviving records are exposed as :attr:`last_scan` for replay;
    mid-log corruption raises :class:`CorruptIndexError`. A missing file
    is created empty.

    Parameters
    ----------
    path:
        The log file. Created (atomically) when absent.
    fsync:
        Whether :meth:`append` fsyncs after every record (default). With
        ``False`` records are flushed to the OS but survive only process
        crashes, not power loss — the classical durability/throughput
        trade.
    fault_injector:
        Optional :class:`repro.reliability.FaultInjector` consulted at
        sites ``"wal_append"`` and ``"wal_fsync"`` (see module docstring).
    metrics:
        A :class:`repro.obs.MetricsRegistry` for the ``durability.*``
        counters; a private registry is created when omitted.
    """

    def __init__(self, path, *, fsync=True, fault_injector=None,
                 metrics=None):
        self.path = os.fspath(path)
        self.fsync = bool(fsync)
        self.fault_injector = fault_injector
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._failed = False
        if not os.path.exists(self.path):
            _write_fresh(self.path, base_seqno=0)
        result = scan_log(self.path)
        if result.torn:
            self.metrics.counter("durability.torn_tail").inc()
            with open(self.path, "r+b") as fh:
                fh.truncate(result.good_size)
                fh.flush()
                os.fsync(fh.fileno())
        self.last_scan = result
        self._next_seqno = result.next_seqno
        self._fh = open(self.path, "ab")

    @property
    def next_seqno(self):
        """Sequence number the next appended record will carry."""
        return self._next_seqno

    def append(self, rectype, body):
        """Durably append one record; returns its sequence number.

        Raises :class:`TransientIOError` when a fault rule fires (the
        log then refuses further appends until reopened — a simulated
        crash leaves a torn tail for :func:`scan_log` to repair).
        """
        if rectype not in RECORD_TYPES:
            raise ValueError(f"unknown record type {rectype}")
        if self._failed:
            raise TransientIOError(
                "wal_append",
                detail="log is in a failed state; reopen to recover",
            )
        seqno = self._next_seqno
        payload = _PREFIX.pack(rectype, seqno) + bytes(body)
        frame = _FRAME.pack(len(payload), _crc(payload)) + payload
        injector = self.fault_injector
        if injector is not None:
            try:
                injector.check("wal_append")
            except TransientIOError as exc:
                # Simulated kill mid-record: a deterministic prefix of
                # the frame reaches the file, then the "process dies".
                cut = (exc.op * 7919) % len(frame)
                self._fh.write(frame[:cut])
                self._fh.flush()
                with contextlib.suppress(OSError):
                    os.fsync(self._fh.fileno())
                self._failed = True
                raise
        self._fh.write(frame)
        self._fh.flush()
        if injector is not None:
            try:
                injector.check("wal_fsync")
            except TransientIOError:
                # The record is in the OS page cache but not durable;
                # whether it survives is the crash's coin to flip.
                self._failed = True
                raise
        if self.fsync:
            os.fsync(self._fh.fileno())
        self.metrics.counter("durability.wal_appends").inc()
        self._next_seqno += 1
        return seqno

    def reset(self, base_seqno=None):
        """Atomically rotate to a fresh empty log (after a checkpoint).

        The new file's ``base_seqno`` defaults to :attr:`next_seqno`, so
        the global record numbering continues across the rotation.
        """
        if base_seqno is None:
            base_seqno = self._next_seqno
        self._fh.close()
        _write_fresh(self.path, base_seqno)
        self._fh = open(self.path, "ab")
        self._next_seqno = int(base_seqno)
        self._failed = False
        self.last_scan = ScanResult(base_seqno=int(base_seqno))

    def close(self):
        """Close the underlying file handle (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __repr__(self):
        return (f"WriteAheadLog({self.path!r}, fsync={self.fsync}, "
                f"next_seqno={self._next_seqno})")


# -- record body codecs ------------------------------------------------------

def encode_insert(start_handle, rows):
    """Body of an :data:`INSERT` record: contiguous handles + raw rows."""
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    return _INSERT_HEAD.pack(int(start_handle), rows.shape[0],
                             rows.shape[1]) + rows.tobytes()


def decode_insert(body):
    """Inverse of :func:`encode_insert`: ``(start_handle, rows)``."""
    if len(body) < _INSERT_HEAD.size:
        raise ValueError("insert record body is too short")
    start, count, dim = _INSERT_HEAD.unpack_from(body, 0)
    raw = body[_INSERT_HEAD.size:]
    if len(raw) != count * dim * 8:
        raise ValueError(
            f"insert record claims {count}x{dim} float64 rows "
            f"but carries {len(raw)} bytes"
        )
    rows = np.frombuffer(raw, dtype=np.float64).reshape(count, dim)
    return int(start), rows


def encode_delete(handles):
    """Body of a :data:`DELETE` record: an int64 handle array."""
    handles = np.ascontiguousarray(handles, dtype=np.int64)
    return _DELETE_HEAD.pack(handles.size) + handles.tobytes()


def decode_delete(body):
    """Inverse of :func:`encode_delete`: the int64 handle array."""
    if len(body) < _DELETE_HEAD.size:
        raise ValueError("delete record body is too short")
    (count,) = _DELETE_HEAD.unpack_from(body, 0)
    raw = body[_DELETE_HEAD.size:]
    if len(raw) != count * 8:
        raise ValueError(
            f"delete record claims {count} handles "
            f"but carries {len(raw)} bytes"
        )
    return np.frombuffer(raw, dtype=np.int64).copy()


def encode_meta(meta):
    """Body of a checkpoint marker: a JSON object."""
    return json.dumps(meta, sort_keys=True).encode("utf-8")


def decode_meta(body):
    """Inverse of :func:`encode_meta`."""
    return json.loads(body.decode("utf-8"))
