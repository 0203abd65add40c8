"""Save/load fitted C2LSH and QALSH indexes, crash-safely.

A C2LSH index is fully determined by its data, its sampled hash functions
(projection matrix, offsets, bucket width), its parameters, its distance
unit and its data-file layout, so persistence is one compressed ``.npz``
file. The sorted hash tables are rebuilt on load (an ``O(n m log n)``
argsort — cheaper to redo than to store, and bit-identical because
hashing is deterministic).

Two reliability guarantees (format version 2):

* **Atomic saves.** The container is written to a temporary file in the
  destination directory, flushed and ``fsync``-ed, then moved into place
  with ``os.replace`` (followed by a directory fsync). A crash or fault
  mid-save leaves any previous index file untouched; no reader can ever
  observe a half-written container.
* **Verified loads.** Every array carries a CRC32 checksum, dtype and
  shape in an embedded JSON manifest (the ``__manifest__`` member).
  Loading re-hashes each array and raises
  :class:`repro.reliability.CorruptIndexError` — a ``ValueError``
  subclass — naming the damaged section when anything disagrees: a
  truncated zip, an unparsable manifest, a version or kind mismatch, or
  a flipped byte inside a specific array.

Only the default Euclidean (p-stable) family is supported; custom-family
indexes carry user callables that have no stable serialized form.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import zlib

import numpy as np

from ..hashing.pstable import PStableFamily, PStableFunctions
from ..reliability.errors import CorruptIndexError
from .c2lsh import C2LSH
from .params import C2LSHParams

__all__ = ["save_c2lsh", "load_c2lsh", "save_qalsh", "load_qalsh",
           "save_arrays", "load_arrays", "CorruptIndexError"]

_FORMAT_VERSION = 2
_MANIFEST = "__manifest__"


def _crc32(array):
    """CRC32 of an array's raw bytes (C-contiguous view)."""
    return zlib.crc32(np.ascontiguousarray(array).tobytes()) & 0xFFFFFFFF


def _build_manifest(kind, arrays):
    """Embed per-array checksums + metadata as a uint8 JSON blob."""
    entries = {
        name: {
            "crc32": _crc32(np.asarray(value)),
            "dtype": str(np.asarray(value).dtype),
            "shape": list(np.asarray(value).shape),
        }
        for name, value in arrays.items()
    }
    manifest = {
        "format_version": _FORMAT_VERSION,
        "kind": kind,
        "arrays": entries,
    }
    payload = json.dumps(manifest, sort_keys=True).encode("utf-8")
    return np.frombuffer(payload, dtype=np.uint8)


def _atomic_save(path, arrays):
    """Write ``arrays`` as an npz at ``path`` via tempfile + atomic rename.

    Mirrors ``np.savez``'s convention of appending ``.npz`` to paths that
    lack the suffix. Returns the final path actually written.
    """
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    dest_dir = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=dest_dir, prefix=".index-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez_compressed(handle, **arrays)
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
    return path


def _save_index(path, kind, arrays):
    """Stamp version/kind, attach the manifest, and save atomically."""
    arrays = dict(arrays)
    arrays["format_version"] = _FORMAT_VERSION
    arrays["kind"] = kind
    arrays[_MANIFEST] = _build_manifest(kind, arrays)
    return _atomic_save(path, arrays)


def _read_member(blob, path, name):
    """Decode one npz member, mapping failures to CorruptIndexError."""
    try:
        return blob[name]
    except KeyError:
        raise CorruptIndexError(path, name, "array is missing") from None
    except Exception as exc:  # truncated/undecodable zip member
        raise CorruptIndexError(path, name, f"undecodable: {exc}") from exc


def _load_verified(path, expected_kind):
    """Open, verify and return ``{name: array}`` for a v2 index file.

    Verification order: container readability, manifest, format version,
    kind, then per-array dtype/shape/CRC32. The first disagreement raises
    :class:`CorruptIndexError` naming the failing section; a missing file
    propagates as ``FileNotFoundError`` (absence is not corruption).
    """
    # Opened here, not by np.load: NpzFile takes over the file object
    # before zipfile rejects a damaged archive, and would leak it.
    fh = None
    try:
        fh = open(os.fspath(path), "rb")
        blob = np.load(fh)
    except FileNotFoundError:
        raise
    except Exception as exc:
        if fh is not None:
            fh.close()
        raise CorruptIndexError(path, "container",
                                f"unreadable npz: {exc}") from exc
    with fh, blob:
        if _MANIFEST not in blob.files:
            if "format_version" in blob.files:
                version = int(_read_member(blob, path, "format_version"))
                raise CorruptIndexError(
                    path, "format_version",
                    f"unsupported index file version {version} "
                    f"(expected {_FORMAT_VERSION})",
                )
            raise CorruptIndexError(path, "manifest",
                                    "no __manifest__ member")
        try:
            raw = _read_member(blob, path, _MANIFEST)
            manifest = json.loads(bytes(bytearray(raw)).decode("utf-8"))
            version = int(manifest["format_version"])
            kind = str(manifest["kind"])
            entries = dict(manifest["arrays"])
        except CorruptIndexError:
            raise
        except Exception as exc:
            raise CorruptIndexError(path, "manifest",
                                    f"unparsable manifest: {exc}") from exc
        if version != _FORMAT_VERSION:
            raise CorruptIndexError(
                path, "format_version",
                f"unsupported index file version {version} "
                f"(expected {_FORMAT_VERSION})",
            )
        stored_version = int(_read_member(blob, path, "format_version"))
        if stored_version != version:
            raise CorruptIndexError(
                path, "format_version",
                f"stored version {stored_version} does not match "
                f"manifest version {version}",
            )
        if kind != expected_kind:
            raise CorruptIndexError(
                path, "kind",
                f"file holds a {kind!r} index, expected {expected_kind!r}",
            )
        arrays = {}
        for name, meta in sorted(entries.items()):
            array = _read_member(blob, path, name)
            if str(array.dtype) != meta["dtype"]:
                raise CorruptIndexError(
                    path, name,
                    f"dtype {array.dtype} != recorded {meta['dtype']}",
                )
            if list(array.shape) != list(meta["shape"]):
                raise CorruptIndexError(
                    path, name,
                    f"shape {list(array.shape)} != recorded {meta['shape']}",
                )
            if _crc32(array) != int(meta["crc32"]):
                raise CorruptIndexError(
                    path, name, "CRC32 checksum mismatch")
            arrays[name] = array
    return arrays


def save_arrays(path, kind, arrays):
    """Save a verified v2 array container of the given ``kind``.

    The checkpoint section of the persistence format: the same atomic
    write (tempfile + fsync + ``os.replace`` + directory fsync) and the
    same embedded CRC32/dtype/shape manifest as the index savers, but for
    an arbitrary ``{name: array}`` mapping. :mod:`repro.durability` uses
    this for :class:`~repro.durability.DurableUpdatableC2LSH` checkpoint
    snapshots; ``kind`` is recorded in the manifest and re-checked by
    :func:`load_arrays` so containers cannot be confused across callers.
    Returns the path written (``.npz`` appended when missing).
    """
    return _save_index(path, str(kind), arrays)


def load_arrays(path, kind):
    """Load and verify a container written by :func:`save_arrays`.

    Every array is checked against its recorded CRC32/dtype/shape and the
    stored ``kind`` must match; any disagreement raises
    :class:`CorruptIndexError` naming the damaged section. Returns the
    ``{name: array}`` mapping.
    """
    return _load_verified(path, str(kind))


def _design_arrays(index):
    """Members recording a fitted :class:`C2LSH`'s or
    :class:`~repro.sharding.ShardedC2LSH`'s rows, design and data-file
    layout; both persisters write them and :func:`_design_from` reads
    them back."""
    if not isinstance(index._family, PStableFamily):
        raise TypeError(
            "only indexes over the default PStableFamily can be saved, "
            f"got {type(index._family).__name__}"
        )
    p = index.params
    return {
        "data": np.asarray(index._data),
        "projections": index._funcs._projections,
        "offsets": index._funcs._offsets,
        "funcs_w": index._funcs.w,
        "family_w": index._family.w,
        "scale": index._scale,
        "params": np.array([p.n, p.c, p.w, p.p1, p.p2, p.alpha, p.m, p.l,
                            p.beta, p.delta]),
        "data_layout": np.array(index._data_layout),
    }


def _design_from(blob):
    """``(data, (family, funcs, params, scale), layout)`` from a verified
    blob; files saved before the layout was recorded hold the default
    ``"scattered"`` data file."""
    data = np.ascontiguousarray(blob["data"])
    raw = blob["params"]
    params = C2LSHParams(
        n=int(raw[0]), c=int(raw[1]), w=float(raw[2]), p1=float(raw[3]),
        p2=float(raw[4]), alpha=float(raw[5]), m=int(raw[6]), l=int(raw[7]),
        beta=float(raw[8]), delta=float(raw[9]),
    )
    family = PStableFamily(data.shape[1], w=float(blob["family_w"]))
    funcs = PStableFunctions(blob["projections"], blob["offsets"],
                             float(blob["funcs_w"]))
    layout = str(blob.get("data_layout", "scattered"))
    return data, (family, funcs, params, float(blob["scale"])), layout


def save_c2lsh(index, path):
    """Persist a fitted :class:`C2LSH` index to ``path`` (``.npz``).

    The write is atomic: a crash mid-save leaves any existing file at
    ``path`` intact. Returns the path written (``.npz`` appended when
    missing, matching ``np.savez``).
    """
    if not index.is_fitted:
        raise ValueError("cannot save an unfitted index")
    return _save_index(path, "c2lsh", {
        **_design_arrays(index),
        "incremental": index._incremental,
        "use_t1": index._use_t1,
    })


def load_c2lsh(path, page_manager=None):
    """Load an index previously written by :func:`save_c2lsh`.

    Every array is verified against its recorded CRC32/dtype/shape;
    damage raises :class:`CorruptIndexError` naming the bad section.
    ``page_manager`` may be supplied to re-enable I/O accounting (the
    rebuild of the hash tables is charged as index writes, as on a fresh
    ``fit``).
    """
    blob = _load_verified(path, "c2lsh")
    data, design, layout = _design_from(blob)
    _, _, params, scale = design
    index = C2LSH(c=params.c, page_manager=page_manager,
                  base_radius=scale, data_layout=layout,
                  incremental=bool(blob["incremental"]),
                  use_t1=bool(blob["use_t1"]))
    return index._assemble(data, *design)


def save_qalsh(index, path):
    """Persist a fitted :class:`repro.core.qalsh.QALSH` index (``.npz``).

    Atomic and checksummed exactly like :func:`save_c2lsh`.
    """
    if not index.is_fitted:
        raise ValueError("cannot save an unfitted index")
    return _save_index(path, "qalsh", {
        "data": index._data,
        "projections": index._funcs._projections,
        "offsets": index._funcs._offsets,
        "funcs_w": index._funcs.w,
        "scale": index._scale,
        "scalars": np.array([index.c, index.w, index.p1, index.p2,
                             index.alpha, index.m, index.l, index.beta,
                             index.delta]),
    })


def load_qalsh(path, page_manager=None):
    """Load an index previously written by :func:`save_qalsh`.

    Verified like :func:`load_c2lsh`; damage raises
    :class:`CorruptIndexError`.
    """
    from .qalsh import QALSH

    blob = _load_verified(path, "qalsh")
    data = np.ascontiguousarray(blob["data"])
    projections = blob["projections"]
    offsets = blob["offsets"]
    funcs_w = float(blob["funcs_w"])
    scale = float(blob["scale"])
    raw = blob["scalars"]

    index = QALSH(c=float(raw[0]), w=float(raw[1]), beta=float(raw[7]),
                  delta=float(raw[8]), page_manager=page_manager,
                  base_radius=scale)
    index.p1, index.p2 = float(raw[2]), float(raw[3])
    index.alpha = float(raw[4])
    index.m, index.l = int(raw[5]), int(raw[6])
    index.beta = float(raw[7])
    index._scale = scale
    index._data = data
    index._funcs = PStableFunctions(projections, offsets, funcs_w)
    proj = index._funcs.project(data / scale)
    index._order = np.argsort(proj, axis=0).T.copy()
    index._sorted_proj = np.take_along_axis(
        proj, index._order.T, axis=0
    ).T.copy()
    if page_manager is not None:
        index._object_pages = max(
            1, page_manager.pages_for(1, data.shape[1] * 8))
        page_manager.charge_write(
            index.m * page_manager.pages_for(data.shape[0], 12)
            + page_manager.pages_for(data.shape[0], data.shape[1] * 8)
        )
    return index
