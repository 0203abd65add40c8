"""The 2-stable (Gaussian random projection) LSH family for Euclidean space.

This is the family C2LSH is built on (Datar et al., SoCG 2004)::

    h_{a,b}(o) = floor((a . o + b) / w)

with ``a`` a d-dimensional standard Gaussian vector and ``b`` uniform on
``[0, w)``. Its bucket ids are *rehashable*: merging ``R`` consecutive base
buckets realizes the hash function at search radius ``R``, which is exactly
C2LSH's virtual rehashing.
"""

from __future__ import annotations

import numpy as np

from ..kernels import euclidean_distances
from .family import LSHFamily, LSHFunctions
from .probability import choose_w, pstable_collision_probability

__all__ = ["PStableFamily", "PStableFunctions"]


class PStableFunctions(LSHFunctions):
    """A batch of ``m`` quantized Gaussian projections sharing one width."""

    rehashable = True

    def __init__(self, projections, offsets, w):
        projections = np.asarray(projections, dtype=np.float64)
        offsets = np.asarray(offsets, dtype=np.float64)
        if projections.ndim != 2:
            raise ValueError("projections must have shape (dim, m)")
        if offsets.shape != (projections.shape[1],):
            raise ValueError("offsets must have shape (m,)")
        if w <= 0:
            raise ValueError(f"bucket width w must be positive, got {w}")
        self._projections = projections
        self._offsets = offsets
        self.w = float(w)
        self.dim = projections.shape[0]
        self.m = projections.shape[1]

    def project(self, points):
        """Raw (unquantized) projections ``a . o + b``, shape ``(n, m)``.

        Exposed separately because the query-aware extension
        (:class:`repro.core.qalsh.QALSH`) counts collisions on raw
        projections instead of pre-quantized buckets.
        """
        arr, single = self._as_matrix(points, self.dim)
        proj = arr @ self._projections + self._offsets
        return proj[0] if single else proj

    def hash(self, points):
        """Quantize projections into integer bucket ids at base radius."""
        proj = self.project(points)
        proj /= self.w  # in place: one float64 (n, m) array, not three
        return np.floor(proj, out=proj).astype(np.int64)


class PStableFamily(LSHFamily):
    """Factory/theory object for the Euclidean p-stable family.

    Parameters
    ----------
    dim:
        Dimensionality of the data.
    w:
        Bucket width. When omitted, ``w`` is chosen to minimize the quality
        exponent ``rho`` for the given approximation ratio ``c``
        (see :func:`repro.hashing.probability.choose_w`).
    c:
        Approximation ratio used only for the default ``w`` choice.
    """

    metric = "euclidean"

    def __init__(self, dim, w=None, c=2.0):
        if dim < 1:
            raise ValueError(f"dim must be a positive integer, got {dim}")
        self.dim = int(dim)
        self.w = float(w) if w is not None else choose_w(c)
        if self.w <= 0:
            raise ValueError(f"bucket width w must be positive, got {self.w}")

    def sample(self, m, rng):
        m = self._check_m(m)
        projections = rng.standard_normal((self.dim, m))
        offsets = rng.uniform(0.0, self.w, size=m)
        return PStableFunctions(projections, offsets, self.w)

    def collision_probability(self, s):
        return pstable_collision_probability(s, self.w)

    def distance(self, points, query):
        # A fixed fold-tree reduction: distance bits do not depend on
        # numpy's own summation order (see repro.kernels).
        return euclidean_distances(points, query)

    def __repr__(self):
        return f"PStableFamily(dim={self.dim}, w={self.w:.4g})"
