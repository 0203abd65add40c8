"""The 1-stable (Cauchy) LSH family for Manhattan (l1) distance.

Datar et al.'s p-stable construction instantiated at p = 1::

    h_{a,b}(o) = floor((a . o + b) / w)

with each entry of ``a`` drawn from the standard Cauchy distribution. For
two points at l1 distance ``s``, the projection difference is Cauchy with
scale ``s``, giving the collision probability::

    p(s) = 2*atan(w/s)/pi - ln(1 + (w/s)^2) / (pi * (w/s))

The bucket ids are rehashable exactly like the Gaussian family's, so C2LSH
runs over l1 **with virtual rehashing intact** — the l_p generality the
dynamic-collision-counting line of work (C2LSH -> QALSH -> LazyLSH)
develops. This module is an extension beyond the 2012 paper (which
evaluates l2 only); it is exercised by the family-independence tests and
the extensions benchmark.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize_scalar

from ..kernels import manhattan_distances
from .family import LSHFamily, LSHFunctions

__all__ = ["CauchyFamily", "CauchyFunctions",
           "cauchy_collision_probability", "choose_w_l1"]


def cauchy_collision_probability(s, w=1.0):
    """Collision probability of the quantized Cauchy projection at l1
    distance ``s`` (vectorized)."""
    if w <= 0:
        raise ValueError(f"bucket width w must be positive, got {w}")
    s_arr = np.asarray(s, dtype=np.float64)
    if np.any(s_arr < 0):
        raise ValueError("distances must be non-negative")
    scalar = s_arr.ndim == 0
    s_arr = np.atleast_1d(s_arr)
    p = np.ones_like(s_arr)
    positive = s_arr > 0
    t = w / s_arr[positive]
    p[positive] = (2.0 * np.arctan(t) / math.pi
                   - np.log1p(t * t) / (math.pi * t))
    np.clip(p, 0.0, 1.0, out=p)
    if scalar:
        return float(p[0])
    return p


def choose_w_l1(c, lo=0.05, hi=40.0):
    """Bucket width maximizing the gap ``p1 - p2`` for the l1 family.

    Unlike the Gaussian family, the Cauchy family's rho decreases
    monotonically in ``w`` (its infimum ``1/c`` is only approached as every
    bucket swallows the whole dataset), so rho-minimization has no interior
    optimum. For C2LSH the right objective is different anyway: the table
    count ``m`` scales as ``1/(p1 - p2)**2`` (Hoeffding exponents), so the
    gap-maximizing width directly minimizes the index size.
    """
    if c <= 1:
        raise ValueError(f"approximation ratio c must exceed 1, got {c}")

    def objective(w):
        p1 = cauchy_collision_probability(1.0, w)
        p2 = cauchy_collision_probability(float(c), w)
        return p2 - p1  # minimize the negative gap

    result = minimize_scalar(objective, bounds=(lo, hi), method="bounded")
    return float(result.x)


class CauchyFunctions(LSHFunctions):
    """A batch of ``m`` quantized Cauchy projections sharing one width."""

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
        """Raw (unquantized) projections ``a . o + b``, shape ``(n, m)``."""
        arr, single = self._as_matrix(points, self.dim)
        proj = arr @ self._projections + self._offsets
        return proj[0] if single else proj

    def hash(self, points):
        """Quantize projections into integer bucket ids at base radius."""
        proj = self.project(points)
        return np.floor(proj / self.w).astype(np.int64)


class CauchyFamily(LSHFamily):
    """Factory/theory object for the Manhattan-distance (l1) family."""

    metric = "manhattan"

    def __init__(self, dim, w=None, c=2.0):
        if dim < 1:
            raise ValueError(f"dim must be a positive integer, got {dim}")
        self.dim = int(dim)
        self.w = float(w) if w is not None else choose_w_l1(c)
        if self.w <= 0:
            raise ValueError(f"bucket width w must be positive, got {self.w}")

    def sample(self, m, rng):
        m = self._check_m(m)
        projections = rng.standard_cauchy((self.dim, m))
        offsets = rng.uniform(0.0, self.w, size=m)
        return CauchyFunctions(projections, offsets, self.w)

    def collision_probability(self, s):
        return cauchy_collision_probability(s, self.w)

    def distance(self, points, query):
        # A fixed fold-tree reduction: distance bits do not depend on
        # numpy's own summation order (see repro.kernels).
        return manhattan_distances(points, query)

    def __repr__(self):
        return f"CauchyFamily(dim={self.dim}, w={self.w:.4g})"
