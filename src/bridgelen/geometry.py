"""Periodic point sets and unit-cell shape parameters.

Conventions used throughout the package:

- basis vectors are the *rows* of an ``(n, n)`` float array, so a fractional
  coordinate vector ``f`` maps to Cartesian space as ``f @ vectors``;
- fractional coordinates are canonicalized into ``[0, 1)``;
- all public types are immutable after construction and safe to share
  between threads; the operations here are pure functions.

The cell scalars computed by :func:`cell_metrics` bound the bridge-length
computation: ``r_upper = max(b, d/2)`` is an upper bound on the bridge
length of any set with this cell, and the aspect ratio ``r_upper / h``
bounds how many shells of neighbouring cells the edge stream must visit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateCell, InvalidScale

#: |det| below DET_FLOOR * b**n is treated as singular.
DET_FLOOR = 1e-12

#: Default tolerance (fractional, wrap-aware) below which two motif points
#: are considered coincident; see :func:`coincident`.
MOTIF_DEDUP_TOL = 1e-8

#: Practical cap on the dimension; the algorithms are dimension-generic.
MAX_DIM = 8


def row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis.

    One fixed reduction (square, sum, sqrt) is used for every
    length-critical norm in the package, so quantities that are equal in
    exact arithmetic (for example a bridge length attaining the cell upper
    bound) stay bitwise equal instead of differing by an ulp across BLAS
    code paths.
    """
    a = np.asarray(a, dtype=float)
    return np.sqrt((a * a).sum(axis=-1))


def wrap_fractional(points: np.ndarray) -> np.ndarray:
    """Reduce fractional coordinates into [0, 1).

    x - floor(x) can round up to exactly 1.0 for tiny negative x; those are
    folded back to 0.0 so the half-open contract really holds.
    """
    out = points - np.floor(points)
    return np.where(out >= 1.0, 0.0, out)


def wrapped_delta(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Componentwise fractional difference p - q mapped into [-0.5, 0.5)."""
    d = p - q
    return d - np.round(d)


def coincident(p: np.ndarray, points: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the rows of ``points`` that are the same site as ``p``.

    Two fractional points are the same site when their wrap-aware
    difference has Euclidean norm below ``tol``.  The unit is fractional,
    not length: CIF files print sites to a fixed number of fractional
    decimals, so the rounding that separates a site on a special position
    from its own symmetry image is a fraction of the cell.  A fractional
    test also gives the same answer for a set and any scaled copy of it,
    so a change of length unit never merges or splits sites.
    """
    return row_norms(wrapped_delta(p, points)) < tol


@dataclass(frozen=True, eq=False)
class LatticeBasis:
    """Square matrix of lattice basis vectors (rows), in length units."""

    vectors: np.ndarray

    def __post_init__(self):
        arr = np.array(self.vectors, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"basis must be a square matrix, got shape {arr.shape}")
        n = arr.shape[0]
        if not 1 <= n <= MAX_DIM:
            raise ValueError(f"dimension must be in [1, {MAX_DIM}], got {n}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("basis entries must be finite")
        b = float(np.max(row_norms(arr)))
        det = float(np.linalg.det(arr)) if b > 0 else 0.0
        if b == 0.0 or abs(det) < DET_FLOOR * b**n:
            raise DegenerateCell(
                f"basis is singular or near-singular (|det|={abs(det):.3e})"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "vectors", arr)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    def __eq__(self, other):
        return isinstance(other, LatticeBasis) and np.array_equal(
            self.vectors, other.vectors
        )


@dataclass(frozen=True, eq=False)
class Motif:
    """Finite point set inside one unit cell, in fractional coordinates.

    Coordinates are reduced mod 1 on construction.  Two points closer than
    ``dedup_tol`` are rejected, and the first such pair ``(i, j)`` in
    row-major order is reported.  The tolerance is a wrap-aware distance in
    fractional coordinates, so whether a motif is accepted does not depend
    on the size of the cell it is placed in (see :func:`coincident`).
    """

    points: np.ndarray
    dedup_tol: float = MOTIF_DEDUP_TOL

    def __post_init__(self):
        arr = np.array(self.points, dtype=float)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValueError("motif must contain at least one point")
        if not np.all(np.isfinite(arr)):
            raise ValueError("motif coordinates must be finite")
        arr = wrap_fractional(arr)
        for i in range(arr.shape[0] - 1):
            hits = np.flatnonzero(coincident(arr[i], arr[i + 1 :], self.dedup_tol))
            if hits.size:
                j = i + 1 + int(hits[0])
                raise ValueError(
                    f"motif points {i} and {j} coincide within {self.dedup_tol}"
                )
        arr.setflags(write=False)
        object.__setattr__(self, "points", arr)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __eq__(self, other):
        return isinstance(other, Motif) and np.array_equal(self.points, other.points)


@dataclass(frozen=True, eq=False)
class PeriodicSet:
    """A lattice plus a motif: the union of all lattice translates of the
    motif points."""

    basis: LatticeBasis
    motif: Motif

    def __post_init__(self):
        if self.basis.dim != self.motif.dim:
            raise ValueError(
                f"basis dimension {self.basis.dim} != motif dimension {self.motif.dim}"
            )

    @property
    def dim(self) -> int:
        return self.basis.dim

    @property
    def motif_size(self) -> int:
        return self.motif.size

    @cached_property
    def cartesian_motif(self) -> np.ndarray:
        pos = self.motif.points @ self.basis.vectors
        pos.setflags(write=False)
        return pos

    def cartesian_position(self, motif_index: int, translation) -> np.ndarray:
        """Cartesian position of motif point ``motif_index`` translated by an
        integer lattice vector."""
        if not 0 <= motif_index < self.motif_size:
            raise IndexError(
                f"motif index {motif_index} out of range [0, {self.motif_size})"
            )
        t = np.asarray(translation, dtype=float)
        if t.shape != (self.dim,):
            raise ValueError(f"translation must have {self.dim} entries")
        return (self.motif.points[motif_index] + t) @ self.basis.vectors

    def scale(self, c: float) -> "PeriodicSet":
        """The set with all Cartesian distances multiplied by ``c > 0``."""
        if not (np.isfinite(c) and c > 0):
            raise InvalidScale(f"scale factor must be positive, got {c}")
        return PeriodicSet(LatticeBasis(self.basis.vectors * c), self.motif)

    def __eq__(self, other):
        return (
            isinstance(other, PeriodicSet)
            and self.basis == other.basis
            and self.motif == other.motif
        )


@dataclass(frozen=True)
class CellMetrics:
    """Shape scalars of a unit cell.

    b        longest basis vector
    d        longest cell diagonal
    vol      cell volume
    h        shortest cell height
    r_upper  max(b, d/2); upper bound on the bridge length
    aspect   r_upper / h; bounds the number of shells ever enumerated
    heights  height of the cell over each facet (see facet_heights)
    """

    b: float
    d: float
    vol: float
    h: float
    r_upper: float
    aspect: float
    heights: tuple[float, ...]


def facet_volumes(basis: LatticeBasis) -> np.ndarray:
    """(n-1)-volume of each facet: entry i spans all basis vectors but v_i.

    Computed as sqrt(det(Gram)) of the remaining vectors; for n=1 the empty
    facet has volume 1 by convention.
    """
    v = basis.vectors
    n = basis.dim
    out = np.empty(n)
    for i in range(n):
        rest = np.delete(v, i, axis=0)
        gram = rest @ rest.T
        out[i] = np.sqrt(max(float(np.linalg.det(gram)), 0.0)) if n > 1 else 1.0
    return out


def facet_heights(basis: LatticeBasis) -> np.ndarray:
    """Height of the cell over each facet: h_i = vol / facet_volume_i.

    h_i is the spacing of the lattice hyperplane family normal to facet i,
    i.e. the minimum Cartesian advance per unit step of fractional
    coordinate i.
    """
    vol = abs(float(np.linalg.det(basis.vectors)))
    return vol / facet_volumes(basis)


def cell_metrics(basis: LatticeBasis) -> CellMetrics:
    """All cell-derived scalars used by the bridge algorithm's bounds."""
    v = basis.vectors
    n = basis.dim
    b = float(np.max(row_norms(v)))
    # Diagonals are all signed sums of basis vectors; fixing the first sign
    # halves the (symmetric) enumeration.
    d = 0.0
    rest = v[1:]
    for signs in itertools.product((1.0, -1.0), repeat=n - 1):
        diag = v[0] + (np.asarray(signs) @ rest if n > 1 else 0.0)
        d = max(d, float(row_norms(diag)))
    vol = abs(float(np.linalg.det(v)))
    heights = facet_heights(basis)
    h = float(np.min(heights))
    r_upper = max(b, d / 2.0)
    return CellMetrics(
        b=b,
        d=d,
        vol=vol,
        h=h,
        r_upper=r_upper,
        aspect=r_upper / h,
        heights=tuple(heights.tolist()),
    )
