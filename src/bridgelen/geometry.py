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
bounds how many shells of neighbouring cells the edge stream must visit;
:func:`stacked_cell_metrics` computes them for several cells in one pass.
:func:`reduce_basis` finds an LLL-reduced basis of the same lattice, whose
aspect is often far smaller than that of a sheared input cell, with the
exact unimodular change of basis and its inverse, and
:func:`change_basis` builds it exactly.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DegenerateCell, InvalidScale

#: |det| below DET_FLOOR * b**n is treated as singular.
DET_FLOOR = 1e-12

#: Default tolerance (fractional, wrap-aware) below which two motif points
#: are considered coincident; see :func:`coincident`.
MOTIF_DEDUP_TOL = 1e-8

#: Practical cap on the dimension; the algorithms are dimension-generic.
MAX_DIM = 8

#: Candidate pairs per block of the motif check, so its temporaries hold
#: _PAIRS * n floats whatever the tolerance.
_PAIRS = 1 << 14

#: Lovasz constant of :func:`reduce_basis`.
LLL_DELTA = 0.75

#: Tolerance of :func:`reduce_basis` on its two conditions, so that a
#: coefficient of exactly 1/2 (a hexagonal cell) or an exact Lovasz
#: equality, computed a few ulps off, is taken as reduced instead of making
#: the reduction step back and forth.
_LLL_TOL = 1e-9

#: Most steps :func:`reduce_basis` takes; each swap lowers a positive
#: potential, so this is only a guard against rounding.
_LLL_STEPS = 10_000

#: Absolute widening of the motif check's window on the first coordinate,
#: against the rounding of the differences there (a few 1e-16) and for a
#: difference whose square underflows (below 1e-154).
_WINDOW_SLACK = 1e-12


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


def coincident(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """``(len(a), len(b))`` mask of the pairs of rows that are the same site.

    Two fractional points are the same site when their wrap-aware
    difference has Euclidean norm below ``tol``; entry ``[i, j]`` measures
    ``a[i] - b[j]``.  The unit is fractional, not length: CIF files print
    sites to a fixed number of fractional decimals, so the rounding that
    separates a site on a special position from its own symmetry image is a
    fraction of the cell.  A fractional test also gives the same answer for
    a set and any scaled copy of it, so a change of length unit never
    merges or splits sites.
    """
    return row_norms(wrapped_delta(a[:, None], b[None])) < tol


def check_tolerance(tol: float) -> float:
    """``tol`` itself if it is a finite number above 0, else ValueError.

    A NaN, zero or negative tolerance would make every coincidence test
    false, so exact duplicates would be kept without a word.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be a finite number > 0, got {tol}")
    return tol


@contextmanager
def _float_range(vectors: np.ndarray):
    """Raise DegenerateCell when the cell arithmetic leaves the float range.

    The facet Gram determinants multiply 2(n - 1) basis entries, so Z^3
    scaled past about 1e+-77, or Z^8 past about 1e+-22, overflows them to
    inf or underflows them to 0 or a subnormal.  Any overflow, underflow,
    division by zero or invalid value here rejects the cell (so does a
    nonzero entry below about 1e-154, whose square underflows), before an
    inf, NaN or inexact bound can reach the edge stream.
    """
    try:
        with np.errstate(all="raise"):
            yield
    except ArithmeticError as exc:
        scale = float(np.max(np.abs(vectors)))
        raise DegenerateCell(
            f"cell with basis entries up to {scale:.3e} is outside the "
            f"floating-point range of its metrics ({exc})"
        ) from None


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
        with _float_range(arr):
            b = float(np.max(row_norms(arr)))
            det = float(np.linalg.det(arr)) if b > 0 else 0.0
            floor = DET_FLOOR * b**n
        if b == 0.0 or abs(det) < floor:
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


def _first_coincident_pair(arr: np.ndarray, tol: float):
    """The first pair ``(i, j)``, i < j, in row-major order whose wrap-aware
    difference has ``row_norms(wrapped_delta(arr[i], arr[j])) < tol``, or
    None.

    The computed norm is at least the computed |Delta_0| of the first
    coordinate, unless Delta_0 squared underflows: every summand is a
    square, and sqrt(fl(x * x)) is |x|.  So only the pairs within ``tol``
    on the first axis, across the wrap or not, can pass.  One stable sort
    of that axis finds them as two runs per point: the later points up to
    ``tol`` above it, and those more than ``1 - tol`` above it.  The window
    is ``tol + _WINDOW_SLACK`` wide, so no pair the exact test accepts lies
    outside it, and the exact test runs on these candidates alone, in
    blocks of ``_PAIRS``.
    """
    m = len(arr)
    if m == 1:  # no pairs
        return None
    x = arr[:, 0]
    order = np.argsort(x, kind="stable")
    xs = x[order]
    width = tol + _WINDOW_SLACK
    # sorted point a is near the points at a + 1 .. near[a] - 1, and across
    # the wrap near those from far[a] on
    near = np.searchsorted(xs, xs + width)
    far = np.maximum(np.searchsorted(xs, xs + (1.0 - width), side="right"), near)
    inside = near - np.arange(1, m + 1)
    count = inside + (m - far)
    end = np.cumsum(count)
    firsts = []
    for start in range(0, int(end[-1]), _PAIRS):
        # candidate `index` is the k-th of sorted point a's partners
        index = np.arange(start, min(start + _PAIRS, int(end[-1])))
        a = np.searchsorted(end, index, side="right")
        k = index - (end - count)[a]
        b = np.where(k < inside[a], a + 1 + k, far[a] + k - inside[a])
        i, j = order[a], order[b]
        i, j = np.minimum(i, j), np.maximum(i, j)
        hit = row_norms(wrapped_delta(arr[i], arr[j])) < tol
        if hit.any():
            firsts.append(int((i * m + j)[hit].min()))
    return divmod(min(firsts), m) if firsts else None


@dataclass(frozen=True, eq=False)
class Motif:
    """Finite point set inside one unit cell, in fractional coordinates.

    Coordinates are reduced mod 1 on construction.  Two points closer than
    ``dedup_tol`` are rejected, and the first such pair ``(i, j)`` in
    row-major order is reported.  The tolerance is a wrap-aware distance in
    fractional coordinates, so whether a motif is accepted does not depend
    on the size of the cell it is placed in (see :func:`coincident`), and
    it must be a finite number above 0.  Only the pairs that one sort of
    the first coordinate finds close there are tested; see
    :func:`_first_coincident_pair`.
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
        tol = check_tolerance(self.dedup_tol)
        pair = _first_coincident_pair(arr, tol)
        if pair is not None:
            i, j = pair
            raise ValueError(f"motif points {i} and {j} coincide within {tol}")
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
    heights  height of the cell over each facet, vol / facet volume: the
             spacing of the lattice planes parallel to that facet
    """

    b: float
    d: float
    vol: float
    h: float
    r_upper: float
    aspect: float
    heights: tuple[float, ...]


@lru_cache(maxsize=None)
def _facet_rows(n: int) -> np.ndarray:
    """(n, n-1) row indices: row i lists every basis vector but v_i."""
    rows = np.array([[j for j in range(n) if j != i] for i in range(n)], dtype=np.intp)
    rows = rows.reshape(n, n - 1)
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=None)
def _diagonal_signs(n: int) -> np.ndarray:
    """(2^(n-1), 1, n-1) signs of v_1 .. v_(n-1) in each cell diagonal, in
    ``itertools.product`` order; one (1, n-1) row per diagonal, so that the
    stacked product with the basis rounds each diagonal as a vector-matrix
    product does."""
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=n - 1)))
    signs = signs.reshape(2 ** (n - 1), 1, n - 1)
    signs.setflags(write=False)
    return signs


def facet_volumes(vectors: np.ndarray) -> np.ndarray:
    """(n-1)-volume of each facet of each basis in the (..., n, n) stack
    ``vectors``: entry i spans all basis vectors but v_i.

    Computed as sqrt(det(Gram)) of the remaining vectors, all Gram
    matrices in one stacked product and one stacked determinant; for n=1
    the empty facet has volume 1 by convention.
    """
    n = vectors.shape[-1]
    if n == 1:
        return np.ones(vectors.shape[:-1])
    rest = vectors[..., _facet_rows(n), :]
    gram = rest @ rest.swapaxes(-1, -2)
    return np.sqrt(np.maximum(np.linalg.det(gram), 0.0))


def cell_metrics(basis: LatticeBasis) -> CellMetrics:
    """All cell-derived scalars used by the bridge algorithm's bounds."""
    return stacked_cell_metrics(basis.vectors[None])[0]


def stacked_cell_metrics(vectors: np.ndarray) -> list[CellMetrics]:
    """The :func:`cell_metrics` of each basis in the (k, n, n) stack
    ``vectors`` (the rows of valid :class:`LatticeBasis` vectors), in one
    pass of stacked array calls.

    Every call rounds each basis as it would round it alone, so each
    result is the one-cell result bit for bit.  If any basis leaves the
    floating-point range, DegenerateCell names the largest entry of all.
    """
    n = vectors.shape[-1]
    with _float_range(vectors):
        b = np.max(row_norms(vectors), axis=-1)
        # Diagonals are all signed sums of basis vectors; fixing the first sign
        # halves the (symmetric) enumeration.
        signed = (_diagonal_signs(n) @ vectors[:, None, 1:])[:, :, 0]
        diagonals = vectors[:, None, 0] + signed
        d = np.max(row_norms(diagonals), axis=-1)
        vol = np.abs(np.linalg.det(vectors))
        heights = vol[:, None] / facet_volumes(vectors)
    metrics = []
    for b, d, vol, heights in zip(*(a.tolist() for a in (b, d, vol, heights))):
        r_upper = max(b, d / 2.0)
        h = min(heights)
        metrics.append(
            CellMetrics(
                b=b,
                d=d,
                vol=vol,
                h=h,
                r_upper=r_upper,
                aspect=r_upper / h,
                heights=tuple(heights),
            )
        )
    return metrics


def _is_reduced(gram: list) -> bool:
    """Whether the basis with Gram matrix ``gram`` (nested lists) meets
    both LLL conditions, each to a relative ``_LLL_TOL``.

    Gram-Schmidt from the Gram matrix, in Python floats: for the small n
    here it is a few dozen products, cheaper than one array call.  Row k
    of ``dots`` holds <b_k, b*_j> = mu_kj |b*_j|^2.  It squares the
    condition number, which only a basis far from reduced has, and such a
    basis fails the test anyway or is reduced for nothing.
    """
    dots, norm2 = [], []
    delta = LLL_DELTA * (1.0 - _LLL_TOL)
    for k, row in enumerate(gram):
        dots_k = []
        for j in range(k):
            x = row[j]
            for i in range(j):
                x -= dots_k[i] * dots[j][i] / norm2[i]
            if abs(x) > (0.5 + _LLL_TOL) * norm2[j]:
                return False
            dots_k.append(x)
        x = row[k]
        for i in range(k):
            x -= dots_k[i] * dots_k[i] / norm2[i]
        # Lovasz: |b*_k|^2 + mu^2 |b*_k-1|^2 >= delta |b*_k-1|^2
        if k and x + dots_k[-1] ** 2 / norm2[-1] < delta * norm2[-1]:
            return False
        dots.append(dots_k)
        norm2.append(x)
    return True


def _by_length(gram: list) -> list:
    """``gram`` with its rows and columns in order of row length."""
    order = sorted(range(len(gram)), key=lambda i: gram[i][i])
    return [[gram[i][j] for j in order] for i in order]


def reduce_basis(vectors) -> tuple[np.ndarray, np.ndarray]:
    """Unimodular integer U and its inverse, both int64, with the rows of
    ``U @ vectors`` an LLL-reduced basis (delta = 3/4) of the lattice of
    ``vectors``, up to their order.

    The basis is scaled by the power of two of its largest entry first, so
    that its longest vector has length between 1/2 and sqrt(n) and the
    Gram-Schmidt squares neither overflow nor underflow, whatever the
    length unit.  The two LLL conditions, size reduction |mu_kj| <= 1/2
    and the Lovasz condition |b*_k|^2 >= (delta - mu_k,k-1^2) |b*_k-1|^2,
    are tested on the Gram matrix (:func:`_is_reduced`), and again on the
    rows sorted by length if they fail.  A basis that passes gets the
    identity from that test alone: reordering its rows would give the same
    cell.  Otherwise the textbook reduction (Lenstra, Lenstra & Lovasz,
    Math. Ann. 261, 1982) runs on the scaled rows in floats, applying every
    row operation to U as well, and its inverse to U^-1: when row k of U
    loses q times row j, column j of U^-1 gains q times column k, and when
    two rows of U swap, the same two columns of U^-1 swap.  Both are kept
    in Python integers, so they are exact and exactly inverse whatever the
    rounding; only how well ``U @ vectors`` is reduced depends on it.
    """
    basis = np.asarray(vectors, dtype=float)
    n = len(basis)
    basis = np.ldexp(basis, -math.frexp(float(np.abs(basis).max()))[1])
    gram = (basis @ basis.T).tolist()
    if _is_reduced(gram) or _is_reduced(_by_length(gram)):
        eye = np.eye(n, dtype=np.int64)
        return eye, eye
    # Python lists: a few dozen short dot products, cheaper than array
    # calls at this size; U and the columns of U^-1 in Python integers,
    # which cannot overflow
    b = basis.tolist()
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    inverse = [row[:] for row in u]
    star, norm2 = [None] * n, [0.0] * n  # Gram-Schmidt rows, squared norms

    def orthogonalise(k):
        v = b[k]
        for j in range(k):
            c = sum(x * y for x, y in zip(star[j], v)) / norm2[j]
            v = [x - c * y for x, y in zip(v, star[j])]
        star[k], norm2[k] = v, sum(x * x for x in v)

    orthogonalise(0)
    k, steps = 1, 0
    while k < n and steps < _LLL_STEPS:
        steps += 1
        for j in range(k - 1, -1, -1):
            c = sum(x * y for x, y in zip(star[j], b[k])) / norm2[j]
            if abs(c) > 0.5 + _LLL_TOL:
                q = round(c)
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                u[k] = [x - q * y for x, y in zip(u[k], u[j])]
                inverse[j] = [x + q * y for x, y in zip(inverse[j], inverse[k])]
        orthogonalise(k)
        c = sum(x * y for x, y in zip(star[k - 1], b[k])) / norm2[k - 1]
        if norm2[k] < (LLL_DELTA * (1.0 - _LLL_TOL) - c * c) * norm2[k - 1]:
            b[k - 1], b[k] = b[k], b[k - 1]
            u[k - 1], u[k] = u[k], u[k - 1]
            inverse[k - 1], inverse[k] = inverse[k], inverse[k - 1]
            orthogonalise(k - 1)
            k = max(k - 1, 1)
        else:
            k += 1
    return np.array(u, dtype=np.int64), np.array(list(zip(*inverse)), dtype=np.int64)


def change_basis(basis: LatticeBasis, u) -> np.ndarray:
    """The rows ``u @ basis.vectors``, ``u`` an integer unimodular matrix:
    another basis of the same lattice, as an (n, n) float array.  It is
    not validated: the caller computes its metrics, which refuse a cell
    outside the floating-point range.

    Each entry is the exact sum, over a common power-of-two denominator of
    the input entries in Python integers, rounded once.  A plain float
    product would round each term: a reduced vector of a long sheared
    basis is a short difference of long ones, and it would carry an error
    of about aspect * eps relative to its length into the reduced heights.
    """
    ratios = [[x.as_integer_ratio() for x in col] for col in basis.vectors.T.tolist()]
    # every denominator is a power of two, so the largest is their multiple
    den = max(d for col in ratios for _, d in col)
    cols = [[a * (den // d) for a, d in col] for col in ratios]
    rows = np.asarray(u).tolist()
    return np.array(
        [[sum(x * y for x, y in zip(row, col)) / den for col in cols] for row in rows]
    )
