"""Lazy stream of inter-point edge classes in non-decreasing length order.

Every undirected class of straight-line edges between points of a periodic
set (up to lattice translation) is represented once, as a tuple
``(source, dest, translation, length)``: the edge runs from motif point
``source`` in the central cell to motif point ``dest`` in the cell shifted
by ``translation``.  Canonical orientation: ``source < dest``, or
``source == dest`` with a lexicographically positive translation; the zero
self-pair is never emitted.

Candidates are enumerated one supercell shell at a time (all cells at a
fixed L-infinity distance).  A shell is built straight from its faces, in
blocks of translations; each block gives the lengths of all its motif
pairs in one numpy expression and keeps only those inside a length band
(lo, hi] at once.  The buffer is a set of parallel arrays (length, source,
dest, translation): after each shell the unread rest and the new
candidates are put in yield order and a cursor walks them, so a
:class:`CandidateEdge` is built only for an edge that is yielded.  The
order is one stable ``np.argsort`` of the lengths; the full key is sorted
only on the rows inside runs of equal length.  A buffered edge of length
L is released only when L is strictly below the *height-projected* lower
bound on every edge reaching any un-enumerated shell:

    bound(sigma) = min_i [ alpha_i + beta_i + (sigma - 1) * h_i ]

where h_i is the cell height over facet i and alpha_i / beta_i are the
shortest motif-to-face distances measured along that height direction.
Crossing from the central cell into shell sigma advances at least
(sigma - 1) full heights plus the exit and entry legs in some direction,
so the bound is exact for rectangular cells and safe for skewed ones.
This is what makes the stream provably monotone.  The release is strict
because an edge in an unvisited shell can be exactly as long as the
bound; releasing at equality would yield it after a longer-keyed tie.

The horizon ``max_length`` is the stream's only stop rule: edges longer
than it are never yielded, and the stream ends once the release bound
passes it.  It defaults to the cell bound r_upper (plus a relative slack),
and every edge up to r_upper lies within ceil(aspect) + 1 shells.  Inside
it the stream keeps a smaller *working horizon* H, which starts at twice
the edge of a cube holding one motif point, 2 (vol / m)^(1/n), capped at
``max_length``.  Shells are built keeping only the edges up to H.  When
the release bound passes H with the buffer empty, H doubles (again capped
at ``max_length``) and the shells already built are scanned once more for
the band (H_old, H_new] alone.  Every length is computed by the same
expression in every pass, so each class falls in exactly one band, and
the edges up to H are a prefix of the whole stream: the yield order, and
the shells built before each yield, are those of a single band up to
``max_length``.  A consumer that stops after an edge of length L has had
only the edges up to max(H_0, 2 L) buffered and sorted.

A generator is single-owner mutable state; distinct generators are
independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import PeriodicSet, cell_metrics, row_norms

#: Relative slack applied to the default r_upper horizon so an edge exactly
#: at the bound survives float rounding.
_HORIZON_SLACK = 1e-9

#: Most rows one block of a shell builds: face translations per block, and
#: translations x motif pairs per block (a block holds at least one
#: translation).  Working memory is bounded per block, not per shell:
#: shell 3 in 8-D alone has 5.4 million faces.
_BLOCK = 1 << 12

#: The working horizon starts at this multiple of (vol / m)^(1/n), the edge
#: of a cube holding one motif point on average ...
_START_FACTOR = 2.0

#: ... and is multiplied by this each time the stream runs dry below it.
_GROWTH_FACTOR = 2.0


@dataclass(frozen=True, order=True)
class CandidateEdge:
    """One lattice-translation class of edges.

    Field order gives the sort key (length, source, dest, translation),
    which is exactly the order the stream yields in.
    """

    length: float
    source: int
    dest: int
    translation: tuple[int, ...]


def _shell_faces(n: int, s: int, block: int):
    """Integer vectors of L-infinity norm exactly ``s``, in blocks of at
    most ``block`` rows (int32, one column per dimension).

    For s > 0 the shell splits by its leading axis k, the first with
    |t_k| = s: entries before k lie in [-(s-1), s-1], t_k = -s or s, and
    entries after k lie in [-s, s].  Each piece is a mixed-radix range
    decoded one block at a time, so every vector comes once,
    (2s+1)^n - (2s-1)^n in all, and no (2s+1)^n grid is built.
    """
    if s == 0:
        yield np.zeros((1, n), dtype=np.int32)
        return
    for k in range(n):
        radix = [2 * s - 1] * k + [2] + [2 * s + 1] * (n - 1 - k)
        scale = np.ones(n, dtype=np.int32)
        scale[k] = 2 * s
        offset = np.array([1 - s] * k + [-s] * (n - k), dtype=np.int32)
        count = math.prod(radix)
        for start in range(0, count, block):
            index = np.arange(start, min(start + block, count))
            digits = np.empty((len(index), n), dtype=np.int32)
            for j in range(n - 1, -1, -1):
                index, digits[:, j] = np.divmod(index, radix[j])
            yield digits * scale + offset


def _lex_positive_rows(t: np.ndarray) -> np.ndarray:
    """Mask of the rows of ``t`` whose first nonzero entry is positive."""
    first = (t != 0).argmax(axis=1)
    return t[np.arange(len(t)), first] > 0


def _yield_order(length, source, dest, translation) -> np.ndarray:
    """Permutation putting the rows in (length, source, dest, translation)
    order.

    A stable argsort of the lengths alone places every row whose length is
    unique; the rows in runs of equal length are then re-sorted by the
    full key among themselves.  Their lengths are the same multiset, so
    each run keeps its positions.
    """
    order = np.argsort(length, kind="stable")
    same = length[order[1:]] == length[order[:-1]]
    tied = np.zeros(len(order), dtype=bool)
    tied[1:] = same
    tied[:-1] |= same
    if tied.any():
        rows = order[tied]
        key = (*translation[rows].T[::-1], dest[rows], source[rows], length[rows])
        order[tied] = rows[np.lexsort(key)]
    return order


class EdgeGenerator:
    """Resumable edge stream over a periodic set.

    Parameters
    ----------
    pset : PeriodicSet
    max_length : float, optional
        Horizon, the stream's only stop rule: edges longer than this are
        never yielded, and the stream raises StopIteration once no shorter
        edge can remain.  Defaults to the cell bound r_upper * (1 + 1e-9),
        which every bridge length lies below; pass ``math.inf`` for an
        unbounded stream.  The working horizon up to which shells are
        buffered grows towards it on demand; NaN raises ValueError.
    """

    def __init__(self, pset: PeriodicSet, max_length: Optional[float] = None):
        self._m = pset.motif_size
        self._n = pset.dim
        self._basis = pset.basis.vectors
        cart = pset.cartesian_motif
        self.metrics = cell_metrics(pset.basis)
        heights = np.array(self.metrics.heights)
        frac = pset.motif.points
        to_high_face = (1.0 - frac).min(axis=0)  # min over motif, per axis
        to_low_face = frac.min(axis=0)
        self._heights = heights
        self._alpha_h = to_high_face * heights
        self._beta_h = to_low_face * heights
        if max_length is None:
            max_length = self.metrics.r_upper * (1.0 + _HORIZON_SLACK)
        if math.isnan(max_length):
            raise ValueError("max_length must be a number or math.inf, not NaN")
        self.max_length = max_length
        cube = (self.metrics.vol / self._m) ** (1.0 / self._n)
        self._horizon = min(max_length, _START_FACTOR * cube)
        pair_src, pair_dst = np.triu_indices(self._m, k=1)
        self._pair_src = pair_src.astype(np.int32)
        self._pair_dst = pair_dst.astype(np.int32)
        self._cart_src = cart[pair_src]
        self._cart_dst = cart[pair_dst]
        self._block_rows = max(1, _BLOCK // max(len(pair_src), 1))
        # the buffer, in yield order from the cursor on
        self._length = np.empty(0)
        self._source = np.empty(0, dtype=np.int32)
        self._dest = np.empty(0, dtype=np.int32)
        self._translation = np.empty((0, self._n), dtype=np.int32)
        self._cursor = 0
        self._next_shell = 0
        self._bound = self._release_bound(0)

    @property
    def shells_enumerated(self) -> int:
        """Number of shells enumerated so far (indices 0, 1, ...)."""
        return self._next_shell

    @property
    def pending(self) -> tuple[CandidateEdge, ...]:
        """Buffered candidates not yet yielded, in yield order (copy;
        inspection only): those of the shells built so far up to the
        working horizon, not up to ``max_length``."""
        k = self._cursor
        return tuple(
            CandidateEdge(length, source, dest, tuple(t))
            for length, source, dest, t in zip(
                self._length[k:].tolist(),
                self._source[k:].tolist(),
                self._dest[k:].tolist(),
                self._translation[k:].tolist(),
            )
        )

    def _release_bound(self, sigma: int) -> float:
        if sigma <= 0:
            return -math.inf
        return float(np.min(self._alpha_h + self._beta_h + (sigma - 1) * self._heights))

    def __iter__(self):
        return self

    def __next__(self) -> CandidateEdge:
        """Next shortest not-yet-yielded edge class."""
        while True:
            k = self._cursor
            if k < len(self._length) and self._length[k] < self._bound:
                self._cursor = k + 1
                return CandidateEdge(
                    float(self._length[k]),
                    int(self._source[k]),
                    int(self._dest[k]),
                    tuple(self._translation[k].tolist()),
                )
            if self._bound <= self._horizon:
                self._merge(self._collect(self._next_shell, -math.inf, self._horizon))
                self._next_shell += 1
                self._bound = self._release_bound(self._next_shell)
            elif self._horizon < self.max_length:
                # the buffer is empty: every edge up to the horizon is out
                lo = self._horizon
                self._horizon = min(lo * _GROWTH_FACTOR, self.max_length)
                self._merge(
                    part
                    for s in range(self._next_shell)
                    for part in self._collect(s, lo, self._horizon)
                )
            else:
                raise StopIteration

    def _collect(self, s: int, lo: float, hi: float):
        """The classes of shell ``s`` with lo < length <= hi, unordered, as
        blocks of (length, source, dest, translation) arrays."""
        m = self._m
        for faces in _shell_faces(self._n, s, self._block_rows):
            # a stacked (1, n) @ (n, n) product rounds each row as the
            # product for one translation does; a (rows, n) @ (n, n)
            # product rounds differently for n >= 4, which would make
            # lengths depend on the block size
            shift = (faces[:, None, :].astype(float) @ self._basis)[:, 0, :]
            if m > 1:
                pair_len = row_norms(
                    (self._cart_dst + shift[:, None, :]) - self._cart_src
                )
                t, p = np.nonzero((pair_len > lo) & (pair_len <= hi))
                yield pair_len[t, p], self._pair_src[p], self._pair_dst[p], faces[t]
            if s > 0:
                self_len = row_norms(shift)
                (t,) = np.nonzero(
                    _lex_positive_rows(faces) & (self_len > lo) & (self_len <= hi)
                )
                points = np.tile(np.arange(m, dtype=np.int32), len(t))
                yield (
                    np.repeat(self_len[t], m),
                    points,
                    points,
                    np.repeat(faces[t], m, axis=0),
                )

    def _merge(self, parts) -> None:
        """Put the unread rest of the buffer and ``parts`` in yield order."""
        k = self._cursor
        rest = (self._length[k:], self._source[k:], self._dest[k:], self._translation[k:])
        length, source, dest, translation = (
            np.concatenate(c) for c in zip(rest, *parts)
        )
        order = _yield_order(length, source, dest, translation)
        self._length = length[order]
        self._source = source[order]
        self._dest = dest[order]
        self._translation = translation[order]
        self._cursor = 0
