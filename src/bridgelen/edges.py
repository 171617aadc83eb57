"""Lazy stream of inter-point edge classes in non-decreasing length order.

Every undirected class of straight-line edges between points of a periodic
set (up to lattice translation) is represented once, as a tuple
``(source, dest, translation, length)``: the edge runs from motif point
``source`` in the central cell to motif point ``dest`` in the cell shifted
by ``translation``.  Canonical orientation: ``source < dest``, or
``source == dest`` with a lexicographically positive translation; the zero
self-pair is never emitted.

Candidates are enumerated in *builds*, boxes of translations scaled by
the cell heights, as a triclinic neighbour search takes ceil(r / h_k)
images on axis k.  Build L covers the box |t_k| <= e_k(L) = floor(L h_max
/ h_k), capped at ``_BOX_CAP``, h_k being the cell height over facet k
and h_max the largest, less the box of build L - 1.  Build 1 holds the
cube [-1, 1]^n, L-infinity shells 0 and 1; in a cell of equal heights
build L is shell L alone.  Lengths are computed only where they can fall
in the band (lo, hi] being collected.  The edge x = (f_j - f_i + t) B of
motif pair (i, j), f being fractional coordinates, has |x| >= |f_jk -
f_ik + t_k| h_k on every axis k.  So a class no longer than hi has its
translation in an integer *box*, t_k in [ceil(-r_k - Delta_k), floor(r_k
- Delta_k)] with Delta = f_j - f_i and r_k = hi / h_k, widened slightly
against rounding; the self class is the pair with Delta = 0.  The boxes
are computed once per band, as (n, live) columns, and the pairs whose
box is empty are dropped.  A build is made only where it meets a live
pair's box: each box is clipped to the build's box, and the clip alone
decides whether the box takes part (it must be non-empty, and its far
corner must lie outside build L - 1's box on some axis), so the boxes
carry no build bounds.  A clipped box is a mixed-radix range, decoded in
blocks of (translation, pair) rows; a range of one translation is its
offset, with no decode.  For L > 1 the decoded rows inside build L - 1's
box are dropped before any length is computed.  Each block gives its
lengths in one numpy expression, the same for every row, and keeps those
inside the band.  The buffer is a set of parallel arrays (length,
source, dest, translation): after each build the unread rest and the new
candidates are put in yield order and a cursor walks them.  The order is
one stable ``np.argsort`` of the lengths; the full key is sorted only on
the rows inside runs of equal length.  Edges leave the buffer in chunks:
when the converted edges run out, the next ``_CHUNK`` released rows at
most become :class:`CandidateEdge` tuples, with one ``tolist()`` per
column, and each ``next()`` hands out one.  So a CandidateEdge is built
only for an edge yielded or for the rest of its chunk; converting the
whole released run at once would build many that a consumer stopping
early never reads.  A buffered edge of length L is released only when L
is strictly below the *height-projected* lower bound on every edge of a
translation not yet built:

    bound(e) = min_k (e_k + 1 - spread_k) h_k

where e are the last build's extents and spread_k the extent of the
motif's fractional coordinates on axis k.  An unbuilt translation has
|t_k| >= e_k + 1 on some axis k, so its edge advances at least e_k + 1 -
spread_k cells along that height: e_k full heights plus the exit and
entry legs to the faces.  The bound is exact for rectangular cells and
safe for skewed ones.  It is computed in floats and then lowered by the
margin the pair boxes are widened by, which covers every rounding on the
way (see ``_set_boxes``): no computed length outside the built box falls
below it.  The release is strict because an edge of an unbuilt
translation can be exactly as long as the bound; releasing at equality
would yield it after a longer-keyed tie.  So the stream yields in
(length, source, dest, translation) order, ties included.  The first
release bound comes after build 1.  Every axis's extent grows by about
h_max / h_k a build, so the bound grows by about h_max, not by the
smallest height: after build L it exceeds (L - 1) h_max, less the margin
(see ``_release_bound``), and a slab or a needle takes as few builds as a
cell whose heights are all its largest one.

Building shells 0 and 1 together moves no bridge: a bridge needs an edge
of shell 1 or beyond before it can stop, because the translations of
shell 0, t = (w_src - w_dst) U (zero in the input cell, see below), give
every cycle a sum of 0.

The horizon ``max_length`` is the stream's only stop rule: edges longer
than it are never yielded, and the stream ends once the release bound
passes it.  It defaults to the cell bound r_upper (plus the box margin),
and every edge up to r_upper lies within ceil(aspect) + 1 builds.  Inside
it the stream keeps a smaller *working horizon* H, which starts at 1.6
times the motif's spacing s (see :func:`_spacing`), capped at
``max_length``.  s is the edge of a cube holding one motif point, (vol /
m)^(1/n), over the axes left once every height below it has collapsed: a
slab's in-plane spacing, a needle's spacing along its axis, and (vol /
m)^(1/n) itself in a cell with no height below it.  Bridge lengths follow
s.  Over the seed-101 benchmark structures whose start lies below
``max_length``, beta / s has median 1.09 and quantile 0.9 1.34 on the
dense motifs, 1.18 and 1.68 on the CIF batch, and 1.09 and 1.46 (largest
1.90) on the slabs, needles and lattices, where beta over the plain cube
edge has quantile 0.9 1.96 (largest 4.58).  Builds keep only the edges up
to H.  When the release bound passes H with the buffer empty, H doubles
(again capped at ``max_length``) and the box of the last build, which
holds every build so far, is scanned once more, as one build, for the
band (H_old, H_new] alone, within the boxes for H_new.  Every length is
computed by the same expression in every pass, so each class falls in
exactly one band, and the edges up to H are a prefix of the whole
stream: the yield order, and the builds made before each yield, are
those of a single band up to ``max_length``.  So H decides only which
band a row falls in, and a consumer that stops after an edge of length L
has had only the edges up to max(H_0, 2 L) buffered and sorted.

Builds, boxes and the release bound are those of a *reduced cell* when
it is better shaped.  :func:`~bridgelen.geometry.reduce_basis` gives a
unimodular U and its exact integer inverse, and the cell B' = U B (built
exactly by :func:`~bridgelen.geometry.change_basis`, its metrics computed
in one stacked pass with the input cell's) is used when its aspect is
strictly smaller than the input cell's; otherwise U = I, w = 0 and
everything here is the input cell's.  In B' the motif is re-wrapped as
f' = f U^-1 - w, w the integer floor, and the heights, the extents, the
spreads, the pair boxes and the release bound are built from f' and B'.
Every block's rows are mapped back, t = (t' + w_src - w_dst) U, before
anything reads them: the length is the input cell's expression on the
input Cartesian motif and basis, and the self-class test and the yield
key use the input t.  So every length, every key and the order are the
input cell's, bit for bit; only the builds made differ.  The horizon
r_upper and the box margin stay the input cell's (see ``_set_boxes``);
the spacing that starts the working horizon is taken over the heights of
the cell whose builds are made, where the thin axes are the lattice's
own and not the basis's.  A stream read up to the bridge length beta makes
at most ceil(beta / h'_max) + 1 builds, h'_max the largest height of the
cell whose builds are made (see ``shells_enumerated``).  It counts at
most ceil(reduced aspect) + 1 shells as well: every e_k(L) >= L, so the
release bound after build L exceeds L h'_min, up to the margin, and the
bridge length is at most the reduced cell's r_upper.

A generator is single-owner mutable state; distinct generators are
independent.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import NamedTuple, Optional

import numpy as np

from .errors import DegenerateCell
from .geometry import PeriodicSet, cell_metrics, change_basis, reduce_basis, row_norms
from .geometry import stacked_cell_metrics

#: Most (translation, pair) rows one block of a build holds (a block holds
#: at least one translation).  Working memory is bounded per block, not
#: per build: shell 3 in 8-D alone has 5.4 million translations.
_BLOCK = 1 << 12

#: Relative widening of the translation boxes and narrowing of the release
#: bound, against the rounding of the fractional coordinates, the cell
#: heights and the length expression (see ``EdgeGenerator._set_boxes``).
_BOX_SLACK = 1e-9

#: Box half-widths and build extents are capped at this many cells, so
#: that an unbounded horizon or an extreme height ratio still gives finite
#: int32 bounds; no stream reads that far.
_BOX_CAP = float(1 << 30)

#: The working horizon starts at this multiple of the motif's spacing
#: (see :func:`_spacing`).  beta / spacing has median 1.09-1.18 and
#: quantile 0.9 1.34-1.68 on the seed-101 benchmark corpora, so most
#: streams need no rescan and buffer little beyond beta ...
_START_FACTOR = 1.6

#: ... and is multiplied by this each time the stream runs dry below it.
_GROWTH_FACTOR = 2.0

#: Most released rows converted to CandidateEdge tuples at once.
_CHUNK = 32


class CandidateEdge(NamedTuple):
    """One lattice-translation class of edges.

    Field order gives the sort key (length, source, dest, translation),
    which is exactly the order the stream yields in.  A named tuple, so it
    is immutable and hashable, and equal to the plain tuple of its fields.
    """

    length: float
    source: int
    dest: int
    translation: tuple[int, ...]


def _decode(index, radix, offset) -> np.ndarray:
    """Mixed-radix digits of ``index`` plus ``offset``: row r has the
    radices ``radix[r]`` and the offset ``offset[r]``, both int32 of shape
    (rows, n)."""
    n = radix.shape[1]
    digits = np.empty((len(index), n), dtype=np.int32)
    for j in range(n - 1, -1, -1):
        index, digits[:, j] = np.divmod(index, radix[:, j])
    return digits + offset


def _shell_blocks(lo: np.ndarray, up: np.ndarray, inner, outer: np.ndarray, block: int):
    """The integer vectors of the box |t_k| <= ``outer[k]`` that lie
    outside the box |t_k| <= ``inner[k]`` (None for no inner box), inside
    boxes ``lo[:, b] <= t <= up[:, b]`` (int32 columns of shape (n,
    boxes)), in blocks.  ``inner`` and ``outer`` are int32 extents of
    shape (n,).

    Yields ``(t, box)``: ``t`` is an int32 block of 1 to ``block``
    translations, and ``box`` names the box of each row.

    A box clipped to ``outer`` is a product of ranges, so a mixed-radix
    range.  A box takes part iff that clip is non-empty and its far
    corner, the point of largest |t_k| on every axis, lies outside
    ``inner`` on some axis; no other bound on the box is needed.  A range
    of one translation is its offset, with no decode.  The other ranges
    are decoded together, each row with its own box's radices, so many
    small boxes make one block.  The decoded rows inside ``inner`` are
    dropped before any length is computed, so a block can hold fewer than
    ``block`` rows.  Every vector of a box comes once, and no grid of the
    whole ``outer`` box is built.  L-infinity shells ``first`` to ``last``
    are the case of equal extents on every axis: ``first - 1`` and
    ``last``.
    """
    # (axis, box) arrays: each box clipped to the outer box
    outer = outer[:, None]
    offset = np.maximum(lo, -outer)
    top = np.minimum(up, outer)
    meets = (offset <= top).all(axis=0)
    if inner is not None:
        meets &= (np.maximum(-offset, top) > inner[:, None]).any(axis=0)
    (box,) = meets.nonzero()
    # (box, axis) arrays of the boxes that meet the build
    offset = offset.take(box, 1).T
    radix = top.take(box, 1).T - offset + 1
    count = radix.prod(axis=1, dtype=np.int64)
    (one,) = (count == 1).nonzero()
    for start in range(0, len(one), block):
        part = one[start : start + block]
        yield offset.take(part, 0), box.take(part)
    (many,) = (count > 1).nonzero()
    if len(many) == 0:
        return
    # one row per range, and the first index of each
    box, rad, off = box.take(many), radix.take(many, 0), offset.take(many, 0)
    count = count.take(many)
    end = count.cumsum()
    first_index = end - count
    for start in range(0, int(end[-1]), block):
        index = np.arange(start, min(start + block, int(end[-1])))
        q = end.searchsorted(index, side="right")
        t = _decode(index - first_index.take(q), rad.take(q, 0), off.take(q, 0))
        if inner is not None:
            (keep,) = (np.abs(t) > inner).any(axis=1).nonzero()
            if len(keep) == 0:
                continue
            t, q = t.take(keep, 0), q.take(keep)
        yield t, box.take(q)


def _spacing(cell, m: int) -> float:
    """The spacing of ``m`` points in ``cell`` (a CellMetrics): the edge
    s = (vol / m)^(1/n) of a cube holding one point, over the axes left
    after the thin ones collapse.  While the thinnest remaining height
    h_k is below s, the cell is one layer deep on axis k, so the points
    spread over the facet alone: vol is divided by h_k and s recomputed
    over the remaining axes.  A slab gives its in-plane spacing and a
    needle its spacing along the axis; a cell with no height below s
    gives s itself.  One axis always remains."""
    heights = sorted(cell.heights)
    vol, n = cell.vol / m, len(heights)
    spacing = vol ** (1.0 / n)
    for k, h in enumerate(heights[:-1]):
        if h >= spacing:
            break
        vol /= h
        spacing = vol ** (1.0 / (n - 1 - k))
    return spacing


def _lex_positive_rows(t: np.ndarray) -> np.ndarray:
    """Mask of the rows of ``t`` whose first nonzero entry is positive."""
    first = (t != 0).argmax(axis=1)
    return t[np.arange(len(t)), first] > 0


def _cells(pset: PeriodicSet):
    """The metrics of the input cell B of ``pset``, and its LLL-reduced
    cell U B with the motif there, or None if that cell is not strictly
    better shaped or its metrics cannot be had.

    The reduction comes first: when U is a signed permutation the cell
    is the same and only B's metrics are computed; otherwise those of B
    and U B are computed in one stacked pass.  If that pass leaves the
    floating-point range, B's metrics are computed alone, so an input
    cell outside it raises its own DegenerateCell and a reduced one is
    not used.

    The reduced cell is ``(metrics, u, frac, wrap)``: the metrics of U B;
    U; the motif re-wrapped as f' = f U^-1 - w, w = floor(f U^-1), with
    the exact U^-1 of the reduction; and the integers w as an (m + 1, n)
    float array whose last row, for the stream's extra zero point, is 0.
    """
    n = pset.dim
    u, inverse = reduce_basis(pset.basis.vectors)
    if np.count_nonzero(u) == n:  # a signed permutation: the same cell
        return cell_metrics(pset.basis), None
    try:
        cells = np.stack([pset.basis.vectors, change_basis(pset.basis, u)])
        metrics, reduced = stacked_cell_metrics(cells)
    except DegenerateCell:
        return cell_metrics(pset.basis), None
    if not reduced.aspect < metrics.aspect:
        return metrics, None
    points = pset.motif.points
    image = points @ inverse
    wrap = np.floor(image)
    frac = image - wrap
    # a tiny negative coordinate minus its floor -1 rounds to 1.0: fold
    fold = frac >= 1.0
    frac[fold] = 0.0
    wrap[fold] += 1.0
    return metrics, (reduced, u, frac, np.concatenate([wrap, np.zeros((1, n))]))


def _yield_order(length, source, dest, translation) -> np.ndarray:
    """Permutation putting the rows in (length, source, dest, translation)
    order.

    A stable argsort of the lengths alone places every row whose length is
    unique; the rows in runs of equal length are then re-sorted by the
    full key among themselves.  Their lengths are the same multiset, so
    each run keeps its positions.
    """
    order = length.argsort(kind="stable")
    ordered = length[order]
    same = ordered[1:] == ordered[:-1]
    tied = np.zeros(len(order), dtype=bool)
    tied[1:] = same
    tied[:-1] |= same
    if tied.any():
        rows = order[tied]
        key = (*translation.take(rows, 0).T[::-1], dest[rows], source[rows], ordered[tied])
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
        unbounded stream.  The working horizon up to which builds are
        buffered grows towards it on demand; NaN or a negative value
        raises ValueError.
    """

    def __init__(self, pset: PeriodicSet, max_length: Optional[float] = None):
        self._m = pset.motif_size
        self._n = pset.dim
        self._basis = pset.basis.vectors
        cart = pset.cartesian_motif
        self.metrics, reduced = _cells(pset)
        # the cell whose builds are made: the input's, or a reduced one
        self._cell, self._unimodular = self.metrics, None
        frac = pset.motif.points
        if reduced is not None:
            self._cell, u, frac, self._wrap = reduced
            self._unimodular = u.astype(float)
        self._heights = np.array(self._cell.heights)
        # build L reaches floor(L h_max / h_k) cells on axis k
        self._ratio = self._heights.max() / self._heights
        # the motif's extent on each axis of that cell
        self._spread = frac.max(axis=0) - frac.min(axis=0)
        if max_length is None:
            max_length = self.metrics.r_upper * (1.0 + _BOX_SLACK)
        if not max_length >= 0:
            raise ValueError("max_length must be >= 0 or math.inf, not NaN or negative")
        self.max_length = max_length
        self._horizon = min(max_length, _START_FACTOR * _spacing(self._cell, self._m))
        # motif pairs i < j in row-major order, then the self class as one
        # more pair, from an extra zero point m to itself: its length
        # expression (0 + shift) - 0 is the shift exactly
        m = self._m
        point = np.arange(m + 1, dtype=np.int32)
        partners = np.where(point < m, m - 1 - point, 1)
        self._pair_src = point.repeat(partners)
        # row i counts up from min(i + 1, m) at its first index, the sum
        # of the partners before it
        start = partners.cumsum(dtype=np.int32) - partners
        self._pair_dst = (np.minimum(point + 1, m) - start).repeat(partners)
        self._pair_dst += np.arange(len(self._pair_dst), dtype=np.int32)
        self._self_pair = len(self._pair_dst) - 1
        self._points = point[:m]
        zero = np.zeros((1, self._n))
        # (m + 1, n) motif, and its fractional axes as contiguous columns;
        # a block's rows are gathered by pair index, no pair copy is kept
        self._cart = np.concatenate([cart, zero])
        self._frac_axes = np.concatenate([frac, zero]).T.copy()
        self._box_horizon = None
        # the buffer, in yield order from the cursor on
        self._length = np.empty(0)
        self._source = np.empty(0, dtype=np.int32)
        self._dest = np.empty(0, dtype=np.int32)
        self._translation = np.empty((0, self._n), dtype=np.int32)
        self._cursor = 0
        # rows before this index lie below the release bound
        self._released = 0
        # converted edges not yet yielded, the next one last
        self._ready: list[CandidateEdge] = []
        # builds made, and the extents of the last one
        self._builds = 0
        self._extent = None
        self._bound = -math.inf

    @property
    def shells_enumerated(self) -> int:
        """Builds made so far plus one, or 0 before the first: 2 after
        the first build, which holds the cube [-1, 1]^n (shells 0 and 1),
        then one more per build; a rescan is no new build.  In a cell of
        equal heights build L is L-infinity shell L, so this counts the
        shells 0 to L.  A stream read up to an edge of length L_e makes
        at most ceil(L_e / h'_max) + 1 builds, up to the margin (see
        ``_release_bound``)."""
        return self._builds + 1 if self._builds else 0

    @property
    def pending(self) -> tuple[CandidateEdge, ...]:
        """Buffered candidates not yet yielded, in yield order (copy;
        inspection only): those of the builds made so far up to the
        working horizon, not up to ``max_length``.  The converted edges
        of the current chunk come first."""
        return (*reversed(self._ready), *self._convert(len(self._length)))

    def _extents(self, build: int) -> np.ndarray:
        """The box of build ``build``, |t_k| <= e_k = floor(build h_max /
        h_k), capped at ``_BOX_CAP``, as int32 extents (the cast truncates
        the nonnegative products)."""
        return np.minimum(build * self._ratio, _BOX_CAP).astype(np.int32)

    def _release_bound(self, extent: np.ndarray) -> float:
        """The height-projected bound on every translation outside the box
        |t_k| <= ``extent[k]``, min_k (e_k + 1 - spread_k) h_k, lowered by
        the margin of ``_set_boxes``: no computed length there falls below
        it.

        Since e_k + 1 > L h_max / h_k after build L (up to the rounding
        of the ratio), and spread_k h_k < h_k <= h_max, the bound before
        the margin exceeds (L - 1) h_max.  A build is made only when the
        next edge read, of length L_e, is not yet released, so the bound
        after the build before it was at most L_e: build L is made only
        if (L - 2) h_max < L_e plus the margin."""
        bound = float(((extent + 1 - self._spread) * self._heights).min())
        return bound * (1.0 - _BOX_SLACK) - _BOX_SLACK * self._n * self.metrics.b

    def __iter__(self):
        return self

    def __next__(self) -> CandidateEdge:
        """Next shortest not-yet-yielded edge class."""
        while not self._ready:
            if self._cursor < self._released:
                end = min(self._cursor + _CHUNK, self._released)
                self._ready = self._convert(end)[::-1]
                self._cursor = end
            elif self._bound <= self._horizon:
                # the next build: its box less the last one's
                inner = self._extent
                self._builds += 1
                self._extent = self._extents(self._builds)
                self._merge(self._collect(inner, self._extent, -math.inf, self._horizon))
                self._bound = self._release_bound(self._extent)
                self._released = int(self._length.searchsorted(self._bound))
            elif self._horizon < self.max_length:
                # the buffer is empty: every edge up to the horizon is out
                lo = self._horizon
                self._horizon = min(lo * _GROWTH_FACTOR, self.max_length)
                self._merge(self._collect(None, self._extent, lo, self._horizon))
                self._released = int(self._length.searchsorted(self._bound))
            else:
                raise StopIteration
        return self._ready.pop()

    def _convert(self, end: int) -> list[CandidateEdge]:
        """The buffered rows from the cursor up to ``end`` as edges."""
        part = slice(self._cursor, end)
        # tuple.__new__ skips _make's length check, which a zip of four
        # columns cannot fail
        return list(
            map(
                tuple.__new__,
                repeat(CandidateEdge),
                zip(
                    self._length[part].tolist(),
                    self._source[part].tolist(),
                    self._dest[part].tolist(),
                    map(tuple, self._translation[part].tolist()),
                ),
            )
        )

    def _set_boxes(self, hi: float) -> None:
        """Give every pair, the self class (the last pair, Delta = 0)
        included, the box of translations that can bring it within ``hi``,
        and drop the pairs whose box is empty.  The live boxes are kept as
        (n, live) int32 columns ``lo`` and ``up``, with no build bounds:
        :func:`_shell_blocks` clips each one to a build's box, and the clip
        decides whether it meets the build.

        The edge x = (f_j - f_i + t) B of pair (i, j) has |x| >= |f_jk -
        f_ik + t_k| h_k on every axis k, h_k being the cell height over
        facet k, so a class no longer than hi has t_k in [-r_k - Delta_k,
        r_k - Delta_k] with Delta = f_j - f_i and r_k = hi / h_k.  All of
        this is in the cell whose builds are made, the reduced one if
        any.

        One margin, _BOX_SLACK relative plus _BOX_SLACK n b, b the longest
        input basis vector, covers the rounding both here and in
        ``_release_bound``.  The computed length rounds the input cell's
        (c_j + tB) - c_i, c being Cartesian motif points, so it can fall
        below |x| by a few ulps of |c_j| + |tB| + |c_i| <= |x| + 2 (|c_j| +
        |c_i|), and n b bounds every |c|.  The relative part covers the
        rounding of the heights, of their products and of Delta.  In a
        reduced cell the heights are those of B' rounded entrywise once,
        and f' = f U^-1 - w rounds by at most (n + 1) eps sum_l |U^-1_lk|
        on axis k.  Each |U^-1_lk| <= b / h_k, because U^-1_lk is the
        coefficient of b'_k in the input vector b_l and b'_k's dual vector
        has length 1 / h_k; so that rounding, times h_k, is below
        2 (n + 1) n eps b, far inside the n b term.  Here r_k is hi
        widened by the margin, over h_k.  The release bound is the
        computed min_k (e_k + 1 - spread_k) h_k narrowed by it, e being the
        last build's extents: an unbuilt translation has |t_k| >= e_k + 1
        on some axis k, where |Delta_k| <= spread_k, so |x| >= (e_k + 1 -
        spread_k) h_k, and no computed length there falls below the
        narrowed bound.
        """
        reach = hi * (1.0 + _BOX_SLACK) + _BOX_SLACK * self._n * self.metrics.b
        # python floats: an infinite or huge horizon gives no warning
        radius = np.array([[min(reach / h, _BOX_CAP)] for h in self._cell.heights])
        # all n axes at once as (n, block) arrays, a block of pairs at a
        # time, so no (pairs, n) float array is held
        pairs = len(self._pair_src)
        lo = np.empty((self._n, pairs), dtype=np.int32)
        up = np.empty_like(lo)
        empty = np.empty(pairs, dtype=bool)
        for start in range(0, pairs, _BLOCK):
            part = slice(start, start + _BLOCK)
            delta = self._frac_axes.take(self._pair_dst[part], 1)
            delta -= self._frac_axes.take(self._pair_src[part], 1)
            lo_p, up_p = lo[:, part], up[:, part]
            np.ceil(-radius - delta, out=lo_p, casting="unsafe")
            np.floor(radius - delta, out=up_p, casting="unsafe")
            (lo_p > up_p).any(axis=0, out=empty[part])
        (self._live,) = (~empty).nonzero()
        self._box_lo = lo.take(self._live, 1)
        self._box_up = up.take(self._live, 1)
        self._box_horizon = hi

    def _collect(self, inner, outer: np.ndarray, lo: float, hi: float):
        """The classes whose translation lies in the box of extents
        ``outer`` and outside that of ``inner`` (see :func:`_shell_blocks`)
        with lo < length <= hi, unordered, as blocks of (length, source,
        dest, translation) arrays.  Lengths are computed only for the
        translations in each pair's box."""
        if hi != self._box_horizon:
            self._set_boxes(hi)
        for t, box in _shell_blocks(self._box_lo, self._box_up, inner, outer, _BLOCK):
            pair = self._live.take(box)
            if self._unimodular is not None:
                t = self._input_translations(t, pair)
            # a stacked (1, n) @ (n, n) product rounds each row as the
            # product for one translation does; a (rows, n) @ (n, n)
            # product rounds differently for n >= 4, which would make
            # lengths depend on the block size.  A zero t shifts by +-0.0,
            # which adds nothing.
            shift = (t[:, None, :].astype(float) @ self._basis)[:, 0]
            own = pair == self._self_pair
            if own.all():  # the self class alone, as in a lattice: |tB|
                length = row_norms(shift)
            else:
                src = self._cart.take(self._pair_src.take(pair), 0)
                dst = self._cart.take(self._pair_dst.take(pair), 0)
                length = row_norms((dst + shift) - src)
            keep = (length > lo) & (length <= hi)
            if own.any():
                # only the self class keeps one of +-t, and rows out of the band go anyway
                (row,) = (keep & own).nonzero()
                keep[row] = False
                row = row[_lex_positive_rows(t.take(row, 0))]
                yield self._self_rows(length.take(row), t.take(row, 0))
            (row,) = keep.nonzero()
            pair = pair.take(row)
            src, dst = self._pair_src.take(pair), self._pair_dst.take(pair)
            yield length.take(row), src, dst, t.take(row, 0)

    def _input_translations(self, t: np.ndarray, pair) -> np.ndarray:
        """Reduced-cell translations ``t`` of the rows of ``pair`` mapped to
        the input cell: (t + w_src - w_dst) U, w being the wrap offsets."""
        wrap = self._wrap.take(self._pair_src.take(pair), 0)
        wrap -= self._wrap.take(self._pair_dst.take(pair), 0)
        # a float product of integers below 2^53 is exact, and faster
        return ((t + wrap) @ self._unimodular).astype(np.int32)

    def _self_rows(self, length: np.ndarray, t: np.ndarray):
        """Self-class rows: each translation t, from every motif point to
        its own image."""
        m = self._m
        # filled row by row: np.tile costs more for small m, and an
        # integer % over the rows more for large m
        points = np.empty((len(t), m), dtype=np.int32)
        points[:] = self._points
        points = points.reshape(-1)
        return length.repeat(m), points, points, t.repeat(m, axis=0)

    def _merge(self, parts) -> None:
        """Put the unread rest of the buffer and ``parts`` in yield order."""
        k = self._cursor
        rest = (self._length[k:], self._source[k:], self._dest[k:], self._translation[k:])
        length, source, dest, translation = (
            np.concatenate(c) for c in zip(rest, *parts)
        )
        order = _yield_order(length, source, dest, translation)
        self._length = length.take(order)
        self._source = source.take(order)
        self._dest = dest.take(order)
        self._translation = translation.take(order, 0)
        self._cursor = 0
