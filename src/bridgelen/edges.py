"""Lazy stream of inter-point edge classes in non-decreasing length order.

Every undirected class of straight-line edges between points of a periodic
set (up to lattice translation) is represented once, as a tuple
``(source, dest, translation, length)``: the edge runs from motif point
``source`` in the central cell to motif point ``dest`` in the cell shifted
by ``translation``.  Canonical orientation: ``source < dest``, or
``source == dest`` with a lexicographically positive translation; the zero
self-pair is never emitted.

Candidates are enumerated one supercell shell at a time (all cells at a
fixed L-infinity distance) into a min-heap, and a buffered edge of length
L is released only when L <= the *height-projected* lower bound on every
edge reaching any un-enumerated shell:

    bound(sigma) = min_i [ alpha_i + beta_i + (sigma - 1) * h_i ]

where h_i is the cell height over facet i and alpha_i / beta_i are the
shortest motif-to-face distances measured along that height direction.
Crossing from the central cell into shell sigma advances at least
(sigma - 1) full heights plus the exit and entry legs in some direction,
so the bound is exact for rectangular cells and safe for skewed ones.
This is what makes the stream provably monotone.

A generator is single-owner mutable state; distinct generators are
independent.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ShellCapExceeded
from .geometry import PeriodicSet, cell_metrics, facet_heights, row_norms


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


def _lex_positive(t: tuple[int, ...]) -> bool:
    for x in t:
        if x != 0:
            return x > 0
    return False


class EdgeGenerator:
    """Resumable edge stream over a periodic set.

    Parameters
    ----------
    pset : PeriodicSet
    max_length : float, optional
        Horizon: edges longer than this are discarded at enumeration time
        and the stream raises StopIteration once no shorter edge can
        remain.  The bridge driver sets this to the cell upper bound.
    shell_cap : int, optional
        Hard cap on the shell index (default ceil(aspect) + 2).  Driving
        the stream past the cap without an explicit larger cap raises
        :class:`ShellCapExceeded`, turning caller bugs into diagnosable
        errors instead of an unbounded enumeration.
    """

    def __init__(
        self,
        pset: PeriodicSet,
        max_length: Optional[float] = None,
        shell_cap: Optional[int] = None,
    ):
        self.set = pset
        self._m = pset.motif_size
        self._n = pset.dim
        self._basis = pset.basis.vectors
        self._cart = pset.cartesian_motif
        self.metrics = cell_metrics(pset.basis)
        heights = facet_heights(pset.basis)
        frac = pset.motif.points
        to_high_face = (1.0 - frac).min(axis=0)  # min over motif, per axis
        to_low_face = frac.min(axis=0)
        self._heights = heights
        self._alpha_h = to_high_face * heights
        self._beta_h = to_low_face * heights
        self._heap: list[CandidateEdge] = []
        self._next_shell = 0
        self.max_length = max_length
        self.shell_cap = (
            math.ceil(self.metrics.aspect) + 2 if shell_cap is None else shell_cap
        )
        self._iu = np.triu_indices(self._m, k=1)

    @property
    def shells_enumerated(self) -> int:
        """Number of shells enumerated so far (indices 0, 1, ...)."""
        return self._next_shell

    @property
    def pending(self) -> tuple[CandidateEdge, ...]:
        """Buffered candidates, in yield order (copy; inspection only)."""
        return tuple(sorted(self._heap))

    @property
    def release_bound(self) -> float:
        """Length up to which buffered edges are provably globally minimal."""
        return self._release_bound(self._next_shell)

    def _release_bound(self, sigma: int) -> float:
        if sigma <= 0:
            return -math.inf
        return float(np.min(self._alpha_h + self._beta_h + (sigma - 1) * self._heights))

    def __iter__(self):
        return self

    def __next__(self) -> CandidateEdge:
        """Next shortest not-yet-yielded edge class."""
        while True:
            bound = self._release_bound(self._next_shell)
            if self._heap and self._heap[0].length <= bound:
                return heapq.heappop(self._heap)
            if self.max_length is not None and bound > self.max_length:
                raise StopIteration
            if self._next_shell > self.shell_cap:
                raise ShellCapExceeded(
                    f"shell {self._next_shell} exceeds cap {self.shell_cap} "
                    f"(aspect {self.metrics.aspect:.3f}); pass a larger "
                    f"shell_cap to enumerate further"
                )
            self._enumerate_shell(self._next_shell)
            self._next_shell += 1

    def _enumerate_shell(self, s: int) -> None:
        m, n = self._m, self._n
        cart = self._cart
        heap = self._heap
        horizon = self.max_length
        iu_i, iu_j = self._iu
        for t in itertools.product(range(-s, s + 1), repeat=n):
            if max(abs(c) for c in t) != s:
                continue
            shift = np.asarray(t, dtype=float) @ self._basis
            if m > 1:
                disp = (cart[iu_j] + shift) - cart[iu_i]
                pair_len = row_norms(disp)
                if horizon is None:
                    keep = range(pair_len.shape[0])
                else:
                    keep = np.nonzero(pair_len <= horizon)[0]
                for k in keep:
                    heapq.heappush(
                        heap,
                        CandidateEdge(
                            float(pair_len[k]), int(iu_i[k]), int(iu_j[k]), t
                        ),
                    )
            if s > 0:
                self_len = float(row_norms(shift))
                if _lex_positive(t) and (horizon is None or self_len <= horizon):
                    for i in range(m):
                        heapq.heappush(heap, CandidateEdge(self_len, i, i, t))
