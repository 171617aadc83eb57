"""Growing labelled quotient graph: stored roots with integer offset vectors.

Vertices are motif indices; each accepted edge carries an integer
translation vector.  Every vertex stores the root of its component and its
offset, the sum of translation labels along the unique forest path from the
vertex to that root (reversed edges negated).  For two vertices u, w in one
component the forest path sum from u to w is therefore
``offset(u) - offset(w)``, read in two list lookups.  Joining two
components relabels every member of the smaller one (Hopcroft & Ullman,
"Set merging algorithms", SIAM J. Comput. 2(4), 1973), so a vertex is
relabelled at most log2(m) times.

Orientation convention: an edge ``(source, dest, v)`` is directed
source -> dest; a forest edge therefore fixes the path sum from source to
dest, ``offset(source) - offset(dest)``, to v.  The cycle sum reported for
a rejected-by-forest edge is the sum around the cycle traversed through the
forest from source to dest and back through the new edge reversed:
``offset(source) - offset(dest) - v``.

The lifted periodic graph is connected exactly when the quotient graph is
connected and its cycle sums generate Z^n; this is the quotient-graph
connectivity test of E. Cohen and N. Megiddo, "Recognizing properties of
periodic graphs", in *Applied Geometry and Discrete Mathematics*, DIMACS
Series 4, AMS, 1991, pp. 135-146.

Only :meth:`QuotientState.classify_edge` mutates a state; reads never do.
Distinct states are independent.  It runs once per examined edge, so it
returns the shared outcomes ``FOREST`` and ``ZERO_CYCLE`` instead of
building one per edge; only a nonzero cycle sum gets an outcome of its
own.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Literal, Optional

from .edges import CandidateEdge


@dataclass(frozen=True)
class EdgeOutcome:
    """Classification of a candidate edge against the current forest."""

    kind: Literal["forest", "cycle", "zero_cycle"]
    cycle_sum: Optional[tuple[int, ...]] = None


FOREST = EdgeOutcome(kind="forest")
ZERO_CYCLE = EdgeOutcome(kind="zero_cycle")


def _add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(operator.add, a, b))


class QuotientState:
    """Components of m motif vertices with per-vertex Z^n offsets.

    Offsets are plain int tuples: for n <= 8 a tuple sum costs a fraction
    of a numpy call, and the lookups run once per examined edge.
    """

    def __init__(self, m: int, n: int):
        if m < 1 or n < 1:
            raise ValueError("need m >= 1 vertices and n >= 1 dimensions")
        self.m = m
        self.n = n
        self._root = list(range(m))
        self._offset = [(0,) * n] * m
        self._members = {v: [v] for v in range(m)}

    def connected(self) -> bool:
        return len(self._members) == 1

    def classify_edge(self, e: CandidateEdge) -> EdgeOutcome:
        """Join source and dest for a forest edge, else report the cycle sum."""
        if not (0 <= e.source < self.m and 0 <= e.dest < self.m):
            raise IndexError("edge endpoint out of range")
        rs, rd = self._root[e.source], self._root[e.dest]
        c = tuple(
            [
                a - b - int(t)
                for a, b, t in zip(self._offset[e.source], self._offset[e.dest], e.translation)
            ]
        )
        if rs == rd:
            if not any(c):
                return ZERO_CYCLE
            return EdgeOutcome(kind="cycle", cycle_sum=c)
        # relabel the smaller side so that path_sum(source, dest) == v
        if len(self._members[rs]) >= len(self._members[rd]):
            keep, gone, shift = rs, rd, c
        else:
            keep, gone, shift = rd, rs, tuple(-x for x in c)
        moved = self._members.pop(gone)
        for u in moved:
            self._root[u] = keep
            self._offset[u] = _add(self._offset[u], shift)
        self._members[keep].extend(moved)
        return FOREST
