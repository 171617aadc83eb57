"""Growing labelled quotient graph: union-find with integer offset vectors.

Vertices are motif indices; each accepted edge carries an integer
translation vector.  The forest invariant maintained here: for any two
vertices u, w in one component, the sum of translation labels along the
unique forest path from u to w (reversed edges negated) equals
``offset(u) - offset(w)``, where ``offset(v)`` is the stored path sum from
v to its current representative.  Queries are near-constant amortized via
union by size with path compression.

Orientation convention: an edge ``(source, dest, v)`` is directed
source -> dest; a forest edge therefore fixes path_sum(source, dest) = v.
The cycle sum reported for a rejected-by-forest edge is the sum around the
cycle traversed through the forest from source to dest and back through
the new edge reversed: path_sum(source, dest) - v.

The lifted periodic graph is connected exactly when the quotient graph is
connected and its cycle sums generate Z^n; this is the quotient-graph
connectivity test of E. Cohen and N. Megiddo, "Recognizing properties of
periodic graphs", in *Applied Geometry and Discrete Mathematics*, DIMACS
Series 4, AMS, 1991, pp. 135-146.

A state has a single mutation owner (finds compress paths); distinct
states are independent.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from .edges import CandidateEdge


@dataclass(frozen=True)
class EdgeOutcome:
    """Classification of a candidate edge against the current forest."""

    kind: Literal["forest", "cycle", "zero_cycle"]
    cycle_sum: Optional[tuple[int, ...]] = None


def _add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(operator.add, a, b))


def _sub(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(operator.sub, a, b))


class QuotientState:
    """Union-find over m motif vertices with per-vertex Z^n offsets.

    Offsets are plain int tuples: for n <= 8 a tuple sum costs a fraction
    of a numpy call, and the finds run once per examined edge.
    """

    def __init__(self, m: int, n: int):
        if m < 1 or n < 1:
            raise ValueError("need m >= 1 vertices and n >= 1 dimensions")
        self.m = m
        self.n = n
        self._parent = list(range(m))
        self._size = [1] * m
        self._zero = (0,) * n
        self._offset = [self._zero] * m
        self._components = m
        self.forest_edges: list[CandidateEdge] = []
        self.cycle_edges: list[tuple[CandidateEdge, tuple[int, ...]]] = []

    @property
    def component_count(self) -> int:
        return self._components

    def connected(self) -> bool:
        return self._components == 1

    def _find(self, v: int) -> tuple[int, tuple[int, ...]]:
        """Representative of v and the path sum from v to it; compresses."""
        parent, offset = self._parent, self._offset
        path = []
        while parent[v] != v:
            path.append(v)
            v = parent[v]
        total = self._zero
        for u in reversed(path):
            total = _add(total, offset[u])
        # second pass: repoint everything at the root with its full offset
        acc = total
        for u in path:
            nxt = _sub(acc, offset[u])
            parent[u] = v
            offset[u] = acc
            acc = nxt
        return v, total

    def classify_edge(self, e: CandidateEdge) -> EdgeOutcome:
        """Union source/dest for a forest edge, else report the cycle sum.

        Forest edges are recorded here; cycle-contributing edges are
        recorded by the caller (via :meth:`add_cycle_edge`) once the span
        test accepts their cycle sum.
        """
        if not (0 <= e.source < self.m and 0 <= e.dest < self.m):
            raise IndexError("edge endpoint out of range")
        v = tuple(map(int, e.translation))
        rs, ps = self._find(e.source)
        rd, pd = self._find(e.dest)
        if rs != rd:
            if self._size[rs] >= self._size[rd]:
                # attach rd under rs; want path_sum(source, dest) == v
                self._offset[rd] = _sub(_sub(ps, v), pd)
                self._parent[rd] = rs
                self._size[rs] += self._size[rd]
            else:
                self._offset[rs] = _sub(_add(v, pd), ps)
                self._parent[rs] = rd
                self._size[rd] += self._size[rs]
            self._components -= 1
            self.forest_edges.append(e)
            return EdgeOutcome(kind="forest")
        c = _sub(_sub(ps, pd), v)
        if not any(c):
            return EdgeOutcome(kind="zero_cycle")
        return EdgeOutcome(kind="cycle", cycle_sum=c)

    def add_cycle_edge(self, e: CandidateEdge, cycle_sum: tuple[int, ...]) -> None:
        """Record an accepted cycle-contributing edge."""
        self.cycle_edges.append((e, cycle_sum))

    def path_sum(self, u: int, w: int) -> Optional[np.ndarray]:
        """Sum of labels along the forest path u -> w; None if disconnected."""
        if not (0 <= u < self.m and 0 <= w < self.m):
            raise IndexError("vertex out of range")
        ru, pu = self._find(u)
        rw, pw = self._find(w)
        if ru != rw:
            return None
        return np.array(_sub(pu, pw), dtype=np.int64)
