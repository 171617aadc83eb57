"""Bridge length of a periodic point set.

The bridge length is the smallest hop length such that any two points of
the (infinite) set are joined by a chain of hops no longer than it.  It is
computed exactly by consuming edge classes in increasing length order and
maintaining two certificates over the labelled quotient graph:

1. the forest over motif classes becomes connected, and
2. the accepted cycle sums generate all of Z^n: their row-echelon
   (Hermite) basis has n pivots equal to 1.

The first edge whose acceptance makes both hold has the bridge length as
its length.  Many cycle edges repeat a cycle sum (or its negation) that
was offered before; that sum is already in the span, so only the first
copy of each goes to the Hermite basis.  Everything is deterministic:
identical inputs give identical reports, including the trace.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .edges import CandidateEdge, EdgeGenerator
from .errors import EmptyInput
from .geometry import PeriodicSet
from .intlinalg import OnlineSnfState
from .quotient import FOREST, ZERO_CYCLE, QuotientState


@dataclass(frozen=True)
class BridgeReport:
    """Result and provenance trace of one bridge-length computation.

    beta == last_edge.length, and beta <= r_upper always.  Each entry of
    basis_cycle_edges carries the cycle-sum column it contributed; columns
    are recorded only when they grow the integer span.  Built only by
    :func:`bridge_length`.
    """

    beta: float
    last_edge: CandidateEdge
    forest_edges: tuple[CandidateEdge, ...]
    basis_cycle_edges: tuple[tuple[CandidateEdge, tuple[int, ...]], ...]
    r_upper: float
    shells_enumerated: int
    edges_examined: int
    elapsed: float

    @property
    def translational_basis_size(self) -> int:
        return len(self.basis_cycle_edges)


def bridge_length(pset: PeriodicSet) -> BridgeReport:
    """Exact bridge length with a full provenance trace.

    Edges are classified against the growing quotient forest; cycle sums
    outside the current integer span are appended to the translational
    matrix (edges whose cycle sum is zero or already spanned cannot change
    connectivity of the lifted graph and are ignored).  A cycle sum equal
    to one offered before, or to its negation, is in the span already and
    is not offered again: ``OnlineSnfState.add`` would return False and
    leave the basis as it is.  This function owns
    the trace: it records each forest edge and each span-growing cycle edge
    as it accepts them.  Terminates at the first accepted edge after which
    the forest is connected, which it is once it holds m - 1 edges (each
    join merges two of the m classes), and the span certificate is
    complete.
    """
    t0 = time.perf_counter()
    gen = EdgeGenerator(pset)
    r_upper = gen.metrics.r_upper
    state = QuotientState(pset.motif_size, pset.dim)
    classify = state.classify_edge
    joins = pset.motif_size - 1  # forest edges of a connected forest
    snf_state = OnlineSnfState(pset.dim)
    forest, cycles = [], []
    offered = set()  # cycle sums offered to snf_state, and their negations
    for examined, edge in enumerate(gen, start=1):
        outcome = classify(edge)
        if outcome is ZERO_CYCLE:
            continue
        if outcome is FOREST:
            forest.append(edge)
        else:
            c = outcome.cycle_sum
            if c in offered:
                continue
            offered.add(c)
            offered.add(tuple([-x for x in c]))
            if not snf_state.add(c):
                continue
            cycles.append((edge, c))
        if len(forest) == joins and snf_state.is_complete():
            return BridgeReport(
                beta=edge.length,
                last_edge=edge,
                forest_edges=tuple(forest),
                basis_cycle_edges=tuple(cycles),
                r_upper=r_upper,
                shells_enumerated=gen.shells_enumerated,
                edges_examined=examined,
                elapsed=time.perf_counter() - t0,
            )
    raise RuntimeError(
        "edge stream exhausted below the r_upper horizon before both "
        "termination certificates held; this is an internal invariant "
        "violation"
    )


def mst_longest_edge(points) -> float:
    """Length of the longest edge in a Euclidean minimum spanning tree.

    All MSTs of a point set share the same longest-edge length (it is the
    connectivity threshold of the finite set), so any tree may be built;
    this is Prim's algorithm on the dense distance matrix.  A single point
    yields 0.  ``points`` is a 1-D array of reals or a 2-D array with one
    point per row; other shapes and non-finite coordinates raise ValueError.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise EmptyInput("no points given")
    if pts.ndim not in (1, 2):
        raise ValueError(f"points must be a 1-D or 2-D array, not {pts.ndim}-D")
    if not np.isfinite(pts).all():
        raise ValueError("points must have finite coordinates")
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    npts = pts.shape[0]
    if npts == 1:
        return 0.0
    in_tree = np.zeros(npts, dtype=bool)
    in_tree[0] = True
    best = np.linalg.norm(pts - pts[0], axis=1)
    best[0] = np.inf
    longest = 0.0
    for _ in range(npts - 1):
        j = int(np.argmin(np.where(in_tree, np.inf, best)))
        longest = max(longest, float(best[j]))
        in_tree[j] = True
        dists = np.linalg.norm(pts - pts[j], axis=1)
        best = np.minimum(best, dists)
    return longest
