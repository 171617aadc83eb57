"""Brute-force reference for the bridge length, for tests and --verify.

Works directly from the definition: collect every inter-point distance up
to the cell bound r(U) on a finite patch of (2K+1)^n cells, then find the
smallest threshold t at which the patch graph with edges <= t satisfies

  (a) all central-cell motif points are mutually connected, and
  (b) central motif point 0 is connected to its translate by +v_i for
      every basis direction i.

Why (a) + (b) certify the infinite set: (b) gives, for each i, a finite
chain of hops <= t from a point p to p + v_i; translating that chain by any
lattice vector (hop lengths are translation-invariant) and concatenating
reaches p + v for every lattice vector v, and (a) connects the m motif
classes, so any two points of the infinite set are joined by hops <= t.
Conversely any certificate below t would make the infinite graph connected
below the true bridge length, impossible.  The patch must be large enough
that the witnessing chains are not clipped; K >= 2*ceil(aspect) + 3 leaves
that margin for the sets this oracle is meant for, and when no threshold
below r(U) certifies, the oracle raises rather than guessing.  A patch of
more than PATCH_CAP points raises at once: K grows with the aspect, so a
sheared cell of aspect 3e4 would need a patch of 2e15 cells.

Deliberately O((m K^n)^2)-ish and independent of the streaming
implementation: no shared code beyond the cell metrics.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import OracleInconclusive
from .geometry import PeriodicSet, cell_metrics

_SLACK = 1e-9

#: Most patch points the oracle builds.  On a shared 2-vCPU host, patches of
#: 48 668 and 89 373 points took 2.7 s and 14 s; the largest patch in the
#: test suite has 61 731 points (K = 9, n = 3, m = 9).
PATCH_CAP = 100_000


class _DisjointSet:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, v: int) -> int:
        p = self.parent
        root = v
        while p[root] != root:
            root = p[root]
        while p[v] != root:
            p[v], v = root, p[v]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


def min_patch_extent(pset: PeriodicSet) -> int:
    """Smallest patch half-width K the oracle accepts for this set."""
    return 2 * math.ceil(cell_metrics(pset.basis).aspect) + 3


def oracle_bridge_length(pset: PeriodicSet, k: int | None = None) -> float:
    """Definitional bridge length on a (2k+1)^n-cell patch.

    ``k`` defaults to the minimum accepted extent; smaller values are
    rejected because clipped patches could certify the wrong threshold.
    A patch of more than ``PATCH_CAP`` points raises OracleInconclusive
    before any work.
    """
    k_min = min_patch_extent(pset)
    if k is None:
        k = k_min
    if k < k_min:
        raise ValueError(f"patch extent {k} below required minimum {k_min}")

    n = pset.dim
    m = pset.motif_size
    points = (2 * k + 1) ** n * m
    if points > PATCH_CAP:
        raise OracleInconclusive(
            f"the (2*{k}+1)^{n} patch of {points} points is over the cap of "
            f"{PATCH_CAP}; the cell's aspect is too high for the oracle"
        )
    cart = pset.cartesian_motif
    basis = pset.basis.vectors
    metrics = cell_metrics(pset.basis)
    cutoff = metrics.r_upper * (1.0 + _SLACK)

    # Candidate thresholds: one per translation class (i, j, delta) with
    # length <= r(U).  Classes with L-inf(delta) > ceil(aspect)+1 are
    # provably longer than r(U) and need not be scanned.
    w = math.ceil(metrics.aspect) + 1
    classes = []
    for delta in itertools.product(range(-w, w + 1), repeat=n):
        shift = np.asarray(delta, dtype=float) @ basis
        disp = cart[None, :, :] + shift - cart[:, None, :]
        lengths = np.linalg.norm(disp, axis=2)
        for i in range(m):
            for j in range(m):
                if i == j and all(c == 0 for c in delta):
                    continue
                d = float(lengths[i, j])
                if d <= cutoff:
                    classes.append((d, i, j, delta))
    classes.sort()

    # Patch indexing: cells in lexicographic order, m points per cell.
    cell_list = list(itertools.product(range(-k, k + 1), repeat=n))
    cell_rank = {c: r for r, c in enumerate(cell_list)}

    def point_index(cell, motif_idx):
        return cell_rank[cell] * m + motif_idx

    dsu = _DisjointSet(len(cell_list) * m)
    central = cell_rank[(0,) * n] * m
    unit_cells = [tuple(int(x) for x in np.eye(n, dtype=int)[i]) for i in range(n)]

    def certified() -> bool:
        root0 = dsu.find(central)
        for i in range(1, m):
            if dsu.find(central + i) != root0:
                return False
        for c in unit_cells:
            if dsu.find(point_index(c, 0)) != root0:
                return False
        return True

    lo = [-k] * n
    hi = [k] * n
    for d, i, j, delta in classes:
        # Place every patch occurrence of this class: source cell t must
        # keep both t and t+delta inside the patch box.
        ranges = [
            range(max(lo[ax], lo[ax] - delta[ax]), min(hi[ax], hi[ax] - delta[ax]) + 1)
            for ax in range(n)
        ]
        for t in itertools.product(*ranges):
            u = point_index(t, i)
            v = point_index(tuple(t[ax] + delta[ax] for ax in range(n)), j)
            dsu.union(u, v)
        if certified():
            return d
    raise OracleInconclusive(
        f"no threshold <= r(U) = {metrics.r_upper:.6g} certified connectivity "
        f"on the (2*{k}+1)^{n} patch"
    )
