"""Independent check of a bridge length, sharing no code with the program.

For a periodic set (basis rows, fractional motif) and a claimed bridge
length b, :func:`check_beta` enumerates every edge class of length up to
b(1 + 1e-9) on the given cell and decides, with its own union-find and
sympy's Smith normal form, whether those edges connect the infinite set:
the motif classes must be connected and the cycle sums must span Z^n.  The
claim holds when that is so at b(1 + 1e-9) and fails below b(1 - 1e-9).

The enumeration is a box of translations bounded through the lattice-plane
spacings, so it is only cheap on a reduced cell; callers pass one.

:func:`expand_orbits` applies CIF symmetry operations to sites and merges
images closer than the 1e-3 fractional tolerance, giving the atom count the
program must report.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form
from sympy.polys.domains import ZZ

REL_TOL = 1e-9

#: Largest translation box the checker enumerates; beyond it the set is
#: checked against its analytic bridge length only.
MAX_TRANSLATIONS = 100_000

#: Wrap-aware fractional distance below which symmetry images merge.
MERGE_TOL = 1e-3


class CheckError(AssertionError):
    """A program output disagrees with the independent computation."""


def translation_box(basis: np.ndarray, frac: np.ndarray, length: float) -> list[range]:
    """Per-axis translation ranges that hold every edge of at most
    ``length`` between the motif points.

    Along axis k an edge advances |t_k + f_k(q) - f_k(p)| plane spacings
    h_k, so |t_k| <= length / h_k + w_k, with w_k the motif's extent along
    fractional axis k.
    """
    spacing = 1.0 / np.linalg.norm(np.linalg.inv(basis), axis=0)
    extent = frac.max(axis=0) - frac.min(axis=0)
    reach = np.floor(length / spacing * (1.0 + 1e-9) + extent + 1e-9).astype(int)
    return [range(-k, k + 1) for k in reach]


def box_size(basis, frac, length: float) -> int:
    frac = np.atleast_2d(np.asarray(frac, dtype=float))
    frac = frac - np.floor(frac)
    return math.prod(len(r) for r in translation_box(basis, frac, length))


def edge_classes(basis, frac, length):
    """All edge classes of length <= ``length``, one per lattice orbit.

    Returns (source, dest, translations, lengths): the edge joins motif
    point ``source`` to point ``dest`` shifted by the integer translation;
    source < dest, or source == dest with a lexicographically positive
    translation.
    """
    basis = np.asarray(basis, dtype=float)
    frac = np.asarray(frac, dtype=float)
    frac = frac - np.floor(frac)
    cart = frac @ basis
    m = len(cart)
    trans = np.array(list(itertools.product(*translation_box(basis, frac, length))))
    nonzero = trans != 0
    first = np.argmax(nonzero, axis=1)
    lex_positive = trans[np.arange(len(trans)), first] > 0
    src, dst, tix, lens = [], [], [], []
    chunk = max(1, 400_000 // max(1, m * m))
    for start in range(0, len(trans), chunk):
        shift = trans[start : start + chunk] @ basis
        d = cart[None, None, :, :] + shift[:, None, None, :] - cart[None, :, None, :]
        dist = np.sqrt((d * d).sum(axis=-1))
        t_idx, i, j = np.nonzero(dist <= length)
        t_idx = t_idx + start
        keep = (i < j) | ((i == j) & lex_positive[t_idx])
        src.append(i[keep])
        dst.append(j[keep])
        tix.append(t_idx[keep])
        lens.append(dist[t_idx[keep] - start, i[keep], j[keep]])
    return (
        np.concatenate(src),
        np.concatenate(dst),
        trans[np.concatenate(tix)],
        np.concatenate(lens),
    )


def connects(m: int, n: int, src, dst, trans) -> bool:
    """Do these edge classes connect the infinite periodic set?

    Union-find over motif classes, each vertex carrying the cell of its
    chosen lift; every edge closing a cycle contributes the translation by
    which the cycle fails to close.  The lift is connected exactly when the
    quotient is and those cycle sums generate Z^n.
    """
    parent = list(range(m))
    lift = [(0,) * n for _ in range(m)]

    def find(v):
        offset = (0,) * n
        path = []
        while parent[v] != v:
            path.append(v)
            v = parent[v]
        # offsets are relative to the parent; fold them onto the root
        for u in reversed(path):
            offset = tuple(a + b for a, b in zip(lift[u], offset))
        acc = offset
        for u in path:
            rel = lift[u]
            parent[u], lift[u] = v, acc
            acc = tuple(a - b for a, b in zip(acc, rel))
        return v, offset

    components = m
    sums = set()
    for i, j, t in zip(src.tolist(), dst.tolist(), trans.tolist()):
        ri, pi = find(i)
        rj, pj = find(j)
        # lift of i sits in cell pi relative to the root, of j in pj
        gap = tuple(a + b - c for a, b, c in zip(t, pi, pj))
        if ri != rj:
            parent[rj], lift[rj] = ri, gap
            components -= 1
        elif any(gap):
            sums.add(max(gap, tuple(-x for x in gap)))
    if components != 1 or len(sums) < n:
        return False
    factors = smith_normal_form(Matrix(sorted(sums)), domain=ZZ)
    return all(abs(factors[k, k]) == 1 for k in range(n))


def check_beta(basis, frac, beta: float) -> None:
    """Raise :class:`CheckError` unless ``beta`` is the bridge length."""
    basis = np.asarray(basis, dtype=float)
    n = basis.shape[0]
    m = len(np.atleast_2d(frac))
    hi, lo = beta * (1.0 + REL_TOL), beta * (1.0 - REL_TOL)
    src, dst, trans, lens = edge_classes(basis, np.atleast_2d(frac), hi)
    order = np.argsort(lens, kind="stable")
    src, dst, trans, lens = src[order], dst[order], trans[order], lens[order]
    if not connects(m, n, src, dst, trans):
        raise CheckError(f"edges up to {hi!r} do not connect the set")
    below = lens < lo
    if connects(m, n, src[below], dst[below], trans[below]):
        raise CheckError(f"edges shorter than {lo!r} already connect the set")


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def expand_orbits(sites: np.ndarray, ops) -> np.ndarray:
    """Images of every site under every operation, near-duplicates merged,
    in site-then-operation order."""
    kept = np.zeros((0, sites.shape[1]))
    for site in sites:
        for rot, trans in ops:
            img = rot @ site + trans
            img = img - np.floor(img)
            if len(kept):
                d = kept - img
                d -= np.round(d)
                if np.sqrt((d * d).sum(axis=1)).min() < MERGE_TOL:
                    continue
            kept = np.vstack([kept, img])
    return kept
