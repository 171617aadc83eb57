"""Exact integer linear algebra: Smith Normal Form and lattice-span tests.

Everything here works on plain Python integers (arbitrary precision), so
unimodular products never overflow and the divisibility certificates are
exact.  Matrices are lists of row lists.

The central fact used by the bridge computation: integer vectors generate
all of Z^n exactly when a Hermite basis of their span has n unit pivots.
:class:`OnlineSnfState` keeps that basis as cycle-sum vectors arrive;
:func:`snf`, :func:`in_span` and :func:`spans_lattice` are its reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

IntMatrix = list[list[int]]


def _identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _copy(a) -> IntMatrix:
    return [[int(x) for x in row] for row in a]


@dataclass(frozen=True)
class SnfResult:
    """Decomposition L @ A @ R == D with L, R unimodular and D diagonal.

    ``factors`` is the full diagonal of D (length min(rows, cols)):
    nonnegative, each nonzero entry divides the next, zeros trailing.
    """

    l: IntMatrix
    d: IntMatrix
    r: IntMatrix
    factors: tuple[int, ...]


def snf(a: Sequence[Sequence[int]]) -> SnfResult:
    """Smith Normal Form of a nonempty integer matrix.

    Pivot-driven gcd reduction: row/column Euclidean elimination around each
    pivot, then a divisibility sweep that folds any non-divisible entry of
    the remaining submatrix into the pivot row.  Row operations are mirrored
    on L, column operations on R.
    """
    d = _copy(a)
    rows = len(d)
    if rows == 0 or len(d[0]) == 0:
        raise ValueError("snf requires a nonempty matrix")
    cols = len(d[0])
    if any(len(row) != cols for row in d):
        raise ValueError("ragged matrix")
    lm = _identity(rows)
    rm = _identity(cols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        lm[i], lm[j] = lm[j], lm[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in rm:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row_dst += q * row_src
        drow, srow = d[dst], d[src]
        for j in range(cols):
            drow[j] += q * srow[j]
        drow, srow = lm[dst], lm[src]
        for j in range(rows):
            drow[j] += q * srow[j]

    def add_col(dst, src, q):
        for row in d:
            row[dst] += q * row[src]
        for row in rm:
            row[dst] += q * row[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        lm[i] = [-x for x in lm[i]]

    for t in range(min(rows, cols)):
        # Smallest nonzero pivot candidate keeps intermediate entries small.
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = d[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            swap_rows(t, pivot[0])
        if pivot[1] != t:
            swap_cols(t, pivot[1])

        while True:
            # Euclidean elimination in column t.
            dirty = False
            for i in range(t + 1, rows):
                if d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    add_row(i, t, -q)
                    if d[i][t] != 0:
                        swap_rows(i, t)
                        dirty = True
            if dirty:
                continue
            # Column clean; eliminate along row t.
            dirty = False
            for j in range(t + 1, cols):
                if d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    add_col(j, t, -q)
                    if d[t][j] != 0:
                        swap_cols(j, t)
                        dirty = True
            if dirty:
                continue
            # Both clean; force the pivot to divide the whole submatrix so
            # the invariant-factor chain holds.
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if d[i][j] % d[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)

        if d[t][t] < 0:
            negate_row(t)

    factors = tuple(d[i][i] for i in range(min(rows, cols)))
    return SnfResult(l=lm, d=d, r=rm, factors=factors)


def spans_lattice(a: Sequence[Sequence[int]]) -> bool:
    """Do the columns of ``a`` (n rows) generate all of Z^n?

    True exactly when the matrix has n invariant factors equal to 1.
    """
    n = len(a)
    if n == 0:
        return False
    if len(a[0]) == 0:
        return False
    factors = snf(a).factors
    return sum(1 for f in factors if f == 1) == n


def in_span(a: Sequence[Sequence[int]], c: Sequence[int]) -> bool:
    """Is ``c`` an integer linear combination of the columns of ``a``?

    ``a`` has n rows and may have zero columns (then only c = 0 qualifies).
    Solved via SNF: A x = c has an integer solution iff D y = L c does,
    which reduces to componentwise divisibility plus zero residuals.
    """
    n = len(a)
    cv = [int(x) for x in c]
    if len(cv) != n:
        raise ValueError(f"vector has {len(cv)} entries, matrix has {n} rows")
    if n == 0 or len(a[0]) == 0:
        return all(x == 0 for x in cv)
    res = snf(a)
    lc = [sum(res.l[i][k] * cv[k] for k in range(n)) for i in range(n)]
    k = len(res.factors)
    for i in range(n):
        f = res.factors[i] if i < k else 0
        if f == 0:
            if lc[i] != 0:
                return False
        elif lc[i] % f != 0:
            return False
    return True


class OnlineSnfState:
    """Incrementally kept Hermite basis of the integer span of a growing set
    of vectors in Z^n (H. Cohen, *A Course in Computational Algebraic Number
    Theory*, GTM 138, Springer 1993, section 2.4).

    Row i, when present, is zero before column i and has a positive pivot
    there; entries above a pivot lie in [0, pivot), so they do not grow.
    The pivots are span invariants, so a vector changes the span exactly
    when it fills an empty pivot slot or shrinks (at least halves) a pivot,
    and the span is all of Z^n exactly when all n pivots are 1.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("dimension must be >= 1")
        self.n = n
        self._rows: list[Optional[list[int]]] = [None] * n

    def add(self, v: Sequence[int]) -> bool:
        """Absorb one vector; True iff the span changed."""
        b = [int(x) for x in v]
        if len(b) != self.n:
            raise ValueError(f"vector has {len(b)} entries, expected {self.n}")
        rows = self._rows
        changed = False
        for i, row in enumerate(rows):
            if b[i] == 0:
                continue
            if row is None:
                rows[i] = b if b[i] > 0 else [-x for x in b]
                changed = True
                break
            # Euclid by unimodular row steps on (row, b): a[i] stays positive
            # and ends as the gcd; a is row itself unless the pivot shrank
            a = row
            while True:
                q = b[i] // a[i]
                b = [x - q * y for x, y in zip(b, a)]
                if b[i] == 0:
                    break
                a, b = b, a
            changed = changed or a is not row
            rows[i] = a
        if changed:
            # entries above each pivot into [0, pivot), left to right
            for j, pivot in enumerate(rows):
                if pivot is None:
                    continue
                for r, row in enumerate(rows[:j]):
                    if row is not None and (q := row[j] // pivot[j]):
                        rows[r] = [x - q * y for x, y in zip(row, pivot)]
        return changed

    def is_complete(self) -> bool:
        """True iff the absorbed vectors generate all of Z^n."""
        return all(r is not None and r[i] == 1 for i, r in enumerate(self._rows))
