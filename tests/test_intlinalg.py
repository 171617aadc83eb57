"""Tests for exact integer linear algebra (SNF, spans, online updates)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgelen import OnlineSnfState, in_span, snf, spans_lattice
from conftest import det, matmul, span_factors


def random_matrix(rng, rows, cols, bound=9):
    return [[int(rng.integers(-bound, bound + 1)) for _ in range(cols)] for _ in range(rows)]


def check_decomposition(a):
    res = snf(a)
    rows, cols = len(a), len(a[0])
    assert matmul(res.l, matmul([list(r) for r in a], res.r)) == res.d
    assert abs(det(res.l)) == 1
    assert abs(det(res.r)) == 1
    # diagonal form
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert res.d[i][j] == 0
    # nonnegative factors, divisibility chain, zeros trailing
    f = res.factors
    assert len(f) == min(rows, cols)
    assert all(x >= 0 for x in f)
    for x, y in zip(f, f[1:]):
        if x == 0:
            assert y == 0
        elif y != 0:
            assert y % x == 0
    return res


class TestSnf:
    def test_rotation_matrix(self):
        # the 2x2 matrix with columns (0,1) and (-1,0)
        assert snf([[0, -1], [1, 0]]).factors == (1, 1)

    def test_wide_matrix_with_unit_span(self):
        # columns (1,0), (0,2), (0,3): their differences reach (0,1)
        assert snf([[1, 0, 0], [0, 2, 3]]).factors == (1, 1)

    def test_diagonal_chain(self):
        res = snf([[2, 0], [0, 4]])
        assert res.factors == (2, 4)
        assert res.factors[1] % res.factors[0] == 0

    def test_zero_matrix(self):
        assert snf([[0, 0], [0, 0]]).factors == (0, 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            snf([])
        with pytest.raises(ValueError):
            snf([[]])

    def test_non_integer_entries_are_refused(self):
        # they were truncated: factors (1, 2)
        with pytest.raises(TypeError):
            snf([[1.5, 0], [0, 2.7]])
        assert snf(np.array([[2, 0], [0, 3]], dtype=np.int64)).factors == (1, 6)

    def test_known_textbook_example(self):
        # gcd of all entries is 2, so the first factor is 2
        res = check_decomposition([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert res.factors[0] == 2

    def test_random_decompositions(self):
        rng = np.random.default_rng(21)
        for _ in range(2000):
            rows = int(rng.integers(1, 7))
            cols = int(rng.integers(1, 7))
            check_decomposition(random_matrix(rng, rows, cols))

    def test_factors_match_independent_implementation(self):
        from sympy import Matrix, ZZ
        from sympy.matrices.normalforms import invariant_factors

        rng = np.random.default_rng(28)
        for _ in range(300):
            rows = int(rng.integers(1, 6))
            cols = int(rng.integers(1, 6))
            a = random_matrix(rng, rows, cols, bound=7)
            mine = tuple(f for f in snf(a).factors if f)
            theirs = tuple(abs(int(f)) for f in invariant_factors(Matrix(a), domain=ZZ) if f)
            assert mine == theirs


class TestSpansLattice:
    def test_collinear_columns_do_not_span(self):
        assert not spans_lattice([[0, 0], [2, 3]])

    def test_identity_spans(self):
        assert spans_lattice([[1, 0], [0, 1]])

    def test_even_column_does_not_span(self):
        assert not spans_lattice([[2, 0], [0, 1]])

    def test_three_columns_span(self):
        assert spans_lattice([[1, 0, 0], [0, 2, 3]])

    def test_empty_columns(self):
        assert not spans_lattice([[], []])


class TestInSpan:
    def test_empty_matrix(self):
        assert in_span([[], []], [0, 0])
        assert not in_span([[], []], [1, 0])

    def test_single_column_multiples(self):
        a = [[0], [1]]
        assert in_span(a, [0, 3])
        assert not in_span(a, [1, 0])

    def test_non_integer_vector_is_refused(self):
        # it was truncated to (0, 0), which is in every span
        with pytest.raises(TypeError):
            in_span([[1, 0], [0, 1]], [0.5, 0.5])
        assert in_span([[2, 0], [0, 1]], np.array([4, 7], dtype=np.int32))

    def test_divisibility_blocks(self):
        a = [[2, 0], [0, 1]]
        assert not in_span(a, [3, 0])
        assert in_span(a, [4, 7])

    def test_against_brute_force(self):
        # Enumeration over a coefficient box can certify membership but not
        # non-membership (witnesses may need large coefficients, e.g. for
        # unimodular matrices), so the two directions are checked
        # separately: constructed combinations must be accepted, and a
        # found witness forces acceptance.
        rng = np.random.default_rng(22)
        for _ in range(1000):
            n = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            a = random_matrix(rng, n, k, bound=3)
            x = [int(rng.integers(-10, 11)) for _ in range(k)]
            combo = [sum(a[i][j] * x[j] for j in range(k)) for i in range(n)]
            assert in_span(a, combo)

            c = [int(rng.integers(-4, 5)) for _ in range(n)]
            witness_found = any(
                all(
                    sum(a[i][j] * y[j] for j in range(k)) == c[i]
                    for i in range(n)
                )
                for y in itertools.product(range(-10, 11), repeat=k)
            )
            if witness_found:
                assert in_span(a, c)

    def test_against_independent_snf_implementation(self):
        # sound in both directions: sympy's Smith decomposition is an
        # independently written SNF; run the same divisibility criterion
        # through it
        from sympy import Matrix, ZZ
        from sympy.matrices.normalforms import smith_normal_decomp

        def sympy_in_span(a, c):
            d, s, t = smith_normal_decomp(Matrix(a), domain=ZZ)
            sc = s * Matrix(len(c), 1, list(c))
            rows, cols = d.shape
            for i in range(rows):
                f = d[i, i] if i < cols else 0
                if f == 0:
                    if sc[i] != 0:
                        return False
                elif sc[i] % f != 0:
                    return False
            return True

        rng = np.random.default_rng(27)
        rejected = 0
        for _ in range(400):
            n = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            a = random_matrix(rng, n, k, bound=3)
            c = [int(rng.integers(-4, 5)) for _ in range(n)]
            expected = sympy_in_span(a, c)
            assert in_span(a, c) == expected
            rejected += not expected
        assert rejected > 20  # both outcomes exercised


class TestOnlineSnf:
    def test_single_vector(self):
        state = OnlineSnfState(2)
        assert state.add([0, 1]) is True
        assert span_factors(state) == [1]
        assert not state.is_complete()

    def test_multiple_of_generator_ignored(self):
        state = OnlineSnfState(2)
        state.add([0, 1])
        assert state.add([0, -3]) is False
        assert span_factors(state) == [1]

    def test_completion(self):
        state = OnlineSnfState(2)
        state.add([0, 1])
        state.add([0, -3])
        assert state.add([-1, 0]) is True
        assert span_factors(state) == [1, 1]
        assert state.is_complete()

    def test_zero_vector_never_changes(self):
        state = OnlineSnfState(3)
        assert state.add([0, 0, 0]) is False
        state.add([1, 2, 3])
        assert state.add([0, 0, 0]) is False

    @pytest.mark.parametrize("vector", [[0.5, 1], [1.9, 0], np.array([1.0, 0.0])])
    def test_non_integer_vector_is_refused(self, vector):
        # truncated, [0.5, 1] changed the span and [1.9, 0] completed it
        state = OnlineSnfState(2)
        state.add([0, 1])
        with pytest.raises(TypeError):
            state.add(vector)
        assert state._rows == [None, [0, 1]]
        assert not state.is_complete()
        assert state.add(np.array([1, 0], dtype=np.int64)) is True
        assert state.is_complete()

    def test_incomplete_with_even_factors(self):
        state = OnlineSnfState(2)
        state.add([2, 0])
        state.add([0, 2])
        assert span_factors(state) == [2, 2]
        assert not state.is_complete()

    def test_factor_shrinks_on_divisibility_conflict(self):
        state = OnlineSnfState(2)
        state.add([2, 0])
        state.add([0, 4])
        assert sorted(span_factors(state)) == [2, 4]
        assert state.add([4, 2]) is True
        assert sorted(span_factors(state)) == [2, 2]

    def test_batch_online_agreement(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            count = int(rng.integers(1, 9))
            vectors = [
                [int(rng.integers(-6, 7)) for _ in range(n)] for _ in range(count)
            ]
            state = OnlineSnfState(n)
            for v in vectors:
                state.add(v)
            # batch reference: vectors as columns of an n x count matrix
            batch = [[vectors[j][i] for j in range(count)] for i in range(n)]
            expected = [f for f in snf(batch).factors if f != 0]
            assert span_factors(state) == expected

    def test_changed_matches_span_membership(self):
        # up to 8-D, the dimensions the bridge driver runs.  Three kinds of
        # stream: random entries in [-50, 50]; a falling power of two ahead
        # of small entries, so the first pivot halves on every vector; and
        # random draws mixed with combinations of earlier vectors, so
        # in-span vectors arrive before the span is complete
        rng = np.random.default_rng(24)
        kinds = [0, 0, 0]
        for _ in range(300):
            n = int(rng.integers(1, 9))
            count = int(rng.integers(1, 21))
            kind = int(rng.integers(0, 3))
            kinds[kind] += 1
            state = OnlineSnfState(n)
            vectors, accepted = [], []
            for j in range(count):
                if kind == 1:
                    v = [2 ** (count - j)] + [
                        int(rng.integers(-3, 4)) for _ in range(n - 1)
                    ]
                elif kind == 2 and vectors and rng.random() < 0.5:
                    coef = [int(rng.integers(-3, 4)) for _ in vectors]
                    v = [sum(c * w[i] for c, w in zip(coef, vectors)) for i in range(n)]
                else:
                    v = [int(rng.integers(-50, 51)) for _ in range(n)]
                cols = [[a[i] for a in accepted] for i in range(n)]
                was_in_span = in_span(cols, v)
                changed = state.add(v)
                assert changed == (not was_in_span)
                if changed:
                    accepted.append(v)
                vectors.append(v)
                # the accepted vectors span what the whole stream does
                # (checked above); they are fewer columns for the reference
                # SNF, whose entries can grow without bound on wide matrices
                batch = [[a[i] for a in accepted] for i in range(n)]
                assert state.is_complete() == spans_lattice(batch)
        assert min(kinds) > 50

    def test_basis_stays_in_hermite_form(self):
        # falling powers of two times one vector make an unreduced echelon
        # basis grow past 10^5-bit entries; the Hermite form keeps every
        # entry above a pivot in [0, pivot)
        rng = np.random.default_rng(29)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            count = int(rng.integers(1, 21))
            base = [int(rng.integers(-50, 51)) for _ in range(n)]
            state = OnlineSnfState(n)
            for j in range(count):
                noise = [int(rng.integers(-1, 2)) for _ in range(n)]
                state.add([2 ** (count - j) * (x + y) for x, y in zip(base, noise)])
                for i, row in enumerate(state._rows):
                    if row is None:
                        continue
                    assert all(x == 0 for x in row[:i]) and row[i] > 0
                    for k in range(i + 1, n):
                        pivot = state._rows[k]
                        if pivot is not None:
                            assert 0 <= row[k] < pivot[k]

    @given(
        st.integers(1, 8).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.lists(st.integers(-50, 50), min_size=n, max_size=n), max_size=12),
                st.lists(st.integers(-4, 4), min_size=12, max_size=12),
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_spanned_vectors_leave_the_basis_alone(self, case):
        # the bridge driver offers each cycle sum once: a repeat, its
        # negation and any integer combination of accepted vectors must be
        # rejected without touching the basis
        n, vectors, coef = case
        state = OnlineSnfState(n)
        accepted = [v for v in vectors if state.add(v)]
        rows = [None if r is None else list(r) for r in state._rows]
        combination = [
            sum(c * v[i] for c, v in zip(coef, accepted)) for i in range(n)
        ]
        for v in [*accepted, *([-x for x in v] for v in accepted), combination]:
            assert state.add(v) is False
            assert state._rows == rows

    def test_factors_never_increase(self):
        rng = np.random.default_rng(25)
        for _ in range(300):
            n = int(rng.integers(1, 5))
            state = OnlineSnfState(n)
            prev = []
            for _ in range(10):
                state.add([int(rng.integers(-6, 7)) for _ in range(n)])
                cur = span_factors(state)
                for i, old in enumerate(prev):
                    assert cur[i] <= old
                prev = list(cur)


class TestDet:
    def test_known_values(self):
        assert det([[1]]) == 1
        assert det([[2, 0], [0, 3]]) == 6
        assert det([[0, 1], [1, 0]]) == -1
        assert det([[1, 2], [2, 4]]) == 0

    def test_against_numpy(self):
        rng = np.random.default_rng(26)
        for _ in range(300):
            n = int(rng.integers(1, 6))
            a = random_matrix(rng, n, n, bound=6)
            assert det(a) == round(float(np.linalg.det(np.array(a, dtype=float))))
