"""Tests for periodic-set types and cell metrics."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgelen import (
    DegenerateCell,
    InvalidScale,
    LatticeBasis,
    Motif,
    PeriodicSet,
    cell_metrics,
)
from bridgelen import geometry
from bridgelen.geometry import (
    CellMetrics,
    _float_range,
    change_basis,
    reduce_basis,
    row_norms,
    stacked_cell_metrics,
    wrap_fractional,
    wrapped_delta,
)

from conftest import (
    FIXTURES,
    make_set,
    random_basis,
    random_motif,
    random_unimodular,
    sheared_bcc,
)


def brute_force_longest_diagonal(vectors: np.ndarray) -> float:
    """Independent oracle: max norm over all 2^n signed sums."""
    n = vectors.shape[0]
    best = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=n):
        best = max(best, float(np.linalg.norm(np.asarray(signs) @ vectors)))
    return best


def brute_force_facet_volume(vectors: np.ndarray, drop: int) -> float:
    """Independent oracle: sqrt(det Gram) of all vectors except one."""
    rest = np.delete(vectors, drop, axis=0)
    if rest.shape[0] == 0:
        return 1.0
    return math.sqrt(np.linalg.det(rest @ rest.T))


def loop_cell_metrics(basis: LatticeBasis) -> CellMetrics:
    """Reference: the cell metrics as one loop step per diagonal and per
    facet, the form the stacked array calls must match bit for bit."""
    v = basis.vectors
    n = basis.dim
    with _float_range(v):
        b = float(np.max(row_norms(v)))
        d = 0.0
        for signs in itertools.product((1.0, -1.0), repeat=n - 1):
            diag = v[0] + (np.asarray(signs) @ v[1:] if n > 1 else 0.0)
            d = max(d, float(row_norms(diag)))
        vol = abs(float(np.linalg.det(v)))
        volumes = np.empty(n)
        for i in range(n):
            rest = np.delete(v, i, axis=0)
            gram = rest @ rest.T
            volumes[i] = np.sqrt(max(float(np.linalg.det(gram)), 0.0)) if n > 1 else 1.0
        heights = vol / volumes
        h = float(np.min(heights))
        r_upper = max(b, d / 2.0)
        return CellMetrics(b, d, vol, h, r_upper, r_upper / h, tuple(heights.tolist()))


def metrics_or_error(basis: LatticeBasis, fn):
    """Every field of ``fn(basis)`` by ``float.hex``, or the DegenerateCell
    message."""
    try:
        m = fn(basis)
    except DegenerateCell as exc:
        return str(exc)
    return [x.hex() for x in (m.b, m.d, m.vol, m.h, m.r_upper, m.aspect, *m.heights)]


def assert_stacked_pass_matches(basis: LatticeBasis, u) -> None:
    """The one pass over [B, U B] gives each cell's metrics bit for bit as
    cell_metrics and the loop form give them alone, and raises
    DegenerateCell iff either cell leaves the float range (U B entries
    rounded once from their exact values, as change_basis rounds them).
    A U B too flat to be a LatticeBasis is no input of the pass."""
    cells = np.stack([basis.vectors, fraction_product(u, basis.vectors)])
    alone = []
    for v in cells:
        try:
            cell = LatticeBasis(v)
        except DegenerateCell as exc:
            if "singular" in str(exc):
                return
            alone.append(str(exc))
            continue
        alone.append(metrics_or_error(cell, cell_metrics))
        assert alone[-1] == metrics_or_error(cell, loop_cell_metrics)
    try:
        stacked = stacked_cell_metrics(cells)
    except DegenerateCell as exc:
        assert "outside the floating-point range" in str(exc)
        assert any(isinstance(one, str) for one in alone)
    else:
        assert [metrics_or_error(None, lambda _: m) for m in stacked] == alone


@st.composite
def norm_inputs(draw):
    """A float array of rows of n = 1-8 entries, 1-D, (rows, n) or (k,
    rows, n), whose magnitudes spread over up to 300 decades, with zeros,
    negative zeros and subnormals mixed in; every square sum stays finite."""
    n = draw(st.integers(1, 8))
    rows = draw(st.sampled_from([1, 2, 3, 7, 8, 9, 64, 881, 2000]))
    lead = draw(st.sampled_from([(), (rows,), (draw(st.integers(1, 3)), rows)]))
    shape = (*lead, n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    decades = draw(st.sampled_from([0, 1, 16, 300]))
    a = rng.standard_normal(shape) * 10.0 ** rng.uniform(-decades / 2, decades / 2, shape)
    special = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e-308])
    mask = rng.random(shape) < draw(st.sampled_from([0.0, 0.2]))
    a[mask] = rng.choice(special, size=int(mask.sum()))
    return a


def strided_copies(a: np.ndarray):
    """``a`` in other memory layouts: Fortran order, every other element
    of a larger array, and reversed twice (negative strides)."""
    every_other = tuple(slice(None, None, 2) for _ in a.shape)
    big = np.zeros(tuple(2 * k for k in a.shape))
    big[every_other] = a
    flipped = np.flip(np.flip(a).copy())
    return np.asfortranarray(a), big[every_other], flipped


class TestRowNorms:
    """``row_norms`` sums the squared columns in a fixed order, the one
    NumPy's contiguous ``(a * a).sum(axis=-1)`` takes."""

    @settings(max_examples=300, deadline=None)
    @given(norm_inputs())
    def test_bits_equal_numpy_sum(self, a):
        want = np.sqrt((a * a).sum(axis=-1))
        got = row_norms(a)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(norm_inputs())
    def test_layout_does_not_change_a_norm(self, a):
        want = row_norms(np.ascontiguousarray(a)).tobytes()
        for copy in strided_copies(a):
            assert np.array_equal(copy, a)
            assert row_norms(copy).tobytes() == want

    def test_eight_columns_sum_as_a_tree(self):
        # on same-magnitude rows the order shows: the tree of pairs gives
        # every norm, and left to right misses some
        a = np.random.default_rng(5).standard_normal((400, 8))
        c = list((a * a).T)
        tree = ((c[0] + c[1]) + (c[2] + c[3])) + ((c[4] + c[5]) + (c[6] + c[7]))
        left = c[0]
        for column in c[1:]:
            left = left + column
        assert row_norms(a).tobytes() == np.sqrt(tree).tobytes()
        assert not np.array_equal(np.sqrt(left), np.sqrt(tree))

    def test_integer_rows(self):
        assert row_norms(np.array([[3, 4], [0, 0]])).tolist() == [5.0, 0.0]

    def test_empty_rows_have_norm_zero(self):
        # as the sum of no squares: two points of a 0-D motif coincide
        assert row_norms(np.zeros((3, 0))).tolist() == [0.0, 0.0, 0.0]
        with pytest.raises(ValueError, match="coincide"):
            Motif(np.zeros((2, 0)))


class TestCellMetrics:
    def test_unit_cube(self):
        m = cell_metrics(LatticeBasis(np.eye(3)))
        assert m.b == 1.0
        assert m.d == pytest.approx(math.sqrt(3), rel=1e-15)
        assert m.vol == pytest.approx(1.0)
        assert m.h == pytest.approx(1.0)
        assert m.r_upper == 1.0
        assert m.aspect == pytest.approx(1.0)

    def test_rectangular_1_by_2(self):
        m = cell_metrics(LatticeBasis([[1.0, 0.0], [0.0, 2.0]]))
        assert m.b == 2.0
        assert m.d == pytest.approx(math.sqrt(5), rel=1e-15)
        assert m.vol == pytest.approx(2.0)
        assert m.h == pytest.approx(1.0)
        assert m.r_upper == 2.0
        assert m.aspect == pytest.approx(2.0)

    def test_sheared_cell_height(self):
        basis = LatticeBasis([[1.0, 0.0], [1.0, 1.0]])
        m = cell_metrics(basis)
        assert m.vol == pytest.approx(1.0)
        # facet volume oracle: longest facet is |(1,1)| = sqrt(2)
        vols = [brute_force_facet_volume(basis.vectors, i) for i in range(2)]
        assert max(vols) == pytest.approx(math.sqrt(2))
        assert m.h == pytest.approx(1.0 / math.sqrt(2))

    def test_one_dimensional_cell(self):
        m = cell_metrics(LatticeBasis([[2.0]]))
        assert m.b == 2.0
        assert m.d == 2.0
        assert m.h == 2.0
        assert m.r_upper == 2.0

    def test_diagonal_against_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            basis = random_basis(rng, n, max_aspect=10.0)
            m = cell_metrics(basis)
            assert m.d == pytest.approx(
                brute_force_longest_diagonal(basis.vectors), rel=1e-12
            )

    def test_heights_against_facet_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            basis = random_basis(rng, n, max_aspect=10.0)
            vol = abs(np.linalg.det(basis.vectors))
            expected = [
                vol / brute_force_facet_volume(basis.vectors, i) for i in range(n)
            ]
            assert cell_metrics(basis).heights == pytest.approx(expected, rel=1e-9)

    def test_metrics_carry_the_facet_heights(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            basis = random_basis(rng, int(rng.integers(1, 9)), max_aspect=10.0)
            m = cell_metrics(basis)
            assert m.h == min(m.heights)

    def test_order_invariants_on_random_bases(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            n = int(rng.integers(2, 4))
            m = cell_metrics(random_basis(rng, n, max_aspect=50.0))
            assert m.vol > 0
            assert m.d >= m.b
            assert m.r_upper >= m.h
            assert m.aspect >= 0.5
            # height never exceeds any basis vector length
            assert m.h <= m.b + 1e-12

    def test_scaling_law(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            basis = random_basis(rng, int(rng.integers(1, 4)), max_aspect=10.0)
            c = float(rng.uniform(0.2, 5.0))
            m1 = cell_metrics(basis)
            m2 = cell_metrics(LatticeBasis(basis.vectors * c))
            for attr in ("b", "d", "h", "r_upper"):
                assert getattr(m2, attr) == pytest.approx(
                    c * getattr(m1, attr), rel=1e-12
                )
            assert m2.aspect == pytest.approx(m1.aspect, rel=1e-12)

    @given(
        st.integers(1, 8),
        st.integers(0, 2**32 - 1),
        st.floats(-170.0, 170.0),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_loop_form_bit_for_bit(self, n, seed, exponent, coarse):
        # random shapes at scales from 1e-170 to 1e170: past about 1e+-22
        # (n = 8) to 1e+-77 (n = 3) the metrics leave the float range, and
        # the same bases must still raise DegenerateCell
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(n, n))
        if coarse:  # exact entries, so sums of diagonals tie
            vectors = np.round(vectors * 4) / 4
        try:
            basis = LatticeBasis(vectors * 10.0**exponent)
        except (DegenerateCell, ValueError):
            return
        assert metrics_or_error(basis, cell_metrics) == metrics_or_error(
            basis, loop_cell_metrics
        )

    @given(
        st.integers(1, 8),
        st.integers(0, 2**32 - 1),
        st.floats(-170.0, 170.0),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_stacked_pass_matches_one_cell_calls(self, n, seed, exponent, reduce):
        # a cell B and another basis U B of its lattice, U from the
        # reduction or a random shear, at scales from 1e-170 to 1e170
        rng = np.random.default_rng(seed)
        try:
            basis = LatticeBasis(rng.normal(size=(n, n)) * 10.0**exponent)
        except (DegenerateCell, ValueError):
            return
        if reduce:
            u = reduce_basis(basis.vectors)[0]
        else:
            u = random_unimodular(rng, n, steps=n, reach=3)
        assert_stacked_pass_matches(basis, u)

    def test_stacked_pass_refuses_a_reduced_cell_outside_the_float_range(self):
        # b3 - 5 b1 = (0, 5 a' - 5 a, 1) has an entry of 1e-165, whose
        # square underflows: B computes, U B does not, and neither does
        # the pair
        a = 1e-150
        basis = LatticeBasis([[1, a, 0], [0, 1, 0], [5, 5 * math.nextafter(a, 1), 1]])
        u = reduce_basis(basis.vectors)[0]
        assert not np.array_equal(u, np.eye(3))
        assert_stacked_pass_matches(basis, u)
        cells = np.stack([basis.vectors, fraction_product(u, basis.vectors)])
        with pytest.raises(DegenerateCell, match="outside the floating-point range"):
            stacked_cell_metrics(cells)

    @pytest.mark.parametrize(
        "n, scale", [(3, 1e80), (3, 1e-80), (8, 1e25), (8, 1e-25), (4, 1e60)]
    )
    def test_cells_outside_the_float_range_still_raise(self, n, scale):
        basis = LatticeBasis(np.eye(n) * scale)
        for fn in (cell_metrics, loop_cell_metrics):
            with pytest.raises(DegenerateCell, match="outside the floating-point range"):
                fn(basis)

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 4))
            basis = random_basis(rng, n, max_aspect=10.0)
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            m1 = cell_metrics(basis)
            m2 = cell_metrics(LatticeBasis(basis.vectors @ q))
            for attr in ("b", "d", "vol", "h", "r_upper", "aspect"):
                assert getattr(m2, attr) == pytest.approx(
                    getattr(m1, attr), rel=1e-9
                )


class TestLatticeBasis:
    def test_rejects_singular(self):
        with pytest.raises(DegenerateCell):
            LatticeBasis([[1.0, 0.0], [2.0, 0.0]])

    def test_rejects_near_singular(self):
        with pytest.raises(DegenerateCell):
            LatticeBasis([[1.0, 0.0], [1.0, 1e-14]])

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            LatticeBasis(np.eye(9))
        with pytest.raises(ValueError):
            LatticeBasis(np.zeros((0, 0)))
        with pytest.raises(ValueError):
            LatticeBasis([[1.0, 0.0]])

    def test_vectors_are_immutable(self):
        basis = LatticeBasis(np.eye(2))
        with pytest.raises(ValueError):
            basis.vectors[0, 0] = 2.0


class TestMotif:
    def test_canonicalizes_mod_one(self):
        m = Motif([[1.25, -0.25]])
        assert np.allclose(m.points, [[0.25, 0.75]])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="coincide"):
            Motif([[0.1, 0.2], [0.1, 0.2]])

    def test_random_motif_gives_up_on_a_hopeless_draw(self):
        # 29 points 0.05 apart cannot fit on a circle of length 1: packing
        # rules it out before any draw
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"no 29 points in 1-D pairwise 0\.05"):
            random_motif(rng, 1, 29)
        assert rng.bit_generator.state == state

    def test_random_motif_gives_up_after_its_draws(self, monkeypatch):
        # 12 points in 1-D fit, but the first two draws of this seed fail
        import conftest

        monkeypatch.setattr(conftest, "MOTIF_DRAWS", 2)
        message = r"no 12 points in 1-D pairwise 0\.05 .* 2 draws"
        with pytest.raises(ValueError, match=message):
            random_motif(np.random.default_rng(0), 1, 12)

    def test_rejects_wrap_duplicates(self):
        with pytest.raises(ValueError, match="coincide"):
            Motif([[0.0, 0.0], [1e-10, 1.0 - 1e-10]])

    def test_reports_first_coincident_pair_in_row_order(self):
        # (1, 3) coincide across the wrap and (2, 3) inside the cell, while
        # (1, 2) are 0.12 apart: the first pair in row-major order is (1, 3)
        message = r"motif points 1 and 3 coincide within 0\.1$"
        with pytest.raises(ValueError, match=message):
            Motif([[0.5], [0.96], [0.08], [0.02]], dedup_tol=0.1)

    @staticmethod
    def assert_first_pair(pts, tol):
        # reference: every pair's norm, the first hit in row-major order
        arr = wrap_fractional(pts)
        dist = np.linalg.norm(wrapped_delta(arr[:, None], arr[None]), axis=-1)
        hits = np.argwhere(np.triu(dist < tol, k=1))
        first = tuple(int(x) for x in hits[0]) if len(hits) else None
        if first is None:
            assert np.array_equal(Motif(pts, dedup_tol=tol).points, arr)
        else:
            message = f"motif points {first[0]} and {first[1]} "
            with pytest.raises(ValueError, match=message):
                Motif(pts, dedup_tol=tol)
        return first

    def test_matches_pairwise_reference(self):
        rng = np.random.default_rng(31)
        tol = 0.05
        for _ in range(300):
            m = int(rng.integers(2, 25))
            pts = rng.integers(0, 6, (m, 2)) / 6 + rng.normal(0, 0.03, (m, 2))
            self.assert_first_pair(pts, tol)

    def test_matches_pairwise_reference_beyond_one_block(self):
        # more than 64 points; a planted near pair (i, j) lands anywhere,
        # including past the first 64 rows
        rng = np.random.default_rng(32)
        tol = 0.004
        firsts = []
        for _ in range(16):
            m = int(rng.integers(64 + 2, 2 * 64 + 40))
            pts = rng.random((m, 3))
            if rng.random() < 0.75:
                i, j = sorted(rng.choice(m, 2, replace=False))
                pts[j] = pts[i] + rng.normal(0, tol / 4, 3) + rng.integers(-1, 2, 3)
            firsts.append(self.assert_first_pair(pts, tol))
        assert None in firsts
        assert any(f is not None and f[0] >= 64 for f in firsts)

    @given(
        st.integers(2, 300),
        st.integers(1, 4),
        st.floats(-12.0, math.log10(0.45)),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["wrap", "ties", "p-wrap", "p-ties", "line", "near", "all"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_pairwise_reference_where_the_sort_can_go_wrong(
        self, m, n, log_tol, seed, kind
    ):
        # the check sorts the projection p = (x + 3 y + 7 z) mod 1 and tests
        # a window there: draw points on a line p does not see, on both
        # sides of the wrap of p and of the first axis, ties in either, and
        # planted near-duplicates from 1e-12 to 1e-3 apart, at tolerances
        # from 1e-12 to 0.45
        rng = np.random.default_rng(seed)
        pts = rng.random((m, n))
        weights = np.array([1.0, 3.0, 7.0])[:n]

        def put_p(rows, p):
            # first coordinates giving these rows the projection p
            pts[rows, 0] = (p - pts[rows, 1:3] @ weights[1:]) % 1.0

        if kind in ("line", "all") and n > 1:
            # w . (1, 2, -1) = 0 and w . (3, -1) = 0
            direction = np.zeros(n)
            direction[:3] = (1.0, 2.0, -1.0) if n > 2 else (3.0, -1.0)
            pts = pts[0] + rng.random((m, 1)) * direction
        if kind in ("wrap", "all"):
            side = rng.random(m) < 0.4
            pts[side, 0] = rng.choice([0.0, 1.0 - 1e-12], int(side.sum()))
        if kind in ("ties", "all"):
            pts[:, 0] = rng.choice(pts[: max(1, m // 8), 0], m)
        if kind in ("p-wrap", "all"):
            side = rng.random(m) < 0.4
            put_p(side, rng.choice([0.0, 1.0 - 1e-12], m)[side])
        if kind in ("p-ties", "all"):
            put_p(slice(None), rng.choice(rng.random(max(1, m // 8)), m))
        if kind in ("near", "all"):
            for _ in range(int(rng.integers(1, 4))):
                i, j = rng.choice(m, 2, replace=False)
                step = rng.normal(size=n)
                step *= 10.0 ** rng.uniform(-12, -3) / np.linalg.norm(step)
                pts[j] = pts[i] + step + rng.integers(-1, 2, n)
        self.assert_first_pair(pts, 10.0**log_tol)

    @given(
        st.integers(1, 120),
        st.integers(1, 4),
        st.floats(-12.0, math.log10(0.45)),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_coincident_pairs_are_every_pair_once_by_later_row(
        self, m, n, log_tol, seed
    ):
        # grid points plus noise: at the wide tolerances the window spans
        # more than half a turn, so a pair is a candidate from both ends
        rng = np.random.default_rng(seed)
        grid = rng.integers(0, 4, (m, n)) / 4
        pts = wrap_fractional(grid + rng.normal(0, 0.01, (m, n)))
        tol = 10.0**log_tol
        near = row_norms(wrapped_delta(pts[:, None], pts[None])) < tol
        expected = [(i, j) for j in range(m) for i in range(j) if near[i, j]]
        i, j = geometry.coincident_pairs(pts, tol)
        assert list(zip(i.tolist(), j.tolist())) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_pair_along_the_weights_is_found(self, n):
        # a difference along w = (1, 3, 7) moves p by |w| times its norm,
        # the most a pair within tol can: the window must reach that far
        w = np.array([1.0, 3.0, 7.0])[:n]
        step = np.zeros(n)
        step[: len(w)] = w / np.linalg.norm(w)
        for tol in (1e-8, 1e-3, 0.05):
            pts = np.array([np.full(n, 0.3), 0.3 + 0.999 * tol * step])
            assert geometry.coincident_pairs(pts, tol)[1].tolist() == [1]
            pts[1] = 0.3 + 1.001 * tol * step
            assert geometry.coincident_pairs(pts, tol)[1].tolist() == []

    def test_pair_whose_squares_underflow_is_found(self):
        # 1e-170 squared underflows to 0, so the exact test accepts this
        # pair at tol 1e-175, though it is 1e-170 apart on p: only the
        # window's slack covers it
        with pytest.raises(ValueError, match="motif points 0 and 1 "):
            Motif([[0.0, 0.0, 0.0], [1e-170, 0.0, 0.0]], dedup_tol=1e-175)

    def test_coincidence_across_the_wrap_of_the_sorted_axis(self):
        pts = [[0.3, 0.5], [0.0, 0.25], [0.7, 0.5], [1.0 - 1e-12, 0.25]]
        with pytest.raises(ValueError, match="motif points 1 and 3 "):
            Motif(pts, dedup_tol=1e-11)
        assert Motif(pts, dedup_tol=1e-13).size == 4

    def test_first_pair_with_candidates_over_many_blocks(self, monkeypatch):
        # a wide tolerance makes most pairs candidates; tiny blocks put the
        # first pair in a late block and its rivals on both sides of it
        monkeypatch.setattr(geometry, "_PAIRS", 7)
        rng = np.random.default_rng(33)
        for _ in range(40):
            pts = rng.random((int(rng.integers(2, 60)), 2))
            self.assert_first_pair(pts, float(rng.uniform(0.01, 0.45)))

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-8, float("inf")])
    def test_rejects_bad_tolerance(self, tol):
        # a NaN, zero or negative tolerance would keep even these duplicates
        with pytest.raises(ValueError, match="tolerance must be a finite number > 0"):
            Motif([[0.1, 0.2], [0.1, 0.2]], dedup_tol=tol)
        with pytest.raises(ValueError, match="tolerance must be a finite number > 0"):
            Motif([[0.1, 0.2]], dedup_tol=tol)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Motif(np.zeros((0, 2)))

    @given(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_canonical_range_property(self, coords):
        m = Motif([coords])
        assert np.all(m.points >= 0.0)
        assert np.all(m.points < 1.0)


class TestPeriodicSet:
    def test_cartesian_motif_bcc(self, bcc):
        expected = np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]])
        assert bcc.cartesian_motif == pytest.approx(expected)

    def test_cartesian_motif_scaled_cell(self):
        pset = make_set([[2.0, 0.0], [0.0, 2.0]], [[0.25, 0.75]])
        assert pset.cartesian_motif == pytest.approx(np.array([[0.5, 1.5]]))

    def test_cartesian_motif_rows_are_points_times_basis(self):
        # basis vectors are rows, so a point is sum_i x_i * v_i
        pset = make_set([[2.0, 0.0], [1.0, 2.0]], [[0.25, 0.75], [0.5, 0.0]])
        expected = np.array([[1.25, 1.5], [1.0, 0.0]])
        assert pset.cartesian_motif == pytest.approx(expected)

    def test_cartesian_motif_is_read_only(self, z2):
        with pytest.raises(ValueError):
            z2.cartesian_motif[0, 0] = 1.0

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PeriodicSet(LatticeBasis(np.eye(2)), Motif([[0.0, 0.0, 0.0]]))

    def test_scale_identity(self, z2):
        assert z2.scale(1.0) == z2

    def test_scale_doubles_basis(self, z2):
        scaled = z2.scale(2.0)
        assert np.allclose(scaled.basis.vectors, 2 * np.eye(2))
        assert scaled.motif == z2.motif

    def test_scale_rejects_nonpositive(self, z2):
        with pytest.raises(InvalidScale):
            z2.scale(0.0)
        with pytest.raises(InvalidScale):
            z2.scale(-2.0)


def fraction_product(u, vectors) -> list:
    """``u @ vectors`` in exact rationals, each entry rounded once."""
    cols = vectors.T.tolist()
    return [
        [float(sum(Fraction(a) * Fraction(x) for a, x in zip(row, col))) for col in cols]
        for row in u.tolist()
    ]


def is_lll_reduced(vectors, delta=0.75, tol=1e-9) -> bool:
    """The two LLL conditions, from a QR factorisation."""
    r = np.linalg.qr(np.asarray(vectors, dtype=float).T, mode="r")
    diag = np.abs(np.diag(r))
    mu = r / diag[:, None]
    size = np.all(np.abs(np.triu(mu, 1)) <= 0.5 + tol)
    lovasz = np.diag(r)[1:] ** 2 + np.diag(r, 1) ** 2 >= (
        delta * (1 - tol) * diag[:-1] ** 2
    )
    return bool(size and lovasz.all())


def assert_exact_inverse(u, inverse):
    """U and U^-1 are int64 (n, n) arrays whose products are I in int64."""
    n = len(u)
    assert u.dtype == inverse.dtype == np.int64
    assert u.shape == inverse.shape == (n, n)
    assert np.array_equal(inverse @ u, np.eye(n, dtype=np.int64))
    assert np.array_equal(u @ inverse, np.eye(n, dtype=np.int64))


class TestReduceBasis:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8])
    def test_unimodular_int64_and_reduced(self, n):
        rng = np.random.default_rng(70 + n)
        reduced_some = False
        for _ in range(40):
            vectors = random_unimodular(rng, n, steps=4) @ random_basis(rng, n).vectors
            u, inverse = reduce_basis(vectors)
            reduced_some |= not np.array_equal(u, np.eye(n))
            assert_exact_inverse(u, inverse)
            assert round(abs(np.linalg.det(u))) == 1
            assert abs(np.linalg.det(u.astype(float))) == pytest.approx(1.0)
            reduced = change_basis(LatticeBasis(vectors), u)
            order = np.argsort(row_norms(reduced), kind="stable")
            assert is_lll_reduced(reduced) or is_lll_reduced(reduced[order])
        assert reduced_some or n == 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_inverse_is_exact_on_sheared_bases_at_every_scale(self, n):
        # long products of shears, up to +-9 a step, at scales 1e-150 to
        # 1e150: U^-1 U = I in int64 however far the reduction runs
        rng = np.random.default_rng(170 + n)
        sheared = 0
        for k in (-150, -60, -20, -3, 0, 3, 20, 60, 150):
            for _ in range(6):
                shear = random_unimodular(rng, n, steps=3 * n, reach=9)
                vectors = shear @ random_basis(rng, n).vectors * 10.0**k
                u, inverse = reduce_basis(vectors)
                assert_exact_inverse(u, inverse)
                sheared += np.count_nonzero(u) > n
        assert sheared >= 40 or n == 1

    def test_identity_on_every_fixture_cell(self):
        from bridgelen import read_set_file

        paths = [p for p in sorted(FIXTURES.iterdir()) if p.suffix in (".cif", ".json")]
        paths.remove(FIXTURES / "broken.cif")
        assert len(paths) >= 8
        for path in paths:
            pset, _ = read_set_file(path)
            for a in reduce_basis(pset.basis.vectors):
                assert np.array_equal(a, np.eye(pset.dim)), path

    def test_identity_on_every_dense_motif_basis(self, monkeypatch):
        monkeypatch.syspath_prepend(str(FIXTURES.parents[1] / "bench"))
        import corpus

        cases = corpus.make("dense-motif", 101)
        assert len(cases) == 120
        for case in cases:
            for a in reduce_basis(case.basis):
                assert np.array_equal(a, np.eye(3)), case.name

    @pytest.mark.parametrize("reach", [10, 30, 70, 150, 1000])
    def test_sheared_bcc_ladder_to_aspect_one(self, reach):
        basis = sheared_bcc(reach).basis
        u, inverse = reduce_basis(basis.vectors)
        assert_exact_inverse(u, inverse)
        reduced = LatticeBasis(change_basis(basis, u))
        assert cell_metrics(reduced).aspect == 1.0

    @pytest.mark.parametrize("n", [3, 8])
    @pytest.mark.parametrize("k", [20, 25, 50, 90, 100, 150, 160, 200])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_scaled_cells_give_no_warning(self, n, k, sign):
        # the cells of test_scale_outside_float_range_is_exact_or_rejected,
        # plain and sheared; pytest turns any warning into an error
        c = 10.0 ** (sign * k)
        shear = np.eye(n)
        shear[-1, :-1] = 3.0
        for a in reduce_basis(np.eye(n) * c):
            assert np.array_equal(a, np.eye(n))
        u, inverse = reduce_basis(shear * c)
        assert_exact_inverse(u, inverse)
        assert np.array_equal(np.abs(u), np.abs(np.linalg.inv(shear)).round())

    def test_change_basis_rounds_each_entry_once(self):
        rng = np.random.default_rng(75)
        for n in (2, 3, 5):
            for _ in range(10):
                scale = 10.0 ** rng.integers(-30, 30)
                basis = LatticeBasis(random_basis(rng, n).vectors * scale)
                u = random_unimodular(rng, n, steps=4, reach=9)
                exact = fraction_product(u, basis.vectors)
                assert change_basis(basis, u).tolist() == exact
