"""Tests for periodic-set types and cell metrics."""

import itertools
import math

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
    facet_heights,
)
from bridgelen.geometry import wrap_fractional, wrapped_delta

from conftest import make_set, random_basis


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
            assert facet_heights(basis) == pytest.approx(expected, rel=1e-9)

    def test_metrics_carry_the_facet_heights(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            basis = random_basis(rng, int(rng.integers(1, 9)), max_aspect=10.0)
            m = cell_metrics(basis)
            assert m.heights == tuple(facet_heights(basis).tolist())
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

    def test_rejects_wrap_duplicates(self):
        with pytest.raises(ValueError, match="coincide"):
            Motif([[0.0, 0.0], [1e-10, 1.0 - 1e-10]])

    def test_reports_first_coincident_pair_in_row_order(self):
        # (1, 3) coincide across the wrap and (2, 3) inside the cell, while
        # (1, 2) are 0.12 apart: the first pair in row-major order is (1, 3)
        message = r"motif points 1 and 3 coincide within 0\.1$"
        with pytest.raises(ValueError, match=message):
            Motif([[0.5], [0.96], [0.08], [0.02]], dedup_tol=0.1)

    def test_matches_pairwise_reference(self):
        # reference: the per-pair loop, one norm per pair in row-major order
        rng = np.random.default_rng(31)
        tol = 0.05
        for _ in range(300):
            m = int(rng.integers(2, 25))
            pts = rng.integers(0, 6, (m, 2)) / 6 + rng.normal(0, 0.03, (m, 2))
            arr = wrap_fractional(pts)
            first = next(
                (
                    (i, j)
                    for i in range(m)
                    for j in range(i + 1, m)
                    if np.linalg.norm(wrapped_delta(arr[i], arr[j])) < tol
                ),
                None,
            )
            if first is None:
                assert np.array_equal(Motif(pts, dedup_tol=tol).points, arr)
            else:
                message = f"motif points {first[0]} and {first[1]} "
                with pytest.raises(ValueError, match=message):
                    Motif(pts, dedup_tol=tol)

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
    def test_cartesian_position_z2(self, z2):
        assert z2.cartesian_position(0, (1, 1)) == pytest.approx([1.0, 1.0])

    def test_cartesian_position_bcc(self, bcc):
        assert bcc.cartesian_position(1, (0, 0, 0)) == pytest.approx([0.5, 0.5, 0.5])

    def test_cartesian_position_scaled_cell(self):
        pset = make_set([[2.0, 0.0], [0.0, 2.0]], [[0.25, 0.75]])
        assert pset.cartesian_position(0, (-1, 0)) == pytest.approx([-1.5, 1.5])

    def test_index_out_of_range(self, z2):
        with pytest.raises(IndexError):
            z2.cartesian_position(1, (0, 0))

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
