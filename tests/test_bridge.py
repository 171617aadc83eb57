"""Tests for the bridge-length driver, its bounds and invariances."""

import itertools
import math

import numpy as np
import pytest

from bridgelen import (
    DegenerateCell,
    EmptyInput,
    LatticeBasis,
    Motif,
    PeriodicSet,
    bridge_length,
    cell_metrics,
    in_span,
    mst_longest_edge,
    oracle_bridge_length,
    spans_lattice,
)

from conftest import make_set, random_set


def doubled_cell(pset: PeriodicSet) -> PeriodicSet:
    """Same point set described by the 2x cell with 2^n * m motif points."""
    n = pset.dim
    shifts = list(itertools.product((0.0, 1.0), repeat=n))
    points = [
        (pset.motif.points[i] + np.asarray(s)) / 2.0
        for i in range(pset.motif_size)
        for s in shifts
    ]
    return PeriodicSet(LatticeBasis(pset.basis.vectors * 2.0), Motif(np.array(points)))


class TestExactValues:
    def test_integer_lattices(self, z1, z2, z3):
        for pset in (z1, z2, z3):
            assert bridge_length(pset).beta == pytest.approx(1.0, rel=1e-12)

    def test_bcc(self, bcc):
        assert bridge_length(bcc).beta == pytest.approx(math.sqrt(3) / 2, rel=1e-12)

    def test_fig3_trace(self, fig3_set):
        report = bridge_length(fig3_set)
        assert report.beta == pytest.approx(math.sqrt(0.85), rel=1e-12)
        assert report.last_edge.translation == (1, 1)
        assert len(report.forest_edges) == 1
        assert report.forest_edges[0].translation == (0, 1)
        sums = [c for _, c in report.basis_cycle_edges]
        assert sums == [(0, 1), (-1, 0)]
        # the final translational matrix is a basis certificate for Z^2
        columns = [[c[i] for c in sums] for i in range(2)]
        assert spans_lattice(columns)

    def test_fig2_separation(self, fig2_set):
        report = bridge_length(fig2_set)
        assert report.beta == pytest.approx(2.0, abs=1e-9)
        # finite patches must pay the in-cell gap of 3 instead
        pts = [
            (np.asarray(f) + t) @ fig2_set.basis.vectors
            for t in itertools.product(range(2), repeat=2)
            for f in fig2_set.motif.points
        ]
        assert mst_longest_edge(pts) == pytest.approx(3.0, abs=1e-9)


class TestReportShape:
    def test_beta_is_last_edge_length(self, bcc):
        report = bridge_length(bcc)
        assert report.beta == report.last_edge.length
        assert report.translational_basis_size == len(report.basis_cycle_edges)
        assert report.edges_examined >= len(report.forest_edges) + len(
            report.basis_cycle_edges
        )
        assert report.elapsed >= 0.0

    def test_forest_spans_motif_at_termination(self):
        rng = np.random.default_rng(50)
        for _ in range(30):
            pset = random_set(rng)
            report = bridge_length(pset)
            assert len(report.forest_edges) == pset.motif_size - 1

    def test_cycle_columns_grow_span(self):
        rng = np.random.default_rng(51)
        for _ in range(30):
            pset = random_set(rng)
            report = bridge_length(pset)
            n = pset.dim
            for k in range(len(report.basis_cycle_edges)):
                prefix = [c for _, c in report.basis_cycle_edges[:k]]
                new = report.basis_cycle_edges[k][1]
                cols = [[c[i] for c in prefix] for i in range(n)]
                assert not in_span(cols, new)

    def test_determinism(self, bcc, fig2_set):
        for pset in (bcc, fig2_set):
            a = bridge_length(pset)
            b = bridge_length(pset)
            assert a.beta == b.beta
            assert a.last_edge == b.last_edge
            assert a.forest_edges == b.forest_edges
            assert a.basis_cycle_edges == b.basis_cycle_edges
            assert a.shells_enumerated == b.shells_enumerated
            assert a.edges_examined == b.edges_examined


class TestOracleEquivalence:
    def test_on_random_sets(self):
        rng = np.random.default_rng(52)
        for _ in range(60):
            pset = random_set(rng, n=int(rng.integers(1, 3)))
            beta = bridge_length(pset).beta
            ref = oracle_bridge_length(pset)
            assert beta == pytest.approx(ref, rel=1e-9)

    def test_single_point_oblique(self):
        pset = make_set([[1.0, 0.0], [0.4, 0.9]], [[0.3, 0.8]])
        assert bridge_length(pset).beta == pytest.approx(
            oracle_bridge_length(pset), rel=1e-12
        )

    def test_perturbed_integer_line(self):
        # motif 0, 1+eps, 2+eps, 3+eps in a period-4 cell: the largest
        # necessary hop is the 0 -> 1+eps gap
        eps = 0.01
        pset = make_set([[4.0]], [[0.0], [(1 + eps) / 4], [(2 + eps) / 4], [(3 + eps) / 4]])
        assert bridge_length(pset).beta == pytest.approx(1 + eps, rel=1e-12)
        assert oracle_bridge_length(pset) == pytest.approx(1 + eps, rel=1e-12)


class TestBoundsAndInvariances:
    def test_beta_below_r_upper(self):
        rng = np.random.default_rng(53)
        for _ in range(120):
            pset = random_set(rng)
            report = bridge_length(pset)
            assert report.beta <= report.r_upper
            assert report.r_upper == cell_metrics(pset.basis).r_upper

    def test_r_upper_examples(self, z3):
        assert cell_metrics(z3.basis).r_upper == 1.0
        rect = make_set([[1.0, 0.0], [0.0, 2.0]], [[0.0, 0.0]])
        assert cell_metrics(rect.basis).r_upper == 2.0

    def test_scale_equivariance(self):
        rng = np.random.default_rng(54)
        for _ in range(40):
            pset = random_set(rng)
            beta = bridge_length(pset).beta
            for c in (0.5, 2.0, 7.0):
                assert bridge_length(pset.scale(c)).beta == pytest.approx(
                    c * beta, rel=1e-12
                )

    def test_half_scale_a7(self):
        # Halving a basis is exact, so beta halves exactly.  The stream
        # still needs a third shell at half scale: the height-projected
        # release bound after two shells rounds to 2 ulps above sqrt(2)
        # for A7, but to 4 ulps below sqrt(2)/2 for the halved cell, so
        # the shortest edges wait for shell 2.
        n = 7
        cartan = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        a7 = make_set(np.linalg.cholesky(cartan), np.zeros((1, n)))
        full = bridge_length(a7)
        half = bridge_length(a7.scale(0.5))
        assert half.beta == 0.5 * full.beta
        assert full.shells_enumerated == 2
        assert half.shells_enumerated == 3

    @pytest.mark.parametrize("n", [3, 8])
    @pytest.mark.parametrize("k", [20, 25, 50, 90, 100, 150, 160, 200])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_scale_outside_float_range_is_exact_or_rejected(self, n, k, sign):
        # Z^n scaled by 10^k: either beta is the scale or the cell is
        # rejected before an inf, NaN or subnormal bound reaches the stream.
        # Up to 10^+-50 (Z^3) and 10^+-20 (Z^8) beta has always been exact.
        k *= sign
        c = 10.0**k
        exact = abs(k) <= {3: 50, 8: 20}[n]
        try:
            beta = bridge_length(make_set(np.eye(n) * c, np.zeros((1, n)))).beta
        except DegenerateCell as exc:
            assert "floating-point range" in str(exc)
            assert not exact
        else:
            assert beta == pytest.approx(c, rel=1e-12)
            assert beta == c or not exact

    def test_motif_order_invariance(self):
        # Join order decides which component is relabelled; beta, the forest
        # size and the oracle value must not depend on it.  Not bitwise: a
        # reversed pair's length is computed from its other end.
        rng = np.random.default_rng(58)
        for _ in range(30):
            pset = random_set(rng, n=int(rng.integers(1, 4)), m=int(rng.integers(1, 13)))
            m = pset.motif_size
            beta = bridge_length(pset).beta
            assert oracle_bridge_length(pset) == pytest.approx(beta, rel=1e-9)
            for _ in range(3):
                points = pset.motif.points[rng.permutation(m)]
                report = bridge_length(PeriodicSet(pset.basis, Motif(points)))
                assert report.beta == pytest.approx(beta, rel=1e-12)
                assert len(report.forest_edges) == m - 1

    def test_isometry_invariance(self):
        rng = np.random.default_rng(55)
        for _ in range(40):
            pset = random_set(rng, n=int(rng.integers(2, 4)))
            n = pset.dim
            beta = bridge_length(pset).beta
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            shifted = (pset.motif.points + rng.random(n)) % 1.0
            moved = PeriodicSet(
                LatticeBasis(pset.basis.vectors @ q), Motif(shifted)
            )
            assert bridge_length(moved).beta == pytest.approx(beta, rel=1e-9)

    def test_doubled_cell_invariance(self):
        rng = np.random.default_rng(56)
        for _ in range(25):
            pset = random_set(rng, m=int(rng.integers(1, 3)))
            beta = bridge_length(pset).beta
            assert bridge_length(doubled_cell(pset)).beta == pytest.approx(
                beta, rel=1e-9
            )

    def test_shells_within_aspect_cap(self):
        rng = np.random.default_rng(57)
        for _ in range(100):
            pset = random_set(rng)
            report = bridge_length(pset)
            cap = math.ceil(cell_metrics(pset.basis).aspect) + 1
            assert report.shells_enumerated <= cap


class TestMstLongestEdge:
    def test_collinear_gaps(self):
        assert mst_longest_edge([0.0, 1.0, 2.0, 5.0]) == pytest.approx(3.0)

    def test_single_point(self):
        assert mst_longest_edge([[1.0, 2.0]]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            mst_longest_edge([])

    def test_matches_kruskal_oracle(self):
        rng = np.random.default_rng(58)
        for _ in range(50):
            pts = rng.random((int(rng.integers(2, 12)), int(rng.integers(1, 4))))
            # Kruskal reference with a plain union-find
            edges = sorted(
                (float(np.linalg.norm(pts[i] - pts[j])), i, j)
                for i in range(len(pts))
                for j in range(i + 1, len(pts))
            )
            parent = list(range(len(pts)))

            def find(v):
                while parent[v] != v:
                    parent[v] = parent[parent[v]]
                    v = parent[v]
                return v

            longest = 0.0
            for d, i, j in edges:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
                    longest = max(longest, d)
            assert mst_longest_edge(pts) == pytest.approx(longest, rel=1e-12)
