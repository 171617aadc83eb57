"""Tests for the bridge-length driver, its bounds and invariances."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    parse_json_set,
    spans_lattice,
)

from bridgelen import edges as edges_module
from bridgelen.geometry import change_basis, reduce_basis, wrapped_delta

from conftest import make_set, random_set, random_unimodular, sheared_bcc, slab_19


def identity(vectors):
    """Stand-in for ``reduce_basis`` that keeps every input cell: U and
    U^-1 are the identity."""
    eye = np.eye(len(vectors), dtype=np.int64)
    return eye, eye


def dyadic(x, bits: int = 20):
    """x rounded to a multiple of 2^-bits, so small integer combinations
    of its entries are exact in floating point."""
    return np.ldexp(np.rint(np.ldexp(x, bits)), -bits)


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


def shifted(sites, d):
    return [[(x + dx) % 1 for x, dx in zip(site, d)] for site in sites]


def cubic_cell(sites) -> str:
    """JSON text of the cubic cell with a = 1 and the given fractional sites."""
    basis = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    return json.dumps({"dim": 3, "basis": basis, "motif_fractional": sites})


def hexagonal_cell(sites, a: float, c: float | None = None) -> str:
    """JSON text of the hexagonal cell (120 degrees between a and b); 2-D
    without c."""
    basis = [[a, 0.0], [-a / 2, a * math.sqrt(3) / 2]]
    if c is not None:
        basis = [row + [0.0] for row in basis] + [[0.0, 0.0, c]]
    return json.dumps({"dim": len(basis), "basis": basis, "motif_fractional": sites})


FCC = [[0.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]
THIRD = 1 / 3
HEX_2B_2C = [[0.0, 0.0, 0.25], [0.0, 0.0, 0.75], [THIRD, 2 * THIRD, 0.25], [2 * THIRD, THIRD, 0.75]]

# Conventional cells, a = 1 unless given.  No edge is shorter than the
# shortest interpoint distance, so beta is at least that; when the bonds of
# that length join every point, beta equals it.  Each entry: JSON set,
# closed-form beta, motif size (Z x sites), and how many ulps the computed
# beta lies above the rounded closed form (the float lengths round; the
# offsets move with a).
TEXTBOOK = [
    # diamond, Fd-3m 8a: each atom has four bonds of a*sqrt(3)/4 (a quarter
    # body diagonal), the shortest distance, and the bonds join the crystal
    pytest.param(
        cubic_cell(FCC + shifted(FCC, (0.25, 0.25, 0.25))), math.sqrt(3) / 4, 8, 0,
        id="diamond",
    ),
    # rock salt, Fm-3m 4a + 4b: the ions together form a simple cubic
    # lattice of spacing a/2, joined by its cation-anion bonds
    pytest.param(cubic_cell(FCC + shifted(FCC, (0.5, 0.0, 0.0))), 0.5, 8, 0, id="rock-salt"),
    # CsCl, Pm-3m 1a + 1b: the cation-anion bonds of a*sqrt(3)/2 are the
    # nearest-neighbour bonds of the body-centred lattice, which they join;
    # like ions are a apart
    pytest.param(cubic_cell([[0.0] * 3, [0.5] * 3]), math.sqrt(3) / 2, 2, 0, id="CsCl"),
    # fluorite, Fm-3m 4a + 8c: the cation-anion bond a*sqrt(3)/4 is shorter
    # than anion-anion (a/2) and cation-cation (a/sqrt(2)); two face-centred
    # neighbour cations share an anion, so these bonds join the crystal
    pytest.param(
        cubic_cell(FCC + shifted(FCC, (0.25,) * 3) + shifted(FCC, (0.75,) * 3)),
        math.sqrt(3) / 4, 12, 0, id="fluorite",
    ),
    # cubic perovskite ABO3, Pm-3m 1a + 1b + 3c: B-O bonds of a/2 join the
    # octahedral framework, but the corner A ion's nearest neighbours are
    # the face-centre O ions at a/sqrt(2), so it joins only there
    pytest.param(
        cubic_cell([[0.0] * 3, [0.5] * 3, [0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]]),
        1 / math.sqrt(2), 5, 1, id="perovskite",
    ),
    # ideal hcp, P6_3/mmc 2c with c/a = sqrt(8/3): all twelve neighbours lie
    # at a, six in the plane and three in each adjacent layer, so these
    # bonds join every layer and the layers to each other
    pytest.param(hexagonal_cell(HEX_2B_2C[2:], 1.0, math.sqrt(8 / 3)), 1.0, 2, 0, id="hcp"),
    # honeycomb, p6mm 2b: each point has three bonds of a/sqrt(3), the
    # shortest distance, and they join the net
    pytest.param(
        hexagonal_cell([[THIRD, 2 * THIRD], [2 * THIRD, THIRD]], 1.0),
        1 / math.sqrt(3), 2, -1, id="honeycomb",
    ),
    # Bernal (AB) graphite, P6_3/mmc 2b + 2c, a = 2.464, c = 6.711: bonds of
    # a/sqrt(3) join each sheet; the sheets lie c/2 apart, so every path
    # between sheets has an edge of at least c/2, and the 2b atoms sit
    # exactly above one another at c/2
    pytest.param(hexagonal_cell(HEX_2B_2C, 2.464, 6.711), 6.711 / 2, 4, 1, id="graphite"),
]


class TestTextbookCrystals:
    @pytest.mark.parametrize("text, beta, m, ulps", TEXTBOOK)
    def test_beta_is_the_closed_form_and_the_oracle_agrees(self, text, beta, m, ulps):
        pset = parse_json_set(text)
        assert pset.motif_size == m
        computed = bridge_length(pset).beta
        assert computed == beta + ulps * math.ulp(beta)
        assert oracle_bridge_length(pset) == pytest.approx(computed, rel=1e-9)


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

    def test_power_of_two_scale_is_exact(self):
        # Scaling by 2^k scales every basis entry, Cartesian point, height
        # and margin exactly, and leaves every ratio h_max / h_k and so
        # every build's extents as they are: beta is ldexp(beta, k) bit
        # for bit, and the last edge's key, the shells and the edges
        # examined do not move
        rng = np.random.default_rng(59)
        psets = [
            random_set(rng, n=int(rng.integers(1, 5)), m=int(rng.integers(1, 7)))
            for _ in range(200)
        ]
        psets += [sheared_bcc(reach) for reach in (10, 150, 1000)] + [slab_19()]
        for pset in psets:
            report = bridge_length(pset)
            edge = report.last_edge
            for k in (-30, -1, 1, 7, 40):
                scaled = bridge_length(pset.scale(2.0**k))
                assert scaled.beta.hex() == math.ldexp(report.beta, k).hex()
                last = scaled.last_edge
                assert last.length.hex() == math.ldexp(edge.length, k).hex()
                assert last[1:] == edge[1:]
                assert scaled.shells_enumerated == report.shells_enumerated
                assert scaled.edges_examined == report.edges_examined

    def test_half_scale_a7(self, monkeypatch):
        # Halving a basis is exact, so beta halves exactly, and the shell
        # count must not move.  In the input cell the smallest height is
        # sqrt(2)/2 exactly, so the exact release bound after two shells is
        # sqrt(2), the bridge length itself.  The release is strict and the
        # rounding margin only lowers the bound, so the shortest edges wait
        # for shell 2 at every scale.  The LLL-reduced cell has a smaller
        # aspect, and its shells are built instead: there two shells do at
        # both scales.
        n = 7
        cartan = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        a7 = make_set(np.linalg.cholesky(cartan), np.zeros((1, n)))
        for reduce, shells in ((edges_module.reduce_basis, 2), (identity, 3)):
            monkeypatch.setattr(edges_module, "reduce_basis", reduce)
            full = bridge_length(a7)
            half = bridge_length(a7.scale(0.5))
            assert half.beta == 0.5 * full.beta
            assert full.shells_enumerated == shells
            assert half.shells_enumerated == shells

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

    @given(
        st.integers(1, 3),
        st.integers(1, 6),
        st.sampled_from([1e-6, 1e-4, 1e-2]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_beta_is_2_lipschitz_under_motif_moves(self, n, m, eps, seed):
        # Moving every point by at most `move` changes every edge length by
        # at most 2 move, and beta is the longest edge on a bottleneck path
        # of the whole set, so it moves by at most 2 move too.  The move is
        # measured after the fractional round trip, not taken as eps.
        rng = np.random.default_rng(seed)
        pset = random_set(rng, n=n, m=m)
        b = pset.basis.vectors
        step = rng.normal(size=(m, n))
        step *= eps * rng.random((m, 1)) / np.linalg.norm(step, axis=1, keepdims=True)
        moved = PeriodicSet(pset.basis, Motif(pset.motif.points + step @ np.linalg.inv(b)))
        delta = wrapped_delta(moved.motif.points, pset.motif.points) @ b
        move = np.linalg.norm(delta, axis=1).max()
        beta = bridge_length(pset).beta
        assert abs(bridge_length(moved).beta - beta) <= 2 * move + 1e-12 * beta

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


class TestChangeOfBasis:
    @given(st.integers(1, 3), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_beta_invariant_and_shells_within_reduced_aspect(self, n, m, seed):
        # the same set in another basis, U B for a random unimodular U and
        # a randomly rotated B: beta agrees to rounding (the lengths round
        # in a different input cell), and the stream builds no more shells
        # than the reduced cell's aspect allows.  B and the motif are
        # snapped to 20 fractional bits, so U B and f U^-1 are exact: the
        # moved set is the same set, not one that differs by the rounding
        # of a product with U's large entries
        rng = np.random.default_rng(seed)
        pset = random_set(rng, n=n, m=m)
        u = random_unimodular(rng, n, steps=4)
        u_inv = np.rint(np.linalg.inv(u)).astype(np.int64)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        basis = dyadic(pset.basis.vectors @ q)
        points = dyadic(pset.motif.points)
        same = make_set(basis, points)
        moved = make_set(u @ basis, points @ u_inv)
        report = bridge_length(moved)
        assert report.beta == pytest.approx(bridge_length(same).beta, rel=1e-12)
        reduced = LatticeBasis(
            change_basis(moved.basis, reduce_basis(moved.basis.vectors)[0])
        )
        assert report.shells_enumerated <= math.ceil(cell_metrics(reduced).aspect) + 1


class TestShearedBccLadder:
    """One set in ever more sheared cells: beta stays sqrt(3)/2, and the
    shells and translation rows the stream builds are pinned exactly
    (counts, not times, so they cannot flake).  Every rung is built in its
    LLL-reduced cell, plain BCC, so the counts no longer grow with the
    reach; in the input cell reach 150 took 131 shells and 476 845 rows,
    and reach 1000 would take hundreds of shells.  The rows are counted as
    ``_shell_blocks`` yields them.  The pair boxes, and so the rows, follow
    the working horizon's start, 1.6 times BCC's spacing: 35 rows (54 when
    it started at twice the same spacing)."""

    @pytest.mark.parametrize(
        "reach, shells, rows",
        [(10, 2, 35), (30, 2, 35), (70, 2, 35), (150, 2, 35), (1000, 2, 35)],
    )
    def test_beta_shells_and_built_rows(self, monkeypatch, reach, shells, rows):
        built = []
        real = edges_module._shell_blocks

        def counting(*args):
            for t, box in real(*args):
                built.append(len(t))
                yield t, box

        monkeypatch.setattr(edges_module, "_shell_blocks", counting)
        report = bridge_length(sheared_bcc(reach))
        assert report.beta.hex() == "0x1.bb67ae8584caap-1"
        assert report.shells_enumerated == shells
        assert report.edges_examined == 5
        assert sum(built) == rows


class TestMstLongestEdge:
    def test_collinear_gaps(self):
        assert mst_longest_edge([0.0, 1.0, 2.0, 5.0]) == pytest.approx(3.0)

    def test_single_point(self):
        assert mst_longest_edge([[1.0, 2.0]]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            mst_longest_edge([])

    @pytest.mark.parametrize(
        "points", [[[0.0, 0.0], [math.nan, 1.0], [1.0, 1.0]], [[0.0], [math.inf]]]
    )
    def test_non_finite_coordinates_rejected(self, points):
        with pytest.raises(ValueError, match="finite"):
            mst_longest_edge(points)

    @pytest.mark.parametrize("points", [np.float64(1.0), np.zeros((2, 2, 2))])
    def test_neither_1d_nor_2d_rejected(self, points):
        with pytest.raises(ValueError, match="1-D or 2-D"):
            mst_longest_edge(points)

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
