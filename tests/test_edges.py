"""Tests for the increasing-length edge stream."""

import itertools
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bridgelen import (
    CandidateEdge,
    DegenerateCell,
    EdgeGenerator,
    LatticeBasis,
    Motif,
    PeriodicSet,
    bridge_length,
    cell_metrics,
    parse_cif,
    to_periodic_set,
)
from bridgelen import bridge as bridge_module
from bridgelen import edges as edges_module
from bridgelen.geometry import row_norms
from bridgelen.oracle import oracle_bridge_length

from conftest import (
    make_set,
    random_basis,
    random_motif,
    random_set,
    random_unimodular,
    slab_19,
)


def lex_positive(t):
    for x in t:
        if x != 0:
            return x > 0
    return False


def brute_force_classes(pset: PeriodicSet, t_max: int):
    """Independent oracle: every canonical class with L-inf translation
    <= t_max, sorted by (length, source, dest, translation)."""
    cart = pset.cartesian_motif
    basis = pset.basis.vectors
    m, n = pset.motif_size, pset.dim
    out = []
    for t in itertools.product(range(-t_max, t_max + 1), repeat=n):
        shift = np.asarray(t, dtype=float) @ basis
        for s in range(m):
            for d in range(m):
                if s > d:
                    continue
                if s == d and not lex_positive(t):
                    continue
                length = float(np.linalg.norm(cart[d] + shift - cart[s]))
                out.append((length, s, d, t))
    out.sort()
    return out


def brute_force_prefix(pset: PeriodicSet, k: int):
    """First k classes, with t_max grown until provably complete."""
    h = cell_metrics(pset.basis).h
    t_max = 2
    while True:
        classes = brute_force_classes(pset, t_max)
        if len(classes) >= k and (t_max - 1) * h > classes[k - 1][0]:
            return classes[:k]
        t_max += 1


def take(gen, k):
    return [next(gen) for _ in range(k)]


def assert_prefix_matches(got, expected):
    """``got`` (k yielded edges) against ``expected`` (k + 1 brute-force
    classes): equal lengths, and equal class sets up to the last strict
    length boundary (a tie straddling the cut may legitimately resolve
    either way)."""
    k = len(got)
    assert [e.length for e in got] == pytest.approx(
        [c[0] for c in expected[:k]], rel=1e-12, abs=1e-12
    )
    j = k
    while j > 0 and expected[j][0] - expected[j - 1][0] < 1e-9:
        j -= 1
    assert sorted((e.source, e.dest, e.translation) for e in got[:j]) == sorted(
        (s, d, t) for _, s, d, t in expected[:j]
    )


def lattice_set(name, n):
    """Z^n, n-D body-centred, D_n and A_n, built as their usual bases."""
    motif = np.zeros((1, n))
    if name == "Z":
        basis = np.eye(n)
    elif name == "BCC":
        basis = np.eye(n)
        motif = np.array([np.zeros(n), np.full(n, 0.5)])
    elif name == "D":
        basis = np.zeros((n, n))
        basis[0, :2] = -1.0
        for i in range(1, n):
            basis[i, i - 1], basis[i, i] = 1.0, -1.0
    elif name == "A":
        cartan = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        basis = np.linalg.cholesky(cartan)
    return PeriodicSet(LatticeBasis(basis), Motif(motif))


class TestKnownStreams:
    def test_z1_integer_lengths(self, z1):
        lengths = [e.length for e in take(EdgeGenerator(z1, max_length=math.inf), 6)]
        assert lengths == pytest.approx([1, 2, 3, 4, 5, 6])

    def test_z2_first_classes(self, z2):
        edges = take(EdgeGenerator(z2, max_length=math.inf), 4)
        assert [e.length for e in edges] == pytest.approx([1, 1, math.sqrt(2), math.sqrt(2)])
        assert {e.translation for e in edges[:2]} == {(1, 0), (0, 1)}
        assert {e.translation for e in edges[2:]} == {(1, -1), (1, 1)}

    def test_bcc_first_classes(self, bcc):
        edges = take(EdgeGenerator(bcc), 14)
        near = [e for e in edges if e.length == pytest.approx(math.sqrt(3) / 2)]
        assert len(near) == 8
        assert all(e.source == 0 and e.dest == 1 for e in near)
        assert {e.translation for e in near} == set(
            itertools.product((0, -1), repeat=3)
        )
        rest = edges[8:]
        assert all(e.length == pytest.approx(1.0) for e in rest)
        assert all(e.source == e.dest for e in rest)

    def test_fig3_first_yield_is_shortest(self, fig3_set):
        e = next(EdgeGenerator(fig3_set))
        assert (e.source, e.dest, e.translation) == (0, 1, (0, 1))
        assert e.length == pytest.approx(math.sqrt(0.05))

    def test_tie_across_a_shell_boundary_keeps_key_order(self):
        # (0, 2) from shell 2 is exactly as long as (1, 0) from shell 1 and
        # as the release bound after shell 1; it must still come first
        pset = PeriodicSet(LatticeBasis([[2.0, 0.0], [0.0, 1.0]]), Motif([[0.0, 0.0]]))
        got = take(EdgeGenerator(pset, max_length=math.inf), 12)
        assert [(e.length, e.source, e.dest, e.translation) for e in got] == (
            brute_force_prefix(pset, 12)
        )

    def test_cube_single_point_axis_edges(self, z3):
        # the 2n axis edges collapse to n canonical classes of length 1
        gen = EdgeGenerator(z3, max_length=math.inf)
        edges = take(gen, 3)
        assert all(e.length == pytest.approx(1.0) for e in edges)
        assert {e.translation for e in edges} == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
        assert next(gen).length == pytest.approx(math.sqrt(2))


class TestAgainstBruteForce:
    def test_completeness_on_random_sets(self):
        rng = np.random.default_rng(41)
        k = 40
        for _ in range(100):
            pset = random_set(rng)
            got = take(EdgeGenerator(pset, max_length=math.inf), k)
            assert_prefix_matches(got, brute_force_prefix(pset, k + 1))

    @pytest.mark.parametrize("name", ["Z", "BCC", "D", "A"])
    def test_four_dimensional_lattices(self, name):
        # many exact ties, and shells whose faces span four leading axes
        pset = lattice_set(name, 4)
        k = 60
        got = take(EdgeGenerator(pset, max_length=math.inf), k)
        assert_prefix_matches(got, brute_force_prefix(pset, k + 1))

    def test_monotone_lengths_fuzz(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            pset = random_set(rng)
            lengths = [e.length for e in take(EdgeGenerator(pset, max_length=math.inf), 100)]
            assert all(a <= b for a, b in zip(lengths, lengths[1:]))

    def test_no_class_yielded_twice(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            pset = random_set(rng)
            edges = take(EdgeGenerator(pset, max_length=math.inf), 120)
            keys = [(e.source, e.dest, e.translation) for e in edges]
            assert len(set(keys)) == len(keys)

    def test_canonical_orientation(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            pset = random_set(rng)
            for e in take(EdgeGenerator(pset, max_length=math.inf), 60):
                assert e.source <= e.dest
                if e.source == e.dest:
                    assert lex_positive(e.translation)
                assert any(e.translation) or e.source < e.dest

    def test_lengths_recomputable(self):
        rng = np.random.default_rng(45)
        for _ in range(50):
            pset = random_set(rng)
            cart = pset.cartesian_motif
            for e in take(EdgeGenerator(pset, max_length=math.inf), 60):
                shift = np.asarray(e.translation, dtype=float) @ pset.basis.vectors
                recomputed = np.linalg.norm(cart[e.dest] + shift - cart[e.source])
                assert e.length == pytest.approx(recomputed, rel=1e-12)
                assert e.length > 0


def build_cases():
    """(n, first, last): the builds the stream makes in a cell of equal
    heights, the cube (0, 1), shell s >= 2 alone, and the rescans (0, k)."""
    cases = [(n, 0, 1) for n in range(1, 9)] + [(n, 2, 2) for n in range(1, 9)]
    cases += [(n, 3, 3) for n in range(1, 6)] + [(n, 4, 4) for n in range(1, 5)]
    return cases + [(n, 0, 2) for n in range(1, 6)] + [(n, 0, 3) for n in range(1, 4)]


def build_vectors(n, first, last):
    """The vectors of shells first..last by brute force: those of
    L-infinity norm in [first, last]."""
    cube = itertools.product(range(-last, last + 1), repeat=n)
    return [v for v in cube if max(map(abs, v)) >= first]


def shell_extents(n, first, last):
    """``_shell_blocks``'s (inner, outer) extents for the L-infinity
    shells ``first`` to ``last`` in n dimensions: the cube of shell
    ``last`` less, for first > 0, the cube of shell ``first - 1``."""
    inner = None if first == 0 else np.full(n, first - 1, dtype=np.int32)
    return inner, np.full(n, last, dtype=np.int32)


def unbounded_box(n):
    """One box as (n, 1) columns ``lo``, ``up``, wider than any build."""
    big = np.full((n, 1), 2**30, dtype=np.int32)
    return -big, big


class TestShellFaces:
    """One unbounded box: the blocks are the whole build, shells first to
    last, all in box 0."""

    @pytest.mark.parametrize("n, first, last", build_cases())
    def test_each_vector_of_the_build_once(self, n, first, last):
        box = unbounded_box(n)
        extents = shell_extents(n, first, last)
        blocks = list(edges_module._shell_blocks(*box, *extents, edges_module._BLOCK))
        assert all((b == 0).all() and len(b) == len(t) for t, b in blocks)
        assert all(1 <= len(t) <= edges_module._BLOCK for t, _ in blocks)
        faces = np.concatenate([t for t, _ in blocks])
        assert faces.dtype == np.int32 and faces.shape[1] == n
        inner = 0 if first == 0 else (2 * first - 1) ** n
        assert len(faces) == (2 * last + 1) ** n - inner
        norms = np.abs(faces).max(axis=1)
        assert ((first <= norms) & (norms <= last)).all()
        assert len(np.unique(faces, axis=0)) == len(faces)
        mask = edges_module._lex_positive_rows(faces)
        assert mask.tolist() == [lex_positive(t) for t in faces.tolist()]

    @pytest.mark.parametrize(
        "n, first, last", [(1, 2, 2), (3, 0, 1), (4, 2, 2), (6, 0, 1), (3, 0, 3), (3, 3, 3)]
    )
    def test_blocks_split_the_same_sequence(self, n, first, last):
        box = unbounded_box(n)
        extents = shell_extents(n, first, last)
        whole = [t for t, _ in edges_module._shell_blocks(*box, *extents, 10**6)]
        blocks = [t for t, _ in edges_module._shell_blocks(*box, *extents, 7)]
        assert all(1 <= len(b) <= 7 for b in blocks)
        assert np.array_equal(np.concatenate(blocks), np.concatenate(whole))

    @pytest.mark.parametrize("block", [1, 4, 42])
    def test_stream_does_not_depend_on_block_size(self, monkeypatch, block):
        # with m = 7 (21 pairs) these constants give 1, 1 and 2
        # translations per block, and with m = 1 as many faces, so every
        # shell spans many blocks
        rng = np.random.default_rng(46)
        psets = [random_set(rng, n=3, m=7), random_set(rng, n=2, m=1)]
        psets.append(lattice_set("A", 4))
        expected = []
        for pset in psets:
            gen = EdgeGenerator(pset, max_length=math.inf)
            expected.append((take(gen, 150), gen.pending))
        monkeypatch.setattr(edges_module, "_BLOCK", block)
        for pset, want in zip(psets, expected):
            gen = EdgeGenerator(pset, max_length=math.inf)
            assert (take(gen, 150), gen.pending) == want


#: The (first, last) ranges the stream builds in a cell of equal heights:
#: the cube, shells 2 and 3 alone, and rescans of the shells up to 2 and 3.
STREAM_RANGES = [(0, 1), (2, 2), (3, 3), (0, 2), (0, 3)]


class TestShellBlocksInBoxes:
    @pytest.mark.parametrize("block", [1, 5, 64, 4096])
    def test_each_vector_of_each_box_once(self, block):
        # random boxes, some holding whole shells, some a part, some
        # missing the build; wide boxes mixed with boxes at most one cell
        # wide near the origin, whose ranges in the cube are often one
        # translation and in shell 2 often one translation or none
        rng = np.random.default_rng(60)
        for _ in range(60):
            n = int(rng.integers(1, 5))
            first, last = STREAM_RANGES[int(rng.integers(len(STREAM_RANGES)))]
            wide = rng.integers(-5, 2, size=(int(rng.integers(0, 6)), n))
            wide_up = wide + rng.integers(0, 8, size=wide.shape)
            narrow = rng.integers(-2, 2, size=(int(rng.integers(0, 6)), n))
            narrow_up = narrow + rng.integers(0, 2, size=narrow.shape)
            mix = rng.permutation(len(wide) + len(narrow))
            # (n, boxes) columns, as the stream keeps them
            lo = np.concatenate([wide, narrow])[mix].T.astype(np.int32)
            up = np.concatenate([wide_up, narrow_up])[mix].T.astype(np.int32)
            got = []
            extents = shell_extents(n, first, last)
            for t, box in edges_module._shell_blocks(lo, up, *extents, block):
                assert t.dtype == np.int32 and box.shape == (len(t),)
                assert 1 <= len(t) <= block
                got += zip(box.tolist(), map(tuple, t.tolist()))
            in_build = set(build_vectors(n, first, last))
            expected = [
                (b, v)
                for b in range(lo.shape[1])
                for v in itertools.product(*map(range, lo[:, b], up[:, b] + 1))
                if v in in_build
            ]
            assert sorted(got) == sorted(expected)

    @pytest.mark.parametrize("first, last", [(0, 1), (2, 2), (0, 2)])
    def test_one_translation_ranges_need_no_decode(self, monkeypatch, first, last):
        # boxes that each meet the cube [-last, last]^3 in one vector:
        # their offsets are the rows, nothing is decoded, and the rows of
        # norm below ``first`` are dropped
        def refuse(*args):
            raise AssertionError("decoded a one-translation range")

        monkeypatch.setattr(edges_module, "_decode", refuse)
        lo_rows = [[0, 0, 0], [-1, 1, 0], [last, -3, 5], [-last, 0, 0]]
        up_rows = [[0, 0, 0], [-1, 1, 0], [last, 3, 5], [-last, 0, 0]]
        lo, up = (np.array(rows, dtype=np.int32).T for rows in (lo_rows, up_rows))
        for block in (1, 2, 4096):
            got = [
                (int(b), tuple(v))
                for t, box in edges_module._shell_blocks(
                    lo, up, *shell_extents(3, first, last), block
                )
                for b, v in zip(box, t.tolist())
            ]
            expected = [(0, (0, 0, 0)), (1, (-1, 1, 0)), (3, (-last, 0, 0))]
            assert sorted(got) == [(b, v) for b, v in expected if max(map(abs, v)) >= first]

    @pytest.mark.parametrize("first, last", STREAM_RANGES)
    def test_no_boxes(self, first, last):
        none = np.empty((3, 0), dtype=np.int32)
        extents = shell_extents(3, first, last)
        assert list(edges_module._shell_blocks(none, none, *extents, 4096)) == []


def near_far_blocks(lo, up, inner, outer, block):
    """The blocks of the box |t_k| <= outer[k] less the box |t_k| <=
    inner[k] (no inner box for None), in boxes ``lo[b] <= t <= up[b]``
    (rows), in plain Python, by each box's near and far bounds on every
    axis, near_k and far_k being the least and greatest |t_k| over the box
    (near_k is negative, so below any extent, when the box spans 0): the
    boxes with near_k <= outer[k] on every axis and far_k > inner[k] on
    some axis; each clipped to the outer box; the clips of one translation
    first, ``block`` boxes at a time; then the other clips in mixed-radix
    order, ``block`` indices at a time, less the rows inside the inner
    box, with no empty block.  ``outer`` exceeds ``inner`` on every axis,
    as in every build.  Returns (rows, boxes) lists."""
    n = lo.shape[1]
    inner = [-1] * n if inner is None else list(inner)
    outer = list(outer)

    def outside(v):
        return any(abs(x) > e for x, e in zip(v, inner))

    near = np.maximum(lo, -up)
    far = np.maximum(-lo, up)
    hit = np.nonzero((near <= outer).all(axis=1) & (far > inner).any(axis=1))[0].tolist()
    clip = {
        b: [range(max(a, -e), min(z, e) + 1) for a, z, e in zip(lo[b], up[b], outer)]
        for b in hit
    }
    ones = [
        b
        for b in hit
        if math.prod(map(len, clip[b])) == 1 and outside([r[0] for r in clip[b]])
    ]
    blocks = []
    for start in range(0, len(ones), block):
        part = ones[start : start + block]
        blocks.append(([[r[0] for r in clip[b]] for b in part], part))
    rows = [
        (list(v), b)
        for b in hit
        if math.prod(map(len, clip[b])) > 1
        for v in itertools.product(*clip[b])
    ]
    for start in range(0, len(rows), block):
        part = rows[start : start + block]
        kept = [(v, b) for v, b in part if outside(v)]
        if kept:
            blocks.append(([v for v, _ in kept], [b for _, b in kept]))
    return blocks


#: Every (first, last) range of L-infinity shells the stream builds in a
#: cell of equal heights: the cube, shell s alone, and rescans of the
#: shells up to k.
BUILD_RANGES = [(0, 1), (2, 2), (3, 3), (4, 4), (0, 2), (0, 3), (0, 4)]


def column_blocks(lo, up, inner, outer, block):
    """``_shell_blocks`` on the columns of ``lo`` and ``up`` (rows), as
    (rows, boxes) lists."""
    columns = (np.ascontiguousarray(a.T) for a in (lo, up))
    return [
        (t.tolist(), box.tolist())
        for t, box in edges_module._shell_blocks(*columns, inner, outer, block)
    ]


def thin_set(rng: np.random.Generator, n: int, m: int, ratio: float) -> PeriodicSet:
    """A random cell whose rows are scaled by factors from 1 to ``ratio``
    (a slab when one row is short, a needle when one is long, or a mix),
    with ``m`` random points: its heights scale by the same factors, so
    their ratios reach about ``ratio`` times those of the random cell."""
    kind = int(rng.integers(3))
    if kind == 0:  # slab: one short row
        scale = np.full(n, ratio)
        scale[rng.integers(n)] = 1.0
    elif kind == 1:  # needle: one long row
        scale = np.ones(n)
        scale[rng.integers(n)] = ratio
    else:
        scale = np.exp(rng.uniform(0.0, math.log(ratio), size=n))
    basis = random_basis(rng, n).vectors * scale[:, None]
    return PeriodicSet(LatticeBasis(basis), random_motif(rng, n, m))


class TestClipDecidesTheBoxes:
    """The clip alone gives the rows, their order and the block boundaries
    that the near and far bounds of each box give."""

    @pytest.mark.parametrize("first, last", BUILD_RANGES)
    @pytest.mark.parametrize("block", [1, 3, 64, 4096])
    def test_random_boxes(self, first, last, block):
        # boxes inside the inner cube, across it, beyond the cube, and of
        # one cell or one translation, in 1 to 4 dimensions
        rng = np.random.default_rng(1000 * first + 10 * last + block)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(0, 9))
            lo = rng.integers(-last - 2, last + 2, size=(k, n))
            up = lo + rng.integers(0, [1, 2, 6][int(rng.integers(3))], size=(k, n))
            lo, up = lo.astype(np.int32), up.astype(np.int32)
            extents = shell_extents(n, first, last)
            assert column_blocks(lo, up, *extents, block) == near_far_blocks(
                lo, up, *extents, block
            )

    @pytest.mark.parametrize("block", [1, 3, 64, 4096])
    def test_random_boxes_per_axis(self, block):
        # extents that differ by axis, as in a slab or a needle: an inner
        # box of 0 to 4 cells a side or none, and an outer one 1 to 4 cells
        # beyond it on each axis; boxes inside, across and beyond both
        rng = np.random.default_rng(1100 + block)
        for _ in range(60):
            n = int(rng.integers(1, 5))
            inner = rng.integers(0, 5, size=n).astype(np.int32)
            outer = (inner + rng.integers(1, 5, size=n)).astype(np.int32)
            if rng.random() < 0.3:
                inner = None
            k = int(rng.integers(0, 9))
            lo = rng.integers(-outer - 2, outer + 2, size=(k, n))
            up = lo + rng.integers(0, [1, 2, 6, 12][int(rng.integers(4))], size=(k, n))
            lo, up = lo.astype(np.int32), up.astype(np.int32)
            got = column_blocks(lo, up, inner, outer, block)
            assert got == near_far_blocks(lo, up, inner, outer, block)

    def test_stream_boxes(self):
        # the boxes the stream keeps for two horizons, in the input cell
        # and in a reduced one
        rng = np.random.default_rng(1001)
        psets = [slab_19(), random_set(rng, n=2, m=6), random_set(rng, n=3, m=5)]
        u = random_unimodular(rng, 3)
        base = random_set(rng, n=3, m=3)
        psets.append(
            PeriodicSet(
                LatticeBasis(u @ base.basis.vectors),
                Motif(base.motif.points @ np.linalg.inv(u)),
            )
        )
        for pset in psets:
            gen = EdgeGenerator(pset)
            for hi in (gen.metrics.h, gen.max_length):
                gen._set_boxes(hi)
                lo, up = gen._box_lo.T, gen._box_up.T
                for first, last in BUILD_RANGES:
                    extents = shell_extents(pset.dim, first, last)
                    for block in (7, 4096):
                        got = column_blocks(lo, up, *extents, block)
                        assert got == near_far_blocks(lo, up, *extents, block)

    def test_stream_boxes_in_the_stream_builds(self):
        # the boxes of slabs and needles for two horizons, in the extents
        # of their first three builds and of a rescan of them
        rng = np.random.default_rng(1002)
        scaled = 0
        for _ in range(12):
            n = int(rng.integers(2, 4))
            pset = thin_set(rng, n, int(rng.integers(1, 7)), ratio=12.0)
            gen = EdgeGenerator(pset)
            builds = [None] + [gen._extents(build) for build in (1, 2, 3)]
            scaled += len(set(builds[1].tolist())) > 1
            for hi in (gen.metrics.h, 0.5 * gen.max_length):
                gen._set_boxes(hi)
                lo, up = gen._box_lo.T, gen._box_up.T
                regions = [*zip(builds, builds[1:]), (None, builds[-1])]
                for inner, outer in regions:
                    for block in (7, 4096):
                        got = column_blocks(lo, up, inner, outer, block)
                        assert got == near_far_blocks(lo, up, inner, outer, block)
        assert scaled >= 8


class TestCapsAndHorizons:
    def test_default_horizon_is_the_cell_bound(self):
        # drained, the default stream is every class up to r_upper, and it
        # never needs more than ceil(aspect) + 1 shells to get there
        rng = np.random.default_rng(47)
        for _ in range(100):
            pset = random_set(rng)
            metrics = cell_metrics(pset.basis)
            gen = EdgeGenerator(pset)
            got = list(gen)
            expected = [
                c
                for c in brute_force_classes(pset, math.ceil(metrics.aspect) + 3)
                if c[0] <= metrics.r_upper * (1 + 1e-9)
            ]
            assert [e.length for e in got] == pytest.approx(
                [c[0] for c in expected], rel=1e-12, abs=1e-12
            )
            assert {(e.source, e.dest, e.translation) for e in got} == {
                (s, d, t) for _, s, d, t in expected
            }
            assert gen.shells_enumerated <= math.ceil(metrics.aspect) + 1

    def test_extended_cap_allows_more_shells(self, z2):
        # an unbounded stream runs far past the default horizon r_upper = 1
        gen = EdgeGenerator(z2, max_length=math.inf)
        edges = take(gen, 400)
        assert edges[-1].length > 5

    def test_max_length_exhausts_cleanly(self, z2):
        gen = EdgeGenerator(z2, max_length=1.5)
        got = list(gen)
        assert [e.length for e in got] == pytest.approx([1, 1, math.sqrt(2), math.sqrt(2)])

    def test_generator_protocol(self, z2):
        gen = EdgeGenerator(z2, max_length=1.1)
        assert iter(gen) is gen
        assert len(list(gen)) == 2

    def test_no_distances_before_first_yield(self, z2):
        gen = EdgeGenerator(z2)
        assert gen.shells_enumerated == 0
        assert gen.pending == ()
        next(gen)  # the first edge enumerates shells 0 and 1
        assert gen.shells_enumerated == 2

    @pytest.mark.parametrize("horizon", [float("nan"), -math.inf, -1.0])
    def test_nan_horizon_is_refused(self, z3, horizon):
        # ``bound > nan`` is never true, so a NaN horizon would build empty
        # shells for ever; a negative one can hold no edge
        with pytest.raises(ValueError, match="NaN"):
            EdgeGenerator(z3, max_length=horizon)


def brute_force_upto(pset: PeriodicSet, limit: float):
    """Every canonical class no longer than ``limit``, in yield order.

    Runs of lengths within 1e-12 (relative) of each other count as exact
    ties: the oracle's own rounding may split a tie the stream computes
    exactly (a self-edge is (c + shift) - c here, shift there)."""
    h = cell_metrics(pset.basis).h
    classes = brute_force_classes(pset, math.floor(limit / h) + 2)
    snapped, run = [], None
    for length, s, d, t in classes:
        if run is None or length - run > 1e-12 * run:
            run = length
        if length <= limit:
            snapped.append((run, s, d, t, length))
    return [(length, s, d, t) for _, s, d, t, length in sorted(snapped)]


def gap_after(pset: PeriodicSet, k: int) -> float:
    """A length halfway across the first clear gap after the k-th class."""
    classes = brute_force_prefix(pset, 3 * k)
    for a, b in zip(classes[k:], classes[k + 1 :]):
        if b[0] - a[0] > 1e-9 * a[0]:
            return (a[0] + b[0]) / 2
    raise AssertionError("no gap between classes")


def symmetric_set(rng: np.random.Generator, n: int) -> PeriodicSet:
    """Up to 12 points of the {0, 1/4, 1/2, 3/4}^n grid in a cell with
    edges 1 or 3/2: every coordinate and length square is a dyadic
    fraction, so symmetric pairs tie exactly."""
    grid = np.array(list(itertools.product([0.0, 0.25, 0.5, 0.75], repeat=n)))
    m = int(rng.integers(1, min(12, len(grid)) + 1))
    motif = grid[rng.choice(len(grid), size=m, replace=False)]
    basis = np.diag(rng.choice([1.0, 1.5], size=n))
    return PeriodicSet(LatticeBasis(basis), Motif(motif))


def cubic_set(motif) -> PeriodicSet:
    return PeriodicSet(LatticeBasis(np.eye(3)), Motif(motif))


FCC = cubic_set([[0, 0, 0], [0.5, 0.5, 0], [0.5, 0, 0.5], [0, 0.5, 0.5]])
CUBE_8 = cubic_set(list(itertools.product([0.0, 0.5], repeat=3)))


class TestSpacing:
    """The working horizon starts at a multiple of the motif's spacing,
    the cube edge (vol / m)^(1/n) over the axes thicker than it."""

    @pytest.mark.parametrize(
        "heights, m, spacing",
        [
            ((2.0, 2.0, 2.0), 1, 2.0),  # one point: the cell's edge
            ((2.0, 2.0, 2.0), 8, 1.0),  # a cube: (vol / m)^(1/3)
            ((10.0, 10.0, 1.0), 4, 5.0),  # a slab: 25^(1/2), not 25^(1/3)
            ((1.0, 1.0, 12.0), 3, 4.0),  # a needle: 4 / 1, not 4^(1/3)
            ((6.0,), 3, 2.0),  # 1-D: the length over m
        ],
    )
    def test_exact_values(self, heights, m, spacing):
        # a rectangular cell, its volume the product of its heights, given
        # exactly: cell_metrics rounds them by an ulp or two
        cell = SimpleNamespace(vol=math.prod(heights), heights=heights)
        assert edges_module._spacing(cell, m) == spacing

    def test_the_stream_starts_at_the_collapsed_spacing(self):
        rng = np.random.default_rng(51)
        gen = EdgeGenerator(make_set(np.diag([10.0, 10.0, 1.0]), rng.random((4, 3))))
        start = edges_module._START_FACTOR
        assert gen._horizon == start * edges_module._spacing(gen._cell, 4)
        assert gen._horizon == pytest.approx(start * 5.0, rel=1e-15)


class TestWorkingHorizon:
    """The working horizon grows in bands; the stream must not show it."""

    def band_cases(self):
        rng = np.random.default_rng(48)
        cases = []
        for _ in range(24):
            n = int(rng.integers(1, 4))
            cases.append(random_set(rng, n=n, m=int(rng.integers(1, 13))))
            cases.append(symmetric_set(rng, n))
        # slabs and needles, whose spacing collapses the thin axes
        thin = np.random.default_rng(50)
        for _ in range(8):
            n = int(thin.integers(2, 4))
            cases.append(thin_set(thin, n, int(thin.integers(1, 7)), ratio=12.0))
        return cases

    def test_many_bands_yield_the_single_band_stream(self, monkeypatch):
        # a start of 1e-3 times the spacing crosses ten bands before the
        # first edge; an infinite start is one band up to max_length.  Edge
        # for edge, and shell for shell before each edge, the streams agree
        cases = self.band_cases()
        streams = {}
        for start in (1e-3, math.inf):
            monkeypatch.setattr(edges_module, "_START_FACTOR", start)
            streams[start] = []
            for pset in cases:
                gen = EdgeGenerator(pset)
                steps = [(e, gen.shells_enumerated) for e in gen]
                streams[start].append((steps, gen.shells_enumerated))
        for banded, single in zip(streams[1e-3], streams[math.inf]):
            assert banded == single
            keys = [(e.source, e.dest, e.translation) for e, _ in banded[0]]
            assert len(set(keys)) == len(keys)

    def test_many_bands_match_brute_force_in_exact_order(self, monkeypatch):
        monkeypatch.setattr(edges_module, "_START_FACTOR", 1e-3)
        for pset in self.band_cases():
            limit = gap_after(pset, 30)
            got = list(EdgeGenerator(pset, max_length=limit))
            expected = brute_force_upto(pset, limit)
            assert [(e.source, e.dest, e.translation) for e in got] == [
                (s, d, t) for _, s, d, t in expected
            ]
            assert [e.length for e in got] == pytest.approx(
                [c[0] for c in expected], rel=1e-12
            )

    def test_edges_exactly_at_band_edges(self, monkeypatch, z2):
        # with a start of 2^-10 and a growth of 2 the bands of Z^2 end at
        # exactly 1, 2 and 4, where edges lie: (lo, hi] must keep each in
        # one band
        monkeypatch.setattr(edges_module, "_START_FACTOR", 2.0**-10)
        monkeypatch.setattr(edges_module, "_GROWTH_FACTOR", 2.0)
        gen = EdgeGenerator(z2, max_length=4.0)
        got = [(e.length, e.source, e.dest, e.translation) for e in gen]
        assert gen._horizon == 4.0
        assert {1.0, 2.0, 4.0} <= {length for length, *_ in got}
        assert got == brute_force_upto(z2, 4.0)
        monkeypatch.setattr(edges_module, "_START_FACTOR", math.inf)
        single = EdgeGenerator(z2, max_length=4.0)
        assert got == [(e.length, e.source, e.dest, e.translation) for e in single]

    @pytest.mark.parametrize("pset", [FCC, CUBE_8], ids=["fcc", "cube-8"])
    @pytest.mark.parametrize("start", [1e-3, 2.0])
    def test_ties_come_out_in_full_key_order(self, monkeypatch, pset, start):
        monkeypatch.setattr(edges_module, "_START_FACTOR", start)
        got = list(EdgeGenerator(pset, max_length=2.0))
        lengths = [e.length for e in got]
        assert len(set(lengths)) * 4 < len(lengths)  # mostly ties
        assert got == sorted(got)
        assert len(got) == len(brute_force_upto(pset, 2.0))

    def test_a_growth_is_one_build(self, monkeypatch):
        # each growth rescans the box of the last build in one call,
        # _collect(None, e(L), H_old, H_new).  slab_19 with a start of half
        # its spacing grows four times after its first build, whose box,
        # scaled by the reduced cell's heights, is (6, 1, 1) cells (2, 3, 4
        # and 6 shells built when every build was a cube)
        monkeypatch.setattr(edges_module, "_START_FACTOR", 0.5)
        gen = EdgeGenerator(slab_19())
        collect, calls = gen._collect, []

        def recording(inner, outer, lo, hi):
            calls.append((inner, outer.tolist(), lo, hi, gen.shells_enumerated))
            return collect(inner, outer, lo, hi)

        gen._collect = recording
        list(gen)
        growths = [call for call in calls if call[2] > -math.inf]
        for inner, outer, lo, hi, sigma in growths:
            assert inner is None and outer == gen._extents(sigma - 1).tolist()
            assert [call[2:4] for call in calls].count((lo, hi)) == 1
        assert [(outer, sigma) for _, outer, _, _, sigma in growths] == [([6, 1, 1], 2)] * 4

    def test_tie_only_order_is_the_full_key_sort(self):
        # integer lengths make long runs of ties; repeated full keys must
        # keep their input order, as in a stable sort
        rng = np.random.default_rng(49)
        for rows in (0, 1, 2, 50, 3000):
            length = rng.integers(0, 12, size=rows).astype(float)
            source = rng.integers(0, 3, size=rows).astype(np.int32)
            dest = rng.integers(0, 3, size=rows).astype(np.int32)
            translation = rng.integers(-2, 3, size=(rows, 3)).astype(np.int32)
            full = np.lexsort((*translation.T[::-1], dest, source, length))
            order = edges_module._yield_order(length, source, dest, translation)
            assert np.array_equal(order, full)


def region_vectors(inner, outer, block: int = 4096):
    """The integer vectors with |t_k| <= outer[k] on every axis and, if
    ``inner`` is not None, |t_k| > inner[k] on some axis: the whole outer
    box by brute force, less the inner one, in blocks."""
    grid = np.indices(tuple(2 * outer + 1)).reshape(len(outer), -1).T - outer
    if inner is not None:
        grid = grid[(np.abs(grid) > inner).any(axis=1)]
    for start in range(0, len(grid), block):
        yield grid[start : start + block]


def all_pairs_collect(pset: PeriodicSet, inner, outer, lo, hi, gen=None) -> set:
    """Oracle: the all-pairs kernel the pair boxes replaced.  Every motif
    pair at every translation of the box ``outer`` less the box ``inner``
    (see :func:`region_vectors`), with the same length expression, kept
    if lo < length <= hi; a set of (length, source, dest, translation).
    If ``gen`` builds in a reduced cell, the boxes are that cell's, and
    each pair's translations t' are mapped to the input cell as (t' +
    w_src - w_dst) U."""
    cart = pset.cartesian_motif
    m, n = pset.motif_size, pset.dim
    src, dst = np.triu_indices(m, k=1)
    u, wrap = np.eye(n, dtype=np.int64), np.zeros((m + 1, n), dtype=np.int64)
    if gen is not None and gen._unimodular is not None:
        u, wrap = gen._unimodular.astype(np.int64), gen._wrap.astype(np.int64)
    out = set()
    for faces in region_vectors(inner, outer):
        # (faces, pairs, n) input translations
        t = (faces[:, None, :] + wrap[src] - wrap[dst]) @ u
        shift = (t[:, :, None, :].astype(float) @ pset.basis.vectors)[:, :, 0, :]
        pair_len = row_norms((cart[dst] + shift) - cart[src])
        for f, p in zip(*np.nonzero((pair_len > lo) & (pair_len <= hi))):
            t_key = tuple(t[f, p].tolist())
            out.add((float(pair_len[f, p]), int(src[p]), int(dst[p]), t_key))
        # the zero vector is not lex-positive: no self class at t = 0
        own = faces @ u
        own_shift = (own[:, None, :].astype(float) @ pset.basis.vectors)[:, 0]
        self_len = row_norms(own_shift)
        keep = (self_len > lo) & (self_len <= hi)
        for f in np.nonzero(edges_module._lex_positive_rows(own) & keep)[0]:
            t_key = tuple(own[f].tolist())
            out |= {(float(self_len[f]), i, i, t_key) for i in range(m)}
    return out


def checked_stream(pset: PeriodicSet, k=None, **kwargs):
    """Run a stream, to its end or for ``k`` edges, comparing its every
    ``_collect(inner, outer, lo, hi)`` with the all-pairs oracle over the
    same region: a build's box less the last build's, or for a rescan
    the last build's whole box; return the bands (lo, hi) it collected."""
    gen = EdgeGenerator(pset, **kwargs)
    collect = gen._collect
    bands = set()

    def checked(inner, outer, lo, hi):
        built = gen._extents(gen._builds)
        assert np.array_equal(outer, built)
        if lo == -math.inf:  # a build: its box less the one before
            before = gen._extents(gen._builds - 1) if gen._builds > 1 else None
            assert inner is None if before is None else np.array_equal(inner, before)
        else:  # a rescan of every build so far
            assert inner is None
        parts = list(collect(inner, outer, lo, hi))
        got = [
            (length, source, dest, tuple(t))
            for part in parts
            for length, source, dest, t in zip(*(c.tolist() for c in part))
        ]
        expected = all_pairs_collect(pset, inner, outer, lo, hi, gen)
        assert len(set(got)) == len(got)
        assert set(got) == expected, (inner, outer, lo, hi)
        bands.add((lo, hi))
        return parts

    gen._collect = checked
    list(itertools.islice(gen, k))
    return bands


def sheared_set(rng: np.random.Generator, max_aspect: float) -> PeriodicSet:
    """A random cell times a random unimodular shear, of aspect up to
    ``max_aspect``, with up to 6 random points."""
    n = int(rng.integers(2, 4))
    while True:
        shear = np.eye(n)
        for _ in range(3):
            i, j = rng.choice(n, size=2, replace=False)
            step = np.eye(n)
            step[i, j] = rng.integers(-4, 5)
            shear = step @ shear
        basis = LatticeBasis(shear @ random_basis(rng, n).vectors)
        if 3 <= cell_metrics(basis).aspect <= max_aspect:
            return PeriodicSet(basis, random_motif(rng, n, int(rng.integers(1, 7))))


class TestPairBoxes:
    """A row the box test drops is never one the length test keeps: every
    collected band of every built shell equals the all-pairs kernel's."""

    @pytest.mark.parametrize("start", [1e-3, 2.0])
    def test_random_and_tied_sets(self, monkeypatch, start):
        monkeypatch.setattr(edges_module, "_START_FACTOR", start)
        rng = np.random.default_rng(61)
        most_bands = 0
        for _ in range(12):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 13))
            for pset in (random_set(rng, n=n, m=m), symmetric_set(rng, n)):
                most_bands = max(most_bands, len(checked_stream(pset)))
        assert most_bands >= (10 if start < 1 else 1)

    @pytest.mark.parametrize("start", [1e-3, 2.0])
    def test_unimodular_shears(self, monkeypatch, start):
        monkeypatch.setattr(edges_module, "_START_FACTOR", start)
        rng = np.random.default_rng(62)
        for _ in range(8):
            checked_stream(sheared_set(rng, max_aspect=20.0))

    @pytest.mark.parametrize("start", [1e-3, 2.0])
    def test_slabs_and_needles(self, monkeypatch, start):
        # builds whose boxes reach many more cells on the thin axes
        monkeypatch.setattr(edges_module, "_START_FACTOR", start)
        rng = np.random.default_rng(66)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            checked_stream(thin_set(rng, n, int(rng.integers(1, 7)), ratio=15.0))

    def test_z2_edges_at_band_ends(self, monkeypatch, z2):
        # bands ending at exactly 1, 2 and 4, as in TestWorkingHorizon
        monkeypatch.setattr(edges_module, "_START_FACTOR", 2.0**-10)
        monkeypatch.setattr(edges_module, "_GROWTH_FACTOR", 2.0)
        bands = checked_stream(z2, max_length=4.0)
        assert {1.0, 2.0, 4.0} <= {hi for _, hi in bands}

    @pytest.mark.parametrize("name", ["Z", "BCC", "D", "A"])
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_lattices(self, name, n):
        checked_stream(lattice_set(name, n), k=20)

    def test_lattices_over_many_bands(self, monkeypatch):
        monkeypatch.setattr(edges_module, "_START_FACTOR", 1e-3)
        for name in ("Z", "BCC", "D", "A"):
            for n in (4, 6):
                checked_stream(lattice_set(name, n), k=20)


def reference_shell_blocks(lo, up, inner, outer, block):
    """The former ``_shell_blocks``, kept as part of
    :func:`reference_collect`: the decoded rows inside ``inner`` are
    dropped by boolean masks."""
    outer = outer[:, None]
    offset = np.maximum(lo, -outer)
    top = np.minimum(up, outer)
    meets = (offset <= top).all(axis=0)
    if inner is not None:
        meets &= (np.maximum(-offset, top) > inner[:, None]).any(axis=0)
    (box,) = np.nonzero(meets)
    offset = offset.take(box, 1).T
    radix = top.take(box, 1).T - offset + 1
    count = radix.prod(axis=1, dtype=np.int64)
    (one,) = np.nonzero(count == 1)
    for start in range(0, len(one), block):
        part = one[start : start + block]
        yield offset[part], box[part]
    (many,) = np.nonzero(count > 1)
    if len(many) == 0:
        return
    box, rad, off = box[many], radix[many], offset[many]
    end = np.cumsum(count[many])
    first_index = end - count[many]
    for start in range(0, int(end[-1]), block):
        index = np.arange(start, min(start + block, int(end[-1])))
        q = np.searchsorted(end, index, side="right")
        t = edges_module._decode(index - first_index[q], rad.take(q, 0), off.take(q, 0))
        if inner is not None:
            keep = (np.abs(t) > inner).any(axis=1)
            t, q = t[keep], q[keep]
            if len(t) == 0:
                continue
        yield t, box[q]


def reference_collect(self, inner, outer, lo, hi):
    """The former ``EdgeGenerator._collect``, kept as an oracle for the
    pair kernel: it gathers the kept rows by boolean masks, runs the lex
    test over every row of a block, and sums each row norm with NumPy's
    own reduction, ``np.sqrt((a * a).sum(axis=-1))``."""
    if hi != self._box_horizon:
        self._set_boxes(hi)
    blocks = reference_shell_blocks(
        self._box_lo, self._box_up, inner, outer, edges_module._BLOCK
    )
    for t, box in blocks:
        pair = self._live[box]
        if self._unimodular is not None:
            t = self._input_translations(t, pair)
        shift = (t[:, None, :].astype(float) @ self._basis)[:, 0]
        own = pair == self._self_pair
        if own.all():
            length = np.sqrt((shift * shift).sum(axis=-1))
        else:
            src = self._cart.take(self._pair_src.take(pair), 0)
            dst = self._cart.take(self._pair_dst.take(pair), 0)
            x = (dst + shift) - src
            length = np.sqrt((x * x).sum(axis=-1))
        keep = (length > lo) & (length <= hi)
        if own.any():
            keep &= ~own | edges_module._lex_positive_rows(t)
            own_length, own_t = length[keep & own], t[keep & own]
            points = np.tile(np.arange(self._m, dtype=np.int32), len(own_t))
            yield (
                np.repeat(own_length, self._m),
                points,
                points,
                np.repeat(own_t, self._m, axis=0),
            )
            keep &= ~own
        pair = pair[keep]
        yield length[keep], self._pair_src[pair], self._pair_dst[pair], t[keep]


@st.composite
def kernel_calls(draw):
    """A periodic set and one ``_collect`` call on its stream: a build L
    (its box less build L - 1's) or a rescan band (lo, hi] of build L's
    whole box, in the input cell or in a reduced one, with the block size
    drawn small or not.  ``scale`` sets the horizon: times L h_max up to
    4-D, so that later builds keep rows, and times the motif's spacing
    above, where a box of a few cells a side already holds thousands of
    translations."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 12 if n <= 4 else 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = random_basis(rng, n, max_aspect=10.0)
    # a sheared cell kept as the input one has long boxes in high dimension
    cells = ["input", "sheared", "sheared, kept"]
    cell = draw(st.sampled_from(cells if n <= 4 else cells[:2]))
    u = random_unimodular(rng, n, reach=2) if cell != "input" else np.eye(n, dtype=np.int64)
    try:
        basis = LatticeBasis(u @ base.vectors)
    except DegenerateCell:  # a shear too long for the determinant check
        assume(False)
    pset = PeriodicSet(basis, Motif(rng.random((m, n)) @ np.linalg.inv(u)))
    build = draw(st.integers(1, 3 if n <= 4 else 2))
    rescan = draw(st.booleans())
    scale = draw(st.floats(0.2, 1.5 if n <= 3 else 0.8 if n == 4 else 1.2))
    # small blocks split boxes, the self box among them, over blocks
    small = [2, 3, 5, 8] if n <= 3 and m <= 3 else [64]
    block = draw(st.sampled_from([*small, edges_module._BLOCK]))
    return pset, cell, build, rescan, scale, block


class TestKernelOracle:
    """The pair kernel yields what the former one did: every part equal in
    values, bit for bit, in dtype and in row order."""

    @settings(max_examples=300, deadline=None)
    @given(kernel_calls())
    def test_parts_equal_the_former_kernel(self, call):
        pset, cell, build, rescan, scale, block = call
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(edges_module, "_BLOCK", block)
            if cell == "sheared, kept":
                patch.setattr(edges_module, "reduce_basis", keep_input_cell)
            gen = EdgeGenerator(pset)
            if pset.dim <= 4:
                hi = scale * build * gen._heights.max()
            else:
                hi = scale * edges_module._spacing(gen._cell, pset.motif_size)
            outer = gen._extents(build)
            if rescan:
                inner, lo = None, hi / 2
            else:
                inner, lo = (gen._extents(build - 1) if build > 1 else None), -math.inf
            got = list(gen._collect(inner, outer, lo, hi))
            expected = list(reference_collect(gen, inner, outer, lo, hi))
        assert len(got) == len(expected)
        for part, want in zip(got, expected):
            for column, column_want in zip(part, want, strict=True):
                assert column.dtype == column_want.dtype
                assert column.shape == column_want.shape
                assert column.tobytes() == column_want.tobytes()

    def test_a_self_box_split_over_two_blocks(self, monkeypatch):
        # Z^2's cube is one self box of nine translations: blocks of seven
        # rows split it, and each block yields two lex-positive rows
        monkeypatch.setattr(edges_module, "_BLOCK", 7)
        gen = EdgeGenerator(make_set(np.eye(2), [[0.0, 0.0]]))
        outer = gen._extents(1)
        got = list(gen._collect(None, outer, -math.inf, 1.5))
        expected = list(reference_collect(gen, None, outer, -math.inf, 1.5))
        assert len(got) == len(expected) == 4
        for part, want in zip(got, expected):
            assert all(a.tobytes() == b.tobytes() for a, b in zip(part, want))
        assert [len(part[0]) for part in got[::2]] == [2, 2]


class TestWorkBound:
    """Lengths are computed for little more than the rows kept."""

    @pytest.fixture
    def computed(self, monkeypatch):
        count = [0]

        def counting(a):
            out = row_norms(a)
            count[0] += out.size
            return out

        monkeypatch.setattr(edges_module, "row_norms", counting)
        return count

    def test_slab_after_bridge_length(self, monkeypatch, computed):
        streams = []

        class Recording(EdgeGenerator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                streams.append(self)

        monkeypatch.setattr(bridge_module, "EdgeGenerator", Recording)
        report = bridge_length(slab_19())
        (gen,) = streams
        kept = report.edges_examined + len(gen.pending)
        assert computed[0] <= 4 * kept

    def test_random_cube_after_2000_edges(self, computed):
        rng = np.random.default_rng(63)
        gen = EdgeGenerator(make_set(np.eye(3) * 15.0, rng.random((300, 3))))
        take(gen, 2000)
        assert computed[0] <= 4 * (2000 + len(gen.pending))

    @pytest.mark.parametrize(
        "workload, rows, rescans",
        [("dense-motif", 131849, 3), ("many-cells", 83843, 5), ("cif-batch", 274353, 33)],
    )
    def test_seed_101_rows_and_rescans(
        self, monkeypatch, computed, bench_corpus, workload, rows, rescans
    ):
        # over one pass of the corpus: the rows decoded, each given one
        # length, and the growths of the working horizon.  Both follow the
        # horizon's start: with twice the cube edge they were 224 077, 86 896
        # and 316 885 rows, and 0, 9 and 9 rescans
        bands = []

        class Recording(EdgeGenerator):
            def _collect(self, inner, outer, lo, hi):
                bands.append(lo)
                return super()._collect(inner, outer, lo, hi)

        monkeypatch.setattr(bridge_module, "EdgeGenerator", Recording)
        for case in bench_corpus.make(workload, 101):
            bridge_length(corpus_set(case, workload))
        assert computed[0] == rows
        assert sum(lo > -math.inf for lo in bands) == rescans


class TestExtremeHorizons:
    """Huge or infinite horizons give finite int32 boxes and no float
    warning (warnings are errors in this suite)."""

    @pytest.mark.parametrize(
        "start, max_length",
        [(2.0, 1e308), (2.0, math.inf), (math.inf, 1e308), (math.inf, math.inf)],
    )
    def test_first_edges(self, monkeypatch, start, max_length):
        monkeypatch.setattr(edges_module, "_START_FACTOR", start)
        skewed = make_set(
            [[1.0, 0.0, 0.0], [0.9, 0.6, 0.0], [0.3, -0.4, 0.8]],
            [[0.1, 0.2, 0.3], [0.7, 0.1, 0.5], [0.4, 0.8, 0.9]],
        )
        for pset in (make_set(np.eye(3), [[0.0, 0.0, 0.0]]), skewed):
            got = take(EdgeGenerator(pset, max_length=max_length), 20)
            assert_prefix_matches(got, brute_force_prefix(pset, 21))

    def test_default_horizon_with_infinite_start(self, monkeypatch, bcc):
        monkeypatch.setattr(edges_module, "_START_FACTOR", math.inf)
        assert len(list(EdgeGenerator(bcc))) == len(brute_force_upto(bcc, 1.0))


@pytest.fixture
def bench_corpus(monkeypatch):
    """The benchmark's corpus generator, ``bench/corpus.py``."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import corpus

    return corpus


def corpus_set(case, workload: str) -> PeriodicSet:
    """The periodic set of one benchmark corpus case."""
    if workload == "cif-batch":
        return to_periodic_set(parse_cif(case.text))
    return make_set(case.basis, case.frac)


@pytest.fixture
def dense_000(bench_corpus):
    """``dense-000-uniform-m20`` of the seed-101 benchmark corpus: its
    first shells release a run of more than two chunks."""
    case = bench_corpus.make("dense-motif", 101)[0]
    assert case.name == "dense-000-uniform-m20"
    return make_set(case.basis, case.frac)


class TestChunkedRelease:
    """``next()`` converts released rows a chunk at a time; stopping
    anywhere must leave the same yields and ``pending`` as converting one
    row per call (the tracer's ``edges.generated`` reads both)."""

    CHUNK = edges_module._CHUNK
    STOPS = sorted({1, 2, 41, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5, 103})

    @staticmethod
    def stops(pset, stops):
        """(shells, yielded, pending) after each of ``stops`` yields of
        one fresh stream, as far as it goes."""
        gen = EdgeGenerator(pset)
        out, yielded = [], []
        for k in stops:
            yielded += itertools.islice(gen, k - len(yielded))
            out.append((gen.shells_enumerated, list(yielded), gen.pending))
        return out

    @pytest.mark.parametrize("name", ["fig3", "bcc", "slab", "dense-000"])
    def test_stopping_anywhere_matches_one_row_per_call(
        self, monkeypatch, fig3_set, bcc, dense_000, name
    ):
        pset = {"fig3": fig3_set, "bcc": bcc, "slab": slab_19(), "dense-000": dense_000}[name]
        got = self.stops(pset, self.STOPS)
        monkeypatch.setattr(edges_module, "_CHUNK", 1)
        assert got == self.stops(pset, self.STOPS)
        longest = got[-1][1] + list(got[-1][2])
        for _, yielded, pending in got:
            # each stop sees a prefix of one order, in CandidateEdge order
            assert yielded == longest[: len(yielded)]
            assert yielded + list(pending) == sorted(yielded + list(pending))
        if name == "dense-000":
            # one run spans several chunks: no shell is built between the
            # first yield and yield 2 * CHUNK + 5
            k = self.STOPS.index(2 * self.CHUNK + 5)
            assert len(got[k][1]) == 2 * self.CHUNK + 5 and got[0][0] == got[k][0]

    @staticmethod
    def buffer_row(gen, row):
        """Row ``row`` of the buffer as a CandidateEdge of Python scalars."""
        t = tuple(int(x) for x in gen._translation[row])
        return CandidateEdge._make(
            (float(gen._length[row]), int(gen._source[row]), int(gen._dest[row]), t)
        )

    @staticmethod
    def assert_plain(e):
        assert type(e) is CandidateEdge
        assert (type(e.length), type(e.source), type(e.dest)) == (float, int, int)
        assert type(e.translation) is tuple
        assert all(type(x) is int for x in e.translation)

    def test_each_edge_is_its_buffer_row_in_python_types(self, fig3_set, dense_000):
        sheared = sheared_set(np.random.default_rng(5), 20.0)
        assert EdgeGenerator(sheared)._unimodular is not None
        for pset in (fig3_set, slab_19(), dense_000, sheared):
            gen = EdgeGenerator(pset, max_length=math.inf)
            for _ in range(3 * self.CHUNK + 7):
                e = next(gen)
                # the rows of a chunk stay put until the chunk is read out
                first = gen._cursor - len(gen._ready)
                self.assert_plain(e)
                assert e == self.buffer_row(gen, first - 1)
                pending = gen.pending
                for p in pending:
                    self.assert_plain(p)
                rows = range(first, len(gen._length))
                assert pending == tuple(self.buffer_row(gen, r) for r in rows)

    def test_yields_sort_across_chunk_boundaries(self, fig3_set, bcc, dense_000):
        for pset in (fig3_set, bcc, slab_19(), dense_000):
            yielded = take(EdgeGenerator(pset, max_length=math.inf), 3 * self.CHUNK + 7)
            assert yielded == sorted(yielded)


class TestKeyOrderInTheCube:
    """Shells 0 and 1 are built as one cube and sorted once, so no release
    bound lies between them, and every later release bound is lowered by
    the rounding margin: ties and near-ties across a shell boundary come
    out in (length, source, dest, translation) order."""

    #: seed-101 CIF streams that yielded out of key order when shells 0
    #: and 1 were built and released apart (a float release bound a few
    #: ulps above the exact one)
    STRADDLING = (
        "cif184_Fmmm_m40",
        "cif191_Immm_m44",
        "cif192_P4mmm_m43",
        "cif195_Fmmm_m48",
        "cif230_I4mmm_m124",
        "cif237_Fm3m_m192",
    )

    def test_seed_101_cif_streams_yield_in_key_order(self, bench_corpus):
        cases = {case.name: case for case in bench_corpus.make("cif-batch", 101)}
        for name in self.STRADDLING:
            pset = to_periodic_set(parse_cif(cases[name].text))
            examined = bridge_length(pset).edges_examined
            got = take(EdgeGenerator(pset), examined)
            assert got == sorted(got), name

    #: seed-101 CIF streams that yielded out of key order from shell 2 on,
    #: read to their horizon, while the release bound was rounded with no
    #: margin
    WHOLE = (
        "cif174_Immm_m32",
        "cif184_Fmmm_m40",
        "cif191_Immm_m44",
        "cif192_P4mmm_m43",
    )

    def test_seed_101_cif_streams_to_their_horizon_yield_in_key_order(
        self, bench_corpus
    ):
        cases = {case.name: case for case in bench_corpus.make("cif-batch", 101)}
        for name in self.WHOLE:
            got = list(EdgeGenerator(to_periodic_set(parse_cif(cases[name].text))))
            assert got == sorted(got), name

    def test_first_build_releases_in_key_order(self):
        # symmetric sets tie exactly, often between a pair inside the cell
        # (shell 0) and one across a face (shell 1)
        rng = np.random.default_rng(64)
        straddling = 0
        for _ in range(60):
            pset = symmetric_set(rng, int(rng.integers(1, 4)))
            gen = EdgeGenerator(pset, max_length=math.inf)
            first = []
            for edge in gen:
                if gen.shells_enumerated > 2:
                    break
                first.append(edge)
            assert first and first == sorted(first)
            zero = {e.length for e in first if not any(e.translation)}
            straddling += any(e.length in zero for e in first if any(e.translation))
        assert straddling >= 10


def keep_input_cell(vectors):
    """Stand-in for ``reduce_basis`` that keeps every input cell: U and
    U^-1 are the identity."""
    eye = np.eye(len(vectors), dtype=np.int64)
    return eye, eye


def input_cell_length(pset: PeriodicSet, edge) -> float:
    """The stream's length expression in the input cell, recomputed: a
    (1, n) @ (n, n) shift, then (c_dst + shift) - c_src; the self class
    is measured from a zero point, so its length is |shift|."""
    shift = (np.array([edge.translation], dtype=float) @ pset.basis.vectors)[0]
    if edge.source == edge.dest:
        return float(row_norms(shift))
    cart = pset.cartesian_motif
    return float(row_norms((cart[edge.dest] + shift) - cart[edge.source]))


class TestReducedCell:
    """A stream built in a reduced cell is the input cell's stream: the
    same edges, keys and lengths bit for bit, in the same order."""

    def test_sheared_sets_stream_as_in_the_input_cell(self, monkeypatch):
        rng = np.random.default_rng(80)
        reduced = 0
        for _ in range(60):
            n = int(rng.integers(1, 5))
            base = random_set(rng, n=n, m=int(rng.integers(1, 7)))
            u = random_unimodular(rng, n)
            pset = PeriodicSet(
                LatticeBasis(u @ base.basis.vectors),
                Motif(base.motif.points @ np.linalg.inv(u)),
            )
            gen = EdgeGenerator(pset)
            got = list(itertools.islice(gen, 300))
            reduced += gen._unimodular is not None
            with monkeypatch.context() as patch:
                patch.setattr(edges_module, "reduce_basis", keep_input_cell)
                expected = list(itertools.islice(EdgeGenerator(pset), 300))
            assert got == expected
            for edge in got:
                assert edge.length == input_cell_length(pset, edge)
        assert reduced >= 20

    def test_unreduced_cell_builds_no_reduced_state(self, bcc):
        gen = EdgeGenerator(bcc)
        assert gen._unimodular is None and gen._cell is gen.metrics

    def test_reduced_cell_no_better_shaped_is_not_used(self):
        # LLL shears this cell by U = [[1, 0], [-1, 1]] into one of the same
        # aspect: only a strictly better shaped cell replaces the input's
        basis = np.array(
            [
                [-0.973625254060252, 0.3911925255209856],
                [-0.24894734161071963, 0.9984008699557433],
            ]
        )
        pset = make_set(basis, [[0.0, 0.0], [0.3, 0.6]])
        u, _ = edges_module.reduce_basis(basis)
        assert u.tolist() == [[1, 0], [-1, 1]]
        aspect = cell_metrics(pset.basis).aspect
        assert cell_metrics(LatticeBasis(u @ basis)).aspect == aspect == 1.258717769407988
        gen = EdgeGenerator(pset)
        assert gen._unimodular is None and gen._cell is gen.metrics
        assert bridge_length(pset).beta == pytest.approx(
            oracle_bridge_length(pset), rel=1e-12
        )

    def test_reduced_cell_outside_the_float_range_is_not_used(self):
        # b3 - 5 b1 = (0, 5 a' - 5 a, 1) has an entry of 1e-165, whose
        # square underflows, so the reduced cell's metrics are refused
        a = 1e-150
        basis = np.array([[1, a, 0], [0, 1, 0], [5, 5 * math.nextafter(a, 1), 1]])
        pset = make_set(basis, [[0, 0, 0], [0.3, 0.4, 0.5]])
        assert not np.array_equal(edges_module.reduce_basis(basis)[0], np.eye(3))
        gen = EdgeGenerator(pset)
        assert gen._unimodular is None
        assert bridge_length(pset).beta == 1.0

    @pytest.mark.parametrize("scale", [1e-80, 1e80])
    def test_input_cell_outside_the_float_range_raises_its_own_error(self, scale):
        # the reduction runs first and finds Z^3, but the sheared input
        # cell's facet Gram determinants leave the float range: the stream
        # raises the input cell's own error
        basis = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [3.0, 3.0, 1.0]]) * scale
        pset = make_set(basis, [[0.0, 0.0, 0.0]])
        assert not np.array_equal(edges_module.reduce_basis(basis)[0], np.eye(3))
        with pytest.raises(DegenerateCell) as alone:
            cell_metrics(pset.basis)
        with pytest.raises(DegenerateCell, match="outside the floating-point range") as got:
            EdgeGenerator(pset)
        assert str(got.value) == str(alone.value)


def l_infinity_stream(pset: PeriodicSet, **kwargs) -> EdgeGenerator:
    """Oracle: the stream with every ratio h_max / h_k forced to 1, so
    build L is the L-infinity cube [-L, L]^n less the cube before it, the
    shells built before the builds scaled with the heights."""
    gen = EdgeGenerator(pset, **kwargs)
    gen._ratio = np.ones(pset.dim)
    return gen


def build_count_bound(beta: float, heights) -> int:
    """ceil(beta / h'_max) + 2, h'_max the largest height of the cell whose
    builds are made.

    Build L reaches e_k = floor(L h'_max / h'_k) cells on axis k, so an
    unbuilt translation has |t_k| >= e_k + 1 > L h'_max / h'_k on some
    axis, and its edge is longer than (e_k + 1 - spread_k) h'_k > L h'_max
    - spread_k h'_k > (L - 1) h'_max: after build L the release bound
    exceeds (L - 1) h'_max, less the rounding margin.  Build L + 1 is made
    only when the next edge read, no longer than beta, is not released, so
    (L - 1) h'_max < beta and L + 1 < beta / h'_max + 2, up to the margin:
    at most ceil(beta / h'_max) + 1 builds, and shells_enumerated counts
    one more.  (The margin, about 1e-9 relative, could add one only if
    beta / h'_max fell within it of an integer while spread_k h'_k came
    as close to h'_max.)"""
    return math.ceil(beta / max(heights)) + 2


class TestHeightScaledBuilds:
    """Build L reaches floor(L h_max / h_k) cells on axis k: the stream is
    the L-infinity shells' stream, edge for edge, in fewer builds."""

    @given(
        st.integers(1, 4),
        st.integers(1, 6),
        st.floats(1.0, 20.0),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_stream_equals_the_l_infinity_stream(self, n, m, ratio, reduce, seed):
        rng = np.random.default_rng(seed)
        pset = thin_set(rng, n, m, ratio)
        with pytest.MonkeyPatch.context() as patch:
            if not reduce:
                patch.setattr(edges_module, "reduce_basis", keep_input_cell)
            report = bridge_length(pset)
            gen, oracle = EdgeGenerator(pset), l_infinity_stream(pset)
        # the edges the bridge length reads, and as many again
        k = 2 * report.edges_examined
        got = list(itertools.islice(gen, k))
        assert got == list(itertools.islice(oracle, k))
        assert gen.shells_enumerated <= oracle.shells_enumerated
        bound = build_count_bound(report.beta, gen._cell.heights)
        assert report.shells_enumerated <= bound

    def test_oracle_builds_l_infinity_shells(self):
        # the oracle's builds are the cubes [-L, L]^n, one shell each, and
        # a thin cell's own builds reach further on its thin axes
        pset = slab_19()
        gen, oracle = EdgeGenerator(pset), l_infinity_stream(pset)
        assert oracle._extents(3).tolist() == [3, 3, 3]
        assert gen._extents(1).tolist() == [6, 1, 1]
        assert gen._extents(3).tolist() == [18, 3, 3]
        report = bridge_length(pset)
        take(gen, report.edges_examined)
        take(oracle, report.edges_examined)
        assert (gen.shells_enumerated, oracle.shells_enumerated) == (2, 3)

    def test_equal_heights_build_shells(self, bcc):
        # a cell of equal heights has every ratio 1: build L is shell L
        gen = EdgeGenerator(bcc)
        assert gen._ratio.tolist() == [1.0, 1.0, 1.0]
        assert gen._extents(4).tolist() == [4, 4, 4]

    @pytest.mark.parametrize("workload", ["dense-motif", "many-cells", "cif-batch"])
    def test_seed_101_builds_within_the_bound(self, monkeypatch, bench_corpus, workload):
        # both counts: ceil(beta / h'_max) + 2, and criterion 8's
        # ceil(aspect') + 1 in the cell whose builds are made
        streams = []

        class Recording(EdgeGenerator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                streams.append(self)

        monkeypatch.setattr(bridge_module, "EdgeGenerator", Recording)
        for case in bench_corpus.make(workload, 101):
            report = bridge_length(corpus_set(case, workload))
            cell = streams[-1]._cell
            shells = report.shells_enumerated
            assert shells <= build_count_bound(report.beta, cell.heights), case.name
            assert shells <= math.ceil(cell.aspect) + 1, case.name
