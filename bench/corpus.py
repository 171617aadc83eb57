"""Seeded input corpora for the benchmark workloads.

Every corpus is a pure function of ``(workload, seed)``: the same seed gives
byte-identical inputs (see :func:`fingerprint`).  Sizes, aspects, shears
and skews sit at the midpoints of equal strata of continuous spreads, the
same for every seed, so a latency percentile never sits on a jump between
two size classes and never follows the seed's luck in its largest draws.
The seed draws the rest: point positions, CIF sites, the angles and small
length changes of array-given cells, and rotations.  Of these, CIF sites
move a file's cost most, by about 35% either way through its bridge length.

This module shares no code with the program under test.  Each case carries
what the independent check in ``check.py`` needs: a reduced cell of the same
periodic set, and the exact bridge length where one is known analytically.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

WORKLOADS = ("dense-motif", "many-cells", "cif-batch")

#: Structures per corpus.  One round computes each of them once, and a run
#: times at least one round, so the 90th latency percentile always has more
#: than ten samples beyond it.
CORPUS_SIZE = {"dense-motif": 120, "many-cells": 120, "cif-batch": 240}

#: Cartesian volume per atom (cubic angstrom) of generated 3-D structures.
VOLUME_PER_ATOM = 12.0

#: Smallest wrap-aware fractional distance between two kept CIF atoms, and
#: between two distinct images of one site.  Far above the 1e-3 merge
#: tolerance, so the expected atom count never depends on a rounding.
CIF_MIN_SEPARATION = 0.03

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True, eq=False)
class ArrayCase:
    """One periodic set handed to the program as arrays."""

    name: str
    basis: np.ndarray  # basis rows given to the program
    frac: np.ndarray  # fractional motif given to the program
    ref_basis: np.ndarray  # a reduced cell of the same set, for the checker
    ref_frac: np.ndarray
    analytic: Optional[float] = None  # exact bridge length, when known


@dataclass(frozen=True, eq=False)
class CifCase:
    """One generated CIF file and the data it was written from."""

    name: str
    text: str
    ref_basis: np.ndarray  # Cholesky basis of the written cell parameters
    sites: np.ndarray  # written site coordinates, as floats
    ops: tuple  # (integer matrix, float translation) per written operation


# ---------------------------------------------------------------- sampling


def midpoints(k: int) -> np.ndarray:
    """The midpoints of k equal strata of [0, 1), in increasing order."""
    return (np.arange(k) + 0.5) / k


def golden_sequence(k: int) -> np.ndarray:
    """k points of [0, 1) spread evenly and in no order: i * 0.618... mod 1."""
    return (np.arange(k) * GOLDEN + 0.5 / k) % 1.0


def inverse_square_size(u: float, lo: float, hi: float) -> float:
    """Inverse CDF of the density proportional to 1/m^2 on [lo, hi].

    Per-structure cost grows roughly as m^2, so under this density every
    size range carries about the same share of a round's time.
    """
    return 1.0 / (1.0 / lo - u * (1.0 / lo - 1.0 / hi))


def rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def cell_from_parameters(lengths, angles_deg) -> np.ndarray:
    """Basis rows with the Gram matrix of (a, b, c, alpha, beta, gamma)."""
    a, b, c = lengths
    al, be, ga = (math.radians(x) for x in angles_deg)
    gram = np.array(
        [
            [a * a, a * b * math.cos(ga), a * c * math.cos(be)],
            [a * b * math.cos(ga), b * b, b * c * math.cos(al)],
            [a * c * math.cos(be), b * c * math.cos(al), c * c],
        ]
    )
    return np.linalg.cholesky(gram)


def heights(basis: np.ndarray) -> np.ndarray:
    """Spacing of the lattice planes normal to each fractional axis."""
    return 1.0 / np.linalg.norm(np.linalg.inv(basis), axis=0)


def aspect(basis: np.ndarray) -> float:
    """max(longest edge, longest half-diagonal) over the shortest height."""
    n = basis.shape[0]
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
    half_diag = np.linalg.norm(signs @ basis, axis=1).max() / 2.0
    longest = max(np.linalg.norm(basis, axis=1).max(), half_diag)
    return float(longest / heights(basis).min())


def wrap(frac: np.ndarray) -> np.ndarray:
    out = frac - np.floor(frac)
    return np.where(out >= 1.0, 0.0, out)


def separated_points(rng, basis, count, min_dist, propose, attempts=50):
    """``count`` fractional points, pairwise at least ``min_dist`` apart
    (Cartesian, across cell boundaries).  Each is drawn by
    ``propose()``, or uniformly once ``attempts`` proposals failed."""
    n = basis.shape[0]
    kept: list[np.ndarray] = []
    while len(kept) < count:
        for attempt in itertools.count():
            p = wrap(propose() if attempt < attempts else rng.random(n))
            if kept:
                d = np.asarray(kept) - p
                d -= np.round(d)
                if np.linalg.norm(d @ basis, axis=1).min() < min_dist:
                    continue
            kept.append(p)
            break
    return np.asarray(kept)


# ------------------------------------------------------------ dense-motif


def _skewed_cell(rng, skew: float) -> np.ndarray:
    """Unit-volume 3-D cell of aspect <= 1.6; ``skew`` in [0, 1) runs from
    the cube to strongly oblique cells."""
    while True:
        lengths = 1.0 + 0.35 * skew * rng.random(3)
        angles = 90.0 + 30.0 * skew * (rng.random(3) - 0.5)
        try:
            basis = cell_from_parameters(lengths, angles)
        except np.linalg.LinAlgError:
            continue
        if aspect(basis) <= 1.6:
            return basis / abs(np.linalg.det(basis)) ** (1.0 / 3.0)


def _molecular_proposer(rng, basis):
    """Atoms grouped into molecules of 3-12 atoms with 1.0-1.5 A bonds."""
    inv = np.linalg.inv(basis)
    state = {"left": 0, "last": None}

    def propose():
        if state["left"] == 0:
            state["left"] = int(rng.integers(3, 13))
            state["last"] = None
        if state["last"] is None:
            point = rng.random(3)
        else:
            step = rng.normal(size=3)
            step *= rng.uniform(1.0, 1.5) / np.linalg.norm(step)
            point = state["last"] + step @ inv
        state["last"] = point
        state["left"] -= 1
        return point

    return propose


def dense_motif(seed: int) -> list[ArrayCase]:
    rng = np.random.default_rng([seed, 1])
    count = CORPUS_SIZE["dense-motif"]
    half = count // 2
    sizes = np.concatenate([midpoints(half), midpoints(count - half)])
    skews = np.concatenate([golden_sequence(half), golden_sequence(count - half)])
    # The largest structure of each motif type sets the memory peak; pinning
    # it to 300 points in a cube keeps that peak the same for every seed.
    for top in (np.argmax(sizes[:half]), half + np.argmax(sizes[half:])):
        sizes[top], skews[top] = 1.0, 0.0
    cases = []
    for i in range(count):
        clustered = i >= half
        m = int(round(inverse_square_size(sizes[i], 20, 300)))
        cell = _skewed_cell(rng, skews[i]) * (m * VOLUME_PER_ATOM) ** (1.0 / 3.0)
        basis = cell @ rotation(rng, 3)
        propose = (
            _molecular_proposer(rng, basis)
            if clustered
            else (lambda: rng.random(3))
        )
        frac = separated_points(rng, basis, m, 0.7, propose)
        kind = "clustered" if clustered else "uniform"
        cases.append(ArrayCase(f"dense-{i:03d}-{kind}-m{m}", basis, frac, basis, frac))
    return cases


# ------------------------------------------------------------- many-cells


def _bcc(n):
    return np.eye(n), np.array([np.zeros(n), np.full(n, 0.5)]), math.sqrt(n) / 2.0


def _cubic_z(n):
    return np.eye(n), np.zeros((1, n)), 1.0


def _root_a(n):
    cartan = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    return np.linalg.cholesky(cartan), np.zeros((1, n)), math.sqrt(2.0)


def _root_d(n):
    basis = np.zeros((n, n))
    basis[0, :2] = -1.0
    for i in range(1, n):
        basis[i, i - 1], basis[i, i] = 1.0, -1.0
    return basis, np.zeros((1, n)), math.sqrt(2.0)


#: Lattice-like sets in 4-8 dimensions with exact bridge lengths:
#: Z^n -> 1, n-D body-centred -> sqrt(n)/2, root lattices -> minimum norm.
#: E6-E8, A8 and D7-D8 are left out: the program's shell enumeration takes
#: seconds on them.
HIGH_DIM = (
    [(f"Z{n}", _cubic_z, n) for n in range(4, 9)]
    + [(f"BCC{n}", _bcc, n) for n in range(4, 9)]
    + [(f"A{n}", _root_a, n) for n in range(4, 8)]
    + [(f"D{n}", _root_d, n) for n in range(4, 7)]
)

#: Simple 3-D lattices for unimodular shears: (name, basis, motif, beta).
_HEX = np.array([[1.0, 0.0, 0.0], [-0.5, math.sqrt(3) / 2, 0.0], [0.0, 0.0, 1.6]])
SIMPLE_3D = (
    ("cP", np.eye(3), np.zeros((1, 3)), 1.0),
    ("cI", np.eye(3), np.array([[0, 0, 0], [0.5, 0.5, 0.5]]), math.sqrt(3) / 2),
    (
        "cF",
        np.eye(3),
        np.array([[0, 0, 0], [0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]]),
        math.sqrt(0.5),
    ),
    ("hP", _HEX, np.zeros((1, 3)), 1.6),
    ("tP", np.diag([1.0, 1.0, 1.3]), np.zeros((1, 3)), 1.3),
)


def _slab_or_needle(rng, needle: bool, u_aspect: float, u_size: float):
    """Points are spread by jittered strata along the long axes: the
    widest gap sets the bridge length and with it the shell count, so
    uniform draws would make the cost jump from seed to seed."""
    target = 2.0 + 13.0 * u_aspect
    m = 1 + int(20 * u_size)
    angles = 90.0 + 6.0 * (rng.random(3) - 0.5)
    strata = (np.arange(m) + rng.random(m)) / m
    if needle:
        lengths, kind = (1.0, 1.0 + 0.2 * rng.random(), target), "needle"
        frac = np.column_stack([rng.random(m), rng.random(m), strata])
    else:
        lengths, kind = (target, target * (1.0 + 0.1 * rng.random()), 1.0), "slab"
        spread = (np.arange(m) * GOLDEN + rng.random(m) / m) % 1.0
        frac = np.column_stack([strata, spread, rng.random(m)])
    cell = cell_from_parameters(lengths, angles)
    basis = cell * rng.uniform(2.0, 4.0) @ rotation(rng, 3)
    name = f"{kind}-a{aspect(basis):.1f}-m{m}"
    return ArrayCase(name, basis, frac, basis, frac)


def _shear(rng, lattice: int, u_shear: float):
    """A simple lattice under the shear whose third row is
    (+-reach, +-reach, 1): the stratum sets the aspect, up to 150."""
    name, cell, motif, beta = SIMPLE_3D[lattice]
    reach = 1 + int(10 * u_shear)
    signs = rng.choice([-1, 1], size=2)
    while True:
        unimodular = np.eye(3, dtype=np.int64)
        unimodular[2, :2] = reach * signs
        basis = unimodular @ cell
        if aspect(basis) <= 150.0:
            break
        reach -= 1
    inverse = np.round(np.linalg.inv(unimodular)).astype(np.int64)
    frac = wrap(motif @ inverse)
    label = f"shear-{name}-a{aspect(basis):.0f}"
    # the lattice is used as built, for the reason given in _high_dim
    return ArrayCase(label, basis, frac, cell, motif, analytic=beta)


def _high_dim(k: int):
    """Lattice-like sets are used as built, neither scaled nor rotated.
    They have many edges of equal length, and the program's cost on them
    depends on the last bit of those lengths: a rotation or a scale (even
    by 0.5) can cost one more shell, 30 times the time (see CHANGES.md)."""
    name, build, n = HIGH_DIM[k % len(HIGH_DIM)]
    cell, motif, beta = build(n)
    return ArrayCase(name, cell, motif, cell, motif, beta)


#: many-cells: a third each of slabs and needles, shears and high-dimensional
#: lattices.  Slabs and needles sit at the middle of every cell of a
#: (kind, aspect, size) grid, shears at the middle of every (lattice, reach)
#: cell, and the lattice list is walked in a fixed order: every seed gets
#: the same make-up, and only point positions, angles and rotations change.
_SLAB_GRID = (2, 4, 5)
_SHEAR_STRATA = 8


def many_cells(seed: int) -> list[ArrayCase]:
    rng = np.random.default_rng([seed, 2])
    per_kind = CORPUS_SIZE["many-cells"] // 3
    assert per_kind == math.prod(_SLAB_GRID) == len(SIMPLE_3D) * _SHEAR_STRATA
    cases = []
    for needle, a_cell, m_cell in itertools.product(*map(range, _SLAB_GRID)):
        u_aspect = (a_cell + 0.5) / _SLAB_GRID[1]
        u_size = (m_cell + 0.5) / _SLAB_GRID[2]
        cases.append(_slab_or_needle(rng, bool(needle), u_aspect, u_size))
    for k in range(per_kind):
        stratum = k // len(SIMPLE_3D)
        u_shear = (stratum + 0.5) / _SHEAR_STRATA
        cases.append(_shear(rng, k % len(SIMPLE_3D), u_shear))
    cases += [_high_dim(k) for k in range(per_kind)]
    return [
        ArrayCase(f"cells-{i:03d}-{c.name}", c.basis, c.frac, c.ref_basis, c.ref_frac, c.analytic)
        for i, c in enumerate(cases)
    ]


# -------------------------------------------------------------- cif-batch

_DENOM = 12  # translations of every listed group are multiples of 1/12

_CENTRING = {
    "P": [],
    "C": ["x+1/2,y+1/2,z"],
    "I": ["x+1/2,y+1/2,z+1/2"],
    "F": ["x,y+1/2,z+1/2", "x+1/2,y,z+1/2", "x+1/2,y+1/2,z"],
    "R": ["x+2/3,y+1/3,z+1/3", "x+1/3,y+2/3,z+2/3"],
}

#: (symbol, crystal system, centring, generators).  Group orders 4 to 192.
GROUPS = (
    ("P2_12_12_1", "orthorhombic", "P", ["-x+1/2,-y,z+1/2", "-x,y+1/2,-z+1/2"]),
    ("P2_1/c", "monoclinic", "P", ["-x,y+1/2,-z+1/2", "-x,-y,-z"]),
    ("C2/m", "monoclinic", "C", ["-x,y,-z", "-x,-y,-z"]),
    ("Pnma", "orthorhombic", "P", ["-x+1/2,-y,z+1/2", "-x,y+1/2,-z", "-x,-y,-z"]),
    ("Immm", "orthorhombic", "I", ["-x,-y,z", "-x,y,-z", "-x,-y,-z"]),
    ("P4/mmm", "tetragonal", "P", ["-y,x,z", "-x,y,-z", "-x,-y,-z"]),
    ("P6/mmm", "hexagonal", "P", ["-y,x-y,z", "-x,-y,z", "y,x,-z", "-x,-y,-z"]),
    ("Pa-3", "cubic", "P", ["z,x,y", "-x+1/2,-y,z+1/2", "-x,-y,-z"]),
    ("Fmmm", "orthorhombic", "F", ["-x,-y,z", "-x,y,-z", "-x,-y,-z"]),
    ("I4/mmm", "tetragonal", "I", ["-y,x,z", "-x,y,-z", "-x,-y,-z"]),
    ("R-3m", "hexagonal", "R", ["-y,x-y,z", "y,x,-z", "-x,-y,-z"]),
    ("Pm-3m", "cubic", "P", ["z,x,y", "-y,x,z", "-x,-y,-z"]),
    ("Im-3m", "cubic", "I", ["z,x,y", "-y,x,z", "-x,-y,-z"]),
    ("Fm-3m", "cubic", "F", ["z,x,y", "-y,x,z", "-x,-y,-z"]),
)

# An operation is (rotation rows, translation in twelfths, reduced mod 1).


def _parse_op(text: str):
    rows, trans = [], []
    for comp in text.split(","):
        row, t = [0, 0, 0], Fraction(0)
        for sign, term in re.findall(r"([+-]?)([xyz]|\d+/\d+|\d+)", comp):
            s = -1 if sign == "-" else 1
            if term in "xyz":
                row["xyz".index(term)] += s
            else:
                t += s * Fraction(term)
        rows.append(tuple(row))
        trans.append(int(t * _DENOM))
    return tuple(rows), tuple(trans)


def _compose(a, b):
    """The operation a after b, translations reduced mod 1."""
    (ra, ta), (rb, tb) = a, b
    r = tuple(
        tuple(sum(ra[i][k] * rb[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )
    t = tuple(
        (sum(ra[i][k] * tb[k] for k in range(3)) + ta[i]) % _DENOM for i in range(3)
    )
    return r, t


def group_closure(centring: str, generators) -> list:
    """All operations of the generated group, identity first."""
    identity = _parse_op("x,y,z")
    gens = [_parse_op(g) for g in list(generators) + _CENTRING[centring]]
    ops, frontier, seen = [identity], [identity], {identity}
    while frontier:
        grown = []
        for op in frontier:
            for g in gens:
                new = _compose(g, op)
                if new not in seen:
                    seen.add(new)
                    ops.append(new)
                    grown.append(new)
        frontier = grown
    return ops


#: Common denominator of generated coordinates (1/100000) and translations.
_SCALE = 100_000 * _DENOM


def _orbit(rotations, translations, point) -> np.ndarray:
    """Distinct images of a point, as floats.  Images of one point agree to
    1e-12 and distinct ones are kept at least CIF_MIN_SEPARATION apart, so
    rounding to 1e-9 identifies them exactly."""
    images = (rotations @ point + translations) % 1.0
    return np.unique(np.round(images, 9) % 1.0, axis=0)


def _special_point(rng, ops, x):
    """Average of a point's images under one operation's cyclic group: a
    special position fixed by that operation.  ``x`` holds integer
    numerators over _SCALE; the result is (numerators, denominator), or
    None when the operation has no fixed point (a translation, screw axis
    or glide plane)."""
    rot, trans = ops[int(rng.integers(1, len(ops)))]
    r = np.array(rot, dtype=np.int64)
    t = np.array(trans, dtype=np.int64) * (_SCALE // _DENOM)
    images, img, power = [x], x, r
    while not np.array_equal(power, np.eye(3, dtype=np.int64)):
        img = r @ img + t
        images.append(img)
        power = r @ power
    if not np.array_equal(r @ img + t, x):
        return None
    return np.sum(images, axis=0), len(images) * _SCALE


def _min_wrapped_distance(a: np.ndarray, b: np.ndarray, same: bool) -> float:
    d = a[:, None, :] - b[None, :, :]
    d -= np.round(d)
    dist = np.linalg.norm(d, axis=-1)
    if same:
        dist += np.eye(len(a)) * 10.0
    return float(dist.min())


def _cell_shape(index: int, system):
    """Cell parameters of unit scale obeying the crystal system.  The
    shape follows the stratum, not the seed: the cost of a structure
    doubles between some shapes, and the costliest tenth of the corpus
    holds only a dozen structures."""
    u, v, w = ((index + 1) * np.array([GOLDEN, GOLDEN**2, GOLDEN**3])) % 1.0
    if system == "cubic":
        return (1.0, 1.0, 1.0), (90.0, 90.0, 90.0)
    if system == "tetragonal":
        return (1.0, 1.0, 0.7 + 0.8 * u), (90.0, 90.0, 90.0)
    if system == "hexagonal":
        return (1.0, 1.0, 0.8 + 0.8 * u), (90.0, 90.0, 120.0)
    lengths = (1.0, 0.8 + 0.5 * u, 0.8 + 0.5 * v)
    if system == "monoclinic":
        return lengths, (90.0, round(95.0 + 20.0 * w, 3), 90.0)
    return lengths, (90.0, 90.0, 90.0)


def _with_uncertainty(text: str, rng) -> str:
    return text + f"({int(rng.integers(1, 10))})" if rng.random() < 0.6 else text


def _format_op(op, rng) -> str:
    """CIF text of one operation, with varied spacing, order and quoting."""
    r, t = op
    comps = []
    for i in range(3):
        text = "".join(
            ("-" if r[i][j] < 0 else "+") + "xyz"[j] for j in range(3) if r[i][j]
        )
        if t[i]:
            const = str(Fraction(t[i], _DENOM))
            text = f"{const}{text}" if rng.random() < 0.3 else f"{text}+{const}"
        comps.append(text.lstrip("+"))
    sep = ", " if rng.random() < 0.5 else ","
    text = sep.join(comps)
    return f"'{text}'" if " " in text or rng.random() < 0.5 else text


def _coordinate(c: Fraction, rng) -> str:
    """Five decimals when exact, else the float's shortest repr."""
    if (c * 100_000).denominator == 1:
        return _with_uncertainty(f"{float(c):.5f}", rng)
    return repr(float(c))


def _place_sites(rng, ops, target):
    """Asymmetric-unit sites whose orbits total ``target`` atoms within
    about 5%: the cost of a file grows with the square of its atom count,
    so a looser fill would let the upper percentiles move with the seed."""
    rotations = np.array([r for r, _ in ops], dtype=float)
    translations = np.array([t for _, t in ops], dtype=float) / _DENOM
    sites, atoms = [], np.zeros((0, 3))
    for _ in range(200):
        if len(atoms) >= 0.95 * target:
            break
        num, den = rng.integers(100_000, size=3) * _DENOM, _SCALE
        if rng.random() < 0.4 or len(atoms) + len(ops) > 1.05 * target:
            special = _special_point(rng, ops, num)
            if special is None:
                continue
            num, den = special
        images = _orbit(rotations, translations, num / den)
        if sites and len(atoms) + len(images) > 1.05 * target:
            continue
        if len(images) > 1 and (
            _min_wrapped_distance(images, images, True) < CIF_MIN_SEPARATION
        ):
            continue
        if len(atoms) and _min_wrapped_distance(images, atoms, False) < CIF_MIN_SEPARATION:
            continue
        sites.append(tuple(Fraction(int(n), den) % 1 for n in num))
        atoms = np.vstack([atoms, images])
    return sites, len(atoms)


def _cif_case(rng, index: int, u_size: float, closures) -> CifCase:
    """The structure of size stratum ``index``; its group is fixed by the
    stratum, so every seed pairs the same groups with the same sizes."""
    target = inverse_square_size(u_size, 10, 250)
    eligible = [k for k, ops in enumerate(closures) if len(ops) <= max(8, target)]
    group = eligible[index % len(eligible)]
    symbol, system, _, _ = GROUPS[group]
    ops = closures[group]
    sites, atoms = _place_sites(rng, ops, target)

    lengths, angles = _cell_shape(index, system)
    base = cell_from_parameters(lengths, angles)
    scale = (atoms * VOLUME_PER_ATOM / abs(np.linalg.det(base))) ** (1.0 / 3.0)
    lengths = tuple(round(x * scale, 4) for x in lengths)

    tag = re.sub(r"\W", "", symbol)
    name = f"cif{index:03d}_{tag}_m{atoms}"
    lines = [
        f"data_{name}",
        "_audit_creation_method 'generated benchmark input'",
        f"_symmetry_space_group_name_H-M '{symbol}'",
    ]
    for tag, value in zip(("a", "b", "c"), lengths):
        lines.append(f"_cell_length_{tag} {_with_uncertainty(f'{value:.4f}', rng)}")
    for tag, value in zip(("alpha", "beta", "gamma"), angles):
        text = f"{value:g}" if value in (90.0, 120.0) else f"{value:.3f}"
        lines.append(f"_cell_angle_{tag} {text}")
    lines += [";", " free text the parser must skip", " loop_ _not_a_tag", ";"]
    written_ops = [_format_op(op, rng) for op in ops]
    if rng.random() < 0.5:
        lines += ["loop_", "_symmetry_equiv_pos_as_xyz"] + written_ops
    else:
        lines += ["loop_", "_space_group_symop_id", "_space_group_symop_operation_xyz"]
        lines += [f"{k + 1} {op}" for k, op in enumerate(written_ops)]
    lines += ["loop_", "_atom_site_label", "_atom_site_type_symbol"]
    lines += [f"_atom_site_fract_{ax}" for ax in "xyz"] + ["_atom_site_occupancy"]
    values = []
    for k, site in enumerate(sites):
        cells = [_coordinate(c, rng) for c in site]
        values.append([float(c.split("(")[0]) for c in cells])
        lines.append(f"C{k + 1} C {' '.join(cells)} 1.0")
    float_ops = tuple(
        (np.array(r, dtype=float), np.array(t, dtype=float) / _DENOM) for r, t in ops
    )
    return CifCase(
        name,
        "\n".join(lines) + "\n",
        cell_from_parameters(lengths, angles),
        np.array(values),
        float_ops,
    )


def cif_batch(seed: int, count: Optional[int] = None) -> list[CifCase]:
    rng = np.random.default_rng([seed, 3])
    count = CORPUS_SIZE["cif-batch"] if count is None else count
    closures = [group_closure(centring, gens) for _, _, centring, gens in GROUPS]
    sizes = midpoints(count)
    return [_cif_case(rng, i, sizes[i], closures) for i in range(count)]


# ----------------------------------------------------------------- access

#: Fixed inputs for the warm-up of the array workloads: Z^3 and 3-D BCC.
WARM_UP = (
    (np.eye(3), np.zeros((1, 3))),
    (np.eye(3), np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]])),
)


def make(workload: str, seed: int) -> list:
    if workload == "dense-motif":
        return dense_motif(seed)
    if workload == "many-cells":
        return many_cells(seed)
    if workload == "cif-batch":
        return cif_batch(seed)
    raise ValueError(f"unknown workload {workload!r}")


def fingerprint(cases) -> str:
    """SHA-256 over every byte handed to the program and to the checker."""
    h = hashlib.sha256()
    for case in cases:
        h.update(case.name.encode())
        if isinstance(case, CifCase):
            h.update(case.text.encode())
            h.update(case.ref_basis.tobytes())
            h.update(case.sites.tobytes())
        else:
            for arr in (case.basis, case.frac, case.ref_basis, case.ref_frac):
                h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
            h.update(repr(case.analytic).encode())
    return h.hexdigest()
