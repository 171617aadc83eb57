"""Shared fixtures and random-set generation for the test suite."""

import math
from pathlib import Path

import numpy as np
import pytest

from bridgelen import LatticeBasis, Motif, PeriodicSet, cell_metrics

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


def make_set(basis, motif) -> PeriodicSet:
    return PeriodicSet(LatticeBasis(basis), Motif(motif))


@pytest.fixture(scope="session")
def z1():
    return make_set([[1.0]], [[0.0]])


@pytest.fixture(scope="session")
def z2():
    return make_set(np.eye(2), [[0.0, 0.0]])


@pytest.fixture(scope="session")
def z3():
    return make_set(np.eye(3), [[0.0, 0.0, 0.0]])


@pytest.fixture(scope="session")
def bcc():
    return make_set(np.eye(3), [[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]])


@pytest.fixture(scope="session")
def fig3_set():
    # shortest edge class 0->1 translation (0,1), then (0,0), then (1,1);
    # every other class is longer, so the acceptance trace is exactly
    # forest, cycle (0,1), cycle (-1,0).
    return make_set(np.eye(2), [[0.6, 0.9], [0.5, 0.1]])


@pytest.fixture(scope="session")
def fig2_set():
    # 5x5 cell: bottom chain spacing 1 crossing the boundary at 1, a
    # vertical arm, and a lone point whose nearest neighbours are exactly 2
    # away across cell boundaries but 3 away within its own cell.
    frac = [
        [0.0, 0.0], [0.2, 0.0], [0.4, 0.0], [0.6, 0.0], [0.8, 0.0],
        [0.0, 0.2], [0.0, 0.4], [0.0, 0.6],
        [0.6, 0.6],
    ]
    return make_set([[5.0, 0.0], [0.0, 5.0]], frac)


def slab_19() -> PeriodicSet:
    """A fixed 19-point slab of aspect 6.6 that takes three shells."""
    i = np.arange(19)
    golden = (math.sqrt(5) - 1) / 2
    frac = np.column_stack([(i + 0.5) / 19, (i * golden) % 1.0, (i * 0.29) % 1.0])
    return make_set([[7.0, 0.0, 0.0], [0.4, 7.3, 0.0], [0.3, -0.2, 1.1]], frac)


def sheared_bcc(reach: float) -> PeriodicSet:
    """BCC, (0,0,0) and (1/2,1/2,1/2), on the sheared Z^3 basis with rows
    (1,0,0), (0,1,0), (reach,reach,1): the same set for every reach, in a
    cell whose aspect grows as reach squared."""
    basis = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [reach, reach, 1.0]])
    frac = np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]]) @ np.linalg.inv(basis)
    return make_set(basis, frac)


def random_basis(rng: np.random.Generator, n: int, max_aspect: float = 2.5):
    """Well-conditioned random basis: random rotation of a mildly sheared,
    mildly anisotropic cell, at a random overall scale."""
    while True:
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        scales = rng.uniform(0.7, 1.4, size=n)
        vectors = q * scales[:, None]
        vectors = vectors + rng.normal(scale=0.08, size=(n, n))
        vectors *= rng.uniform(0.5, 2.0)
        try:
            basis = LatticeBasis(vectors)
        except ValueError:
            continue
        if cell_metrics(basis).aspect <= max_aspect:
            return basis


def random_unimodular(
    rng: np.random.Generator, n: int, steps: int = 3, reach: int = 4
):
    """A product of ``steps`` elementary shears with entries up to
    +-``reach``, times a random signed permutation."""
    u = np.eye(n, dtype=np.int64)
    for _ in range(steps if n > 1 else 0):
        i, j = rng.choice(n, size=2, replace=False)
        step = np.eye(n, dtype=np.int64)
        step[i, j] = rng.integers(-reach, reach + 1)
        u = step @ u
    signs = rng.choice([-1, 1], size=n)
    return (u * signs[:, None])[rng.permutation(n)]


#: Most whole draws ``random_motif`` makes; the slowest caller needs about
#: a quarter of this (25 606 draws, for 12 points in 1-D).
MOTIF_DRAWS = 100_000


def random_motif(rng: np.random.Generator, n: int, m: int, min_sep: float = 5e-2):
    """m random fractional points, pairwise wrap-separated by min_sep.

    All m points are drawn at once until a draw is separated, so the odds
    fall steeply with m; after ``MOTIF_DRAWS`` failed draws it raises
    ValueError rather than run on.  It raises at once, drawing nothing,
    when packing rules every draw out: m disjoint balls of radius
    min_sep / 2 in the unit torus need m V_n (min_sep / 2)^n <= 1, V_n
    being the volume of the unit n-ball.
    """
    message = f"no {m} points in {n}-D pairwise {min_sep} apart"
    ball = math.pi ** (n / 2) / math.gamma(n / 2 + 1) * (min_sep / 2) ** n
    if m * ball > 1:
        raise ValueError(f"{message}: {m} balls of radius {min_sep / 2} do not fit")
    for _ in range(MOTIF_DRAWS):
        pts = rng.random((m, n))
        try:
            return Motif(pts, dedup_tol=min_sep)
        except ValueError:
            continue
    raise ValueError(f"{message} in {MOTIF_DRAWS} draws")


def random_set(
    rng: np.random.Generator,
    n: int | None = None,
    m: int | None = None,
    max_aspect: float = 2.5,
) -> PeriodicSet:
    if n is None:
        n = int(rng.integers(1, 4))
    if m is None:
        m = int(rng.integers(1, 5))
    return PeriodicSet(random_basis(rng, n, max_aspect), random_motif(rng, n, m))
