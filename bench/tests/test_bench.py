"""Tests of the benchmark's own parts: the independent check and the corpora.

Run from the root of the repository with ``python3 -m pytest bench/tests``.
"""

import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import corpus  # noqa: E402

FIG3 = BENCH.parent / "tests" / "fixtures" / "fig3.json"

FCC = (np.eye(3), [[0, 0, 0], [0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]])


def body_centred(n):
    return np.eye(n), [np.zeros(n), np.full(n, 0.5)]


def fig3():
    data = json.loads(FIG3.read_text())
    return np.array(data["basis"]), np.array(data["motif_fractional"])


KNOWN = [
    *[(f"Z{n}", (np.eye(n), np.zeros((1, n))), 1.0) for n in range(1, 5)],
    *[(f"BCC{n}", body_centred(n), math.sqrt(n) / 2) for n in (2, 3, 5)],
    ("FCC", FCC, math.sqrt(0.5)),
    ("fig3", fig3(), math.sqrt(0.85)),
]


@pytest.mark.parametrize("name, pset, beta", KNOWN, ids=[k[0] for k in KNOWN])
def test_checker_accepts_analytic_beta(name, pset, beta):
    basis, frac = pset
    check.check_beta(basis, frac, beta)


@pytest.mark.parametrize("factor", [0.99, 1.01, 1.0 + 3e-9, 1.0 - 3e-9])
@pytest.mark.parametrize("name, pset, beta", KNOWN, ids=[k[0] for k in KNOWN])
def test_checker_rejects_wrong_beta(name, pset, beta, factor):
    basis, frac = pset
    with pytest.raises(check.CheckError):
        check.check_beta(basis, frac, beta * factor)


def test_checker_agrees_on_a_unimodular_image():
    """The check is basis-independent: a sheared cell of Z^3 and its
    re-expressed motif give the same verdicts, only a larger box."""
    shear = np.array([[1, 0, 0], [0, 1, 0], [3, -2, 1]])
    check.check_beta(shear @ np.eye(3), np.zeros((1, 3)), 1.0)
    with pytest.raises(check.CheckError):
        check.check_beta(shear @ np.eye(3), np.zeros((1, 3)), 1.1)


def test_orbit_expansion_counts_centred_cube():
    identity = (np.eye(3), np.zeros(3))
    centring = (np.eye(3), np.full(3, 0.5))
    inversion = (-np.eye(3), np.zeros(3))
    both = (-np.eye(3), np.full(3, 0.5))
    sites = np.array([[0.0, 0.0, 0.0], [0.1, 0.2, 0.3]])
    points = check.expand_orbits(sites, [identity, centring, inversion, both])
    # origin: itself and the centre; general site: four images
    assert len(points) == 6


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_same_bytes(workload):
    first = corpus.fingerprint(corpus.make(workload, 7))
    again = corpus.fingerprint(corpus.make(workload, 7))
    other = corpus.fingerprint(corpus.make(workload, 8))
    assert first == again
    assert first != other


def test_cif_text_is_reproducible():
    a = [c.text for c in corpus.cif_batch(3, count=6)]
    b = [c.text for c in corpus.cif_batch(3, count=6)]
    assert a == b


def test_corpus_sizes_leave_ten_samples_beyond_p90():
    assert all(size >= 100 for size in corpus.CORPUS_SIZE.values())


def test_group_orders():
    orders = [len(corpus.group_closure(c, g)) for _, _, c, g in corpus.GROUPS]
    assert orders == [4, 4, 8, 8, 16, 16, 24, 24, 32, 32, 36, 48, 96, 192]


def test_translation_box_holds_every_short_edge():
    """Brute force over a wider box finds no edge the bounded box misses."""
    rng = np.random.default_rng(0)
    basis = np.array([[1.0, 0.0, 0.0], [0.4, 0.9, 0.0], [0.2, 0.3, 1.1]])
    frac = rng.random((4, 3))
    length = 1.7
    src, dst, trans, lens = check.edge_classes(basis, frac, length)
    found = {(i, j, tuple(t)) for i, j, t in zip(src, dst, trans.tolist())}
    cart = frac @ basis
    for t in itertools.product(range(-5, 6), repeat=3):
        for i in range(4):
            for j in range(i, 4):
                d = cart[j] + np.array(t) @ basis - cart[i]
                if np.linalg.norm(d) <= length and (i < j or t > (0, 0, 0)):
                    assert (i, j, t) in found


def test_sampler_scales_by_the_local_reference_speed():
    """An operation timed while the reference ran at twice its nominal
    time is reported at half its measured time, and one timed at nominal
    speed as measured."""
    import speed

    sampler = speed.Sampler()
    slow, nominal = 2 * speed.REF_S, speed.REF_S
    sampler.samples = [slow] * 20 + [nominal] * 20
    sampler.at = [5, 34]
    assert sampler.scaled([0.4, 0.4]) == pytest.approx([0.2, 0.4])


def test_quantile_estimator():
    import run

    values = np.arange(1.0, 202.0)
    assert run.quantile(values, 0.5) == pytest.approx(101.0)
    assert run.quantile(values, 0.9) == pytest.approx(181.4, abs=0.1)
    assert run.quantile([3.0] * 7, 0.9) == pytest.approx(3.0)
    assert run.per_case_medians([1.0, 5.0, 2.0, 9.0, 4.0], [0, 1, 0, 1, 0]) == [2.0, 7.0]
