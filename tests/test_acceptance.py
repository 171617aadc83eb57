"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
The randomized criteria share one seeded fuzz corpus (session fixture) so
the whole suite stays well under its time budget.
"""

import itertools
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from bridgelen import (
    LatticeBasis,
    Motif,
    PeriodicSet,
    OnlineSnfState,
    bridge_length,
    cell_metrics,
    mst_longest_edge,
    oracle_bridge_length,
    snf,
    spans_lattice,
)
from bridgelen.cli import main as cli_main

from conftest import det, make_set, matmul, random_set, span_factors

FUZZ_PLAN = ((1, 200), (2, 200), (3, 100))  # dimension -> set count


def _report(num: int, text: str) -> None:
    print(f"\nACCEPTANCE {num}: PASS — {text}")


@pytest.fixture(scope="module")
def fuzz_corpus():
    """500 random sets with bridge reports and oracle values."""
    rng = np.random.default_rng(20260810)
    corpus = []
    for n, count in FUZZ_PLAN:
        for _ in range(count):
            pset = random_set(rng, n=n)
            report = bridge_length(pset)
            corpus.append((pset, report, oracle_bridge_length(pset)))
    return corpus


def test_criterion_1_exact_lattice_values(z1, z2, z3, bcc):
    cases = [(z1, 1.0), (z2, 1.0), (z3, 1.0), (bcc, math.sqrt(3) / 2)]
    bridge_length(bcc)  # warm-up excludes one-time allocation effects
    timings = []
    for pset, expected in cases:
        elapsed = min(bridge_length(pset).elapsed for _ in range(3))
        beta = bridge_length(pset).beta
        assert abs(beta - expected) <= 1e-12 * expected
        assert elapsed < 0.010, f"{elapsed * 1000:.2f} ms"
        timings.append(elapsed * 1000)
    _report(
        1,
        "beta(Z^1)=beta(Z^2)=beta(Z^3)=1 and beta(BCC)=sqrt(3)/2 within 1e-12; "
        f"timings {', '.join(f'{t:.2f}' for t in timings)} ms (< 10 ms each)",
    )


def test_criterion_2_golden_trace(fig3_set):
    report = bridge_length(fig3_set)
    # accepted sequence: exactly one forest edge, then the cycle edge with
    # sum (0,1), then the cycle edge completing the factors; nothing after
    assert len(report.forest_edges) == 1
    assert len(report.basis_cycle_edges) == 2
    first_cycle, second_cycle = report.basis_cycle_edges
    assert first_cycle[1] == (0, 1)
    state = OnlineSnfState(2)
    state.add(first_cycle[1])
    assert span_factors(state) == [1] and not state.is_complete()
    state.add(second_cycle[1])
    assert span_factors(state) == [1, 1] and state.is_complete()
    # termination exactly at the second cycle edge
    assert report.last_edge == second_cycle[0]
    assert report.edges_examined == 3
    columns = [[c[i] for c in (first_cycle[1], second_cycle[1])] for i in range(2)]
    assert spans_lattice(columns)
    _report(
        2,
        "trace = forest edge, cycle sum (0,1), cycle completing factors (1,1); "
        "terminates on that edge; translational matrix spans Z^2",
    )


def test_criterion_3_finite_vs_periodic_separation(fig2_set):
    report = bridge_length(fig2_set)
    assert abs(report.beta - 2.0) <= 1e-9
    assert abs(oracle_bridge_length(fig2_set) - 2.0) <= 1e-9
    patch = [
        (np.asarray(f) + t) @ fig2_set.basis.vectors
        for t in itertools.product(range(2), repeat=2)
        for f in fig2_set.motif.points
    ]
    longest = mst_longest_edge(patch)
    assert abs(longest - 3.0) <= 1e-9
    # the caption's third stated length: minimum inter-point distance 1
    dmin = min(
        float(np.linalg.norm(p - q))
        for i, p in enumerate(patch)
        for q in patch[:i]
    )
    assert abs(dmin - 1.0) <= 1e-9
    _report(3, "extended-motif MST longest edge = 3 while bridge length = 2 (min distance 1)")


def test_criterion_4_oracle_equivalence(fuzz_corpus):
    assert len(fuzz_corpus) >= 500
    for pset, report, oracle_beta in fuzz_corpus:
        assert abs(report.beta - oracle_beta) <= 1e-9 * max(report.beta, oracle_beta)
    _report(4, f"bridge length equals brute-force oracle on {len(fuzz_corpus)} random sets (1e-9 rel)")


def test_criterion_5_bound_and_invariances(fuzz_corpus):
    for _, report, _ in fuzz_corpus:
        assert report.beta <= report.r_upper
    rng = np.random.default_rng(5)
    scale_cases = orth_cases = double_cases = 0
    for _ in range(100):
        pset = random_set(rng)
        beta = bridge_length(pset).beta
        for c in (0.5, 2.0, 7.0):
            scaled = bridge_length(pset.scale(c)).beta
            assert abs(scaled - c * beta) <= 1e-12 * c * beta
        scale_cases += 1
    for _ in range(100):
        pset = random_set(rng, n=int(rng.integers(2, 4)))
        n = pset.dim
        beta = bridge_length(pset).beta
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        moved = PeriodicSet(
            LatticeBasis(pset.basis.vectors @ q),
            Motif((pset.motif.points + rng.random(n)) % 1.0),
        )
        assert abs(bridge_length(moved).beta - beta) <= 1e-9 * beta
        orth_cases += 1
    for _ in range(100):
        pset = random_set(rng, m=int(rng.integers(1, 3)))
        n = pset.dim
        beta = bridge_length(pset).beta
        shifts = list(itertools.product((0.0, 1.0), repeat=n))
        doubled = PeriodicSet(
            LatticeBasis(pset.basis.vectors * 2.0),
            Motif(
                np.array(
                    [
                        (pset.motif.points[i] + np.asarray(s)) / 2.0
                        for i in range(pset.motif_size)
                        for s in shifts
                    ]
                )
            ),
        )
        assert abs(bridge_length(doubled).beta - beta) <= 1e-9 * beta
        double_cases += 1
    _report(
        5,
        f"beta <= r(U) on all {len(fuzz_corpus)} fuzz cases; scale equivariance "
        f"(1e-12, {scale_cases} cases), orthogonal+translation invariance (1e-9, "
        f"{orth_cases}), doubled-cell invariance (1e-9, {double_cases})",
    )


def test_criterion_6_snf_algebra():
    rng = np.random.default_rng(6)
    for _ in range(10_000):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        a = [
            [int(rng.integers(-9, 10)) for _ in range(cols)] for _ in range(rows)
        ]
        res = snf(a)
        assert matmul(res.l, matmul(a, res.r)) == res.d
        assert abs(det(res.l)) == 1
        assert abs(det(res.r)) == 1
        nonzero = [f for f in res.factors if f]
        assert all(y % x == 0 for x, y in zip(nonzero, nonzero[1:]))
        assert all(f == 0 for f in res.factors[len(nonzero):])
    streams = 0
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        count = int(rng.integers(1, 9))
        vectors = [
            [int(rng.integers(-9, 10)) for _ in range(n)] for _ in range(count)
        ]
        state = OnlineSnfState(n)
        for v in vectors:
            state.add(v)
        batch = [[vectors[j][i] for j in range(count)] for i in range(n)]
        assert span_factors(state) == [f for f in snf(batch).factors if f]
        streams += 1
    _report(
        6,
        "L*A*R = D exact with unimodular L, R and divisibility chain on 10^4 "
        f"random matrices; batch/online factors agree exactly on {streams} streams",
    )


# Reference bridge lengths for externally supplied (licensed) crystal files.
REFERENCE_BETAS = {
    "NAVXUG": 2.028,
    "SEMDIA": 2.713,
    "DEBXIT01": 1.879,
    "DEBXIT02": 1.926,
    "DEBXIT03": 1.902,
    "DEBXIT04": 1.970,
    "DEBXIT05": 3.163,
    "DEBXIT06": 3.188,
    "DEBXIT07": 2.062,
}


def test_criterion_7_reference_crystals():
    csd_dir = Path(os.environ.get("BRIDGELEN_CSD_DIR", Path(__file__).parent / "data" / "csd"))
    available = (
        {code: csd_dir / f"{code}.cif" for code in REFERENCE_BETAS}
        if csd_dir.is_dir()
        else {}
    )
    available = {c: p for c, p in available.items() if p.is_file()}
    if not available:
        pytest.skip(
            "reference crystal files not present (set BRIDGELEN_CSD_DIR); "
            "criteria 1-6 are the unconditional substitute"
        )
    runner = CliRunner()
    result = runner.invoke(cli_main, ["batch", str(csd_dir), "--json"])
    assert result.exit_code == 0
    import json

    rows = {row["id"]: row for row in json.loads(result.output)["rows"]}
    for code, path in available.items():
        row = rows[code]
        assert not row["error"], row
        assert abs(row["beta"] - REFERENCE_BETAS[code]) <= 5e-3, (code, row["beta"])
    _report(7, f"batch beta within 5e-3 of reference for {sorted(available)}")


def test_criterion_8_performance_discipline(fuzz_corpus):
    for pset, report, _ in fuzz_corpus:
        cap = math.ceil(cell_metrics(pset.basis).aspect) + 1
        assert report.shells_enumerated <= cap
    # soft scaling check: doubling the motif on a fixed cell; logged only
    rng = np.random.default_rng(8)
    timings = {}
    for m in (8, 16, 32):
        pts = rng.random((m, 3))
        pset = make_set(np.eye(3), pts)
        t0 = time.perf_counter()
        for _ in range(3):
            bridge_length(pset)
        timings[m] = (time.perf_counter() - t0) / 3
    r1 = timings[16] / timings[8]
    r2 = timings[32] / timings[16]
    print(
        f"\n    motif-doubling runtime ratios (soft, not asserted): "
        f"8->16: {r1:.2f}x, 16->32: {r2:.2f}x"
    )
    _report(
        8,
        f"shells_enumerated <= ceil(aspect)+1 on all {len(fuzz_corpus)} fuzz cases; "
        f"doubling ratios {r1:.2f}x / {r2:.2f}x logged",
    )
