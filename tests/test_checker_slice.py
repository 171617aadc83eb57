"""The benchmark's independent checker on a fixed slice of its corpora.

``bench/run.py`` checks every bridge length against ``bench/check.py``,
which enumerates edge classes, joins motif classes with its own union-find
and tests the cycle span with SymPy's Smith normal form; it shares no code
with the program.  Here it checks every 4th structure of each seed-101
corpus: molecular and random motifs, slabs, needles, shears, 4-8-D root
lattices with their many exact ties, and CIF files with symmetry.
"""

from pathlib import Path

import pytest

import bridgelen

BENCH = Path(__file__).resolve().parents[1] / "bench"

SEED = 101
STRIDE = 4


@pytest.fixture
def bench_run(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import run

    return run


@pytest.mark.parametrize("workload", ["dense-motif", "many-cells", "cif-batch"])
def test_checker_accepts_every_beta_of_the_slice(bench_run, workload):
    problems = []
    for case in bench_run.corpus.make(workload, SEED)[::STRIDE]:
        if workload == "cif-batch":
            pset = bridgelen.to_periodic_set(bridgelen.parse_cif(case.text))
        else:
            pset = bridgelen.PeriodicSet(
                bridgelen.LatticeBasis(case.basis), bridgelen.Motif(case.frac)
            )
        beta = bridgelen.bridge_length(pset).beta
        problem = bench_run.check_case(case, beta, pset.motif_size)
        if problem:
            problems.append(f"{case.name}: beta {beta!r}: {problem}")
    assert problems == []
