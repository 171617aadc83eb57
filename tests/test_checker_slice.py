"""The benchmark's independent checker on a fixed slice of its corpora.

``bench/run.py`` checks every bridge length against ``bench/check.py``,
which enumerates edge classes, joins motif classes with its own union-find
and tests the cycle span with SymPy's Smith normal form; it shares no code
with the program.  Here it checks every 4th structure of each seed-101
corpus: molecular and random motifs, slabs, needles, shears, 4-8-D root
lattices with their many exact ties, and CIF files with symmetry.  It also
pins the driver's path over the slice: the summed shells enumerated and
edges examined, which any change to the edge stream must leave alone.
"""

from pathlib import Path

import pytest

import bridgelen

BENCH = Path(__file__).resolve().parents[1] / "bench"

SEED = 101
STRIDE = 4

#: Sums of ``shells_enumerated`` and ``edges_examined`` over each slice.
#: The ``many-cells`` shells fell from 112 when the stream began to build
#: its shells in the LLL-reduced cell of the sheared cells, D4-D6 and one
#: slab, and from 75 when each build's extent began to scale with the
#: cell's heights, so slabs and needles take one build; the edges
#: examined did not move.
DRIVER_PATH = {
    "dense-motif": (60, 5489),
    "many-cells": (60, 796),
    "cif-batch": (120, 6952),
}


@pytest.fixture
def bench_run(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import run

    return run


@pytest.mark.parametrize("workload", ["dense-motif", "many-cells", "cif-batch"])
def test_checker_accepts_every_beta_of_the_slice(bench_run, workload):
    problems = []
    shells = examined = 0
    for case in bench_run.corpus.make(workload, SEED)[::STRIDE]:
        if workload == "cif-batch":
            pset = bridgelen.to_periodic_set(bridgelen.parse_cif(case.text))
        else:
            pset = bridgelen.PeriodicSet(
                bridgelen.LatticeBasis(case.basis), bridgelen.Motif(case.frac)
            )
        report = bridgelen.bridge_length(pset)
        beta = report.beta
        shells += report.shells_enumerated
        examined += report.edges_examined
        problem = bench_run.check_case(case, beta, pset.motif_size)
        if problem:
            problems.append(f"{case.name}: beta {beta!r}: {problem}")
    assert problems == []
    assert (shells, examined) == DRIVER_PATH[workload]
