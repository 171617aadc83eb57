"""Every report of the seed-101 benchmark corpora, pinned bit for bit.

For each of the 480 structures of the three corpora (built by
``bench/corpus.py``, as in ``test_checker_slice.py``) the fixture holds a
short SHA-256 of the report's deterministic part: beta by ``float.hex``,
``last_edge``, the forest and cycle traces (cycle columns included),
``shells_enumerated`` and ``edges_examined``.  A change to the edge stream,
the quotient or the span certificate that claims to leave the reports
alone must leave this file passing; a failure names the structures whose
report moved.

Regenerate the fixture, after a change that is meant to move reports,
with ``PYTHONPATH=src python tests/test_corpus_reports.py``; it prints,
per workload, how many structures' digests changed and their names.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

import bridgelen

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "fixtures" / "reports" / "corpus_reports.json"
WORKLOADS = ("dense-motif", "many-cells", "cif-batch")
SEED = 101


def _edge(edge) -> str:
    return f"{edge.length.hex()} {edge.source} {edge.dest} {edge.translation}"


def report_digest(report) -> str:
    """Short SHA-256 of everything in ``report`` but the elapsed time."""
    lines = [
        report.beta.hex(),
        _edge(report.last_edge),
        *("forest " + _edge(e) for e in report.forest_edges),
        *(f"cycle {_edge(e)} {column}" for e, column in report.basis_cycle_edges),
        f"{report.shells_enumerated} {report.edges_examined}",
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def corpus_digests(corpus, workload: str) -> dict:
    digests = {}
    for case in corpus.make(workload, SEED):
        if workload == "cif-batch":
            pset = bridgelen.to_periodic_set(bridgelen.parse_cif(case.text))
        else:
            pset = bridgelen.PeriodicSet(
                bridgelen.LatticeBasis(case.basis), bridgelen.Motif(case.frac)
            )
        digests[case.name] = report_digest(bridgelen.bridge_length(pset))
    return digests


@pytest.fixture
def corpus(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import corpus

    return corpus


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_report_of_the_corpus_is_unchanged(corpus, workload):
    pinned = json.loads(FIXTURE.read_text())[workload]
    digests = corpus_digests(corpus, workload)
    assert len(digests) == len(pinned)
    changed = sorted(name for name in pinned if digests.get(name) != pinned[name])
    assert not changed, "reports changed: " + ", ".join(changed)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "bench"))
    import corpus as _corpus

    old = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    pins = {w: corpus_digests(_corpus, w) for w in WORKLOADS}
    for w in WORKLOADS:
        before = old.get(w, {})
        changed = sorted(n for n, d in pins[w].items() if before.get(n) != d)
        print(f"{w}: {len(changed)} changed" + "".join(f"\n  {n}" for n in changed))
    FIXTURE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
