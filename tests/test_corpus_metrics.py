"""Every cell's metrics in the seed-101 benchmark corpora, pinned bit for bit.

For each of the 480 structures of the three corpora (built by
``bench/corpus.py``, as in ``test_corpus_reports.py``) the fixture holds a
short SHA-256 of every :class:`CellMetrics` field by ``float.hex``: b, d,
vol, h, r_upper, aspect and each facet height.  The report pins cover
only what reaches the bridge length; ``r_upper``, which the CLI prints, and
the other scalars are pinned here.  A change to ``cell_metrics`` or
``facet_volumes`` that claims to keep every value must leave this file
passing; a failure names the structures whose metrics moved.

Regenerate the fixture, after a change that is meant to move metrics, with
``PYTHONPATH=src python tests/test_corpus_metrics.py``.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

import bridgelen

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "fixtures" / "reports" / "corpus_metrics.json"
WORKLOADS = ("dense-motif", "many-cells", "cif-batch")
SEED = 101


def metrics_digest(m) -> str:
    """Short SHA-256 of every field of ``m``, each float by ``float.hex``."""
    scalars = (m.b, m.d, m.vol, m.h, m.r_upper, m.aspect)
    lines = [" ".join(x.hex() for x in scalars), " ".join(x.hex() for x in m.heights)]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def corpus_digests(corpus, workload: str) -> dict:
    digests = {}
    for case in corpus.make(workload, SEED):
        if workload == "cif-batch":
            basis = bridgelen.to_periodic_set(bridgelen.parse_cif(case.text)).basis
        else:
            basis = bridgelen.LatticeBasis(case.basis)
        digests[case.name] = metrics_digest(bridgelen.cell_metrics(basis))
    return digests


@pytest.fixture
def corpus(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import corpus

    return corpus


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_cell_metric_of_the_corpus_is_unchanged(corpus, workload):
    pinned = json.loads(FIXTURE.read_text())[workload]
    digests = corpus_digests(corpus, workload)
    assert len(digests) == len(pinned)
    changed = sorted(name for name in pinned if digests.get(name) != pinned[name])
    assert not changed, "metrics changed: " + ", ".join(changed)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "bench"))
    import corpus as _corpus

    pins = {w: corpus_digests(_corpus, w) for w in WORKLOADS}
    FIXTURE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
