"""Every expanded motif of the seed-101 ``cif-batch`` corpus, pinned bit for bit.

For each of the 240 CIF files of the corpus (built by ``bench/corpus.py``,
as in ``test_corpus_reports.py``) the fixture holds a short SHA-256 of the
motif that ``to_periodic_set`` builds from it: its shape and its float64
bytes, so the same points in the same order.  A change to symmetry
expansion, the image merge or ``Motif`` that claims to keep every point
must leave this file passing; a failure names the CIF files whose motif
changed.

Regenerate the fixture, after a change that is meant to move motifs, with
``PYTHONPATH=src python tests/test_corpus_motifs.py``.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import bridgelen

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "fixtures" / "reports" / "corpus_motifs.json"
SEED = 101


def motif_digest(points: np.ndarray) -> str:
    """Short SHA-256 of the shape and little-endian float64 bytes."""
    data = np.ascontiguousarray(points, dtype="<f8")
    shape = "x".join(str(k) for k in data.shape).encode()
    return hashlib.sha256(shape + b"\n" + data.tobytes()).hexdigest()[:16]


def corpus_digests(corpus) -> dict:
    return {
        case.name: motif_digest(
            bridgelen.to_periodic_set(bridgelen.parse_cif(case.text)).motif.points
        )
        for case in corpus.make("cif-batch", SEED)
    }


@pytest.fixture
def corpus(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import corpus

    return corpus


def test_every_expanded_motif_is_unchanged(corpus):
    pinned = json.loads(FIXTURE.read_text())
    digests = corpus_digests(corpus)
    assert len(digests) == len(pinned)
    changed = sorted(name for name in pinned if digests.get(name) != pinned[name])
    assert not changed, "motifs changed: " + ", ".join(changed)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "bench"))
    import corpus as _corpus

    pins = corpus_digests(_corpus)
    FIXTURE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
