"""The benchmark's tracer (``bench/tracing.py``) wraps program names it
looks up by name.  Constructing it resolves every one of them, so renaming
a traced name fails here instead of breaking the traced benchmark run."""

from pathlib import Path

import bridgelen
import bridgelen.cli  # noqa: F401  (the tracer scans every loaded module)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_resolves_and_counts_every_traced_name(monkeypatch, fixtures_dir):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        pset, _ = bridgelen.read_set_file(fixtures_dir / "bcc.cif")
        bridgelen.bridge_length(pset)
    finally:
        tracer.uninstall()
    tracer.collect()
    metrics = tracer.metrics()
    for name in (
        "edges.shells",
        "edges.yielded",
        "quotient.classify_calls",
        "intlinalg.add_calls",
        "geometry.motif_points",
        "geometry.cell_metrics_calls",
        "ingest.images",
        "ingest.atoms_kept",
    ):
        assert metrics[name][0] > 0, name
    assert metrics["bridge.total_s"][0] > 0
