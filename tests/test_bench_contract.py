"""The benchmark's tracer (``bench/tracing.py``) wraps program names it
looks up by name.  Constructing it resolves every one of them, so renaming
a traced name fails here instead of breaking the traced benchmark run."""

from pathlib import Path

import pytest

import bridgelen
import bridgelen.cli  # noqa: F401  (the tracer scans every loaded module)

from conftest import slab_19

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    return tracing


def test_tracer_resolves_and_counts_every_traced_name(tracing, fixtures_dir):
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


@pytest.mark.parametrize(
    "name, shells, yielded, generated",
    [("fig3", 2, 3, 7), ("bcc", 2, 5, 14), ("slab", 2, 41, 215)],
)
def test_edge_counters_are_pinned(
    tracing, fig3_set, bcc, name, shells, yielded, generated
):
    # ``edges.generated`` is yielded + len(pending) after the run: the
    # buffer keeps every candidate up to the working horizon, in every
    # shell built, and no candidate beyond it, so this count follows the
    # horizon's start.  The slab's builds are those of its reduced cell
    # (aspect 6.65 -> 6.25), whose thin axis collapses: its horizon starts
    # at 1.6 times the in-plane spacing, 2.56, and its one build holds 215
    # candidates up to it (302 when the start was twice the cube edge,
    # 2.87).  Its extents scale with the heights, so one build (2 shells)
    # reaches its bridge length where three L-infinity shells did
    pset = {"fig3": fig3_set, "bcc": bcc, "slab": slab_19()}[name]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        bridgelen.bridge_length(pset)
    finally:
        tracer.uninstall()
    tracer.collect()
    metrics = tracer.metrics()
    assert metrics["edges.shells"][0] == shells
    assert metrics["edges.yielded"][0] == yielded
    assert metrics["edges.generated"][0] == generated
