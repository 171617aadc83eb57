"""The package's public names: a pinned list, each one documented.

A change to ``bridgelen.__all__`` has to change the list below and the
README's library section with it.
"""

import re
from pathlib import Path

import bridgelen

README = Path(__file__).parents[1] / "README.md"

PUBLIC = [
    "BridgeReport",
    "CandidateEdge",
    "CellMetrics",
    "CrystalDocument",
    "DegenerateCell",
    "EdgeGenerator",
    "EmptyInput",
    "InvalidScale",
    "LatticeBasis",
    "MissingCell",
    "MissingSites",
    "Motif",
    "OnlineSnfState",
    "OracleInconclusive",
    "ParseError",
    "PeriodicSet",
    "QuotientState",
    "SnfResult",
    "SymOpError",
    "bridge_length",
    "cell_metrics",
    "in_span",
    "mst_longest_edge",
    "oracle_bridge_length",
    "parse_cif",
    "parse_json_set",
    "read_set_file",
    "snf",
    "spans_lattice",
    "to_periodic_set",
    "write_json_set",
]


def test_all_is_the_pinned_surface():
    assert sorted(bridgelen.__all__) == PUBLIC
    for name in PUBLIC:
        getattr(bridgelen, name)


def test_every_public_name_is_in_the_readme_library_section():
    text = README.read_text(encoding="utf-8")
    start = text.index("\n## Library\n")
    section = text[start : text.index("\n## ", start + 1)]
    assert [name for name in PUBLIC if not re.search(rf"\b{name}\b", section)] == []
