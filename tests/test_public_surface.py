"""The package's public names and command-line options: pinned lists, each
one documented.

A change to ``bridgelen.__all__`` has to change the list below and the
README's library section with it; a change to a command's options, the
option list below and the README's command-line synopsis.
"""

import re
from pathlib import Path

import bridgelen
from bridgelen.cli import main

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


OPTIONS = {
    "batch": ["--format", "--jobs", "--json", "--no-symmetry", "--precision", "--tol"],
    "compute": ["--format", "--json", "--no-symmetry", "--precision", "--tol", "--verify"],
}


def test_each_command_has_the_pinned_options():
    assert sorted(main.commands) == sorted(OPTIONS)
    for name, options in OPTIONS.items():
        params = main.commands[name].params
        assert sorted(opt for param in params for opt in param.opts if opt[0] == "-") == options


def test_the_readme_synopsis_lists_each_command_with_its_options():
    text = README.read_text(encoding="utf-8")
    start = text.index("\n## Command line\n")
    synopsis = text[text.index("```sh\n", start) : text.index("\n```\n", start)]
    # a command's options run from "bridgelen <command>" to the next command
    parts = re.split(r"^bridgelen (\w+)", synopsis, flags=re.M)[1:]
    listed = {
        name: sorted(set(re.findall(r"--[a-z-]+", rest)))
        for name, rest in zip(parts[::2], parts[1::2])
    }
    assert listed == OPTIONS
