"""Exact bridge length of periodic point sets.

The bridge length of a point set is the smallest hop length such that any
two of its points are joined by a finite chain of hops no longer than it.
For periodic sets it is computed exactly from one unit cell by streaming
inter-point edge classes in increasing length order into a labelled
quotient graph and certifying connectivity of the lifted periodic graph
with a Hermite basis of its cycle sums whose pivots are all 1.
"""

from .bridge import BridgeReport, bridge_length, mst_longest_edge
from .edges import CandidateEdge, EdgeGenerator
from .errors import (
    DegenerateCell,
    EmptyInput,
    InvalidScale,
    MissingCell,
    MissingSites,
    OracleInconclusive,
    ParseError,
    SymOpError,
)
from .geometry import (
    CellMetrics,
    LatticeBasis,
    Motif,
    PeriodicSet,
    cell_metrics,
    facet_heights,
)
from .ingest import (
    CrystalDocument,
    parse_cif,
    parse_json_set,
    read_set_file,
    to_periodic_set,
    write_json_set,
)
from .intlinalg import OnlineSnfState, SnfResult, in_span, snf, spans_lattice
from .oracle import oracle_bridge_length
from .quotient import EdgeOutcome, QuotientState

__version__ = "0.1.0"

__all__ = [
    "BridgeReport",
    "CandidateEdge",
    "CellMetrics",
    "CrystalDocument",
    "DegenerateCell",
    "EdgeGenerator",
    "EdgeOutcome",
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
    "facet_heights",
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
