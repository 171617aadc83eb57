"""Command-line front end: per-file reports and batch tables.

``compute FILE`` prints one CSV row (or a full JSON report with --json);
``batch DIR`` prints one CSV row per .cif/.json file in the directory, in a
deterministic order.  ``--jobs N`` runs N threads in one interpreter; they
share its lock, so CPU-bound files do not run in parallel.  Exit codes: 0
ok, 1 parse/read error, 2 degenerate cell or usage error (a bad option
value, such as a --tol that is not a finite number > 0), 3 verification
mismatch, 4 oracle inconclusive.
"""

from __future__ import annotations

import csv
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import click

from .bridge import BridgeReport, bridge_length
from .errors import DegenerateCell, OracleInconclusive
from .geometry import check_tolerance
from .ingest import SYMMETRY_DEDUP_TOL, read_set_file
from .oracle import oracle_bridge_length

VERIFY_REL_TOL = 1e-9

_CSV_HEADER = ("id", "atoms", "beta", "r_upper", "ratio", "basis_size", "ms", "error")


@dataclass
class ReportRow:
    """One output row of the CSV table."""

    id: str
    atoms: int
    beta: float
    r_upper: float
    ratio: float
    basis_size: int
    ms: float
    error: str = ""


def _compute_one(path, fmt, expand_symmetry, tol) -> tuple[str, int, BridgeReport]:
    pset, ident = read_set_file(
        path, fmt=fmt, expand_symmetry=expand_symmetry, dedup_tol=tol
    )
    report = bridge_length(pset)
    return ident, pset.motif_size, report


def _row_from(ident: str, atoms: int, report: BridgeReport) -> ReportRow:
    return ReportRow(
        id=ident,
        atoms=atoms,
        beta=report.beta,
        r_upper=report.r_upper,
        ratio=report.r_upper / report.beta,
        basis_size=report.translational_basis_size,
        ms=report.elapsed * 1000.0,
    )


def _edge_dict(edge) -> dict:
    return {
        "source": edge.source,
        "dest": edge.dest,
        "translation": list(edge.translation),
        "length": edge.length,
    }


def _report_dict(ident: str, atoms: int, report: BridgeReport) -> dict:
    return {
        "id": ident,
        "atom_count": atoms,
        "beta": report.beta,
        "r_upper": report.r_upper,
        "ratio": report.r_upper / report.beta,
        "translational_basis_size": report.translational_basis_size,
        "shells_enumerated": report.shells_enumerated,
        "edges_examined": report.edges_examined,
        "elapsed_ms": report.elapsed * 1000.0,
        "last_edge": _edge_dict(report.last_edge),
        "forest_edges": [_edge_dict(e) for e in report.forest_edges],
        "basis_cycle_edges": [
            {"edge": _edge_dict(e), "cycle_sum": list(c)}
            for e, c in report.basis_cycle_edges
        ],
        # constant: the trace is never cut (m - 1 forest edges, one per span change)
        "trace_truncated": False,
    }


def _write_rows(rows, precision: int) -> None:
    writer = csv.writer(sys.stdout)
    writer.writerow(_CSV_HEADER)
    for r in rows:
        if r.error:
            writer.writerow([r.id, "", "", "", "", "", "", r.error])
        else:
            writer.writerow(
                [
                    r.id,
                    r.atoms,
                    f"{r.beta:.{precision}f}",
                    f"{r.r_upper:.{precision}f}",
                    f"{r.ratio:.{precision}f}",
                    r.basis_size,
                    f"{r.ms:.3f}",
                    "",
                ]
            )


_format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["cif", "json"]),
    default=None,
    help="Input format (default: by file extension).",
)
_symmetry_option = click.option(
    "--no-symmetry",
    is_flag=True,
    help="Do not expand CIF symmetry operations.",
)


def _finite_positive(ctx, param, value: float) -> float:
    # click.FloatRange(min=0, min_open=True) would still let nan through
    try:
        return check_tolerance(value)
    except ValueError:
        raise click.BadParameter(f"{value} is not a finite number > 0.") from None


_tol_option = click.option(
    "--tol",
    type=float,
    callback=_finite_positive,
    default=SYMMETRY_DEDUP_TOL,
    show_default=True,
    help="Wrap-aware fractional tolerance for merging symmetry images.",
)
_precision_option = click.option(
    "--precision",
    type=click.IntRange(min=0),
    default=6,
    show_default=True,
    help="Decimal places for lengths in CSV output.",
)


@click.group()
def main():
    """Bridge length of periodic point sets (CIF or JSON input)."""


@main.command()
@click.argument("path", type=click.Path(path_type=Path))
@click.option("--json", "as_json", is_flag=True, help="Emit the full report as JSON.")
@click.option(
    "--verify",
    is_flag=True,
    help="Cross-check against the brute-force oracle (exit 3 on mismatch).",
)
@_format_option
@_symmetry_option
@_tol_option
@_precision_option
def compute(path, as_json, verify, fmt, no_symmetry, tol, precision):
    """Compute the bridge length of one file and print a report row."""
    try:
        pset, ident = read_set_file(
            path, fmt=fmt, expand_symmetry=not no_symmetry, dedup_tol=tol
        )
        report = bridge_length(pset)
    except Exception as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2 if isinstance(exc, DegenerateCell) else 1)

    oracle_beta = None
    if verify:
        try:
            oracle_beta = oracle_bridge_length(pset)
        except OracleInconclusive as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(4)

    if as_json:
        payload = _report_dict(ident, pset.motif_size, report)
        if oracle_beta is not None:
            payload["oracle_beta"] = oracle_beta
        click.echo(json.dumps(payload))
    else:
        _write_rows([_row_from(ident, pset.motif_size, report)], precision)

    if oracle_beta is not None:
        if abs(report.beta - oracle_beta) > VERIFY_REL_TOL * max(
            abs(report.beta), abs(oracle_beta)
        ):
            click.echo(
                f"verify mismatch: beta={report.beta!r} oracle={oracle_beta!r}",
                err=True,
            )
            sys.exit(3)
        click.echo("verify: ok", err=True)


@main.command()
@click.argument(
    "directory", type=click.Path(exists=True, file_okay=False, path_type=Path)
)
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON table.")
@click.option(
    "--jobs",
    type=click.IntRange(min=1),
    default=1,
    show_default=True,
    help="Threads to process files with; they share one interpreter lock, "
    "so CPU-bound files do not run in parallel.",
)
@_format_option
@_symmetry_option
@_tol_option
@_precision_option
def batch(directory, as_json, jobs, fmt, no_symmetry, tol, precision):
    """Compute bridge lengths for every .cif/.json file in DIRECTORY.

    One row per file; a failing file contributes an error row instead of
    aborting the batch.  Output order is deterministic regardless of --jobs.
    """
    files = sorted(
        p
        for p in directory.iterdir()
        if p.is_file() and p.suffix.lower() in (".cif", ".json")
    )
    if not files:
        click.echo(f"error: no .cif or .json files in {directory}", err=True)
        sys.exit(1)

    def work(p: Path) -> ReportRow:
        try:
            ident, atoms, report = _compute_one(p, fmt, not no_symmetry, tol)
            return _row_from(ident, atoms, report)
        except Exception as exc:
            return ReportRow(
                id=p.stem, atoms=0, beta=0.0, r_upper=0.0, ratio=0.0,
                basis_size=0, ms=0.0, error=str(exc),
            )

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(work, files))
    else:
        rows = [work(p) for p in files]
    rows.sort(key=lambda r: r.id)

    if as_json:
        payload = {"rows": [asdict(r) for r in rows]}
        ok = [r.beta for r in rows if not r.error]
        if ok:
            payload["mean_beta"] = sum(ok) / len(ok)
        click.echo(json.dumps(payload))
    else:
        _write_rows(rows, precision)
        ok = [r.beta for r in rows if not r.error]
        if ok:
            click.echo(
                f"mean beta over {len(ok)} ok files: "
                f"{sum(ok) / len(ok):.{precision}f}",
                err=True,
            )


if __name__ == "__main__":
    main()
