"""Command-line front end: per-file reports and batch tables.

``compute FILE`` prints one CSV row (or a full JSON report with --json);
``batch DIR`` prints one CSV row per .cif/.json file in the directory, in a
deterministic order.  ``--jobs N`` runs at most N threads, and never more
than there are files or CPUs, in one interpreter; they share its lock, so
CPU-bound files do not run in parallel.  Exit codes: 0 ok, 1 parse/read
error, 2 degenerate cell or usage error (a bad option value, such as a
--tol that is not a finite number > 0), 3 verification mismatch, 4 oracle
inconclusive.
"""

from __future__ import annotations

import csv
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import click

from .bridge import BridgeReport, bridge_length
from .errors import DegenerateCell, OracleInconclusive
from .geometry import check_tolerance
from .ingest import SYMMETRY_DEDUP_TOL, read_set_file
from .oracle import oracle_bridge_length

VERIFY_REL_TOL = 1e-9

# a table row is a dict with these keys, in this order (the CSV columns and
# the keys of each ``batch --json`` row)
_CSV_HEADER = ("id", "atoms", "beta", "r_upper", "ratio", "basis_size", "ms", "error")


def _row(ident: str, atoms: int, report: BridgeReport) -> dict:
    values = (
        ident,
        atoms,
        report.beta,
        report.r_upper,
        report.r_upper / report.beta,
        report.translational_basis_size,
        report.elapsed * 1000.0,
        "",
    )
    return dict(zip(_CSV_HEADER, values))


def _file_row(path: Path, fmt, expand_symmetry: bool, tol: float) -> dict:
    """The table row of one file; a failure gives an error row instead."""
    try:
        pset, ident = read_set_file(
            path, fmt=fmt, expand_symmetry=expand_symmetry, dedup_tol=tol
        )
        return _row(ident, pset.motif_size, bridge_length(pset))
    except Exception as exc:
        return dict(zip(_CSV_HEADER, (path.stem, 0, 0.0, 0.0, 0.0, 0, 0.0, str(exc))))


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
    writer = csv.DictWriter(sys.stdout, _CSV_HEADER)
    writer.writeheader()
    for r in rows:
        if r["error"]:  # an error row leaves every other column empty
            writer.writerow({"id": r["id"], "error": r["error"]})
        else:
            lengths = {k: f"{r[k]:.{precision}f}" for k in ("beta", "r_upper", "ratio")}
            writer.writerow({**r, **lengths, "ms": f"{r['ms']:.3f}"})


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
        _write_rows([_row(ident, pset.motif_size, report)], precision)

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
    help="Threads to process files with, at most one per file and per CPU; "
    "they share one interpreter lock, so CPU-bound files do not run in parallel.",
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

    work = partial(_file_row, fmt=fmt, expand_symmetry=not no_symmetry, tol=tol)
    workers = min(jobs, len(files), os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        rows = sorted(pool.map(work, files), key=lambda r: r["id"])

    ok = [r["beta"] for r in rows if not r["error"]]
    mean = sum(ok) / len(ok) if ok else None
    if as_json:
        payload = {"rows": rows}
        if ok:
            payload["mean_beta"] = mean
        click.echo(json.dumps(payload))
    else:
        _write_rows(rows, precision)
        if ok:
            click.echo(
                f"mean beta over {len(ok)} ok files: {mean:.{precision}f}", err=True
            )


if __name__ == "__main__":
    main()
