"""Ingestion: a minimal CIF subset and a lossless JSON set format.

CIF scope (deliberately small, geometry only): the first data block; the
six cell tags; the atom-site loop's fractional coordinates (plus labels
when present); one symmetry-operation loop.  Parenthesized uncertainties
like ``1.234(5)`` are stripped.  Everything else is ignored.  Multi-line
``;`` text fields and quoted values are tokenized correctly so they cannot
derail the loops we do care about.

The JSON format is a lossless carrier for arbitrary-dimension sets::

    {"dim": n, "basis": [[...], ...], "motif_fractional": [[...], ...]}

with every number written as Python's shortest round-trip repr, so a
write/parse round trip is bit-identical.

All functions are pure; parsing concurrent distinct inputs is safe.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import (
    DegenerateCell,
    MissingCell,
    MissingSites,
    ParseError,
    SymOpError,
)
from .geometry import (
    LatticeBasis,
    Motif,
    PeriodicSet,
    check_tolerance,
    coincident,
    wrap_fractional,
)

#: Default tolerance (fractional, wrap-aware) for merging symmetry images;
#: see :func:`bridgelen.geometry.coincident`.
SYMMETRY_DEDUP_TOL = 1e-3

#: Symmetry images per block of the greedy merge (see :func:`_merge_images`).
_MERGE_BLOCK = 64

#: Distinct operation strings whose parse is kept; a CIF corpus reuses the
#: few hundred operations of its space groups again and again.
_SYMOP_CACHE = 4096

_CELL_TAGS = (
    "_cell_length_a",
    "_cell_length_b",
    "_cell_length_c",
    "_cell_angle_alpha",
    "_cell_angle_beta",
    "_cell_angle_gamma",
)
_SYMOP_TAGS = ("_symmetry_equiv_pos_as_xyz", "_space_group_symop_operation_xyz")

_NUMBER_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)(?:\(\d+\))?$"
)
_TERM_RE = re.compile(r"([+-]?)([xyz]|\d+(?:\.\d+)?(?:/\d+)?|\.\d+)")


@dataclass(frozen=True)
class CrystalDocument:
    """Geometry extracted from one CIF data block."""

    cell_lengths: tuple[float, float, float]
    cell_angles: tuple[float, float, float]
    sites: tuple[tuple[str, tuple[float, float, float]], ...]
    symmetry_ops: Optional[tuple[str, ...]] = None
    name: Optional[str] = None


def _tokenize(text: str):
    """List of (value, line_number, was_quoted) tokens, in file order."""
    tokens = []
    lines = text.splitlines()
    idx = 0
    while idx < len(lines):
        line = lines[idx]
        lineno = idx + 1
        if line.startswith(";"):
            # multi-line text field; keep as one opaque value token
            field = [line[1:]]
            idx += 1
            while idx < len(lines) and not lines[idx].startswith(";"):
                field.append(lines[idx])
                idx += 1
            if idx >= len(lines):
                raise ParseError("unterminated ';' text field", lineno)
            tokens.append(("\n".join(field), lineno, True))
            idx += 1
            continue
        pos = 0
        end = len(line)
        while pos < end:
            ch = line[pos]
            if ch in " \t":
                pos += 1
                continue
            if ch == "#":
                break
            if ch in "'\"":
                close = pos + 1
                while True:
                    close = line.find(ch, close)
                    if close == -1:
                        raise ParseError("unterminated quoted value", lineno)
                    if close + 1 >= end or line[close + 1] in " \t":
                        break
                    close += 1
                tokens.append((line[pos + 1 : close], lineno, True))
                pos = close + 1
            else:
                nxt = pos
                while nxt < end and line[nxt] not in " \t":
                    nxt += 1
                tokens.append((line[pos:nxt], lineno, False))
                pos = nxt
        idx += 1
    return tokens


def _parse_number(value: str, line: int) -> float:
    m = _NUMBER_RE.match(value.strip())
    if not m:
        raise ParseError(f"malformed number {value!r}", line)
    return float(m.group(1))


def _as_text(text) -> str:
    """``text`` as a str without one leading byte-order mark: an editor's
    BOM would otherwise stick to the first token."""
    if isinstance(text, (bytes, bytearray)):
        return bytes(text).decode("utf-8-sig")
    return text.removeprefix("\ufeff")


def parse_cif(text) -> CrystalDocument:
    """Parse the first data block of a CIF into a :class:`CrystalDocument`."""
    tokens = _tokenize(_as_text(text))

    block_starts = [
        i
        for i, (v, _, q) in enumerate(tokens)
        if not q and v.lower().startswith("data_")
    ]
    if block_starts:
        name = tokens[block_starts[0]][0][5:] or None
        stop = block_starts[1] if len(block_starts) > 1 else len(tokens)
        body = tokens[block_starts[0] + 1 : stop]
    else:
        name = None
        body = tokens

    scalars: dict[str, tuple[str, int]] = {}
    loops: list[tuple[list[str], list[list[tuple[str, int]]]]] = []
    i = 0
    while i < len(body):
        value, line, quoted = body[i]
        low = value.lower()
        if not quoted and low == "loop_":
            i += 1
            tags = []
            while i < len(body) and not body[i][2] and body[i][0].startswith("_"):
                tags.append(body[i][0].lower())
                i += 1
            if not tags:
                raise ParseError("loop_ without column tags", line)
            values = []
            while i < len(body):
                v, ln, q = body[i]
                if not q and (
                    v.startswith("_") or v.lower() == "loop_" or v.lower().startswith("data_")
                ):
                    break
                values.append((v, ln))
                i += 1
            if values and len(values) % len(tags) != 0:
                raise ParseError(
                    f"loop has {len(values)} values, not a multiple of "
                    f"{len(tags)} columns",
                    values[-1][1],
                )
            rows = [values[r : r + len(tags)] for r in range(0, len(values), len(tags))]
            loops.append((tags, rows))
        elif not quoted and value.startswith("_"):
            if i + 1 >= len(body):
                raise ParseError(f"tag {value} has no value", line)
            scalars[low] = (body[i + 1][0], body[i + 1][1])
            i += 2
        else:
            i += 1  # stray value outside any construct we model

    for tag in _CELL_TAGS:
        if tag not in scalars:
            raise MissingCell(f"missing required tag {tag}")
    cell = [_parse_number(*scalars[tag]) for tag in _CELL_TAGS]
    lengths = tuple(cell[:3])
    angles = tuple(cell[3:])
    for tag, v in zip(_CELL_TAGS[:3], lengths):
        if not (v > 0 and math.isfinite(v)):
            raise ParseError(f"{tag} must be positive, got {v}", scalars[tag][1])
    for tag, v in zip(_CELL_TAGS[3:], angles):
        if not 0.0 < v < 180.0:
            raise ParseError(
                f"{tag} must be strictly between 0 and 180 degrees, got {v}",
                scalars[tag][1],
            )

    site_loop = None
    for tags, rows in loops:
        if {"_atom_site_fract_x", "_atom_site_fract_y", "_atom_site_fract_z"} <= set(
            tags
        ):
            site_loop = (tags, rows)
            break
    if site_loop is None or not site_loop[1]:
        raise MissingSites("no atom-site loop with fractional coordinates")
    tags, rows = site_loop
    cols = [tags.index(f"_atom_site_fract_{ax}") for ax in "xyz"]
    label_col = tags.index("_atom_site_label") if "_atom_site_label" in tags else None
    sites = []
    for r, row in enumerate(rows):
        label = row[label_col][0] if label_col is not None else f"site{r + 1}"
        frac = tuple(_parse_number(*row[c]) for c in cols)
        sites.append((label, frac))

    symmetry_ops = None
    for tags, rows in loops:
        op_col = next((tags.index(t) for t in _SYMOP_TAGS if t in tags), None)
        if op_col is not None and rows:
            symmetry_ops = tuple(row[op_col][0] for row in rows)
            break

    return CrystalDocument(
        cell_lengths=lengths,
        cell_angles=angles,
        sites=tuple(sites),
        symmetry_ops=symmetry_ops,
        name=name,
    )


@lru_cache(maxsize=_SYMOP_CACHE)
def parse_symmetry_op(op: str) -> tuple[tuple[tuple[int, ...], ...], tuple[float, ...]]:
    """Parse ``"x, y+1/2, -z"``-style text into (matrix, translation), as
    immutable tuples: the integer matrix rows and the float translation.

    Grammar: three comma-separated components, each a signed sum of x/y/z
    terms and rational (p/q) or decimal constants.  The integer matrix must
    have determinant +1 or -1, computed exactly: a singular one such as
    ``"x, x, z"`` maps the cell onto a plane and puts points in no orbit.
    The parse is cached per string; an exception is never cached, so a bad
    operation raises :class:`SymOpError` on every call.
    """
    parts = op.split(",")
    if len(parts) != 3:
        raise SymOpError(f"expected 3 comma-separated components in {op!r}")
    mat = [[0, 0, 0] for _ in range(3)]
    trans = [0.0, 0.0, 0.0]
    for r, comp in enumerate(parts):
        s = comp.replace(" ", "").lower()
        if not s:
            raise SymOpError(f"empty component in {op!r}")
        pos = 0
        first = True
        while pos < len(s):
            m = _TERM_RE.match(s, pos)
            if m is None:
                raise SymOpError(f"cannot parse component {comp!r} of {op!r}")
            sign_txt, term = m.group(1), m.group(2)
            if not first and not sign_txt:
                raise SymOpError(f"missing operator in component {comp!r} of {op!r}")
            sign = -1 if sign_txt == "-" else 1
            if term in "xyz":
                mat[r]["xyz".index(term)] += sign
            elif "/" in term:
                num, den = term.split("/")
                if float(den) == 0.0:
                    raise SymOpError(
                        f"zero denominator in component {comp!r} of {op!r}"
                    )
                trans[r] += sign * float(num) / float(den)
            else:
                trans[r] += sign * float(term)
            pos = m.end()
            first = False
    (a, b, c), (d, e, f), (g, h, k) = mat
    det = a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g)
    if det not in (1, -1):
        raise SymOpError(
            f"symmetry operation {op!r} has determinant {det}, not +1 or -1"
        )
    return tuple(map(tuple, mat)), tuple(trans)


def basis_from_cell_parameters(lengths, angles) -> LatticeBasis:
    """Standard lower-triangular Cartesian basis from (a,b,c,alpha,beta,gamma).

    v1 along x, v2 in the xy-plane; any convention gives the same bridge
    length (it is isometry-invariant), this one makes outputs reproducible.
    """
    a, b, c = lengths
    al, be, ga = (math.radians(x) for x in angles)
    sin_ga = math.sin(ga)
    if abs(sin_ga) < 1e-12:
        raise DegenerateCell(f"gamma = {angles[2]} degrees is degenerate")
    v1 = (a, 0.0, 0.0)
    v2 = (b * math.cos(ga), b * sin_ga, 0.0)
    cx = c * math.cos(be)
    cy = c * (math.cos(al) - math.cos(be) * math.cos(ga)) / sin_ga
    cz_sq = c * c - cx * cx - cy * cy
    if cz_sq <= 0.0:
        raise DegenerateCell(
            f"cell angles {angles} do not define a positive-definite metric"
        )
    return LatticeBasis([v1, v2, (cx, cy, math.sqrt(cz_sq))])


def _merge_images(images: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the rows of ``images`` that the greedy merge keeps.

    A row is kept unless it is within ``tol`` of a row kept before it.  The
    rows are taken in blocks of ``_MERGE_BLOCK``; each block is compared
    with the rows kept so far and with its own earlier rows at once.  A
    row near a kept one is dropped, a row with no earlier candidate near it
    is kept, and a row near an earlier row that is surely kept is dropped;
    only what is left (chains of rows, each near the one before) is decided
    one by one, in order.
    """
    keep = np.zeros(len(images), dtype=bool)
    tri = np.tri(_MERGE_BLOCK, k=-1, dtype=bool)
    for start in range(0, len(images), _MERGE_BLOCK):
        block = images[start : start + _MERGE_BLOCK]
        size = len(block)
        kept = images[:start][keep[:start]]
        free = ~coincident(block, kept, tol).any(axis=1)
        near = coincident(block, block, tol) & tri[:size, :size] & free
        sure = free & ~near.any(axis=1)
        left = free & ~sure & ~(near & sure).any(axis=1)
        out = keep[start : start + size]
        out[:] = sure
        for i in np.flatnonzero(left):
            out[i] = not (near[i] & out).any()
    return keep


def to_periodic_set(
    doc: CrystalDocument,
    expand_symmetry: bool = True,
    dedup_tol: float = SYMMETRY_DEDUP_TOL,
) -> PeriodicSet:
    """Build a periodic set, optionally applying the symmetry operations.

    Symmetry images landing within ``dedup_tol`` of an already-kept point
    are merged.  The tolerance is fractional and wrap-aware, which suits the
    fractional decimals CIF sites are printed with (see
    :func:`bridgelen.geometry.coincident`), and must be a finite number
    above 0.  The merge is greedy against the kept points, in the order of
    sites and operations, so the result is deterministic; it runs in
    blocks of images (see :func:`_merge_images`).

    Each image is ``wrap_fractional(mat @ frac + trans)``, computed for all
    sites and operations at once.  A crystallographic operation has entries
    0 and +-1 with at most two nonzero per row, so each product is exact and
    each row sum is one rounding, whatever the order of evaluation.
    """
    check_tolerance(dedup_tol)
    basis = basis_from_cell_parameters(doc.cell_lengths, doc.cell_angles)
    fracs = np.array([frac for _, frac in doc.sites], dtype=float)
    if expand_symmetry and doc.symmetry_ops:
        mats, trans = zip(*map(parse_symmetry_op, doc.symmetry_ops))
        mats, trans = np.array(mats, dtype=float), np.array(trans)
        # (sites, ops, 3) flattened: site-major, operation-minor
        images = wrap_fractional(np.einsum("ojk,sk->soj", mats, fracs) + trans)
        images = images.reshape(-1, 3)
        points = images[_merge_images(images, dedup_tol)]
    else:
        points = fracs
    return PeriodicSet(basis, Motif(points))


def write_json_set(pset: PeriodicSet) -> str:
    """Serialize losslessly: json writes each float as its shortest repr
    that parses back to the same float64."""
    obj = {
        "dim": pset.dim,
        "basis": pset.basis.vectors.tolist(),
        "motif_fractional": pset.motif.points.tolist(),
    }
    return json.dumps(obj)


def _finite_number(x) -> bool:
    """True for a JSON number that is not a boolean, NaN or an infinity and
    fits a float."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        return False


def parse_json_set(text) -> PeriodicSet:
    """Parse the JSON set format; schema violations raise ParseError."""
    try:
        obj = json.loads(_as_text(text))
    except ValueError as exc:  # also integers longer than Python converts
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("top-level JSON value must be an object")
    missing = {"dim", "basis", "motif_fractional"} - obj.keys()
    if missing:
        raise ParseError(f"missing keys: {sorted(missing)}")
    dim = obj["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError(f"dim must be a positive integer, got {dim!r}")

    def _matrix(key, expect_rows=None):
        rows = obj[key]
        if not isinstance(rows, list) or not rows:
            raise ParseError(f"{key} must be a non-empty list of rows")
        if expect_rows is not None and len(rows) != expect_rows:
            raise ParseError(f"{key} must have {expect_rows} rows, got {len(rows)}")
        for row in rows:
            if not isinstance(row, list) or len(row) != dim:
                raise ParseError(f"every {key} row must be {dim} numbers")
            for x in row:
                if not _finite_number(x):
                    raise ParseError(f"{key} entries must be finite numbers, got {x!r}")
        return np.array(rows, dtype=float)

    basis = _matrix("basis", expect_rows=dim)
    motif = _matrix("motif_fractional")
    return PeriodicSet(LatticeBasis(basis), Motif(motif))


def read_set_file(
    path,
    fmt: Optional[str] = None,
    expand_symmetry: bool = True,
    dedup_tol: float = SYMMETRY_DEDUP_TOL,
) -> tuple[PeriodicSet, str]:
    """Load a periodic set from a .cif or .json file.

    Returns (set, identifier); the identifier is the CIF data-block name
    when present, else the file stem.  ``fmt`` overrides the extension.
    ``dedup_tol`` must be a finite number above 0 for either format.
    """
    check_tolerance(dedup_tol)
    p = Path(path)
    if fmt is None:
        suffix = p.suffix.lower()
        if suffix == ".cif":
            fmt = "cif"
        elif suffix == ".json":
            fmt = "json"
        else:
            raise ParseError(
                f"cannot infer format of {p.name!r}; pass --format cif|json"
            )
    try:
        # bytes: the parsers decode them and drop one leading BOM
        text = p.read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {p}: {exc}") from exc
    if fmt == "cif":
        doc = parse_cif(text)
        pset = to_periodic_set(doc, expand_symmetry=expand_symmetry, dedup_tol=dedup_tol)
        return pset, (doc.name or p.stem)
    if fmt == "json":
        return parse_json_set(text), p.stem
    raise ParseError(f"unknown format {fmt!r}")
