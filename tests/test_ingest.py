"""Tests for CIF and JSON ingestion."""

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgelen import (
    DegenerateCell,
    MissingCell,
    MissingSites,
    ParseError,
    SymOpError,
    parse_cif,
    parse_json_set,
    read_set_file,
    to_periodic_set,
    write_json_set,
)
from bridgelen import geometry
from bridgelen.geometry import row_norms, wrap_fractional, wrapped_delta
from bridgelen.ingest import _tokenize, parse_symmetry_op

from conftest import make_set, random_set

CUBE_CIF = """\
data_cube
_cell_length_a 1.0
_cell_length_b 1.0
_cell_length_c 1.0
_cell_angle_alpha 90
_cell_angle_beta 90
_cell_angle_gamma 90
loop_
_atom_site_label
_atom_site_fract_x
_atom_site_fract_y
_atom_site_fract_z
C1 0 0 0
"""


def cif_text(a=1.0, b=1.0, c=1.0, alpha=90.0, beta=90.0, gamma=90.0,
             sites=((0.0, 0.0, 0.0),), ops=None):
    lines = [
        "data_test",
        f"_cell_length_a {a}",
        f"_cell_length_b {b}",
        f"_cell_length_c {c}",
        f"_cell_angle_alpha {alpha}",
        f"_cell_angle_beta {beta}",
        f"_cell_angle_gamma {gamma}",
    ]
    if ops:
        lines.append("loop_")
        lines.append("_symmetry_equiv_pos_as_xyz")
        lines.extend(f"'{op}'" for op in ops)
    lines.append("loop_")
    lines.append("_atom_site_label")
    lines.append("_atom_site_fract_x")
    lines.append("_atom_site_fract_y")
    lines.append("_atom_site_fract_z")
    for i, s in enumerate(sites):
        lines.append(f"X{i} {s[0]} {s[1]} {s[2]}")
    return "\n".join(lines) + "\n"


def reference_tokenize(text: str):
    """Oracle: the character scanner the token grammar replaced, with the
    rest of the line that closes a ';' text field scanned for tokens.
    List of (value, line_number, was_quoted) tokens, in file order."""
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
            # the rest of the closing line is scanned as any line
            line = lines[idx][1:]
            lineno = idx + 1
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


def tokens_or_error_line(tokenize, text):
    """The tokens of ``text``, or the line of the ParseError it raises."""
    try:
        return tokenize(text)
    except ParseError as exc:
        return ("ParseError", exc.line)


TOKEN_SAMPLE = """\
data_x  # a comment
_name 'it''s' "say "hi"" a#b
;first
 second
;
loop_
_tag\t'' ""
"""


class TestTokenize:
    @pytest.mark.parametrize(
        "text, line",
        [
            ("data_x\n_a 'open value\n_b 1\n", 2),
            ('data_x\n_a 1\n_b "open value\n', 3),
            ("data_x\n_a 'x'y\n", 2),
            ("data_x\n_a\n;text\nmore text\n", 3),
            ("data_x\n_a\n;text\n more\n ;indented\n", 3),
        ],
    )
    def test_unterminated_value_reports_its_opening_line(self, text, line):
        with pytest.raises(ParseError) as err:
            _tokenize(text)
        assert err.value.line == line
        with pytest.raises(ParseError, match=f"line {line}: unterminated"):
            parse_cif(text)

    def test_quote_closes_only_before_a_blank(self):
        assert _tokenize("'a'b c'") == [("a'b c", 1, True)]
        assert _tokenize("x 'a'b c' \"d\"e\"\ty") == [
            ("x", 1, False),
            ("a'b c", 1, True),
            ('d"e', 1, True),
            ("y", 1, False),
        ]

    def test_hash_starts_a_comment_only_at_a_token_start(self):
        assert _tokenize("a#b c") == [("a#b", 1, False), ("c", 1, False)]
        assert _tokenize("a #b c\n#d\ne") == [("a", 1, False), ("e", 3, False)]
        assert _tokenize("'a #b' c") == [("a #b", 1, True), ("c", 1, False)]

    def test_sample(self):
        assert _tokenize(TOKEN_SAMPLE) == [
            ("data_x", 1, False),
            ("_name", 2, False),
            ("it''s", 2, True),
            ('say "hi"', 2, True),
            ("a#b", 2, False),
            ("first\n second", 3, True),
            ("loop_", 6, False),
            ("_tag", 7, False),
            ("", 7, True),
            ("", 7, True),
        ]

    def test_tokens_may_follow_a_closing_semicolon(self):
        # CIF 1.1 ends a text field at the ';' opening its closing line
        assert _tokenize(";a\nb\n; c d\ne") == [
            ("a\nb", 1, True),
            ("c", 3, False),
            ("d", 3, False),
            ("e", 4, False),
        ]
        with pytest.raises(ParseError) as err:
            _tokenize(";a\n;'b\n")
        assert err.value.line == 2

    def test_crlf_gives_the_same_tokens_as_lf(self):
        for text in (TOKEN_SAMPLE, CUBE_CIF):
            assert _tokenize(text.replace("\n", "\r\n")) == _tokenize(text)

    @given(
        st.lists(
            st.sampled_from(
                ["a", "b", "_x", "data_", "loop_", " ", "\t", "'", '"', "#", ";",
                 "\n", "\r\n", "\x0c"]
            ),
            max_size=40,
        ).map("".join)
    )
    @settings(max_examples=1000, deadline=None)
    def test_matches_the_reference_scanner(self, text):
        assert tokens_or_error_line(_tokenize, text) == tokens_or_error_line(
            reference_tokenize, text
        )


class TestParseCif:
    def test_cube(self):
        doc = parse_cif(CUBE_CIF)
        assert doc.name == "cube"
        assert doc.cell_lengths == (1.0, 1.0, 1.0)
        assert doc.cell_angles == (90.0, 90.0, 90.0)
        assert doc.sites == (("C1", (0.0, 0.0, 0.0)),)
        assert doc.symmetry_ops is None

    def test_uncertainty_stripped(self):
        doc = parse_cif(cif_text(a="2.028(3)"))
        assert doc.cell_lengths[0] == 2.028

    def test_missing_cell_tag(self):
        text = CUBE_CIF.replace("_cell_length_c 1.0\n", "")
        with pytest.raises(MissingCell):
            parse_cif(text)

    def test_missing_sites(self):
        text = CUBE_CIF.split("loop_")[0]
        with pytest.raises(MissingSites):
            parse_cif(text)

    def test_malformed_number_has_line(self):
        text = CUBE_CIF.replace("_cell_length_b 1.0", "_cell_length_b oops")
        with pytest.raises(ParseError) as err:
            parse_cif(text)
        assert err.value.line == 3
        assert "line 3" in str(err.value)

    def test_bytes_accepted(self):
        assert parse_cif(CUBE_CIF.encode()).name == "cube"

    def test_first_block_wins(self):
        text = CUBE_CIF + cif_text(a=7.0).replace("data_test", "data_second")
        assert parse_cif(text).cell_lengths == (1.0, 1.0, 1.0)

    def test_symmetry_loop_extracted(self):
        doc = parse_cif(cif_text(ops=("x, y, z", "x+1/2, y+1/2, z+1/2")))
        assert doc.symmetry_ops == ("x, y, z", "x+1/2, y+1/2, z+1/2")

    def test_symmetry_operation_after_a_closing_semicolon(self):
        text = cif_text(sites=((0.1, 0.2, 0.3),)).replace(
            "loop_\n_atom_site_label",
            "loop_\n_symmetry_equiv_pos_as_xyz\n;\nx,y,z\n; -x,-y,-z\n"
            "loop_\n_atom_site_label",
        )
        doc = parse_cif(text)
        assert doc.symmetry_ops == ("\nx,y,z", "-x,-y,-z")
        # both operations expand: the text field's line break is whitespace
        points = to_periodic_set(doc).motif.points
        assert points == pytest.approx(np.array([[0.1, 0.2, 0.3], [0.9, 0.8, 0.7]]))

    @pytest.mark.parametrize(
        "old, new, line",
        [
            ("C1 0 0 0", "C1 0 1e999 0", 13),
            ("C1 0 0 0", "C1 0 0 -1e999", 13),
            ("_cell_length_c 1.0", "_cell_length_c 1e999", 4),
        ],
    )
    def test_number_beyond_the_float_range_has_line(self, old, new, line):
        # an infinite site would reach the merge and Motif with no line
        message = f"line {line}: number .* is beyond the floating-point range"
        with pytest.raises(ParseError, match=message):
            parse_cif(CUBE_CIF.replace(old, new))

    def test_ignores_unknown_tags_and_text_fields(self):
        text = CUBE_CIF + "\n_chemical_name_common 'table salt'\n_notes\n;\nfree text\nwith lines\n;\n"
        assert parse_cif(text).cell_lengths == (1.0, 1.0, 1.0)

    def test_bad_angle_rejected(self):
        with pytest.raises(ParseError):
            parse_cif(cif_text(gamma=181.0))
        with pytest.raises(ParseError):
            parse_cif(cif_text(alpha=0.0))

    def test_ragged_loop_rejected(self):
        text = CUBE_CIF + "extra_value\n"
        with pytest.raises(ParseError):
            parse_cif(text)

    def test_realistic_file_shape(self):
        # extra columns, uncertainties, comments, quoting and a text field,
        # as produced by real refinement software
        text = """\
data_EXAMPL01
_audit_creation_method 'refinement suite'  # trailing comment
_chemical_name_systematic
;
 2-methyl example compound
 second line
;
_cell_length_a 11.2297(8)
_cell_length_b 5.4581(4)
_cell_length_c 10.8553(8)
_cell_angle_alpha 90
_cell_angle_beta 98.742(3)
_cell_angle_gamma 90
_cell_volume 658.22(8)
loop_
_space_group_symop_id
_space_group_symop_operation_xyz
1 'x, y, z'
2 '-x, y+1/2, -z+1/2'
loop_
_atom_site_label
_atom_site_type_symbol
_atom_site_fract_x
_atom_site_fract_y
_atom_site_fract_z
_atom_site_occupancy
O1 O 0.4611(2) 0.2502(3) 0.42614(19) 1
C2 C 0.0761(2) 0.2498(6) 0.1270(2) 1
"""
        doc = parse_cif(text)
        assert doc.name == "EXAMPL01"
        assert doc.cell_lengths == (11.2297, 5.4581, 10.8553)
        assert doc.cell_angles[1] == 98.742
        assert doc.symmetry_ops == ("x, y, z", "-x, y+1/2, -z+1/2")
        assert doc.sites[0] == ("O1", (0.4611, 0.2502, 0.42614))
        pset = to_periodic_set(doc)
        assert pset.motif_size == 4  # two sites, two ops, no coincidences


class TestSymmetryOps:
    def test_identity(self):
        mat, trans = parse_symmetry_op("x, y, z")
        assert np.array_equal(mat, np.eye(3))
        assert np.array_equal(trans, np.zeros(3))

    def test_translation_and_inversion(self):
        mat, trans = parse_symmetry_op("1/2-x, y+1/2, -z")
        assert np.array_equal(mat, np.diag([-1.0, 1.0, -1.0]))
        assert trans == pytest.approx([0.5, 0.5, 0.0])

    def test_decimal_constants(self):
        _, trans = parse_symmetry_op("x+0.25, y, z-0.5")
        assert trans == pytest.approx([0.25, 0.0, -0.5])

    def test_mixed_axes(self):
        mat, _ = parse_symmetry_op("y-x, x, z")
        assert np.array_equal(mat[0], [-1.0, 1.0, 0.0])

    def test_rejects_garbage(self):
        with pytest.raises(SymOpError):
            parse_symmetry_op("x, y")
        with pytest.raises(SymOpError):
            parse_symmetry_op("x, y, 2w")
        with pytest.raises(SymOpError):
            parse_symmetry_op("x, y, z z")
        with pytest.raises(SymOpError, match=r"zero denominator .*'x\+1/0, y, z'"):
            parse_symmetry_op("x+1/0, y, z")

    @pytest.mark.parametrize(
        "op, det",
        [("x, x, z", 0), ("x, y, 0", 0), ("x+x, y, z", 2), ("x-y, x+y, z", 2)],
    )
    def test_rejects_singular_or_non_unimodular(self, op, det):
        # "x, x, z" maps the cell onto a plane: its images lie in no orbit
        with pytest.raises(SymOpError, match=f"determinant {det}, not"):
            parse_symmetry_op(op)

    def test_accepts_determinant_plus_or_minus_one(self):
        for op in ("-x, -y, -z", "y, x, z", "-y, x-y, z+1/3", "x-y, -y, -z"):
            mat, _ = parse_symmetry_op(op)
            assert round(abs(np.linalg.det(mat))) == 1

    def test_parse_is_cached_and_immutable(self):
        op = "1/2-x, y+1/2, -z"
        mat, trans = parsed = parse_symmetry_op(op)
        assert parse_symmetry_op(op) is parsed
        assert isinstance(trans, tuple) and all(isinstance(row, tuple) for row in mat)
        assert mat == ((-1, 0, 0), (0, 1, 0), (0, 0, -1))
        assert trans == pytest.approx([0.5, 0.5, 0.0])
        with pytest.raises(TypeError):
            mat[0][0] = 7
        # the expansion reads the same cached parse
        doc = parse_cif(cif_text(sites=((0.1, 0.2, 0.3),), ops=("x, y, z", op)))
        assert to_periodic_set(doc).motif.points[1] == pytest.approx([0.4, 0.7, 0.7])

    @pytest.mark.parametrize("op", ["x, y", "x, y, 2w", "x+1/0, y, z", "x, x, z"])
    def test_bad_op_raises_on_every_call(self, op):
        for _ in range(3):
            with pytest.raises(SymOpError, match=re.escape(repr(op))):
                parse_symmetry_op(op)

    def test_singular_op_rejected_by_expansion(self):
        doc = parse_cif(cif_text(sites=((0.1, 0.2, 0.3),), ops=("x, y, z", "x, x, z")))
        with pytest.raises(SymOpError, match="'x, x, z'"):
            to_periodic_set(doc)
        # without expansion the operations are never read
        assert to_periodic_set(doc, expand_symmetry=False).motif_size == 1


# One symmetry-operation term: its text, and the (axis, constant) it adds.
_AXIS_TERMS = st.sampled_from(["x", "y", "z", "X", "Y", "Z"]).map(
    lambda a: (a, ("xyz".index(a.lower()), 0))
)
_RATIONAL_TERMS = st.tuples(st.integers(0, 12), st.integers(1, 12)).map(
    lambda pq: (f"{pq[0]}/{pq[1]}", (None, Fraction(pq[0], pq[1])))
)
_DECIMAL_TERMS = st.tuples(
    st.one_of(st.none(), st.integers(0, 9)), st.integers(0, 999)
).map(
    lambda d: (
        f"{'' if d[0] is None else d[0]}.{d[1]:03d}",
        (None, Fraction(f"{d[0] or 0}.{d[1]:03d}")),
    )
)
_COMPONENTS = st.lists(
    st.tuples(
        st.sampled_from(["+", "-"]),
        st.one_of(_AXIS_TERMS, _RATIONAL_TERMS, _DECIMAL_TERMS),
        st.sampled_from(["", " "]),
    ),
    min_size=1,
    max_size=4,
)


class TestSymmetryOpGrammar:
    @given(st.tuples(_COMPONENTS, _COMPONENTS, _COMPONENTS), st.booleans())
    @settings(max_examples=500, deadline=None)
    def test_matches_the_terms_summed_directly(self, components, first_unsigned):
        texts, mat, trans = [], [[0, 0, 0] for _ in range(3)], [Fraction(0)] * 3
        for r, terms in enumerate(components):
            text = ""
            for k, (sign, (term, (axis, value)), blank) in enumerate(terms):
                if k == 0 and first_unsigned and sign == "+":
                    sign = ""
                text += f"{sign}{blank}{term}{blank}"
                s = -1 if sign == "-" else 1
                if axis is None:
                    trans[r] += s * value
                else:
                    mat[r][axis] += s
            texts.append(text)
        op = ",".join(texts)
        det = round(np.linalg.det(np.array(mat, dtype=float)))
        if det not in (1, -1):
            with pytest.raises(SymOpError, match=f"determinant {det}, not"):
                parse_symmetry_op(op)
            return
        got_mat, got_trans = parse_symmetry_op(op)
        assert got_mat == tuple(map(tuple, mat))
        assert got_trans == pytest.approx([float(t) for t in trans], abs=1e-12)

    @pytest.mark.parametrize(
        "op",
        ["x, , z", "x, y, z+", "x, y, +", "x, y, zx", "x, y, 1/2z", "x, y, z 1",
         "x, y, 1.", "x, y, .", "x, y, 1/", "x, y, --z", "x, y, z\t1"],
    )
    def test_rejects_a_component_outside_the_grammar(self, op):
        with pytest.raises(SymOpError, match=r"cannot parse component"):
            parse_symmetry_op(op)

    @pytest.mark.parametrize("op", ["x,\ty,z", "x, y ,z\n", "\nx,y,z"])
    def test_drops_any_whitespace(self, op):
        # tabs, trailing line breaks and the line break a ';' text field
        # keeps after its opening ';' are whitespace like spaces
        identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert parse_symmetry_op(op) == (identity, (0.0, 0.0, 0.0))


def assert_greedy_merge(doc, tol):
    """to_periodic_set against the reference merge: each image tested
    against the kept points one by one, in site-major, operation-minor
    order.  Returns the set."""
    parsed = [parse_symmetry_op(op) for op in doc.symmetry_ops]
    kept = []
    for _, frac in doc.sites:
        for mat, trans in parsed:
            img = wrap_fractional(mat @ np.asarray(frac) + trans)
            if not any(np.linalg.norm(wrapped_delta(img, p)) < tol for p in kept):
                kept.append(img)
    pset = to_periodic_set(doc, dedup_tol=tol)
    assert np.array_equal(pset.motif.points, np.array(kept))
    return pset


def fm3m_ops():
    """The 192 operations of Fm-3m: the 48 signed axis permutations of
    m-3m, each with the four face-centring translations."""
    ops = []
    centring = ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))
    for perm in itertools.permutations("xyz"):
        for signs in itertools.product("+-", repeat=3):
            for c in centring:
                ops.append(", ".join(
                    f"{sign}{axis}" + ("+1/2" if half else "")
                    for sign, axis, half in zip(signs, perm, c)
                ))
    return ops


class TestToPeriodicSet:
    def test_cube_no_symmetry(self):
        pset = to_periodic_set(parse_cif(CUBE_CIF))
        assert pset.motif_size == 1
        assert np.allclose(pset.basis.vectors, np.eye(3))

    def test_bcc_expansion(self):
        doc = parse_cif(cif_text(ops=("x, y, z", "x+1/2, y+1/2, z+1/2")))
        pset = to_periodic_set(doc)
        assert pset.motif_size == 2
        # oracle: apply both ops to the one site by hand and wrap-dedup
        expected = {(0.0, 0.0, 0.0), (0.5, 0.5, 0.5)}
        got = {tuple(np.round(p, 12)) for p in pset.motif.points}
        assert got == expected

    def test_expansion_respects_flag(self):
        doc = parse_cif(cif_text(ops=("x, y, z", "x+1/2, y+1/2, z+1/2")))
        assert to_periodic_set(doc, expand_symmetry=False).motif_size == 1

    def test_expansion_dedups_fixed_points(self):
        # inversion fixes the origin: expansion must not duplicate it
        doc = parse_cif(cif_text(ops=("x, y, z", "-x, -y, -z")))
        assert to_periodic_set(doc).motif_size == 1

    def test_merge_is_greedy_against_kept_points(self):
        # b lies within tol of a and is merged; c lies within tol of b but
        # not of a, and b was never kept, so c survives
        tol = 0.01
        sites = ((0.1, 0.2, 0.3), (0.106, 0.2, 0.3), (0.112, 0.2, 0.3))
        doc = parse_cif(cif_text(sites=sites, ops=("x, y, z",)))
        pset = to_periodic_set(doc, dedup_tol=tol)
        assert np.array_equal(pset.motif.points, np.array(sites)[[0, 2]])

    def test_merge_matches_pairwise_reference(self):
        ops = ("x, y, z", "-x, -y, -z", "x+1/2, y+1/2, z+1/2", "-x+1/2, -y+1/2, -z+1/2")
        rng = np.random.default_rng(73)
        tol = 0.05
        for sites_per_doc in (6, 2 * 64 // len(ops) + 3):
            for _ in range(100 if sites_per_doc == 6 else 20):
                grid = rng.integers(0, 8, (sites_per_doc, 3)) / 8
                grid = grid + rng.normal(0, 0.02, grid.shape)
                doc = parse_cif(cif_text(sites=[tuple(p) for p in grid], ops=ops))
                assert_greedy_merge(doc, tol)

    def test_merge_chain_straddling_a_block_boundary(self):
        # isolated sites up to the boundary, then a chain of sites 0.6 tol
        # apart across it: the greedy merge keeps every other link
        tol = 0.01
        step = 0.6 * tol
        lead = 64 - 3
        isolated = [((i % 8 + 0.5) / 8, (i // 8 % 8 + 0.5) / 8, 0.5) for i in range(lead)]
        chain = [(0.01 + k * step, 0.01, 0.01) for k in range(9)]
        doc = parse_cif(cif_text(sites=isolated + chain, ops=("x, y, z",)))
        pset = assert_greedy_merge(doc, tol)
        assert pset.motif_size == lead + 5

    def test_merge_fm3m_special_positions(self):
        # 192 operations, three blocks of images per site; the sites sit on
        # Wyckoff positions 32f, 24e, 8c and 4a, so images repeat
        ops = fm3m_ops()
        assert len(ops) == 192
        sites = ((0.1, 0.1, 0.1), (0.2, 0.0, 0.0), (0.25, 0.25, 0.25), (0.0, 0.0, 0.0))
        for site, orbit in zip(sites, (32, 24, 8, 4)):
            doc = parse_cif(cif_text(sites=(site,), ops=ops))
            assert assert_greedy_merge(doc, 1e-3).motif_size == orbit
        doc = parse_cif(cif_text(sites=sites, ops=ops))
        assert assert_greedy_merge(doc, 1e-3).motif_size == 32 + 24 + 8 + 4

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["x00", "xxx", "x-x0"]),
                st.floats(0.0, 1.0, exclude_max=True),
                st.integers(1, 3),
                st.sampled_from([0.0, 0.3, 0.6, 0.9]),
            ),
            min_size=1,
            max_size=2,
        ),
        st.sampled_from([1e-3, 1e-2, 5e-2]),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_merge_matches_reference_on_special_positions(self, groups, tol, centred):
        # sites on the lines (x, 0, 0), (x, x, x) and (x, -x, 0) of m-3m or
        # Fm-3m, whose images repeat; each group is 1 to 3 sites along its
        # line, `gap` tol apart: duplicates at 0, near-duplicates at 0.3,
        # chains at 0.6 and 0.9
        ops = fm3m_ops() if centred else fm3m_ops()[::4]
        lines = {
            "x00": (1.0, 0.0, 0.0),
            "xxx": (1.0, 1.0, 1.0),
            "x-x0": (1.0, -1.0, 0.0),
        }
        sites = []
        for line, x, count, gap in groups:
            direction = np.array(lines[line])
            step = gap * tol / np.linalg.norm(direction)
            sites += [tuple((x + k * step) * direction) for k in range(count)]
        assert_greedy_merge(parse_cif(cif_text(sites=sites, ops=ops)), tol)

    def test_merge_tests_few_rows_on_sites_sharing_coordinates(self, monkeypatch):
        # 40 sites (x, 0, 0) under Fm-3m give 7 680 images, mostly sharing
        # two coordinates: the search must not test near all pairs there
        rows = []

        def counting_row_norms(a):
            rows.append(len(np.atleast_2d(a)))
            return row_norms(a)

        rng = np.random.default_rng(74)
        sites = [(float(x), 0.0, 0.0) for x in rng.random(40)]
        doc = parse_cif(cif_text(sites=sites, ops=fm3m_ops()))
        monkeypatch.setattr(geometry, "row_norms", counting_row_norms)
        to_periodic_set(doc)
        assert 0 < sum(rows) <= 1_000_000

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-3, float("inf")])
    def test_rejects_bad_tolerance(self, tol, tmp_path):
        doc = parse_cif(cif_text(ops=("x, y, z",)))
        with pytest.raises(ValueError, match="tolerance must be a finite number > 0"):
            to_periodic_set(doc, dedup_tol=tol)
        path = tmp_path / "one.cif"
        path.write_text(cif_text(ops=("x, y, z",)))
        with pytest.raises(ValueError, match="tolerance must be a finite number > 0"):
            read_set_file(path, dedup_tol=tol)

    def test_expansion_idempotent(self):
        # ops must form a group mod 1 (as real CIF op lists do): inversion
        # plus body centring, order 4
        rng = np.random.default_rng(71)
        ops = (
            "x, y, z",
            "-x, -y, -z",
            "x+1/2, y+1/2, z+1/2",
            "-x+1/2, -y+1/2, -z+1/2",
        )
        for _ in range(20):
            sites = tuple(tuple(np.round(rng.random(3), 3)) for _ in range(2))
            doc = parse_cif(cif_text(sites=sites, ops=ops))
            once = to_periodic_set(doc)
            again_doc = parse_cif(
                cif_text(sites=tuple(tuple(p) for p in once.motif.points), ops=ops)
            )
            twice = to_periodic_set(again_doc)
            assert twice.motif_size == once.motif_size
            # same multiset of points within the dedup tolerance
            for p in twice.motif.points:
                assert any(
                    np.linalg.norm(wrapped_delta(p, q)) < 1e-3
                    for q in once.motif.points
                )

    def test_hexagonal_basis_convention(self):
        doc = parse_cif(cif_text(gamma=120.0))
        pset = to_periodic_set(doc)
        v = pset.basis.vectors
        assert v[1] == pytest.approx([-0.5, math.sqrt(3) / 2, 0.0])
        # metric tensor oracle: G[0,1] = a*b*cos(gamma)
        gram = v @ v.T
        assert gram[0, 1] == pytest.approx(math.cos(math.radians(120.0)))

    def test_degenerate_angles_rejected(self):
        doc = parse_cif(cif_text(alpha=10.0, beta=10.0, gamma=179.0))
        with pytest.raises(DegenerateCell):
            to_periodic_set(doc)

    def test_output_satisfies_set_invariants(self):
        rng = np.random.default_rng(72)
        for _ in range(20):
            sites = tuple(tuple(np.round(rng.uniform(-0.2, 1.2, 3), 3)) for _ in range(3))
            try:
                pset = to_periodic_set(parse_cif(cif_text(sites=sites)))
            except ValueError:
                continue  # rare coincident sites are a legitimate rejection
            assert np.all(pset.motif.points >= 0.0)
            assert np.all(pset.motif.points < 1.0)
            assert pset.motif_size >= 1


class TestJsonRoundTrip:
    def test_z2_round_trip(self, z2):
        text = write_json_set(z2)
        assert parse_json_set(text) == z2
        assert write_json_set(parse_json_set(text)) == text

    def test_numbers_are_written_as_shortest_repr(self):
        pset = make_set([[0.1]], [[1 / 3]])
        assert write_json_set(pset) == (
            '{"dim": 1, "basis": [[0.1]], "motif_fractional": [[0.3333333333333333]]}'
        )

    def test_round_trip_bit_identical_random(self):
        rng = np.random.default_rng(73)
        for _ in range(50):
            pset = random_set(rng)
            text = write_json_set(pset)
            back = parse_json_set(text)
            assert np.array_equal(back.basis.vectors, pset.basis.vectors)
            assert np.array_equal(back.motif.points, pset.motif.points)
            assert write_json_set(back) == text

    @given(st.floats(0.1, 1e3), st.floats(-0.5, 1.5))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_hypothesis(self, scale, frac):
        pset = make_set([[scale]], [[frac]])
        assert parse_json_set(write_json_set(pset)) == pset

    def test_fig3_fixture_parses(self, fixtures_dir):
        pset = parse_json_set((fixtures_dir / "fig3.json").read_text())
        assert pset.motif_size == 2
        assert pset.dim == 2

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ParseError):
            parse_json_set('{"dim": 2, "basis": [[1,0],[0,1]], "motif_fractional": [[0,0,0]]}')

    def test_bad_schema_rejected(self):
        with pytest.raises(ParseError):
            parse_json_set("[1,2,3]")
        with pytest.raises(ParseError):
            parse_json_set('{"dim": 2}')
        with pytest.raises(ParseError):
            parse_json_set("not json")
        with pytest.raises(ParseError):
            parse_json_set('{"dim": 0, "basis": [], "motif_fractional": []}')

    def test_boolean_entries_rejected(self):
        with pytest.raises(ParseError, match="basis"):
            parse_json_set('{"dim": 1, "basis": [[true]], "motif_fractional": [[false]]}')
        with pytest.raises(ParseError, match="motif_fractional"):
            parse_json_set('{"dim": 1, "basis": [[1]], "motif_fractional": [[false]]}')

    def test_boolean_dim_rejected(self):
        with pytest.raises(ParseError, match="dim"):
            parse_json_set('{"dim": true, "basis": [[1]], "motif_fractional": [[0]]}')

    def test_nan_rejected(self):
        with pytest.raises(ParseError, match="basis"):
            parse_json_set('{"dim": 1, "basis": [[NaN]], "motif_fractional": [[0]]}')
        with pytest.raises(ParseError, match="motif_fractional"):
            parse_json_set('{"dim": 1, "basis": [[1]], "motif_fractional": [[NaN]]}')

    def test_infinity_rejected(self):
        with pytest.raises(ParseError, match="basis"):
            parse_json_set('{"dim": 1, "basis": [[-Infinity]], "motif_fractional": [[0]]}')
        with pytest.raises(ParseError, match="motif_fractional"):
            parse_json_set('{"dim": 1, "basis": [[1]], "motif_fractional": [[Infinity]]}')

    def test_integer_beyond_float_range_rejected(self):
        for digits in (400, 5000):
            big = "1" + "0" * digits
            with pytest.raises(ParseError):
                parse_json_set(f'{{"dim": 1, "basis": [[{big}]], "motif_fractional": [[0]]}}')

    def test_singular_basis_rejected(self):
        with pytest.raises(DegenerateCell):
            parse_json_set(
                '{"dim": 2, "basis": [[1,0],[1,0]], "motif_fractional": [[0,0]]}'
            )


BOM = "\ufeff"


def _bom_inputs(text: str, tmp_path, suffix: str):
    """The same BOM-prefixed document as a str, as bytes and as a file."""
    path = tmp_path / f"doc{suffix}"
    path.write_bytes((BOM + text).encode("utf-8"))
    return BOM + text, (BOM + text).encode("utf-8"), path


class TestByteOrderMark:
    """One leading byte-order mark, as some editors write, is ignored."""

    def test_one_block_cif_keeps_its_name(self, tmp_path):
        as_str, as_bytes, path = _bom_inputs(CUBE_CIF, tmp_path, ".cif")
        for text in (as_str, as_bytes):
            doc = parse_cif(text)
            assert doc.name == "cube"
            assert doc.cell_lengths == (1.0, 1.0, 1.0)
        pset, ident = read_set_file(path)
        assert ident == "cube"
        assert pset == to_periodic_set(parse_cif(CUBE_CIF))

    def test_two_block_cif_is_parsed_from_its_first_block(self, tmp_path):
        two = cif_text(a=1.0).replace("data_test", "data_first") + cif_text(
            a=2.0
        ).replace("data_test", "data_second")
        as_str, as_bytes, path = _bom_inputs(two, tmp_path, ".cif")
        for text in (as_str, as_bytes):
            doc = parse_cif(text)
            assert doc.name == "first"
            assert doc.cell_lengths[0] == 1.0
        pset, ident = read_set_file(path)
        assert ident == "first"
        assert pset.basis.vectors[0, 0] == 1.0

    def test_json_set_parses(self, tmp_path, z2):
        text = write_json_set(z2)
        as_str, as_bytes, path = _bom_inputs(text, tmp_path, ".json")
        assert parse_json_set(as_str) == z2
        assert parse_json_set(as_bytes) == z2
        assert read_set_file(path) == (z2, "doc")

    def test_only_one_mark_is_dropped(self, tmp_path, z2):
        text = BOM + write_json_set(z2)
        for doubled in _bom_inputs(text, tmp_path, ".json")[:2]:
            with pytest.raises(ParseError, match="invalid JSON"):
                parse_json_set(doubled)
        assert parse_cif(BOM + BOM + CUBE_CIF).name != "cube"
