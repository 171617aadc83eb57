"""Tests for the command-line interface."""

import json
import math
import shutil

import pytest
from click.testing import CliRunner

import bridgelen.cli as cli_mod
from bridgelen.cli import main
from bridgelen.errors import OracleInconclusive


@pytest.fixture()
def runner():
    return CliRunner()


def test_compute_bcc_json(runner, fixtures_dir):
    result = runner.invoke(main, ["compute", str(fixtures_dir / "bcc.json")])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0].startswith("id,atoms,beta,")
    assert "0.866025" in lines[1]
    assert lines[1].startswith("bcc,2,")


def test_compute_verify_passes(runner, fixtures_dir):
    result = runner.invoke(main, ["compute", str(fixtures_dir / "z3.json"), "--verify"])
    assert result.exit_code == 0
    assert "1.000000" in result.output


def test_compute_full_json_report(runner, fixtures_dir):
    result = runner.invoke(
        main, ["compute", str(fixtures_dir / "fig3.json"), "--json"]
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["beta"] == pytest.approx(math.sqrt(0.85), rel=1e-15)
    assert payload["id"] == "fig3"
    assert payload["atom_count"] == 2
    assert payload["last_edge"]["translation"] == [1, 1]
    assert [e["cycle_sum"] for e in payload["basis_cycle_edges"]] == [[0, 1], [-1, 0]]


def test_compute_broken_cif_exits_1(runner, fixtures_dir):
    result = runner.invoke(main, ["compute", str(fixtures_dir / "broken.cif")])
    assert result.exit_code == 1
    assert "line 3" in result.stderr


def test_compute_singular_symmetry_op_exits_1(runner, fixtures_dir, tmp_path):
    text = (fixtures_dir / "bcc.cif").read_text()
    assert "'x+1/2, y+1/2, z+1/2'" in text
    bad = tmp_path / "singular.cif"
    bad.write_text(text.replace("'x+1/2, y+1/2, z+1/2'", "'x, x, z'"))
    result = runner.invoke(main, ["compute", str(bad)])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert "'x, x, z' has determinant 0" in result.stderr


def test_compute_missing_file_exits_1(runner, tmp_path):
    result = runner.invoke(main, ["compute", str(tmp_path / "nope.json")])
    assert result.exit_code == 1


def test_compute_degenerate_cell_exits_2(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2, "basis": [[1,0],[2,0]], "motif_fractional": [[0,0]]}')
    result = runner.invoke(main, ["compute", str(bad)])
    assert result.exit_code == 2


def test_compute_cell_outside_float_range_exits_2(runner, tmp_path):
    huge = tmp_path / "huge.json"
    huge.write_text(
        '{"dim": 3, "basis": [[1e100,0,0],[0,1e100,0],[0,0,1e100]], '
        '"motif_fractional": [[0,0,0]]}'
    )
    result = runner.invoke(main, ["compute", str(huge)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "floating-point range" in result.stderr


def test_compute_cif_uses_block_name(runner, fixtures_dir):
    result = runner.invoke(main, ["compute", str(fixtures_dir / "bcc.cif")])
    assert result.exit_code == 0
    assert result.output.splitlines()[1].startswith("bcc,2,")
    assert "0.866025" in result.output


def test_no_symmetry_flag(runner, fixtures_dir):
    result = runner.invoke(
        main, ["compute", str(fixtures_dir / "bcc.cif"), "--no-symmetry"]
    )
    assert result.exit_code == 0
    assert result.output.splitlines()[1].startswith("bcc,1,")
    assert "1.000000" in result.output


def test_precision_flag(runner, fixtures_dir):
    result = runner.invoke(
        main, ["compute", str(fixtures_dir / "bcc.json"), "--precision", "3"]
    )
    assert "0.866" in result.output
    assert "0.8660" not in result.output


def test_negative_precision_is_a_usage_error(runner, fixtures_dir):
    result = runner.invoke(
        main, ["compute", str(fixtures_dir / "bcc.json"), "--precision", "-1"]
    )
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.stdout == ""
    assert "--precision" in result.stderr


@pytest.mark.parametrize("command", ["compute", "batch"])
@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_tol_not_finite_positive_is_a_usage_error(runner, fixtures_dir, command, tol):
    target = fixtures_dir / "bcc.json" if command == "compute" else fixtures_dir
    result = runner.invoke(main, [command, str(target), "--tol", tol])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.stdout == ""
    assert "--tol" in result.stderr


def test_format_override(runner, fixtures_dir, tmp_path):
    odd = tmp_path / "bcc.data"
    odd.write_text((fixtures_dir / "bcc.json").read_text())
    assert runner.invoke(main, ["compute", str(odd)]).exit_code == 1
    result = runner.invoke(main, ["compute", str(odd), "--format", "json"])
    assert result.exit_code == 0


def test_verify_mismatch_exits_3(runner, fixtures_dir, monkeypatch):
    monkeypatch.setattr(cli_mod, "oracle_bridge_length", lambda pset: 123.0)
    result = runner.invoke(main, ["compute", str(fixtures_dir / "z2.json"), "--verify"])
    assert result.exit_code == 3
    assert "mismatch" in result.stderr


def test_verify_inconclusive_exits_4(runner, fixtures_dir, monkeypatch):
    def boom(pset):
        raise OracleInconclusive("patch too small")

    monkeypatch.setattr(cli_mod, "oracle_bridge_length", boom)
    result = runner.invoke(main, ["compute", str(fixtures_dir / "z2.json"), "--verify"])
    assert result.exit_code == 4


class TestBatch:
    @pytest.fixture()
    def batch_dir(self, fixtures_dir, tmp_path):
        d = tmp_path / "inputs"
        d.mkdir()
        for name in ("z1.json", "z2.json", "z3.json", "bcc.json"):
            shutil.copy(fixtures_dir / name, d / name)
        return d

    def test_batch_rows(self, runner, batch_dir):
        result = runner.invoke(main, ["batch", str(batch_dir)])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        table = [line for line in lines if "," in line]
        assert table[0] == "id,atoms,beta,r_upper,ratio,basis_size,ms,error"
        ids = [line.split(",")[0] for line in table[1:]]
        assert ids == ["bcc", "z1", "z2", "z3"]
        betas = [line.split(",")[2] for line in table[1:]]
        assert betas == ["0.866025", "1.000000", "1.000000", "1.000000"]

    def test_batch_isolates_failures(self, runner, batch_dir, fixtures_dir):
        shutil.copy(fixtures_dir / "broken.cif", batch_dir / "broken.cif")
        result = runner.invoke(main, ["batch", str(batch_dir)])
        assert result.exit_code == 0
        table = [line for line in result.output.strip().splitlines() if "," in line]
        assert len(table) == 6  # header + 4 ok + 1 error row
        error_rows = [line for line in table[1:] if line.split(",")[2] == ""]
        assert len(error_rows) == 1
        assert error_rows[0].startswith("broken,")

    @staticmethod
    def _mask_timing(data: bytes) -> bytes:
        # the ms column is wall-clock measurement; everything else must be
        # byte-identical across schedules
        lines = data.decode().split("\r\n")
        masked = []
        for line in lines:
            parts = line.split(",")
            if len(parts) == len("id,atoms,beta,r_upper,ratio,basis_size,ms,error".split(",")):
                parts[6] = "<ms>"
            masked.append(",".join(parts))
        return "\r\n".join(masked).encode()

    def test_batch_jobs_deterministic(self, runner, batch_dir):
        seq = runner.invoke(main, ["batch", str(batch_dir), "--jobs", "1"])
        par = runner.invoke(main, ["batch", str(batch_dir), "--jobs", "4"])
        assert seq.exit_code == par.exit_code == 0
        assert self._mask_timing(seq.stdout_bytes) == self._mask_timing(par.stdout_bytes)

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_batch_jobs_below_one_is_a_usage_error(self, runner, batch_dir, jobs):
        result = runner.invoke(main, ["batch", str(batch_dir), "--jobs", jobs])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert result.stdout == ""
        assert "--jobs" in result.stderr

    def test_batch_json(self, runner, batch_dir):
        result = runner.invoke(main, ["batch", str(batch_dir), "--json"])
        payload = json.loads(result.output)
        assert len(payload["rows"]) == 4
        assert payload["mean_beta"] == pytest.approx((3 + math.sqrt(3) / 2) / 4)

    def test_batch_empty_dir_exits_1(self, runner, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        result = runner.invoke(main, ["batch", str(empty)])
        assert result.exit_code == 1

    def test_batch_csv_crlf(self, runner, batch_dir):
        result = runner.invoke(main, ["batch", str(batch_dir)])
        assert b"\r\n" in result.stdout_bytes
