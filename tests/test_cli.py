"""Tests for the command-line interface."""

import argparse
import json
import shutil
import subprocess

import pytest

from capelli.cli import build_parser, main
from capelli.isjp import eigenvalue
from capelli.tau import MAP_FAMILIES
from fractions import Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIsjp:
    def test_polynomial_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "isjp", "--m", "1", "--n", "1", "--theta", "1/2", "--lambda", "1"
        )
        assert code == 0
        data = json.loads(out)
        assert data["m"] == 1 and data["n"] == 1
        assert data["lambda"] == "1"
        terms = {tuple(t["exp"]): t["coef"] for t in data["terms"]}
        assert terms == {(1, 0): "1", (0, 1): "1"}

    def test_invalid_partition_is_an_error(self, capsys):
        code, _, err = run_cli(
            capsys, "isjp", "--m", "1", "--n", "1", "--theta", "1", "--lambda", "1,2"
        )
        assert code == 2
        assert "error" in err


class TestHw:
    def test_borel_mode(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "hw",
            "--m", "2", "--n", "1",
            "--borel", "1,1",
            "--lambda", "2,1",
        )
        assert code == 0
        data = json.loads(out)
        assert data["hw_standard"] == {"eps": ["-4", "-2"], "delta": ["0", "0"]}
        assert data["hw_borel"] == {"eps": ["-3", "-1"], "delta": ["-2", "0"]}
        assert data["generic"] is True

    def test_sequence_mode(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "hw",
            "--m", "1", "--n", "1",
            "--seq", "d1,e1",
            "--lambda", "1",
        )
        assert code == 0
        data = json.loads(out)
        assert data["seq"] == ["d1", "e1"]
        assert "hw" in data and "rho" in data

    def test_table_mode_is_csv(self, capsys):
        code, out, _ = run_cli(capsys, "hw", "--table", "--max", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lambda,hw_standard,hw_borel,matches"
        assert all(line.endswith("true") for line in lines[1:])

    def test_requires_a_mode(self, capsys):
        code, _, err = run_cli(capsys, "hw", "--lambda", "1")
        assert code == 2
        assert "borel" in err


class TestTau:
    def test_full_family_map(self, capsys):
        code, out, _ = run_cli(
            capsys, "tau", "--m", "2", "--n", "1", "--borel", "1,1", "--family", "full"
        )
        assert code == 0
        data = json.loads(out)
        assert data["matrix"] == [
            ["-1/2", "0", "0", "0"],
            ["0", "-1/2", "1/2", "-1/2"],
            ["0", "0", "-1", "0"],
        ]
        assert data["offset"] == ["1/4", "3/4", "-1"]

    def test_std_ignores_borel(self, capsys):
        code, out, _ = run_cli(capsys, "tau", "--m", "2", "--n", "1", "--family", "std")
        assert code == 0
        data = json.loads(out)
        assert data["offset"] == ["-1/4", "-3/4", "1"]
        assert "ell" not in data

    def test_releven_rejected_on_uneven_pair(self, capsys):
        code, _, err = run_cli(
            capsys,
            "tau",
            "--m", "2", "--n", "1",
            "--borel", "1,1",
            "--family", "releven",
        )
        assert code == 2
        assert "error" in err

    def test_borel_required_for_family_maps(self, capsys):
        code, _, err = run_cli(capsys, "tau", "--m", "2", "--n", "1")
        assert code == 2
        assert "borel" in err


class TestEig:
    def test_plain_eigenvalue(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eig",
            "--m", "2", "--n", "1",
            "--theta", "1/2",
            "--mu", "1",
            "--lambda", "2,1",
        )
        assert code == 0
        data = json.loads(out)
        assert data["eigenvalue"] == "3"

    def test_through_borel_map_matches_plain(self, capsys):
        args = ["--m", "2", "--n", "1", "--theta", "1/2", "--mu", "2", "--lambda", "3,1"]
        code, plain_out, _ = run_cli(capsys, "eig", *args)
        assert code == 0
        code, mapped_out, _ = run_cli(
            capsys, "eig", *args, "--borel", "1,2", "--map", "full"
        )
        assert code == 0
        plain = json.loads(plain_out)
        mapped = json.loads(mapped_out)
        assert plain["eigenvalue"] == mapped["eigenvalue"]
        assert mapped["ell"] == [1, 2]
        expected = eigenvalue((2,), (3, 1), 2, 1, Fraction(1, 2))
        assert plain["eigenvalue"] == str(expected)

    def test_borel_requires_half_theta(self, capsys):
        code, _, err = run_cli(
            capsys,
            "eig",
            "--m", "2", "--n", "1",
            "--theta", "1",
            "--mu", "1",
            "--lambda", "1",
            "--borel", "1,1",
        )
        assert code == 2
        assert "theta" in err


class TestOrbit:
    def test_finite_orbit_lists_all_points(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "orbit",
            "--m", "2", "--n", "1",
            "--theta", "1/2",
            "--point", "3/4,-3/4,1",
        )
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "finite"
        assert data["points"] == [
            ["-3/4", "3/4", "1"],
            ["1/4", "3/4", "0"],
            ["3/4", "-3/4", "1"],
            ["3/4", "1/4", "0"],
        ]

    def test_infinite_orbit_reports_witness(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "orbit",
            "--m", "2", "--n", "1",
            "--theta", "1/2",
            "--point=-1/4,-3/4,1",
        )
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "infinite"
        assert data["witness"] is not None


class TestVerify:
    def test_clean_sweep_exits_zero_and_writes_report(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--pair", "glm2n",
            "--m", "2", "--n", "1",
            "--lambda-max", "2",
            "--mu-max", "2",
            "--borels", "all",
            "--map", "full",
            "--out", str(out_file),
        )
        assert code == 0
        assert "OK" in out
        report = json.loads(out_file.read_text())
        assert report["failures"] == []
        assert report["config"]["map_choice"] == "full"

    def test_failing_sweep_exits_one(self, capsys, tmp_path):
        out_file = tmp_path / "bad.json"
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--pair", "glm2n",
            "--m", "2", "--n", "1",
            "--lambda-max", "2",
            "--mu-max", "2",
            "--borels", "1,1",
            "--map", "cb-forced",
            "--out", str(out_file),
        )
        assert code == 1
        assert "FAILURES" in out
        report = json.loads(out_file.read_text())
        assert report["failures"]

    def test_diag_pair_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--pair", "diag",
            "--m", "1", "--n", "1",
            "--lambda-max", "2",
            "--mu-max", "1",
        )
        assert code == 0
        assert "OK" in out


class TestExample:
    def test_uniqueness_example(self, capsys):
        code, out, _ = run_cli(capsys, "example", "--name", "gl22_uniqueness")
        assert code == 0
        data = json.loads(out)
        assert data["final"]["equals_canonical"] is True

    def test_table_example_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "table.json"
        code, _, _ = run_cli(
            capsys,
            "example",
            "--name", "gl22_table",
            "--max", "2",
            "--out", str(out_file),
        )
        assert code == 0
        data = json.loads(out_file.read_text())
        assert data["all_match"] is True


def _choices(subcommand, flag):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = sub.choices[subcommand]._actions
    return next(a for a in actions if flag in a.option_strings).choices


def test_map_choices_come_from_the_registry():
    assert _choices("tau", "--family") == [*MAP_FAMILIES, "std"]
    assert _choices("eig", "--map") == list(MAP_FAMILIES)
    assert _choices("verify", "--map") == list(MAP_FAMILIES)


class TestBadInput:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["isjp", "--theta", "1", "--lambda", "a,b"], ["--lambda", "'a'"]),
            (["hw", "--borel", "x", "--lambda", "1"], ["--borel", "'x'"]),
            (["tau", "--borel", "1,x"], ["--borel", "'x'"]),
            (["isjp", "--theta", "x", "--lambda", "1"], ["--theta", "'x'"]),
            (
                ["verify", "--pair", "glm2n", "--lambda-max", "1", "--mu-max", "1",
                 "--borels", "x"],
                ["borels", "'x'"],
            ),
            (
                ["orbit", "--theta", "1/2", "--point", "0,0,0", "--budget", "-1"],
                ["budget", "-1"],
            ),
            (
                ["isjp", "--m", "-1", "--theta", "1", "--lambda", "1"],
                ["m and n must be nonnegative"],
            ),
        ],
    )
    def test_one_line_error_naming_the_input(self, capsys, argv, expected):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        for text in expected:
            assert text in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["isjp", "--theta", "1", "--lambda", "1"],
            ["verify", "--pair", "glm2n", "--m", "1", "--n", "1",
             "--lambda-max", "1", "--mu-max", "1"],
        ],
    )
    def test_unwritable_out_is_a_one_line_error(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "x.json"
        code, _, err = run_cli(capsys, *argv, "--out", str(target))
        assert code == 2
        assert err.startswith("error: --out: ") and err.count("\n") == 1
        assert not target.exists()


@pytest.mark.skipif(shutil.which("capelli") is None, reason="entry point not on PATH")
class TestInstalledEntryPoint:
    def test_help_runs(self):
        proc = subprocess.run(
            ["capelli", "--help"], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0
        assert "verify" in proc.stdout

    def test_end_to_end_verify(self, tmp_path):
        out_file = tmp_path / "report.json"
        proc = subprocess.run(
            [
                "capelli", "verify",
                "--pair", "glm2n",
                "--m", "1", "--n", "1",
                "--lambda-max", "2",
                "--mu-max", "2",
                "--out", str(out_file),
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert json.loads(out_file.read_text())["failures"] == []
