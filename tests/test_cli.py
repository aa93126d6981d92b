"""Tests for the command-line interface."""

import argparse
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import capelli
from capelli import cli, isjp
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
        assert data["truncated_root_sum"] == {"eps": ["-1", "-1"], "delta": ["2", "0"]}
        assert data["generic"] is True

    def test_borel_mode_truncates_the_root_sum(self, capsys):
        # (3): the second row is empty, so only d_1 - e_1 is absorbed
        code, out, _ = run_cli(
            capsys, "hw", "--m", "2", "--n", "1", "--borel", "1,1", "--lambda", "3"
        )
        assert code == 0
        assert json.loads(out) == {
            "lambda": "3",
            "ell": [1, 1],
            "hw_standard": {"eps": ["-6", "0"], "delta": ["0", "0"]},
            "truncated_root_sum": {"eps": ["-1", "0"], "delta": ["1", "0"]},
            "hw_borel": {"eps": ["-5", "0"], "delta": ["-1", "0"]},
            "generic": False,
        }

    def test_sequence_mode(self, capsys):
        # (eps, delta) of hw and rho for each ordering, module and dual
        cases = [
            (1, 1, "d1,e1", "2,1", False, (["1"], ["2"]), (["1/2"], ["-1/2"])),
            (1, 1, "d1,e1", "2,1", True, (["-2"], ["-1"]), (["1/2"], ["-1/2"])),
            (
                2, 2, "e2,d1,e1,d2", "3,2,1", False,
                (["1", "3"], ["2", "0"]),
                (["-1/2", "-1/2"], ["1/2", "1/2"]),
            ),
            (
                2, 2, "e2,d1,e1,d2", "3,2,1", True,
                (["-2", "0"], ["-1", "-3"]),
                (["-1/2", "-1/2"], ["1/2", "1/2"]),
            ),
            (2, 1, "d1,e2,e1", "2,1", False, (["0", "1"], ["2"]), (["0", "1"], ["-1"])),
        ]
        for m, n, seq, lam, dual, hw, rho in cases:
            argv = ["hw", "--m", str(m), "--n", str(n), "--seq", seq, "--lambda", lam]
            code, out, _ = run_cli(capsys, *argv, *(["--dual"] if dual else []))
            assert code == 0
            assert json.loads(out) == {
                "lambda": lam,
                "seq": seq.split(","),
                "dual": dual,
                "hw": {"eps": hw[0], "delta": hw[1]},
                "rho": {"eps": rho[0], "delta": rho[1]},
            }

    def test_borel_mode_without_e_symbols(self, capsys):
        code, out, _ = run_cli(
            capsys, "hw", "--m", "0", "--n", "1", "--borel", "", "--lambda", "1"
        )
        assert code == 0
        assert '"generic": true' in out

    def test_sequence_mode_reads_blank_text_as_the_empty_ordering(self, capsys):
        # At rank (0|0) the only ordering is the empty one.
        argv = ["hw", "--m", "0", "--n", "0", "--seq=", "--lambda="]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        empty = {"eps": [], "delta": []}
        assert json.loads(out) == {
            "lambda": "", "seq": [], "dual": False, "hw": empty, "rho": empty
        }
        # At any other rank the empty ordering is a one-line error.
        code, out, err = run_cli(capsys, *argv[:2], "1", *argv[3:])
        assert code == 2 and not out
        assert err == (
            "error: --seq: sequence () is not an ordering of 1 e/0 d symbols\n"
        )

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

    @pytest.mark.parametrize(
        "args, expected",
        [
            (
                ["--m", "2", "--n", "1", "--borel", "1,1", "--family", "cb-forced"],
                {
                    "ell": [1, 1],
                    "matrix": [
                        ["-1/2", "0", "-1/4", "1/4"],
                        ["0", "-1/2", "-1/4", "1/4"],
                        ["0", "0", "0", "-1"],
                    ],
                    "offset": ["-1/4", "-3/4", "1"],
                },
            ),
            # a pair gap of 3 gives the entries -1/6 and 1/6
            (
                ["--m", "3", "--n", "1", "--borel", "1,1,1", "--family", "cb-forced"],
                {
                    "ell": [1, 1, 1],
                    "matrix": [
                        ["-1/2", "0", "0", "-1/6", "1/6"],
                        ["0", "-1/2", "0", "-1/6", "1/6"],
                        ["0", "0", "-1/2", "-1/6", "1/6"],
                        ["0", "0", "0", "0", "-1"],
                    ],
                    "offset": ["0", "-1/2", "-1", "3/2"],
                },
            ),
            (
                ["--m", "3", "--n", "2", "--borel", "0,1,3", "--family", "releven"],
                {
                    "ell": [0, 1, 3],
                    "matrix": [
                        ["-1/2", "0", "0", "0", "0", "0", "0"],
                        ["0", "-1/2", "0", "-1/2", "1/2", "0", "0"],
                        ["0", "0", "-1/2", "0", "0", "-1/2", "1/2"],
                        ["0", "0", "0", "0", "-1", "0", "0"],
                        ["0", "0", "0", "0", "0", "0", "-1"],
                    ],
                    "offset": ["-1/2", "-1", "-1/2", "3/2", "1/2"],
                },
            ),
            (["--m", "0", "--n", "0", "--family", "std"], {"matrix": [], "offset": []}),
        ],
    )
    def test_kernel_and_empty_maps(self, capsys, args, expected):
        code, out, _ = run_cli(capsys, "tau", *args)
        assert code == 0
        assert json.loads(out) == {**expected, "family": args[-1]}

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

    def test_blank_point_is_the_empty_point_at_rank_zero(self, capsys):
        # As `orbit((), 0, 0, 1/2)` and `parse_int_list("")`: blank text is the
        # empty point, not an empty rational literal.
        code, out, _ = run_cli(
            capsys, "orbit", "--m", "0", "--n", "0", "--theta", "1/2", "--point", ""
        )
        assert code == 0
        assert json.loads(out) == {"status": "finite", "explored": 1, "points": [[]]}

    def test_budget_zero_is_exhausted_by_the_start_point(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "orbit",
            "--m", "1", "--n", "0",
            "--theta", "1",
            "--point", "1",
            "--budget", "0",
        )
        assert code == 0
        assert json.loads(out) == {"status": "budget_exhausted", "explored": 1}


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


def readme_commands() -> list[list[str]]:
    """The `capelli ...` lines of the README's "Command line" sh block, with
    their backslash continuations joined, as argument lists."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("capelli ")]


def test_the_readme_command_block_runs(monkeypatch, tmp_path, capsys):
    # Every command the README shows exits 0, so its examples cannot drift
    # from the CLI, and its two eig lines, which must agree, print one value.
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) == 11
    eigenvalues = []
    for argv in commands:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        if argv[0] == "eig":
            eigenvalues.append(json.loads(out)["eigenvalue"])
    assert len(eigenvalues) == 2 and eigenvalues[0] == eigenvalues[1]


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
                ["--budget: budget must be nonnegative, got -1"],
            ),
            (
                ["isjp", "--m", "-1", "--theta", "1", "--lambda", "1"],
                ["m and n must be nonnegative"],
            ),
            (
                ["hw", "--m", "1", "--n", "1", "--seq", "e1,dx", "--lambda", "1"],
                ["--seq", "'dx'"],
            ),
            (
                ["hw", "--m", "1", "--n", "1", "--seq", "e1,e2", "--lambda", "1"],
                ["--seq", "not an ordering"],
            ),
            (
                ["verify", "--pair", "glm2n", "--lambda-max", "2", "--mu-max", "2",
                 "--borels", "1,1", "--map", "releven"],
                ["releven", "1,1"],
            ),
            (
                ["verify", "--pair", "diag", "--m", "2", "--n", "1", "--lambda-max", "1",
                 "--mu-max", "1", "--borels", "1,1", "--map", "releven"],
                ["diag", "1,1", "releven"],
            ),
            (
                ["verify", "--pair", "diag", "--lambda-max", "1", "--mu-max", "1",
                 "--map", "veryeven"],
                ["diag", "veryeven"],
            ),
            (
                ["tau", "--m", "2", "--n", "-1", "--family", "std"],
                ["m and n must be nonnegative", "(2, -1)"],
            ),
            (
                ["tau", "--m", "-1", "--n", "1", "--family", "std"],
                ["m and n must be nonnegative", "(-1, 1)"],
            ),
            (
                ["hw", "--m", "2", "--n", "-1", "--borel", "0,0", "--lambda", "1"],
                ["m and n must be nonnegative", "(2, -1)"],
            ),
            (
                ["example", "--name", "gl22_table", "--max", "-1"],
                ["--max: table bound must be nonnegative", "-1"],
            ),
            (
                ["hw", "--table", "--max", "-3"],
                ["--max: table bound must be nonnegative", "-3"],
            ),
            (
                ["orbit", "--m", "2", "--n", "-1", "--theta", "1", "--point", "0"],
                ["m and n must be nonnegative", "(2, -1)"],
            ),
            (
                ["orbit", "--m", "-1", "--n", "2", "--theta", "1", "--point", "0"],
                ["m and n must be nonnegative", "(-1, 2)"],
            ),
            (["hw", "--lambda", "1"], ["hw: provide --borel, --seq, or --table"]),
            (
                ["tau", "--m", "2", "--n", "1"],
                ["tau: --borel is required unless --family std"],
            ),
            (
                ["eig", "--theta", "1", "--mu", "1", "--lambda", "1", "--borel", "1,1"],
                ["eig: --borel requires theta 1/2"],
            ),
            # argparse's own usage errors
            (["verify", "--pair", "foo"], ["--pair", "'foo'"]),
            (["isjp", "--lambda", "1"], ["required", "--theta"]),
            (["isjp", "--m", "x", "--theta", "1", "--lambda", "1"], ["--m", "'x'"]),
            (["tau", "--family", "nope"], ["--family", "'nope'"]),
            ([], ["required", "command"]),
            (["bogus"], ["command", "'bogus'"]),
            (
                ["isjp", "--theta", "0", "--lambda", "1"],
                ["--theta: theta must be positive, got 0"],
            ),
            (
                ["isjp", "--theta", "-1", "--lambda", "1"],
                ["--theta: theta must be positive, got -1"],
            ),
            # hw flags that the chosen mode would not read
            (
                ["hw", "--borel", "1,1", "--seq", "e1,e2,d1", "--lambda", "1"],
                ["--borel and --seq"],
            ),
            (["hw", "--table", "--borel", "1,1"], ["--borel and --table"]),
            (["hw", "--table", "--seq", "e2,e1,d1"], ["--seq and --table"]),
            (
                ["hw", "--borel", "1,1", "--dual", "--lambda", "1"],
                ["--dual applies only with --seq"],
            ),
            (["hw", "--table", "--dual"], ["--dual applies only with --seq"]),
            (["hw", "--table", "--lambda", "1"], ["--table does not read --lambda"]),
            (["hw", "--table", "--out", "t.csv"], ["--table does not read --out"]),
            # flags with a default that the chosen mode would not read
            (
                ["hw", "--borel", "1,1", "--lambda", "1", "--max", "3"],
                ["hw: --max applies only with --table"],
            ),
            (
                ["example", "--name", "gl22_uniqueness", "--max", "3"],
                ["example: --max applies only to gl22_table"],
            ),
            (
                ["eig", "--theta", "1", "--mu", "1", "--lambda", "1",
                 "--map", "releven"],
                ["eig: --map applies only with --borel"],
            ),
            (
                ["tau", "--family", "std", "--borel", "1,1"],
                ["tau: --family std does not read --borel"],
            ),
            (
                ["tau", "--family", "std", "--borel", "x"],
                ["tau: --family std does not read --borel"],
            ),
            # --borel values that no decreasing Borel has
            (
                ["tau", "--m", "2", "--n", "1", "--borel", "1,1,1"],
                ["--borel: ell must have length m=2"],
            ),
            (
                ["tau", "--m", "2", "--n", "1", "--borel", "2,1"],
                ["--borel: ell must be weakly increasing"],
            ),
            (
                ["hw", "--m", "2", "--n", "1", "--borel", "0,3", "--lambda", "1"],
                ["--borel: ell entries must lie in [0, 2]"],
            ),
            (
                ["tau", "--m", "-1", "--n", "1", "--borel", "1"],
                ["error: m and n must be nonnegative", "(-1, 1)"],
            ),
            # partitions outside the (m|n) hook
            (
                ["hw", "--m", "2", "--n", "1", "--borel", "0,0", "--lambda", "2,2,2,1"],
                ["error: --lambda: partition (2, 2, 2, 1) not in the (2|1) hook"],
            ),
            (
                ["hw", "--m", "1", "--n", "1", "--seq", "e1,d1", "--lambda", "2,2"],
                ["error: --lambda: partition (2, 2) not in the (1|1) hook"],
            ),
            (
                ["isjp", "--m", "1", "--n", "1", "--theta", "1", "--lambda", "2,2"],
                ["error: --lambda: partition (2, 2) not in the (1|1) hook"],
            ),
            (
                ["eig", "--m", "1", "--n", "1", "--theta", "1", "--mu", "2,2,2",
                 "--lambda", "1"],
                ["error: --mu: partition (2, 2, 2) not in the (1|1) hook"],
            ),
            (
                ["eig", "--m", "2", "--n", "1", "--theta", "1/2", "--mu", "1",
                 "--lambda", "2,2,2,1", "--borel", "0,0"],
                ["error: --lambda: partition (2, 2, 2, 1) not in the (2|1) hook"],
            ),
            (
                ["eig", "--m", "-1", "--n", "1", "--theta", "1", "--mu", "1",
                 "--lambda", "1"],
                ["error: m and n must be nonnegative", "(-1, 1)"],
            ),
            (
                ["eig", "--theta", "0", "--mu", "1", "--lambda", "1"],
                ["--theta: theta must be positive, got 0"],
            ),
            (
                ["orbit", "--theta", "0", "--point", "0,0,0"],
                ["--theta: theta must be positive, got 0"],
            ),
            (
                ["orbit", "--m", "1", "--n", "1", "--theta", "1", "--point", "1,2,3"],
                ["error: --point: point has length 3, expected 2"],
            ),
            (
                ["verify", "--pair", "diag", "--m", "1", "--n", "1",
                 "--lambda-max", "-1", "--mu-max", "0"],
                ["error: degree bounds must be nonnegative"],
            ),
            (["example", "--name", "nope"], ["--name", "'nope'"]),
            (
                ["example", "--name", "gl22_table", "--max", "41"],
                ["--max: table bound must be at most 40", "41"],
            ),
            (
                ["hw", "--table", "--max", "41"],
                ["--max: table bound must be at most 40", "41"],
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
    def test_unwritable_out_is_a_one_line_error(
        self, capsys, tmp_path, monkeypatch, argv
    ):
        def no_sweep(config):
            raise AssertionError("the sweep ran before --out was checked")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        target = tmp_path / "missing" / "x.json"
        code, _, err = run_cli(capsys, *argv, "--out", str(target))
        assert code == 2
        assert err.startswith("error: --out: ") and err.count("\n") == 1
        assert not target.exists()

    def test_a_size_past_the_cache_bound_is_a_one_line_error(
        self, capsys, monkeypatch
    ):
        # The size is refused before any table size is built; without the
        # bound the command builds size after size with no end in reach.
        def no_build(*args):
            raise AssertionError("a size was built")

        monkeypatch.setattr(isjp, "enumerate_partitions", no_build)
        big = "99999999999999999999"
        argv = ["isjp", "--m", "2", "--n", "1", "--theta", "1/2", "--lambda", big]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and not out
        assert err == f"error: size {big} exceeds CACHED_SIZES = 64\n"

    def test_a_library_key_error_is_not_a_usage_error(self, monkeypatch):
        # Bad input raises ValueError; a KeyError inside a command is a bug
        # and propagates with its traceback instead of exiting 2.
        def broken_orbit(*args, **kwargs):
            raise KeyError("internal")

        monkeypatch.setattr(cli, "orbit", broken_orbit)
        with pytest.raises(KeyError, match="internal"):
            main(["orbit", "--m", "1", "--n", "0", "--theta", "1", "--point", "1"])


def run_module(*argv, timeout, optimize=False):
    """Run `python -m capelli` on the sources of the imported package, under
    `python -O` when optimize is set."""
    src = str(Path(capelli.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, *(["-O"] if optimize else []), "-m", "capelli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )


class TestInstalledEntryPoint:
    def test_help_runs(self):
        proc = run_module("--help", timeout=60)
        assert proc.returncode == 0
        assert "verify" in proc.stdout

    def test_end_to_end_verify(self, tmp_path):
        out_file = tmp_path / "report.json"
        proc = run_module(
            "verify",
            "--pair", "glm2n",
            "--m", "1", "--n", "1",
            "--lambda-max", "2",
            "--mu-max", "2",
            "--out", str(out_file),
            timeout=120,
        )
        assert proc.returncode == 0
        assert json.loads(out_file.read_text())["failures"] == []

    def test_mu_max_costs_the_hooks_it_names(self):
        # 2,486 hooks of size <= 70 at (1|1), among about 30 million partitions:
        # generated directly, the sweep takes well under a second.
        proc = run_module(
            "verify",
            "--pair", "glm2n",
            "--m", "1", "--n", "1",
            "--lambda-max", "2",
            "--mu-max", "70",
            timeout=30,
        )
        assert proc.returncode == 0
        assert ", OK (" in proc.stdout


class TestOptimizedInterpreter:
    """`python -O` strips asserts; the program must not change under it."""

    def test_example_prints_the_same_bytes(self, capsys):
        proc = run_module(
            "example", "--name", "gl22_uniqueness", timeout=60, optimize=True
        )
        assert proc.returncode == 0
        code, out, _ = run_cli(capsys, "example", "--name", "gl22_uniqueness")
        assert code == 0
        assert proc.stdout == out

    def test_forced_failures_are_still_reported(self):
        proc = run_module(
            "verify",
            "--pair", "glm2n",
            "--m", "2", "--n", "2",
            "--lambda-max", "4",
            "--mu-max", "4",
            "--map", "cb-forced",
            timeout=120,
            optimize=True,
        )
        assert proc.returncode == 1
        assert "79 FAILURES" in proc.stdout
