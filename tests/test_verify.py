"""Tests for the sweep engine and the frozen worked examples."""

import ast
import json
from pathlib import Path

import pytest

import capelli
from capelli.verify import SweepConfig, SweepReport, reproduce_example, run_sweep


class TestSweepConfig:
    def test_rejects_unknown_pair(self):
        with pytest.raises(ValueError):
            SweepConfig(pair="nope", m=1, n=1, lambda_max=1, mu_max=1)

    def test_rejects_unknown_map(self):
        with pytest.raises(ValueError):
            SweepConfig(
                pair="glm2n", m=1, n=1, lambda_max=1, mu_max=1, map_choice="bogus"
            )

    def test_rejects_nonpositive_rank(self):
        with pytest.raises(ValueError):
            SweepConfig(pair="diag", m=0, n=1, lambda_max=1, mu_max=1)

    def test_rejects_malformed_borels_on_construction(self):
        with pytest.raises(ValueError, match="borels.*'x'"):
            SweepConfig(pair="glm2n", m=2, n=1, lambda_max=1, mu_max=1, borels="1,x")

    def test_json_round_trip(self):
        cfg = SweepConfig(pair="glm2n", m=2, n=1, lambda_max=3, mu_max=2)
        data = cfg.to_json_dict()
        assert data["pair"] == "glm2n"
        assert data["borels"] == "all"
        assert data["map_choice"] == "full"


class TestOneSidedSweep:
    def test_full_map_sweep_is_clean(self):
        cfg = SweepConfig(pair="glm2n", m=2, n=1, lambda_max=3, mu_max=2)
        report = run_sweep(cfg)
        assert report.ok
        assert report.failures == []
        # 6 Borels x 7 shapes x 4 polynomials, plus one vector check per
        # generic (Borel, shape) pair.
        assert report.cases > 6 * 7 * 4

    def test_rel_even_map_sweep_is_clean(self):
        cfg = SweepConfig(
            pair="glm2n", m=2, n=1, lambda_max=3, mu_max=2, map_choice="releven"
        )
        report = run_sweep(cfg)
        assert report.ok
        assert report.cases > 0

    def test_very_even_map_sweep_is_clean(self):
        cfg = SweepConfig(
            pair="glm2n", m=2, n=2, lambda_max=2, mu_max=2, map_choice="veryeven"
        )
        report = run_sweep(cfg)
        assert report.ok
        assert report.cases > 0

    def test_single_borel_selection(self):
        cfg = SweepConfig(
            pair="glm2n", m=2, n=1, lambda_max=2, mu_max=2, borels="1,1"
        )
        report = run_sweep(cfg)
        assert report.ok

    def test_forced_kernel_control_fails(self):
        # Negative control: forcing the kernel-family matrix shape on a Borel
        # with an uneven level pair must produce eigenvalue mismatches.
        cfg = SweepConfig(
            pair="glm2n",
            m=2,
            n=1,
            lambda_max=3,
            mu_max=2,
            borels="1,1",
            map_choice="cb-forced",
        )
        report = run_sweep(cfg)
        assert not report.ok
        kinds = {f["kind"] for f in report.failures}
        assert "eigenvalue" in kinds
        first = next(f for f in report.failures if f["kind"] == "eigenvalue")
        assert set(first) == {"kind", "ell", "lambda", "mu", "lhs", "rhs"}
        assert first["lhs"] != first["rhs"]

    def test_forced_kernel_control_clean_on_even_levels(self):
        # On very even Borels the forced matrix is the true one, so the
        # control passes there; the failures come only from uneven pairs.
        cfg = SweepConfig(
            pair="glm2n",
            m=2,
            n=1,
            lambda_max=2,
            mu_max=2,
            borels="2,2",
            map_choice="cb-forced",
        )
        assert run_sweep(cfg).ok


class TestPairSweep:
    def test_small_pair_sweep_is_clean(self):
        cfg = SweepConfig(pair="diag", m=1, n=1, lambda_max=2, mu_max=2)
        report = run_sweep(cfg)
        assert report.ok
        # 2 orderings each side, 4 pairs; 4 shapes x 4 polynomials each.
        assert report.cases == 4 * 4 * 4

    def test_rank_two_pair_sweep_is_clean(self):
        cfg = SweepConfig(pair="diag", m=2, n=1, lambda_max=2, mu_max=2)
        report = run_sweep(cfg)
        assert report.ok
        assert report.cases == 36 * 4 * 4


class TestReportSerialization:
    def test_report_is_deterministic_modulo_timing(self):
        cfg = SweepConfig(pair="glm2n", m=2, n=1, lambda_max=2, mu_max=2)
        first = json.loads(run_sweep(cfg).to_json_text())
        second = json.loads(run_sweep(cfg).to_json_text())
        first.pop("elapsed_ms")
        second.pop("elapsed_ms")
        assert first == second

    def test_report_shape(self):
        cfg = SweepConfig(pair="diag", m=1, n=1, lambda_max=1, mu_max=1)
        data = json.loads(run_sweep(cfg).to_json_text())
        assert set(data) == {"config", "cases", "failures", "elapsed_ms"}
        assert data["config"]["pair"] == "diag"

    def test_summary_mentions_verdict(self):
        cfg = SweepConfig(pair="diag", m=1, n=1, lambda_max=1, mu_max=1)
        report = run_sweep(cfg)
        assert "OK" in report.summary()
        bad = SweepReport(cfg, cases=1, failures=[{"kind": "x"}])
        assert "FAILURES" in bad.summary()


class TestTableExample:
    def test_all_rows_match_closed_forms(self):
        table = reproduce_example("gl22_table", max_entry=3)
        assert table["all_match"]
        assert all(row["matches"] for row in table["rows"])

    def test_contains_expected_shapes(self):
        table = reproduce_example("gl22_table", max_entry=2)
        shapes = [row["lambda"] for row in table["rows"]]
        assert "" in shapes
        assert "2" in shapes
        assert "2,1,1" in shapes
        assert "2,1,1,1,1" not in shapes  # t capped at max_entry
        assert "2,2,1,1" in shapes

    def test_specific_closed_form_rows(self):
        table = reproduce_example("gl22_table", max_entry=3)
        by_shape = {row["lambda"]: row for row in table["rows"]}
        assert by_shape["3"]["hw_borel"] == ["-5", "0", "-1", "0"]
        assert by_shape["3,2,1"]["hw_borel"] == ["-5", "-3", "-3", "-1"]
        assert by_shape["2,2"]["hw_standard"] == ["-4", "-4", "0", "0"]


class TestUniquenessExample:
    def test_full_chain(self):
        data = reproduce_example("gl22_uniqueness")
        assert data["standard_offset"] == ["-1/4", "-3/4", "1"]
        assert data["surviving_parameters"] == [
            ["0", "-1/2", "1/2"],
            ["0", "1/2", "-1/2"],
        ]
        assert data["offset_candidates"] == [
            ["1/4", "-5/4", "1"],
            ["1/4", "3/4", "-1"],
        ]
        assert data["after_closure"] == [["1/4", "3/4", "-1"]]
        final = data["final"]
        assert final is not None
        assert final["equals_canonical"]
        assert final["matrix"] == [
            ["-1/2", "0", "0", "0"],
            ["0", "-1/2", "1/2", "-1/2"],
            ["0", "0", "-1", "0"],
        ]
        assert final["offset"] == ["1/4", "3/4", "-1"]

    def test_each_round_keeps_four_candidates(self):
        data = reproduce_example("gl22_uniqueness")
        for step in data["orbit_matching"]:
            assert len(step["fitting"]) == 4

    def test_unknown_example_rejected(self):
        with pytest.raises(ValueError):
            reproduce_example("nope")


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so the worked examples and every other
    # internal check must raise real exceptions instead.
    for path in Path(capelli.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        asserts = [
            node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
        assert not asserts, f"{path.name}: assert at lines {asserts}"
