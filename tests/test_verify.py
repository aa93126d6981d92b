"""Tests for the sweep engine and the frozen worked examples."""

import copy
import itertools
import json
import sys
from fractions import Fraction

import pytest

from capelli import borel as borel_module
from capelli import partitions, verify, weights
from capelli.borel import (
    BorelDescriptor,
    format_symbol,
    standard_sequence,
    weyl_vector,
)
from capelli.exact_linalg import RationalMatrix, format_rational
from capelli.isjp import evaluator, interpolation_polynomial
from capelli.partitions import (
    double_partition,
    enumerate_hooks,
    format_partition,
    frobenius_coords,
)
from capelli.tau import AffineMap, family_map, in_family_domain
from capelli.weights import diag_highest_weight, highest_weight, is_generic
from capelli.verify import SweepConfig, SweepReport, reproduce_example, run_sweep
from reference import affine_map, evaluate, vec_add, vec_neg


def count_evaluator_calls(monkeypatch):
    """Record every call of the sweep's evaluator: the points it was called
    on and the value rows it returned, as Fractions, in call order."""
    calls, rows = [], []

    def counted_evaluator(*args):
        values_at = evaluator(*args)

        def counted(den, nums):
            calls.append(tuple(Fraction(v, den) for v in nums))
            row = values_at(den, nums)
            rows.append(tuple(Fraction(v, row[0]) for v in row[1]))
            return row

        return counted

    monkeypatch.setattr(verify, "evaluator", counted_evaluator)
    return calls, rows


def break_diagram_cut(monkeypatch, broken, step: int):
    """Offset the diagram cut of the ordering broken by step in every
    coordinate, under both names it is read by: the sweeps' integer cut and
    the one inside `diagram_cut`. Both sweeps read every highest weight
    through this one rule. In the pair sweep both diag factors do: the
    module's for broken, and the dual's for its reverse. In the glm2n sweep
    a Borel's weights are minus the cuts of its reversed ordering, so
    breaking that ordering breaks that Borel alone."""
    cut = weights.integer_cut

    def broken_cut(seq, lam, m, n):
        seq = tuple(seq)
        w = cut(seq, lam, m, n)
        return [v + step for v in w] if seq == broken else w

    monkeypatch.setattr(weights, "integer_cut", broken_cut)
    monkeypatch.setattr(verify, "integer_cut", broken_cut)


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

    @pytest.mark.parametrize(
        "borels, map_choice", [("1,1", "releven"), ("0,1", "veryeven")]
    )
    def test_rejects_explicit_borel_outside_the_map_domain(self, borels, map_choice):
        # a sweep of a Borel the map skips would run no case and report OK
        with pytest.raises(ValueError, match=f"{map_choice}.*{borels}"):
            SweepConfig(
                pair="glm2n", m=2, n=1, lambda_max=2, mu_max=2,
                borels=borels, map_choice=map_choice,
            )
        # the pair sweep takes no Borel and no map at all
        with pytest.raises(ValueError, match="diag sweep"):
            SweepConfig(
                pair="diag", m=2, n=1, lambda_max=2, mu_max=2,
                borels=borels, map_choice=map_choice,
            )

    @pytest.mark.parametrize(
        "options",
        [{"borels": "1,1"}, {"map_choice": "releven"}, {"borels": "0,1", "map_choice": "full"}],
    )
    def test_diag_sweep_rejects_borels_and_map(self, options):
        # it sweeps every ordering with the diag maps, so either option would
        # be echoed in the report for a sweep that did not use it
        with pytest.raises(ValueError, match="diag sweep.*borels"):
            SweepConfig(pair="diag", m=2, n=1, lambda_max=1, mu_max=1, **options)
        SweepConfig(pair="diag", m=2, n=1, lambda_max=1, mu_max=1, borels="all",
                    map_choice="full")

    def test_json_round_trip(self):
        cfg = SweepConfig(pair="glm2n", m=2, n=1, lambda_max=3, mu_max=2)
        data = SweepReport(cfg).to_json_dict()["config"]
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

    def test_failures_of_both_kinds_match_a_per_case_loop(self, monkeypatch):
        # Shift the offset of the full map of ell = (1, 1) only, then
        # recompute every case the direct way: the expected vector is the
        # standard map of the standard weight, and each value is evaluated
        # anew for each (Borel, lambda, mu).
        def shifted(borel, family):
            affine = family_map(borel, family)
            if borel.ell != (1, 1):
                return affine
            return affine_map(affine.matrix, tuple(v + 1 for v in affine.offset))

        monkeypatch.setattr(verify, "family_map", shifted)
        m, n, theta = 2, 1, Fraction(1, 2)
        report = run_sweep(SweepConfig(pair="glm2n", m=m, n=n, lambda_max=3, mu_max=2))
        lams = enumerate_hooks(m, n, 3)
        mus = enumerate_hooks(m, n, 2)
        opposite = BorelDescriptor.opposite(m, n)
        expected = []
        cases = 0
        for borel in BorelDescriptor.enumerate(m, n):
            for lam in lams:
                point = shifted(borel, "full").apply(highest_weight(lam, borel))
                if is_generic(lam, borel):
                    cases += 1
                    standard = highest_weight(lam, opposite)
                    vector = family_map(opposite, "full").apply(standard)
                    if point != vector:
                        expected.append(
                            {
                                "kind": "generic_vector",
                                "ell": list(borel.ell),
                                "lambda": format_partition(lam),
                                "lhs": [format_rational(v) for v in point],
                                "rhs": [format_rational(v) for v in vector],
                            }
                        )
                for mu in mus:
                    cases += 1
                    poly = interpolation_polynomial(m, n, theta, mu)
                    lhs = evaluate(poly, point)
                    rhs = evaluate(poly, frobenius_coords(lam, m, n, theta))
                    if lhs != rhs:
                        expected.append(
                            {
                                "kind": "eigenvalue",
                                "ell": list(borel.ell),
                                "lambda": format_partition(lam),
                                "mu": format_partition(mu),
                                "lhs": format_rational(lhs),
                                "rhs": format_rational(rhs),
                            }
                        )
        assert {f["kind"] for f in expected} == {"generic_vector", "eigenvalue"}
        assert report.failures == expected
        assert report.cases == cases

    def test_each_distinct_borel_point_is_evaluated_once(self, monkeypatch):
        # the one-sided sweep reads the same value table
        m, n, theta = 2, 1, Fraction(1, 2)
        lams = enumerate_hooks(m, n, 3)
        mus = enumerate_hooks(m, n, 2)
        nodes = {frobenius_coords(lam, m, n, theta) for lam in lams}
        points = set(nodes)
        for borel in BorelDescriptor.enumerate(m, n):
            for lam in lams:
                points.add(family_map(borel, "full").apply(highest_weight(lam, borel)))
        calls, rows = count_evaluator_calls(monkeypatch)
        assert run_sweep(SweepConfig(pair="glm2n", m=m, n=n, lambda_max=3, mu_max=2)).ok
        assert points - nodes
        assert len(calls) == len(points)
        assert set(calls) == points
        assert all(len(row) == len(mus) for row in rows)

    def test_highest_weights_are_cut_once_per_borel_and_shape(self, monkeypatch):
        # Each highest weight is minus one unchecked cut of the Borel's
        # reversed ordering on the doubled shape: no validated
        # `highest_weight` and no Weyl vector on the sweep path.
        calls = []

        def counted(*args):
            calls.append(args)
            return weights.integer_cut(*args)

        def forbidden(*args):
            raise AssertionError("not on the glm2n sweep path")

        monkeypatch.setattr(verify, "integer_cut", counted)
        for module in (verify, weights):
            monkeypatch.setattr(module, "highest_weight", forbidden)
        for module in (verify, borel_module):
            monkeypatch.setattr(module, "weyl_vector", forbidden)
        m, n = 2, 2
        lams = enumerate_hooks(m, n, 3)
        for family in ("full", "releven"):
            calls.clear()
            cfg = SweepConfig(
                pair="glm2n", m=m, n=n, lambda_max=3, mu_max=2, map_choice=family
            )
            assert run_sweep(cfg).ok
            borels = [
                b
                for b in BorelDescriptor.enumerate(m, n)
                if family == "full" or b.is_relatively_even()
            ]
            assert len(borels) == (15 if family == "full" else 13)
            expected = [
                (b.sequence()[::-1], double_partition(lam, m, n), m, 2 * n)
                for b in borels
                for lam in lams
            ]
            assert sorted(calls) == sorted(expected)

    def test_maps_are_built_once_per_borel_in_integers(self, monkeypatch):
        # Each map is built once, as integer rows, and applied in integers:
        # no RationalMatrix and no Fraction `apply` on the sweep path.
        m, n = 2, 2
        built = []

        def counted(borel, family):
            built.append((borel, family))
            return family_map(borel, family)

        def forbidden(*args):
            raise AssertionError("not on the glm2n sweep path")

        for family in ("full", "releven", "cb-forced"):
            cfg = SweepConfig(
                pair="glm2n", m=m, n=n, lambda_max=3, mu_max=2, map_choice=family
            )
            # the first run builds the polynomials, whose solve takes a matrix
            run_sweep(cfg)
            built.clear()
            with monkeypatch.context() as patch:
                patch.setattr(verify, "family_map", counted)
                patch.setattr(RationalMatrix, "__init__", forbidden)
                patch.setattr(AffineMap, "apply", forbidden)
                run_sweep(cfg)
            domain = [
                b
                for b in BorelDescriptor.enumerate(m, n)
                if in_family_domain(b, family)
            ]
            assert len(domain) == (15 if family != "releven" else 13)
            assert built == [(b, family) for b in domain]

    def test_shapes_are_validated_per_shape_not_per_borel(self, monkeypatch):
        # Genericity is read once per shape, so a sweep over every Borel
        # validates its shapes as often as a sweep over one Borel.
        original = partitions.require_hook
        calls = []

        def counted(*args):
            calls.append(args)
            return original(*args)

        for name, module in list(sys.modules.items()):
            if not name.startswith("capelli."):
                continue
            if getattr(module, "require_hook", None) is original:
                monkeypatch.setattr(module, "require_hook", counted)
        counts = []
        for borels in ("all", "all", "1,3"):
            calls.clear()
            cfg = SweepConfig(
                pair="glm2n", m=2, n=2, lambda_max=3, mu_max=2, borels=borels
            )
            run_sweep(cfg)
            counts.append(len(calls))
        # the first run also builds the polynomials
        assert counts[1] == counts[2] > 0

    def test_failures_name_the_borel_whose_cut_is_broken(self, monkeypatch):
        broken = BorelDescriptor(2, 1, (1, 1))
        break_diagram_cut(monkeypatch, broken.sequence()[::-1], 1)
        cfg = SweepConfig(pair="glm2n", m=2, n=1, lambda_max=2, mu_max=2)
        failures = run_sweep(cfg).failures
        assert failures
        assert {tuple(f["ell"]) for f in failures} == {broken.ell}

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

    def test_failure_records_name_the_orderings(self, monkeypatch):
        # Break the cut of the ordering d1,e1 only. That breaks the second
        # factor of every pair with seq2 = d1,e1 and the first (dual) factor
        # of every pair with seq1 = e1,d1, its reverse. Each failure names
        # its pair in the form `capelli hw --seq` takes.
        break_diagram_cut(monkeypatch, (("d", 1), ("e", 1)), -1)
        cfg = SweepConfig(pair="diag", m=1, n=1, lambda_max=2, mu_max=1)
        failures = run_sweep(cfg).failures
        assert {(f["seq1"], f["seq2"]) for f in failures} == {
            ("e1,d1", "e1,d1"),
            ("e1,d1", "d1,e1"),
            ("d1,e1", "d1,e1"),
        }


    def test_forced_failures_match_a_per_case_loop(self, monkeypatch):
        # Break the cut of the ordering e2,d1,e1 only, which both factors
        # read, then recompute every case the direct way: cut, shift and
        # evaluate anew for each (seq1, seq2, lambda, mu).
        break_diagram_cut(monkeypatch, (("e", 2), ("d", 1), ("e", 1)), 1)
        m, n = 2, 1
        report = run_sweep(SweepConfig(pair="diag", m=m, n=n, lambda_max=2, mu_max=2))
        lams = enumerate_hooks(m, n, 2)
        mus = enumerate_hooks(m, n, 2)
        orderings = list(itertools.permutations(standard_sequence(m, n)))
        expected = []
        for seq1 in orderings:
            for seq2 in orderings:
                for lam in lams:
                    for mu in mus:
                        poly = interpolation_polynomial(m, n, Fraction(1), mu)
                        w1 = diag_highest_weight(seq1, lam, m, n, dual=True)
                        w2 = diag_highest_weight(seq2, lam, m, n, dual=False)
                        first_point = vec_neg(vec_add(w1, weyl_vector(seq1)))
                        second_point = vec_add(w2, weyl_vector(seq2))
                        first = evaluate(poly, first_point)
                        second_value = evaluate(poly, second_point)
                        node = evaluate(poly, frobenius_coords(lam, m, n, 1))
                        if first != node or second_value != node:
                            expected.append(
                                {
                                    "kind": "pair_eigenvalue",
                                    "seq1": ",".join(map(format_symbol, seq1)),
                                    "seq2": ",".join(map(format_symbol, seq2)),
                                    "lambda": format_partition(lam),
                                    "mu": format_partition(mu),
                                    "first": format_rational(first),
                                    "second": format_rational(second_value),
                                    "node": format_rational(node),
                                }
                            )
        assert expected
        assert report.failures == expected
        assert report.cases == len(orderings) ** 2 * len(lams) * len(mus)

    def test_each_distinct_point_is_evaluated_once(self, monkeypatch):
        m, n = 2, 1
        theta = Fraction(1)
        lams = enumerate_hooks(m, n, 2)
        mus = enumerate_hooks(m, n, 2)
        points = {frobenius_coords(lam, m, n, theta) for lam in lams}
        for seq in itertools.permutations(standard_sequence(m, n)):
            for lam in lams:
                rho = weyl_vector(seq)
                w1 = diag_highest_weight(seq, lam, m, n, dual=True)
                w2 = diag_highest_weight(seq, lam, m, n, dual=False)
                points.add(vec_neg(vec_add(w1, rho)))
                points.add(vec_add(w2, rho))
        calls, rows = count_evaluator_calls(monkeypatch)
        assert run_sweep(SweepConfig(pair="diag", m=m, n=n, lambda_max=2, mu_max=2)).ok
        assert len(points) < 2 * 6 * len(lams)
        assert len(calls) == len(points)
        assert set(calls) == points
        assert all(len(row) == len(mus) for row in rows)

    def test_highest_weights_are_computed_once_per_ordering(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return weights.integer_cut(*args)

        monkeypatch.setattr(verify, "integer_cut", counted)
        m, n = 2, 1
        lams = enumerate_hooks(m, n, 2)
        orderings = list(itertools.permutations(standard_sequence(m, n)))
        assert run_sweep(SweepConfig(pair="diag", m=m, n=n, lambda_max=2, mu_max=2)).ok
        # Both factors read one row list per ordering: one module weight per
        # (ordering, lambda), and no dual weight, which would cut an ordering
        # for some lambda a second time.
        assert len(calls) == 6 * len(lams)
        assert sorted(args[:2] for args in calls) == sorted(
            itertools.product(orderings, lams)
        )


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

    def test_json_text_is_the_dataclass_form(self, monkeypatch):
        # A forced-failure report serializes as its fields spelled out: the
        # seven sweep parameters, the case count, the failure records and
        # the elapsed time.
        break_diagram_cut(monkeypatch, (("e", 2), ("d", 1), ("e", 1)), 1)
        report = run_sweep(SweepConfig(pair="diag", m=2, n=1, lambda_max=2, mu_max=2))
        assert report.failures
        form = {
            "config": {
                "pair": "diag",
                "m": 2,
                "n": 1,
                "lambda_max": 2,
                "mu_max": 2,
                "borels": "all",
                "map_choice": "full",
            },
            "cases": report.cases,
            "failures": copy.deepcopy(report.failures),
            "elapsed_ms": report.elapsed_ms,
        }
        expected = json.dumps(form, sort_keys=True, indent=2)
        assert report.to_json_text() == expected + "\n"

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
