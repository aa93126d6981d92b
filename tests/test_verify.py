"""Tests for the sweep engine and the frozen worked examples."""

import copy
import itertools
import json
import math
import sys
from fractions import Fraction

import pytest

from capelli import borel as borel_module
from capelli import cli, isjp, partitions, verify, weights
from capelli.borel import (
    BorelDescriptor,
    format_symbol,
    standard_sequence,
    weyl_vector,
)
from capelli.cli import gl22_table, gl22_uniqueness
from capelli.exact_linalg import format_rational, integer_form
from capelli.isjp import evaluator, interpolation_polynomial, power_sums
from capelli.partitions import (
    double_partition,
    enumerate_hooks,
    format_partition,
    frobenius_coords,
    hook_frame,
)
from capelli.tau import AffineMap, family_map, in_family_domain
from capelli.weights import diag_highest_weight, highest_weight, is_generic
from capelli.verify import SweepConfig, SweepReport, run_sweep
from reference import (
    affine_map,
    evaluate,
    pattern_representative,
    vec_add,
    vec_neg,
)


def count_reads(monkeypatch, name: str):
    """Record every call of the reader that the sweep's `verify.<name>`
    returns: the points it was called on and the rows it returned, as
    Fractions, in call order."""
    calls, rows = [], []
    make = getattr(verify, name)

    def counted_make(*args):
        read = make(*args)

        def counted(den, nums):
            calls.append(tuple(Fraction(v, den) for v in nums))
            row = read(den, nums)
            rows.append(tuple(Fraction(v, row[0]) for v in row[1]))
            return row

        return counted

    monkeypatch.setattr(verify, name, counted_make)
    return calls, rows


def count_evaluator_calls(monkeypatch):
    """The points the sweep's evaluator reads and the value rows it gives."""
    return count_reads(monkeypatch, "evaluator")


def count_power_sum_reads(monkeypatch):
    """The points the sweep reads power sums at and the rows it gets."""
    return count_reads(monkeypatch, "power_sums")


def break_diagram_cut(monkeypatch, broken, step: int, lam=None):
    """Offset the diagram cut by step in every coordinate for every ordering
    with the e/d pattern of broken, under every name it is read by: the
    sweeps' integer cut of a frame and the one that `weights` calls. Both
    sweeps read every highest weight through this one rule. The pair sweep
    cuts one ordering per pattern and reads it for every ordering of that
    pattern, so both diag factors break: the module's for the pattern, and
    the dual's for its reverse. The glm2n sweep also cuts one ordering per
    pattern, a Borel's reversed ordering, so breaking it breaks that Borel
    alone. Given lam, only the cut of that shape's frame is broken (the glm2n
    sweep cuts the doubled shape's frame)."""
    pattern = [kind for kind, _ in broken]
    cut = weights.integer_cut

    def broken_cut(seq, frame, m):
        seq = tuple(seq)
        w = cut(seq, frame, m)
        hit = [kind for kind, _ in seq] == pattern
        if hit and (lam is None or frame == hook_frame(lam, m, len(frame) - m)):
            return [v + step for v in w]
        return w

    for module in (weights, verify):
        monkeypatch.setattr(module, "integer_cut", broken_cut)


def per_case_pair_failures(m: int, n: int, lambda_max: int, mu_max: int) -> list:
    """The pair sweep's failure records recomputed the direct way: cut,
    shift and evaluate anew for each (seq1, seq2, lambda, mu), in the
    sweep's order."""
    lams = enumerate_hooks(m, n, lambda_max)
    mus = enumerate_hooks(m, n, mu_max)
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
    return expected


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

    def test_rejects_a_fractional_degree_bound(self):
        # The bound reaches `range` deep inside, which would raise a TypeError.
        with pytest.raises(ValueError, match="2.5 is not an integer"):
            run_sweep(SweepConfig("glm2n", 2, 1, 2.5, 2))

    @pytest.mark.parametrize(
        "args, message",
        [
            (("glm2n", 2, 1, 2.5, 2), "lambda_max 2.5 is not an integer"),
            (("diag", 1.5, 1, 1, 1), "m 1.5 is not an integer"),
            (("diag", 1, 1, 1, "2"), "mu_max '2' is not an integer"),
            (("diag", 1, 1, float("inf"), 1), "lambda_max inf is not an integer"),
            (("diag", 1, 1, 1, float("nan")), "mu_max nan is not an integer"),
        ],
        ids=[
            "fractional-bound",
            "fractional-rank",
            "string-bound",
            "infinite-bound",
            "nan-bound",
        ],
    )
    def test_rejects_a_non_integer_on_construction(self, args, message):
        # each would construct and fail only inside run_sweep, or with a
        # TypeError on comparing a string bound
        with pytest.raises(ValueError, match=message):
            SweepConfig(*args)

    def test_rejects_a_negative_degree_bound(self):
        for bounds in ((-1, 0), (0, -1)):
            with pytest.raises(ValueError, match="degree bounds must be nonnegative"):
                SweepConfig("diag", 1, 1, *bounds)

    @pytest.mark.parametrize("borels", [None, (1, 1), 11])
    def test_rejects_borels_that_are_not_text(self, borels):
        # parsing them would fail with an AttributeError
        with pytest.raises(ValueError, match="borels must be") as info:
            SweepConfig("glm2n", 2, 1, 2, 2, borels=borels)
        assert repr(borels) in str(info.value)

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
        # The one-sided sweep reads power sums at two kinds of point, each
        # once: a mapped point off its node, and that shape's node. A point
        # on its node has the node's values, so a node every Borel reaches is
        # never read. A clean sweep evaluates no polynomial.
        m, n, theta = 2, 1, Fraction(1, 2)
        lams = enumerate_hooks(m, n, 3)
        mus = enumerate_hooks(m, n, 2)
        nodes = {lam: frobenius_coords(lam, m, n, theta) for lam in lams}
        off, left = set(), set()
        for borel in BorelDescriptor.enumerate(m, n):
            for lam in lams:
                point = family_map(borel, "full").apply(highest_weight(lam, borel))
                if point != nodes[lam]:
                    off.add(point)
                    left.add(lam)
        kept = {nodes[lam] for lam in lams if lam not in left}
        calls, rows = count_power_sum_reads(monkeypatch)
        evaluated, _ = count_evaluator_calls(monkeypatch)
        assert run_sweep(SweepConfig(pair="glm2n", m=m, n=n, lambda_max=3, mu_max=2)).ok
        assert off and kept and len(mus) > 2
        assert len(calls) == len(set(calls))
        assert set(calls) == off | {nodes[lam] for lam in left}
        assert not kept & set(calls)
        assert all(len(row) == 2 for row in rows)
        assert not evaluated

    def test_borel_sweep_evaluates_only_off_node_points_and_their_nodes(
        self, monkeypatch
    ):
        # The benchmark's one-Borel sweep: 67 mapped points leave their
        # node, and those 67 shapes' nodes are read; the other 120 shapes
        # cost no read (254 reads when every node was read), and no point is
        # evaluated.
        calls, _ = count_power_sum_reads(monkeypatch)
        evaluated, _ = count_evaluator_calls(monkeypatch)
        cfg = SweepConfig(
            pair="glm2n", m=2, n=2, lambda_max=11, mu_max=4, borels="4,4"
        )
        report = run_sweep(cfg)
        assert (report.ok, report.cases) == (True, 2364)
        assert len(calls) == len(set(calls)) == 134
        assert not evaluated

    def test_highest_weights_are_cut_once_per_borel_and_shape(self, monkeypatch):
        # Each highest weight is minus one unchecked cut of the Borel's
        # reversed ordering on the doubled shape's frame in the (m|2n) hook:
        # no validated `highest_weight` and no Weyl vector on the sweep path.
        calls = []

        def counted(*args):
            calls.append(args)
            return weights.integer_cut(*args)

        def forbidden(*args):
            raise AssertionError("not on the glm2n sweep path")

        monkeypatch.setattr(verify, "integer_cut", counted)
        for module in (verify, weights):
            monkeypatch.setattr(module, "highest_weight", forbidden, raising=False)
        for module in (verify, borel_module):
            for name in ("weyl_vector", "twice_weyl_vector"):
                monkeypatch.setattr(module, name, forbidden, raising=False)
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
            doubled = [
                hook_frame(double_partition(lam, m, n), m, 2 * n) for lam in lams
            ]
            expected = [
                (b.sequence()[::-1], frame, m) for b in borels for frame in doubled
            ]
            assert sorted(calls) == sorted(expected)

    def test_maps_are_built_once_per_borel_in_integers(self, monkeypatch):
        # Each map is built once, as integer rows, and applied in integers:
        # no Fraction view of a matrix and no Fraction `apply` on the sweep
        # path.
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
            # the first run builds the polynomials
            run_sweep(cfg)
            built.clear()
            with monkeypatch.context() as patch:
                patch.setattr(verify, "family_map", counted)
                patch.setattr(AffineMap, "matrix", property(forbidden))
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
        # The shapes are generated valid, and each one's frame and genericity
        # row are read once, unchecked, so a clean sweep validates no shape:
        # none over every Borel, as none over one.
        checks = [partitions.require_hook, partitions.validate_partition]
        calls = []

        def counting(check):
            def counted(*args):
                calls.append((check.__name__, args))
                return check(*args)

            return counted

        for name, module in list(sys.modules.items()):
            if not name.startswith("capelli."):
                continue
            for check in checks:
                if getattr(module, check.__name__, None) is check:
                    monkeypatch.setattr(module, check.__name__, counting(check))
        counts = []
        for borels in ("all", "all", "1,3"):
            calls.clear()
            cfg = SweepConfig(
                pair="glm2n", m=2, n=2, lambda_max=3, mu_max=2, borels=borels
            )
            assert run_sweep(cfg).ok
            counts.append(len(calls))
        assert counts == [0, 0, 0]

    def test_each_shape_has_one_frame_and_one_cut_per_borel(self, monkeypatch):
        # Work guard, by call counts: a sweep makes each shape's frame once,
        # at every Borel as at one, and cuts exactly Borels x shapes times;
        # no partition is validated once the Borel loop has begun.
        events = []

        def recording(module, name):
            original = getattr(module, name)

            def recorded(*args):
                events.append(name)
                return original(*args)

            monkeypatch.setattr(module, name, recorded)

        recording(verify, "hook_frame")
        recording(verify, "integer_cut")
        for name, module in list(sys.modules.items()):
            if name.startswith("capelli.") and hasattr(module, "validate_partition"):
                recording(module, "validate_partition")
        m, n, lambda_max = 2, 2, 6
        shapes = len(enumerate_hooks(m, n, lambda_max))
        for borels, count in (("all", 15), ("1,3", 1)):
            events.clear()
            cfg = SweepConfig(
                pair="glm2n", m=m, n=n, lambda_max=lambda_max, mu_max=3, borels=borels
            )
            assert run_sweep(cfg).ok
            assert events.count("hook_frame") == shapes
            assert events.count("integer_cut") == count * shapes
            first_cut = events.index("integer_cut")
            assert "validate_partition" not in events[first_cut:]
            assert events[first_cut:] == ["integer_cut"] * (count * shapes)

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
        expected = per_case_pair_failures(m, n, 2, 2)
        assert expected
        assert report.failures == expected
        assert report.cases == len(orderings) ** 2 * len(lams) * len(mus)

    @pytest.mark.parametrize("end", [0, -1])
    def test_forced_failures_at_the_pattern_ends_match_a_per_case_loop(
        self, monkeypatch, end
    ):
        # The first ordering has the standard e/d pattern, whose rows are
        # also the nodes', and the last the all-d-first one: a broken cut of
        # either pattern is caught as in the middle, since the node rows come
        # from the closed form, not from the standard pattern's cut.
        m, n = 2, 1
        orderings = list(itertools.permutations(standard_sequence(m, n)))
        assert pattern_representative(orderings[0]) == standard_sequence(m, n)
        assert pattern_representative(orderings[-1]) == (("d", 1), ("e", 1), ("e", 2))
        break_diagram_cut(monkeypatch, orderings[end], 1)
        report = run_sweep(SweepConfig(pair="diag", m=m, n=n, lambda_max=2, mu_max=2))
        expected = per_case_pair_failures(m, n, 2, 2)
        assert expected
        assert report.failures == expected

    def test_one_broken_shape_leaves_the_other_shapes_clean(self, monkeypatch):
        # Break the cut of e2,d1,e1 at one shape only: every other shape's
        # rows are on the node on both sides of every pair, so the sweep
        # skips it, and only the broken shape fails.
        m, n = 2, 1
        break_diagram_cut(monkeypatch, (("e", 2), ("d", 1), ("e", 1)), 1, lam=(1,))
        report = run_sweep(SweepConfig(pair="diag", m=m, n=n, lambda_max=2, mu_max=2))
        lams = {format_partition(lam) for lam in enumerate_hooks(m, n, 2)}
        failing = {f["lambda"] for f in report.failures}
        assert failing == {"1"}
        assert lams - failing
        assert report.failures == per_case_pair_failures(m, n, 2, 2)

    def test_each_distinct_point_is_evaluated_once(self, monkeypatch):
        # Every ordering reads its e/d pattern's rows, so the sweep reads
        # power sums at exactly the patterns' points, at each pattern's
        # representative, and the nodes, each once: 16 points at (2, 2). A
        # clean sweep evaluates no polynomial.
        theta = Fraction(1)
        calls, rows = count_power_sum_reads(monkeypatch)
        evaluated, _ = count_evaluator_calls(monkeypatch)
        for (m, n), count in ((2, 1), 8), ((2, 2), 16):
            lams = enumerate_hooks(m, n, 2)
            mus = enumerate_hooks(m, n, 2)
            orderings = itertools.permutations(standard_sequence(m, n))
            representatives = {pattern_representative(seq) for seq in orderings}
            assert len(representatives) == math.comb(m + n, m)
            points = {frobenius_coords(lam, m, n, theta) for lam in lams}
            for seq in representatives:
                rho = weyl_vector(seq)
                for lam in lams:
                    w = diag_highest_weight(seq, lam, m, n, dual=False)
                    points.add(vec_add(w, rho))
            calls.clear()
            rows.clear()
            cfg = SweepConfig(pair="diag", m=m, n=n, lambda_max=2, mu_max=2)
            assert run_sweep(cfg).ok
            assert len(calls) == len(points) == count
            assert set(calls) == points
            assert len(mus) > 2 and all(len(row) == 2 for row in rows)
            assert not evaluated

    def test_highest_weights_are_computed_once_per_ordering(self, monkeypatch):
        # Every ordering of one e/d pattern reads that pattern's rows, so the
        # sweep cuts each pattern once per shape and makes one Weyl vector
        # per pattern, both at the pattern's representative.
        calls = []

        def counted(function):
            def count(*args):
                calls.append((function.__name__, args))
                return function(*args)

            return count

        cut = counted(weights.integer_cut)
        for module in (weights, verify):
            monkeypatch.setattr(module, "integer_cut", cut)
        monkeypatch.setattr(
            verify, "twice_weyl_vector", counted(borel_module.twice_weyl_vector)
        )
        m, n = 2, 2
        lams = enumerate_hooks(m, n, 2)
        orderings = itertools.permutations(standard_sequence(m, n))
        representatives = sorted({pattern_representative(seq) for seq in orderings})
        assert run_sweep(SweepConfig(pair="diag", m=m, n=n, lambda_max=2, mu_max=2)).ok
        assert sorted(calls) == sorted(
            [("twice_weyl_vector", (seq,)) for seq in representatives]
            + [
                ("integer_cut", (seq, hook_frame(lam, m, n), m))
                for seq in representatives
                for lam in lams
            ]
        )

    def test_six_symbol_sweep_is_clean(self):
        report = run_sweep(SweepConfig(pair="diag", m=3, n=3, lambda_max=3, mu_max=3))
        assert report.ok
        assert report.cases == 25_401_600

class TestVerdictFromPowerSums:
    """A sweep decides from the power sums Q_1..Q_mu_max at each point; the
    polynomials are built and evaluated only to write failure records."""

    @pytest.mark.parametrize(
        "config, cases",
        [
            (SweepConfig("glm2n", 2, 2, 20, 20), 43_169_676),
            (SweepConfig("glm2n", 3, 2, 5, 4, map_choice="releven"), None),
            (SweepConfig("diag", 3, 2, 3, 3), None),
        ],
    )
    def test_a_clean_sweep_builds_and_evaluates_no_polynomial(
        self, monkeypatch, config, cases
    ):
        # No polynomial of size 20 can be built at desk scale, and none is.
        def forbidden(*args):
            raise AssertionError(f"polynomial work on a clean sweep: {args}")

        monkeypatch.setattr(isjp, "_polynomials_of_size", forbidden)
        monkeypatch.setattr(verify, "evaluator", forbidden)
        report = run_sweep(config)
        assert report.ok
        assert cases is None or report.cases == cases

    def test_the_evaluator_reads_only_the_failing_points_and_their_nodes(
        self, monkeypatch
    ):
        # The forced-kernel control at (2, 2): its 79 failures come from 10
        # (Borel, lambda) pairs, and only their mapped points and nodes are
        # evaluated.
        m, n, theta = 2, 2, Fraction(1, 2)
        calls, _ = count_evaluator_calls(monkeypatch)
        cfg = SweepConfig("glm2n", m, n, 4, 4, map_choice="cb-forced")
        report = run_sweep(cfg)
        assert len(report.failures) == 79
        failing = {(tuple(f["ell"]), f["lambda"]) for f in report.failures}
        assert len(failing) == 10
        shapes = {format_partition(lam): lam for lam in enumerate_hooks(m, n, 4)}
        expected = set()
        for ell, name in failing:
            borel, lam = BorelDescriptor(m, n, ell), shapes[name]
            tau = family_map(borel, "cb-forced")
            expected.add(tau.apply(highest_weight(lam, borel)))
            expected.add(frobenius_coords(lam, m, n, theta))
        assert set(calls) == expected

    @pytest.mark.parametrize(
        "pair, m, n, lambda_max, mu_max, map_choice",
        [
            ("glm2n", 2, 2, 6, 5, "full"),
            ("glm2n", 2, 2, 6, 5, "cb-forced"),
            ("diag", 3, 2, 3, 3, None),
        ],
    )
    def test_equal_power_sums_exactly_when_equal_values(
        self, pair, m, n, lambda_max, mu_max, map_choice
    ):
        # Group every distinct point of the sweep, mapped points and nodes,
        # found here without the sweep, by its power-sum row and by its value
        # row: the two groupings agree, so each decides what the other does.
        theta = Fraction(1, 2) if pair == "glm2n" else Fraction(1)
        lams = enumerate_hooks(m, n, lambda_max)
        nodes = {frobenius_coords(lam, m, n, theta) for lam in lams}
        points = set(nodes)
        if pair == "glm2n":
            for borel in BorelDescriptor.enumerate(m, n):
                if in_family_domain(borel, map_choice):
                    tau = family_map(borel, map_choice)
                    points |= {tau.apply(highest_weight(lam, borel)) for lam in lams}
        else:
            for seq in itertools.permutations(standard_sequence(m, n)):
                rho = weyl_vector(seq)
                for lam in lams:
                    w = diag_highest_weight(seq, lam, m, n, dual=False)
                    dual = diag_highest_weight(seq, lam, m, n, dual=True)
                    points |= {vec_add(w, rho), vec_neg(vec_add(dual, rho))}
        sums_at = power_sums(m, n, theta, mu_max)
        values_at = evaluator(m, n, theta, enumerate_hooks(m, n, mu_max))
        groupings = []
        for read in sums_at, values_at:
            groups = {}
            for point in points:
                groups.setdefault(read(*integer_form(point)), set()).add(point)
            groupings.append({frozenset(group) for group in groups.values()})
        assert groupings[0] == groupings[1]
        # Not vacuous: points leave their nodes yet share their rows, and
        # other points share no row with any node.
        assert len(groupings[0]) < len(points)
        assert any(not group & nodes for group in groupings[0]) == (
            map_choice == "cb-forced"
        )


class TestReportSerialization:
    def test_report_is_deterministic_modulo_timing(self):
        cfg = SweepConfig(pair="glm2n", m=2, n=1, lambda_max=2, mu_max=2)
        first = json.loads(json.dumps(run_sweep(cfg).to_json_dict()))
        second = json.loads(json.dumps(run_sweep(cfg).to_json_dict()))
        first.pop("elapsed_ms")
        second.pop("elapsed_ms")
        assert first == second

    def test_report_shape(self):
        cfg = SweepConfig(pair="diag", m=1, n=1, lambda_max=1, mu_max=1)
        data = json.loads(json.dumps(run_sweep(cfg).to_json_dict()))
        assert set(data) == {"config", "cases", "failures", "elapsed_ms"}
        assert data["config"]["pair"] == "diag"

    def test_json_text_is_the_dataclass_form(self, monkeypatch, tmp_path, capsys):
        # A forced-failure report, as `capelli verify --out` writes it, is its
        # fields spelled out: the seven sweep parameters, the case count, the
        # failure records and the elapsed time.
        break_diagram_cut(monkeypatch, (("e", 2), ("d", 1), ("e", 1)), 1)
        reports = []

        def recorded_sweep(config):
            reports.append(run_sweep(config))
            return reports[-1]

        monkeypatch.setattr(cli, "run_sweep", recorded_sweep)
        out = tmp_path / "report.json"
        argv = ["verify", "--pair", "diag", "--m", "2", "--n", "1",
                "--lambda-max", "2", "--mu-max", "2", "--out", str(out)]
        assert cli.main(argv) == 1
        capsys.readouterr()
        (report,) = reports
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
        assert out.read_text(encoding="utf-8") == expected + "\n"

    @pytest.mark.parametrize(
        "spec",
        [
            dict(pair="diag", m=2, n=1, lambda_max=2, mu_max=2),
            dict(
                pair="glm2n", m=2, n=2, lambda_max=4, mu_max=4, map_choice="cb-forced"
            ),
        ],
    )
    def test_failure_records_past_the_cap_are_only_counted(self, monkeypatch, spec):
        # A report keeps its first MAX_FAILURES records and counts the rest,
        # so a badly broken sweep holds bounded memory; its verdict counts
        # every failure, and a report under the cap has no dropped count. The
        # diag sweep fails by a broken cut, the glm2n one by its forced map.
        break_diagram_cut(monkeypatch, (("e", 2), ("d", 1), ("e", 1)), 1)
        cfg = SweepConfig(**spec)
        full = run_sweep(cfg)
        total = len(full.failures)
        assert total > 5 and full.failures_dropped == 0
        assert "failures_dropped" not in full.to_json_dict()
        monkeypatch.setattr(verify, "MAX_FAILURES", 5)
        capped = run_sweep(cfg)
        assert capped.failures == full.failures[:5]
        assert capped.failures_dropped == total - 5
        assert capped.to_json_dict()["failures_dropped"] == total - 5
        assert capped.cases == full.cases
        assert not capped.ok
        assert f"{total} FAILURES" in capped.summary()

    @pytest.mark.parametrize(
        "broken, lam",
        [
            (standard_sequence(2, 2), None),
            ((("e", 2), ("d", 1), ("e", 1), ("d", 2)), (1,)),
        ],
        ids=["standard", "mixed-one-shape"],
    )
    def test_pair_failures_past_the_cap_are_counted_from_the_patterns(
        self, monkeypatch, broken, lam
    ):
        # Once the report is full the pair sweep stops walking pairs and
        # counts the rest from its e/d patterns; the count is the walk's.
        break_diagram_cut(monkeypatch, broken, 1, lam=lam)
        cfg = SweepConfig(pair="diag", m=2, n=2, lambda_max=2, mu_max=2)
        full = run_sweep(cfg)
        assert len(full.failures) > 5 and full.failures_dropped == 0
        monkeypatch.setattr(verify, "MAX_FAILURES", 5)
        capped = run_sweep(cfg)
        assert capped.failures == full.failures[:5]
        assert len(capped.failures) + capped.failures_dropped == len(full.failures)

    def test_a_broken_pair_sweep_stops_recording_at_the_cap(self, monkeypatch):
        # A badly broken six-symbol sweep has two million failing cases; it
        # records the first MAX_FAILURES and builds no record past them.
        recorded = []
        fail = SweepReport.fail

        def counted(report, record):
            recorded.append(record)
            fail(report, record)

        monkeypatch.setattr(SweepReport, "fail", counted)
        break_diagram_cut(monkeypatch, standard_sequence(3, 3), 1)
        report = run_sweep(SweepConfig(pair="diag", m=3, n=3, lambda_max=3, mu_max=3))
        assert len(recorded) == len(report.failures) == verify.MAX_FAILURES
        assert report.failures_dropped == 2_062_304

    def test_summary_mentions_verdict(self):
        cfg = SweepConfig(pair="diag", m=1, n=1, lambda_max=1, mu_max=1)
        report = run_sweep(cfg)
        assert "OK" in report.summary()
        bad = SweepReport(cfg, cases=1, failures=[{"kind": "x"}])
        assert "FAILURES" in bad.summary()


class TestTableExample:
    def test_all_rows_match_closed_forms(self):
        table = gl22_table(max_entry=3)
        assert table["all_match"]
        assert all(row["matches"] for row in table["rows"])

    def test_contains_expected_shapes(self):
        table = gl22_table(max_entry=2)
        shapes = [row["lambda"] for row in table["rows"]]
        assert "" in shapes
        assert "2" in shapes
        assert "2,1,1" in shapes
        assert "2,1,1,1,1" not in shapes  # t capped at max_entry
        assert "2,2,1,1" in shapes

    def test_specific_closed_form_rows(self):
        table = gl22_table(max_entry=3)
        by_shape = {row["lambda"]: row for row in table["rows"]}
        assert by_shape["3"]["hw_borel"] == ["-5", "0", "-1", "0"]
        assert by_shape["3,2,1"]["hw_borel"] == ["-5", "-3", "-3", "-1"]
        assert by_shape["2,2"]["hw_standard"] == ["-4", "-4", "0", "0"]


class TestUniquenessExample:
    def test_full_chain(self):
        data = gl22_uniqueness()
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
        data = gl22_uniqueness()
        for step in data["orbit_matching"]:
            assert len(step["fitting"]) == 4
