"""Exhaustive desk-scale verification sweeps.

Two sweeps are provided. The pair sweep ("diag") checks, for every ordered
pair of Borel orderings of a doubled hook module, that the two Weyl-vector
shifts, w -> -(w + rho) for the dual module and w -> w + rho for the module,
send the two highest weights to points where every interpolation polynomial
takes the same value as at the standard node. Orderings with one e/d pattern
have points that differ only by a permutation inside each block, so the
sweep computes one row list per pattern, from the cut and Weyl vector of the
pattern's ordering with increasing indices, and every ordering reads its
pattern's list. The dual side's point for an ordering is the module side's
point for the reversed ordering, so it reads the reversed pattern's list.
The sweep counts the pairs as a product and walks only the pairs with a row
off the node, until the report is full; the failures past that are counted
from the patterns. The one-sided sweep ("glm2n") checks, for every
decreasing Borel of the half-parameter family, that the selected affine map
sends every Borel highest weight to a point spectrally equal to the standard
node, and that on generic weights it reaches the node as a vector. Both
check that mapped points agree with their nodes in the compatible algebra
up to degree mu_max, deciding from one table of the power sums q_1..q_mu_max
(each P_mu is a polynomial in them); P_mu is evaluated only for failure
records. Each sweep keys its points in one form, over 2 (pair) or in lowest
terms (one-sided); points and rows are (den, nums), rows in lowest terms.

A report is data (`SweepReport.to_json_dict`), deterministic apart from its
elapsed_ms field, and keeps at most MAX_FAILURES failure records.
"""

from __future__ import annotations

import itertools
import math
import time
from fractions import Fraction

from .borel import BorelDescriptor, all_sequences, format_symbol, twice_weyl_vector
from .exact_linalg import (
    Frozen,
    as_integer,
    format_rational,
    format_vector,
)
from .isjp import evaluator, power_sums
from .partitions import (
    enumerate_hooks,
    format_partition,
    hook_frame,
    node_point,
    parse_int_list,
)
from .tau import MAP_FAMILIES, family_map, in_family_domain
from .weights import doubled_frame, integer_cut

PAIR_CHOICES = ("diag", "glm2n")
# The failure records a report keeps; the rest are only counted, so that a
# badly broken sweep does not hold one record per failing case.
MAX_FAILURES = 10_000


class SweepConfig(Frozen):
    """Parameters of one verification sweep."""

    __slots__ = ("pair", "m", "n", "lambda_max", "mu_max", "borels", "map_choice")

    def __init__(
        self,
        pair: str,
        m: int,
        n: int,
        lambda_max: int,
        mu_max: int,
        borels: str = "all",
        map_choice: str = "full",
    ):
        if pair not in PAIR_CHOICES:
            raise ValueError(f"pair must be one of {PAIR_CHOICES}")
        if map_choice not in MAP_FAMILIES:
            raise ValueError(f"map choice must be one of {MAP_FAMILIES}")
        if not isinstance(borels, str):
            raise ValueError(f'borels must be "all" or levels as text, not {borels!r}')
        m, n = as_integer(m, "m"), as_integer(n, "n")
        lambda_max = as_integer(lambda_max, "lambda_max")
        mu_max = as_integer(mu_max, "mu_max")
        if m < 1 or n < 1:
            raise ValueError("m and n must be positive")
        if lambda_max < 0 or mu_max < 0:
            raise ValueError("degree bounds must be nonnegative")
        if pair == "diag" and (borels, map_choice) != ("all", "full"):
            raise ValueError(
                'the diag sweep runs every ordering with the diag maps: it takes '
                f'borels "all" and map full, not {borels} and {map_choice}'
            )
        if borels != "all":
            try:
                borel = BorelDescriptor(m, n, parse_int_list(borels))
            except ValueError as error:
                raise ValueError(f'borels must be "all" or levels: {error}') from None
            if pair == "glm2n" and not in_family_domain(borel, map_choice):
                raise ValueError(f"map {map_choice} is not defined on borels {borels}")
        values = (pair, m, n, lambda_max, mu_max, borels, map_choice)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def to_json_dict(self) -> dict:
        """The seven parameters by name."""
        return dict(zip(self.__slots__, self._fields()))


class SweepReport:
    """Result of a sweep: how many cases ran and which ones failed. It keeps
    the first MAX_FAILURES failure records and counts the rest as dropped."""

    __slots__ = ("config", "cases", "failures", "failures_dropped", "elapsed_ms")

    def __init__(
        self, config: SweepConfig, cases: int = 0, failures=None, elapsed_ms: int = 0
    ):
        self.config = config
        self.cases = cases
        self.failures = [] if failures is None else failures
        self.failures_dropped = 0
        self.elapsed_ms = elapsed_ms

    def __eq__(self, other):
        return type(other) is SweepReport and all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__
        )

    @property
    def ok(self) -> bool:
        return not self.failures and not self.failures_dropped

    def fail(self, record: dict) -> None:
        """Record one failing case: keep its record while fewer than
        MAX_FAILURES are kept, else count it as dropped."""
        if len(self.failures) < MAX_FAILURES:
            self.failures.append(record)
        else:
            self.failures_dropped += 1

    def to_json_dict(self) -> dict:
        """The report as JSON data. The failure records are the report's own
        dicts, not copies. The dropped count appears only when nonzero."""
        data = {
            "config": self.config.to_json_dict(),
            "cases": self.cases,
            "failures": self.failures,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.failures_dropped:
            data["failures_dropped"] = self.failures_dropped
        return data

    def summary(self) -> str:
        failed = len(self.failures) + self.failures_dropped
        verdict = "OK" if self.ok else f"{failed} FAILURES"
        return (
            f"{self.config.pair} sweep m={self.config.m} n={self.config.n} "
            f"lambda<={self.config.lambda_max} mu<={self.config.mu_max} "
            f"map={self.config.map_choice}: {self.cases} cases, {verdict} "
            f"({self.elapsed_ms} ms)"
        )


def run_sweep(config: SweepConfig) -> SweepReport:
    start = time.monotonic()
    report = (_run_diag if config.pair == "diag" else _run_glm2n)(config)
    report.elapsed_ms = int((time.monotonic() - start) * 1000)
    return report


def _selected_borels(config: SweepConfig) -> list[BorelDescriptor]:
    if config.borels == "all":
        return BorelDescriptor.enumerate(config.m, config.n)
    return [BorelDescriptor(config.m, config.n, parse_int_list(config.borels))]


def _fractions(den: int, nums) -> tuple[Fraction, ...]:
    """The vector nums / den, for a failure record."""
    return tuple(Fraction(v, den) for v in nums)


def _value_table(config: SweepConfig, theta: Fraction):
    """The shapes mu and lambda, the lambda nodes and frames, and a reader
    row(point) of the power sums q_1..q_mu_max, read once per distinct
    point. Points are (den, nums), the nodes in lowest terms; each sweep
    keys its points in one form of its own, so a point is its own key, and
    a point equal to a node in that form has the node's values. Rows are
    (den, nums) in lowest terms; equal rows give every P_mu one value."""
    m, n = config.m, config.n
    mus = enumerate_hooks(m, n, config.mu_max)
    sums_at = power_sums(m, n, theta, config.mu_max)
    lams = enumerate_hooks(m, n, config.lambda_max)
    nodes = [node_point(lam, m, n, theta) for lam in lams]
    frames = [hook_frame(lam, m, n) for lam in lams]
    rows = {}

    def row(point) -> tuple:
        sums = rows.get(point)
        if sums is None:
            sums = rows[point] = sums_at(*point)
        return sums

    return mus, lams, nodes, frames, row


def _run_glm2n(config: SweepConfig) -> SweepReport:
    report = SweepReport(config)
    # Under borels "all", a Borel outside the family's domain is skipped, not
    # failed; SweepConfig rejects an explicit one.
    maps = [
        (borel, family_map(borel, config.map_choice))
        for borel in _selected_borels(config)
        if in_family_domain(borel, config.map_choice)
    ]
    m, n = config.m, config.n
    mus, lams, nodes, frames, row = _value_table(config, Fraction(1, 2))
    values_at = None
    # `weights.highest_weight`, unchecked: the reversed ordering cuts the
    # `weights.doubled_frame`, and the map over denominator -1 negates it.
    doubled = [doubled_frame(frame, m) for frame in frames]
    for borel, tau in maps:
        reverse = borel.sequence()[::-1]
        for lam, frame, node in zip(lams, doubled, nodes):
            point = tau.integer_apply(-1, integer_cut(reverse, frame, m))
            # A generic weight (2 lam_m >= ell_m) must map onto the node as a vector.
            if frame[m - 1] >= borel.ell[-1]:
                report.cases += 1
                if point != node:
                    report.fail(
                        {
                            "kind": "generic_vector",
                            "ell": list(borel.ell),
                            "lambda": format_partition(lam),
                            "lhs": format_vector(_fractions(*point)),
                            "rhs": format_vector(_fractions(*node)),
                        }
                    )
            report.cases += len(mus)
            # A point on its node has the node's values: only one off it is read.
            if point == node or row(point) == row(node):
                continue
            values_at = values_at or evaluator(m, n, Fraction(1, 2), mus)
            lhs_row, rhs_row = (_fractions(*values_at(*p)) for p in (point, node))
            for mu, lhs, rhs in zip(mus, lhs_row, rhs_row):
                if lhs != rhs:
                    report.fail(
                        {
                            "kind": "eigenvalue",
                            "ell": list(borel.ell),
                            "lambda": format_partition(lam),
                            "mu": format_partition(mu),
                            "lhs": format_rational(lhs),
                            "rhs": format_rational(rhs),
                        }
                    )
    return report


def _run_diag(config: SweepConfig) -> SweepReport:
    m, n = config.m, config.n
    mus, lams, nodes, frames, row = _value_table(config, Fraction(1))
    orderings = math.factorial(m + n)
    report = SweepReport(config, cases=orderings**2 * len(lams) * len(mus))
    # Per ordering, the point w + rho = (2w + 2 rho) / 2 for each lambda.
    # A symbol's coordinate of w + rho depends only on its family and on how
    # many e's and d's come before it, so the orderings of one e/d pattern
    # have points that differ by a permutation inside each block, where every
    # P_mu takes one value: each pattern's points are computed once, at its
    # ordering whose families' indices increase. The dual's w* and rho for
    # seq are minus the module's for seq reversed, so the first factor's rows
    # for seq1 are the second's for seq1[::-1]. Points and nodes are keyed as
    # (2, 2w + 2 rho); the nodes come from their closed form, so a broken
    # standard pattern is caught.
    node_rows = [row((2, tuple(2 * v // den for v in nums))) for den, nums in nodes]
    by_pattern = {}
    for e_slots in itertools.combinations(range(m + n), m):
        pattern = tuple("e" if p in e_slots else "d" for p in range(m + n))
        index = {"e": itertools.count(1), "d": itertools.count(1)}
        seq = tuple((kind, next(index[kind])) for kind in pattern)
        rho2 = twice_weyl_vector(seq)
        by_pattern[pattern] = [
            (2, tuple(2 * c + r for c, r in zip(cut, rho2)))
            for cut in (integer_cut(seq, frame, m) for frame in frames)
        ]
    # A failure needs a row off the node on one side, so seq1 meets every
    # seq2 only when its own rows are off the node, and no pair can fail
    # when no pattern's rows are. Past this the rows are value rows.
    if all(list(map(row, points)) == node_rows for points in by_pattern.values()):
        return report
    values_at = evaluator(m, n, Fraction(1), mus)
    node_rows = [values_at(*node) for node in nodes]
    for pattern, points in by_pattern.items():
        by_pattern[pattern] = [values_at(*point) for point in points]
    sequences = list(all_sequences(m, n))
    rows = {seq: by_pattern[tuple(kind for kind, _ in seq)] for seq in sequences}
    off_node = [seq for seq in sequences if rows[seq] != node_rows]

    def failures():
        for seq1 in sequences:
            rows1 = rows[seq1[::-1]]
            for seq2 in sequences if rows1 != node_rows else off_node:
                cases = zip(lams, node_rows, rows1, rows[seq2])
                for lam, node_row, row1, row2 in cases:
                    if row1 == node_row == row2:
                        continue
                    values = zip(mus, *(_fractions(*r) for r in (node_row, row1, row2)))
                    for mu, value, first, second in values:
                        if first != value or second != value:
                            yield {
                                "kind": "pair_eigenvalue",
                                "seq1": ",".join(map(format_symbol, seq1)),
                                "seq2": ",".join(map(format_symbol, seq2)),
                                "lambda": format_partition(lam),
                                "mu": format_partition(mu),
                                "first": format_rational(first),
                                "second": format_rational(second),
                                "node": format_rational(value),
                            }

    for record in itertools.islice(failures(), MAX_FAILURES):
        report.fail(record)
    if len(report.failures) < MAX_FAILURES:
        return report
    # Past the cap the failures are only counted, from the patterns. Each of
    # the P patterns holds m! n! orderings and reversal permutes them, so a
    # (lambda, mu) whose value k patterns leave fails on
    # (m! n!)^2 (P^2 - (P - k)^2) pairs.
    patterns, ways = len(by_pattern), (orderings // len(by_pattern)) ** 2
    failed = 0
    for i, node_row in enumerate(node_rows):
        columns = zip(*(_fractions(*r[i]) for r in by_pattern.values()))
        for value, column in zip(_fractions(*node_row), columns):
            k = sum(v != value for v in column)
            failed += ways * (patterns**2 - (patterns - k) ** 2)
    report.failures_dropped = failed - MAX_FAILURES
    return report
