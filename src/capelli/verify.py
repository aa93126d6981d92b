"""Exhaustive desk-scale verification sweeps.

Two sweeps are provided. The pair sweep ("diag") checks, for every ordered
pair of Borel orderings of a doubled hook module, that the two Weyl-vector
shifts, w -> -(w + rho) for the dual module and w -> w + rho for the module,
send the two highest weights to points where every interpolation polynomial
takes the same value as at the standard node. The dual side's point for an
ordering is the module side's point for the reversed ordering, so the sweep
evaluates one row list per ordering, counts the pairs as a product, and
walks only the pairs with a row off the node. The one-sided sweep ("glm2n")
checks, for every decreasing Borel of the half-parameter family, that the
selected affine map sends every Borel highest weight to a point spectrally
equal to the standard node, and that on generic weights it reaches the node
as a vector. Both sweeps read their values from one table that evaluates
each distinct point once. Points and rows are integers in lowest terms;
only the failure records are made of Fractions.

Reports serialize to deterministic JSON (modulo the elapsed_ms field).
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

from .borel import BorelDescriptor, all_sequences, format_symbol, weyl_vector
from .exact_linalg import (
    Frozen,
    format_rational,
    format_vector,
    integer_form,
    lowest_terms,
)
from .isjp import evaluator
from .partitions import (
    double_partition,
    enumerate_hooks,
    format_partition,
    frobenius_coords,
    parse_int_list,
    part,
)
from .tau import MAP_FAMILIES, AffineMap, family_map, in_family_domain
from .weights import highest_weight, integer_cut

PAIR_CHOICES = ("diag", "glm2n")


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
    """Result of a sweep: how many cases ran and which ones failed."""

    __slots__ = ("config", "cases", "failures", "elapsed_ms")

    def __init__(
        self, config: SweepConfig, cases: int = 0, failures=None, elapsed_ms: int = 0
    ):
        self.config = config
        self.cases = cases
        self.failures = [] if failures is None else failures
        self.elapsed_ms = elapsed_ms

    def __eq__(self, other):
        return type(other) is SweepReport and all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__
        )

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        """The report as JSON data. The failure records are the report's own
        dicts, not copies."""
        return {
            "config": self.config.to_json_dict(),
            "cases": self.cases,
            "failures": self.failures,
            "elapsed_ms": self.elapsed_ms,
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def summary(self) -> str:
        verdict = "OK" if self.ok else f"{len(self.failures)} FAILURES"
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
    """The shapes mu and lambda, the lambda nodes and their value rows, and a
    reader row(point) of the values of every P_mu at a point. Points and rows
    are (den, nums) in lowest terms, so a point is its own key. Each distinct
    point is evaluated once, by one `evaluator` call for all the polynomials;
    a node gives its node row object itself."""
    m, n = config.m, config.n
    mus = enumerate_hooks(m, n, config.mu_max)
    values_at = evaluator(m, n, theta, mus)
    lams = enumerate_hooks(m, n, config.lambda_max)
    nodes = [integer_form(frobenius_coords(lam, m, n, theta)) for lam in lams]
    rows = {}

    def row(point) -> tuple:
        values = rows.get(point)
        if values is None:
            values = rows[point] = values_at(*point)
        return values

    return mus, lams, nodes, [row(node) for node in nodes], row


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
    mus, lams, nodes, node_rows, row = _value_table(config, Fraction(1, 2))
    # The highest weight is minus the cut of the reversed ordering on the
    # doubled shape (`weights.highest_weight`). The orderings and the shapes
    # are generated valid, so the cut runs unchecked, in integers. A weight
    # is generic when 2 lam_m >= ell_m (`weights.is_generic`), and every
    # weight is when there is no e-symbol.
    doubled = [double_partition(lam, m, n) for lam in lams]
    last_rows = [part(lam2, m) for lam2 in doubled]
    for borel, tau in maps:
        reverse = borel.sequence()[::-1]
        last_level = borel.ell[-1] if m else 0
        for lam, lam2, last_row, node, node_row in zip(
            lams, doubled, last_rows, nodes, node_rows
        ):
            weight = [-v for v in integer_cut(reverse, lam2, m, 2 * n)]
            point = tau.integer_apply(1, weight)
            # On a generic weight the map must reach the node as a vector.
            if last_row >= last_level:
                report.cases += 1
                if point != node:
                    report.failures.append(
                        {
                            "kind": "generic_vector",
                            "ell": list(borel.ell),
                            "lambda": format_partition(lam),
                            "lhs": format_vector(_fractions(*point)),
                            "rhs": format_vector(_fractions(*node)),
                        }
                    )
            values = row(point)
            report.cases += len(mus)
            if values == node_row:
                continue
            for mu, lhs, rhs in zip(mus, _fractions(*values), _fractions(*node_row)):
                if lhs != rhs:
                    report.failures.append(
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
    mus, lams, _, node_rows, row = _value_table(config, Fraction(1))
    sequences = list(all_sequences(m, n))
    report = SweepReport(config, cases=len(sequences) ** 2 * len(lams) * len(mus))
    # Per ordering, the values at w + rho = (2w + 2 rho) / 2 for each lambda.
    # The dual's w* and rho for seq are minus the module's for seq reversed,
    # so the first factor's rows for seq1 are the second's for seq1[::-1].
    # The orderings and the shapes are generated valid, so the cut runs
    # unchecked, in integers.
    rows = {}
    for seq in sequences:
        rho2 = [2 * x.numerator // x.denominator for x in weyl_vector(seq)]
        rows[seq] = []
        for lam in lams:
            twice = [2 * a + b for a, b in zip(integer_cut(seq, lam, m, n), rho2)]
            rows[seq].append(row(lowest_terms(2, twice)))
    # A failure needs a row off the node on one side, so seq1 meets every
    # seq2 only when its own rows are off the node.
    off_node = [seq for seq in sequences if rows[seq] != node_rows]
    for seq1 in sequences:
        rows1 = rows[seq1[::-1]]
        for seq2 in sequences if rows1 != node_rows else off_node:
            for lam, node_row, row1, row2 in zip(lams, node_rows, rows1, rows[seq2]):
                if row1 == node_row == row2:
                    continue
                values = zip(mus, *(_fractions(*r) for r in (node_row, row1, row2)))
                for mu, value, first, second in values:
                    if first != value or second != value:
                        report.failures.append(
                            {
                                "kind": "pair_eigenvalue",
                                "seq1": ",".join(map(format_symbol, seq1)),
                                "seq2": ",".join(map(format_symbol, seq2)),
                                "lambda": format_partition(lam),
                                "mu": format_partition(mu),
                                "first": format_rational(first),
                                "second": format_rational(second),
                                "node": format_rational(value),
                            }
                        )
    return report


def reproduce_example(name: str, max_entry: int = 5) -> dict:
    """Regenerate a frozen worked example and return it as a JSON-ready dict."""
    if name == "gl22_table":
        return _example_table(max_entry)
    if name == "gl22_uniqueness":
        return _example_uniqueness()
    raise ValueError(f"unknown example {name!r}; use gl22_table or gl22_uniqueness")


def _table_shapes(max_entry: int):
    """The empty shape, one-row shapes, and two-column-height hooks with all
    parameters bounded by max_entry, in a stable order."""
    shapes = [()]
    shapes.extend((r,) for r in range(1, max_entry + 1))
    for r in range(1, max_entry + 1):
        for s in range(1, r + 1):
            for t in range(0, max_entry + 1):
                shapes.append((r, s) + (1,) * t)
    return shapes


def _closed_form_table_row(lam) -> tuple[tuple, tuple]:
    """Frozen closed forms for the gl(2|2) table, library rank (m, n) = (2, 1),
    ell = (1, 1): the doubled standard weight, and the Borel weight: one unit
    added to each body row and two subtracted from the first tail entry (one
    unit and one entry for one-row shapes)."""
    if not lam:
        return (0, 0, 0, 0), (0, 0, 0, 0)
    r = lam[0]
    s = lam[1] if len(lam) > 1 else 0
    t = max(len(lam) - 2, 0)
    if s == 0:
        return (-2 * r, 0, 0, 0), (-(2 * r - 1), 0, -1, 0)
    return (
        (-2 * r, -2 * s, -t, -t),
        (-(2 * r - 1), -(2 * s - 1), -(t + 2), -t),
    )


def _example_table(max_entry: int) -> dict:
    """Highest-weight table of gl(2|2), library rank (m, n) = (2, 1), theta
    1/2 and both levels one, checked against its frozen closed forms."""
    if max_entry < 0:
        raise ValueError(f"table bound must be nonnegative, got {max_entry}")
    m, n = 2, 1
    borel = BorelDescriptor(m, n, (1, 1))
    opposite = BorelDescriptor.opposite(m, n)
    rows = []
    all_match = True
    for lam in _table_shapes(max_entry):
        hw0 = highest_weight(lam, opposite)
        hw = highest_weight(lam, borel)
        closed0, closedb = _closed_form_table_row(lam)
        matches = hw0 == closed0 and hw == closedb
        all_match = all_match and matches
        rows.append(
            {
                "lambda": format_partition(lam),
                "hw_standard": format_vector(hw0),
                "hw_borel": format_vector(hw),
                "closed_standard": format_vector(closed0),
                "closed_borel": format_vector(closedb),
                "matches": matches,
            }
        )
    return {
        "m": m,
        "n": n,
        "ell": [1, 1],
        "max_entry": max_entry,
        "all_match": all_match,
        "rows": rows,
    }


def _example_uniqueness() -> dict:
    """Replay the chain that pins down the unique correct affine map for the
    gl(2|2) Borel, library rank (m, n) = (2, 1), with both levels one: orbit
    matching over one-row shapes forces two offset candidates, the closure
    criterion eliminates one, and the survivor is the canonical full map."""
    from .equivalence import OrbitResult, closure_member, orbit
    from .tau import eigenvalue_map, standard_offset

    m, n = 2, 1
    theta = Fraction(1, 2)
    borel = BorelDescriptor(m, n, (1, 1))
    r_b = borel.root_sum()
    x0 = standard_offset(m, n)

    def candidate(a: Fraction, b: Fraction, c: Fraction) -> AffineMap:
        return eigenvalue_map(borel, [(a, b, c)])

    # Orbit matching: for a one-row shape the mapped highest weight must land
    # in the shape's equivalence orbit. For each orbit point the three image
    # coordinates pin (a, b, c) exactly, because each parameter multiplies the
    # same nonzero difference of the last two input coordinates; intersect the
    # solution sets over r = 1, 2, 3.
    fittings = []
    steps = []
    for r in (1, 2, 3):
        shape_orbit = orbit(frobenius_coords((r,), m, n, theta), m, n, theta)
        if shape_orbit.status != OrbitResult.FINITE:
            raise AssertionError(f"one-row shape r={r}: orbit is {shape_orbit.status}")
        hw = highest_weight((r,), borel)
        u = tuple(a + b for a, b in zip(hw, r_b))
        gap = u[2] - u[3]
        if gap == 0:
            raise AssertionError(f"one-row shape r={r}: zero parameter gap")
        half = Fraction(1, 2)
        fitting = set()
        for target in shape_orbit.points:
            a = (target[0] + half * u[0] - x0[0]) / gap
            b = (target[1] + half * u[1] - x0[1]) / gap
            c = (target[2] + half * (u[2] + u[3]) - x0[2]) / gap
            if candidate(a, b, c).apply(hw) != target:
                raise AssertionError(f"fitted map misses orbit point {target}")
            fitting.add((a, b, c))
        fittings.append(fitting)
        steps.append(
            {
                "r": r,
                "fitting": sorted(format_vector(abc) for abc in sorted(fitting)),
            }
        )
    survivors = sorted(set.intersection(*fittings))
    offset_candidates = [candidate(*abc) for abc in survivors]

    # Closure elimination: the offset must lie in the closure class of the
    # standard offset.
    kept = [
        f for f in offset_candidates if closure_member(x0, f.offset, m, n, theta)
    ]
    final = None
    if len(kept) == 1:
        final = kept[0].to_json_dict()
        final["equals_canonical"] = kept[0] == family_map(borel, "full")
    return {
        "m": m,
        "n": n,
        "ell": [1, 1],
        "standard_offset": format_vector(x0),
        "orbit_matching": steps,
        "surviving_parameters": [format_vector(abc) for abc in survivors],
        "offset_candidates": [format_vector(f.offset) for f in offset_candidates],
        "after_closure": [format_vector(f.offset) for f in kept],
        "final": final,
    }
