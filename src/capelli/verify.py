"""Exhaustive desk-scale verification sweeps.

Two sweeps are provided. The pair sweep ("diag") checks, for every ordered
pair of Borel orderings of a doubled hook module, that the two affine
eigenvalue maps send the two highest weights to points where every
interpolation polynomial takes the same value as at the standard node. The
one-sided sweep ("glm2n") checks, for every decreasing Borel of the
half-parameter family, that the selected affine map sends every Borel
highest weight to a point spectrally equal to the standard node, and that on
generic weights the map agrees with the standard map vector-by-vector.

Reports serialize to deterministic JSON (modulo the elapsed_ms field).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from .borel import BorelDescriptor, all_sequences
from .exact_linalg import format_rational
from .isjp import interpolation_polynomial
from .partitions import (
    enumerate_hooks,
    format_partition,
    frobenius_coords,
    parse_int_list,
)
from .tau import (
    MAP_FAMILIES,
    AffineMap,
    diag_map_first,
    diag_map_second,
    family_map,
    in_family_domain,
    standard_map,
)
from .weights import (
    diag_highest_weight,
    highest_weight,
    hw_standard_doubled,
    is_generic,
)

PAIR_CHOICES = ("diag", "glm2n")


@dataclass(frozen=True)
class SweepConfig:
    """Parameters of one verification sweep."""

    pair: str
    m: int
    n: int
    lambda_max: int
    mu_max: int
    borels: str = "all"
    map_choice: str = "full"

    def __post_init__(self):
        if self.pair not in PAIR_CHOICES:
            raise ValueError(f"pair must be one of {PAIR_CHOICES}")
        if self.map_choice not in MAP_FAMILIES:
            raise ValueError(f"map choice must be one of {MAP_FAMILIES}")
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be positive")
        if self.lambda_max < 0 or self.mu_max < 0:
            raise ValueError("degree bounds must be nonnegative")
        if self.borels != "all":
            try:
                BorelDescriptor(self.m, self.n, parse_int_list(self.borels))
            except ValueError as error:
                raise ValueError(f'borels must be "all" or levels: {error}') from None

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass
class SweepReport:
    """Result of a sweep: how many cases ran and which ones failed."""

    config: SweepConfig
    cases: int = 0
    failures: list = field(default_factory=list)
    elapsed_ms: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return asdict(self)

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


def _format_point(point) -> list[str]:
    return [format_rational(Fraction(v)) for v in point]


def run_sweep(config: SweepConfig) -> SweepReport:
    start = time.monotonic()
    if config.pair == "diag":
        report = _run_diag(config)
    else:
        report = _run_glm2n(config)
    report.elapsed_ms = int((time.monotonic() - start) * 1000)
    return report


def _selected_borels(config: SweepConfig) -> list[BorelDescriptor]:
    if config.borels == "all":
        return BorelDescriptor.enumerate(config.m, config.n)
    return [BorelDescriptor(config.m, config.n, parse_int_list(config.borels))]


def _run_glm2n(config: SweepConfig) -> SweepReport:
    report = SweepReport(config)
    m, n = config.m, config.n
    theta = Fraction(1, 2)
    std = standard_map(m, n)
    mus = enumerate_hooks(m, n, config.mu_max)
    mu_polys = [(mu, interpolation_polynomial(m, n, theta, mu)) for mu in mus]
    for borel in _selected_borels(config):
        # A Borel outside the family's domain is skipped, not failed.
        if not in_family_domain(borel, config.map_choice):
            continue
        tau = family_map(borel, config.map_choice)
        for lam in enumerate_hooks(m, n, config.lambda_max):
            hw = highest_weight(lam, borel)
            point = tau.apply(hw)
            node = frobenius_coords(lam, m, n, theta)
            if is_generic(lam, borel):
                report.cases += 1
                expected = std.apply(hw_standard_doubled(lam, m, n))
                if point != expected:
                    report.failures.append(
                        {
                            "kind": "generic_vector",
                            "ell": list(borel.ell),
                            "lambda": format_partition(lam),
                            "lhs": _format_point(point),
                            "rhs": _format_point(expected),
                        }
                    )
            for mu, poly in mu_polys:
                report.cases += 1
                lhs = poly.evaluate(point)
                rhs = poly.evaluate(node)
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
    report = SweepReport(config)
    m, n = config.m, config.n
    theta = Fraction(1)
    sequences = list(all_sequences(m, n))
    mus = enumerate_hooks(m, n, config.mu_max)
    mu_polys = [(mu, interpolation_polynomial(m, n, theta, mu)) for mu in mus]
    lams = enumerate_hooks(m, n, config.lambda_max)
    for index1, seq1 in enumerate(sequences):
        for index2, seq2 in enumerate(sequences):
            for lam in lams:
                w1, rho1 = diag_highest_weight(seq1, lam, m, n, dual=True)
                w2, rho2 = diag_highest_weight(seq2, lam, m, n, dual=False)
                p1 = diag_map_first(rho1).apply(w1)
                p2 = diag_map_second(rho2).apply(w2)
                node = frobenius_coords(lam, m, n, theta)
                for mu, poly in mu_polys:
                    report.cases += 1
                    value = poly.evaluate(node)
                    first = poly.evaluate(p1)
                    second = poly.evaluate(p2)
                    if first != value or second != value:
                        report.failures.append(
                            {
                                "kind": "pair_eigenvalue",
                                "seq1": index1,
                                "seq2": index2,
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
    """Frozen closed forms for the rank-(2,1) table with ell = (1, 1): the
    doubled standard weight, and the Borel weight obtained from it by adding
    one unit to each body row and subtracting two from the first tail entry
    (one unit and one entry for one-row shapes)."""
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
    """Highest-weight table of the rank-(2,1) half-parameter case with both
    levels equal to one, checked against its frozen closed forms."""
    m, n = 2, 1
    borel = BorelDescriptor(m, n, (1, 1))
    rows = []
    all_match = True
    for lam in _table_shapes(max_entry):
        hw0 = hw_standard_doubled(lam, m, n).coords()
        hw = highest_weight(lam, borel).coords()
        closed0, closedb = _closed_form_table_row(lam)
        matches = hw0 == tuple(map(Fraction, closed0)) and hw == tuple(
            map(Fraction, closedb)
        )
        all_match = all_match and matches
        rows.append(
            {
                "lambda": format_partition(lam),
                "hw_standard": _format_point(hw0),
                "hw_borel": _format_point(hw),
                "closed_standard": _format_point(closed0),
                "closed_borel": _format_point(closedb),
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
    rank-(2,2) Borel with both levels equal to one: orbit matching over
    one-row shapes forces two offset candidates, the closure criterion
    eliminates one, and the survivor is the canonical full-family map."""
    from .equivalence import closure_member
    from .exact_linalg import RationalMatrix, vec_add
    from .tau import x0_eps_entry, x0_delta_entry

    m, n = 2, 1
    theta = Fraction(1, 2)
    borel = BorelDescriptor(m, n, (1, 1))
    r_b = borel.root_sum()
    x0 = tuple(
        [x0_eps_entry(i, m, n) for i in range(1, m + 1)]
        + [x0_delta_entry(k, m, n) for k in range(1, n + 1)]
    )

    def param_matrix(a: Fraction, b: Fraction, c: Fraction) -> RationalMatrix:
        half = Fraction(1, 2)
        return RationalMatrix(
            [
                [-half, 0, a, -a],
                [0, -half, b, -b],
                [0, 0, -half + c, -half - c],
            ]
        )

    def orbit_of(r: int):
        base = frobenius_coords((r,), m, n, theta)
        quarter = Fraction(1, 4)
        return [
            base,
            (base[0], quarter, Fraction(0)),
            (base[1], base[0], Fraction(1)),
            (quarter, base[0], Fraction(0)),
        ]

    # Orbit matching: for a one-row shape the mapped highest weight must land
    # in the shape's equivalence orbit. For each orbit point the three image
    # coordinates pin (a, b, c) exactly, because each parameter multiplies the
    # same nonzero difference of the last two input coordinates; intersect the
    # solution sets over r = 1, 2, 3.
    fittings = []
    steps = []
    for r in (1, 2, 3):
        hw = highest_weight((r,), borel)
        u = vec_add(hw.coords(), r_b.coords())
        gap = u[2] - u[3]
        if gap == 0:
            raise AssertionError(f"one-row shape r={r}: zero parameter gap")
        half = Fraction(1, 2)
        fitting = set()
        for target in orbit_of(r):
            a = (target[0] + half * u[0] - x0[0]) / gap
            b = (target[1] + half * u[1] - x0[1]) / gap
            c = (target[2] + half * (u[2] + u[3]) - x0[2]) / gap
            matrix = param_matrix(a, b, c)
            offset = vec_add(matrix.apply(r_b.coords()), x0)
            image = vec_add(matrix.apply(hw.coords()), offset)
            if tuple(image) != tuple(target):
                raise AssertionError(f"fitted map misses orbit point {target}")
            fitting.add((a, b, c))
        fittings.append(fitting)
        steps.append(
            {
                "r": r,
                "fitting": sorted(
                    [format_rational(v) for v in abc] for abc in sorted(fitting)
                ),
            }
        )
    survivors = sorted(set.intersection(*fittings))
    offset_candidates = []
    for a, b, c in survivors:
        matrix = param_matrix(a, b, c)
        offset = vec_add(matrix.apply(r_b.coords()), x0)
        offset_candidates.append((matrix, offset))

    # Closure elimination: the offset must lie in the closure class of the
    # standard offset.
    kept = [
        (matrix, offset)
        for matrix, offset in offset_candidates
        if closure_member(x0, offset, m, n, theta)
    ]
    final = None
    if len(kept) == 1:
        survivor = AffineMap(*kept[0])
        final = survivor.to_json_dict()
        final["equals_canonical"] = survivor == family_map(borel, "full")
    return {
        "m": m,
        "n": n,
        "ell": [1, 1],
        "standard_offset": _format_point(x0),
        "orbit_matching": steps,
        "surviving_parameters": [
            [format_rational(v) for v in abc] for abc in survivors
        ],
        "offset_candidates": [_format_point(off) for _, off in offset_candidates],
        "after_closure": [_format_point(off) for _, off in kept],
        "final": final,
    }
