"""Affine maps carrying Borel highest weights to interpolation-polynomial
arguments, and the map-family registry. One builder, `eigenvalue_map`, makes
every map from a Borel and one perturbation column per d-pair: the standard
halve-and-pair matrix with the columns on its d-pairs, and offset
matrix * (Borel root sum) + standard offset. `family_map` gives each family
its columns in closed form. The standard map is the full map of the
opposite Borel. The (m|n)+(m|n) pair needs no matrix: its two factors send
w to -(w + rho) and to w + rho."""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .borel import BorelDescriptor
from .exact_linalg import (
    Frozen,
    RationalMatrix,
    Vector,
    format_vector,
    integer_form,
    lowest_terms,
)

# -- affine maps ----------------------------------------------------------------


class AffineMap(Frozen):
    """x -> matrix * x + offset on flattened weight coordinates, held as the
    rows of [matrix | offset]: integers over one denominator den, in lowest
    terms, so two maps are equal exactly when their matrices and offsets
    are. A map with no rows takes no coordinates."""

    __slots__ = ("den", "rows")

    def __init__(self, den: int, rows):
        rows = [tuple(row) for row in rows]
        den, nums = lowest_terms(den, [x for row in rows for x in row])
        width = len(rows[0]) if rows else 0
        rows = tuple(nums[i * width : (i + 1) * width] for i in range(len(rows)))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "rows", rows)

    @property
    def matrix(self) -> RationalMatrix:
        """The linear part, as Fractions."""
        return RationalMatrix(
            [Fraction(v, self.den) for v in row[:-1]] for row in self.rows
        )

    @property
    def offset(self) -> Vector:
        """The constant part, as Fractions."""
        return tuple(Fraction(row[-1], self.den) for row in self.rows)

    def integer_apply(self, den: int, nums) -> tuple[int, tuple[int, ...]]:
        """matrix * (nums / den) + offset in lowest terms: each row of
        [matrix | offset] times (nums, den) is one integer sum."""
        cols = len(self.rows[0]) - 1 if self.rows else 0
        if cols != len(nums):
            raise ValueError(f"dimension mismatch in apply: {cols} vs {len(nums)}")
        x = (*nums, den)
        return lowest_terms(
            self.den * den, [sum(map(operator.mul, r, x)) for r in self.rows]
        )

    def apply(self, point) -> Vector:
        """matrix * point + offset as Fractions, through `integer_apply`;
        point is a sequence of integers or Fractions."""
        den, nums = self.integer_apply(*integer_form(point))
        return tuple(Fraction(v, den) for v in nums)

    def to_json_dict(self) -> dict:
        return {
            "matrix": [format_vector(row) for row in self.matrix.entries],
            "offset": format_vector(self.offset),
        }


# -- the standard offset and the one builder ----------------------------------------


def standard_offset(m: int, n: int) -> Vector:
    """Offset of the standard map: the negated projection of the all-d-first
    Weyl vector, in closed form. Entry i is (m + 1 - 2n - 2i)/4; entry m+k
    is (m + 2 + 2n - 4k)/2."""
    eps = [Fraction(m + 1 - 2 * n - 2 * i, 4) for i in range(1, m + 1)]
    delta = [Fraction(m + 2 + 2 * n - 4 * k, 2) for k in range(1, n + 1)]
    return tuple(eps + delta)


# A compatible matrix differs from the standard one only in the d-columns,
# the two columns of each d-pair perturbed by opposite vectors, so it is the
# standard matrix and one column per pair. Every map has offset
# M * (Borel root sum) + standard offset. The full family pins the first
# column of each odd pair to a prescribed value, and within it the offset
# does not depend on the member; it serves every decreasing Borel. On a very
# even Borel its matrix is the standard one and its offset the standard
# matrix applied to the Borel's Weyl vector, and on the opposite Borel the
# map is the standard map. The kernel family annihilates the odd root sums of
# the Borel. It gives the paper's map for a relatively even Borel, with
# offset the standard matrix applied to the Weyl vector of the even core;
# applied elsewhere it is the negative control, which provably fails on some
# Borels.


def eigenvalue_map(borel: BorelDescriptor, columns) -> AffineMap:
    """The map whose matrix is the standard one, a_i -> -a_i/2 and
    (b_{2k-1}, b_{2k}) -> minus their half-sum, with columns[k-1] added to
    d-column 2k-1 and subtracted from d-column 2k, and whose offset is
    matrix * (Borel root sum) + standard offset. columns holds n columns of
    length m + n, of integers or Fractions. The rows are written in integers
    over the LCM of 4 and the columns' denominators."""
    m, n = borel.m, borel.n
    columns = [tuple(col) for col in columns]
    if len(columns) != n or any(len(col) != m + n for col in columns):
        raise ValueError(f"need {n} pair columns of length {m + n}")
    den = math.lcm(4, *(x.denominator for col in columns for x in col))
    root = borel.root_sum()
    rows = []
    for r, x0 in enumerate(standard_offset(m, n)):
        # row r < m reads a_r; row m + k reads the d-pair in columns
        # m + 2k and m + 2k + 1
        row = [0] * (m + 2 * n)
        for j in (r,) if r < m else (2 * r - m, 2 * r - m + 1):
            row[j] = -(den // 2)
        for k, col in enumerate(columns):
            v = col[r].numerator * (den // col[r].denominator)
            row[m + 2 * k] += v
            row[m + 2 * k + 1] -= v
        shift = x0.numerator * (den // x0.denominator)
        rows.append((*row, sum(map(operator.mul, row, root)) + shift))
    return AffineMap(den, rows)


# -- the map-family registry ---------------------------------------------------------
#
# Dispatch goes through the module-level constructor names, not through function
# objects stored in a table, so rebinding a constructor on this module (to trace
# it, say) also covers the calls made by family name.

MAP_FAMILIES = ("full", "releven", "veryeven", "cb-forced")
# The families defined on part of the decreasing Borels, and the name of that part.
_PARTIAL_DOMAINS = {"releven": "relatively even", "veryeven": "very even"}


def in_family_domain(borel: BorelDescriptor, family: str) -> bool:
    """Whether the family's map is defined on the Borel; the full and
    forced-kernel maps are defined on every decreasing Borel."""
    if family == "releven":
        return borel.is_relatively_even()
    if family == "veryeven":
        return borel.is_very_even()
    return family in MAP_FAMILIES


def family_map(borel: BorelDescriptor, family: str) -> AffineMap:
    """The family's canonical map for the Borel; raises ValueError when the
    Borel is outside the family's domain."""
    if family not in MAP_FAMILIES:
        raise ValueError(f"unknown map family {family!r}; use one of {MAP_FAMILIES}")
    if not in_family_domain(borel, family):
        raise ValueError(f"Borel ell={borel.ell} is not {_PARTIAL_DOMAINS[family]}")
    # Per d-pair with gap = j_{2k-1} - j_{2k} > 0, the full column is
    # (e_{m - j_{2k}} - e_{m+k})/2, and the kernel column is -(standard
    # matrix * odd root sum)/gap: -1/(2 gap) on e_{m - j_{2k-1} + 1} ..
    # e_{m - j_{2k}}, and 1/2 on e_{m+k}. A pair with gap 0 gets 0.
    m, n = borel.m, borel.n
    columns = []
    for k in range(1, n + 1):
        j_hi, j_lo = borel.j_of(2 * k - 1), borel.j_of(2 * k)
        gap = j_hi - j_lo
        col = [0] * (m + n)
        if gap and family in ("full", "veryeven"):
            col[m - j_lo - 1], col[m + k - 1] = Fraction(1, 2), Fraction(-1, 2)
        elif gap:
            col[m - j_hi : m - j_lo] = [Fraction(-1, 2 * gap)] * gap
            col[m + k - 1] = Fraction(1, 2)
        columns.append(col)
    return eigenvalue_map(borel, columns)
