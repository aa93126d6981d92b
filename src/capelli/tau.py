"""Affine maps carrying Borel highest weights to interpolation-polynomial
arguments: the standard halve-and-pair matrix and offset, its compatible
perturbation families and their canonical members, and the map-family
registry. Two matrices, one offset rule: each family's map is its canonical
full or kernel matrix with offset matrix * (Borel root sum) + standard
offset. The standard map is the full map of the opposite Borel. The
(m|n)+(m|n) pair needs no matrix: its two factors send w to -(w + rho) and
to w + rho."""

from __future__ import annotations

import operator
from fractions import Fraction

from .borel import BorelDescriptor
from .exact_linalg import (
    Frozen,
    RationalMatrix,
    Vector,
    as_vector,
    format_vector,
    integer_form,
    lowest_terms,
)

# -- affine maps ----------------------------------------------------------------


class AffineMap(Frozen):
    """x -> matrix * x + offset on flattened weight coordinates. Its third
    field holds the rows of [matrix | offset] as integers over one
    denominator, which matrix and offset determine."""

    __slots__ = ("matrix", "offset", "_rows")

    def __init__(self, matrix: RationalMatrix, offset):
        if matrix.rows != len(offset):
            raise ValueError("offset length must match matrix rows")
        offset = as_vector(offset)
        rows = [(*row, c) for row, c in zip(matrix.entries, offset)]
        den, nums = integer_form([x for row in rows for x in row])
        width = matrix.cols + 1
        rows = tuple(nums[i : i + width] for i in range(0, len(nums), width))
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "_rows", (den, rows))

    def integer_apply(self, den: int, nums) -> tuple[int, tuple[int, ...]]:
        """matrix * (nums / den) + offset in lowest terms: each row of
        [matrix | offset] times (nums, den) is one integer sum."""
        cols = self.matrix.cols
        if cols != len(nums):
            raise ValueError(f"dimension mismatch in apply: {cols} vs {len(nums)}")
        scale, rows = self._rows
        x = (*nums, den)
        return lowest_terms(scale * den, [sum(map(operator.mul, r, x)) for r in rows])

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


# -- the standard matrix and offset -------------------------------------------------


def standard_matrix(m: int, n: int) -> RationalMatrix:
    """Negated halve-and-pair projection from (m|2n) weight coordinates to
    m+n interpolation variables, the linear part of the standard map:
    a_i -> -a_i/2 and (b_{2k-1}, b_{2k}) -> minus their half-sum."""
    rows = []
    for i in range(m):
        row = [Fraction(0)] * (m + 2 * n)
        row[i] = Fraction(-1, 2)
        rows.append(row)
    for k in range(n):
        row = [Fraction(0)] * (m + 2 * n)
        row[m + 2 * k] = Fraction(-1, 2)
        row[m + 2 * k + 1] = Fraction(-1, 2)
        rows.append(row)
    return RationalMatrix(rows)


def standard_offset(m: int, n: int) -> Vector:
    """Offset of the standard map: the negated projection of the all-d-first
    Weyl vector, in closed form. Entry i is (m + 1 - 2n - 2i)/4; entry m+k
    is (m + 2 + 2n - 4k)/2."""
    eps = [Fraction(m + 1 - 2 * n - 2 * i, 4) for i in range(1, m + 1)]
    delta = [Fraction(m + 2 + 2 * n - 4 * k, 2) for k in range(1, n + 1)]
    return tuple(eps + delta)


# -- perturbation families ---------------------------------------------------------
#
# A compatible matrix differs from the standard one only in the d-columns,
# with the two columns of each d-pair perturbed by opposite vectors. The
# kernel family additionally annihilates the odd root sums of a Borel; the
# full family pins the first column of each odd pair to a prescribed value.


def matrix_from_pair_columns(m: int, n: int, columns) -> RationalMatrix:
    """Compatible matrix with per-pair perturbation columns: columns[k-1] is
    added to d-column 2k-1 and subtracted from d-column 2k."""
    base = standard_matrix(m, n)
    entries = [list(row) for row in base.entries]
    for k, col in enumerate(columns, start=1):
        col = as_vector(col)
        if len(col) != m + n:
            raise ValueError("perturbation column has wrong length")
        for r in range(m + n):
            entries[r][m + 2 * k - 2] += col[r]
            entries[r][m + 2 * k - 1] -= col[r]
    return RationalMatrix(entries)


def kernel_member(borel: BorelDescriptor) -> RationalMatrix:
    """Canonical kernel-family member: perturb each odd pair k by
    -(standard matrix applied to its odd root sum)/(j_{2k-1} - j_{2k})."""
    m, n = borel.m, borel.n
    base = standard_matrix(m, n)
    columns = []
    for k in range(1, n + 1):
        gap = borel.j_of(2 * k - 1) - borel.j_of(2 * k)
        if gap == 0:
            columns.append((Fraction(0),) * (m + n))
        else:
            image = base.apply(borel.odd_root_sum(k))
            columns.append(tuple(-v / gap for v in image))
    return matrix_from_pair_columns(m, n, columns)


def full_member(borel: BorelDescriptor) -> RationalMatrix:
    """Canonical full-family member: perturb each odd pair k by
    (e_{m - j_{2k}} - e_{m+k})/2."""
    m, n = borel.m, borel.n
    columns = []
    for k in range(1, n + 1):
        col = [Fraction(0)] * (m + n)
        if k in borel.odd_pair_set():
            col[m - borel.j_of(2 * k) - 1] = Fraction(1, 2)
            col[m + k - 1] = Fraction(-1, 2)
        columns.append(tuple(col))
    return matrix_from_pair_columns(m, n, columns)


# -- per-Borel maps -----------------------------------------------------------------
#
# Two matrices, one offset rule: every map is a family matrix M with offset
# M * (Borel root sum) + standard offset, which within the full family does
# not depend on the member. The full matrix serves every decreasing Borel;
# on a very even one it is the standard matrix and the offset the standard
# matrix applied to the Borel's Weyl vector, and on the opposite Borel the
# map is the standard map. The kernel matrix gives the paper's map for a
# relatively even Borel, with offset the standard matrix applied to the Weyl
# vector of the even core; applied elsewhere it is the negative control,
# which provably fails on some Borels.


def eigenvalue_map(borel: BorelDescriptor, matrix: RationalMatrix) -> AffineMap:
    """The map with the given matrix and offset matrix * (Borel root sum) +
    standard offset."""
    shift = AffineMap(matrix, standard_offset(borel.m, borel.n))
    return AffineMap(matrix, shift.apply(borel.root_sum()))


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
    if family in ("full", "veryeven"):
        return eigenvalue_map(borel, full_member(borel))
    return eigenvalue_map(borel, kernel_member(borel))
