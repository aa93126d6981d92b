"""Exact linear algebra over the rational numbers.

Everything in this package computes with `fractions.Fraction`; no floats are
ever introduced, so every comparison downstream is an exact equality.
"""

from __future__ import annotations

import math
from fractions import Fraction

Rational = Fraction

Vector = tuple[Rational, ...]


def parse_rational(text: str) -> Rational:
    """Parse "p" or "p/q" into a Rational.

    Examples
    ========

    >>> parse_rational("-3/4")
    Fraction(-3, 4)
    >>> parse_rational("7")
    Fraction(7, 1)
    """
    text = text.strip()
    if not text:
        raise ValueError("empty rational literal")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal {text!r}") from exc


def format_rational(value: Rational) -> str:
    """Render a Rational as "p" or "p/q" in lowest terms.

    Examples
    ========

    >>> format_rational(Fraction(-3, 4))
    '-3/4'
    >>> format_rational(Fraction(14, 2))
    '7'
    """
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def as_vector(values) -> Vector:
    """Coerce an iterable of numbers into a tuple of Rationals. Fractions
    are immutable, so one is kept rather than copied."""
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


def format_vector(values) -> list[str]:
    """Render each entry of a vector with `format_rational`."""
    return [format_rational(v) for v in values]


def vec_add(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


class RationalMatrix:
    """Immutable dense matrix of Rationals."""

    __slots__ = ("rows", "cols", "entries", "_scaled")

    def __init__(self, entries):
        rows = tuple(as_vector(row) for row in entries)
        if rows:
            width = len(rows[0])
            if any(len(row) != width for row in rows):
                raise ValueError("ragged rows")
        else:
            width = 0
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "_scaled", None)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    def __eq__(self, other):
        return isinstance(other, RationalMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        body = "; ".join(
            " ".join(format_rational(x) for x in row) for row in self.entries
        )
        return f"RationalMatrix({self.rows}x{self.cols}: {body})"

    def apply(self, vec) -> Vector:
        """Matrix-vector product, summed in integers.

        On the first call the matrix keeps, for each row, its nonzero entries
        as (column, integer numerator) over one common denominator. A call
        scales the vector to integers over the LCM of its denominators, so
        only the returned coordinates are Fractions."""
        vec = as_vector(vec)
        if self.cols != len(vec):
            raise ValueError(f"dimension mismatch in apply: {self.cols} vs {len(vec)}")
        if self._scaled is None:
            den = math.lcm(*(x.denominator for row in self.entries for x in row if x))
            rows = [
                [
                    (j, x.numerator * (den // x.denominator))
                    for j, x in enumerate(row)
                    if x
                ]
                for row in self.entries
            ]
            object.__setattr__(self, "_scaled", (den, rows))
        den, rows = self._scaled
        scale = math.lcm(*(v.denominator for v in vec))
        ints = [v.numerator * (scale // v.denominator) for v in vec]
        den *= scale
        return tuple(Fraction(sum(c * ints[j] for j, c in row), den) for row in rows)


def _rref(entries):
    """Row-reduce in place; return pivot columns.

    Pivots are chosen as the first row with a nonzero entry in the current
    column, so the reduction is deterministic.
    """
    rows = len(entries)
    cols = len(entries[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if entries[i][c] != 0), None)
        if pivot is None:
            continue
        entries[r], entries[pivot] = entries[pivot], entries[r]
        inv = 1 / entries[r][c]
        entries[r] = [inv * x for x in entries[r]]
        for i in range(rows):
            if i != r and entries[i][c] != 0:
                factor = entries[i][c]
                entries[i] = [x - factor * y for x, y in zip(entries[i], entries[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def solve_linear(matrix: RationalMatrix, rhs_columns) -> list[Vector]:
    """Solve matrix * x = b exactly for each right-hand side b, with one
    elimination for all of them.

    The matrix needs full row rank, so at least as many columns as rows.
    Pivot columns are picked from left to right and every other coordinate
    of x is 0; a square invertible matrix gives its unique solution.

    Raises ValueError if the rows are dependent or a right-hand side has the
    wrong length.

    Examples
    ========

    >>> solve_linear(RationalMatrix([[1, 1, 0], [0, 0, 2]]), [(3, 4)])
    [(Fraction(3, 1), Fraction(0, 1), Fraction(2, 1))]
    """
    rows, cols = matrix.rows, matrix.cols
    columns = [as_vector(b) for b in rhs_columns]
    if any(len(b) != rows for b in columns):
        raise ValueError(f"right-hand side length differs from {rows} rows")
    work = [list(row) + [b[i] for b in columns] for i, row in enumerate(matrix.entries)]
    pivots = [c for c in _rref(work) if c < cols]
    if len(pivots) < rows:
        raise ValueError(
            f"singular matrix in solve_linear: rank {len(pivots)} < {rows} rows"
        )
    solutions = []
    for k in range(cols, cols + len(columns)):
        x = [Fraction(0)] * cols
        for row, c in zip(work, pivots):
            x[c] = row[k]
        solutions.append(tuple(x))
    return solutions
