"""Exact linear algebra over the rational numbers.

Values are `fractions.Fraction`s, or integers over one denominator in lowest
terms (`integer_form`, `lowest_terms`); sums run in integers and no floats
are ever introduced, so every comparison downstream is an exact equality.
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


def integer_form(values) -> tuple[int, tuple[int, ...]]:
    """(den, nums): den is the LCM of the denominators of values, a sequence
    of Fractions or integers that is read twice, and nums[i] is values[i]
    times den, an integer: the form is in lowest terms.

    Examples
    ========

    >>> integer_form([Fraction(1, 2), Fraction(-2, 3), 5])
    (6, (3, -4, 30))
    """
    den = math.lcm(*(v.denominator for v in values))
    return den, tuple(v.numerator * (den // v.denominator) for v in values)


def lowest_terms(den: int, nums) -> tuple[int, tuple[int, ...]]:
    """The vector nums / den, den > 0, as (den, nums) divided by their gcd,
    so two forms are equal exactly when the vectors are.

    Examples
    ========

    >>> lowest_terms(12, [6, -4, 0])
    (6, (3, -2, 0))
    """
    gcd = math.gcd(den, *nums)
    return den // gcd, tuple(v // gcd for v in nums)


def format_vector(values) -> list[str]:
    """Render each entry of a vector with `format_rational`."""
    return [format_rational(v) for v in values]


class Frozen:
    """Base of the library's immutable values. A subclass names its fields in
    `__slots__` and sets them with `object.__setattr__` in `__init__`; two
    values are equal when their types and fields are, and hash by their
    fields."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return type(other) is type(self) and self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())


class RationalMatrix(Frozen):
    """Immutable dense matrix of Rationals."""

    __slots__ = ("rows", "cols", "entries")

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

    def __repr__(self):
        body = "; ".join(
            " ".join(format_rational(x) for x in row) for row in self.entries
        )
        return f"RationalMatrix({self.rows}x{self.cols}: {body})"


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
    # Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968)
    # on the augmented rows, each scaled to integers. Every entry stays a
    # minor of the augmented matrix, so each division by the previous pivot
    # is exact, and at the end every pivot row holds the last pivot on its
    # own pivot column and 0 on the others.
    work = [
        integer_form(row + tuple(b[i] for b in columns))[1]
        for i, row in enumerate(matrix.entries)
    ]
    pivots: list[int] = []
    last = 1
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        top = work[r]
        p = top[c]
        for i, row in enumerate(work):
            if i != r:
                f = row[c]
                work[i] = [(p * x - f * y) // last for x, y in zip(row, top)]
        pivots.append(c)
        last = p
    if len(pivots) < rows:
        raise ValueError(
            f"singular matrix in solve_linear: rank {len(pivots)} < {rows} rows"
        )
    solutions = []
    for k in range(cols, cols + len(columns)):
        x = [Fraction(0)] * cols
        for row, c in zip(work, pivots):
            x[c] = Fraction(row[k], last)
        solutions.append(tuple(x))
    return solutions
