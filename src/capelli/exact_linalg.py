"""Exact linear algebra over the rational numbers.

Everything in this package computes with `fractions.Fraction`; no floats are
ever introduced, so every comparison downstream is an exact equality.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Coerce an iterable of numbers into a tuple of Rationals."""
    return tuple(Fraction(v) for v in values)


def vec_add(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def vec_dot(u: Vector, v: Vector) -> Rational:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


class RationalMatrix:
    """Immutable dense matrix of Rationals."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(Fraction(x) for x in row) for row in entries)
        if rows:
            width = len(rows[0])
            if any(len(row) != width for row in rows):
                raise ValueError("ragged rows")
        else:
            width = 0
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        one, zero = Fraction(1), Fraction(0)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls([[Fraction(0)] * cols for _ in range(rows)])

    def __eq__(self, other):
        return isinstance(other, RationalMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        body = "; ".join(
            " ".join(format_rational(x) for x in row) for row in self.entries
        )
        return f"RationalMatrix({self.rows}x{self.cols}: {body})"

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def scale(self, c) -> "RationalMatrix":
        c = Fraction(c)
        return RationalMatrix([[c * x for x in row] for row in self.entries])

    def apply(self, vec) -> Vector:
        """Matrix-vector product."""
        vec = as_vector(vec)
        if self.cols != len(vec):
            raise ValueError(f"dimension mismatch in apply: {self.cols} vs {len(vec)}")
        return tuple(vec_dot(row, vec) for row in self.entries)


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


@dataclass(frozen=True)
class SolveResult:
    """Outcome of solve_linear: exactly one of three statuses."""

    status: str  # "unique" | "none" | "underdetermined"
    solution: Vector | None  # a solution when one exists, else None
    nullspace: tuple[Vector, ...]  # basis of the homogeneous solutions

    UNIQUE = "unique"
    NONE = "none"
    UNDERDETERMINED = "underdetermined"


def solve_linear(matrix: RationalMatrix, rhs) -> SolveResult:
    """Solve matrix * x = rhs exactly, reporting the solution-set shape."""
    rhs = as_vector(rhs)
    if matrix.rows != len(rhs):
        raise ValueError(
            f"dimension mismatch in solve_linear: {matrix.rows} vs {len(rhs)}"
        )
    work = [list(row) + [b] for row, b in zip(matrix.entries, rhs)]
    if not work:
        null = nullspace_basis(matrix)
        status = SolveResult.UNIQUE if not null else SolveResult.UNDERDETERMINED
        return SolveResult(status, (Fraction(0),) * matrix.cols, tuple(null))
    pivots = _rref(work)
    n = matrix.cols
    if n in pivots:
        return SolveResult(SolveResult.NONE, None, ())
    solution = [Fraction(0)] * n
    for row, col in zip(work, pivots):
        solution[col] = row[n]
    null = _nullspace_from_rref([row[:n] for row in work], pivots, n)
    if null:
        return SolveResult(SolveResult.UNDERDETERMINED, tuple(solution), tuple(null))
    return SolveResult(SolveResult.UNIQUE, tuple(solution), ())


def _nullspace_from_rref(entries, pivots, cols):
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * cols
        vec[f] = Fraction(1)
        for row, col in zip(entries, pivots):
            vec[col] = -row[f]
        basis.append(tuple(vec))
    return basis


def nullspace_basis(matrix: RationalMatrix) -> list[Vector]:
    """Deterministic basis of the kernel of matrix (free-column vectors).

    Examples
    ========

    >>> m = RationalMatrix([[1, 1, 0], [0, 0, 1]])
    >>> nullspace_basis(m)
    [(Fraction(-1, 1), Fraction(1, 1), Fraction(0, 1))]
    """
    if matrix.rows == 0:
        return [
            tuple(
                Fraction(1) if j == f else Fraction(0) for j in range(matrix.cols)
            )
            for f in range(matrix.cols)
        ]
    work = [list(row) for row in matrix.entries]
    pivots = _rref(work)
    return _nullspace_from_rref(work, pivots, matrix.cols)
