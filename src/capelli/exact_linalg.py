"""Exact linear algebra over the rational numbers.

A vector of rationals is kept as integers over one denominator in lowest
terms (`integer_form`, `lowest_terms`); no floats are ever introduced, so
every comparison downstream is an exact equality.
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


def as_rational(value, what: str) -> Rational:
    """value, or its text, as a Rational, kept if it is a Fraction already;
    raises ValueError naming a float, whose binary value is seldom the number
    meant."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise ValueError(f"{what} {value!r} is a float, not an exact rational")
    return parse_rational(value) if isinstance(value, str) else Fraction(value)


def as_integer(value, what: str) -> int:
    """value as an int, raising ValueError naming it unless it is whole; an
    infinity or a NaN is not."""
    try:
        whole = int(value)
    except (OverflowError, ValueError):
        raise ValueError(f"{what} {value!r} is not an integer") from None
    if whole != value:
        raise ValueError(f"{what} {value!r} is not an integer")
    return whole


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
    """The vector nums / den, den nonzero, as (den > 0, nums) divided by their
    gcd signed as den, so two forms are equal exactly when the vectors are.

    Examples
    ========

    >>> lowest_terms(12, [6, -4, 0])
    (6, (3, -2, 0))
    """
    gcd = math.gcd(den, *nums) if den > 0 else -math.gcd(den, *nums)
    if gcd == 1:
        return den, tuple(nums)
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

