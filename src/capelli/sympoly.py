"""Sparse polynomials in two blocks of variables x_1..x_m, y_1..y_n: the
monomial form in which interpolation polynomials are handed out."""

from __future__ import annotations

import operator
from fractions import Fraction

from .exact_linalg import as_integer, as_rational, format_rational, integer_form


def integer_product(left: dict, right: dict) -> dict:
    """The product of two polynomials given as {exponents: integer
    coefficient}, with the coefficients that cancel to 0 left out."""
    sums: dict[tuple[int, ...], int] = {}
    for e1, a in left.items():
        for e2, b in right.items():
            exp = tuple(map(operator.add, e1, e2))
            sums[exp] = sums.get(exp, 0) + a * b
    return {exp: v for exp, v in sums.items() if v}


class SparsePolynomial:
    """Polynomial stored as {exponent tuple: nonzero Rational coefficient}.

    Exponent tuples have length num_x + num_y: the x-block first, then the
    y-block. Instances are treated as immutable.
    """

    __slots__ = ("num_x", "num_y", "terms")

    def __init__(self, num_x: int, num_y: int, terms=None):
        self.num_x = num_x
        self.num_y = num_y
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            width = num_x + num_y
            for exp, coef in terms.items():
                exp = tuple(as_integer(e, "exponent") for e in exp)
                if len(exp) != width:
                    raise ValueError(
                        f"exponent {exp} has length {len(exp)}, expected {width}"
                    )
                if any(e < 0 for e in exp):
                    raise ValueError(f"negative exponent in {exp}")
                clean[exp] = clean.get(exp, 0) + as_rational(coef, "coefficient")
        self.terms = {exp: coef for exp, coef in clean.items() if coef}

    @classmethod
    def _from_sums(cls, num_x: int, num_y: int, sums, den: int) -> "SparsePolynomial":
        """The polynomial with coefficients v / den over the integer sums
        {exp: v} that the library has built itself, with tuple exponents of
        the right length, so only the sums that cancelled to 0 are dropped."""
        poly = cls.__new__(cls)
        poly.num_x = num_x
        poly.num_y = num_y
        poly.terms = {exp: Fraction(v, den) for exp, v in sums.items() if v}
        return poly

    # -- basics ------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, SparsePolynomial)
            and (self.num_x, self.num_y) == (other.num_x, other.num_y)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.num_x, self.num_y, frozenset(self.terms.items())))

    def sorted_terms(self):
        """Terms in graded-lex order (by total degree, then exponent tuple)."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __repr__(self):
        bits = [f"{coef}*x^{exp}" for exp, coef in self.sorted_terms()]
        return f"SparsePolynomial({self.num_x},{self.num_y}: {' + '.join(bits) or '0'})"

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        if (self.num_x, self.num_y) != (other.num_x, other.num_y):
            raise ValueError("mixing polynomials over different variable blocks")
        den1, nums1 = integer_form(self.terms.values())
        den2, nums2 = integer_form(other.terms.values())
        sums = integer_product(
            dict(zip(self.terms, nums1)), dict(zip(other.terms, nums2))
        )
        return SparsePolynomial._from_sums(self.num_x, self.num_y, sums, den1 * den2)

    def to_json_dict(self) -> dict:
        return {
            "m": self.num_x,
            "n": self.num_y,
            "terms": [
                {"exp": list(exp), "coef": format_rational(coef)}
                for exp, coef in self.sorted_terms()
            ],
        }
