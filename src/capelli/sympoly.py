"""Sparse polynomials in two blocks of variables x_1..x_m, y_1..y_n, and the
deformed shifted power sums, whose products span the block-symmetric
polynomials that are shift-compatible on every hyperplane x_i = -theta*y_j."""

from __future__ import annotations

import math
from fractions import Fraction

from .exact_linalg import as_vector
from .partitions import require_theta


class SparsePolynomial:
    """Polynomial stored as {exponent tuple: nonzero Rational coefficient}.

    Exponent tuples have length num_x + num_y: the x-block first, then the
    y-block. Instances are treated as immutable, so the integer form that
    `evaluate` builds on its first call is never invalidated.
    """

    __slots__ = ("num_x", "num_y", "terms", "_scaled")

    def __init__(self, num_x: int, num_y: int, terms=None):
        self.num_x = num_x
        self.num_y = num_y
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            width = num_x + num_y
            for exp, coef in terms.items():
                exp = tuple(int(e) for e in exp)
                if len(exp) != width:
                    raise ValueError(
                        f"exponent {exp} has length {len(exp)}, expected {width}"
                    )
                if any(e < 0 for e in exp):
                    raise ValueError(f"negative exponent in {exp}")
                coef = Fraction(coef)
                if coef:
                    clean[exp] = clean.get(exp, Fraction(0)) + coef
                    if not clean[exp]:
                        del clean[exp]
        self.terms = clean
        self._scaled = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, num_x: int, num_y: int, value) -> "SparsePolynomial":
        return cls(num_x, num_y, {(0,) * (num_x + num_y): Fraction(value)})

    @classmethod
    def combination(cls, num_x: int, num_y: int, coefs, polys) -> "SparsePolynomial":
        """The linear combination sum of c * p over paired coefs and polys;
        pairs with c = 0 are skipped.

        The sum runs in integers over one common denominator, the LCM of
        each c's denominator times its polynomial's; only the result's
        coefficients are Fractions."""
        scaled = []
        for c, poly in zip(coefs, polys):
            c = Fraction(c)
            if not c:
                continue
            den = math.lcm(*(coef.denominator for coef in poly.terms.values()))
            scaled.append((c, den, poly))
        common = math.lcm(*(c.denominator * den for c, den, _ in scaled))
        sums: dict[tuple[int, ...], int] = {}
        for c, den, poly in scaled:
            factor = c.numerator * (common // (c.denominator * den))
            for exp, coef in poly.terms.items():
                term = coef.numerator * (den // coef.denominator) * factor
                sums[exp] = sums.get(exp, 0) + term
        return cls(num_x, num_y, {exp: Fraction(v, common) for exp, v in sums.items()})

    # -- basics ------------------------------------------------------------

    def _check_shape(self, other: "SparsePolynomial"):
        if (self.num_x, self.num_y) != (other.num_x, other.num_y):
            raise ValueError("mixing polynomials over different variable blocks")

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

    def __add__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        self._check_shape(other)
        terms = dict(self.terms)
        for exp, coef in other.terms.items():
            terms[exp] = terms.get(exp, Fraction(0)) + coef
        return SparsePolynomial(self.num_x, self.num_y, terms)

    def __sub__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        return self + other.scale(-1)

    def scale(self, value) -> "SparsePolynomial":
        value = Fraction(value)
        return SparsePolynomial(
            self.num_x,
            self.num_y,
            {exp: value * coef for exp, coef in self.terms.items()},
        )

    def __mul__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        self._check_shape(other)
        terms: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                terms[exp] = terms.get(exp, Fraction(0)) + c1 * c2
        return SparsePolynomial(self.num_x, self.num_y, terms)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, point) -> Fraction:
        """Exact value at a point of length num_x + num_y.

        The sum runs in integers: the coefficients over their common
        denominator, the point over the LCM of its denominators, and one
        table of integer powers. Terms of degree k carry the factor
        scale^(top - k), so only the result is a Fraction."""
        point = as_vector(point)
        if len(point) != self.num_x + self.num_y:
            raise ValueError(
                f"point has length {len(point)}, expected {self.num_x + self.num_y}"
            )
        if self._scaled is None:
            self._scaled = self._integer_form()
        den, top, groups = self._scaled
        scale = math.lcm(*(v.denominator for v in point))
        powers = []
        for v in point:
            a = v.numerator * (scale // v.denominator)
            powers.extend(a**e for e in range(top + 1))
        lookup = powers.__getitem__
        total = 0
        for group in groups:
            total = total * scale + sum(
                math.prod(map(lookup, slots), start=coef) for coef, slots in group
            )
        return Fraction(total, den * scale**top)

    def _integer_form(self):
        """(den, top, groups): den is the LCM of the coefficient denominators,
        top the total degree (0 for the zero polynomial), and groups[k] lists,
        for each term of degree k, its integer numerator coef * den and the
        positions of its variable powers in a table of top + 1 powers per
        variable."""
        den = math.lcm(*(coef.denominator for coef in self.terms.values()))
        top = max((sum(exp) for exp in self.terms), default=0)
        groups = [[] for _ in range(top + 1)]
        for exp, coef in self.terms.items():
            slots = tuple(i * (top + 1) + e for i, e in enumerate(exp) if e)
            groups[sum(exp)].append((coef.numerator * (den // coef.denominator), slots))
        return den, top, groups

    def to_json_dict(self) -> dict:
        from .exact_linalg import format_rational

        return {
            "m": self.num_x,
            "n": self.num_y,
            "terms": [
                {"exp": list(exp), "coef": format_rational(coef)}
                for exp, coef in self.sorted_terms()
            ],
        }


def deformed_power_sum(m: int, n: int, theta, r: int) -> SparsePolynomial:
    """The deformed shifted power sum p_r = sum_i x_i^r + sum_j psi_r(y_j).

    With D g(t) = g(t + 1/2) - g(t - 1/2), psi_r is the polynomial with
    psi_r(0) = 0 and D psi_r(y) = D(x^r) at x = -theta*y, so p_r is
    shift-compatible on every hyperplane x_i = -theta*y_j (Sergeev-Veselov,
    Comm. Math. Phys. 245, 2004). Its r coefficients solve a triangular
    system: D(y^k) has degree k - 1 and leading coefficient k."""
    theta = require_theta(theta)
    if r < 1:
        raise ValueError(f"power sum index must be positive, got {r}")

    def diff(k: int, j: int) -> Fraction:
        """Coefficient of t^j in D(t^k): only odd k - j survive."""
        return Fraction(math.comb(k, j), 2 ** (k - j - 1)) if (k - j) % 2 else 0

    psi = [Fraction(0)] * (r + 1)
    for j in range(r - 1, -1, -1):
        rest = sum(psi[k] * diff(k, j) for k in range(j + 2, r + 1))
        psi[j + 1] = (diff(r, j) * (-theta) ** j - rest) / (j + 1)
    width = m + n
    terms = {}
    for i in range(m):
        terms[tuple(r if v == i else 0 for v in range(width))] = 1
    for j in range(m, width):
        for k in range(1, r + 1):
            terms[tuple(k if v == j else 0 for v in range(width))] = psi[k]
    return SparsePolynomial(m, n, terms)
