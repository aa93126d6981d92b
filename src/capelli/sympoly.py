"""Sparse polynomials in two blocks of variables x_1..x_m, y_1..y_n, and the
deformed shifted power sums, whose products span the block-symmetric
polynomials that are shift-compatible on every hyperplane x_i = -theta*y_j."""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .exact_linalg import as_vector, integer_form
from .partitions import require_theta


class SparsePolynomial:
    """Polynomial stored as {exponent tuple: nonzero Rational coefficient}.

    Exponent tuples have length num_x + num_y: the x-block first, then the
    y-block. Instances are treated as immutable, so the evaluator that
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

    @classmethod
    def _from_sums(cls, num_x: int, num_y: int, sums, den: int) -> "SparsePolynomial":
        """The polynomial with coefficients v / den over the integer sums
        {exp: v} that the library has built itself, with tuple exponents of
        the right length, so only the sums that cancelled to 0 are dropped."""
        poly = cls.__new__(cls)
        poly.num_x = num_x
        poly.num_y = num_y
        poly.terms = {exp: Fraction(v, den) for exp, v in sums.items() if v}
        poly._scaled = None
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, num_x: int, num_y: int, value) -> "SparsePolynomial":
        return cls(num_x, num_y, {(0,) * (num_x + num_y): Fraction(value)})

    @classmethod
    def combination(cls, num_x: int, num_y: int, coefs, polys) -> "SparsePolynomial":
        """The linear combination sum of c * p over paired coefs and polys;
        pairs with c = 0 are skipped.

        The sum runs in integers over the coefficients' common denominator
        times that of the polynomials; only the result's coefficients are
        Fractions."""
        pairs = []
        for c, poly in zip(as_vector(coefs), polys):
            if (poly.num_x, poly.num_y) != (num_x, num_y):
                raise ValueError("mixing polynomials over different variable blocks")
            if c:
                pairs.append((c, poly, *integer_form(poly.terms.values())))
        scale, factors = integer_form([c for c, _, _, _ in pairs])
        common = math.lcm(*(den for _, _, den, _ in pairs))
        sums: dict[tuple[int, ...], int] = {}
        for factor, (_, poly, den, nums) in zip(factors, pairs):
            factor *= common // den
            for exp, num in zip(poly.terms, nums):
                sums[exp] = sums.get(exp, 0) + num * factor
        return cls._from_sums(num_x, num_y, sums, scale * common)

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
        den1, nums1 = integer_form(self.terms.values())
        den2, nums2 = integer_form(other.terms.values())
        sums: dict[tuple[int, ...], int] = {}
        for e1, a in zip(self.terms, nums1):
            for e2, b in zip(other.terms, nums2):
                exp = tuple(map(operator.add, e1, e2))
                sums[exp] = sums.get(exp, 0) + a * b
        return SparsePolynomial._from_sums(self.num_x, self.num_y, sums, den1 * den2)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, point) -> Fraction:
        """Exact value at a point of length num_x + num_y, through an
        `Evaluator` over this polynomial alone, built on the first call."""
        if self._scaled is None:
            self._scaled = Evaluator(self.num_x, self.num_y, [self])
        return self._scaled(point)[0]

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


class Evaluator:
    """The values of several polynomials over the same variable blocks at
    one point, in integer arithmetic.

    It holds the union of their monomials, the top degree, and each
    polynomial's coefficients as integers over its own common denominator.
    A call scales the point to integers over the LCM of its denominators and
    computes each monomial's integer value once, times scale^(top - degree),
    so only the returned values are Fractions."""

    __slots__ = ("width", "top", "monomials", "forms")

    def __init__(self, num_x: int, num_y: int, polys):
        polys = list(polys)
        if any((p.num_x, p.num_y) != (num_x, num_y) for p in polys):
            raise ValueError("mixing polynomials over different variable blocks")
        self.width = num_x + num_y
        index: dict[tuple[int, ...], int] = {}
        for poly in polys:
            for exp in poly.terms:
                index.setdefault(exp, len(index))
        self.top = top = max((sum(exp) for exp in index), default=0)
        # Per monomial: its degree's scale exponent and the positions of its
        # variable powers in a table of top + 1 powers per variable.
        self.monomials = [
            (top - sum(exp), tuple(i * (top + 1) + e for i, e in enumerate(exp) if e))
            for exp in index
        ]
        self.forms = []
        for poly in polys:
            den, nums = integer_form(poly.terms.values())
            self.forms.append((den, [index[exp] for exp in poly.terms], nums))

    def __call__(self, point) -> tuple[Fraction, ...]:
        point = as_vector(point)
        if len(point) != self.width:
            raise ValueError(f"point has length {len(point)}, expected {self.width}")
        top = self.top
        scale, ints = integer_form(point)
        powers = []
        for a in ints:
            powers.extend(a**e for e in range(top + 1))
        lookup = powers.__getitem__
        scales = [scale**e for e in range(top + 1)]
        values = [
            math.prod(map(lookup, slots), start=scales[shift])
            for shift, slots in self.monomials
        ]
        lookup = values.__getitem__
        out = []
        for den, positions, coefs in self.forms:
            total = sum(map(operator.mul, coefs, map(lookup, positions)))
            out.append(Fraction(total, den * scales[top]))
        return tuple(out)


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
