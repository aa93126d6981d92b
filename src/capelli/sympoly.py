"""Sparse polynomials in two blocks of variables x_1..x_m, y_1..y_n, the
block-symmetry and shift-compatibility predicates, and the filtered basis of
polynomials satisfying both."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .exact_linalg import RationalMatrix, nullspace_basis
from .partitions import enumerate_hooks, enumerate_partitions, require_theta


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

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, num_x: int, num_y: int) -> "SparsePolynomial":
        return cls(num_x, num_y, {})

    @classmethod
    def constant(cls, num_x: int, num_y: int, value) -> "SparsePolynomial":
        return cls(num_x, num_y, {(0,) * (num_x + num_y): Fraction(value)})

    @classmethod
    def variable(cls, num_x: int, num_y: int, index: int) -> "SparsePolynomial":
        """The variable with 0-based index into the combined block list."""
        width = num_x + num_y
        if not 0 <= index < width:
            raise ValueError(f"variable index {index} out of range")
        exp = tuple(1 if k == index else 0 for k in range(width))
        return cls(num_x, num_y, {exp: Fraction(1)})

    # -- basics ------------------------------------------------------------

    def _check_shape(self, other: "SparsePolynomial"):
        if (self.num_x, self.num_y) != (other.num_x, other.num_y):
            raise ValueError("mixing polynomials over different variable blocks")

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(exp) for exp in self.terms)

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

    def power(self, k: int) -> "SparsePolynomial":
        if k < 0:
            raise ValueError("negative power")
        result = SparsePolynomial.constant(self.num_x, self.num_y, 1)
        for _ in range(k):
            result = result * self
        return result

    # -- evaluation and substitution ----------------------------------------

    def evaluate(self, point) -> Fraction:
        """Exact value at a point of length num_x + num_y."""
        point = tuple(Fraction(v) for v in point)
        if len(point) != self.num_x + self.num_y:
            raise ValueError(
                f"point has length {len(point)}, expected {self.num_x + self.num_y}"
            )
        total = Fraction(0)
        for exp, coef in self.terms.items():
            value = coef
            for base, e in zip(point, exp):
                if e:
                    value *= base**e
            total += value
        return total

    def shift_variable(self, index: int, amount) -> "SparsePolynomial":
        """Substitute variable[index] -> variable[index] + amount."""
        amount = Fraction(amount)
        if not amount:
            return self
        terms: dict[tuple[int, ...], Fraction] = {}
        for exp, coef in self.terms.items():
            e = exp[index]
            for k in range(e + 1):
                new_exp = exp[:index] + (k,) + exp[index + 1 :]
                add = coef * math.comb(e, k) * amount ** (e - k)
                terms[new_exp] = terms.get(new_exp, Fraction(0)) + add
        return SparsePolynomial(self.num_x, self.num_y, terms)

    def collapse_variable(self, index: int, scalar, target: int) -> "SparsePolynomial":
        """Substitute variable[index] -> scalar * variable[target]."""
        scalar = Fraction(scalar)
        terms: dict[tuple[int, ...], Fraction] = {}
        for exp, coef in self.terms.items():
            e = exp[index]
            new = list(exp)
            new[index] = 0
            new[target] += e
            key = tuple(new)
            terms[key] = terms.get(key, Fraction(0)) + coef * scalar**e
        return SparsePolynomial(self.num_x, self.num_y, terms)

    def swap_variables(self, a: int, b: int) -> "SparsePolynomial":
        terms = {}
        for exp, coef in self.terms.items():
            new = list(exp)
            new[a], new[b] = new[b], new[a]
            terms[tuple(new)] = coef
        return SparsePolynomial(self.num_x, self.num_y, terms)

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


def monomial_symmetric(num_x: int, num_y: int, alpha, beta) -> SparsePolynomial:
    """Product of the monomial symmetric polynomial of shape alpha in the
    x-block with the one of shape beta in the y-block."""
    alpha = tuple(alpha)
    beta = tuple(beta)
    if len(alpha) > num_x or len(beta) > num_y:
        raise ValueError("shape has more parts than variables")
    x_exps = _distinct_permutations(alpha + (0,) * (num_x - len(alpha)))
    y_exps = _distinct_permutations(beta + (0,) * (num_y - len(beta)))
    terms = {}
    for xe in x_exps:
        for ye in y_exps:
            terms[xe + ye] = Fraction(1)
    return SparsePolynomial(num_x, num_y, terms)


def _distinct_permutations(values):
    return sorted(set(itertools.permutations(values)))


def is_separately_symmetric(poly: SparsePolynomial) -> bool:
    """True iff invariant under permutations within each block (checked on
    adjacent transpositions, which generate both symmetric groups)."""
    m, n = poly.num_x, poly.num_y
    for a in range(m - 1):
        if poly.swap_variables(a, a + 1) != poly:
            return False
    for b in range(n - 1):
        if poly.swap_variables(m + b, m + b + 1) != poly:
            return False
    return True


def monoidal_defect(
    poly: SparsePolynomial, theta, i: int = 1, j: int = 1
) -> SparsePolynomial:
    """Obstruction to shift-compatibility on the hyperplane x_i = -theta*y_j:
    the difference f(.., x_i + 1/2, .., y_j - 1/2, ..) - f(.., x_i - 1/2, ..,
    y_j + 1/2, ..) restricted to that hyperplane. Zero iff compatible there.

    i and j are 1-based block indices.
    """
    theta = require_theta(theta)
    m, n = poly.num_x, poly.num_y
    if not (1 <= i <= m and 1 <= j <= n):
        raise ValueError(f"pair ({i},{j}) out of range for ({m},{n})")
    xi = i - 1
    yj = m + j - 1
    half = Fraction(1, 2)
    plus = poly.shift_variable(xi, half).shift_variable(yj, -half)
    minus = poly.shift_variable(xi, -half).shift_variable(yj, half)
    return (plus - minus).collapse_variable(xi, -theta, yj)


def satisfies_monoidal_symmetry(
    poly: SparsePolynomial, theta, all_pairs: bool = False
) -> bool:
    """Shift-compatibility check; block-symmetric polynomials only need the
    (1,1) pair, all_pairs=True checks every pair exhaustively."""
    m, n = poly.num_x, poly.num_y
    if m == 0 or n == 0:
        return True
    pairs = (
        [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
        if all_pairs
        else [(1, 1)]
    )
    return all(monoidal_defect(poly, theta, i, j).is_zero() for i, j in pairs)


def _generator_shapes(m: int, n: int, max_degree: int):
    alphas = list(enumerate_partitions(max_degree, m)) if m else [()]
    betas = list(enumerate_partitions(max_degree, n)) if n else [()]
    pairs = [
        (a, b) for a in alphas for b in betas if sum(a) + sum(b) <= max_degree
    ]
    pairs.sort(key=lambda ab: (sum(ab[0]) + sum(ab[1]), ab[0], ab[1]))
    return pairs


def lambda_basis(m: int, n: int, theta, max_degree: int) -> tuple[SparsePolynomial, ...]:
    """Deterministic basis, up to total degree max_degree, of the space of
    block-symmetric polynomials that are shift-compatible on every hyperplane
    x_i = -theta*y_j. Its size equals the number of (m|n)-hook partitions of
    size <= max_degree."""
    return _lambda_basis_cached(int(m), int(n), require_theta(theta), int(max_degree))


@lru_cache(maxsize=None)
def _lambda_basis_cached(
    m: int, n: int, theta: Fraction, max_degree: int
) -> tuple[SparsePolynomial, ...]:
    generators = [
        monomial_symmetric(m, n, a, b) for a, b in _generator_shapes(m, n, max_degree)
    ]
    if m == 0 or n == 0:
        basis = tuple(generators)
    else:
        defects = [monoidal_defect(g, theta) for g in generators]
        exps = sorted({exp for d in defects for exp in d.terms})
        if exps:
            matrix = RationalMatrix(
                [[d.terms.get(exp, Fraction(0)) for d in defects] for exp in exps]
            )
        else:
            matrix = RationalMatrix.zero(1, len(defects))
        coords = nullspace_basis(matrix)
        basis = []
        for vec in coords:
            poly = SparsePolynomial.zero(m, n)
            for c, g in zip(vec, generators):
                if c:
                    poly = poly + g.scale(c)
            basis.append(poly)
        basis = tuple(basis)
    expected = len(enumerate_hooks(m, n, max_degree))
    if len(basis) != expected:
        raise ValueError(
            f"basis dimension {len(basis)} != hook count {expected} "
            f"for (m,n,theta,degree)=({m},{n},{theta},{max_degree})"
        )
    return basis
