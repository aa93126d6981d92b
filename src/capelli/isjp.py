"""Interpolation polynomials: for each hook partition, the unique element of
the filtered compatible-polynomial space taking value |shape|! at the shape's
own shifted coordinates and vanishing at those of every other hook partition
of size up to |shape|. The space of degree <= d is spanned by the products of
deformed power sums p_nu with |nu| <= d, so each size takes one elimination
over the node values of those products."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exact_linalg import RationalMatrix, solve_linear
from .partitions import (
    Partition,
    enumerate_hooks,
    enumerate_partitions,
    frobenius_coords,
    require_hook,
    require_theta,
    size,
    validate_partition,
)
from .sympoly import SparsePolynomial, deformed_power_sum

# Sizes whose polynomials stay cached; each entry holds every polynomial of
# one size for one (m, n, theta).
CACHED_SIZES = 64


def characteristic_value(lam: Partition) -> int:
    """Normalization value at the shape's own coordinates: |shape| factorial."""
    return math.factorial(size(validate_partition(lam)))


@lru_cache(maxsize=CACHED_SIZES)
def _polynomials_of_size(m: int, n: int, theta, d: int) -> dict:
    """The interpolation polynomial of every hook partition of size d, from
    one solve over the nodes of size <= d with one right-hand side per shape.

    The unknowns are the coefficients of the power-sum products p_nu, |nu| <= d,
    in graded order. The solve picks pivot products from left to right and
    leaves the others at 0, so only pivots with a nonzero coefficient are
    expanded into monomials."""
    sums = [deformed_power_sum(m, n, theta, r) for r in range(1, d + 1)]
    products = list(enumerate_partitions(d, d))
    nodes = enumerate_hooks(m, n, d)
    rows = []
    for mu in nodes:
        point = frobenius_coords(mu, m, n, theta)
        powers = [None] + [p.evaluate(point) for p in sums]
        value = {(): Fraction(1)}
        for nu in products[1:]:
            value[nu] = value[nu[:-1]] * powers[nu[-1]]
        rows.append([value[nu] for nu in products])
    shapes = [lam for lam in nodes if size(lam) == d]
    rhs = [
        [characteristic_value(lam) if mu == lam else 0 for mu in nodes]
        for lam in shapes
    ]
    try:
        solutions = solve_linear(RationalMatrix(rows), rhs)
    except ValueError as error:
        raise ValueError(
            f"power-sum products do not reach the hook count {len(nodes)} "
            f"for (m,n,theta,degree)=({m},{n},{theta},{d}): {error}"
        ) from None

    expanded = {(): SparsePolynomial.constant(m, n, 1)}

    def expand(nu):
        if nu not in expanded:
            expanded[nu] = expand(nu[:-1]) * sums[nu[-1] - 1]
        return expanded[nu]

    polys = {}
    for lam, coefs in zip(shapes, solutions):
        used = [(c, nu) for c, nu in zip(coefs, products) if c]
        polys[lam] = SparsePolynomial.combination(
            m, n, [c for c, _ in used], [expand(nu) for _, nu in used]
        )
    return polys


def interpolation_polynomial(m: int, n: int, theta, lam) -> SparsePolynomial:
    """The interpolation polynomial of a hook partition, cached with every
    other polynomial of its size.

    Defined by: degree <= |lam|, lies in the compatible filtered space, value
    |lam|! at the shifted coordinates of lam, value 0 at those of every other
    hook partition of size <= |lam|.
    """
    theta = require_theta(theta)
    lam = require_hook(lam, m, n)
    return _polynomials_of_size(m, n, theta, size(lam))[lam]


def eigenvalue(mu, lam, m: int, n: int, theta) -> Fraction:
    """Value of the interpolation polynomial of mu at the shifted coordinates
    of lam; the scalar through which the operator indexed by mu acts on the
    component indexed by lam."""
    poly = interpolation_polynomial(m, n, theta, mu)
    return poly.evaluate(frobenius_coords(lam, m, n, theta))
