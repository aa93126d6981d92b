"""Interpolation polynomials: for each hook partition, the unique element of
the filtered compatible-polynomial space taking value |shape|! at the shape's
own shifted coordinates and vanishing at those of every other hook partition
of size up to |shape|."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exact_linalg import RationalMatrix, solve_linear
from .partitions import (
    Partition,
    enumerate_hooks,
    frobenius_coords,
    require_hook,
    require_theta,
    size,
    validate_partition,
)
from .sympoly import SparsePolynomial, lambda_basis

# Sizes whose polynomials stay cached; each entry holds every polynomial of
# one size for one (m, n, theta).
CACHED_SIZES = 64


def characteristic_value(lam: Partition) -> int:
    """Normalization value at the shape's own coordinates: |shape| factorial."""
    return math.factorial(size(validate_partition(lam)))


@lru_cache(maxsize=CACHED_SIZES)
def _polynomials_of_size(m: int, n: int, theta, d: int) -> dict:
    """The interpolation polynomial of every hook partition of size d, from
    one solve over the nodes of size <= d with one right-hand side per shape."""
    basis = lambda_basis(m, n, theta, d)
    nodes = enumerate_hooks(m, n, d)
    points = [frobenius_coords(mu, m, n, theta) for mu in nodes]
    matrix = RationalMatrix([[poly.evaluate(p) for poly in basis] for p in points])
    shapes = [lam for lam in nodes if size(lam) == d]
    rhs = [
        [characteristic_value(lam) if mu == lam else 0 for mu in nodes]
        for lam in shapes
    ]
    return {
        lam: SparsePolynomial.combination(m, n, coefs, basis)
        for lam, coefs in zip(shapes, solve_linear(matrix, rhs))
    }


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
