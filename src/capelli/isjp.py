"""Interpolation polynomials: for each hook partition, the unique element of
the filtered compatible-polynomial space taking value |shape|! at the shape's
own shifted coordinates and vanishing at those of every other hook partition
of size up to |shape|."""

from __future__ import annotations

import math
from fractions import Fraction

from .exact_linalg import RationalMatrix, SolveResult, solve_linear
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

_CACHE: dict[tuple, SparsePolynomial] = {}


def characteristic_value(lam: Partition) -> int:
    """Normalization value at the shape's own coordinates: |shape| factorial."""
    return math.factorial(size(validate_partition(lam)))


def interpolation_polynomial(m: int, n: int, theta, lam) -> SparsePolynomial:
    """Build (and cache) the interpolation polynomial of a hook partition.

    Defined by: degree <= |lam|, lies in the compatible filtered space, value
    |lam|! at the shifted coordinates of lam, value 0 at those of every other
    hook partition of size <= |lam|.
    """
    theta = require_theta(theta)
    lam = require_hook(lam, m, n)
    key = (m, n, theta, lam)
    if key in _CACHE:
        return _CACHE[key]
    d = size(lam)
    basis = lambda_basis(m, n, theta, d)
    shapes = enumerate_hooks(m, n, d)
    nodes = [frobenius_coords(mu, m, n, theta) for mu in shapes]
    matrix = RationalMatrix([[poly.evaluate(node) for poly in basis] for node in nodes])
    rhs = [
        Fraction(characteristic_value(lam)) if mu == lam else Fraction(0)
        for mu in shapes
    ]
    solved = solve_linear(matrix, rhs)
    if solved.status != SolveResult.UNIQUE:
        raise ValueError("interpolation degenerate at this theta")
    result = SparsePolynomial.zero(m, n)
    for coef, poly in zip(solved.solution, basis):
        if coef:
            result = result + poly.scale(coef)
    _CACHE[key] = result
    return result


def eigenvalue(mu, lam, m: int, n: int, theta) -> Fraction:
    """Value of the interpolation polynomial of mu at the shifted coordinates
    of lam; the scalar through which the operator indexed by mu acts on the
    component indexed by lam."""
    poly = interpolation_polynomial(m, n, theta, mu)
    return poly.evaluate(frobenius_coords(lam, m, n, theta))
