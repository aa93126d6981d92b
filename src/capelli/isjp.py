"""Interpolation polynomials: for each hook partition, the unique element of
the filtered compatible-polynomial space taking value |shape|! at the shape's
own shifted coordinates and vanishing at those of every other hook partition
of size up to |shape|.

The space of degree <= d is spanned by the products of deformed power sums
p_nu with |nu| <= d, and the polynomials of size below d span its part of
degree < d. So each size is built on the smaller ones (Newton
interpolation, as in the binomial formula): each top product p_nu, |nu| = d,
less its interpolant on the smaller nodes vanishes on them, and one small
solve at the nodes of size d combines these residuals."""

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
from .sympoly import Evaluator, SparsePolynomial, deformed_power_sum

# Sizes whose polynomials stay cached; each entry holds every polynomial of
# one size for one (m, n, theta), with the smaller ones' values at its nodes.
CACHED_SIZES = 64


def characteristic_value(lam: Partition) -> int:
    """Normalization value at the shape's own coordinates: |shape| factorial."""
    return math.factorial(size(validate_partition(lam)))


@lru_cache(maxsize=CACHED_SIZES)
def _polynomials_of_size(m: int, n: int, theta, d: int):
    """(polys, values): polys maps each hook partition of size d to its
    interpolation polynomial, and values maps each hook rho of size d to
    {kappa: P_kappa(rho)} over the hooks kappa with |kappa| < d. The smaller
    sizes come from this cache.

    P_kappa vanishes at every other node of size <= |kappa| and takes |kappa|!
    at its own, so walking the smaller nodes by size, each top product p_nu,
    |nu| = d, gets coefficients a_nu with r_nu = p_nu - sum a_nu,kappa P_kappa
    zero on them. One solve at the nodes of size d picks the combination
    sum c_nu r_nu of each shape; its pivot products are taken from left to
    right and the others left at 0, so only products with c_nu != 0 are
    expanded into monomials."""
    lower = [_polynomials_of_size(m, n, theta, s) for s in range(d)]
    below = {kappa: poly for polys, _ in lower for kappa, poly in polys.items()}
    nodes = enumerate_hooks(m, n, d)
    shapes = nodes[len(below):]
    points = {rho: frobenius_coords(rho, m, n, theta) for rho in nodes}
    at_below = Evaluator(m, n, below.values())
    values = {rho: dict(zip(below, at_below(points[rho]))) for rho in shapes}
    sums = [deformed_power_sum(m, n, theta, r) for r in range(1, d + 1)]
    at_sums = Evaluator(m, n, sums)
    powers = {rho: at_sums(points[rho]) for rho in nodes}
    products = [nu for nu in enumerate_partitions(d, d) if size(nu) == d]

    # The nonzero values of the smaller polynomials at every node.
    known = {
        rho: [(kappa, v) for kappa, v in table[rho].items() if v]
        for table in [entry[1] for entry in lower] + [values]
        for rho in table
    }

    def residual_row(nu):
        """a_nu over the smaller nodes, then r_nu at each node of size d."""
        top = {rho: math.prod(powers[rho][r - 1] for r in nu) for rho in nodes}
        a = {}

        def residual(rho):
            return top[rho] - sum(a[kappa] * v for kappa, v in known[rho])

        for rho in below:
            a[rho] = residual(rho) / characteristic_value(rho)
        return a, [residual(rho) for rho in shapes]

    coefficients, columns = zip(*map(residual_row, products))
    rhs = [
        [characteristic_value(lam) if rho == lam else 0 for rho in shapes]
        for lam in shapes
    ]
    try:
        solutions = solve_linear(RationalMatrix(zip(*columns)), rhs)
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
        used = [(c, nu, a) for c, nu, a in zip(coefs, products, coefficients) if c]
        lowered = [-sum(c * a[kappa] for c, _, a in used) for kappa in below]
        polys[lam] = SparsePolynomial.combination(
            m,
            n,
            [c for c, _, _ in used] + lowered,
            [expand(nu) for _, nu, _ in used] + list(below.values()),
        )
    return polys, values


def interpolation_polynomial(m: int, n: int, theta, lam) -> SparsePolynomial:
    """The interpolation polynomial of a hook partition, cached with every
    other polynomial of its size.

    Defined by: degree <= |lam|, lies in the compatible filtered space, value
    |lam|! at the shifted coordinates of lam, value 0 at those of every other
    hook partition of size <= |lam|.
    """
    theta = require_theta(theta)
    lam = require_hook(lam, m, n)
    return _polynomials_of_size(m, n, theta, size(lam))[0][lam]


def eigenvalue(mu, lam, m: int, n: int, theta) -> Fraction:
    """Value of the interpolation polynomial of mu at the shifted coordinates
    of lam; the scalar through which the operator indexed by mu acts on the
    component indexed by lam."""
    poly = interpolation_polynomial(m, n, theta, mu)
    return poly.evaluate(frobenius_coords(lam, m, n, theta))
