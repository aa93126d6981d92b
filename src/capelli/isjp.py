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
import operator
from fractions import Fraction
from functools import lru_cache

from .exact_linalg import RationalMatrix, integer_form, solve_linear
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
    """(polys, nodes): polys maps each hook partition of size d to its
    interpolation polynomial, and nodes maps each hook rho of size <= d to
    (point, powers, row): its shifted coordinates, the values of p_1..p_d
    there as a tuple of numerators and one of denominators, and the values
    P_kappa(rho) over the hooks kappa with |kappa| < |rho| as integers over
    one denominator. The smaller sizes come from this cache, so each size
    computes the point and p_1..p_d only at its own nodes, and p_d at the
    smaller ones.

    P_kappa vanishes at every other node of size <= |kappa| and takes |kappa|!
    at its own, so walking the smaller nodes by size, each top product p_nu,
    |nu| = d, gets coefficients a_nu with r_nu = p_nu - sum a_nu,kappa P_kappa
    zero on them; a_nu is kept as integers over one denominator, so each
    residual is one integer dot product. One solve at the nodes of size d
    picks the combination sum c_nu r_nu of each shape; its pivot products
    are taken from left to right and the others left at 0, so only products
    with c_nu != 0 are expanded into monomials."""
    lower = [_polynomials_of_size(m, n, theta, s) for s in range(d)]
    below = {kappa: poly for polys, _ in lower for kappa, poly in polys.items()}
    shapes = enumerate_hooks(m, n, d)[len(below):]
    sums = [deformed_power_sum(m, n, theta, r) for r in range(1, d + 1)]
    at_top = Evaluator(m, n, sums[-1:])
    nodes = {}
    for rho, (point, (nums, dens), row) in (lower[-1][1] if lower else {}).items():
        (p_d,) = at_top(point)
        nodes[rho] = (point, (nums + (p_d.numerator,), dens + (p_d.denominator,)), row)
    at_sums = Evaluator(m, n, sums)
    at_below = Evaluator(m, n, below.values())
    for rho in shapes:
        point = frobenius_coords(rho, m, n, theta)
        values = at_sums(point)
        powers = (
            tuple(v.numerator for v in values),
            tuple(v.denominator for v in values),
        )
        nodes[rho] = (point, powers, integer_form(at_below(point)))
    products = [nu for nu in enumerate_partitions(d, d) if size(nu) == d]

    def residual_row(nu):
        """a_nu over the smaller nodes as (denominator, numerators), then
        r_nu at each node of size d."""
        parts = [r - 1 for r in nu]
        den, a = 1, []

        def residual(rho, divisor=1):
            """(p_nu - sum a_nu,kappa P_kappa)(rho) / divisor: the sum is one
            integer dot product over den times the row's denominator."""
            _, (nums, dens), (row_den, row) = nodes[rho]
            top = math.prod(map(nums.__getitem__, parts))
            bottom = math.prod(map(dens.__getitem__, parts))
            row_den *= den
            dot = sum(map(operator.mul, a, row))
            return Fraction(top * row_den - dot * bottom, bottom * row_den * divisor)

        for polys, _ in lower:
            scale, layer = integer_form(
                [residual(rho, characteristic_value(rho)) for rho in polys]
            )
            common = math.lcm(den, scale)
            a = [v * (common // den) for v in a]
            a += [v * (common // scale) for v in layer]
            den = common
        return (den, a), [residual(rho) for rho in shapes]

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
        # -sum_nu c_nu a_nu in integers: the c over their common denominator
        # times the LCM of the a_nu denominators.
        scale, factors = integer_form([c for c, _, _ in used])
        common = math.lcm(*(den for _, _, (den, _) in used))
        factors = [f * (common // den) for f, (_, _, (den, _)) in zip(factors, used)]
        scale *= common
        lowered = [
            Fraction(-sum(map(operator.mul, factors, column)), scale)
            for column in zip(*(a for _, _, (_, a) in used))
        ]
        polys[lam] = SparsePolynomial.combination(
            m,
            n,
            [c for c, _, _ in used] + lowered,
            [expand(nu) for _, nu, _ in used] + list(below.values()),
        )
    return polys, nodes


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
