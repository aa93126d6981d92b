"""Interpolation polynomials: for each hook partition, the unique element of
the filtered compatible-polynomial space taking value |shape|! at the shape's
own shifted coordinates and vanishing at those of every other hook partition
of size up to |shape|.

The space of degree <= d is spanned by the products p_nu of deformed power
sums with |nu| <= d, and the polynomials of size below d span its part of
degree < d. So each size is built on the smaller ones (Newton
interpolation, as in the binomial formula): each top product p_nu, |nu| = d,
less its interpolant on the smaller nodes vanishes on them, and one small
solve at the nodes of size d combines these residuals, kept as coordinates.
All of it runs on small integers over one denominator per vector: a Newton
step is one integer combination, and the solve's columns are divided by
their gcds.

A polynomial is kept as its coordinates over the products Q_nu of the power
sums scaled to integer coefficients, Q_r = E_r p_r, ordered as
`enumerate_partitions` lists nu, so that a smaller size's coordinates are a
prefix. Every value is taken from the coordinates; only
`interpolation_polynomial` expands them into monomials."""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from types import SimpleNamespace

from .exact_linalg import integer_form, lowest_terms, solve_linear
from .partitions import (
    Partition,
    enumerate_hooks,
    enumerate_partitions,
    node_point,
    require_hook,
    require_rank,
    require_theta,
    size,
    validate_partition,
)
from .sympoly import SparsePolynomial, integer_product

# Sizes whose polynomials stay cached; each entry holds every polynomial of
# one size for one (m, n, theta), with every node's point up to that size.
CACHED_SIZES = 64


def characteristic_value(lam: Partition) -> int:
    """Normalization value at the shape's own coordinates: |shape| factorial."""
    return math.factorial(size(validate_partition(lam)))


def power_sum_coefficients(theta, r: int):
    """(x, y): the coefficients of t^0..t^r in the one-variable parts of the
    deformed shifted power sum p_r = sum_i x_i^r + sum_j psi_r(y_j).

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
    return (0,) * r + (1,), tuple(psi)


def _product_values(entry, scale: int, ints, m: int) -> tuple[int, list[int]]:
    """(scale^d, values): values[i] is the i-th product Q_nu, |nu| <= d, at
    the point ints / scale times scale^d, where d is the entry's size.

    With X, Y the point's integer blocks, scale^r Q_r is
    sum_k (a_k sum_i X_i^k + b_k sum_j Y_j^k) scale^(r - k), and each
    product is a smaller one times one of these, divided by scale^r."""
    d = len(entry.sums)
    powers = [scale**k for k in range(d + 1)]
    # Column k of a block sums its k-th powers, each a running product.
    xs, ys = [0] * (d + 1), [0] * (d + 1)
    for i, v in enumerate(ints):
        sums, power = xs if i < m else ys, 1
        for k in range(d + 1):
            sums[k] += power
            power *= v
    q = [
        sum((a * xs[k] + b * ys[k]) * powers[r - k] for k, a, b in terms)
        for r, terms in enumerate(entry.sums, 1)
    ]
    values = [powers[d]]
    for parent, r in entry.layout:
        values.append(values[parent] // powers[r] * q[r - 1])
    return powers[d], values


def _power_sum_terms(theta, r: int) -> list:
    """Q_r as triples (k, a_k, b_k), its nonzero coefficients of x^k and y^k."""
    xs, ys = power_sum_coefficients(theta, r)
    _, nums = integer_form(xs + ys)
    return [(k, a, b) for k, a, b in zip(range(r + 1), nums, nums[r + 1 :]) if a or b]


def power_sums(m: int, n: int, theta, d: int):
    """sums_at(den, nums): Q_1..Q_d at the point nums / den of length m + n
    as a row (den, nums) in lowest terms, by `_product_values` on the Q_(r).
    Each P_mu, |mu| <= d, is a polynomial in them: equal rows, equal values."""
    terms = [_power_sum_terms(theta, r) for r in range(1, d + 1)]
    entry = SimpleNamespace(sums=terms, layout=[(0, r) for r in range(1, d + 1)])

    def sums_at(den: int, nums) -> tuple[int, tuple[int, ...]]:
        if len(nums) != m + n:
            raise ValueError(f"point has length {len(nums)}, expected {m + n}")
        scale, values = _product_values(entry, den, nums, m)
        return lowest_terms(scale, values[1:])

    return sums_at


def evaluator(m: int, n: int, theta, shapes):
    """values_at(den, nums): the values of the interpolation polynomials of
    shapes at the point nums / den of length m + n, as a row (den, nums) in
    lowest terms. A call takes every product once, and each value as one
    integer dot product with the polynomial's coordinates over one den."""
    theta = require_theta(theta)
    m, n = require_rank(m, n)
    shapes = [require_hook(lam, m, n) for lam in shapes]
    entry = _polynomials_of_size(m, n, theta, max(map(size, shapes), default=0))
    forms = [_polynomials_of_size(m, n, theta, size(lam)).coords[lam] for lam in shapes]
    common = math.lcm(*(den for den, _ in forms))
    forms = [[x * (common // den) for x in nums] for den, nums in forms]

    def values_at(den: int, nums) -> tuple[int, tuple[int, ...]]:
        if len(nums) != m + n:
            raise ValueError(f"point has length {len(nums)}, expected {m + n}")
        scale, values = _product_values(entry, den, nums, m)
        return lowest_terms(
            common * scale, [sum(map(operator.mul, c, values)) for c in forms]
        )

    return values_at


@lru_cache(maxsize=CACHED_SIZES)
def _polynomials_of_size(m: int, n: int, theta, d: int):
    """The entry of size d: coords maps each hook of size d to its coordinates
    (den, nums), and points each hook of size <= d to its shifted coordinates
    (den, nums); sums holds Q_1..Q_d as triples (k, a_k, b_k), the nonzero
    coefficients of x^k and y^k, and layout each nonempty product's (parent,
    last part); polys and products keep `interpolation_polynomial`'s
    expansions. Smaller sizes come from this cache, so each size computes
    only its own points.

    Each top product Q_nu, |nu| = d, less its interpolant on the smaller
    nodes is a residual r_nu, kept as coordinates: integers over one den on
    the smaller products, and den on Q_nu. P_kappa vanishes at every other
    node of size <= |kappa| and is |kappa|! at its own, so subtracting
    r_nu(kappa) / s! P_kappa for each kappa of size s, for s = 0..d-1 in
    turn, makes r_nu vanish on every smaller node. Each size s is one step:
    its polynomials, with each node's bottom and s! folded in, are integer
    columns over one denominator, and the step is r_nu's values at the
    size-s nodes, one integer combination and one `lowest_terms`. One solve
    at the nodes of size d, on columns divided by their gcds, picks each
    shape's sum c_nu r_nu, its pivots from the left."""
    lower = [_polynomials_of_size(m, n, theta, s) for s in range(d)]
    shapes = enumerate_hooks(m, n, d)[sum(len(entry.coords) for entry in lower) :]
    products = list(enumerate_partitions(d, d))
    first = sum(1 for nu in products if size(nu) < d)
    entry = SimpleNamespace(
        coords={}, points={}, sums=[], layout=[], polys={}, products=None
    )
    if lower:
        index = {nu: i for i, nu in enumerate(products)}
        entry.points = dict(lower[-1].points)
        entry.sums = lower[-1].sums + [_power_sum_terms(theta, d)]
        entry.layout = lower[-1].layout + [
            (index[nu[:-1]], nu[-1]) for nu in products[first:]
        ]
    entry.points.update({rho: node_point(rho, m, n, theta) for rho in shapes})
    at = {rho: _product_values(entry, *point, m) for rho, point in entry.points.items()}

    def value(rho, j, den, low):
        # r_nu(rho) * den * bottom for the j-th top product; low ends below s.
        values = at[rho][1]
        return sum(map(operator.mul, low, values)) + den * values[first + j]

    # Each smaller size's P_kappa / (bottom * s!) over one denominator, as
    # rows: row i holds every kappa's i-th coordinate.
    steps = []
    for s, smaller in enumerate(lower):
        scaled = [
            lowest_terms(p * at[kappa][0] * math.factorial(s), nums)
            for kappa, (p, nums) in smaller.coords.items()
        ]
        common = math.lcm(*(den for den, _ in scaled))
        rows = zip(*([x * (common // den) for x in nums] for den, nums in scaled))
        steps.append((list(smaller.coords), common, list(rows)))
    residuals = []
    for j in range(len(products) - first):
        den, low = 1, ()
        for kappas, common, rows in steps:
            # r_nu - sum r_nu(kappa) / s! P_kappa, over den * common.
            vs = [value(kappa, j, den, low) for kappa in kappas]
            pairs = zip_longest(low, rows, fillvalue=0)
            nums = [x * common - sum(map(operator.mul, vs, row)) for x, row in pairs]
            den, low = lowest_terms(den * common, nums)
        residuals.append((den, low))
    # One integer row per node in lowest terms, r_nu(rho) * den_nu over the
    # row's den, its right-hand side scaled with it. Column nu, divided by its
    # gcd g_nu, solves for y_nu = g_nu * c_nu / den_nu.
    forms = [
        lowest_terms(at[rho][0], [value(rho, j, *r) for j, r in enumerate(residuals)])
        for rho in shapes
    ]
    gcds = [math.gcd(*column) or 1 for column in zip(*(row for _, row in forms))]
    rhs = [[0] * len(shapes) for _ in shapes]
    for i, (lam, (scale, _)) in enumerate(zip(shapes, forms)):
        rhs[i][i] = scale * characteristic_value(lam)
    try:
        den, solutions = solve_linear(
            [[x // g for x, g in zip(row, gcds)] for _, row in forms], rhs
        )
    except ValueError as error:
        raise ValueError(
            f"power-sum products do not reach the hook count {len(entry.points)} "
            f"for (m,n,theta,degree)=({m},{n},{theta},{d}): {error}"
        ) from None
    # P_lam = sum c_nu r_nu = sum (y_nu / g_nu) (den_nu Q_nu + low_nu): one
    # integer combination over lcm(g) and the den of y in lowest terms, which
    # is far smaller than the solve's.
    common = math.lcm(*gcds)
    lows = list(zip(*(low for _, low in residuals)))
    for lam, solution in zip(shapes, solutions):
        scale, ys = lowest_terms(den, solution)
        factors = [y * (common // g) for y, g in zip(ys, gcds)]
        entry.coords[lam] = lowest_terms(
            scale * common,
            [sum(map(operator.mul, factors, column)) for column in lows]
            + [f * r for f, (r, _) in zip(factors, residuals)],
        )
    return entry


def _expanded_products(m: int, n: int, theta, d: int) -> list:
    """Every product Q_nu, |nu| <= d, in order, as {exponents: integer
    coefficient}: made on the first call for size d, each as a smaller
    product times one Q_r, and kept in the size's cache entry."""
    entry = _polynomials_of_size(m, n, theta, d)
    if entry.products is None and not d:
        entry.products = [{(0,) * (m + n): 1}]
    elif entry.products is None:
        made = list(_expanded_products(m, n, theta, d - 1))
        power = {}
        for v in range(m + n):
            for k, *pair in entry.sums[-1]:
                exp = tuple(k if u == v else 0 for u in range(m + n))
                power[exp] = power.get(exp, 0) + pair[v >= m]
        power = {exp: c for exp, c in power.items() if c}
        # Q_(r) is the product laid out as (0, r).
        single = {r: i + 1 for i, (parent, r) in enumerate(entry.layout) if not parent}
        for parent, r in entry.layout[len(made) - 1 :]:
            factor = made[single[r]] if r < d else power
            made.append(integer_product(made[parent], factor))
        entry.products = made
    return entry.products


def interpolation_polynomial(m: int, n: int, theta, lam) -> SparsePolynomial:
    """The interpolation polynomial of a hook partition, expanded into
    monomials from its coordinates on the first request and cached with every
    other polynomial of its size.

    Defined by: degree <= |lam|, lies in the compatible filtered space, value
    |lam|! at the shifted coordinates of lam, value 0 at those of every other
    hook partition of size <= |lam|.
    """
    theta = require_theta(theta)
    m, n = require_rank(m, n)
    lam = require_hook(lam, m, n)
    entry = _polynomials_of_size(m, n, theta, size(lam))
    if lam not in entry.polys:
        den, nums = entry.coords[lam]
        sums: dict[tuple[int, ...], int] = {}
        for c, product in zip(nums, _expanded_products(m, n, theta, size(lam))):
            if c:
                for exp, v in product.items():
                    sums[exp] = sums.get(exp, 0) + c * v
        entry.polys[lam] = SparsePolynomial._from_sums(m, n, sums, den)
    return entry.polys[lam]


def eigenvalue(mu, lam, m: int, n: int, theta) -> Fraction:
    """Value of the interpolation polynomial of mu at the shifted coordinates
    of lam; the scalar through which the operator indexed by mu acts on the
    component indexed by lam."""
    theta = require_theta(theta)
    m, n = require_rank(m, n)
    point = node_point(require_hook(lam, m, n), m, n, theta)
    den, (value,) = evaluator(m, n, theta, [mu])(*point)
    return Fraction(value, den)
