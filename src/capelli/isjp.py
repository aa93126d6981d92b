"""Interpolation polynomials: for each hook partition, the unique element of
the filtered compatible-polynomial space taking value |shape|! at the shape's
own shifted coordinates and vanishing at those of every other hook partition
of size up to |shape|.

The space of degree <= d is spanned by the products p_nu of deformed power
sums with |nu| <= d, and the polynomials of size below d span its part of
degree < d. So each size is built on the smaller ones (Newton
interpolation, as in the binomial formula): each top product p_nu, |nu| = d,
less its interpolant on the smaller nodes vanishes on them, and one small
solve at the nodes of size d combines these residuals.

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
    frobenius_coords,
    require_hook,
    require_theta,
    size,
    validate_partition,
)
from .sympoly import SparsePolynomial

# Sizes whose polynomials stay cached; each entry holds every polynomial of
# one size for one (m, n, theta), with the smaller ones' values at its nodes.
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
    xs, ys = (
        [sum(v**k for v in block) for k in range(d + 1)]
        for block in (ints[:m], ints[m:])
    )
    q = [
        sum((a * xs[k] + b * ys[k]) * powers[r - k] for k, (a, b) in enumerate(pairs))
        for r, pairs in enumerate(entry.sums, 1)
    ]
    values = [powers[d]]
    for parent, r in entry.layout:
        values.append(values[parent] // powers[r] * q[r - 1])
    return powers[d], values


def evaluator(m: int, n: int, theta, shapes):
    """values_at(den, nums): the values of the interpolation polynomials of
    shapes at the point nums / den of length m + n, as a row (den, nums) in
    lowest terms. A call takes every product once, and each value as one
    integer dot product with the polynomial's coordinates over one den."""
    theta = require_theta(theta)
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
    """The entry of size d. coords maps each hook partition of size d to its
    coordinates (den, nums); nodes maps each hook rho of size <= d to its
    shifted coordinates and the values P_kappa(rho), |kappa| < |rho|, each as
    (den, nums) in lowest terms; sums holds Q_1..Q_d as pairs (a_k, b_k) of
    the coefficients of x^k and y^k; layout holds (parent, last part) of each
    nonempty product; polys and products keep `interpolation_polynomial`'s
    expansions. The smaller sizes come from this cache, so each size
    computes only its own nodes and Q_d.

    P_kappa vanishes at every other node of size <= |kappa| and takes |kappa|!
    at its own, so walking the smaller nodes by size, each top product Q_nu,
    |nu| = d, gets coefficients a_nu with r_nu = Q_nu - sum a_nu,kappa P_kappa
    zero on them; a_nu is kept as integers over one denominator, so each
    residual is one integer dot product. One solve at the nodes of size d
    picks the combination sum c_nu r_nu of each shape; its pivot products
    are taken from left to right and the others left at 0."""
    lower = [_polynomials_of_size(m, n, theta, s) for s in range(d)]
    below = [form for entry in lower for form in entry.coords.values()]
    shapes = enumerate_hooks(m, n, d)[len(below) :]
    products = list(enumerate_partitions(d, d))
    first = sum(1 for nu in products if size(nu) < d)
    entry = SimpleNamespace(
        coords={}, nodes={}, sums=[], layout=[], polys={}, products=None
    )
    if lower:
        xs, ys = power_sum_coefficients(theta, d)
        _, nums = integer_form(xs + ys)
        index = {nu: i for i, nu in enumerate(products)}
        entry.nodes = dict(lower[-1].nodes)
        entry.sums = lower[-1].sums + [list(zip(nums[: len(xs)], nums[len(xs) :]))]
        entry.layout = lower[-1].layout + [
            (index[nu[:-1]], nu[-1]) for nu in products[first:]
        ]
    for rho in shapes:
        entry.nodes[rho] = (integer_form(frobenius_coords(rho, m, n, theta)), None)
    # The smaller polynomials' coordinates over one denominator, once per size.
    common = math.lcm(*(den for den, _ in below))
    scaled = [[x * (common // den) for x in nums] for den, nums in below]
    # Per node: the top products' values over bottom, and the node's row.
    at = {}
    for rho, (point, row) in entry.nodes.items():
        bottom, values = _product_values(entry, *point, m)
        if row is None:
            row = lowest_terms(
                common * bottom, [sum(map(operator.mul, c, values)) for c in scaled]
            )
            entry.nodes[rho] = (point, row)
        at[rho] = (values[first:], bottom, row)

    def residual_row(j):
        """a_nu of the j-th top product over the smaller nodes as
        (denominator, numerators), then r_nu at each node of size d."""
        den, a = 1, []

        def residual(rho, divisor=1):
            """(Q_nu - sum a_nu,kappa P_kappa)(rho) / divisor: the sum is one
            integer dot product over den times the row's denominator."""
            values, bottom, (row_den, row) = at[rho]
            row_den *= den
            dot = sum(map(operator.mul, a, row))
            return Fraction(
                values[j] * row_den - dot * bottom, bottom * row_den * divisor
            )

        for s, smaller in enumerate(lower):  # each P_kappa of size s is s! at kappa
            scale, layer = integer_form(
                [residual(rho, math.factorial(s)) for rho in smaller.coords]
            )
            lcm = math.lcm(den, scale)
            a = [v * (lcm // den) for v in a]
            a += [v * (lcm // scale) for v in layer]
            den = lcm
        return (den, a), [residual(rho) for rho in shapes]

    coefficients, columns = zip(*map(residual_row, range(len(products) - first)))
    # One integer row per node, its right-hand side scaled with it.
    forms = [integer_form(row) for row in zip(*columns)]
    rhs = [
        [
            scale * characteristic_value(lam) if rho == lam else 0
            for rho, (scale, _) in zip(shapes, forms)
        ]
        for lam in shapes
    ]
    try:
        den, solutions = solve_linear([row for _, row in forms], rhs)
    except ValueError as error:
        raise ValueError(
            f"power-sum products do not reach the hook count {len(entry.nodes)} "
            f"for (m,n,theta,degree)=({m},{n},{theta},{d}): {error}"
        ) from None

    # Per product of size < d, the smaller polynomials' coordinates on it.
    on_product = list(zip_longest(*scaled, fillvalue=0))
    for lam, coefs in zip(shapes, solutions):
        used = [(c, j, a) for j, (c, a) in enumerate(zip(coefs, coefficients)) if c]
        # P_lam = sum_nu c_nu Q_nu - sum_kappa (sum_nu c_nu a_nu,kappa) P_kappa
        # in integers: the c over their common denominator, times the LCM of
        # the a_nu denominators, times common.
        scale, factors = lowest_terms(den, [c for c, _, _ in used])
        lcm = math.lcm(*(den for _, _, (den, _) in used))
        lowered = [f * (lcm // den) for f, (_, _, (den, _)) in zip(factors, used)]
        lowered = [
            sum(map(operator.mul, lowered, column))
            for column in zip(*(a for _, _, (_, a) in used))
        ]
        nums = [-sum(map(operator.mul, lowered, on)) for on in on_product]
        nums += [0] * (len(products) - first)
        for f, (_, j, _) in zip(factors, used):
            nums[first + j] = f * lcm * common
        entry.coords[lam] = lowest_terms(scale * lcm * common, nums)
    return entry


def _expanded_products(m: int, n: int, theta, d: int) -> list:
    """Every product Q_nu, |nu| <= d, in order, as (polynomial, exponents,
    integer coefficients): made on the first call for size d, each as a
    smaller product times one Q_r, and kept in the size's cache entry."""
    entry = _polynomials_of_size(m, n, theta, d)
    if entry.products is None and not d:
        one = SparsePolynomial.constant(m, n, 1)
        entry.products = [(one, list(one.terms), [1])]
    elif entry.products is None:
        made = list(_expanded_products(m, n, theta, d - 1))
        terms = {}
        for v in range(m + n):
            for k, pair in enumerate(entry.sums[-1]):
                exp = tuple(k if u == v else 0 for u in range(m + n))
                terms[exp] = terms.get(exp, 0) + pair[v >= m]
        power = SparsePolynomial(m, n, terms)
        # Q_(r) is the product laid out as (0, r).
        single = {r: i + 1 for i, (parent, r) in enumerate(entry.layout) if not parent}
        for parent, r in entry.layout[len(made) - 1 :]:
            poly = made[parent][0] * (made[single[r]][0] if r < d else power)
            # Products of the integer Q_r have integer coefficients.
            nums = [c.numerator for c in poly.terms.values()]
            made.append((poly, list(poly.terms), nums))
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
    lam = require_hook(lam, m, n)
    entry = _polynomials_of_size(m, n, theta, size(lam))
    if lam not in entry.polys:
        den, nums = entry.coords[lam]
        sums: dict[tuple[int, ...], int] = {}
        products = _expanded_products(m, n, theta, size(lam))
        for c, (_, exps, coefs) in zip(nums, products):
            if c:
                for exp, v in zip(exps, coefs):
                    sums[exp] = sums.get(exp, 0) + c * v
        entry.polys[lam] = SparsePolynomial._from_sums(m, n, sums, den)
    return entry.polys[lam]


def eigenvalue(mu, lam, m: int, n: int, theta) -> Fraction:
    """Value of the interpolation polynomial of mu at the shifted coordinates
    of lam; the scalar through which the operator indexed by mu acts on the
    component indexed by lam."""
    point = integer_form(frobenius_coords(lam, m, n, theta))
    den, (value,) = evaluator(m, n, theta, [mu])(*point)
    return Fraction(value, den)
