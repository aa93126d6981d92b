"""Interpolation polynomials: for each hook partition, the unique element of
the filtered compatible-polynomial space taking value |shape|! at the shape's
own shifted coordinates and vanishing at those of every other hook partition
of size up to |shape|.

Every rank reads one table per theta = p/q through `_sums_reader`, the one
path from a point to its power sums q_r. At the node of any hook lam, q_r =
(2pq)^r E_r sum_i ((lam_i - theta(i - 1/2))^r - (-theta(i - 1/2))^r) is an
integer and reads lam's rows alone (Sergeev-Veselov, Comm. Math. Phys. 245,
2004). So the table interpolates at every partition, and each size is built on
the smaller ones (Newton interpolation): each top product q_nu, |nu| = d, less
its interpolant on the smaller nodes vanishes on them, and one Gauss-Jordan
elimination at the partitions of size d combines these residuals, all in small
integers. A polynomial is kept as its coordinates over the products q_nu, in
`enumerate_partitions` order, so a smaller size's are a prefix; only
`interpolation_polynomial` expands them into monomials. The deformed power sums
themselves come from one closed-form series per theta, in integers."""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from types import SimpleNamespace

from .exact_linalg import lowest_terms
from .partitions import (
    Partition,
    enumerate_partitions,
    node_point,
    require_hook,
    require_rank,
    require_theta,
    size,
    validate_partition,
)
from .sympoly import SparsePolynomial, integer_product

# Bound of the one cache, and so the largest size built: a build reads its
# predecessor, which reads its own. An entry is one size of one theta's table.
CACHED_SIZES = 64


def characteristic_value(lam: Partition) -> int:
    """Normalization value at the shape's own coordinates: |shape| factorial."""
    return math.factorial(size(validate_partition(lam)))


def _power_sum_terms(theta, d: int) -> list:
    """Q_1..Q_d from one series for theta = p/q, Q_r = E_r p_r as triples
    (k, a_k, b_k): its nonzero integer coefficients of x^k and y^k. In p_r =
    sum_i x_i^r + sum_j psi_r(y_j), psi_r(0) = 0 and D psi_r(y) = D(x^r) at
    x = -theta*y for D g(t) = g(t + 1/2) - g(t - 1/2), so p_r is
    shift-compatible on every hyperplane x_i = -theta*y_j. As D =
    2 sinh(d/dt / 2), psi_r[j] = (-1)^(r+1) C(r, j) p^j g_(r-j) / (2^(r-j) q^r)
    for j >= 1 with r - j even, where sum g_k v^k / k! = sinh(qv) / sinh(pv):
    n p g_(n-1) = q^n - sum_(odd i >= 3) C(n, i) p^i g_(n-i) for odd n. g_2m is
    an integer over p^(m+1) (2m+1)!!, so each g is kept over one such den."""
    p, q, odd = theta.numerator, theta.denominator, range(1, d + 1, 2)
    den = p ** len(odd) * math.prod(odd)
    g = []  # g[m] = g_2m * den
    for n in odd:
        rest = sum(math.comb(n, i) * p**i * g[(n - i) // 2] for i in range(3, n + 1, 2))
        g.append((q**n * den - rest) // (n * p))
    terms = []
    for r in range(1, d + 1):
        ys = [0] * (r + 1)
        for j in range(r, 0, -2):
            ys[j] = (-1) ** (r + 1) * math.comb(r, j) * (2 * p) ** j * g[(r - j) // 2]
        # psi_r = ys / ((2q)^r den); its lowest terms are (E_r, E_r psi_r).
        e, ys = lowest_terms((2 * q) ** r * den, ys)
        terms.append([(k, e * (k == r), b) for k, b in enumerate(ys) if b or k == r])
    return terms


def _moves(m: int, n: int, theta) -> tuple[int, list[int]]:
    """(2pq, moves), theta = p/q: delta = (n - theta*m)/2, -delta/theta over 2pq."""
    p, q = theta.numerator, theta.denominator
    return 2 * p * q, [p * (n * q - m * p)] * m + [q * (m * p - n * q)] * n


def _sums_reader(m: int, n: int, theta, terms):
    """sums_at(den, nums) -> (den, q): the one path from a point nums / den of
    rank (m, n) to its power sums q_1..q_d for terms Q_1..Q_d, in lowest
    terms. q_r = (2pq)^r (T_delta (Q - Q(empty node)))_r, T_delta[r][k] =
    C(r, k) delta^(r - k) E_r / E_k, is (2pq)^r times Q_r at the moved point
    less at the moved empty node, whose Q_r are taken once, here."""
    unit, moves = _moves(m, n, theta)
    d = len(terms)

    def moved(den: int, nums) -> tuple[int, list[int]]:
        # (scale / 2pq, Q_r(moved point) * scale^r), scale = lcm(den, 2pq):
        # column k sums v^k over a block's moved v, one power per coordinate.
        scale, xs, ys = math.lcm(den, unit), [0] * (d + 1), [0] * (d + 1)
        for i, (v, move) in enumerate(zip(nums, moves)):
            column, v, power = ys if i >= m else xs, v * (scale // den), 1
            v += move * (scale // unit)
            for k in range(d + 1):
                column[k] += power
                power *= v
        return scale // unit, [
            sum((a * xs[k] + b * ys[k]) * scale ** (r - k) for k, a, b in rterms)
            for r, rterms in enumerate(terms, 1)
        ]

    _, empty = moved(*node_point((), m, n, theta))

    def sums_at(den: int, nums) -> tuple[int, tuple[int, ...]]:
        if len(nums) != m + n:
            raise ValueError(f"point has length {len(nums)}, expected {m + n}")
        t, q = moved(den, nums)
        q = [(x - e * t**r) * t ** (d - r) for r, (x, e) in enumerate(zip(q, empty), 1)]
        return lowest_terms(t**d, q)

    return sums_at


def _products(layout, den: int, q) -> list[int]:
    """The products q_nu laid out as (parent, last part) after the empty one,
    each over den^d, for q = q_1..q_d over den."""
    values = [den ** len(q)]
    for parent, r in layout:
        values.append(values[parent] // den * q[r - 1])
    return values


def power_sums(m: int, n: int, theta, d: int):
    """sums_at(den, nums): q_1..q_d at a point of rank (m, n) in lowest terms,
    by `_sums_reader`. Each P_mu, |mu| <= d, is a polynomial in them."""
    return _sums_reader(m, n, theta, _power_sum_terms(theta, d))


def evaluator(m: int, n: int, theta, shapes):
    """values_at(den, nums): the values of the interpolation polynomials of
    shapes at the point nums / den of length m + n, as a row (den, nums) in
    lowest terms. A call takes every product once, and each value as one
    integer dot product with the polynomial's coordinates over one den."""
    theta = require_theta(theta)
    m, n = require_rank(m, n)
    shapes = [require_hook(lam, m, n) for lam in shapes]
    entry = _polynomials_of_size(theta, max(map(size, shapes), default=0))
    forms = [_polynomials_of_size(theta, size(lam)).coords[lam] for lam in shapes]
    common = math.lcm(*(den for den, _ in forms))
    forms = [[x * (common // den) for x in nums] for den, nums in forms]
    sums_at = _sums_reader(m, n, theta, entry.sums)

    def values_at(den: int, nums) -> tuple[int, tuple[int, ...]]:
        values = _products(entry.layout, *sums_at(den, nums))
        return lowest_terms(
            common * values[0], [sum(map(operator.mul, c, values)) for c in forms]
        )

    return values_at


@lru_cache(maxsize=CACHED_SIZES)
def _polynomials_of_size(theta, d: int):
    """The table's entry of size d: coords maps each partition of size d to
    its coordinates (den, nums), points each partition rho of size <= d to its
    node at rank (len(rho), 0), sums holds Q_1..Q_d, layout each nonempty
    product's (parent, last part), steps each size's Newton step, and polys
    and products each rank's expansions. It reads only size d - 1 from this
    cache and carries that entry's points, sums, layout and steps forward.

    Every node's point is over a divisor of 2pq, so its products are integers.
    Each top product q_nu, |nu| = d, less its interpolant on the smaller nodes
    is a residual r_nu, kept as coordinates: integers over one den on the
    smaller products, and den on q_nu. P_kappa vanishes at every other node of
    size <= |kappa| and is |kappa|! at its own, so subtracting r_nu(kappa) /
    s! P_kappa for each kappa of size s, for s = 0..d-1 in turn, makes r_nu
    vanish on every smaller node. Each size s is one step: its polynomials,
    with s! folded in, are integer columns over one denominator, and the step
    is r_nu's values at the size-s nodes, one integer combination and one
    `lowest_terms`. At the nodes of size d, one Gauss-Jordan elimination of
    the residuals' integer rows, each combination divided by its gcd, picks
    each shape's sum c_nu r_nu; a size with no pivot at some node raises
    ValueError."""
    if d > CACHED_SIZES:
        raise ValueError(f"size {d} exceeds CACHED_SIZES = {CACHED_SIZES}")
    products = enumerate_partitions(d, d)
    first = sum(1 for nu in products if size(nu) < d)
    shapes = products[first:]
    entry = SimpleNamespace(
        coords={}, points={}, sums=[], layout=[], steps=[], polys={}, products={}
    )
    if d:
        previous = _polynomials_of_size(theta, d - 1)
        index = {nu: i for i, nu in enumerate(products)}
        entry.points = dict(previous.points)
        entry.sums = previous.sums + _power_sum_terms(theta, d)[-1:]
        entry.layout = previous.layout + [(index[nu[:-1]], nu[-1]) for nu in shapes]
        entry.steps = list(previous.steps)
    entry.points.update({rho: node_point(rho, len(rho), 0, theta) for rho in shapes})
    readers = [_sums_reader(k, 0, theta, entry.sums) for k in range(d + 1)]
    at = {
        rho: _products(entry.layout, *readers[len(rho)](*point))
        for rho, point in entry.points.items()
    }

    def value(rho, j, den, low):
        # r_nu(rho) * den for the j-th top product; low ends below s.
        return sum(map(operator.mul, low, at[rho])) + den * at[rho][first + j]

    residuals = []
    for j in range(len(shapes)):
        den, low = 1, ()
        for kappas, common, rows in entry.steps:
            # r_nu - sum r_nu(kappa) / s! P_kappa, over den * common.
            vs = [value(kappa, j, den, low) for kappa in kappas]
            pairs = zip_longest(low, rows, fillvalue=0)
            nums = [x * common - sum(map(operator.mul, vs, row)) for x, row in pairs]
            den, low = lowest_terms(den * common, nums)
        residuals.append((den, low))
    # One integer row per top product nu: den_nu r_nu at the size-d nodes,
    # then nu's unit row. Gauss-Jordan elimination, each combination
    # a row - b pivot divided by its gcd, leaves row k as v at node k alone
    # and e after: sum e_nu den_nu r_nu is v at node k and 0 at the others.
    count = len(shapes)
    rows = [
        [value(rho, j, *r) for rho in shapes] + [int(i == j) for i in range(count)]
        for j, r in enumerate(residuals)
    ]
    for k, rho in enumerate(shapes):
        pivot = next((i for i in range(k, count) if rows[i][k]), None)
        if pivot is None:
            raise ValueError(
                f"power-sum products do not separate the {count} partitions "
                f"for (theta,degree)=({theta},{d}): no pivot at node {rho}"
            )
        rows[k], rows[pivot] = rows[pivot], rows[k]
        top = rows[k]
        for i, row in enumerate(rows):
            if i != k and row[k]:
                g = math.gcd(top[k], row[k])
                a, b = top[k] // g, row[k] // g
                row = [a * x - b * y for x, y in zip(row, top)]
                g = math.gcd(*row)
                rows[i] = [x // g for x in row]
    # P_lam = |lam|! / v sum e_nu (den_nu q_nu + low_nu): integers over v.
    lows = list(zip(*(low for _, low in residuals)))
    for k, (lam, row) in enumerate(zip(shapes, rows)):
        v, e = row[k], row[count:]
        scale = characteristic_value(lam) * (-1 if v < 0 else 1)
        entry.coords[lam] = lowest_terms(
            abs(v),
            [scale * sum(map(operator.mul, e, column)) for column in lows]
            + [scale * x * den for x, (den, _) in zip(e, residuals)],
        )
    # This size's step: each P_lam / d! over one denominator, as rows: row i
    # holds every lam's i-th coordinate.
    scaled = [lowest_terms(p * math.factorial(d), x) for p, x in entry.coords.values()]
    common = math.lcm(*(den for den, _ in scaled))
    rows = zip(*([x * (common // den) for x in nums] for den, nums in scaled))
    entry.steps.append((shapes, common, list(rows)))
    return entry


def _expanded_products(m: int, n: int, theta, d: int) -> list:
    """Every product q_nu, |nu| <= d, at rank (m, n), in order, as
    {exponents: integer coefficient}: made on the first call for size d, each
    as a smaller product times one q_r, and kept in the size's cache entry."""
    entry = _polynomials_of_size(theta, d)
    if (m, n) not in entry.products and not d:
        entry.products[m, n] = [{(0,) * (m + n): 1}]
    elif (m, n) not in entry.products:
        made = list(_expanded_products(m, n, theta, d - 1))
        # q_d: (2pq)^d a_k (x + move / 2pq)^k by the binomial theorem, + q_d(0).
        unit, moves = _moves(m, n, theta)
        _, at_origin = _sums_reader(m, n, theta, entry.sums)(1, [0] * (m + n))
        power = {(0,) * (m + n): at_origin[-1]}
        for v, move in enumerate(moves):
            for k, *pair in entry.sums[-1]:
                for t in range(1, k + 1):
                    exp = tuple(t if u == v else 0 for u in range(m + n))
                    c = pair[v >= m] * math.comb(k, t) * move ** (k - t)
                    power[exp] = power.get(exp, 0) + c * unit ** (d - k + t)
        # q_(r) is the product laid out as (0, r).
        single = {r: i + 1 for i, (parent, r) in enumerate(entry.layout) if not parent}
        for parent, r in entry.layout[len(made) - 1 :]:
            factor = made[single[r]] if r < d else power
            made.append(integer_product(made[parent], factor))
        entry.products[m, n] = made
    return entry.products[m, n]


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
    entry = _polynomials_of_size(theta, size(lam))
    if (m, n, lam) not in entry.polys:
        den, nums = entry.coords[lam]
        sums: dict[tuple[int, ...], int] = {}
        for c, product in zip(nums, _expanded_products(m, n, theta, size(lam))):
            if c:
                for exp, v in product.items():
                    sums[exp] = sums.get(exp, 0) + c * v
        entry.polys[m, n, lam] = SparsePolynomial._from_sums(m, n, sums, den)
    return entry.polys[m, n, lam]


def eigenvalue(mu, lam, m: int, n: int, theta) -> Fraction:
    """Value of the interpolation polynomial of mu at the shifted coordinates
    of lam; the scalar through which the operator indexed by mu acts on the
    component indexed by lam."""
    theta = require_theta(theta)
    m, n = require_rank(m, n)
    point = node_point(require_hook(lam, m, n), m, n, theta)
    den, (value,) = evaluator(m, n, theta, [mu])(*point)
    return Fraction(value, den)
