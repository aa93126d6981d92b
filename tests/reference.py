"""Independent references for the tests: the paper's closed forms, the
triangular solve for the coefficients of the deformed power sums, the
odd-reflection walks, the defect-nullspace basis of compatible polynomials,
the shifted Jack polynomials by reverse tableaux, the Jack polynomials by
horizontal strips, and the predicates that the library itself does not need.
The eigenvalue maps are built here in Fractions, by matrix products: the
standard matrix perturbed by pair columns, each kernel column from the image
of an odd root sum, and the offset from the image of the root sum; a matrix
is the tuple of its rows, each a tuple of Fractions. The library writes each
map's integer rows in closed form. A weight is a flat
tuple, the e-block then the d-block, as in the library; its arithmetic here
is this module's own. The library computes every highest weight with one
rule, the diagram cut of `weights.integer_cut`, and every interpolation
polynomial from deformed power sums; the tests compare both with these
derivations. The highest-weight oracles never call the rule, and
the polynomial oracle never calls the power sums or the library's
elimination; it eliminates in Fractions with `_reduce`. The library takes
every value from a polynomial's power-sum coordinates; the monomial
evaluator here checks its expanded output. The graded polynomial algebras
at the end are the starting material of a Capelli-operator oracle; the
library builds no operator."""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from capelli.borel import (
    BorelDescriptor,
    standard_sequence,
    validate_sequence,
    weyl_vector,
)
from capelli.exact_linalg import as_rational, integer_form
from capelli.isjp import characteristic_value, interpolation_polynomial
from capelli.partitions import (
    enumerate_hooks,
    enumerate_partitions,
    frobenius_coords,
    part,
    require_hook,
    require_theta,
    size,
    validate_partition,
)
from capelli.sympoly import SparsePolynomial
from capelli.tau import AffineMap


def as_vector(values) -> tuple[Fraction, ...]:
    """A tuple of Fractions, each made by the library's one coercion."""
    return tuple(as_rational(v, "coordinate") for v in values)


# -- orderings and decreasing Borels --------------------------------------------


def opposite_sequence(num_eps: int, num_delta: int):
    """d_N .. d_1 then e_m .. e_1: the reverse of the standard order."""
    return tuple(reversed(standard_sequence(num_eps, num_delta)))


def from_sequence(seq, m: int, n: int) -> BorelDescriptor:
    """The decreasing Borel of an ordering of m e- and 2n d-symbols; raises
    ValueError when either family is not in descending index order."""
    seq = validate_sequence(seq, m, 2 * n)
    eps_order = [index for kind, index in seq if kind == "e"]
    delta_order = [index for kind, index in seq if kind == "d"]
    if eps_order != sorted(eps_order, reverse=True) or delta_order != sorted(
        delta_order, reverse=True
    ):
        raise ValueError(f"sequence {seq} is not decreasing")
    ell = []
    for i in range(1, m + 1):
        pos = seq.index(("e", i))
        ell.append(sum(1 for kind, _ in seq[pos + 1 :] if kind == "d"))
    return BorelDescriptor(m, n, tuple(ell))


# -- weights --------------------------------------------------------------------
#
# A weight is a flat tuple of coefficients, the e-block then the d-block, as in
# the library. Its arithmetic is spelled out here rather than borrowed from the
# library, so the oracles stay independent of the code they check. On tuples
# `+` concatenates and unary `-` raises, so every sum goes through these.


def vec_add(u, v) -> tuple:
    if len(u) != len(v):
        raise ValueError("weight shape mismatch")
    return tuple(a + b for a, b in zip(u, v))


def vec_neg(u) -> tuple:
    return tuple(-a for a in u)


def vec_sub(u, v) -> tuple:
    return vec_add(u, vec_neg(v))


def split(w, m: int) -> tuple[tuple, tuple]:
    """The e-block and the d-block of a weight with m e-coefficients."""
    return tuple(w[:m]), tuple(w[m:])


def unit_weight(num_eps: int, num_delta: int, symbol) -> tuple:
    """The coordinate functional of one symbol as a weight."""
    kind, index = symbol
    sizes = {"e": num_eps, "d": num_delta}
    if kind not in sizes or not 1 <= index <= sizes[kind]:
        raise ValueError(f"bad symbol {symbol}")
    w = [0] * (num_eps + num_delta)
    w[(0 if kind == "e" else num_eps) + index - 1] = 1
    return tuple(w)


def pairing(u, v, m: int) -> Fraction:
    """Invariant form on weights with m e-coefficients: +1 on each
    e-coordinate, -1 on each d-coordinate."""
    if len(u) != len(v):
        raise ValueError("weight shape mismatch")
    (u_eps, u_delta), (v_eps, v_delta) = split(u, m), split(v, m)
    return sum(a * b for a, b in zip(u_eps, v_eps)) - sum(
        a * b for a, b in zip(u_delta, v_delta)
    )


def coeff(w, symbol, m: int) -> Fraction:
    """The coefficient of one symbol in a weight with m e-coefficients."""
    kind, index = symbol
    return w[index - 1] if kind == "e" else w[m + index - 1]


def pattern_representative(seq) -> tuple:
    """The ordering with seq's e/d pattern whose families' indices both
    increase: d, e, e, d gives d1, e1, e2, d2."""
    seen = {"e": 0, "d": 0}
    representative = []
    for kind, _ in seq:
        seen[kind] += 1
        representative.append((kind, seen[kind]))
    return tuple(representative)


def root(borel: BorelDescriptor, i: int, k: int) -> tuple:
    """The mixed root d_k - e_i."""
    m, num_delta = borel.m, borel.num_delta
    return vec_sub(
        unit_weight(m, num_delta, ("d", k)), unit_weight(m, num_delta, ("e", i))
    )


def generic_roots(borel: BorelDescriptor) -> list[tuple]:
    """d_k - e_i for i = m..1 and k = 1..ell_i, in reflection-walk order."""
    return [
        root(borel, i, k)
        for i in range(borel.m, 0, -1)
        for k in range(1, borel.ell[i - 1] + 1)
    ]


def even_core(borel: BorelDescriptor) -> BorelDescriptor:
    """The paper's even core: every right-count rounded down to an even
    number."""
    return BorelDescriptor(borel.m, borel.n, tuple(2 * (v // 2) for v in borel.ell))


def core_reflection_roots(borel: BorelDescriptor) -> list[tuple]:
    """Roots d_{2k-1} - e_i over pairs with ell_i = 2k-1, ordered by k then
    i descending: the reflections leading from the even core to the Borel."""
    return [
        root(borel, i, 2 * k - 1)
        for k in range(borel.n, 0, -1)
        for i in range(borel.m, 0, -1)
        if borel.ell[i - 1] == 2 * k - 1
    ]


# -- the paper's closed forms ---------------------------------------------------


def hw_standard_diag(lam, m: int, n: int) -> tuple:
    """Highest weight, for the standard ordering e_1..e_m d_1..d_n, of the
    module indexed by an (m|n)-hook partition: row lengths on the e-side and
    clipped column depths max(0, lam'_j - m) on the d-side."""
    lam = require_hook(lam, m, n)
    eps = tuple(part(lam, i) for i in range(1, m + 1))
    return eps + arm_columns(lam, m, n)


def closed_form_standard(lam, m: int, n: int) -> tuple:
    """Highest weight, for the all-d-first ordering of the (m|2n) family, of
    the dual module indexed by the doubled partition: minus the doubled rows
    and minus the duplicated clipped column depths."""
    lam = require_hook(lam, m, n)
    eps = [-2 * part(lam, i) for i in range(1, m + 1)]
    delta = [-c for c in arm_columns(lam, m, n) for _ in range(2)]
    return tuple(eps + delta)


def truncated_root_sum(lam, borel: BorelDescriptor) -> tuple:
    """Sum over e-rows of (d_1 + ... + d_t - t*e_i) with the per-row count t
    clipped at twice the row length: the generic-root contribution that the
    module actually absorbs."""
    lam = require_hook(lam, borel.m, borel.n)
    total = (0,) * (borel.m + borel.num_delta)
    for i in range(1, borel.m + 1):
        t = min(borel.ell[i - 1], 2 * part(lam, i))
        eps = [0] * borel.m
        eps[i - 1] = -t
        delta = [1 if k <= t else 0 for k in range(1, borel.num_delta + 1)]
        total = vec_add(total, eps + delta)
    return total


def closed_form_highest_weight(lam, borel: BorelDescriptor) -> tuple:
    """The paper's highest weight for a decreasing Borel: the standard one
    minus the truncated root sum."""
    return vec_sub(
        closed_form_standard(lam, borel.m, borel.n), truncated_root_sum(lam, borel)
    )


def nongeneric_index(lam, borel: BorelDescriptor) -> int | None:
    """Least row index where the clip bites, or None when generic."""
    lam = require_hook(lam, borel.m, borel.n)
    for i in range(1, borel.m + 1):
        if borel.ell[i - 1] > 2 * part(lam, i):
            return i
    return None


# -- hooks by brute force ------------------------------------------------------


def hooks_by_brute_force(m: int, n: int, max_size: int) -> list[tuple[int, ...]]:
    """Every weakly decreasing tuple of positive parts of size <= max_size
    whose row m + 1 is at most n, sorted by (size, tuple)."""
    tuples = itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(max_size, 0, -1), length)
        for length in range(max_size + 1)
    )
    hooks = [t for t in tuples if sum(t) <= max_size and part(t, m + 1) <= n]
    return sorted(hooks, key=lambda t: (sum(t), t))


# -- the point side by transposes and Fraction sums -----------------------------
#
# Oracles for the library's integer forms of the shifted coordinates, the
# doubling and the diagram cut: each reads the diagram through its transpose,
# counted here box by box rather than by the library's frame, and sums in
# Fractions.


def transpose_by_boxes(lam) -> tuple[int, ...]:
    """The conjugate partition: column j holds one box of each row that is
    at least j long."""
    columns = [0] * (lam[0] if lam else 0)
    for row in lam:
        for j in range(row):
            columns[j] += 1
    return tuple(columns)


def arm_columns(lam, m: int, n: int) -> tuple[int, ...]:
    """Column lengths below row m: the vector (max(0, lam'_j - m)) for j = 1..n,
    of a hook partition that the caller has checked with `require_hook`."""
    tr = transpose_by_boxes(lam)
    return tuple(max(0, part(tr, j) - m) for j in range(1, n + 1))


def double_partition_by_columns(lam, m: int, n: int):
    """The doubled partition: rows 1..m doubled and each column length below
    row m repeated twice."""
    lam = require_hook(lam, m, n)
    cols = arm_columns(lam, m, n)
    doubled_cols = []
    for c in cols:
        doubled_cols.extend((c, c))
    tail = transpose_by_boxes(validate_partition(doubled_cols))
    head = tuple(2 * part(lam, i) for i in range(1, m + 1))
    return validate_partition(head + tail)


def frobenius_coords_by_fractions(lam, m: int, n: int, theta) -> tuple:
    """Entry i <= m is lam_i - theta*(i - 1/2) - (n - theta*m)/2; entry m+j is
    max(0, lam'_j - m) - (j - 1/2)/theta + (n/theta + m)/2."""
    theta = require_theta(theta)
    lam = require_hook(lam, m, n)
    cols = arm_columns(lam, m, n)
    xs = [
        part(lam, i) - theta * Fraction(2 * i - 1, 2) - Fraction(n - theta * m, 2)
        for i in range(1, m + 1)
    ]
    ys = [
        cols[j - 1] - Fraction(2 * j - 1, 2) / theta + (n / theta + m) / 2
        for j in range(1, n + 1)
    ]
    return as_vector(xs + ys)


def diagram_cut_by_columns(seq, lam, m: int, n: int) -> tuple:
    """The diagram cut read off the transpose: the j-th e-symbol met takes
    the boxes of row j right of the columns already taken, and the j-th
    d-symbol met the boxes of column j below the rows already taken."""
    seq = validate_sequence(seq, m, n)
    lam = require_hook(lam, m, n)
    columns = transpose_by_boxes(lam)
    coeffs = {"e": [0] * m, "d": [0] * n}
    taken = {"e": 0, "d": 0}
    for kind, index in seq:
        if kind == "e":
            boxes = part(lam, taken["e"] + 1) - taken["d"]
        else:
            boxes = part(columns, taken["d"] + 1) - taken["e"]
        coeffs[kind][index - 1] = max(0, boxes)
        taken[kind] += 1
    return tuple(coeffs["e"] + coeffs["d"])


# -- odd reflections ------------------------------------------------------------


def _mixed_root_indices(alpha, m: int) -> tuple[int, int, int]:
    """Decompose alpha, a weight with m e-coefficients, as sign*(e_i - d_k);
    returns (sign, i, k)."""
    eps, delta = split(alpha, m)
    eps_nz = [(i, v) for i, v in enumerate(eps, start=1) if v]
    delta_nz = [(k, v) for k, v in enumerate(delta, start=1) if v]
    if len(eps_nz) != 1 or len(delta_nz) != 1:
        raise ValueError("root must involve exactly one symbol of each family")
    (i, ev), (k, dv) = eps_nz[0], delta_nz[0]
    if ev + dv != 0 or abs(ev) != 1:
        raise ValueError("root must be of the form +-(e_i - d_k)")
    return (1 if ev > 0 else -1, i, k)


def odd_reflection_step(w, alpha, m: int) -> tuple:
    """Highest-weight update across one odd reflection, for weights with m
    e-coefficients: subtract the root when the invariant form pairs it
    nontrivially with w, else no change."""
    _mixed_root_indices(alpha, m)
    if pairing(w, alpha, m) != 0:
        return vec_sub(w, alpha)
    return w


def reflection_walk(lam, borel: BorelDescriptor) -> tuple[tuple, tuple]:
    """Highest weight and Weyl vector of a decreasing Borel, by walking from
    the all-d-first ordering through the generic roots in their canonical
    order, checking adjacency at every step. The walk starts at the closed
    form for the all-d-first ordering."""
    m, num_delta = borel.m, borel.num_delta
    seq = list(opposite_sequence(m, num_delta))
    w = closed_form_standard(lam, m, borel.n)
    rho = weyl_vector(opposite_sequence(m, num_delta))
    for alpha in generic_roots(borel):
        sign, i, k = _mixed_root_indices(alpha, m)
        if sign != -1:
            raise AssertionError("generic roots must be d_k - e_i")
        pos_d = seq.index(("d", k))
        pos_e = seq.index(("e", i))
        if pos_e != pos_d + 1:
            raise AssertionError(
                f"root d{k}-e{i} is not a simple adjacent pair in {seq}"
            )
        w = odd_reflection_step(w, alpha, m)
        rho = vec_add(rho, alpha)
        seq[pos_d], seq[pos_e] = seq[pos_e], seq[pos_d]
    if tuple(seq) != borel.sequence():
        raise AssertionError("walk did not land on the target ordering")
    return w, rho


# -- map families, points and polynomials ----------------------------------------


def x0_eps_entry(i: int, m: int, n: int) -> Fraction:
    return Fraction(m + 1 - 2 * n - 2 * i, 4)


def x0_delta_entry(k: int, m: int, n: int) -> Fraction:
    return Fraction(m + 2 + 2 * n - 4 * k, 2)


def e_count_left_of(borel: BorelDescriptor, k: int) -> int:
    """j_k, the number of e-symbols left of d_k, counted off ell: the e_i
    with ell_i >= k."""
    return sum(1 for v in borel.ell if v >= k)


def odd_pair_set(borel: BorelDescriptor) -> tuple[int, ...]:
    """Pairs k whose two d-symbols see different e-counts."""
    return tuple(
        k
        for k in range(1, borel.n + 1)
        if e_count_left_of(borel, 2 * k) < e_count_left_of(borel, 2 * k - 1)
    )


def odd_root_sum(borel: BorelDescriptor, k: int) -> tuple:
    """Contribution of the k-th d-pair beyond the even core:
    (j_{2k-1} - j_{2k}) d_{2k-1} - (e_{m-j_{2k-1}+1} + ... + e_{m-j_{2k}})."""
    if not 1 <= k <= borel.n:
        raise ValueError(f"k={k} out of range")
    m = borel.m
    j_hi, j_lo = e_count_left_of(borel, 2 * k - 1), e_count_left_of(borel, 2 * k)
    weight = [0] * (m + borel.num_delta)
    for i in range(m - j_hi, m - j_lo):
        weight[i] = -1
    weight[m + 2 * k - 2] = j_hi - j_lo
    return tuple(weight)


def rational_matrix(entries) -> tuple:
    """A matrix as the tuple of its rows, each a tuple of Fractions."""
    return tuple(as_vector(row) for row in entries)


def width(matrix) -> int:
    """The number of columns of a matrix given by its rows; 0 with no rows."""
    return len(matrix[0]) if matrix else 0


def matvec(matrix, vec) -> tuple:
    """Matrix times vector, row by row in Fraction arithmetic."""
    if width(matrix) != len(vec):
        raise ValueError(f"dimension mismatch: {width(matrix)} vs {len(vec)}")
    return tuple(
        sum((a * Fraction(x) for a, x in zip(row, vec)), Fraction(0))
        for row in matrix
    )


def standard_matrix(m: int, n: int) -> tuple:
    """Negated halve-and-pair projection from (m|2n) weight coordinates to
    m+n interpolation variables: a_i -> -a_i/2 and (b_{2k-1}, b_{2k}) ->
    minus their half-sum."""
    rows = [[Fraction(0)] * (m + 2 * n) for _ in range(m + n)]
    for i in range(m):
        rows[i][i] = Fraction(-1, 2)
    for k in range(n):
        rows[m + k][m + 2 * k] = rows[m + k][m + 2 * k + 1] = Fraction(-1, 2)
    return rational_matrix(rows)


def matrix_from_pair_columns(m: int, n: int, columns) -> tuple:
    """The standard matrix with columns[k-1] added to d-column 2k-1 and
    subtracted from d-column 2k."""
    entries = [list(row) for row in standard_matrix(m, n)]
    for k, col in enumerate(columns, start=1):
        col = as_vector(col)
        if len(col) != m + n:
            raise ValueError("perturbation column has wrong length")
        for r in range(m + n):
            entries[r][m + 2 * k - 2] += col[r]
            entries[r][m + 2 * k - 1] -= col[r]
    return rational_matrix(entries)


def full_matrix(borel: BorelDescriptor) -> tuple:
    """Canonical full-family matrix: perturb each odd pair k by
    (e_{m - j_{2k}} - e_{m+k})/2."""
    m, n = borel.m, borel.n
    columns = []
    for k in range(1, n + 1):
        col = [Fraction(0)] * (m + n)
        if k in odd_pair_set(borel):
            col[m - e_count_left_of(borel, 2 * k) - 1] = Fraction(1, 2)
            col[m + k - 1] = Fraction(-1, 2)
        columns.append(col)
    return matrix_from_pair_columns(m, n, columns)


def kernel_matrix(borel: BorelDescriptor) -> tuple:
    """Canonical kernel-family matrix: perturb each odd pair k by -(standard
    matrix times its odd root sum)/(j_{2k-1} - j_{2k}), through a matrix
    product."""
    m, n = borel.m, borel.n
    base = standard_matrix(m, n)
    columns = []
    for k in range(1, n + 1):
        gap = e_count_left_of(borel, 2 * k - 1) - e_count_left_of(borel, 2 * k)
        image = matvec(base, odd_root_sum(borel, k))
        columns.append([-v / gap if gap else Fraction(0) for v in image])
    return matrix_from_pair_columns(m, n, columns)


def affine_map(matrix, offset) -> AffineMap:
    """The map x -> matrix x + offset, its rows [matrix | offset] scaled to
    integers over one denominator."""
    if len(matrix) != len(offset):
        raise ValueError("offset length must match matrix rows")
    rows = [(*row, Fraction(c)) for row, c in zip(matrix, offset)]
    den, nums = integer_form([x for row in rows for x in row])
    step = width(matrix) + 1
    return AffineMap(den, [nums[i : i + step] for i in range(0, len(nums), step)])


def offset_rule_map(borel: BorelDescriptor, matrix) -> AffineMap:
    """The map with the given matrix and offset matrix * (Borel root sum) +
    standard offset, in Fraction arithmetic."""
    m, n = borel.m, borel.n
    x0 = [x0_eps_entry(i, m, n) for i in range(1, m + 1)]
    x0 += [x0_delta_entry(k, m, n) for k in range(1, n + 1)]
    image = matvec(matrix, borel.root_sum())
    return affine_map(matrix, [a + c for a, c in zip(image, x0)])


def column(matrix, j: int) -> tuple:
    return tuple(row[j] for row in matrix)


def pair_columns_of(matrix, m: int, n: int):
    """Inverse of `matrix_from_pair_columns`; raises if the matrix is not in
    the compatible family."""
    base = standard_matrix(m, n)
    if (len(matrix), width(matrix)) != (m + n, m + 2 * n):
        raise ValueError("matrix has wrong shape")
    for j in range(m):
        if column(matrix, j) != column(base, j):
            raise ValueError("matrix changes an e-column")
    columns = []
    for k in range(1, n + 1):
        hi, lo = (
            tuple(a - b for a, b in zip(column(matrix, j), column(base, j)))
            for j in (m + 2 * k - 2, m + 2 * k - 1)
        )
        if tuple(-v for v in lo) != hi:
            raise ValueError("d-pair columns are not opposite perturbations")
        columns.append(hi)
    return columns


def in_plain_family(matrix, m: int, n: int) -> bool:
    try:
        pair_columns_of(matrix, m, n)
    except ValueError:
        return False
    return True


def in_full_family(matrix, borel: BorelDescriptor) -> bool:
    """Compatible and sending d_{2k-1}, for each odd pair k, to the pinned
    value e_{m - j_{2k}}/2 - e_{m+k}."""
    m, n = borel.m, borel.n
    if not in_plain_family(matrix, m, n):
        return False
    for k in odd_pair_set(borel):
        want = [Fraction(0)] * (m + n)
        want[m - e_count_left_of(borel, 2 * k) - 1] = Fraction(1, 2)
        want[m + k - 1] += Fraction(-1)
        if column(matrix, m + 2 * k - 2) != tuple(want):
            return False
    return True


def in_kernel_family(matrix, borel: BorelDescriptor) -> bool:
    """Compatible and annihilating every odd root sum of the Borel."""
    m, n = borel.m, borel.n
    if not in_plain_family(matrix, m, n):
        return False
    zero = (Fraction(0),) * (m + n)
    return all(
        matvec(matrix, odd_root_sum(borel, k)) == zero for k in odd_pair_set(borel)
    )


def equivalent_up_to_degree(u, v, m: int, n: int, theta, max_degree: int = 4) -> bool:
    """Whether every interpolation polynomial of size <= max_degree takes the
    same value at u and v."""
    return all(
        evaluate(poly, u) == evaluate(poly, v)
        for poly in (
            interpolation_polynomial(m, n, theta, mu)
            for mu in enumerate_hooks(m, n, max_degree)
        )
    )


def evaluate_by_fractions(poly: SparsePolynomial, point) -> Fraction:
    """The value of poly at point, term by term in Fraction arithmetic: the
    oracle for the integer arithmetic of `evaluate` and of the library's
    evaluator."""
    point = tuple(Fraction(v) for v in point)
    if len(point) != poly.num_x + poly.num_y:
        raise ValueError(
            f"point has length {len(point)}, expected {poly.num_x + poly.num_y}"
        )
    total = Fraction(0)
    for exp, coef in poly.terms.items():
        value = coef
        for base, e in zip(point, exp):
            if e:
                value *= base**e
        total += value
    return total


def evaluate(poly: SparsePolynomial, point) -> Fraction:
    """The monomial oracle: the value of poly at point from its monomials,
    in integers over the common denominators of the point and of the
    coefficients."""
    point = as_vector(point)
    width = poly.num_x + poly.num_y
    if len(point) != width:
        raise ValueError(f"point has length {len(point)}, expected {width}")
    scale, ints = integer_form(point)
    den, nums = integer_form(poly.terms.values())
    top = max(map(sum, poly.terms), default=0)
    total = sum(
        c * math.prod(map(pow, ints, exp)) * scale ** (top - sum(exp))
        for c, exp in zip(nums, poly.terms)
    )
    return Fraction(total, den * scale**top)


def _check_blocks(polys, num_x: int, num_y: int):
    if any((p.num_x, p.num_y) != (num_x, num_y) for p in polys):
        raise ValueError("mixing polynomials over different variable blocks")


def combination(num_x: int, num_y: int, coefs, polys) -> SparsePolynomial:
    """The linear combination sum of c * p over paired coefs and polys."""
    polys = list(polys)
    _check_blocks(polys, num_x, num_y)
    terms = {}
    for c, poly in zip(coefs, polys):
        for exp, coef in poly.terms.items():
            terms[exp] = terms.get(exp, 0) + Fraction(c) * coef
    return SparsePolynomial(num_x, num_y, terms)


def add(p: SparsePolynomial, q: SparsePolynomial) -> SparsePolynomial:
    """p + q, term by term in Fractions."""
    _check_blocks([q], p.num_x, p.num_y)
    terms = dict(p.terms)
    for exp, coef in q.terms.items():
        terms[exp] = terms.get(exp, Fraction(0)) + coef
    return SparsePolynomial(p.num_x, p.num_y, terms)


def sub(p: SparsePolynomial, q: SparsePolynomial) -> SparsePolynomial:
    return add(p, scale(q, -1))


def scale(p: SparsePolynomial, value) -> SparsePolynomial:
    value = Fraction(value)
    return SparsePolynomial(
        p.num_x, p.num_y, {exp: value * coef for exp, coef in p.terms.items()}
    )


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


def deformed_power_sum(m: int, n: int, theta, r: int) -> SparsePolynomial:
    """The deformed shifted power sum p_r = sum_i x_i^r + sum_j psi_r(y_j)
    as a polynomial, from the triangular solve above."""
    xs, ys = power_sum_coefficients(theta, r)
    terms = {}
    for v in range(m + n):
        for k, coef in enumerate(xs if v < m else ys):
            exp = tuple(k if u == v else 0 for u in range(m + n))
            terms[exp] = terms.get(exp, 0) + coef
    return SparsePolynomial(m, n, terms)


# -- polynomials and the defect-nullspace basis -----------------------------------


def variable(num_x: int, num_y: int, index: int) -> SparsePolynomial:
    """The variable with 0-based index into the combined block list."""
    exp = tuple(1 if k == index else 0 for k in range(num_x + num_y))
    return SparsePolynomial(num_x, num_y, {exp: 1})


def degree(poly: SparsePolynomial) -> int:
    """Total degree; the zero polynomial reports -1."""
    return max((sum(exp) for exp in poly.terms), default=-1)


def is_separately_symmetric(poly: SparsePolynomial) -> bool:
    """True iff invariant under permutations within each block (checked on
    adjacent transpositions, which generate both symmetric groups)."""
    m, n = poly.num_x, poly.num_y
    swaps = [(a, a + 1) for a in range(m - 1)]
    swaps += [(m + b, m + b + 1) for b in range(n - 1)]
    for a, b in swaps:
        terms = {}
        for exp, coef in poly.terms.items():
            new = list(exp)
            new[a], new[b] = new[b], new[a]
            terms[tuple(new)] = coef
        if SparsePolynomial(m, n, terms) != poly:
            return False
    return True


def shift_variable(poly: SparsePolynomial, index: int, amount) -> SparsePolynomial:
    """Substitute variable[index] -> variable[index] + amount."""
    amount = Fraction(amount)
    terms = {}
    for exp, coef in poly.terms.items():
        e = exp[index]
        for k in range(e + 1):
            new_exp = exp[:index] + (k,) + exp[index + 1 :]
            add = coef * math.comb(e, k) * amount ** (e - k)
            terms[new_exp] = terms.get(new_exp, 0) + add
    return SparsePolynomial(poly.num_x, poly.num_y, terms)


def collapse_variable(
    poly: SparsePolynomial, index: int, scalar, target: int
) -> SparsePolynomial:
    """Substitute variable[index] -> scalar * variable[target]."""
    scalar = Fraction(scalar)
    terms = {}
    for exp, coef in poly.terms.items():
        new = list(exp)
        new[index] = 0
        new[target] += exp[index]
        key = tuple(new)
        terms[key] = terms.get(key, 0) + coef * scalar ** exp[index]
    return SparsePolynomial(poly.num_x, poly.num_y, terms)


def monomial_symmetric(num_x: int, num_y: int, alpha, beta) -> SparsePolynomial:
    """Product of the monomial symmetric polynomial of shape alpha in the
    x-block with the one of shape beta in the y-block."""
    alpha, beta = tuple(alpha), tuple(beta)
    if len(alpha) > num_x or len(beta) > num_y:
        raise ValueError("shape has more parts than variables")
    x_exps = set(itertools.permutations(alpha + (0,) * (num_x - len(alpha))))
    y_exps = set(itertools.permutations(beta + (0,) * (num_y - len(beta))))
    return SparsePolynomial(
        num_x, num_y, {xe + ye: 1 for xe in x_exps for ye in y_exps}
    )


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
    xi, yj = i - 1, m + j - 1
    half = Fraction(1, 2)
    plus = shift_variable(shift_variable(poly, xi, half), yj, -half)
    minus = shift_variable(shift_variable(poly, xi, -half), yj, half)
    return collapse_variable(sub(plus, minus), xi, -theta, yj)


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
    return all(not monoidal_defect(poly, theta, i, j).terms for i, j in pairs)


def _reduce(rows):
    """Gauss-Jordan elimination of a list of Fraction rows, in place; returns
    the pivot columns. Independent of the library's elimination."""
    pivots = []
    for c in range(width(rows)):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = [x - row[c] * y for x, y in zip(row, rows[r])]
        pivots.append(c)
    return pivots


def nullspace_basis(matrix) -> list[tuple]:
    """Deterministic basis of the kernel of matrix (free-column vectors)."""
    work = [list(map(Fraction, row)) for row in matrix]
    pivots = _reduce(work)
    basis = []
    cols = width(matrix)
    for free in (c for c in range(cols) if c not in pivots):
        vec = [Fraction(0)] * cols
        vec[free] = Fraction(1)
        for row, col in zip(work, pivots):
            vec[col] = -row[free]
        basis.append(tuple(vec))
    return basis


def defect_nullspace_basis(m: int, n: int, theta, max_degree: int):
    """Basis, up to total degree max_degree, of the block-symmetric
    polynomials that are shift-compatible on every hyperplane x_i = -theta*y_j:
    the kernel of the (1,1) defect on products of monomial symmetric
    polynomials. Raises ValueError unless its size is the number of
    (m|n)-hook partitions of size <= max_degree."""
    alphas = list(enumerate_partitions(max_degree, m))
    betas = list(enumerate_partitions(max_degree, n))
    shapes = sorted(
        ((a, b) for a in alphas for b in betas if sum(a) + sum(b) <= max_degree),
        key=lambda ab: (sum(ab[0]) + sum(ab[1]), ab),
    )
    generators = [monomial_symmetric(m, n, a, b) for a, b in shapes]
    if m == 0 or n == 0:
        basis = generators
    else:
        defects = [monoidal_defect(g, theta) for g in generators]
        exps = sorted({exp for d in defects for exp in d.terms})
        matrix = rational_matrix(
            [[d.terms.get(exp, 0) for d in defects] for exp in exps]
            or [[0] * len(defects)]
        )
        basis = [
            combination(m, n, vec, generators)
            for vec in nullspace_basis(matrix)
        ]
    expected = len(enumerate_hooks(m, n, max_degree))
    if len(basis) != expected:
        raise ValueError(f"basis dimension {len(basis)} != hook count {expected}")
    return tuple(basis)


def interpolant_on_basis(m: int, n: int, theta, lam) -> SparsePolynomial:
    """The interpolation polynomial of lam solved on the defect-nullspace
    basis: value |lam|! at lam's node and 0 at every other node of size
    <= |lam|."""
    d = size(lam)
    basis = defect_nullspace_basis(m, n, theta, d)
    nodes = enumerate_hooks(m, n, d)
    rows = [
        [evaluate(poly, frobenius_coords(mu, m, n, theta)) for poly in basis]
        + [characteristic_value(lam) if mu == lam else 0]
        for mu in nodes
    ]
    if _reduce(rows) != list(range(len(basis))):
        raise ValueError("the basis does not separate the nodes")
    return combination(m, n, [row[-1] for row in rows], basis)


# -- shifted Jack polynomials by reverse tableaux -------------------------------
#
# Okounkov-Olshanski, "Shifted Jack polynomials, binomial formula, and
# applications" (Math. Res. Lett. 4, 1997), with the horizontal-strip weights
# of Macdonald, *Symmetric Functions and Hall Polynomials*, VI (6.24) and
# (7.13'), in the Jack limit. Nothing here calls the library's build, power
# sums or evaluator: node values come from tableaux alone.


def _jack_b(shape: tuple, i: int, j: int, alpha: Fraction) -> Fraction:
    """b_shape(s) at the box s = (i, j), 0-based: (alpha a + l + 1) /
    (alpha a + l + alpha) with a and l the box's arm and leg."""
    arm = shape[i] - j - 1
    leg = sum(1 for row in shape if row > j) - i - 1
    return (alpha * arm + leg + 1) / (alpha * arm + leg + alpha)


@functools.lru_cache(maxsize=None)
def strip_weight(kappa: tuple, nu: tuple, theta: Fraction) -> Fraction:
    """psi_{kappa/nu} for a horizontal strip kappa/nu, alpha = 1/theta: the
    product of b_nu(s) / b_kappa(s) over the boxes s whose row meets the
    strip and whose column does not."""
    alpha, low = 1 / theta, nu + (0,) * (len(kappa) - len(nu))
    rows = [i for i, row in enumerate(kappa) if row > low[i]]
    columns = {j for i in rows for j in range(low[i], kappa[i])}
    psi = Fraction(1)
    for i in rows:
        for j in range(low[i]):
            if j not in columns:
                psi *= _jack_b(nu, i, j, alpha) / _jack_b(kappa, i, j, alpha)
    return psi


def _strips_below(mu: tuple):
    """Every nu with mu/nu a horizontal strip, as one part per row of mu,
    zeros kept: mu[i + 1] <= nu[i] <= mu[i]."""
    bounds = [(mu[i + 1] if i + 1 < len(mu) else 0, row) for i, row in enumerate(mu)]
    return itertools.product(*(range(low, high + 1) for low, high in bounds))


@functools.lru_cache(maxsize=None)
def shifted_jack(mu: tuple, xs: tuple, theta: Fraction, coleg: Fraction) -> Fraction:
    """P*_mu(xs; theta) = sum over reverse tableaux T of shape mu with entries
    1..len(xs) (weakly decreasing along rows, strictly down columns) of
    psi_T times the product over boxes s of (x_T(s) - a'(s) + coleg l'(s)),
    a' and l' the coarm and coleg; coleg is theta in the formula. The boxes
    holding 1 are a horizontal strip mu/nu, and nu holds the entries 2.."""
    if not mu:
        return Fraction(1)
    if not xs:
        return Fraction(0)
    total = Fraction(0)
    for nu in _strips_below(mu):
        factor = Fraction(1)
        for i, (row, kept) in enumerate(zip(mu, nu)):
            for j in range(kept, row):
                factor *= xs[0] - j + coleg * i
        nu = tuple(row for row in nu if row)
        rest = shifted_jack(nu, xs[1:], theta, coleg)
        total += strip_weight(mu, nu, theta) * factor * rest
    return total


def hook_product(mu: tuple, theta: Fraction) -> Fraction:
    """H(mu): the product over the boxes of mu of (a(s) + theta l(s) + 1),
    a and l the box's arm and leg."""
    hook = Fraction(1)
    for i, row in enumerate(mu):
        for j in range(row):
            leg = sum(1 for r in mu if r > j) - i - 1
            hook *= row - j - 1 + theta * leg + 1
    return hook


@functools.lru_cache(maxsize=None)
def jack_coefficient(lam: tuple, kappa: tuple, theta: Fraction) -> Fraction:
    """The coefficient of x^kappa in the Jack polynomial P_lam, alpha =
    1/theta, in len(kappa) variables: the sum over chains of horizontal strips
    nu < lam, the last of size kappa[-1], of psi_{lam/nu} times nu's
    coefficient of x^kappa[:-1] (Macdonald VI (7.13'), Jack limit)."""
    if not kappa:
        return Fraction(not lam)
    total = Fraction(0)
    for nu in _strips_below(lam):
        if sum(lam) - sum(nu) == kappa[-1]:
            nu = tuple(row for row in nu if row)
            rest = jack_coefficient(nu, kappa[:-1], theta)
            total += strip_weight(lam, nu, theta) * rest
    return total


def node_value_by_tableaux(mu, lam, theta, coleg=None) -> Fraction:
    """P_mu at the node of lam: |mu|! P*_mu(lam; theta) / H(mu), with
    H(mu) = prod over boxes of (a(s) + theta l(s) + 1). The super
    interpolation polynomial's node values are those of the shifted Jack
    polynomial on the parts of lam (Sergeev-Veselov, Comm. Math. Phys. 245,
    2004); coleg replaces theta as the weight of the coleg, for a control."""
    theta = Fraction(theta)
    mu, lam = tuple(mu), tuple(lam)
    coleg = theta if coleg is None else Fraction(coleg)
    hook = hook_product(mu, theta)
    return math.factorial(sum(mu)) * shifted_jack(mu, lam, theta, coleg) / hook


# -- graded polynomial algebras ---------------------------------------------------
#
# The supercommutative algebra on a graded space, its superderivations, the two
# pairings between the symmetric algebra and the polynomial functions, and the
# invariant operator sum_i w*_i d(w_i) over dual bases: the starting material
# of a first-principles Capelli-operator oracle (ROADMAP item 3). The library
# itself never builds an operator.

# A term key is (even_exponents, odd_indices): exponents for the p even
# generators plus a strictly increasing tuple of odd generator indices
# (1-based within the odd block).
TermKey = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class SuperSpace:
    """A graded space with p even and q odd basis directions. Generator
    indices run 1..p for the even block and p+1..p+q for the odd block."""

    even: int
    odd: int

    def __post_init__(self):
        if self.even < 0 or self.odd < 0:
            raise ValueError("dimensions must be nonnegative")

    @property
    def total(self) -> int:
        return self.even + self.odd

    def parity(self, index: int) -> int:
        if not 1 <= index <= self.total:
            raise ValueError(f"generator index {index} out of range")
        return 0 if index <= self.even else 1


class SuperPolynomial:
    """Element of the free supercommutative algebra on a SuperSpace: even
    generators commute, odd generators anticommute and square to zero."""

    __slots__ = ("space", "terms")

    def __init__(self, space: SuperSpace, terms=None):
        self.space = space
        clean: dict[TermKey, Fraction] = {}
        if terms:
            for (even, odd), coef in terms.items():
                even = tuple(int(e) for e in even)
                odd = tuple(int(o) for o in odd)
                if len(even) != space.even or any(e < 0 for e in even):
                    raise ValueError(f"bad even exponents {even}")
                if list(odd) != sorted(set(odd)) or any(
                    not 1 <= o <= space.odd for o in odd
                ):
                    raise ValueError(f"bad odd index tuple {odd}")
                coef = Fraction(coef)
                if coef:
                    key = (even, odd)
                    clean[key] = clean.get(key, Fraction(0)) + coef
                    if not clean[key]:
                        del clean[key]
        self.terms = clean

    @classmethod
    def zero(cls, space: SuperSpace) -> "SuperPolynomial":
        return cls(space, {})

    @classmethod
    def one(cls, space: SuperSpace) -> "SuperPolynomial":
        return cls(space, {((0,) * space.even, ()): Fraction(1)})

    @classmethod
    def generator(cls, space: SuperSpace, index: int) -> "SuperPolynomial":
        if space.parity(index) == 0:
            even = tuple(1 if k == index else 0 for k in range(1, space.even + 1))
            return cls(space, {(even, ()): Fraction(1)})
        return cls(space, {((0,) * space.even, (index - space.even,)): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, SuperPolynomial)
            and self.space == other.space
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.space, frozenset(self.terms.items())))

    def __repr__(self):
        bits = [f"{c}*{k}" for k, c in sorted(self.terms.items())]
        return f"SuperPolynomial({' + '.join(bits) or '0'})"

    def __add__(self, other: "SuperPolynomial") -> "SuperPolynomial":
        if self.space != other.space:
            raise ValueError("mixing different spaces")
        terms = dict(self.terms)
        for key, coef in other.terms.items():
            terms[key] = terms.get(key, Fraction(0)) + coef
        return SuperPolynomial(self.space, terms)

    def __sub__(self, other: "SuperPolynomial") -> "SuperPolynomial":
        return self + other.scale(-1)

    def scale(self, value) -> "SuperPolynomial":
        value = Fraction(value)
        return SuperPolynomial(
            self.space, {k: value * c for k, c in self.terms.items()}
        )

    def __mul__(self, other: "SuperPolynomial") -> "SuperPolynomial":
        if self.space != other.space:
            raise ValueError("mixing different spaces")
        terms: dict[TermKey, Fraction] = {}
        for (e1, o1), c1 in self.terms.items():
            for (e2, o2), c2 in other.terms.items():
                if set(o1) & set(o2):
                    continue
                sign = -1 if _odd_merge_inversions(o1, o2) % 2 else 1
                even = tuple(a + b for a, b in zip(e1, e2))
                odd = tuple(sorted(o1 + o2))
                key = (even, odd)
                terms[key] = terms.get(key, Fraction(0)) + sign * c1 * c2
        return SuperPolynomial(self.space, terms)

    def power(self, k: int) -> "SuperPolynomial":
        result = SuperPolynomial.one(self.space)
        for _ in range(k):
            result = result * self
        return result

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) + len(o) for e, o in self.terms)

    def is_homogeneous(self, d: int) -> bool:
        return all(sum(e) + len(o) == d for e, o in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get(((0,) * self.space.even, ()), Fraction(0))

    def derivation(self, index: int) -> "SuperPolynomial":
        """Apply the superderivation dual to generator `index` (1-based over
        the whole space): even indices differentiate normally; odd indices
        remove the matching factor with the sign of moving past the odd
        factors to its left."""
        parity = self.space.parity(index)
        terms: dict[TermKey, Fraction] = {}
        for (even, odd), coef in self.terms.items():
            if parity == 0:
                e = even[index - 1]
                if e == 0:
                    continue
                new_even = (
                    even[: index - 1] + (e - 1,) + even[index:]
                )
                key = (new_even, odd)
                terms[key] = terms.get(key, Fraction(0)) + coef * e
            else:
                c = index - self.space.even
                if c not in odd:
                    continue
                t = odd.index(c)
                sign = -1 if t % 2 else 1
                key = (even, odd[:t] + odd[t + 1 :])
                terms[key] = terms.get(key, Fraction(0)) + sign * coef
        return SuperPolynomial(self.space, terms)


def _odd_merge_inversions(left: tuple[int, ...], right: tuple[int, ...]) -> int:
    return sum(1 for a in left for b in right if a > b)


def _term_word(space: SuperSpace, key: TermKey) -> tuple[int, ...]:
    """Canonical ascending generator word of a monomial."""
    even, odd = key
    word = []
    for idx, e in enumerate(even, start=1):
        word.extend([idx] * e)
    word.extend(space.even + c for c in odd)
    return tuple(word)


def _koszul_sign(space: SuperSpace, word: tuple[int, ...], perm) -> int:
    """Sign of rearranging the word so position t holds word[perm[t]]: one
    factor -1 per inversion of two odd letters."""
    count = 0
    for s in range(len(perm)):
        for t in range(s + 1, len(perm)):
            if perm[s] > perm[t]:
                if space.parity(word[perm[s]]) and space.parity(word[perm[t]]):
                    count += 1
    return -1 if count % 2 else 1


def symmetrize_to_tensor(poly: SuperPolynomial, d: int) -> dict:
    """Averaged signed symmetrization of a degree-d element: a dict from
    length-d generator words to coefficients."""
    if not poly.is_homogeneous(d):
        raise ValueError(f"element is not homogeneous of degree {d}")
    space = poly.space
    tensor: dict[tuple[int, ...], Fraction] = {}
    scale = Fraction(1, math.factorial(d))
    for key, coef in poly.terms.items():
        word = _term_word(space, key)
        for perm in itertools.permutations(range(d)):
            sign = _koszul_sign(space, word, perm)
            arranged = tuple(word[perm[t]] for t in range(d))
            tensor[arranged] = (
                tensor.get(arranged, Fraction(0)) + sign * coef * scale
            )
    return {w: c for w, c in tensor.items() if c}


def tensor_pairing_reversed(t1: dict, t2: dict, d: int) -> Fraction:
    """Pairing of a degree-d tensor with a dual one, matching the factors in
    reversed order: word v pairs with word w iff reversed(v) == w."""
    total = Fraction(0)
    for word, coef in t1.items():
        other = t2.get(tuple(reversed(word)))
        if other:
            total += coef * other
    return total


def symmetrization_pairing(u: SuperPolynomial, p: SuperPolynomial, d: int) -> Fraction:
    """Pairing through the signed-symmetrization lifts of both sides and the
    reversed-order tensor pairing."""
    return tensor_pairing_reversed(
        symmetrize_to_tensor(u, d), symmetrize_to_tensor(p, d), d
    )


def apply_derivation(u: SuperPolynomial, p: SuperPolynomial) -> SuperPolynomial:
    """Apply the derivation indexed by u: each monomial g_{i_1}..g_{i_d} of u
    (ascending) acts as the composition of the generator derivations, the
    rightmost factor acting first."""
    if u.space != p.space:
        raise ValueError("mixing different spaces")
    result = SuperPolynomial.zero(p.space)
    for key, coef in u.terms.items():
        word = _term_word(u.space, key)
        partial = p
        for index in reversed(word):
            partial = partial.derivation(index)
        result = result + partial.scale(coef)
    return result


def derivation_pairing(u: SuperPolynomial, p: SuperPolynomial) -> Fraction:
    """Constant term of the derivation of p along u; for degree-d homogeneous
    arguments this is d! times the symmetrization pairing."""
    return apply_derivation(u, p).constant_term()


def dual_basis_matrix(
    subspace: list[SuperPolynomial], dual: list[SuperPolynomial], d: int
) -> tuple:
    """Gram matrix of the symmetrization pairing between a claimed dual basis
    (in the symmetric side) and a subspace basis (in the function side)."""
    return rational_matrix(
        [[symmetrization_pairing(w, pstar, d) for pstar in subspace] for w in dual]
    )


def invariant_operator_matrix(
    subspace: list[SuperPolynomial], dual: list[SuperPolynomial], d: int
) -> tuple:
    """Matrix, on the given basis of the function-side subspace, of
    q -> sum_i subspace[i] * (derivation along dual[i] applied to q)."""
    count = len(subspace)
    identity = rational_matrix(
        [[int(i == j) for j in range(count)] for i in range(count)]
    )
    if dual_basis_matrix(subspace, dual, d) != identity:
        raise ValueError("claimed dual basis is not dual under the pairing")
    columns = []
    for q in subspace:
        image = SuperPolynomial.zero(q.space)
        for w_star, w in zip(subspace, dual):
            image = image + w_star * apply_derivation(w, q)
        columns.append(_coordinates(image, subspace))
    return rational_matrix(zip(*columns))


def _coordinates(poly: SuperPolynomial, basis: list[SuperPolynomial]):
    """Coordinates of poly in a monomial-triangular basis via term matching."""
    remaining = poly
    coords = []
    for b in basis:
        key = next(iter(b.terms))
        scale = remaining.terms.get(key, Fraction(0)) / b.terms[key]
        coords.append(scale)
        remaining = remaining - b.scale(scale)
    if not remaining.is_zero():
        raise ValueError("element lies outside the basis span")
    return coords


def monomials_of_degree(space: SuperSpace, d: int) -> list[SuperPolynomial]:
    """Every monomial of total degree d, each with coefficient 1."""
    out = []
    for odd_count in range(min(d, space.odd) + 1):
        for evens in _compositions(d - odd_count, space.even):
            for odds in itertools.combinations(range(1, space.odd + 1), odd_count):
                out.append(SuperPolynomial(space, {(evens, odds): Fraction(1)}))
    return out


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    if parts == 0:
        return [()] if total == 0 else []
    return [
        (first,) + rest
        for first in range(total + 1)
        for rest in _compositions(total - first, parts - 1)
    ]
