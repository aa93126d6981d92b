"""Independent references for the tests: the paper's closed forms, the
odd-reflection walks, the defect-nullspace basis of compatible polynomials
and the predicates that the library itself does not need. The library
computes every highest weight with one rule, `weights.diagram_cut`, and every
interpolation polynomial from deformed power sums; the tests compare both
with these derivations. The highest-weight oracles never call the rule, and
the polynomial oracle never calls the power sums or the library's
elimination."""

import itertools
import math
from fractions import Fraction

from capelli.borel import (
    BorelDescriptor,
    WeightVector,
    standard_sequence,
    validate_sequence,
    weyl_vector,
)
from capelli.exact_linalg import RationalMatrix
from capelli.isjp import characteristic_value, interpolation_polynomial
from capelli.partitions import (
    arm_columns,
    enumerate_hooks,
    enumerate_partitions,
    frobenius_coords,
    part,
    require_hook,
    require_theta,
    size,
)
from capelli.sympoly import SparsePolynomial
from capelli.tau import standard_matrix

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


def unit_weight(num_eps: int, num_delta: int, symbol) -> WeightVector:
    """The coordinate functional of one symbol as a weight."""
    kind, index = symbol
    eps = [0] * num_eps
    delta = [0] * num_delta
    if kind == "e":
        eps[index - 1] = 1
    elif kind == "d":
        delta[index - 1] = 1
    else:
        raise ValueError(f"bad symbol {symbol}")
    return WeightVector.make(eps, delta)


def pairing(u: WeightVector, v: WeightVector) -> Fraction:
    """Invariant form: +1 on each e-coordinate, -1 on each d-coordinate."""
    if u.shape() != v.shape():
        raise ValueError("weight shape mismatch")
    return sum(a * b for a, b in zip(u.eps, v.eps)) - sum(
        a * b for a, b in zip(u.delta, v.delta)
    )


def coeff(w: WeightVector, symbol) -> Fraction:
    """The coefficient of one symbol in a weight."""
    kind, index = symbol
    return w.eps[index - 1] if kind == "e" else w.delta[index - 1]


def root(borel: BorelDescriptor, i: int, k: int) -> WeightVector:
    """The mixed root d_k - e_i."""
    m, num_delta = borel.m, borel.num_delta
    return unit_weight(m, num_delta, ("d", k)) - unit_weight(m, num_delta, ("e", i))


def generic_roots(borel: BorelDescriptor) -> list[WeightVector]:
    """d_k - e_i for i = m..1 and k = 1..ell_i, in reflection-walk order."""
    return [
        root(borel, i, k)
        for i in range(borel.m, 0, -1)
        for k in range(1, borel.ell_of(i) + 1)
    ]


def even_core(borel: BorelDescriptor) -> BorelDescriptor:
    """The paper's even core: every right-count rounded down to an even
    number."""
    return BorelDescriptor(borel.m, borel.n, tuple(2 * (v // 2) for v in borel.ell))


def core_reflection_roots(borel: BorelDescriptor) -> list[WeightVector]:
    """Roots d_{2k-1} - e_i over pairs with ell_i = 2k-1, ordered by k then
    i descending: the reflections leading from the even core to the Borel."""
    return [
        root(borel, i, 2 * k - 1)
        for k in range(borel.n, 0, -1)
        for i in range(borel.m, 0, -1)
        if borel.ell_of(i) == 2 * k - 1
    ]


# -- the paper's closed forms ---------------------------------------------------


def hw_standard_diag(lam, m: int, n: int) -> WeightVector:
    """Highest weight, for the standard ordering e_1..e_m d_1..d_n, of the
    module indexed by an (m|n)-hook partition: row lengths on the e-side and
    clipped column depths max(0, lam'_j - m) on the d-side."""
    lam = require_hook(lam, m, n)
    eps = [part(lam, i) for i in range(1, m + 1)]
    return WeightVector.make(eps, arm_columns(lam, m, n))


def closed_form_standard(lam, m: int, n: int) -> WeightVector:
    """Highest weight, for the all-d-first ordering of the (m|2n) family, of
    the dual module indexed by the doubled partition: minus the doubled rows
    and minus the duplicated clipped column depths."""
    lam = require_hook(lam, m, n)
    eps = [-2 * part(lam, i) for i in range(1, m + 1)]
    delta = [-c for c in arm_columns(lam, m, n) for _ in range(2)]
    return WeightVector.make(eps, delta)


def truncated_root_sum(lam, borel: BorelDescriptor) -> WeightVector:
    """Sum over e-rows of (d_1 + ... + d_t - t*e_i) with the per-row count t
    clipped at twice the row length: the generic-root contribution that the
    module actually absorbs."""
    lam = require_hook(lam, borel.m, borel.n)
    total = WeightVector.make([0] * borel.m, [0] * borel.num_delta)
    for i in range(1, borel.m + 1):
        t = min(borel.ell_of(i), 2 * part(lam, i))
        eps = [0] * borel.m
        eps[i - 1] = -t
        delta = [1 if k <= t else 0 for k in range(1, borel.num_delta + 1)]
        total = total + WeightVector.make(eps, delta)
    return total


def closed_form_highest_weight(lam, borel: BorelDescriptor) -> WeightVector:
    """The paper's highest weight for a decreasing Borel: the standard one
    minus the truncated root sum."""
    return closed_form_standard(lam, borel.m, borel.n) - truncated_root_sum(
        lam, borel
    )


def nongeneric_index(lam, borel: BorelDescriptor) -> int | None:
    """Least row index where the clip bites, or None when generic."""
    lam = require_hook(lam, borel.m, borel.n)
    for i in range(1, borel.m + 1):
        if borel.ell_of(i) > 2 * part(lam, i):
            return i
    return None


# -- odd reflections ------------------------------------------------------------


def _mixed_root_indices(alpha: WeightVector) -> tuple[int, int, int]:
    """Decompose alpha as sign*(e_i - d_k); returns (sign, i, k)."""
    eps_nz = [(i, v) for i, v in enumerate(alpha.eps, start=1) if v]
    delta_nz = [(k, v) for k, v in enumerate(alpha.delta, start=1) if v]
    if len(eps_nz) != 1 or len(delta_nz) != 1:
        raise ValueError("root must involve exactly one symbol of each family")
    (i, ev), (k, dv) = eps_nz[0], delta_nz[0]
    if ev + dv != 0 or abs(ev) != 1:
        raise ValueError("root must be of the form +-(e_i - d_k)")
    return (1 if ev > 0 else -1, i, k)


def odd_reflection_step(w: WeightVector, alpha: WeightVector) -> WeightVector:
    """Highest-weight update across one odd reflection: subtract the root
    when the invariant form pairs it nontrivially with w, else no change."""
    _mixed_root_indices(alpha)
    if pairing(w, alpha) != 0:
        return w - alpha
    return w


def reflection_walk(lam, borel: BorelDescriptor) -> tuple[WeightVector, WeightVector]:
    """Highest weight and Weyl vector of a decreasing Borel, by walking from
    the all-d-first ordering through the generic roots in their canonical
    order, checking adjacency at every step. The walk starts at the closed
    form for the all-d-first ordering."""
    m, num_delta = borel.m, borel.num_delta
    seq = list(opposite_sequence(m, num_delta))
    w = closed_form_standard(lam, m, borel.n)
    rho = weyl_vector(opposite_sequence(m, num_delta))
    for alpha in generic_roots(borel):
        sign, i, k = _mixed_root_indices(alpha)
        if sign != -1:
            raise AssertionError("generic roots must be d_k - e_i")
        pos_d = seq.index(("d", k))
        pos_e = seq.index(("e", i))
        if pos_e != pos_d + 1:
            raise AssertionError(
                f"root d{k}-e{i} is not a simple adjacent pair in {seq}"
            )
        w = odd_reflection_step(w, alpha)
        rho = rho + alpha
        seq[pos_d], seq[pos_e] = seq[pos_e], seq[pos_d]
    if tuple(seq) != borel.sequence():
        raise AssertionError("walk did not land on the target ordering")
    return w, rho


# -- map families, points and polynomials ----------------------------------------


def x0_eps_entry(i: int, m: int, n: int) -> Fraction:
    return Fraction(m + 1 - 2 * n - 2 * i, 4)


def x0_delta_entry(k: int, m: int, n: int) -> Fraction:
    return Fraction(m + 2 + 2 * n - 4 * k, 2)


def column(matrix: RationalMatrix, j: int) -> tuple:
    return tuple(row[j] for row in matrix.entries)


def pair_columns_of(matrix: RationalMatrix, m: int, n: int):
    """Inverse of `tau.matrix_from_pair_columns`; raises if the matrix is not
    in the compatible family."""
    base = standard_matrix(m, n)
    if (matrix.rows, matrix.cols) != (m + n, m + 2 * n):
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


def in_plain_family(matrix: RationalMatrix, m: int, n: int) -> bool:
    try:
        pair_columns_of(matrix, m, n)
    except ValueError:
        return False
    return True


def in_full_family(matrix: RationalMatrix, borel: BorelDescriptor) -> bool:
    """Compatible and sending d_{2k-1}, for each odd pair k, to the pinned
    value e_{m - j_{2k}}/2 - e_{m+k}."""
    m, n = borel.m, borel.n
    if not in_plain_family(matrix, m, n):
        return False
    for k in borel.odd_pair_set():
        want = [Fraction(0)] * (m + n)
        want[m - borel.j_of(2 * k) - 1] = Fraction(1, 2)
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
        matrix.apply(borel.odd_root_sum(k).coords()) == zero
        for k in borel.odd_pair_set()
    )


def equivalent_up_to_degree(u, v, m: int, n: int, theta, max_degree: int = 4) -> bool:
    """Whether every interpolation polynomial of size <= max_degree takes the
    same value at u and v."""
    return all(
        poly.evaluate(u) == poly.evaluate(v)
        for poly in (
            interpolation_polynomial(m, n, theta, mu)
            for mu in enumerate_hooks(m, n, max_degree)
        )
    )


def evaluate_by_fractions(poly: SparsePolynomial, point) -> Fraction:
    """The value of poly at point, term by term in Fraction arithmetic: the
    oracle for the integer arithmetic of `SparsePolynomial.evaluate`."""
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
    return collapse_variable(plus - minus, xi, -theta, yj)


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
    width = len(rows[0]) if rows else 0
    for c in range(width):
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


def nullspace_basis(matrix: RationalMatrix) -> list[tuple]:
    """Deterministic basis of the kernel of matrix (free-column vectors)."""
    work = [list(row) for row in matrix.entries]
    pivots = _reduce(work)
    basis = []
    for free in (c for c in range(matrix.cols) if c not in pivots):
        vec = [Fraction(0)] * matrix.cols
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
        matrix = RationalMatrix(
            [[d.terms.get(exp, 0) for d in defects] for exp in exps]
            or [[0] * len(defects)]
        )
        basis = [
            SparsePolynomial.combination(m, n, vec, generators)
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
        [poly.evaluate(frobenius_coords(mu, m, n, theta)) for poly in basis]
        + [characteristic_value(lam) if mu == lam else 0]
        for mu in nodes
    ]
    if _reduce(rows) != list(range(len(basis))):
        raise ValueError("the basis does not separate the nodes")
    return SparsePolynomial.combination(m, n, [row[-1] for row in rows], basis)
