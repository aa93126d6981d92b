"""Independent references for the tests: the paper's closed forms, the
odd-reflection walks and the predicates that the library itself does not
need. The library computes every highest weight with one rule,
`weights.diagram_cut`; the tests compare it with these derivations, none of
which calls that rule."""

from fractions import Fraction

from capelli.borel import (
    BorelDescriptor,
    WeightVector,
    standard_sequence,
    validate_sequence,
    weyl_vector,
)
from capelli.isjp import interpolation_polynomial
from capelli.partitions import (
    arm_columns,
    enumerate_hooks,
    part,
    require_hook,
)
from capelli.sympoly import SparsePolynomial, monoidal_defect
from capelli.tau import in_plain_family

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


def root(borel: BorelDescriptor, i: int, k: int) -> WeightVector:
    """The mixed root d_k - e_i."""
    m, num_delta = borel.m, borel.num_delta
    return WeightVector.unit(m, num_delta, ("d", k)) - WeightVector.unit(
        m, num_delta, ("e", i)
    )


def generic_roots(borel: BorelDescriptor) -> list[WeightVector]:
    """d_k - e_i for i = m..1 and k = 1..ell_i, in reflection-walk order."""
    return [
        root(borel, i, k)
        for i in range(borel.m, 0, -1)
        for k in range(1, borel.ell_of(i) + 1)
    ]


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
    total = WeightVector.zero(borel.m, borel.num_delta)
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
    if w.pairing(alpha) != 0:
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


def is_separately_symmetric(poly: SparsePolynomial) -> bool:
    """True iff invariant under permutations within each block (checked on
    adjacent transpositions, which generate both symmetric groups)."""
    m, n = poly.num_x, poly.num_y
    swaps = [(a, a + 1) for a in range(m - 1)]
    swaps += [(m + b, m + b + 1) for b in range(n - 1)]
    return all(poly.swap_variables(a, b) == poly for a, b in swaps)


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
    return all(monoidal_defect(poly, theta, i, j).is_zero() for i, j in pairs)
