import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from capelli.borel import BorelDescriptor, validate_sequence
from capelli.equivalence import (
    closure_member,
    infinite_witness,
    monoidal_moves,
    orbit,
    require_point,
)
from capelli.exact_linalg import (
    format_rational,
    integer_form,
    parse_rational,
    solve_linear,
)
from capelli.isjp import eigenvalue, evaluator, interpolation_polynomial
from capelli.partitions import (
    enumerate_hooks,
    frobenius_coords,
    is_hook,
    require_theta,
    validate_partition,
)
from capelli.sympoly import SparsePolynomial
from capelli.weights import diagram_cut
from reference import _reduce, matvec, nullspace_basis, rational_matrix, width


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(" 1/2 ") == Fraction(1, 2)
    with pytest.raises(ValueError):
        parse_rational("")
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("x")


# Each input that int() or Fraction() would round or convert silently, or
# reject without naming it, and the start of the error naming it.
INEXACT = {
    "part": (lambda: validate_partition((2.5, 1)), "part 2.5 "),
    "fraction part": (
        lambda: validate_partition((Fraction(3, 2),)),
        "part Fraction(3, 2) ",
    ),
    "shape part": (
        lambda: interpolation_polynomial(1, 1, Fraction(1, 2), (1.7,)),
        "part 1.7 ",
    ),
    "level": (lambda: BorelDescriptor(2, 1, (0.9, 1.5)), "ell entry 0.9 "),
    "symbol index": (
        lambda: validate_sequence((("e", 1.5),), 1, 0),
        "symbol index 1.5 ",
    ),
    "exponent": (lambda: SparsePolynomial(1, 0, {(1.5,): 1}), "exponent 1.5 "),
    "coefficient": (
        lambda: SparsePolynomial(1, 0, {(1,): 0.1}),
        "coefficient 0.1 ",
    ),
    "theta": (lambda: require_theta(0.5), "theta 0.5 "),
    "build theta": (
        lambda: interpolation_polynomial(1, 1, 0.5, (1,)),
        "theta 0.5 ",
    ),
    "point": (
        lambda: require_point((Fraction(1, 2), 0.25), 1, 1),
        "coordinate 0.25 ",
    ),
    "infinite bound": (lambda: enumerate_hooks(1, 1, float("inf")), "size bound inf "),
    "NaN bound": (lambda: enumerate_hooks(1, 1, float("nan")), "size bound nan "),
    "budget": (lambda: orbit((0, 0), 1, 1, Fraction(1, 2), budget=2.5), "budget 2.5 "),
    "budget text": (
        lambda: orbit((0, 0), 1, 1, Fraction(1, 2), budget="5"),
        "budget '5' ",
    ),
}


@pytest.mark.parametrize("call,message", INEXACT.values(), ids=list(INEXACT))
def test_no_float_reaches_the_exact_arithmetic(call, message):
    # A non-integral integer or a float rational raises, naming the value;
    # an exact value that is whole, or a rational's text, is still accepted.
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
    assert validate_partition((2.0, Fraction(1))) == (2, 1)
    assert require_theta("0.5") == Fraction(1, 2)


# Each entry point that goes on to use the rank, called at rank (m, n).
RANK_USERS = {
    "interpolation_polynomial": lambda m, n: interpolation_polynomial(
        m, n, Fraction(1, 2), (1,)
    ),
    "eigenvalue": lambda m, n: eigenvalue((1,), (2,), m, n, Fraction(1, 2)),
    "frobenius_coords": lambda m, n: frobenius_coords((1,), m, n, Fraction(1, 2)),
    "evaluator": lambda m, n: evaluator(m, n, Fraction(1, 2), [(1,)])(2, (1, 0, 3)),
    "BorelDescriptor": lambda m, n: BorelDescriptor(m, n, (1, 1)).sequence(),
    "orbit": lambda m, n: orbit((Fraction(1, 2), 0, 1), m, n, Fraction(1, 2)),
    "is_hook": lambda m, n: is_hook((1, 1, 1), m, n),
    "enumerate_hooks": lambda m, n: enumerate_hooks(m, n, 3),
    "diagram_cut": lambda m, n: diagram_cut(
        (("e", 1), ("d", 1), ("e", 2)), (3, 1, 1), m, n
    ),
    "monoidal_moves": lambda m, n: monoidal_moves((0, 1, 0), m, n, 1),
    "infinite_witness": lambda m, n: infinite_witness(
        (0, Fraction(1, 2), Fraction(-1, 2)), m, n, Fraction(1, 2)
    ),
    "closure_member": lambda m, n: closure_member(
        (0, Fraction(1, 2), Fraction(-1, 2)),
        (1, Fraction(1, 2), Fraction(-3, 2)),
        m,
        n,
        Fraction(1, 2),
    ),
}


@pytest.mark.parametrize("call", RANK_USERS.values(), ids=list(RANK_USERS))
def test_a_whole_float_rank_acts_as_its_int(call):
    # A whole float rank is read as its int before it reaches range() or an
    # index, so it gives exactly what the int gives.
    assert call(2.0, 1) == call(2, 1)
    assert type(BorelDescriptor(2.0, 1, (1, 1)).m) is int


def test_format_rational():
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(-6, 8)) == "-3/4"
    assert format_rational(Fraction(14, 2)) == "7"
    assert format_rational(0) == "0"


def as_fractions(result) -> list[tuple]:
    """The solutions of a `solve_linear` result as tuples of Fractions."""
    den, solutions = result
    return [tuple(Fraction(v, den) for v in x) for x in solutions]


def test_solve_unique():
    # 2x + y = 5, x - y = 1  =>  x = 2, y = 1
    # 2x + y = 1, x - y = 2  =>  x = 1, y = -1
    # The last pivot is -3; the denominator is normalized to 3.
    a = [[2, 1], [1, -1]]
    assert solve_linear(a, [(5, 1), (1, 2)]) == (3, [(6, 3), (3, -3)])
    assert solve_linear(a, []) == (3, [])


def test_solve_normalizes_a_negative_last_pivot():
    assert solve_linear([[-2]], [(4,)]) == (2, [(-4,)])
    den, (x,) = solve_linear([[0, 3], [-1, 1]], [(6, 1)])
    assert den > 0 and tuple(Fraction(v, den) for v in x) == (1, 2)


def test_solve_empty_system():
    assert solve_linear([], []) == (1, [])


def test_solve_rejects_ragged_rows():
    with pytest.raises(ValueError) as error:
        solve_linear([[1, 2], [3]], [(1, 2)])
    assert str(error.value) == "ragged rows"


def test_solve_builds_no_fraction():
    # An integer system is eliminated and solved in integers alone.
    rows = [[3, -1, 4, 1], [5, 9, -2, 6], [5, 3, 5, -8], [9, 7, 9, 3]]
    rhs = [(2, 7, 1, 8), (2, 8, 1, 8), (0, 0, 0, 1)]
    made = 0
    fraction_new = Fraction.__new__

    def counting_new(*args, **kwargs):
        nonlocal made
        made += 1
        return fraction_new(*args, **kwargs)

    Fraction.__new__ = staticmethod(counting_new)
    try:
        den, solutions = solve_linear(rows, rhs)
    finally:
        Fraction.__new__ = staticmethod(fraction_new)
    assert made == 0
    assert all(type(v) is int for x in solutions for v in (den, *x))
    assert as_fractions((den, solutions)) == solve_by_reduction(rows, rhs)


def test_solve_none():
    # A singular matrix raises, whether or not this right-hand side is consistent.
    a = [[1, 1], [2, 2]]
    for rhs in ((1, 3), (1, 2)):
        with pytest.raises(ValueError, match="singular"):
            solve_linear(a, [rhs])


def test_solve_underdetermined():
    # A wide matrix of full row rank takes its pivots from the left and
    # leaves the other coordinates at 0.
    assert solve_linear([[1, 1]], [(3,)]) == (1, [(3, 0)])
    a = [[0, 2, 1, 0], [0, 1, 1, 1]]
    assert solve_linear(a, [(4, 3)]) == (1, [(0, 1, 2, 0)])
    # Dependent rows raise, wide or tall, and so does a right-hand side of
    # the wrong length.
    with pytest.raises(ValueError, match="singular"):
        solve_linear([[1, 1, 0], [2, 2, 0]], [(1, 2)])
    with pytest.raises(ValueError, match="singular"):
        solve_linear([[1], [1]], [(1, 1)])
    with pytest.raises(ValueError, match="length"):
        solve_linear([[1, 0], [0, 1]], [(1, 2, 3)])


def test_nullspace_known_kernel():
    # x + y + z = 0 and y + z = 0 force x = 0, y = -z.
    a = [[1, 1, 1], [0, 1, 1]]
    basis = nullspace_basis(a)
    assert basis == [(Fraction(0), Fraction(-1), Fraction(1))]


def test_nullspace_zero_matrix():
    a = [[0, 0, 0], [0, 0, 0]]
    basis = nullspace_basis(a)
    assert len(basis) == 3
    for i, vec in enumerate(basis):
        assert vec[i] == 1


small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=4
)


@st.composite
def matrices(draw, max_dim=4):
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    cols = draw(st.integers(min_value=1, max_value=max_dim))
    entries = [
        [draw(small_fractions) for _ in range(cols)] for _ in range(rows)
    ]
    return rational_matrix(entries)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_nullspace_vectors_are_kernel_elements(data):
    a = data.draw(matrices())
    basis = nullspace_basis(a)
    zero = (Fraction(0),) * len(a)
    for vec in basis:
        assert matvec(a, vec) == zero
    # rank-nullity: pivots + free columns account for every column
    assert len(basis) <= width(a)


# Rows and right-hand sides mix signs, zeros and sizes: each is a vector of
# small rationals scaled to integers over its common denominator, as the
# polynomial build scales a node's row.
mixed_rationals = st.one_of(
    st.just(0),
    st.integers(-5, 5),
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
)


def integers(values) -> tuple:
    return integer_form(values)[1]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_solve_consistent_system(data):
    # Round trip on invertible matrices: solving A x = A x gives back x, over
    # the common denominator of A x.
    n = data.draw(st.integers(min_value=1, max_value=4))
    a = [integers([data.draw(small_fractions) for _ in range(n)]) for _ in range(n)]
    assume(not nullspace_basis(a))
    xs = [tuple(data.draw(small_fractions) for _ in range(n)) for _ in range(2)]
    forms = [integer_form(matvec(a, x)) for x in xs]
    solutions = as_fractions(solve_linear(a, [b for _, b in forms]))
    assert solutions == [tuple(scale * v for v in x) for x, (scale, _) in zip(xs, forms)]


def solve_by_reduction(matrix, rhs_columns) -> list[tuple]:
    """Gauss-Jordan in Fractions on each augmented matrix, the pivot
    coordinates read off and the others left at 0: the oracle for the
    fraction-free `solve_linear` on full-row-rank matrices."""
    solutions = []
    for b in rhs_columns:
        rows = [[*map(Fraction, row), Fraction(v)] for row, v in zip(matrix, b)]
        x = [Fraction(0)] * width(matrix)
        for row, c in zip(rows, _reduce(rows)):
            x[c] = row[-1]
        solutions.append(tuple(x))
    return solutions


def rank(matrix) -> int:
    return len(_reduce([list(map(Fraction, row)) for row in matrix]))


@st.composite
def full_row_rank_systems(draw):
    # Square or wide, with zero columns, and up to four right-hand sides.
    rows = draw(st.integers(min_value=1, max_value=5))
    cols = draw(st.integers(min_value=rows, max_value=7))
    zero = draw(st.sets(st.integers(0, cols - 1), max_size=cols - rows))
    matrix = [
        integers([0 if j in zero else draw(mixed_rationals) for j in range(cols)])
        for _ in range(rows)
    ]
    assume(rank(matrix) == rows)
    rhs = [
        integers([draw(mixed_rationals) for _ in range(rows)])
        for _ in range(draw(st.integers(0, 4)))
    ]
    return matrix, rhs


@settings(max_examples=150, deadline=None)
@given(full_row_rank_systems())
def test_solve_matches_fraction_reduction(system):
    matrix, rhs = system
    den, solutions = solve_linear(matrix, rhs)
    assert den > 0
    assert as_fractions((den, solutions)) == solve_by_reduction(matrix, rhs)
    assert all(type(x) is int for solution in solutions for x in solution)
    for solution, b in zip(solutions, rhs):
        assert matvec(matrix, solution) == tuple(den * v for v in b)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_solve_rejects_dependent_rows_and_bad_lengths(data):
    # One row is a combination of the others: wide or tall, the error names
    # the rank that the Fraction reduction finds.
    rows = data.draw(st.integers(min_value=2, max_value=5))
    cols = data.draw(st.integers(min_value=1, max_value=7))
    free = [
        integers([data.draw(mixed_rationals) for _ in range(cols)])
        for _ in range(rows - 1)
    ]
    weights = [data.draw(mixed_rationals) for _ in free]
    combined = [sum(w * row[j] for w, row in zip(weights, free)) for j in range(cols)]
    matrix = list(free)
    matrix.insert(data.draw(st.integers(0, rows - 1)), integers(combined))
    b = integers([data.draw(mixed_rationals) for _ in range(rows)])
    message = f"singular matrix in solve_linear: rank {rank(matrix)} < {rows} rows"
    with pytest.raises(ValueError) as error:
        solve_linear(matrix, [b])
    assert str(error.value) == message
    for wrong in (b + (1,), b[1:]):
        with pytest.raises(ValueError) as error:
            solve_linear(matrix, [b, wrong])
        assert str(error.value) == f"right-hand side length differs from {rows} rows"
