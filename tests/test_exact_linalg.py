from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from capelli.exact_linalg import (
    RationalMatrix,
    format_rational,
    parse_rational,
    solve_linear,
)
from reference import _reduce, nullspace_basis


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


def test_format_rational():
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(-6, 8)) == "-3/4"
    assert format_rational(Fraction(14, 2)) == "7"
    assert format_rational(0) == "0"


def test_matrix_shape_and_immutability():
    m = RationalMatrix([[1, 2], [3, 4]])
    assert (m.rows, m.cols) == (2, 2)
    with pytest.raises(AttributeError):
        m.rows = 5
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2], [3]])


def test_matrix_products():
    a = RationalMatrix([[1, 2], [3, 4]])
    assert a.apply((1, Fraction(1, 2))) == (Fraction(2), Fraction(5))
    with pytest.raises(ValueError):
        a.apply((1, 2, 3))


def test_solve_unique():
    # 2x + y = 5, x - y = 1  =>  x = 2, y = 1
    # 2x + y = 1, x - y = 2  =>  x = 1, y = -1
    a = RationalMatrix([[2, 1], [1, -1]])
    assert solve_linear(a, [(5, 1), (1, 2)]) == [
        (Fraction(2), Fraction(1)),
        (Fraction(1), Fraction(-1)),
    ]
    assert solve_linear(a, []) == []


def test_solve_none():
    # A singular matrix raises, whether or not this right-hand side is consistent.
    a = RationalMatrix([[1, 1], [2, 2]])
    for rhs in ((1, 3), (1, 2)):
        with pytest.raises(ValueError, match="singular"):
            solve_linear(a, [rhs])


def test_solve_underdetermined():
    # A wide matrix of full row rank takes its pivots from the left and
    # leaves the other coordinates at 0.
    assert solve_linear(RationalMatrix([[1, 1]]), [(3,)]) == [(Fraction(3), 0)]
    a = RationalMatrix([[0, 2, 1, 0], [0, 1, 1, 1]])
    assert solve_linear(a, [(4, 3)]) == [(0, Fraction(1), Fraction(2), 0)]
    # Dependent rows raise, wide or tall, and so does a right-hand side of
    # the wrong length.
    with pytest.raises(ValueError, match="singular"):
        solve_linear(RationalMatrix([[1, 1, 0], [2, 2, 0]]), [(1, 2)])
    with pytest.raises(ValueError, match="singular"):
        solve_linear(RationalMatrix([[1], [1]]), [(1, 1)])
    with pytest.raises(ValueError, match="length"):
        solve_linear(RationalMatrix([[1, 0], [0, 1]]), [(1, 2, 3)])


def test_nullspace_known_kernel():
    # x + y + z = 0 and y + z = 0 force x = 0, y = -z.
    a = RationalMatrix([[1, 1, 1], [0, 1, 1]])
    basis = nullspace_basis(a)
    assert basis == [(Fraction(0), Fraction(-1), Fraction(1))]


def test_nullspace_zero_matrix():
    a = RationalMatrix([[0, 0, 0], [0, 0, 0]])
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
    return RationalMatrix(entries)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_nullspace_vectors_are_kernel_elements(data):
    a = data.draw(matrices())
    basis = nullspace_basis(a)
    zero = (Fraction(0),) * a.rows
    for vec in basis:
        assert a.apply(vec) == zero
    # rank-nullity: pivots + free columns account for every column
    assert len(basis) <= a.cols


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_solve_consistent_system(data):
    # Round trip on invertible matrices: solving A x = A x gives back x.
    n = data.draw(st.integers(min_value=1, max_value=4))
    a = RationalMatrix(
        [[data.draw(small_fractions) for _ in range(n)] for _ in range(n)]
    )
    assume(not nullspace_basis(a))
    xs = [tuple(data.draw(small_fractions) for _ in range(n)) for _ in range(2)]
    assert solve_linear(a, [a.apply(x) for x in xs]) == xs


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_dot_symmetry(data):
    # A one-row matrix applied to a vector is their dot product.
    k = data.draw(st.integers(min_value=1, max_value=5))
    u = tuple(data.draw(small_fractions) for _ in range(k))
    v = tuple(data.draw(small_fractions) for _ in range(k))
    assert RationalMatrix([u]).apply(v) == RationalMatrix([v]).apply(u)


def apply_by_fractions(matrix: RationalMatrix, vec) -> tuple:
    """Row by row in Fraction arithmetic: the oracle for the integer sums
    of `RationalMatrix.apply`."""
    return tuple(
        sum((a * Fraction(b) for a, b in zip(row, vec)), Fraction(0))
        for row in matrix.entries
    )


# Entries and coordinates mix denominators, signs and zeros (a zero row or
# a zero matrix has no nonzero entry to take a denominator from).
mixed_rationals = st.one_of(
    st.just(0),
    st.integers(-5, 5),
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_apply_matches_fraction_arithmetic(data):
    rows = data.draw(st.integers(min_value=1, max_value=4))
    cols = data.draw(st.integers(min_value=1, max_value=5))
    matrix = RationalMatrix(
        [[data.draw(mixed_rationals) for _ in range(cols)] for _ in range(rows)]
    )
    vec = tuple(data.draw(mixed_rationals) for _ in range(cols))
    expected = apply_by_fractions(matrix, vec)
    # a second call gives the same vector
    first = matrix.apply(vec)
    second = matrix.apply(vec)
    assert first == second == expected
    assert all(type(x) is Fraction for x in first)
    for wrong in (vec + (1,), vec[1:]):
        with pytest.raises(ValueError, match="dimension mismatch"):
            matrix.apply(wrong)
    assert matrix == RationalMatrix(matrix.entries)
    assert hash(matrix) == hash(RationalMatrix(matrix.entries))


def solve_by_reduction(matrix: RationalMatrix, rhs_columns) -> list[tuple]:
    """Gauss-Jordan in Fractions on each augmented matrix, the pivot
    coordinates read off and the others left at 0: the oracle for the
    fraction-free `solve_linear` on full-row-rank matrices."""
    solutions = []
    for b in rhs_columns:
        rows = [list(row) + [Fraction(v)] for row, v in zip(matrix.entries, b)]
        x = [Fraction(0)] * matrix.cols
        for row, c in zip(rows, _reduce(rows)):
            x[c] = row[-1]
        solutions.append(tuple(x))
    return solutions


def rank(matrix: RationalMatrix) -> int:
    return len(_reduce([list(row) for row in matrix.entries]))


@st.composite
def full_row_rank_systems(draw):
    # Square or wide, with zero columns and non-integer entries, and up to
    # four right-hand sides.
    rows = draw(st.integers(min_value=1, max_value=5))
    cols = draw(st.integers(min_value=rows, max_value=7))
    zero = draw(st.sets(st.integers(0, cols - 1), max_size=cols - rows))
    matrix = RationalMatrix(
        [
            [0 if j in zero else draw(mixed_rationals) for j in range(cols)]
            for _ in range(rows)
        ]
    )
    assume(rank(matrix) == rows)
    rhs = [
        tuple(draw(mixed_rationals) for _ in range(rows))
        for _ in range(draw(st.integers(0, 4)))
    ]
    return matrix, rhs


@settings(max_examples=150, deadline=None)
@given(full_row_rank_systems())
def test_solve_matches_fraction_reduction(system):
    matrix, rhs = system
    solutions = solve_linear(matrix, rhs)
    assert solutions == solve_by_reduction(matrix, rhs)
    assert all(type(x) is Fraction for solution in solutions for x in solution)
    for solution, b in zip(solutions, rhs):
        assert matrix.apply(solution) == b


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_solve_rejects_dependent_rows_and_bad_lengths(data):
    # One row is a combination of the others: wide or tall, the error names
    # the rank that the Fraction reduction finds.
    rows = data.draw(st.integers(min_value=2, max_value=5))
    cols = data.draw(st.integers(min_value=1, max_value=7))
    free = [
        [data.draw(mixed_rationals) for _ in range(cols)] for _ in range(rows - 1)
    ]
    weights = [data.draw(mixed_rationals) for _ in free]
    combined = [sum(w * row[j] for w, row in zip(weights, free)) for j in range(cols)]
    entries = list(free)
    entries.insert(data.draw(st.integers(0, rows - 1)), combined)
    matrix = RationalMatrix(entries)
    b = tuple(data.draw(mixed_rationals) for _ in range(rows))
    message = f"singular matrix in solve_linear: rank {rank(matrix)} < {rows} rows"
    with pytest.raises(ValueError) as error:
        solve_linear(matrix, [b])
    assert str(error.value) == message
    for wrong in (b + (1,), b[1:]):
        with pytest.raises(ValueError) as error:
            solve_linear(matrix, [b, wrong])
        assert str(error.value) == f"right-hand side length differs from {rows} rows"
