from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capelli.exact_linalg import (
    RationalMatrix,
    SolveResult,
    format_rational,
    nullspace_basis,
    parse_rational,
    solve_linear,
    vec_dot,
)


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
    assert a.transpose() == RationalMatrix([[1, 3], [2, 4]])
    with pytest.raises(ValueError):
        a.apply((1, 2, 3))


def test_solve_unique():
    # 2x + y = 5, x - y = 1  =>  x = 2, y = 1
    a = RationalMatrix([[2, 1], [1, -1]])
    result = solve_linear(a, (5, 1))
    assert result.status == SolveResult.UNIQUE
    assert result.solution == (Fraction(2), Fraction(1))
    assert result.nullspace == ()


def test_solve_none():
    a = RationalMatrix([[1, 1], [2, 2]])
    result = solve_linear(a, (1, 3))
    assert result.status == SolveResult.NONE
    assert result.solution is None


def test_solve_underdetermined():
    a = RationalMatrix([[1, 1]])
    result = solve_linear(a, (3,))
    assert result.status == SolveResult.UNDERDETERMINED
    assert a.apply(result.solution) == (Fraction(3),)
    assert len(result.nullspace) == 1
    assert a.apply(result.nullspace[0]) == (Fraction(0),)


def test_nullspace_known_kernel():
    # x + y + z = 0 and y + z = 0 force x = 0, y = -z.
    a = RationalMatrix([[1, 1, 1], [0, 1, 1]])
    basis = nullspace_basis(a)
    assert basis == [(Fraction(0), Fraction(-1), Fraction(1))]


def test_nullspace_zero_matrix():
    a = RationalMatrix.zero(2, 3)
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
    a = data.draw(matrices())
    x = tuple(data.draw(small_fractions) for _ in range(a.cols))
    b = a.apply(x)
    result = solve_linear(a, b)
    assert result.status in (SolveResult.UNIQUE, SolveResult.UNDERDETERMINED)
    assert a.apply(result.solution) == b
    if result.status == SolveResult.UNIQUE:
        assert result.solution == x


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_dot_symmetry(data):
    k = data.draw(st.integers(min_value=1, max_value=5))
    u = tuple(data.draw(small_fractions) for _ in range(k))
    v = tuple(data.draw(small_fractions) for _ in range(k))
    assert vec_dot(u, v) == vec_dot(v, u)
