import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capelli.borel import BorelDescriptor, validate_sequence
from capelli.equivalence import (
    closure_member,
    infinite_witness,
    monoidal_moves,
    orbit,
    require_point,
)
from capelli.exact_linalg import format_rational, lowest_terms, parse_rational
from capelli.isjp import eigenvalue, evaluator, interpolation_polynomial
from capelli.partitions import (
    enumerate_hooks,
    frobenius_coords,
    is_hook,
    require_theta,
    validate_partition,
)
from capelli.sympoly import SparsePolynomial
from capelli.weights import diag_highest_weight
from reference import matvec, nullspace_basis, rational_matrix, width


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
    "diagram_cut": lambda m, n: diag_highest_weight(
        (("e", 1), ("d", 1), ("e", 2)), (3, 1, 1), m, n, dual=False
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


def test_lowest_terms_takes_the_sign_of_the_denominator():
    # A negative denominator is divided out with the gcd, so the form is the
    # one form of the vector, over a positive denominator.
    assert lowest_terms(-4, [2, -6]) == (2, (-1, 3)) == lowest_terms(4, [-2, 6])
    assert lowest_terms(-1, [3, 0]) == (1, (-3, 0))
    assert lowest_terms(-6, []) == (1, ())
    assert lowest_terms(5, [2, 3]) == (5, (2, 3))


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
