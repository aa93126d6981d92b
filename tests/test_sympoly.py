from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capelli.partitions import enumerate_hooks
from capelli.sympoly import SparsePolynomial
from reference import (
    add,
    collapse_variable,
    combination,
    defect_nullspace_basis,
    deformed_power_sum,
    degree,
    evaluate,
    evaluate_by_fractions,
    is_separately_symmetric,
    monoidal_defect,
    monomial_symmetric,
    satisfies_monoidal_symmetry,
    scale,
    shift_variable,
    sub,
    variable,
)


def poly_from(num_x, num_y, terms):
    return SparsePolynomial(num_x, num_y, terms)


def test_construction_strips_zeros():
    p = poly_from(1, 1, {(1, 0): 1, (0, 1): 0})
    assert list(p.terms) == [(1, 0)]
    with pytest.raises(ValueError):
        poly_from(1, 1, {(1,): 1})
    with pytest.raises(ValueError):
        poly_from(1, 1, {(-1, 0): 1})


def test_arithmetic_and_evaluate():
    x = variable(1, 1, 0)
    y = variable(1, 1, 1)
    p = add(x, y) * sub(x, y)
    assert p == poly_from(1, 1, {(2, 0): 1, (0, 2): -1})
    assert evaluate(p, (Fraction(3, 2), Fraction(1, 2))) == Fraction(2)
    assert degree(p) == 2
    assert degree(SparsePolynomial(1, 1)) == -1
    with pytest.raises(ValueError):
        evaluate(p, (1,))


def test_shift_variable():
    x = variable(1, 0, 0)
    p = x * x
    shifted = shift_variable(p, 0, Fraction(1, 2))
    # (x + 1/2)^2 = x^2 + x + 1/4
    assert shifted == poly_from(
        1, 0, {(2,): 1, (1,): 1, (0,): Fraction(1, 4)}
    )
    assert shift_variable(shifted, 0, Fraction(-1, 2)) == p


def test_collapse_variable():
    x = variable(1, 1, 0)
    p = x * x
    collapsed = collapse_variable(p, 0, Fraction(-1, 2), 1)
    # x -> -y/2 turns x^2 into y^2/4
    assert collapsed == poly_from(1, 1, {(0, 2): Fraction(1, 4)})


def test_monomial_symmetric():
    p = monomial_symmetric(2, 0, (2, 1), ())
    assert p == poly_from(2, 0, {(2, 1): 1, (1, 2): 1})
    q = monomial_symmetric(2, 1, (1,), (1,))
    assert q == poly_from(2, 1, {(1, 0, 1): 1, (0, 1, 1): 1})
    assert monomial_symmetric(2, 1, (), ()) == SparsePolynomial(2, 1, {(0, 0, 0): 1})
    with pytest.raises(ValueError):
        monomial_symmetric(1, 1, (1, 1), ())


def test_is_separately_symmetric():
    sym = monomial_symmetric(2, 2, (2,), (1, 1))
    assert is_separately_symmetric(sym)
    x1 = variable(2, 0, 0)
    assert not is_separately_symmetric(x1)


def test_monoidal_defect_theta_one():
    # x - y is not shift-compatible, x + y is.
    x = variable(1, 1, 0)
    y = variable(1, 1, 1)
    assert monoidal_defect(sub(x, y), 1).terms
    assert not monoidal_defect(add(x, y), 1).terms
    # x^2 - y^2: difference is 2x + 2y, which vanishes on x = -y.
    assert not monoidal_defect(sub(x * x, y * y), 1).terms
    assert satisfies_monoidal_symmetry(sub(x * x, y * y), 1, all_pairs=True)


def test_monoidal_defect_theta_half():
    # Degree-1 compatible element is the plain sum for every theta.
    half = Fraction(1, 2)
    f = add(monomial_symmetric(2, 1, (1,), ()), monomial_symmetric(2, 1, (), (1,)))
    assert satisfies_monoidal_symmetry(f, half, all_pairs=True)
    g = sub(monomial_symmetric(2, 1, (1,), ()), monomial_symmetric(2, 1, (), (1,)))
    assert not satisfies_monoidal_symmetry(g, half)


def test_monoidal_defect_errors():
    x = variable(1, 1, 0)
    with pytest.raises(ValueError):
        monoidal_defect(x, 0)
    with pytest.raises(ValueError):
        monoidal_defect(x, Fraction(-1, 2))
    with pytest.raises(ValueError):
        monoidal_defect(x, 1, 2, 1)


@pytest.mark.parametrize(
    "m,n,theta,max_degree",
    [
        (1, 1, Fraction(1), 3),
        (1, 1, Fraction(1, 2), 3),
        (2, 1, Fraction(1, 2), 3),
        (2, 2, Fraction(1), 3),
    ],
)
def test_lambda_basis_dimension_and_membership(m, n, theta, max_degree):
    basis = defect_nullspace_basis(m, n, theta, max_degree)
    assert len(basis) == len(enumerate_hooks(m, n, max_degree))
    for poly in basis:
        assert degree(poly) <= max_degree
        assert is_separately_symmetric(poly)
        assert satisfies_monoidal_symmetry(poly, theta, all_pairs=True)


def test_lambda_basis_no_y_block():
    basis = defect_nullspace_basis(2, 0, Fraction(1), 3)
    # with no y variables every symmetric polynomial qualifies
    assert len(basis) == len(enumerate_hooks(2, 0, 3))


def test_lambda_basis_deterministic():
    a = defect_nullspace_basis(1, 1, Fraction(1, 2), 2)
    b = defect_nullspace_basis(1, 1, Fraction(1, 2), 2)
    assert a == b
    assert list(a) == list(defect_nullspace_basis(1, 1, Fraction(2, 4), 2))


@pytest.mark.parametrize("m,n", [(2, 1), (1, 2), (2, 2)])
@pytest.mark.parametrize(
    "theta",
    [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2), Fraction(5, 7)],
)
def test_deformed_power_sums_are_compatible(m, n, theta):
    for r in range(1, 7):
        p = deformed_power_sum(m, n, theta, r)
        assert degree(p) == r
        assert is_separately_symmetric(p)
        assert satisfies_monoidal_symmetry(p, theta, all_pairs=True)


def test_deformed_power_sum_at_theta_one():
    # At theta = 1, D psi_r(y) = D(x^r) at x = -y forces psi_r(y) = -(-y)^r.
    for r in range(1, 6):
        assert deformed_power_sum(1, 1, 1, r) == poly_from(
            1, 1, {(r, 0): 1, (0, r): (-1) ** (r + 1)}
        )
    # a lone x-block is the plain power sum; theta enters only through y
    assert deformed_power_sum(2, 0, Fraction(1, 3), 2) == poly_from(
        2, 0, {(2, 0): 1, (0, 2): 1}
    )
    with pytest.raises(ValueError):
        deformed_power_sum(1, 1, 1, 0)
    with pytest.raises(ValueError):
        deformed_power_sum(1, 1, 0, 1)


@st.composite
def small_polys(draw):
    num_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(num_terms):
        exp = tuple(draw(st.integers(0, 2)) for _ in range(3))
        coef = draw(st.fractions(min_value=-3, max_value=3, max_denominator=2))
        terms[exp] = terms.get(exp, 0) + coef
    return SparsePolynomial(2, 1, terms)


@settings(max_examples=50, deadline=None)
@given(small_polys(), small_polys())
def test_ring_axioms(p, q):
    assert add(p, q) == add(q, p)
    assert p * q == q * p
    assert add(sub(p, q), q) == p


@settings(max_examples=50, deadline=None)
@given(
    small_polys(),
    st.integers(0, 2),
    st.fractions(min_value=-2, max_value=2, max_denominator=2),
)
def test_shift_inverse(p, index, amount):
    assert shift_variable(shift_variable(p, index, amount), index, -amount) == p


@settings(max_examples=50, deadline=None)
@given(small_polys(), small_polys())
def test_evaluate_is_ring_map(p, q):
    point = (Fraction(1, 2), Fraction(-2), Fraction(3))
    assert evaluate(p * q, point) == evaluate(p, point) * evaluate(q, point)
    assert evaluate(add(p, q), point) == evaluate(p, point) + evaluate(q, point)


# Coefficients and coordinates mix denominators, signs and zeros, so the
# common denominators and the scale^(top - k) factors all matter.
rationals = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
)


def draw_poly(draw, num_x, num_y):
    """A zero, constant or general polynomial; a general one has up to six
    terms of degree up to 8."""
    width = num_x + num_y
    kind = draw(st.sampled_from(["zero", "constant", "general"]))
    if kind == "zero":
        return SparsePolynomial(num_x, num_y)
    if kind == "constant":
        return SparsePolynomial(num_x, num_y, {(0,) * width: draw(rationals)})
    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        top = draw(st.integers(0, 8))
        exp = [0] * width
        for _ in range(top if width else 0):
            exp[draw(st.integers(0, width - 1))] += 1
        terms[tuple(exp)] = draw(rationals)
    return SparsePolynomial(num_x, num_y, terms)


@st.composite
def polys_and_points(draw):
    num_x = draw(st.integers(0, 3))
    num_y = draw(st.integers(0, 3))
    poly = draw_poly(draw, num_x, num_y)
    point = tuple(draw(rationals) for _ in range(num_x + num_y))
    return poly, point


# Node coordinates at theta = 1/2 and 1/3 are halves and thirds.
halves_and_thirds = st.builds(
    Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 6])
)


@st.composite
def poly_lists_and_points(draw):
    num_x = draw(st.integers(0, 3))
    num_y = draw(st.integers(0, 3))
    polys = [draw_poly(draw, num_x, num_y) for _ in range(draw(st.integers(0, 5)))]
    coords = st.one_of(rationals, halves_and_thirds)
    point = tuple(draw(coords) for _ in range(num_x + num_y))
    return num_x, num_y, polys, point


@settings(max_examples=200, deadline=None)
@given(polys_and_points())
def test_evaluate_matches_fraction_arithmetic(case):
    poly, point = case
    expected = evaluate_by_fractions(poly, point)
    wrong_length = point + (1,)
    with pytest.raises(ValueError, match="point has length"):
        evaluate(poly, wrong_length)
    first = evaluate(poly, point)
    second = evaluate(poly, point)
    assert type(first) is Fraction
    assert first == second == expected
    with pytest.raises(ValueError, match="point has length"):
        evaluate(poly, wrong_length)
    assert poly == SparsePolynomial(poly.num_x, poly.num_y, poly.terms)
    assert hash(poly) == hash(SparsePolynomial(poly.num_x, poly.num_y, poly.terms))


@settings(max_examples=200, deadline=None)
@given(poly_lists_and_points())
def test_evaluator_matches_fraction_arithmetic(case):
    # The oracle gives every polynomial's value, whatever mix of top degrees,
    # zero and constant polynomials and denominators the list holds.
    num_x, num_y, polys, point = case
    values = tuple(evaluate(p, point) for p in polys)
    assert values == tuple(evaluate_by_fractions(p, point) for p in polys)
    assert all(type(v) is Fraction for v in values)
    for wrong in (point + (1,), point[1:]):
        for p in polys:
            if len(wrong) != len(point):
                with pytest.raises(ValueError, match="point has length"):
                    evaluate(p, wrong)


def test_mixed_blocks_are_rejected():
    x = variable(2, 1, 0)
    # the same width split differently is a different block
    with pytest.raises(ValueError, match="different variable blocks"):
        x * variable(1, 2, 0)
    with pytest.raises(ValueError, match="different variable blocks"):
        add(x, variable(1, 2, 0))
    with pytest.raises(ValueError, match="different variable blocks"):
        combination(1, 2, [1], [x])
    assert evaluate(x, (1, 2, 3)) == 1
    assert combination(2, 1, [], []) == SparsePolynomial(2, 1)


def test_combination_drops_cancelled_terms():
    x, y = variable(2, 1, 0), variable(2, 1, 2)
    assert combination(2, 1, [1, -1], [add(x, y), x]).terms == y.terms
    assert combination(2, 1, [2, -2], [x, x]).terms == {}


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(rationals, small_polys()), max_size=4))
def test_combination_matches_fraction_arithmetic(pairs):
    # The combination against scale-and-add; zero coefficients, zero
    # polynomials and int coefficients are all drawn.
    expected = SparsePolynomial(2, 1)
    for c, p in pairs:
        expected = add(expected, scale(p, c))
    coefs = [c for c, _ in pairs]
    polys = [p for _, p in pairs]
    combined = combination(2, 1, coefs, polys)
    assert combined == expected
    assert all(type(coef) is Fraction for coef in combined.terms.values())


def product_by_fractions(p: SparsePolynomial, q: SparsePolynomial) -> dict:
    """Term by term in Fraction arithmetic, cancelled terms removed: the
    oracle for the integer sums of `SparsePolynomial.__mul__`."""
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            exp = tuple(a + b for a, b in zip(e1, e2))
            terms[exp] = terms.get(exp, Fraction(0)) + c1 * c2
    return {exp: c for exp, c in terms.items() if c}


@st.composite
def poly_pairs(draw):
    num_x = draw(st.integers(0, 3))
    num_y = draw(st.integers(0, 3))
    p = draw_poly(draw, num_x, num_y)
    # Sometimes the second factor is the first with some signs flipped, so
    # that cross terms cancel as in (x + y)(x - y).
    if draw(st.booleans()):
        signs = st.sampled_from([1, -1])
        q = SparsePolynomial(
            num_x, num_y, {e: c * draw(signs) for e, c in p.terms.items()}
        )
    else:
        q = draw_poly(draw, num_x, num_y)
    return p, q


@settings(max_examples=200, deadline=None)
@given(poly_pairs())
def test_product_matches_fraction_arithmetic(pair):
    # Zero, constant and general factors with non-integer coefficients.
    p, q = pair
    product = p * q
    assert product.terms == product_by_fractions(p, q)
    assert all(type(c) is Fraction and c for c in product.terms.values())
    assert product == SparsePolynomial(p.num_x, p.num_y, product.terms)


def test_product_drops_cancelled_cross_terms():
    x, y = variable(2, 1, 0), variable(2, 1, 2)
    # (x + y)(x - y) = x^2 - y^2: the xy terms cancel and leave no 0 entry.
    assert add(x, y) * sub(x, y) == poly_from(2, 1, {(2, 0, 0): 1, (0, 0, 2): -1})
    assert (add(x, y) * sub(x, y)).terms.keys() == {(2, 0, 0), (0, 0, 2)}
    # (x/2 + y/3)(x/2 - y/3) = x^2/4 - y^2/9 over denominators 2 and 3.
    half, third = scale(x, Fraction(1, 2)), scale(y, Fraction(1, 3))
    assert (add(half, third) * sub(half, third)).terms == {
        (2, 0, 0): Fraction(1, 4),
        (0, 0, 2): Fraction(-1, 9),
    }
    zero = SparsePolynomial(2, 1)
    assert (zero * add(x, y)).terms == {} and (add(x, y) * zero).terms == {}
    assert (SparsePolynomial(2, 1, {(0, 0, 0): Fraction(3, 2)}) * x).terms == {
        (1, 0, 0): Fraction(3, 2)
    }
