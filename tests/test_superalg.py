"""Tests for the graded-algebra reference in `tests/reference.py`: the
supercommutative algebra, the two pairings, and the dual-basis invariant
operator."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    SuperPolynomial,
    SuperSpace,
    derivation_pairing,
    dual_basis_matrix,
    invariant_operator_matrix,
    monomials_of_degree,
    rational_matrix,
    symmetrization_pairing,
    symmetrize_to_tensor,
    tensor_pairing_reversed,
)


def gen(space, index):
    return SuperPolynomial.generator(space, index)


def factorial(d):
    out = 1
    for t in range(2, d + 1):
        out *= t
    return out


class TestAlgebraStructure:
    def test_odd_generator_squares_to_zero(self):
        space = SuperSpace(0, 2)
        xi = gen(space, 1)
        assert (xi * xi).is_zero()

    def test_odd_generators_anticommute(self):
        space = SuperSpace(0, 2)
        a, b = gen(space, 1), gen(space, 2)
        assert a * b == (b * a).scale(-1)

    def test_even_generators_commute(self):
        space = SuperSpace(2, 1)
        a, b = gen(space, 1), gen(space, 2)
        assert a * b == b * a

    def test_even_odd_commute(self):
        space = SuperSpace(1, 1)
        v, xi = gen(space, 1), gen(space, 2)
        assert v * xi == xi * v

    def test_associativity_on_odd_triple(self):
        space = SuperSpace(1, 3)
        v, a, b, c = (gen(space, k) for k in range(1, 5))
        lhs = ((a * b) * c) * v
        rhs = a * (b * (c * v))
        assert lhs == rhs

    def test_derivation_is_signed_leibniz(self):
        # d(ab) = d(a) b + (-1)^{|a|} a d(b) with a odd.
        space = SuperSpace(0, 3)
        a = gen(space, 1)
        b = gen(space, 2) * gen(space, 3)
        prod = a * b
        for index in (1, 2, 3):
            lhs = prod.derivation(index)
            rhs = a.derivation(index) * b - a * b.derivation(index)
            assert lhs == rhs

    def test_even_derivation_is_partial_derivative(self):
        space = SuperSpace(2, 0)
        x, y = gen(space, 1), gen(space, 2)
        p = (x * x * y).scale(3) + y * y
        assert p.derivation(1) == (x * y).scale(6)
        assert p.derivation(2) == (x * x).scale(3) + y.scale(2)


class TestSymmetrization:
    def test_two_odd_letters_antisymmetrize(self):
        space = SuperSpace(0, 2)
        tensor = symmetrize_to_tensor(gen(space, 1) * gen(space, 2), 2)
        assert tensor == {(1, 2): Fraction(1, 2), (2, 1): Fraction(-1, 2)}

    def test_mixed_letters_symmetrize(self):
        space = SuperSpace(1, 1)
        tensor = symmetrize_to_tensor(gen(space, 1) * gen(space, 2), 2)
        assert tensor == {(1, 2): Fraction(1, 2), (2, 1): Fraction(1, 2)}

    def test_even_power_is_single_word(self):
        space = SuperSpace(1, 0)
        tensor = symmetrize_to_tensor(gen(space, 1).power(3), 3)
        assert tensor == {(1, 1, 1): Fraction(1)}

    def test_inhomogeneous_input_rejected(self):
        space = SuperSpace(1, 0)
        v = gen(space, 1)
        with pytest.raises(ValueError):
            symmetrize_to_tensor(v + v * v, 2)


class TestPairings:
    def test_two_odd_pairing_value(self):
        # Frozen hand value: the pairing of xi1 xi2 with its dual is -1/2.
        space = SuperSpace(0, 2)
        u = gen(space, 1) * gen(space, 2)
        assert symmetrization_pairing(u, u, 2) == Fraction(-1, 2)
        assert derivation_pairing(u, u) == Fraction(-1)

    def test_mixed_pairing_value(self):
        # Frozen hand value: the pairing of v xi with its dual is +1/2.
        space = SuperSpace(1, 1)
        u = gen(space, 1) * gen(space, 2)
        assert symmetrization_pairing(u, u, 2) == Fraction(1, 2)
        assert derivation_pairing(u, u) == Fraction(1)

    @pytest.mark.parametrize("p,q", [(1, 1), (0, 2), (2, 1), (1, 2)])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_derivation_pairing_is_factorial_multiple(self, p, q, d):
        space = SuperSpace(p, q)
        basis = monomials_of_degree(space, d)
        for u in basis:
            for w in basis:
                assert derivation_pairing(u, w) == factorial(
                    d
                ) * symmetrization_pairing(u, w, d)

    def test_factorial_identity_on_combinations(self):
        space = SuperSpace(1, 2)
        v, a, b = gen(space, 1), gen(space, 2), gen(space, 3)
        u = (v * a).scale(2) - (a * b).scale(Fraction(1, 3)) + (v * v)
        w = (v * b).scale(5) + (a * b) + (v * a).scale(Fraction(-1, 2))
        assert derivation_pairing(u, w) == 2 * symmetrization_pairing(u, w, 2)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_power_pairing_is_power_of_scalar_pairing(self, d):
        # <v^d, (v*)^d> through the lifts equals <v, v*>^d for even vectors.
        space = SuperSpace(2, 0)
        v = gen(space, 1) + gen(space, 2).scale(2)
        vstar = gen(space, 1).scale(3) + gen(space, 2).scale(5)
        scalar = Fraction(1 * 3 + 2 * 5)
        assert symmetrization_pairing(v.power(d), vstar.power(d), d) == scalar**d

    def test_reversed_tensor_pairing_order(self):
        space = SuperSpace(0, 2)
        t1 = {(1, 2): Fraction(1)}
        t2 = {(2, 1): Fraction(1)}
        assert tensor_pairing_reversed(t1, t2, 2) == Fraction(1)
        assert tensor_pairing_reversed(t1, {(1, 2): Fraction(1)}, 2) == Fraction(0)


class TestInvariantOperator:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_rank_one_even_operator_acts_by_factorial(self, d):
        space = SuperSpace(1, 0)
        v = gen(space, 1)
        subspace = [v.power(d)]
        dual = [v.power(d)]
        assert dual_basis_matrix(subspace, dual, d) == rational_matrix([[1]])
        matrix = invariant_operator_matrix(subspace, dual, d)
        assert matrix == rational_matrix([[factorial(d)]])

    def test_rank_one_odd_operator_in_degree_one(self):
        space = SuperSpace(0, 1)
        xi = gen(space, 1)
        matrix = invariant_operator_matrix([xi], [xi], 1)
        assert matrix == rational_matrix([[1]])

    def test_degree_one_full_space_operator_is_identity(self):
        # In degree 1 the dual bases are the generators themselves and the
        # operator acts as the identity on every generator.
        space = SuperSpace(2, 1)
        subspace = [gen(space, k) for k in (1, 2, 3)]
        matrix = invariant_operator_matrix(subspace, subspace, 1)
        assert matrix == rational_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_mismatched_dual_basis_rejected(self):
        space = SuperSpace(1, 0)
        v = gen(space, 1)
        with pytest.raises(ValueError):
            invariant_operator_matrix([v.power(2)], [v.power(2).scale(2)], 2)


@st.composite
def small_polynomials(draw):
    space = SuperSpace(1, 2)
    n_terms = draw(st.integers(min_value=0, max_value=3))
    terms = {}
    for _ in range(n_terms):
        e = draw(st.integers(min_value=0, max_value=2))
        odd = tuple(
            sorted(
                draw(
                    st.sets(
                        st.integers(min_value=1, max_value=2), max_size=2
                    )
                )
            )
        )
        coef = Fraction(
            draw(st.integers(min_value=-4, max_value=4)),
            draw(st.integers(min_value=1, max_value=3)),
        )
        key = ((e,), odd)
        terms[key] = terms.get(key, Fraction(0)) + coef
    return SuperPolynomial(space, terms)


class TestPropertyBased:
    @settings(max_examples=60, deadline=None)
    @given(small_polynomials(), small_polynomials(), small_polynomials())
    def test_multiplication_is_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=60, deadline=None)
    @given(small_polynomials(), small_polynomials())
    def test_multiplication_distributes(self, a, b):
        c = SuperPolynomial.one(a.space) + gen(a.space, 2)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=40, deadline=None)
    @given(small_polynomials())
    def test_derivations_anticommute_on_odd_pair(self, a):
        # Odd derivations anticommute: d1 d2 = -d2 d1.
        lhs = a.derivation(3).derivation(2)
        rhs = a.derivation(2).derivation(3).scale(-1)
        assert lhs == rhs
