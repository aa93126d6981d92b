"""End-to-end acceptance gate: every advertised identity of the library,
checked exhaustively at desk scale. All equalities are exact rational
equalities — no tolerances anywhere."""

from fractions import Fraction
from functools import lru_cache
from math import comb, perm

import pytest

from capelli import isjp
from capelli.borel import BorelDescriptor, standard_sequence, weyl_vector
from capelli.equivalence import orbit
from capelli.exact_linalg import RationalMatrix, integer_form
from capelli.isjp import characteristic_value, eigenvalue, interpolation_polynomial
from capelli.partitions import enumerate_hooks, frobenius_coords, size, transpose
from capelli.tau import family_map
from capelli.verify import SweepConfig, reproduce_example, run_sweep
from capelli.weights import diag_highest_weight, highest_weight
from reference import (
    SuperPolynomial,
    SuperSpace,
    closed_form_highest_weight,
    defect_nullspace_basis,
    degree,
    derivation_pairing,
    evaluate,
    even_core,
    hw_standard_diag,
    invariant_operator_matrix,
    monomials_of_degree,
    odd_pair_set,
    odd_root_sum,
    opposite_sequence,
    reflection_walk,
    satisfies_monoidal_symmetry,
    symmetrization_pairing,
    vec_add,
    vec_neg,
)

RANKS = [(1, 1), (2, 1), (2, 2)]
# every rank with m, n <= 3 and m >= 1, the first three listed first
WALK_RANKS = RANKS + [
    (m, n) for m in (1, 2, 3) for n in (0, 1, 2, 3) if (m, n) not in RANKS
]
THETAS = [Fraction(1), Fraction(1, 2)]
HALF = Fraction(1, 2)


def factorial(k: int) -> int:
    out = 1
    for t in range(2, k + 1):
        out *= t
    return out


class TestDefiningProperties:
    """Each interpolation polynomial hits its own node at the characteristic
    value, kills every other node of size up to its own, and satisfies the
    all-pairs monoidal symmetry."""

    @pytest.mark.parametrize("m,n", RANKS)
    @pytest.mark.parametrize("theta", THETAS)
    def test_vanishing_normalization_and_symmetry(self, m, n, theta):
        shapes = enumerate_hooks(m, n, 5)
        nodes = {mu: frobenius_coords(mu, m, n, theta) for mu in shapes}
        for lam in shapes:
            poly = interpolation_polynomial(m, n, theta, lam)
            assert evaluate(poly, nodes[lam]) == characteristic_value(lam)
            assert characteristic_value(lam) == factorial(sum(lam))
            for mu in shapes:
                if mu != lam and sum(mu) <= sum(lam):
                    assert evaluate(poly, nodes[mu]) == 0, (lam, mu, theta)
            assert satisfies_monoidal_symmetry(poly, theta, all_pairs=True)

    def test_cold_build_to_size_eight(self):
        # The frontier: every (2|2) polynomial up to size 8 at theta = 1/2,
        # built from an empty cache and checked at the nodes.
        m, n, theta = 2, 2, HALF
        isjp._polynomials_of_size.cache_clear()
        shapes = enumerate_hooks(m, n, 8)
        nodes = {mu: frobenius_coords(mu, m, n, theta) for mu in shapes}
        for lam in shapes:
            poly = interpolation_polynomial(m, n, theta, lam)
            assert degree(poly) <= size(lam), lam
            assert evaluate(poly, nodes[lam]) == factorial(size(lam)), lam
            for mu in shapes:
                if mu != lam and size(mu) <= size(lam):
                    assert evaluate(poly, nodes[mu]) == 0, (lam, mu)

    def test_cold_build_to_size_ten(self):
        # The frontier without monomials: every (2|2) polynomial up to size 10
        # at theta = 1/2, built from an empty cache and checked at every node
        # through the library's evaluator.
        m, n, theta = 2, 2, HALF
        isjp._polynomials_of_size.cache_clear()
        shapes = enumerate_hooks(m, n, 10)
        values_at = isjp.evaluator(m, n, theta, shapes)
        for mu in shapes:
            den, nums = values_at(*integer_form(frobenius_coords(mu, m, n, theta)))
            values = [Fraction(v, den) for v in nums]
            for lam, value in zip(shapes, values):
                if size(mu) <= size(lam):
                    expected = factorial(size(lam)) if mu == lam else 0
                    assert value == expected, (lam, mu)


class TestNodeIdentities:
    """The distinguished affine maps carry the standard highest weights to
    the interpolation nodes, exactly as vectors; consequently each
    polynomial's eigenvalue spectrum at its own shape is the characteristic
    value and zero at all other shapes of at most its size."""

    @pytest.mark.parametrize("m,n", RANKS)
    def test_whole_parameter_pair_map_hits_node(self, m, n):
        opposite = opposite_sequence(m, n)
        standard = standard_sequence(m, n)
        for lam in enumerate_hooks(m, n, 6):
            node = frobenius_coords(lam, m, n, Fraction(1))
            w1 = diag_highest_weight(opposite, lam, m, n, dual=True)
            assert w1 == vec_neg(hw_standard_diag(lam, m, n))
            assert vec_neg(vec_add(w1, weyl_vector(opposite))) == node
            w2 = diag_highest_weight(standard, lam, m, n, dual=False)
            assert w2 == hw_standard_diag(lam, m, n)
            assert vec_add(w2, weyl_vector(standard)) == node

    @pytest.mark.parametrize("m,n", RANKS)
    def test_half_parameter_standard_map_hits_node(self, m, n):
        # The glm2n sweep checks generic weights against the node itself, so
        # this identity is what ties that check to the standard map.
        # The standard map is the full map of the opposite Borel.
        opposite = BorelDescriptor.opposite(m, n)
        std = family_map(opposite, "full")
        for lam in enumerate_hooks(m, n, 11):
            assert std.apply(highest_weight(lam, opposite)) == frobenius_coords(
                lam, m, n, HALF
            )

    @pytest.mark.parametrize("m,n", RANKS)
    @pytest.mark.parametrize("theta", THETAS)
    def test_consequent_eigenvalue_spectrum(self, m, n, theta):
        # The polynomial indexed by mu kills every node of size at most its
        # own except its own node, where it takes the characteristic value.
        shapes = enumerate_hooks(m, n, 6)
        for lam in shapes:
            assert eigenvalue(lam, lam, m, n, theta) == characteristic_value(lam)
            for mu in shapes:
                if mu != lam and sum(lam) <= sum(mu):
                    assert eigenvalue(mu, lam, m, n, theta) == 0, (lam, mu, theta)


def contains(outer, inner) -> bool:
    return len(inner) <= len(outer) and all(a <= b for a, b in zip(inner, outer))


@lru_cache(maxsize=None)
def standard_tableaux(outer, inner=()) -> int:
    """Number of standard tableaux of the skew shape outer/inner (inner inside
    outer), by removing the cell that holds the largest entry."""
    if outer == inner:
        return 1
    total = 0
    for i, row in enumerate(outer):
        corner = i + 1 == len(outer) or outer[i + 1] < row
        if corner and row > (inner[i] if i < len(inner) else 0):
            smaller = outer[:i] + ((row - 1,) if row > 1 else ()) + outer[i + 1 :]
            total += standard_tableaux(smaller, inner)
    return total


class TestIndependentOracles:
    """Eigenvalues against a closed form and a duality, neither of which
    rebuilds the interpolation system the library solves."""

    @pytest.mark.parametrize(
        "m,n,max_size", [(1, 1, 5), (2, 1, 5), (1, 0, 5), (2, 2, 4), (3, 1, 4)]
    )
    def test_theta_one_binomial_formula(self, m, n, max_size):
        # Shifted Schur functions (Okounkov-Olshanski): at theta = 1,
        # P_mu(node lam) = |lam|!/(|lam|-|mu|)! f^{lam/mu} f^mu / f^lam.
        shapes = enumerate_hooks(m, n, max_size)
        for mu in shapes:
            for lam in shapes:
                expected = Fraction(0)
                if contains(lam, mu):
                    expected = Fraction(
                        perm(size(lam), size(mu))
                        * standard_tableaux(lam, mu)
                        * standard_tableaux(mu),
                        standard_tableaux(lam),
                    )
                assert eigenvalue(mu, lam, m, n, 1) == expected, (mu, lam)

    @pytest.mark.parametrize(
        "theta", [Fraction(1, 2), Fraction(1, 3), Fraction(1), Fraction(2, 3)]
    )
    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1)])
    def test_theta_inversion_duality(self, m, n, theta):
        shapes = enumerate_hooks(m, n, 3)
        for mu in shapes:
            for lam in shapes:
                dual = eigenvalue(transpose(mu), transpose(lam), n, m, 1 / theta)
                assert eigenvalue(mu, lam, m, n, theta) == dual, (mu, lam)


class TestPairSweeps:
    """Whole-parameter fully exhaustive check: for every ordered pair of
    Borel orderings, both factor maps land every highest weight on a point
    spectrally equal to the standard node."""

    def test_rank_one_one_all_pairs(self):
        report = run_sweep(
            SweepConfig(pair="diag", m=1, n=1, lambda_max=4, mu_max=3)
        )
        assert report.ok, report.failures[:3]
        expected = (2 * 2) * len(enumerate_hooks(1, 1, 4)) * len(
            enumerate_hooks(1, 1, 3)
        )
        assert report.cases == expected

    def test_rank_two_one_all_pairs(self):
        report = run_sweep(
            SweepConfig(pair="diag", m=2, n=1, lambda_max=4, mu_max=3)
        )
        assert report.ok, report.failures[:3]
        expected = (6 * 6) * len(enumerate_hooks(2, 1, 4)) * len(
            enumerate_hooks(2, 1, 3)
        )
        assert report.cases == expected

    @pytest.mark.parametrize(
        "m,n,bound,cases",
        [(3, 1, 3, 28_224), (3, 2, 2, 230_400), (3, 3, 3, 25_401_600)],
    )
    def test_every_pair_of_many_orderings(self, m, n, bound, cases):
        # 24, 120 and 720 orderings: the sweep works once per ordering and
        # counts the pairs as a product; on a clean sweep no pair is visited.
        report = run_sweep(
            SweepConfig(pair="diag", m=m, n=n, lambda_max=bound, mu_max=bound)
        )
        assert report.ok, report.failures[:3]
        expected = perm(m + n) ** 2 * len(enumerate_hooks(m, n, bound)) ** 2
        assert report.cases == expected == cases


class TestOneSidedSweeps:
    """Half-parameter fully exhaustive check over every decreasing Borel:
    the full-family map works for all shapes and agrees with the standard map
    on generic ones; the kernel-family map works on relatively even Borels;
    the Weyl-vector offset works on very even Borels."""

    @pytest.mark.parametrize("m,n", RANKS)
    def test_borel_count(self, m, n):
        assert len(BorelDescriptor.enumerate(m, n)) == comb(m + 2 * n, m)

    @pytest.mark.parametrize("m,n", RANKS)
    def test_full_family_all_borels(self, m, n):
        report = run_sweep(
            SweepConfig(pair="glm2n", m=m, n=n, lambda_max=5, mu_max=4)
        )
        assert report.ok, report.failures[:3]
        generic_cases = report.cases - comb(m + 2 * n, m) * len(
            enumerate_hooks(m, n, 5)
        ) * len(enumerate_hooks(m, n, 4))
        assert generic_cases > 0

    def test_full_family_all_borels_rank_three_three(self):
        # 84 Borels of gl(3|6); the cold build of every (3,3,1/2) polynomial
        # with |mu| <= 5 is part of it.
        report = run_sweep(
            SweepConfig(pair="glm2n", m=3, n=3, lambda_max=5, mu_max=5)
        )
        assert report.ok, report.failures[:3]
        assert report.cases == 30_406

    @pytest.mark.parametrize("m,n", RANKS)
    def test_kernel_family_on_relatively_even_borels(self, m, n):
        report = run_sweep(
            SweepConfig(
                pair="glm2n", m=m, n=n, lambda_max=5, mu_max=4, map_choice="releven"
            )
        )
        assert report.ok, report.failures[:3]
        assert report.cases > 0

    @pytest.mark.parametrize("m,n", RANKS)
    def test_weyl_offset_on_very_even_borels(self, m, n):
        report = run_sweep(
            SweepConfig(
                pair="glm2n", m=m, n=n, lambda_max=5, mu_max=4, map_choice="veryeven"
            )
        )
        assert report.ok, report.failures[:3]
        assert report.cases > 0


class TestClosedFormTable:
    """The rank-(2,1) highest-weight table regenerates its closed forms
    exactly for all parameters up to five."""

    def test_table_to_five(self):
        table = reproduce_example("gl22_table", max_entry=5)
        assert table["all_match"]
        assert all(row["matches"] for row in table["rows"])

    def test_closed_forms_directly(self):
        borel = BorelDescriptor(2, 1, (1, 1))
        opposite = BorelDescriptor.opposite(2, 1)
        assert highest_weight((), borel) == (0, 0, 0, 0)
        for r in range(1, 6):
            assert highest_weight((r,), borel) == (
                -(2 * r - 1), 0, -1, 0,
            )
            for s in range(1, r + 1):
                for t in range(0, 6):
                    lam = (r, s) + (1,) * t
                    assert highest_weight(lam, opposite) == (
                        -2 * r, -2 * s, -t, -t,
                    )
                    assert highest_weight(lam, borel) == (
                        -(2 * r - 1), -(2 * s - 1), -(t + 2), -t,
                    )


class TestUniquenessChain:
    """The worked rank-(2,2) example: orbit matching forces two offset
    candidates, the closure criterion eliminates one, and the survivor is the
    canonical full-family map; orbits behave exactly as derived."""

    def test_forced_map_and_candidates(self):
        data = reproduce_example("gl22_uniqueness")
        assert data["offset_candidates"] == [
            ["1/4", "-5/4", "1"],
            ["1/4", "3/4", "-1"],
        ]
        assert data["after_closure"] == [["1/4", "3/4", "-1"]]
        final = data["final"]
        assert final["offset"] == ["1/4", "3/4", "-1"]
        assert final["matrix"] == [
            ["-1/2", "0", "0", "0"],
            ["0", "-1/2", "1/2", "-1/2"],
            ["0", "0", "-1", "0"],
        ]
        assert final["equals_canonical"]

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_one_row_orbit_is_the_four_vector_list(self, r):
        base = Fraction(4 * r - 1, 4)
        point = (base, Fraction(-3, 4), Fraction(1))
        result = orbit(point, 2, 1, HALF)
        assert result.status == "finite"
        expected = {
            (base, Fraction(-3, 4), Fraction(1)),
            (base, Fraction(1, 4), Fraction(0)),
            (Fraction(-3, 4), base, Fraction(1)),
            (Fraction(1, 4), base, Fraction(0)),
        }
        assert set(result.points) == expected

    @pytest.mark.parametrize("a", [Fraction(0), Fraction(1), Fraction(7, 3)])
    def test_infinite_orbit_detection_fires(self, a):
        point = (a - HALF, a, -2 * a + HALF)
        result = orbit(point, 2, 1, HALF)
        assert result.status == "infinite"
        assert result.witness is not None


class TestNegativeControl:
    """Forcing the kernel-family matrix shape on the non-relatively-even
    Borel with levels (1, 1) must be caught by the sweep."""

    def test_forced_kernel_map_fails(self):
        report = run_sweep(
            SweepConfig(
                pair="glm2n",
                m=2,
                n=1,
                lambda_max=5,
                mu_max=4,
                borels="1,1",
                map_choice="cb-forced",
            )
        )
        assert not report.ok
        assert len(report.failures) >= 1


class TestPairingNormalization:
    """On the graded-algebra reference, the derivation pairing equals d!
    times the symmetrization pairing on full monomial bases, and the
    rank-one invariant operator acts by d!."""

    @pytest.mark.parametrize(
        "p,q", [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)]
    )
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_factorial_identity_on_full_bases(self, p, q, d):
        space = SuperSpace(p, q)
        basis = monomials_of_degree(space, d)
        for u in basis:
            for w in basis:
                assert derivation_pairing(u, w) == factorial(
                    d
                ) * symmetrization_pairing(u, w, d)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_rank_one_operator_normalization(self, d):
        space = SuperSpace(1, 0)
        v = SuperPolynomial.generator(space, 1)
        matrix = invariant_operator_matrix([v.power(d)], [v.power(d)], d)
        assert matrix == RationalMatrix([[factorial(d)]])


class TestStructuralProperties:
    """Basis dimensions count hooks; the Borel root sum decomposes into its
    even core plus the odd-pair sums; the reflection walk reproduces the
    closed-form highest weight and the library's on every decreasing Borel
    with m, n <= 3."""

    @pytest.mark.parametrize("m,n", RANKS)
    @pytest.mark.parametrize("theta", THETAS)
    def test_basis_dimension_counts_hooks(self, m, n, theta):
        # the reference defect-nullspace basis: the compatible space has as
        # many dimensions as there are hooks
        for d in range(6):
            assert len(defect_nullspace_basis(m, n, theta, d)) == len(
                enumerate_hooks(m, n, d)
            )

    def test_root_sum_decomposition_exhaustive(self):
        for m in range(1, 4):
            for n in range(1, 4):
                for b in BorelDescriptor.enumerate(m, n):
                    total = even_core(b).root_sum()
                    for k in odd_pair_set(b):
                        total = vec_add(total, odd_root_sum(b, k))
                    assert total == b.root_sum(), (m, n, b.ell)

    @pytest.mark.parametrize("m,n", WALK_RANKS)
    def test_reflection_walk_matches_closed_form(self, m, n):
        # the walk, the paper's closed form and the library's diagram rule
        # are three independent derivations of the same highest weight
        for b in BorelDescriptor.enumerate(m, n):
            rho_target = weyl_vector(b.sequence())
            for lam in enumerate_hooks(m, n, 6):
                w, rho = reflection_walk(lam, b)
                assert w == closed_form_highest_weight(lam, b), (lam, b.ell)
                assert w == highest_weight(lam, b), (lam, b.ell)
                assert rho == rho_target
