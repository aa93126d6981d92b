import hashlib
import itertools
import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capelli.borel import BorelDescriptor, weyl_vector
from capelli.exact_linalg import integer_form
from capelli.partitions import enumerate_hooks, frobenius_coords
from capelli.tau import (
    MAP_FAMILIES,
    AffineMap,
    eigenvalue_map,
    family_map,
    in_family_domain,
    standard_offset,
)
from capelli.weights import highest_weight, is_generic
from reference import (
    affine_map,
    even_core,
    full_matrix,
    in_full_family,
    in_kernel_family,
    in_plain_family,
    kernel_matrix,
    matrix_from_pair_columns,
    matvec,
    odd_pair_set,
    odd_root_sum,
    offset_rule_map,
    opposite_sequence,
    pair_columns_of,
    rational_matrix,
    standard_matrix,
    vec_add,
    x0_delta_entry,
    x0_eps_entry,
)

HALF = Fraction(1, 2)


def test_standard_matrix():
    # negated halve-and-pair: a_i -> -a_i/2, each d-pair -> minus its half-sum
    g = family_map(BorelDescriptor.opposite(2, 1), "full").matrix
    assert matvec(g, (2, 4, 6, 8)) == (-1, -2, -7)
    g = family_map(BorelDescriptor.opposite(1, 2), "full").matrix
    assert matvec(g, (2, 1, 3, 5, 7)) == (-1, -2, -6)
    empty = family_map(BorelDescriptor.opposite(0, 0), "full")
    assert empty.matrix == ()


def test_standard_map_gl22_anchor():
    sm = family_map(BorelDescriptor.opposite(2, 1), "full")
    assert sm.matrix == rational_matrix(
        [
            [-HALF, 0, 0, 0],
            [0, -HALF, 0, 0],
            [0, 0, -HALF, -HALF],
        ]
    )
    assert all(type(x) is Fraction for row in sm.matrix for x in row)
    assert sm.offset == (Fraction(-1, 4), Fraction(-3, 4), Fraction(1))


def test_standard_offset_entries():
    for m, n in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        offset = standard_offset(m, n)
        for i in range(1, m + 1):
            assert offset[i - 1] == x0_eps_entry(i, m, n)
        for k in range(1, n + 1):
            assert offset[m + k - 1] == x0_delta_entry(k, m, n)


def test_standard_map_hits_frobenius_coords():
    # the standard map carries the standard highest weight to the shifted
    # coordinates of the shape at theta = 1/2
    for m, n in [(1, 1), (2, 1), (2, 2)]:
        opposite = BorelDescriptor.opposite(m, n)
        for lam in enumerate_hooks(m, n, 4):
            got = family_map(opposite, "full").apply(highest_weight(lam, opposite))
            assert got == frobenius_coords(lam, m, n, HALF), (m, n, lam)


def test_pair_columns_round_trip():
    cols = [(Fraction(1, 2), 0, Fraction(-1, 3), 1), (0, 1, 0, 0)]
    mat = matrix_from_pair_columns(2, 2, cols)
    assert in_plain_family(mat, 2, 2)
    assert pair_columns_of(mat, 2, 2) == [tuple(map(Fraction, c)) for c in cols]
    # the one builder puts the same columns on the same standard matrix
    for b in BorelDescriptor.enumerate(2, 2):
        assert eigenvalue_map(b, cols).matrix == mat
    # a perturbation of an e-column is rejected
    bad = [list(row) for row in standard_matrix(2, 2)]
    bad[0][0] += 1
    assert not in_plain_family(rational_matrix(bad), 2, 2)
    # non-opposite d-pair perturbation is rejected
    bad = [list(row) for row in standard_matrix(2, 2)]
    bad[0][2] += 1
    assert not in_plain_family(rational_matrix(bad), 2, 2)


def test_kernel_member_gl22():
    b = BorelDescriptor(2, 1, (1, 1))
    mat = family_map(b, "cb-forced").matrix
    assert mat == rational_matrix(
        [
            [-HALF, 0, Fraction(-1, 4), Fraction(1, 4)],
            [0, -HALF, Fraction(-1, 4), Fraction(1, 4)],
            [0, 0, 0, -1],
        ]
    )
    assert in_kernel_family(mat, b)
    assert not in_kernel_family(standard_matrix(2, 1), b)
    # perturbing the pinned pair leaves the kernel family
    off = matrix_from_pair_columns(2, 1, [(1, 0, 0)])
    assert not in_kernel_family(off, b)


def test_full_member_gl22_is_papers_final_map():
    b = BorelDescriptor(2, 1, (1, 1))
    mat = family_map(b, "full").matrix
    assert mat == rational_matrix(
        [
            [-HALF, 0, 0, 0],
            [0, -HALF, HALF, -HALF],
            [0, 0, -1, 0],
        ]
    )
    assert in_full_family(mat, b)
    tau = family_map(b, "full")
    assert tau.offset == (Fraction(1, 4), Fraction(3, 4), Fraction(-1))


def test_full_family_offset_choice_independent():
    # (2|4): ell = (0,1) pins only pair 1; pair 2 stays free, and varying it
    # must not move the offset, matrix * root sum + standard offset
    b = BorelDescriptor(2, 2, (0, 1))
    assert odd_pair_set(b) == (1,)
    base = family_map(b, "full").matrix
    cols = pair_columns_of(base, 2, 2)
    cols2 = [cols[0], (Fraction(1), Fraction(-2), 0, Fraction(1, 3))]
    other = matrix_from_pair_columns(2, 2, cols2)
    assert in_full_family(other, b)
    assert other != base
    assert eigenvalue_map(b, cols2).matrix == other
    assert eigenvalue_map(b, cols2).offset == family_map(b, "full").offset


def weyl_vector_map(b):
    """The very even construction: the standard matrix with offset the
    standard matrix applied to the Borel's Weyl vector."""
    matrix = standard_matrix(b.m, b.n)
    return affine_map(matrix, matvec(matrix, weyl_vector(b.sequence())))


def test_very_even_map():
    b = BorelDescriptor(2, 1, (2, 2))
    tau = family_map(b, "veryeven")
    want = matvec(standard_matrix(2, 1), weyl_vector(b.sequence()))
    assert tau.offset == want
    # at the all-d-first Borel this is exactly the standard matrix and offset
    op = BorelDescriptor.opposite(2, 1)
    assert family_map(op, "veryeven").offset == standard_offset(2, 1)
    assert family_map(op, "veryeven").matrix == standard_matrix(2, 1)
    with pytest.raises(ValueError, match="not very even"):
        family_map(BorelDescriptor(2, 1, (1, 1)), "veryeven")


def test_full_extends_very_even():
    # On a very even Borel the full map is the standard matrix with the
    # Weyl-vector offset, so the veryeven family needs no constructor of its own.
    count = 0
    for m, n in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        for b in BorelDescriptor.enumerate(m, n):
            if not b.is_very_even():
                continue
            assert family_map(b, "full") == weyl_vector_map(b), b.ell
            assert family_map(b, "veryeven") == weyl_vector_map(b)
            count += 1
    assert count == 2 + 3 + 6 + 10


def test_rel_even_map_domain():
    with pytest.raises(ValueError, match="not relatively even"):
        family_map(BorelDescriptor(2, 1, (1, 1)), "releven")
    b = BorelDescriptor(2, 1, (0, 1))
    tau = family_map(b, "releven")
    core_rho = weyl_vector(even_core(b).sequence())
    assert tau.offset == matvec(standard_matrix(2, 1), core_rho)
    # forcing the construction on a non-relatively-even Borel still yields a map
    b = BorelDescriptor(2, 1, (1, 1))
    forced = family_map(b, "cb-forced")
    assert forced.matrix == kernel_matrix(b)
    assert forced == eigenvalue_map(b, pair_columns_of(kernel_matrix(b), 2, 1))


# Every rank with m, n <= 3, either of them 0 included.
SMALL_RANKS = [(m, n) for m in range(4) for n in range(4)]

# The family matrix each map is built on, by the matrix-product construction.
REFERENCE_MATRICES = {
    "full": full_matrix,
    "releven": kernel_matrix,
    "veryeven": full_matrix,
    "cb-forced": kernel_matrix,
}


def test_maps_match_the_fraction_construction():
    # Every map of every family against the construction in Fractions: the
    # same matrix, and offset matrix * (root sum) + standard offset. A kernel
    # matrix annihilates every odd root sum.
    count = 0
    for m, n in SMALL_RANKS:
        x0 = tuple(x0_eps_entry(i, m, n) for i in range(1, m + 1)) + tuple(
            x0_delta_entry(k, m, n) for k in range(1, n + 1)
        )
        for b in BorelDescriptor.enumerate(m, n):
            for family in MAP_FAMILIES:
                if not in_family_domain(b, family):
                    continue
                tau = family_map(b, family)
                matrix = REFERENCE_MATRICES[family](b)
                assert tau.matrix == matrix, (b.ell, family)
                assert tau.offset == vec_add(matvec(matrix, b.root_sum()), x0)
                if REFERENCE_MATRICES[family] is kernel_matrix:
                    zero = (0,) * (m + n)
                    for k in range(1, n + 1):
                        assert matvec(tau.matrix, odd_root_sum(b, k)) == zero
                count += 1
    assert count == 629


def test_rel_even_offset_is_core_weyl_vector():
    # The paper's relatively even offset, the standard matrix applied to the
    # Weyl vector of the even core, is what the one offset rule gives there.
    count = 0
    for m, n in SMALL_RANKS:
        for b in BorelDescriptor.enumerate(m, n):
            if not b.is_relatively_even():
                continue
            rho = weyl_vector(even_core(b).sequence())
            want = matvec(standard_matrix(m, n), rho)
            assert family_map(b, "releven").offset == want, (m, n, b.ell)
            count += 1
    assert count == 160


def test_standard_offset_is_the_projected_opposite_weyl_vector():
    # The closed form against the construction it stands for: the standard
    # matrix applied to the Weyl vector of the all-d-first ordering.
    for m, n in SMALL_RANKS:
        rho = weyl_vector(opposite_sequence(m, 2 * n))
        assert standard_offset(m, n) == matvec(standard_matrix(m, n), rho), (m, n)


def test_root_sum_offset_identity():
    # every map satisfies matrix*(root sum) = offset - standard offset
    for m, n in SMALL_RANKS:
        x0 = standard_offset(m, n)
        for b in BorelDescriptor.enumerate(m, n):
            r = b.root_sum()
            taus = [
                family_map(b, family)
                for family in MAP_FAMILIES
                if in_family_domain(b, family)
            ]
            assert len(taus) >= 2
            if b.is_very_even():
                taus.append(weyl_vector_map(b))
            for tau in taus:
                lhs = matvec(tau.matrix, r)
                rhs = tuple(a - c for a, c in zip(tau.offset, x0))
                assert lhs == rhs, (b.ell, tau)


def test_generic_vector_identity():
    # for generic shapes the full map applied to the Borel highest weight
    # reproduces the standard map on the standard highest weight, as vectors
    for m, n in [(2, 1), (2, 2)]:
        opposite = BorelDescriptor.opposite(m, n)
        sm = family_map(opposite, "full")
        for b in BorelDescriptor.enumerate(m, n):
            tau = family_map(b, "full")
            for lam in enumerate_hooks(m, n, 4):
                if not is_generic(lam, b):
                    continue
                assert tau.apply(highest_weight(lam, b)) == sm.apply(
                    highest_weight(lam, opposite)
                )


def test_affine_map_validation_and_json():
    # n pair columns of length m + n
    b = BorelDescriptor(2, 1, (1, 1))
    for columns in ([], [(1, 0)], [(1, 0, 0), (1, 0, 0)]):
        with pytest.raises(ValueError, match="need 1 pair columns of length 3"):
            eigenvalue_map(b, columns)
    # the rows are kept in lowest terms
    assert AffineMap(4, [(2, 0, -2)]) == AffineMap(2, [(1, 0, -1)])
    assert AffineMap(4, [(2, 0, -2)]).den == 2
    # with no rows the map takes no coordinates
    empty = family_map(BorelDescriptor.opposite(0, 0), "full")
    assert empty.integer_apply(1, ()) == (1, ())
    with pytest.raises(ValueError, match="dimension mismatch"):
        empty.integer_apply(1, (1,))
    tau = family_map(BorelDescriptor.opposite(2, 1), "full")
    blob = tau.to_json_dict()
    assert blob["matrix"][0] == ["-1/2", "0", "0", "0"]
    assert blob["offset"] == ["-1/4", "-3/4", "1"]


def test_affine_maps_hash_and_equal_maps_hash_equal():
    # Every field of a map is a tuple, so a map hashes; a map rebuilt from
    # its rows, or over a multiple of its denominator, is equal and hashes
    # equal, and so does any other family's map that is equal to it.
    maps = [
        family_map(b, family)
        for b in BorelDescriptor.enumerate(2, 2)
        for family in MAP_FAMILIES
        if in_family_domain(b, family)
    ]
    assert len(maps) == 49
    for tau in maps:
        assert isinstance(hash(tau), int)
        for twin in (
            AffineMap(tau.den, tau.rows),
            AffineMap(3 * tau.den, [[3 * v for v in row] for row in tau.rows]),
        ):
            assert twin == tau and hash(twin) == hash(tau)
        for other in maps:
            if other == tau:
                assert hash(other) == hash(tau)
    assert len(set(maps)) == len({(tau.den, tau.rows) for tau in maps}) < len(maps)


def test_integer_apply_over_minus_one_maps_the_negated_point():
    # Over denominator -1 a map takes minus the point, in lowest terms with
    # a positive denominator, as the sweep applies it to minus a cut.
    for b in BorelDescriptor.enumerate(2, 2):
        tau = family_map(b, "full")
        for w in itertools.product(range(-2, 3), repeat=3):
            w = (*w, 1, 0, -1)
            den, nums = tau.integer_apply(-1, w)
            assert den > 0
            assert (den, nums) == tau.integer_apply(1, [-v for v in w])


# The maps of every family on every decreasing Borel of (2, 2), (3, 3) and
# (4, 4), digested as [ell, family, den, rows] in that order, as the builder
# gave them when it read the levels j_k one call at a time.
MAP_DIGESTS = {
    (2, 2): (49, "f637bd2d41a7f1e5323a7df43cda80cda9ea1214d09ac9f807a616af1d92090e"),
    (3, 3): (251, "72af06d9232a50c357aa929d63b90e7716973b85b41de54607bf442454ea5818"),
    (4, 4): (1381, "a447fd2c568ded9b1914a2fdf93232daf6a3d6026ec42242ce9da75595e8e158"),
}


@pytest.mark.parametrize("m, n", sorted(MAP_DIGESTS))
def test_maps_match_their_digests(m, n):
    maps = [
        [list(b.ell), family, tau.den, [list(row) for row in tau.rows]]
        for b in BorelDescriptor.enumerate(m, n)
        for family in MAP_FAMILIES
        if in_family_domain(b, family)
        for tau in [family_map(b, family)]
    ]
    digest = hashlib.sha256(json.dumps(maps).encode()).hexdigest()
    assert (len(maps), digest) == MAP_DIGESTS[m, n]


# Entries over 3 and 5 and their products, so a map's denominator is not a
# power of 2, at points that are not integral.
map_entries = st.fractions(min_value=-3, max_value=3).map(
    lambda x: x.limit_denominator(15)
)
points = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_integer_apply_matches_fraction_arithmetic(data):
    rows = data.draw(st.integers(min_value=1, max_value=4))
    cols = data.draw(st.integers(min_value=1, max_value=5))
    matrix = rational_matrix(
        [[data.draw(map_entries) for _ in range(cols)] for _ in range(rows)]
    )
    offset = tuple(data.draw(map_entries) for _ in range(rows))
    point = tuple(data.draw(points) for _ in range(cols))
    tau = affine_map(matrix, offset)
    den, nums = tau.integer_apply(*integer_form(point))
    expected = tuple(
        sum((a * x for a, x in zip(row, point)), Fraction(0)) + c
        for row, c in zip(matrix, offset)
    )
    assert tuple(Fraction(v, den) for v in nums) == expected == tau.apply(point)
    # lowest terms: the least common denominator of the image
    assert den == math.lcm(*(x.denominator for x in expected))
    assert math.gcd(den, *nums) == 1
    with pytest.raises(ValueError, match="dimension mismatch"):
        tau.integer_apply(*integer_form(point + (1,)))


# Each family is served by one of the two matrices under the one offset rule.
CONSTRUCTORS = {
    family: lambda b, matrix=matrix: offset_rule_map(b, matrix(b))
    for family, matrix in REFERENCE_MATRICES.items()
}


def pair_gaps(b):
    """Per d-pair k, the number of e-symbols between d_{2k} and d_{2k-1} in
    the Borel's ordering."""
    seen, before = 0, {}
    for kind, index in b.sequence():
        if kind == "e":
            seen += 1
        else:
            before[index] = seen
    return [before[2 * k - 1] - before[2 * k] for k in range(1, b.n + 1)]


# The paper's domains, read off the levels and the ordering rather than the
# descriptor's own predicates.
DOMAINS = {
    "full": lambda b: True,
    "releven": lambda b: all(gap <= 1 for gap in pair_gaps(b)),
    "veryeven": lambda b: all(v % 2 == 0 for v in b.ell),
    "cb-forced": lambda b: True,
}


def test_registry_names_every_family_constructor():
    assert sorted(MAP_FAMILIES) == sorted(CONSTRUCTORS) == sorted(DOMAINS)


@pytest.mark.parametrize("family", MAP_FAMILIES)
@pytest.mark.parametrize("m, n", [(2, 1), (2, 2), (3, 2)])
def test_family_domain_is_where_the_constructor_succeeds(family, m, n):
    # family_map raises exactly off the one domain rule, and on it returns
    # the family's construction
    inside = 0
    for b in BorelDescriptor.enumerate(m, n):
        assert in_family_domain(b, family) == DOMAINS[family](b), b.ell
        if in_family_domain(b, family):
            assert family_map(b, family) == CONSTRUCTORS[family](b)
            inside += 1
        else:
            with pytest.raises(ValueError, match=re.escape(str(b.ell))):
                family_map(b, family)
    assert 0 < inside


def test_unknown_family_has_empty_domain():
    b = BorelDescriptor(2, 1, (1, 1))
    assert not in_family_domain(b, "bogus")
    with pytest.raises(ValueError, match="bogus"):
        family_map(b, "bogus")
