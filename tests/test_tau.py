from fractions import Fraction

import pytest

from capelli.borel import BorelDescriptor, WeightVector, weyl_vector
from capelli.exact_linalg import RationalMatrix
from capelli.partitions import enumerate_hooks, frobenius_coords
from capelli.tau import (
    MAP_FAMILIES,
    AffineMap,
    diag_map_first,
    diag_map_second,
    diag_map_standard,
    eigenvalue_map_full,
    eigenvalue_map_rel_even,
    eigenvalue_map_very_even,
    family_map,
    forced_kernel_map,
    full_member,
    in_family_domain,
    in_full_family,
    in_kernel_family,
    in_plain_family,
    kernel_member,
    matrix_from_pair_columns,
    pair_columns_of,
    restrict_matrix,
    standard_map,
    standard_matrix,
    standard_offset,
    x0_delta_entry,
    x0_eps_entry,
)
from capelli.weights import highest_weight, hw_standard_doubled, is_generic

HALF = Fraction(1, 2)


def test_restrict_matrix():
    g = restrict_matrix(2, 1)
    assert g.apply((2, 4, 6, 8)) == (1, 2, 7)
    g = restrict_matrix(1, 2)
    assert g.apply((2, 1, 3, 5, 7)) == (1, 2, 6)


def test_standard_map_gl22_anchor():
    sm = standard_map(2, 1)
    assert sm.matrix == RationalMatrix(
        [
            [-HALF, 0, 0, 0],
            [0, -HALF, 0, 0],
            [0, 0, -HALF, -HALF],
        ]
    )
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
        for lam in enumerate_hooks(m, n, 4):
            got = standard_map(m, n).apply(hw_standard_doubled(lam, m, n))
            assert got == frobenius_coords(lam, m, n, HALF), (m, n, lam)


def test_pair_columns_round_trip():
    cols = [(Fraction(1, 2), 0, Fraction(-1, 3), 1), (0, 1, 0, 0)]
    mat = matrix_from_pair_columns(2, 2, cols)
    assert in_plain_family(mat, 2, 2)
    assert pair_columns_of(mat, 2, 2) == [tuple(map(Fraction, c)) for c in cols]
    # a perturbation of an e-column is rejected
    bad = [list(row) for row in standard_matrix(2, 2).entries]
    bad[0][0] += 1
    assert not in_plain_family(RationalMatrix(bad), 2, 2)
    # non-opposite d-pair perturbation is rejected
    bad = [list(row) for row in standard_matrix(2, 2).entries]
    bad[0][2] += 1
    assert not in_plain_family(RationalMatrix(bad), 2, 2)


def test_kernel_member_gl22():
    b = BorelDescriptor(2, 1, (1, 1))
    mat = kernel_member(b)
    assert mat == RationalMatrix(
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
    mat = full_member(b)
    assert mat == RationalMatrix(
        [
            [-HALF, 0, 0, 0],
            [0, -HALF, HALF, -HALF],
            [0, 0, -1, 0],
        ]
    )
    assert in_full_family(mat, b)
    tau = eigenvalue_map_full(b)
    assert tau.offset == (Fraction(1, 4), Fraction(3, 4), Fraction(-1))


def test_full_family_offset_choice_independent():
    # (2|4): ell = (0,1) pins only pair 1; pair 2 stays free, and varying it
    # must not move the offset
    b = BorelDescriptor(2, 2, (0, 1))
    assert b.odd_pair_set() == (1,)
    base = full_member(b)
    cols = pair_columns_of(base, 2, 2)
    cols2 = [cols[0], (Fraction(1), Fraction(-2), 0, Fraction(1, 3))]
    other = matrix_from_pair_columns(2, 2, cols2)
    assert in_full_family(other, b)
    assert eigenvalue_map_full(b, other).offset == eigenvalue_map_full(b).offset
    assert other != base


def test_very_even_map():
    b = BorelDescriptor(2, 1, (2, 2))
    tau = eigenvalue_map_very_even(b)
    want = standard_matrix(2, 1).apply(weyl_vector(b.sequence()).coords())
    assert tau.offset == want
    # at the all-d-first Borel this is exactly the standard map
    op = BorelDescriptor.opposite(2, 1)
    assert eigenvalue_map_very_even(op).offset == standard_map(2, 1).offset
    assert eigenvalue_map_very_even(op).matrix == standard_map(2, 1).matrix
    with pytest.raises(ValueError):
        eigenvalue_map_very_even(BorelDescriptor(2, 1, (1, 1)))


def test_full_extends_very_even():
    for m, n in [(1, 1), (2, 1), (2, 2)]:
        for b in BorelDescriptor.enumerate(m, n):
            if not b.is_very_even():
                continue
            full = eigenvalue_map_full(b, standard_matrix(m, n))
            even = eigenvalue_map_very_even(b)
            assert full.matrix == even.matrix
            assert full.offset == even.offset


def test_rel_even_map_domain():
    with pytest.raises(ValueError):
        eigenvalue_map_rel_even(BorelDescriptor(2, 1, (1, 1)))
    b = BorelDescriptor(2, 1, (0, 1))
    tau = eigenvalue_map_rel_even(b)
    core_rho = weyl_vector(b.even_core().sequence())
    assert tau.offset == standard_matrix(2, 1).apply(core_rho.coords())
    # forcing the construction on a non-relatively-even Borel still yields a map
    forced = forced_kernel_map(BorelDescriptor(2, 1, (1, 1)))
    assert forced.matrix == kernel_member(BorelDescriptor(2, 1, (1, 1)))


def test_root_sum_offset_identity():
    # every construction satisfies matrix*(root sum) = offset - standard offset
    for m, n in [(2, 1), (2, 2)]:
        x0 = standard_offset(m, n)
        for b in BorelDescriptor.enumerate(m, n):
            r = b.root_sum().coords()
            taus = [eigenvalue_map_full(b)]
            if b.is_relatively_even():
                taus.append(eigenvalue_map_rel_even(b))
            if b.is_very_even():
                taus.append(eigenvalue_map_very_even(b))
            for tau in taus:
                lhs = tau.matrix.apply(r)
                rhs = tuple(a - c for a, c in zip(tau.offset, x0))
                assert lhs == rhs, (b.ell, tau)


def test_generic_vector_identity():
    # for generic shapes the full map applied to the Borel highest weight
    # reproduces the standard map on the standard highest weight, as vectors
    for m, n in [(2, 1), (2, 2)]:
        sm = standard_map(m, n)
        for b in BorelDescriptor.enumerate(m, n):
            tau = eigenvalue_map_full(b)
            for lam in enumerate_hooks(m, n, 4):
                if not is_generic(lam, b):
                    continue
                assert tau.apply(highest_weight(lam, b)) == sm.apply(
                    hw_standard_doubled(lam, m, n)
                )


def test_affine_map_validation_and_json():
    with pytest.raises(ValueError):
        AffineMap(RationalMatrix.identity(2), (1,))
    tau = standard_map(2, 1)
    blob = tau.to_json_dict()
    assert blob["matrix"][0] == ["-1/2", "0", "0", "0"]
    assert blob["offset"] == ["-1/4", "-3/4", "1"]


def test_diag_maps():
    rho = WeightVector.make([1], [2])
    first = diag_map_first(rho)
    second = diag_map_second(rho)
    w = WeightVector.make([5], [7])
    assert first.apply(w) == (-6, -9)
    assert second.apply(w) == (6, 9)
    std = diag_map_standard(1, 1)
    assert std.apply(w) == (5 - HALF, 7 + HALF)


CONSTRUCTORS = {
    "full": eigenvalue_map_full,
    "releven": eigenvalue_map_rel_even,
    "veryeven": eigenvalue_map_very_even,
    "cb-forced": forced_kernel_map,
}


def test_registry_names_every_family_constructor():
    assert sorted(MAP_FAMILIES) == sorted(CONSTRUCTORS)


@pytest.mark.parametrize("family", MAP_FAMILIES)
@pytest.mark.parametrize("m, n", [(2, 1), (2, 2), (3, 2)])
def test_family_domain_is_where_the_constructor_succeeds(family, m, n):
    for b in BorelDescriptor.enumerate(m, n):
        try:
            expected = CONSTRUCTORS[family](b)
        except ValueError:
            expected = None
        assert in_family_domain(b, family) == (expected is not None)
        if expected is None:
            with pytest.raises(ValueError):
                family_map(b, family)
        else:
            assert family_map(b, family) == expected


def test_unknown_family_has_empty_domain():
    b = BorelDescriptor(2, 1, (1, 1))
    assert not in_family_domain(b, "bogus")
    with pytest.raises(ValueError, match="bogus"):
        family_map(b, "bogus")
