import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capelli.borel import (
    BorelDescriptor,
    all_sequences,
    format_symbol,
    parse_symbol,
    standard_sequence,
    validate_sequence,
    weyl_vector,
)
from reference import (
    coeff,
    core_reflection_roots,
    even_core,
    from_sequence,
    generic_roots,
    odd_pair_set,
    odd_root_sum,
    opposite_sequence,
    pairing,
    root,
    unit_weight,
    vec_add,
    vec_neg,
    vec_sub,
)


def test_weight_vector_pairing():
    # +1 on e-coordinates, -1 on d-coordinates; weights are (e1, e2 | d1)
    a = (1, 0, 2)
    b = (3, 5, 7)
    assert pairing(a, b, 2) == 3 - 14
    alpha = (1, 0, -1)  # e_1 - d_1
    w = (4, 0, 6)
    assert pairing(w, alpha, 2) == 4 + 6
    with pytest.raises(ValueError):
        pairing(a, (1, 1), 1)


def test_sequences():
    assert standard_sequence(2, 1) == (("e", 1), ("e", 2), ("d", 1))
    assert opposite_sequence(2, 1) == (("d", 1), ("e", 2), ("e", 1))
    assert len(list(all_sequences(2, 1))) == 6
    assert len(list(all_sequences(2, 2))) == 24


def test_weyl_vector_standard_display():
    # standard ordering of (m | N): coefficient (m - N + 1 - 2i)/2 on e_i and
    # (m + N + 1 - 2k)/2 on d_k
    for m, nd in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        rho = weyl_vector(standard_sequence(m, nd))
        for i in range(1, m + 1):
            assert rho[i - 1] == Fraction(m - nd + 1 - 2 * i, 2)
        for k in range(1, nd + 1):
            assert rho[m + k - 1] == Fraction(m + nd + 1 - 2 * k, 2)


def test_weyl_vector_opposite_display():
    # all-d-first ordering: (2i - 1 - m + N)/2 on e_i, (2k - 1 - N - m)/2 on d_k
    for m, nd in [(1, 2), (2, 2), (2, 4), (3, 2)]:
        rho = weyl_vector(opposite_sequence(m, nd))
        for i in range(1, m + 1):
            assert rho[i - 1] == Fraction(2 * i - 1 - m + nd, 2)
        for k in range(1, nd + 1):
            assert rho[m + k - 1] == Fraction(2 * k - 1 - nd - m, 2)
    # the (2|2) anchor: (1/2, 3/2 | -3/2, -1/2)
    rho = weyl_vector(opposite_sequence(2, 2))
    assert rho == (Fraction(1, 2), Fraction(3, 2), Fraction(-3, 2), Fraction(-1, 2))


def test_weyl_vector_swap_increment():
    # swapping an adjacent mixed pair (xi_a, xi_b) -> (xi_b, xi_a) adds
    # alpha = xi_a - xi_b to the Weyl vector
    for seq in all_sequences(2, 2):
        rho = weyl_vector(seq)
        for p in range(len(seq) - 1):
            if seq[p][0] == seq[p + 1][0]:
                continue
            swapped = list(seq)
            swapped[p], swapped[p + 1] = swapped[p + 1], swapped[p]
            alpha = vec_sub(unit_weight(2, 2, seq[p]), unit_weight(2, 2, seq[p + 1]))
            assert weyl_vector(tuple(swapped)) == vec_add(rho, alpha)


def _pairwise_half_sum(seq):
    """The defining half-sum over ordered pairs, one pair at a time."""
    coeff = {symbol: Fraction(0) for symbol in seq}
    for a, b in itertools.combinations(seq, 2):
        sign = Fraction(1, 2) if a[0] == b[0] else Fraction(-1, 2)
        coeff[a] += sign
        coeff[b] -= sign
    return coeff


def test_weyl_vector_closed_form_matches_pairwise_half_sum():
    count = 0
    for m in range(4):
        for n in range(4):
            for seq in all_sequences(m, n):
                rho = weyl_vector(seq)
                assert len(rho) == m + n
                half_sum = {sym: coeff(rho, sym, m) for sym in seq}
                assert half_sum == _pairwise_half_sum(seq)
                count += 1
    assert count == 1065


def test_weyl_vector_of_the_reversed_ordering_is_its_negative():
    # Reversing an ordering flips every ordered pair, so rho(reversed) =
    # -rho. This ties the two diag factors together: the dual side's point
    # -(w + rho(seq)) is -w + rho(reversed seq).
    count = 0
    for m in range(6):
        for n in range(6 - m):
            for seq in all_sequences(m, n):
                assert weyl_vector(tuple(reversed(seq))) == vec_neg(weyl_vector(seq))
                count += 1
    assert count == 873  # sum of (m + n)! over m + n <= 5


def test_descriptor_validation():
    BorelDescriptor(2, 1, (1, 1))
    with pytest.raises(ValueError):
        BorelDescriptor(2, 1, (1,))
    with pytest.raises(ValueError):
        BorelDescriptor(2, 1, (2, 1))  # not weakly increasing
    with pytest.raises(ValueError):
        BorelDescriptor(2, 1, (0, 3))  # exceeds 2n
    for m, n, ell in [(2, -1, (0, 0)), (-1, 1, ())]:
        with pytest.raises(ValueError, match="m and n must be nonnegative"):
            BorelDescriptor(m, n, ell)


@pytest.mark.parametrize("m, n, ell", [(2, 1, (0, 1)), (0, 1, ())])
def test_index_lookups_reject_indices_out_of_range(m, n, ell):
    b = BorelDescriptor(m, n, ell)
    for i in (0, m + 1):
        with pytest.raises(ValueError, match=f"i={i} out of range"):
            b.ell_of(i)
    for k in (0, 2 * n + 1):
        with pytest.raises(ValueError, match=f"k={k} out of range"):
            b.j_of(k)


def test_descriptor_sequence_round_trip():
    b = BorelDescriptor(2, 1, (1, 1))
    assert b.sequence() == (("d", 2), ("e", 2), ("e", 1), ("d", 1))
    assert from_sequence(b.sequence(), 2, 1) == b
    for m, n in [(1, 1), (2, 1), (2, 2)]:
        for b in BorelDescriptor.enumerate(m, n):
            assert from_sequence(b.sequence(), m, n) == b
    with pytest.raises(ValueError):
        from_sequence(
            (("e", 1), ("e", 2), ("d", 1), ("d", 2)), 2, 1
        )


def test_enumerate_counts():
    assert len(BorelDescriptor.enumerate(1, 1)) == 3
    assert len(BorelDescriptor.enumerate(2, 1)) == 6
    assert len(BorelDescriptor.enumerate(2, 2)) == 15
    assert len(BorelDescriptor.enumerate(3, 3)) == 84


def test_j_vector():
    assert BorelDescriptor(2, 1, (1, 1)).j_vector() == (2, 0)
    assert BorelDescriptor(2, 2, (1, 3)).j_vector() == (2, 1, 1, 0)
    assert BorelDescriptor(2, 1, (0, 0)).j_vector() == (0, 0)
    assert BorelDescriptor(2, 1, (2, 2)).j_vector() == (2, 2)


def test_generic_roots_and_root_sum():
    b = BorelDescriptor(2, 1, (1, 1))
    roots = generic_roots(b)
    assert roots == [root(b, 2, 1), root(b, 1, 1)]
    assert root(b, 1, 1) == (-1, 0, 1, 0)
    assert b.root_sum() == (-1, -1, 2, 0)
    for m, n in [(1, 1), (2, 1), (2, 2)]:
        for b in BorelDescriptor.enumerate(m, n):
            total = (0,) * (m + 2 * n)
            for alpha in generic_roots(b):
                total = vec_add(total, alpha)
            assert total == b.root_sum()


def test_rho_equals_opposite_plus_root_sum():
    for m, n in [(1, 1), (2, 1), (2, 2)]:
        rho_op = weyl_vector(opposite_sequence(m, 2 * n))
        for b in BorelDescriptor.enumerate(m, n):
            assert weyl_vector(b.sequence()) == vec_add(rho_op, b.root_sum())


def test_classification():
    # the facts the deleted three-way label encoded, through the predicates
    assert BorelDescriptor(2, 1, (0, 0)).is_very_even()
    assert BorelDescriptor(2, 1, (2, 2)).is_very_even()
    rel_even = BorelDescriptor(2, 1, (0, 1))
    assert rel_even.is_relatively_even() and not rel_even.is_very_even()
    assert not BorelDescriptor(2, 1, (1, 1)).is_relatively_even()
    assert odd_pair_set(BorelDescriptor(2, 1, (1, 1))) == (1,)
    assert BorelDescriptor(2, 2, (1, 3)).is_relatively_even()
    assert not BorelDescriptor(2, 2, (1, 3)).is_very_even()
    assert odd_pair_set(BorelDescriptor(2, 2, (1, 3))) == (1, 2)
    # very even implies relatively even
    for b in BorelDescriptor.enumerate(2, 2):
        if b.is_very_even():
            assert b.is_relatively_even()
            assert odd_pair_set(b) == ()


def test_even_core():
    assert even_core(BorelDescriptor(2, 2, (1, 3))) == BorelDescriptor(2, 2, (0, 2))
    assert even_core(BorelDescriptor(2, 1, (1, 1))) == BorelDescriptor(2, 1, (0, 0))
    for b in BorelDescriptor.enumerate(2, 2):
        assert even_core(b).is_very_even()
        if b.is_very_even():
            assert even_core(b) == b


def test_odd_root_sum():
    b = BorelDescriptor(2, 1, (1, 1))
    assert odd_root_sum(b, 1) == (-1, -1, 2, 0)
    even = BorelDescriptor(2, 1, (2, 2))
    assert odd_root_sum(even, 1) == (0, 0, 0, 0)


def test_root_sum_decomposition():
    for m, n in [(1, 1), (2, 1), (2, 2)]:
        for b in BorelDescriptor.enumerate(m, n):
            total = even_core(b).root_sum()
            for k in odd_pair_set(b):
                total = vec_add(total, odd_root_sum(b, k))
            assert total == b.root_sum()


def test_core_reflection_roots():
    b = BorelDescriptor(2, 2, (1, 3))
    assert core_reflection_roots(b) == [root(b, 2, 3), root(b, 1, 1)]
    # the Weyl vector moves from the core by exactly the reflection roots
    for m, n in [(1, 1), (2, 1), (2, 2)]:
        for b in BorelDescriptor.enumerate(m, n):
            rho = weyl_vector(even_core(b).sequence())
            for alpha in core_reflection_roots(b):
                rho = vec_add(rho, alpha)
            assert rho == weyl_vector(b.sequence())


def test_parse_format_symbol():
    assert parse_symbol("e2") == ("e", 2)
    assert parse_symbol("D1") == ("d", 1)
    assert format_symbol(("d", 2)) == "d2"
    with pytest.raises(ValueError):
        parse_symbol("x1")


@pytest.mark.parametrize(
    "seq",
    [
        (("e", 1), ("e", 1), ("d", 1)),  # a duplicate
        (("e", 1), ("d", 1)),  # a missing symbol
        (("e", 0), ("e", 1), ("d", 1)),  # index 0
        (("e", 1), ("e", 2), ("d", 2)),  # an index past the family size
        (("e", 1), ("e", 2), ("x", 1)),  # an unknown kind
        (("e", 1), ("e", 2), ("d", 1), ("d", 2)),  # too long
    ],
)
def test_validate_sequence_rejects_non_orderings(seq):
    # (2|1): exactly e1, e2 and d1, each once, in any order
    assert validate_sequence(reversed(standard_sequence(2, 1)), 2, 1) == (
        ("d", 1),
        ("e", 2),
        ("e", 1),
    )
    with pytest.raises(ValueError, match=r"is not an ordering of 2 e/1 d symbols$"):
        validate_sequence(seq, 2, 1)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ell_j_duality(data):
    m = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 3))
    ell = tuple(
        sorted(data.draw(st.integers(0, 2 * n)) for _ in range(m))
    )
    b = BorelDescriptor(m, n, ell)
    js = b.j_vector()
    # j is weakly decreasing and recovers ell by the transpose relation
    assert list(js) == sorted(js, reverse=True)
    for i in range(1, m + 1):
        assert b.ell_of(i) == sum(1 for k in range(1, 2 * n + 1) if js[k - 1] >= m - i + 1)
