import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capelli.borel import (
    BorelDescriptor,
    all_sequences,
    standard_sequence,
    weyl_vector,
)
from capelli.isjp import evaluator
from capelli.partitions import double_partition, enumerate_hooks, hook_frame, part
from capelli.weights import (
    diag_highest_weight,
    doubled_frame,
    highest_weight,
    integer_cut,
    is_generic,
)
from reference import (
    closed_form_highest_weight,
    closed_form_standard,
    coeff,
    diagram_cut_by_columns,
    hw_standard_diag,
    nongeneric_index,
    odd_reflection_step,
    opposite_sequence,
    pattern_representative,
    reflection_walk,
    truncated_root_sum,
    unit_weight,
    vec_add,
    vec_neg,
    vec_sub,
)


def test_hw_standard_diag():
    assert hw_standard_diag((1,), 1, 1) == (1, 0)
    assert hw_standard_diag((3, 1, 1), 1, 1) == (3, 2)
    assert hw_standard_diag((2, 2, 1), 2, 1) == (2, 2, 1)
    assert hw_standard_diag((), 2, 1) == (0, 0, 0)
    with pytest.raises(ValueError):
        hw_standard_diag((2, 2), 1, 1)


def test_hw_standard_doubled_table_forms():
    # the standard weight is the highest weight of the opposite Borel
    opposite = BorelDescriptor.opposite(2, 1)
    # hook shapes (r, s, 1^t) at (m,n) = (2,1): -(2r, 2s | t, t)
    for r, s, t in [(1, 1, 0), (3, 2, 2), (5, 5, 5), (2, 1, 4)]:
        lam = (r, s) + (1,) * t
        assert highest_weight(lam, opposite) == (-2 * r, -2 * s, -t, -t)
    # single row (r): -(2r, 0 | 0, 0)
    for r in range(1, 6):
        assert highest_weight((r,), opposite) == (-2 * r, 0, 0, 0)
    assert highest_weight((), opposite) == (0, 0, 0, 0)


def test_odd_reflection_step():
    # weights are (e1, e2 | d1, d2)
    alpha = (0, -1, 1, 0)  # d_1 - e_2
    w = (3, 2, 1, 0)
    # pairing (w, alpha) = -2 - 1 = -3 != 0: subtract
    assert odd_reflection_step(w, alpha, 2) == vec_sub(w, alpha) == (3, 3, 0, 0)
    w0 = (3, 2, -2, 0)
    # pairing = -2 - (-2) = 0: unchanged
    assert odd_reflection_step(w0, alpha, 2) == w0
    with pytest.raises(ValueError):
        odd_reflection_step(w, (1, 0, 0, 0), 2)
    with pytest.raises(ValueError):
        odd_reflection_step(w, (2, 0, -2, 0), 2)


def test_truncated_root_sum_and_highest_weight_table():
    b = BorelDescriptor(2, 1, (1, 1))
    # (r, s, 1^t): both rows positive, full clip inactive: hw
    # -(2r-1, 2s-1 | t+2, t)
    for r, s, t in [(1, 1, 0), (2, 1, 1), (4, 3, 2), (5, 5, 5)]:
        lam = (r, s) + (1,) * t
        assert truncated_root_sum(lam, b) == b.root_sum()
        assert highest_weight(lam, b) == (-(2 * r - 1), -(2 * s - 1), -(t + 2), -t)
    # single row (r): second row clips: hw -(2r-1, 0 | 1, 0)
    for r in range(1, 6):
        assert truncated_root_sum((r,), b) == (-1, 0, 1, 0)
        assert highest_weight((r,), b) == (-(2 * r - 1), 0, -1, 0)
    assert highest_weight((), b) == (0, 0, 0, 0)


def test_genericity():
    b = BorelDescriptor(2, 1, (1, 1))
    assert is_generic((1, 1), b)
    assert not is_generic((3,), b)
    assert nongeneric_index((3,), b) == 2
    assert nongeneric_index((1, 1), b) is None
    # three-way equivalence: generic <=> truncation inactive <=> r(lam,b)=r_b
    for m, n in [(1, 1), (2, 1), (2, 2)]:
        for b in BorelDescriptor.enumerate(m, n):
            for lam in enumerate_hooks(m, n, 4):
                generic = is_generic(lam, b)
                all_rows = all(
                    2 * part(lam, i) >= b.ell[i - 1] for i in range(1, m + 1)
                )
                assert generic == all_rows
                assert generic == (truncated_root_sum(lam, b) == b.root_sum())
                assert generic == (nongeneric_index(lam, b) is None)


def test_every_shape_is_generic_without_e_symbols():
    # with m = 0 there is no row for a level to truncate
    for n in (1, 2):
        for b in BorelDescriptor.enumerate(0, n):
            for lam in enumerate_hooks(0, n, 4):
                assert is_generic(lam, b)
                standard = highest_weight(lam, BorelDescriptor.opposite(0, n))
                assert highest_weight(lam, b) == vec_sub(standard, b.root_sum())


def test_highest_weight_e_coefficients_nonpositive():
    for m, n in [(2, 1), (2, 2)]:
        for b in BorelDescriptor.enumerate(m, n):
            for lam in enumerate_hooks(m, n, 5):
                w = highest_weight(lam, b)
                assert all(c <= 0 for c in w[:m]), (lam, b.ell)


def test_reflection_walk_matches_closed_form():
    for m, n in [(1, 1), (2, 1), (2, 2)]:
        for b in BorelDescriptor.enumerate(m, n):
            rho_target = weyl_vector(b.sequence())
            for lam in enumerate_hooks(m, n, 4):
                w, rho = reflection_walk(lam, b)
                assert w == closed_form_highest_weight(lam, b), (lam, b.ell)
                assert rho == rho_target


def _swap(seq, p):
    seq = list(seq)
    seq[p], seq[p + 1] = seq[p + 1], seq[p]
    return tuple(seq)


def test_diagram_cut_follows_adjacent_swaps():
    # a mixed swap is an odd reflection in the simple root it crosses; a
    # same-family swap only relabels, so the two coefficients trade places
    swaps = 0
    for m, n in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (3, 2)]:
        hooks = enumerate_hooks(m, n, 4)
        for seq in all_sequences(m, n):
            for lam in hooks:
                w = diag_highest_weight(seq, lam, m, n, dual=False)
                for p in range(len(seq) - 1):
                    a, b = seq[p], seq[p + 1]
                    swapped = diag_highest_weight(
                        _swap(seq, p), lam, m, n, dual=False
                    )
                    if a[0] != b[0]:
                        alpha = vec_sub(unit_weight(m, n, a), unit_weight(m, n, b))
                        want = odd_reflection_step(w, alpha, m)
                        assert swapped == want, (seq, p, lam)
                    else:
                        traded = {a: b, b: a}
                        assert [coeff(swapped, s, m) for s in seq] == [
                            coeff(w, traded.get(s, s), m) for s in seq
                        ], (seq, p, lam)
                    swaps += 1
    assert swaps == 7798


def test_orderings_of_one_pattern_have_their_representatives_points():
    # A symbol's coordinate of w + rho depends only on its family and on the
    # e's and d's before it, so position by position every ordering's
    # 2w + 2 rho is its e/d pattern representative's: the pair sweep reads
    # each ordering's values at its representative.
    def twice_shifted(seq, lam, m, n):
        w = diag_highest_weight(seq, lam, m, n, dual=False)
        return [int(2 * (a + b)) for a, b in zip(w, weyl_vector(seq))]

    for m, n in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3), (3, 3)]:
        hooks = enumerate_hooks(m, n, 4)
        values_at = evaluator(m, n, Fraction(1), hooks) if (m, n) == (2, 2) else None
        points = {}
        for seq in all_sequences(m, n):
            rep = pattern_representative(seq)
            for lam in hooks:
                if (rep, lam) not in points:
                    points[rep, lam] = twice_shifted(rep, lam, m, n)
                point = twice_shifted(seq, lam, m, n)
                assert [coeff(point, s, m) for s in seq] == [
                    coeff(points[rep, lam], s, m) for s in rep
                ], (seq, lam)
                if values_at:
                    assert values_at(2, point) == values_at(2, points[rep, lam])
        assert len(points) == math.comb(m + n, m) * len(hooks)


def test_diagram_cut_matches_decreasing_borel_closed_form():
    # the library's (m|2n) highest weights, which are minus the diagram cut
    # of the doubled partition for the reversed ordering, equal the paper's
    # closed forms on every decreasing Borel
    cases = 0
    for m in range(1, 4):
        for n in range(4):
            hooks = enumerate_hooks(m, n, 6)
            opposite = BorelDescriptor.opposite(m, n)
            for lam in hooks:
                assert highest_weight(lam, opposite) == closed_form_standard(
                    lam, m, n
                ), lam
            for b in BorelDescriptor.enumerate(m, n):
                for lam in hooks:
                    assert highest_weight(lam, b) == closed_form_highest_weight(
                        lam, b
                    ), (lam, b.ell)
                    cases += 1
    assert cases == 5801


BAD_ORDERINGS = [
    (("e", 1), ("e", 3), ("d", 1)),
    (("e", 1), ("e", 1), ("d", 1)),
    (("e", 1), ("d", 1)),
    (("e", 3), ("e", 1), ("d", 1)),
    (("e", 1), ("e", 2), ("d", 1), ("d", 2)),
]


@pytest.mark.parametrize("seq", BAD_ORDERINGS)
def test_diagram_cut_rejects_bad_orderings(seq):
    with pytest.raises(ValueError):
        diag_highest_weight(seq, (1,), 2, 1, dual=False)


@pytest.mark.parametrize("seq", BAD_ORDERINGS)
@pytest.mark.parametrize("dual", [False, True])
def test_diag_highest_weight_rejects_bad_orderings(seq, dual):
    with pytest.raises(ValueError):
        diag_highest_weight(seq, (1,), 2, 1, dual)


def test_diag_highest_weight_small_oracles():
    # (1|1), shape (1): the opposite ordering flips the highest weight to d_1
    w = diag_highest_weight((("d", 1), ("e", 1)), (1,), 1, 1, dual=False)
    assert w == (0, 1)
    assert weyl_vector((("d", 1), ("e", 1))) == (Fraction(1, 2), Fraction(-1, 2))
    # shape (2): the opposite ordering gives e_1 + d_1
    w = diag_highest_weight((("d", 1), ("e", 1)), (2,), 1, 1, dual=False)
    assert w == (1, 1)
    # dual module, standard ordering: highest weight -d_1
    w = diag_highest_weight((("e", 1), ("d", 1)), (1,), 1, 1, dual=True)
    assert w == (0, -1)


def test_diag_highest_weight_standard_is_closed_form():
    for m, n in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (3, 2)]:
        for lam in enumerate_hooks(m, n, 4):
            w = diag_highest_weight(standard_sequence(m, n), lam, m, n, dual=False)
            assert w == hw_standard_diag(lam, m, n)
            w_dual = diag_highest_weight(
                opposite_sequence(m, n), lam, m, n, dual=True
            )
            assert w_dual == vec_neg(hw_standard_diag(lam, m, n))


def test_diag_highest_weight_is_weight_of_module():
    # any Borel's highest weight must differ from the standard one by a sum
    # of roots with integer coefficients; spot-check integrality
    for seq in all_sequences(2, 1):
        w = diag_highest_weight(seq, (3, 1), 2, 1, dual=False)
        diff = vec_sub(w, hw_standard_diag((3, 1), 2, 1))
        assert all(v.denominator == 1 for v in diff)
        assert sum(diff) == 0


def test_dual_point_is_the_reversed_orderings_module_point():
    # The diag sweep reads both factors from one row list per ordering: the
    # dual factor's point -(w* + rho) for seq is the module factor's point
    # w + rho of the reversed ordering.
    count = 0
    for m, n in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3)]:
        hooks = enumerate_hooks(m, n, 3)
        for seq in all_sequences(m, n):
            rev = tuple(reversed(seq))
            rho, rho_rev = weyl_vector(seq), weyl_vector(rev)
            assert rho_rev == vec_neg(rho), seq
            for lam in hooks:
                dual_w = diag_highest_weight(seq, lam, m, n, True)
                dual_point = vec_neg(vec_add(dual_w, rho))
                module_w = diag_highest_weight(rev, lam, m, n, False)
                module_point = vec_add(module_w, rho_rev)
                assert dual_point == module_point, (seq, lam)
                count += 1
    assert count == 1946  # 7 shapes times (2 + 6 + 6 + 24 + 120 + 120) orderings


def test_doubled_frame_is_the_frame_of_the_doubled_shape():
    # The unchecked doubling of a frame agrees with `double_partition` on
    # every hook of size <= 8 at every rank m, n <= 3, zero ranks included.
    count = 0
    for m in range(4):
        for n in range(4):
            for lam in enumerate_hooks(m, n, 8):
                doubled = hook_frame(double_partition(lam, m, n), m, 2 * n)
                assert doubled_frame(hook_frame(lam, m, n), m) == doubled, lam
                count += 1
    assert count == 706


def test_highest_weight_validates_lambda_once(validations):
    # lam is checked once; its doubled shape is read off its frame unchecked.
    for lam in [(), (1,), (3, 1, 1), (5, 4, 2, 2, 1)]:
        for borel in BorelDescriptor.enumerate(2, 2):
            validations.clear()
            highest_weight(lam, borel)
            assert validations == [lam]


def test_diag_highest_weight_validates_lambda_once(validations):
    for lam in [(), (1,), (3, 1, 1), (5, 4, 2, 2, 1)]:
        for seq in all_sequences(2, 2):
            for dual in (False, True):
                validations.clear()
                diag_highest_weight(seq, lam, 2, 2, dual)
                assert validations == [lam]


@st.composite
def cuts_strategy(draw, max_rank=3, max_size=10):
    """(seq, lam, m, n): an ordering and a hook partition of a rank with
    m, n <= max_rank."""
    m = draw(st.integers(0, max_rank))
    n = draw(st.integers(0, max_rank))
    seq = draw(st.permutations(standard_sequence(m, n)))
    lam = draw(st.sampled_from(enumerate_hooks(m, n, max_size)))
    return tuple(seq), lam, m, n


@settings(max_examples=200, deadline=None)
@given(cuts_strategy())
@example(((("d", 2), ("d", 1), ("d", 3)), (3, 2, 1, 1), 0, 3))
@example(((("e", 2), ("e", 1)), (4, 2), 2, 0))
@example(((), (), 0, 0))
def test_diagram_cut_matches_the_transpose_reading(cut):
    assert diag_highest_weight(*cut, dual=False) == diagram_cut_by_columns(*cut)


def test_frame_cut_matches_the_transpose_reading_exhaustively():
    # The cut reads only the hook's frame, its rows lam_1..lam_m and its
    # column lengths lam'_1..lam'_n: every ordering of every (m|n) hook with
    # |lam| <= 8, for every rank with m + n <= 5, cuts as the transpose does.
    count = 0
    for m, n in ((m, s - m) for s in range(6) for m in range(s + 1)):
        orderings = list(all_sequences(m, n))
        for lam in enumerate_hooks(m, n, 8):
            frame = hook_frame(lam, m, n)
            assert len(frame) == m + n
            for seq in orderings:
                cut = tuple(integer_cut(seq, frame, m))
                assert cut == diagram_cut_by_columns(seq, lam, m, n), (seq, lam)
                count += 1
    assert count == 55_273
