import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import capelli
from capelli.exact_linalg import integer_form
from capelli.partitions import (
    double_partition,
    enumerate_hooks,
    enumerate_partitions,
    format_partition,
    frobenius_coords,
    is_hook,
    node_point,
    parse_partition,
    size,
    transpose,
    validate_partition,
)
from reference import (
    arm_columns,
    double_partition_by_columns,
    frobenius_coords_by_fractions,
    hooks_by_brute_force,
    transpose_by_boxes,
)


def test_validate_partition():
    assert validate_partition([3, 1, 0, 0]) == (3, 1)
    assert validate_partition([]) == ()
    with pytest.raises(ValueError):
        validate_partition([1, 2])
    with pytest.raises(ValueError):
        validate_partition([2, -1])


def test_transpose_oracles():
    assert transpose(()) == ()
    assert transpose((4, 2)) == (2, 2, 1, 1)
    assert transpose((3, 1, 1)) == (3, 1, 1)
    assert transpose((5,)) == (1, 1, 1, 1, 1)


def test_is_hook():
    assert is_hook((3, 1, 1, 1), 1, 1)
    assert not is_hook((2, 2), 1, 1)
    assert is_hook((5, 4, 2, 2, 1), 2, 2)
    assert not is_hook((5, 4, 3), 2, 2)
    assert is_hook((), 0, 0)
    assert not is_hook((1,), 0, 0)


def test_arm_columns():
    # (4,3,1,1) with m=2: below row 2 sits (1,1), columns (2,0,...).
    assert arm_columns((4, 3, 1, 1), 2, 1) == (2,)
    assert arm_columns((4, 3, 1, 1), 2, 2) == (2, 0)
    assert arm_columns((2,), 2, 1) == (0,)


def test_double_partition_oracles():
    assert double_partition((), 2, 1) == ()
    assert double_partition((1,), 1, 1) == (2,)
    assert double_partition((1, 1), 1, 1) == (2, 2)
    assert double_partition((2, 1, 1, 1), 2, 1) == (4, 2, 2, 2)
    # hook shape (r, s, 1^t) doubles to (2r, 2s, 2^t)
    assert double_partition((3, 2, 1, 1, 1), 2, 1) == (6, 4, 2, 2, 2)
    with pytest.raises(ValueError):
        double_partition((2, 2), 1, 1)


def test_enumerate_hooks_small():
    assert enumerate_hooks(1, 1, 3) == [
        (),
        (1,),
        (1, 1),
        (2,),
        (1, 1, 1),
        (2, 1),
        (3,),
    ]


def test_enumerate_hooks_counts():
    assert len(enumerate_hooks(2, 1, 3)) == 7
    assert len(enumerate_hooks(2, 1, 4)) == 12
    assert len(enumerate_hooks(2, 2, 4)) == 12
    assert len(enumerate_hooks(2, 2, 5)) == 19
    assert len(enumerate_hooks(3, 3, 3)) == 7  # every partition of size <= 3 fits


def test_enumerate_hooks_rejects_a_negative_bound():
    # there is no partition of negative size, not even the empty one
    for bound in (-1, -3):
        message = f"size bound must be nonnegative, got {bound}"
        with pytest.raises(ValueError, match=message):
            enumerate_hooks(1, 1, bound)
    assert enumerate_hooks(1, 1, 0) == [()]


def test_enumerate_hooks_graded():
    hooks = enumerate_hooks(2, 2, 5)
    sizes = [size(lam) for lam in hooks]
    assert sizes == sorted(sizes)
    assert len(set(hooks)) == len(hooks)


def test_enumerate_hooks_and_partitions_match_brute_force():
    # Order and completeness: every shape the reference keeps, in its order.
    for s in range(9):
        for m in range(4):
            for n in range(4):
                assert enumerate_hooks(m, n, s) == hooks_by_brute_force(m, n, s)
            assert list(enumerate_partitions(s, m)) == hooks_by_brute_force(m, 0, s)


def test_a_long_single_column_is_no_recursion():
    # A (0|1) hook of size s has s rows; the enumeration must not recurse per
    # row (the recursion limit is 1000), nor walk every partition of size
    # <= 1500, which would never finish.
    src = str(Path(capelli.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    code = (
        "from capelli.partitions import enumerate_hooks\n"
        "assert enumerate_hooks(0, 1, 1500) == [(1,) * k for k in range(1501)]\n"
        "print('ok')"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_frobenius_coords_anchors():
    half = Fraction(1, 2)
    assert frobenius_coords((), 1, 1, half) == (Fraction(-1, 2), Fraction(1, 2))
    assert frobenius_coords((1,), 1, 1, half) == (Fraction(1, 2), Fraction(1, 2))
    # (r, s, 1^t) at (m,n)=(2,1): (r - 1/4, s - 3/4, t + 1)
    for r, s, t in [(1, 1, 0), (3, 2, 2), (5, 5, 4)]:
        lam = (r, s) + (1,) * t
        assert frobenius_coords(lam, 2, 1, half) == (
            r - Fraction(1, 4),
            s - Fraction(3, 4),
            Fraction(t + 1),
        )


def test_frobenius_coords_validates_once(validations):
    # One hook check of lam; the column depths read the checked tuple.
    for lam in [(), (1,), (4, 3, 1, 1)]:
        validations.clear()
        frobenius_coords(lam, 2, 2, Fraction(1, 2))
        assert validations == [lam]


def test_enumerate_hooks_validates_nothing(validations):
    # The parts it generates are partitions already.
    assert len(enumerate_hooks(2, 2, 6)) == 30
    assert validations == []


def test_frobenius_coords_errors():
    with pytest.raises(ValueError):
        frobenius_coords((2, 2), 1, 1, Fraction(1, 2))
    with pytest.raises(ValueError):
        frobenius_coords((1,), 1, 1, 0)
    with pytest.raises(ValueError):
        frobenius_coords((1,), 1, 1, Fraction(-1, 2))


def test_enumerate_hooks_rejects_a_fractional_bound():
    # The bound reaches `range` deep inside, which would raise a TypeError.
    with pytest.raises(ValueError, match="2.5 is not an integer"):
        enumerate_hooks(1, 1, 2.5)


@pytest.mark.parametrize("m,n", [(2, 2), (2, 1), (3, 1), (1, 3), (0, 2), (2, 0)])
@pytest.mark.parametrize(
    "theta", [Fraction(1, 2), Fraction(1), Fraction(2, 3), Fraction(3)]
)
def test_node_point_is_the_integer_form_of_the_coordinates(m, n, theta):
    for lam in enumerate_hooks(m, n, 9):
        assert node_point(lam, m, n, theta) == integer_form(
            frobenius_coords(lam, m, n, theta)
        ), lam


def test_parse_format_partition():
    assert parse_partition("3,1,1") == (3, 1, 1)
    assert parse_partition("") == ()
    assert format_partition((3, 1, 1)) == "3,1,1"
    assert format_partition(()) == ""


@st.composite
def partitions_strategy(draw, max_size=10):
    target = draw(st.integers(min_value=0, max_value=max_size))
    parts = []
    remaining = target
    cap = target
    while remaining > 0:
        p = draw(st.integers(min_value=1, max_value=min(cap, remaining)))
        parts.append(p)
        cap = p
        remaining -= p
    return tuple(parts)


@settings(max_examples=80, deadline=None)
@given(partitions_strategy())
def test_transpose_involution(lam):
    assert transpose(transpose(lam)) == lam
    assert size(transpose(lam)) == size(lam)
    assert transpose(lam) == transpose_by_boxes(lam)


@settings(max_examples=80, deadline=None)
@given(partitions_strategy(), st.integers(1, 3), st.integers(1, 3))
def test_double_partition_properties(lam, m, n):
    if not is_hook(lam, m, n):
        return
    doubled = double_partition(lam, m, n)
    assert size(doubled) == 2 * size(lam)
    assert is_hook(doubled, m, 2 * n)
    # the first m rows double exactly
    for i in range(m):
        original = lam[i] if i < len(lam) else 0
        got = doubled[i] if i < len(doubled) else 0
        assert got == 2 * original


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 8), st.integers(1, 4))
def test_enumerate_partitions_complete(max_size, max_parts):
    seen = list(enumerate_partitions(max_size, max_parts))
    assert len(seen) == len(set(seen))
    for lam in seen:
        assert validate_partition(lam) == lam
        assert len(lam) <= max_parts
        assert size(lam) <= max_size


THETAS = (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))


def hooks_strategy(max_rank=3, max_size=10):
    """(lam, m, n): a hook partition of a rank with m, n <= max_rank."""
    ranks = st.tuples(st.integers(0, max_rank), st.integers(0, max_rank))
    return ranks.flatmap(
        lambda mn: st.tuples(
            st.sampled_from(enumerate_hooks(*mn, max_size)), *map(st.just, mn)
        )
    )


@settings(max_examples=150, deadline=None)
@given(hooks_strategy(), st.sampled_from(THETAS))
@example(((3, 1, 1), 0, 3), Fraction(1, 3))
@example(((4, 2), 2, 0), Fraction(3, 2))
@example(((), 0, 0), Fraction(2))
def test_frobenius_coords_matches_fraction_sums(hook, theta):
    lam, m, n = hook
    assert frobenius_coords(lam, m, n, theta) == frobenius_coords_by_fractions(
        lam, m, n, theta
    )


@settings(max_examples=150, deadline=None)
@given(hooks_strategy())
@example(((3, 1, 1), 0, 3))
@example(((4, 2), 2, 0))
@example(((), 0, 0))
def test_double_partition_matches_doubled_columns(hook):
    lam, m, n = hook
    assert double_partition(lam, m, n) == double_partition_by_columns(lam, m, n)
