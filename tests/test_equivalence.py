from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capelli.equivalence import (
    OrbitResult,
    closure_member,
    infinite_witness,
    monoidal_moves,
    orbit,
)
from reference import equivalent_up_to_degree

HALF = Fraction(1, 2)
Q = Fraction


def test_moves_theta_one():
    assert monoidal_moves((0, 0), 1, 1, 1) == [(-1, 1), (1, -1)]
    assert monoidal_moves((1, 0), 1, 1, 1) == []
    # swap moves in larger blocks
    assert (2, 1, 5) in monoidal_moves((1, 2, 5), 2, 1, 1)


def test_moves_theta_half():
    # from (r - 1/4, -3/4, 1): a shift on the second row and the x-swap
    for r in (1, 2, 3):
        point = (r - Q(1, 4), Q(-3, 4), 1)
        moves = monoidal_moves(point, 2, 1, HALF)
        assert (r - Q(1, 4), Q(1, 4), 0) in moves
        assert (Q(-3, 4), r - Q(1, 4), 1) in moves
        assert len(moves) == 2


def test_move_symmetry_on_orbit():
    result = orbit((Q(3, 4), Q(-3, 4), 1), 2, 1, HALF)
    for p in result.points:
        for q in monoidal_moves(p, 2, 1, HALF):
            assert p in monoidal_moves(q, 2, 1, HALF)


def test_moves_swap_the_y_block():
    # with n = 2 the y-block has its own adjacent swap, beside the shift of
    # x_1 + y_1 / 2 = 1/4, and each move is undone by one move back
    point = (Q(1, 4), 0, 3)
    moves = monoidal_moves(point, 1, 2, HALF)
    assert moves == [(Q(-3, 4), 1, 3), (Q(1, 4), 3, 0)]
    for q in moves:
        assert point in monoidal_moves(q, 1, 2, HALF)


def test_orbit_four_vectors():
    # closed orbit of (r - 1/4, -3/4, 1): the move-closure has exactly four
    # points, the last one ending in 0 (it is the x-swap of the second)
    for r in (1, 2, 3):
        result = orbit((r - Q(1, 4), Q(-3, 4), 1), 2, 1, HALF)
        assert result.status == OrbitResult.FINITE
        assert set(result.points) == {
            (r - Q(1, 4), Q(-3, 4), Q(1)),
            (r - Q(1, 4), Q(1, 4), Q(0)),
            (Q(-3, 4), r - Q(1, 4), Q(1)),
            (Q(1, 4), r - Q(1, 4), Q(0)),
        }


def test_orbit_values_constant():
    # interpolation polynomials cannot separate points of one orbit
    result = orbit((Q(3, 4), Q(-3, 4), 1), 2, 1, HALF)
    base = result.points[0]
    for other in result.points[1:]:
        assert equivalent_up_to_degree(base, other, 2, 1, HALF, max_degree=3)


def test_infinite_witness():
    x0 = (Q(-1, 4), Q(-3, 4), 1)
    assert infinite_witness(x0, 2, 1, HALF) == (2, 1, 1)
    assert infinite_witness((Q(3, 4), Q(-3, 4), 1), 2, 1, HALF) is None
    assert infinite_witness((0, 0), 1, 1, 1) is None


def test_orbit_infinite_detection():
    result = orbit((Q(-1, 4), Q(-3, 4), 1), 2, 1, HALF)
    assert result.status == OrbitResult.INFINITE
    assert result.witness == {"point": ["-1/4", "-3/4", "1"], "i": 2, "i0": 1, "j": 1}


def test_orbit_budget_exhaustion():
    # at theta = 1 the antidiagonal line is an undetected infinite orbit
    result = orbit((0, 0), 1, 1, 1, budget=50)
    assert result.status == OrbitResult.BUDGET_EXHAUSTED
    assert result.explored > 50


def test_orbit_budget_counts_the_start_point():
    # The start point is the first distinct point the search meets: budget 0
    # is exhausted at once, and a budget holds an orbit of exactly its size.
    exhausted = orbit((1,), 1, 0, 1, budget=0)
    assert exhausted.status == OrbitResult.BUDGET_EXHAUSTED
    assert (exhausted.explored, exhausted.points) == (1, None)
    assert orbit((1,), 1, 0, 1, budget=1).points == ((1,),)
    pair = (Q(1, 4), 0)
    assert orbit(pair, 1, 1, HALF, budget=1).status == OrbitResult.BUDGET_EXHAUSTED
    assert orbit(pair, 1, 1, HALF, budget=2).explored == 2


def test_closure_member_uniqueness_anchors():
    x0 = (Q(-1, 4), Q(-3, 4), 1)
    assert closure_member(x0, (Q(1, 4), Q(3, 4), -1), 2, 1, HALF)
    assert not closure_member(x0, (Q(1, 4), Q(-5, 4), 1), 2, 1, HALF)
    assert closure_member(x0, x0, 2, 1, HALF)
    # shifted point on the same line: u + (1/2, 1/2, -1)
    assert closure_member(x0, (Q(1, 4), Q(-1, 4), 0), 2, 1, HALF)
    # no witness triple: nothing is a member
    assert not closure_member((Q(3, 4), Q(-3, 4), 1), x0, 2, 1, HALF)
    with pytest.raises(ValueError):
        closure_member(x0, x0, 2, 1, 1)


def test_closure_member_needs_agreement_outside_the_triple():
    # at rank (2, 2) the only witness triple (1, 2, 1) leaves y_2 outside
    # it: a point that moves y_2 is no member, though it meets both affine
    # conditions
    u = (0, HALF, -HALF, 5)
    assert infinite_witness(u, 2, 2, HALF) == (1, 2, 1)
    assert closure_member(u, u, 2, 2, HALF)
    assert not closure_member(u, (0, HALF, -HALF, 6), 2, 2, HALF)


def test_equivalence_degree_filtration():
    # the forced kernel map image agrees with the true point in degree 1 but
    # separates in degree <= 4
    good = (Q(3, 4), Q(-3, 4), 1)
    bad = (Q(1, 2), Q(-1, 2), 1)
    assert equivalent_up_to_degree(good, bad, 2, 1, HALF, max_degree=1)
    assert not equivalent_up_to_degree(good, bad, 2, 1, HALF, max_degree=4)


def test_input_validation():
    with pytest.raises(ValueError):
        monoidal_moves((0, 0), 2, 1, 1)
    with pytest.raises(ValueError):
        orbit((0, 0), 1, 1, 0)
    with pytest.raises(ValueError):
        monoidal_moves((0, 0), 1, 1, Q(-1, 2))


@st.composite
def quarter_points(draw):
    return tuple(
        Q(draw(st.integers(-6, 6)), 4) for _ in range(3)
    )


@settings(max_examples=60, deadline=None)
@given(quarter_points())
def test_move_symmetry_random(point):
    for q in monoidal_moves(point, 2, 1, HALF):
        assert point in monoidal_moves(q, 2, 1, HALF)


@settings(max_examples=30, deadline=None)
@given(quarter_points())
def test_orbit_determinism(point):
    a = orbit(point, 2, 1, HALF, budget=200)
    b = orbit(point, 2, 1, HALF, budget=200)
    assert a == b
