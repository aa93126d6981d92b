import hashlib
import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capelli import isjp
from capelli.exact_linalg import integer_form
from capelli.isjp import (
    characteristic_value,
    eigenvalue,
    evaluator,
    interpolation_polynomial,
)
from capelli.partitions import (
    enumerate_hooks,
    enumerate_partitions,
    frobenius_coords,
    is_hook,
    node_point,
    size,
)
from capelli.sympoly import SparsePolynomial
from reference import (
    degree,
    evaluate,
    evaluate_by_fractions,
    interpolant_on_basis,
    power_sum_coefficients,
)

HALF = Fraction(1, 2)
ONE = Fraction(1)


def test_degree_one_is_plain_sum():
    # Hand-derived: the unique compatible degree-1 polynomial vanishing at the
    # empty shape's coordinates is x_1 + ... + x_m + y_1 + ... + y_n.
    for m, n, theta in [(1, 1, ONE), (1, 1, HALF), (2, 1, HALF)]:
        p = interpolation_polynomial(m, n, theta, (1,))
        expected = SparsePolynomial(
            m,
            n,
            {
                tuple(1 if k == i else 0 for k in range(m + n)): 1
                for i in range(m + n)
            },
        )
        assert p == expected


def test_degree_two_hand_oracles_theta_one():
    # Solved by hand from the 4x4 linear system on {1, x+y, x^2+xy, y^2+xy}
    # with nodes (-1/2,1/2), (1/2,1/2), (1/2,3/2), (3/2,1/2):
    #   row shape (2):    x^2 + xy - (x+y)/2
    #   column shape (1,1): y^2 + xy - (x+y)/2
    p_row = interpolation_polynomial(1, 1, ONE, (2,))
    assert p_row == SparsePolynomial(
        1,
        1,
        {(2, 0): 1, (1, 1): 1, (1, 0): -HALF, (0, 1): -HALF},
    )
    p_col = interpolation_polynomial(1, 1, ONE, (1, 1))
    assert p_col == SparsePolynomial(
        1,
        1,
        {(0, 2): 1, (1, 1): 1, (1, 0): -HALF, (0, 1): -HALF},
    )


def test_extra_vanishing_hand_oracle():
    # Hand-checked: the shape-(2) polynomial also vanishes at the coordinates
    # of (1,1,1), a larger shape not containing (2): 1/4 + 5/4 - 3/2 = 0.
    p = interpolation_polynomial(1, 1, ONE, (2,))
    node = frobenius_coords((1, 1, 1), 1, 1, ONE)
    assert node == (HALF, Fraction(5, 2))
    assert evaluate(p, node) == 0


@pytest.mark.parametrize(
    "m,n,theta,max_size",
    [
        (1, 1, ONE, 4),
        (1, 1, HALF, 4),
        (2, 1, HALF, 4),
        (2, 2, ONE, 3),
    ],
)
def test_defining_property(m, n, theta, max_size):
    hooks = enumerate_hooks(m, n, max_size)
    nodes = {lam: frobenius_coords(lam, m, n, theta) for lam in hooks}
    for lam in hooks:
        p = interpolation_polynomial(m, n, theta, lam)
        assert degree(p) <= size(lam)
        for mu in hooks:
            if size(mu) > size(lam):
                continue
            expected = characteristic_value(lam) if mu == lam else 0
            assert evaluate(p, nodes[mu]) == expected, (lam, mu)


def test_extra_vanishing_beyond_defining_size():
    # Knop-Sahi style extra vanishing: value 0 at every hook shape that does
    # not contain the indexing shape, even when strictly larger.
    m, n, theta = 2, 1, HALF
    for lam in [(2,), (1, 1)]:
        p = interpolation_polynomial(m, n, theta, lam)
        for mu in enumerate_hooks(m, n, 4):
            contains = all(
                (mu[i] if i < len(mu) else 0) >= part
                for i, part in enumerate(lam)
            )
            if not contains:
                assert evaluate(p, frobenius_coords(mu, m, n, theta)) == 0, mu


def test_eigenvalue_of_box_counts_size():
    # The shape-(1) polynomial evaluates to |lam| at every shape's coordinates.
    for m, n, theta in [(1, 1, ONE), (2, 1, HALF), (2, 2, HALF)]:
        for lam in enumerate_hooks(m, n, 4):
            assert eigenvalue((1,), lam, m, n, theta) == size(lam)


def test_normalization_value():
    assert characteristic_value(()) == 1
    assert characteristic_value((2, 1)) == 6
    assert eigenvalue((2, 1), (2, 1), 1, 1, ONE) == 6


def test_empty_shape_polynomial_is_one():
    p = interpolation_polynomial(1, 1, HALF, ())
    assert p == SparsePolynomial(1, 1, {(0, 0): 1})


def test_cache_returns_same_object():
    a = interpolation_polynomial(1, 1, HALF, (2, 1))
    b = interpolation_polynomial(1, 1, HALF, (2, 1))
    assert a is b


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        interpolation_polynomial(1, 1, ONE, (2, 2))
    with pytest.raises(ValueError):
        interpolation_polynomial(1, 1, 0, (1,))
    with pytest.raises(ValueError):
        eigenvalue((2, 2), (1,), 1, 1, ONE)


def test_rejects_a_fractional_rank():
    # The rank reaches `range` deep inside, which would raise a TypeError.
    with pytest.raises(ValueError, match="m 1.5 is not an integer"):
        interpolation_polynomial(1.5, 1, HALF, (1,))


@pytest.mark.parametrize(
    "m,n,theta",
    [
        (2, 1, HALF),
        (2, 2, ONE),
        (1, 2, Fraction(1, 3)),
        (0, 2, HALF),
        (3, 1, Fraction(2)),
    ],
)
def test_matches_interpolant_on_defect_nullspace_basis(m, n, theta):
    # The power-sum build against the old one: monomial symmetric generators,
    # the kernel of their shift-compatibility defect, then a square solve.
    for lam in enumerate_hooks(m, n, 4):
        assert interpolation_polynomial(m, n, theta, lam) == interpolant_on_basis(
            m, n, theta, lam
        ), lam


# Ranks with an empty block, a point of length 0, and theta off 1/2 and 1.
TRANSLATION_RANKS = [(0, 0), (1, 1), (2, 1), (0, 2), (4, 0), (1, 3)]


@pytest.mark.parametrize("theta", [HALF, Fraction(1, 3), ONE, Fraction(3)])
def test_power_sum_rows_are_the_translated_power_sums(theta):
    # The row of `power_sums` against its formula, in Fractions from psi_r
    # alone: q_r = (2pq)^r E_r sum_k C(r, k) delta^(r - k) (p_k(z) - p_k(empty
    # node)), the unitriangular T_delta on the deformed power sums p_k with
    # Q_k = E_k p_k, delta = (n - theta*m)/2.
    rng, top = random.Random(7), 5
    unit = 2 * theta.numerator * theta.denominator
    coefficients = [power_sum_coefficients(theta, k) for k in range(1, top + 1)]
    scales = [integer_form(xs + ys)[0] for xs, ys in coefficients]

    def p(k, point, m):
        xs, ys = coefficients[k - 1]
        weights = [xs if i < m else ys for i in range(len(point))]
        return sum(w[j] * v**j for w, v in zip(weights, point) for j in range(k + 1))

    for m, n in TRANSLATION_RANKS:
        delta = (n - theta * m) / 2
        empty = frobenius_coords((), m, n, theta)
        rows_at = isjp.power_sums(m, n, theta, top)
        for _ in range(5):
            point = tuple(
                Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(m + n)
            )
            den, q = rows_at(*integer_form(point))
            for r in range(1, top + 1):
                diffs = [p(k, point, m) - p(k, empty, m) for k in range(1, r + 1)]
                expected = unit**r * scales[r - 1] * sum(
                    math.comb(r, k) * delta ** (r - k) * x
                    for k, x in enumerate(diffs, 1)
                )
                assert Fraction(q[r - 1], den) == expected, (m, n, point, r)


@pytest.mark.parametrize("theta", [HALF, Fraction(1, 3), ONE, Fraction(2)])
def test_node_power_sums_are_integers_that_read_the_rows_alone(theta):
    # The build reads each node rho at rank (len(rho), 0) and takes its
    # products as integers over no denominator. At every rank (k, 0) with k >=
    # len(rho), the power sums at rho's node must be the same integers, the
    # closed form q_r = (2pq)^r E_r sum_i ((rho_i - theta(i - 1/2))^r -
    # (-theta(i - 1/2))^r), in Fractions from psi_r's coefficients alone.
    top = 7
    unit = 2 * theta.numerator * theta.denominator
    scales = [
        integer_form(sum(power_sum_coefficients(theta, r), ()))[0]
        for r in range(1, top + 1)
    ]
    readers = [isjp.power_sums(k, 0, theta, top) for k in range(top + 1)]
    for rho in enumerate_partitions(top, top):
        shifts = [theta * (i - HALF) for i in range(1, len(rho) + 1)]
        closed = tuple(
            unit**r * scale * sum((x - s) ** r - (-s) ** r for x, s in zip(rho, shifts))
            for r, scale in enumerate(scales, 1)
        )
        for k in range(len(rho), top + 1):
            den, q = readers[k](*node_point(rho, k, 0, theta))
            assert den == 1 and q == closed, (rho, k)


SERIES_THETAS = [HALF, Fraction(1, 3), Fraction(2, 3), ONE, Fraction(3), Fraction(5, 7)]


@pytest.mark.parametrize("theta", SERIES_THETAS)
def test_power_sum_terms_match_the_triangular_solve(theta):
    # The library's integer series against the triangular solve in Fractions:
    # Q_r = E_r p_r, E_r the least common denominator, as its nonzero triples.
    top = 40
    terms = isjp._power_sum_terms(theta, top)
    assert len(terms) == top
    for r, got in enumerate(terms, 1):
        xs, ys = power_sum_coefficients(theta, r)
        _, nums = integer_form(xs + ys)
        want = [(k, a, b) for k, a, b in zip(range(r + 1), nums, nums[r + 1 :])]
        assert got == [t for t in want if t[1] or t[2]], (theta, r)


@pytest.mark.parametrize("theta", SERIES_THETAS + [Fraction(7, 2)])
def test_psi_solves_the_difference_equation(theta):
    # The defining identity itself, with no series and no triangular solve:
    # D g(t) = g(t + 1/2) - g(t - 1/2) expanded by the binomial theorem,
    # psi_r read from the library's integer terms. D psi_r(y) = D(x^r) at x =
    # -theta*y holds as polynomials in y, and psi_r(0) = 0.
    def central_difference(coefficients):
        out = [Fraction(0)] * len(coefficients)
        for k, c in enumerate(coefficients):
            for j in range(k):
                shift = HALF ** (k - j) * (1 - (-1) ** (k - j))
                out[j] += c * math.comb(k, j) * shift
        return out

    top = 12
    for r, terms in enumerate(isjp._power_sum_terms(theta, top), 1):
        assert [k for k, a, _ in terms if a] == [r]
        e = terms[-1][1]
        psi = [Fraction(0)] * (r + 1)
        for k, _, b in terms:
            psi[k] = Fraction(b, e)
        assert psi[0] == 0, (theta, r)
        x_part = central_difference([0] * r + [1])
        substituted = [c * (-theta) ** j for j, c in enumerate(x_part)]
        assert central_difference(psi) == substituted, (theta, r)


def test_power_sums_make_one_series_per_table_size(monkeypatch, cold_cache):
    # Work guard: `power_sums` to degree d makes the series once, not once
    # per r, and a cold table of size d makes it once per size 1..d.
    series, calls = isjp._power_sum_terms, []

    def counted(theta, d):
        calls.append((theta, d))
        return series(theta, d)

    monkeypatch.setattr(isjp, "_power_sum_terms", counted)
    for d in (1, 8, 30):
        calls.clear()
        isjp.power_sums(1, 1, HALF, d)
        assert calls == [(HALF, d)]
    calls.clear()
    isjp._polynomials_of_size(HALF, 6)
    assert calls == [(HALF, s) for s in range(1, 7)]


@pytest.mark.parametrize("theta", [HALF, ONE, Fraction(2, 3)])
def test_non_hook_table_polynomials_vanish_at_every_rank(theta):
    # The table holds every partition; read through a rank's power sums, a
    # shape that is no hook of that rank gives the zero polynomial, as
    # Sergeev-Veselov's map sends exactly those shapes to zero (Comm. Math.
    # Phys. 245, 2004). Fractions only, from the coordinates and the rows.
    # Control: each such polynomial is |mu|! at its own node, read at rank
    # (len(mu), 0), so none is zero in the q_r.
    rng, top = random.Random(11), 5
    shapes = list(enumerate_partitions(top, top))

    def value(mu, row_den, q):
        qs = [Fraction(x, row_den) for x in q]
        den, nums = isjp._polynomials_of_size(theta, size(mu)).coords[mu]
        products = enumerate_partitions(size(mu), size(mu))
        terms = zip(nums, products)
        return sum(c * math.prod(qs[r - 1] for r in nu) for c, nu in terms) / den

    vanished = 0
    for m, n in [(1, 1), (2, 1), (0, 2), (1, 2)]:
        rows_at = isjp.power_sums(m, n, theta, top)
        others = [mu for mu in shapes if not is_hook(mu, m, n)]
        for mu in others:
            own = isjp.power_sums(len(mu), 0, theta, size(mu))
            point = node_point(mu, len(mu), 0, theta)
            assert value(mu, *own(*point)) == characteristic_value(mu), mu
        for _ in range(6):
            point = tuple(
                Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(m + n)
            )
            row = rows_at(*integer_form(point))
            for mu in others:
                assert value(mu, *row) == 0, (m, n, mu, point)
                vanished += 1
    # (1, 1) has 3 shapes of size <= 5 that are no hook and (0, 2) has 7;
    # (2, 1) and (1, 2) have none below size 6.
    assert vanished == 6 * (3 + 7)


def test_a_size_past_the_cache_bound_is_refused_at_once(monkeypatch, cold_cache):
    # A build of size d reads every smaller size from the one cache, which
    # holds CACHED_SIZES sizes, so a larger size must raise before any size
    # is built, not run for ever.
    def no_build(*args):
        raise AssertionError("a size was built")

    monkeypatch.setattr(isjp, "enumerate_partitions", no_build)
    assert isjp.CACHED_SIZES == 64
    with pytest.raises(ValueError, match="size 65 exceeds CACHED_SIZES = 64"):
        interpolation_polynomial(2, 1, HALF, (65,))


def test_each_size_reads_only_its_predecessor(cold_cache, monkeypatch):
    # A cold size-6 build requests sizes 5, 4, ..., 0 once each, every size
    # its predecessor alone: 6 requests, where reading every smaller size at
    # each size would make 21. (cold_cache comes first so that it clears the
    # real cache after the wrapper is undone.)
    build, requests = isjp._polynomials_of_size, []

    def recording(theta, d):
        requests.append(d)
        return build(theta, d)

    monkeypatch.setattr(isjp, "_polynomials_of_size", recording)
    build(HALF, 6)
    assert requests == [5, 4, 3, 2, 1, 0]


def test_dimension_guard_rejects_degenerate_power_sums(monkeypatch, cold_cache):
    # Negative control: if every power sum were p_1, the products would span
    # too little, and the build must refuse rather than return a polynomial.
    terms = isjp._power_sum_terms

    def first_power_sum(theta, d):
        return terms(theta, 1) * d

    monkeypatch.setattr(isjp, "_power_sum_terms", first_power_sum)
    with pytest.raises(ValueError, match=r"\(theta,degree\)=\(1/2,2\)"):
        interpolation_polynomial(2, 1, HALF, (2,))


def test_dimension_guard_names_the_first_degenerate_size(monkeypatch, cold_cache):
    # Negative control above size 2: with p_3 replaced by p_1, sizes <= 2 are
    # untouched and must build as before, and size 3 must be refused.
    small = enumerate_hooks(2, 1, 2)
    unpatched = {lam: interpolation_polynomial(2, 1, HALF, lam) for lam in small}

    terms = isjp._power_sum_terms

    def third_is_first(theta, d):
        made = terms(theta, d)
        return made[:2] + made[:1] + made[3:] if d >= 3 else made

    monkeypatch.setattr(isjp, "_power_sum_terms", third_is_first)
    isjp._polynomials_of_size.cache_clear()
    for lam in small:
        assert interpolation_polynomial(2, 1, HALF, lam) == unpatched[lam], lam
    with pytest.raises(ValueError, match=r"\(theta,degree\)=\(1/2,3\)"):
        interpolation_polynomial(2, 1, HALF, (2, 1))


# Ranks with an empty block included; sizes stay small so that the expanded
# polynomials are cheap to evaluate term by term.
EVALUATOR_CASES = [
    (2, 1, HALF, 4),
    (1, 2, Fraction(1, 3), 4),
    (2, 2, ONE, 3),
    (0, 2, HALF, 4),
    (2, 0, ONE, 4),
    (3, 1, Fraction(2), 3),
]
rationals = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
)


@st.composite
def shapes_and_points(draw):
    m, n, theta, top = draw(st.sampled_from(EVALUATOR_CASES))
    shapes = draw(st.lists(st.sampled_from(enumerate_hooks(m, n, top)), max_size=6))
    point = tuple(draw(rationals) for _ in range(m + n))
    return m, n, theta, shapes, point


@settings(max_examples=100, deadline=None)
@given(shapes_and_points())
def test_evaluator_matches_fraction_arithmetic_on_the_expansion(case):
    # The coordinate evaluator against the expanded polynomials, term by term
    # in Fractions, for any list of shapes: mixed sizes, repeats or none.
    m, n, theta, shapes, point = case
    values_at = evaluator(m, n, theta, shapes)
    den, nums = values_at(*integer_form(point))
    values = tuple(Fraction(v, den) for v in nums)
    assert values == tuple(
        evaluate_by_fractions(interpolation_polynomial(m, n, theta, lam), point)
        for lam in shapes
    )
    assert all(type(v) is Fraction for v in values)
    for wrong in (point + (1,), point[1:]):
        if len(wrong) != len(point):
            with pytest.raises(ValueError, match="point has length"):
                values_at(*integer_form(wrong))


def test_request_order_and_cache_state_do_not_matter(cold_cache):
    # Sizes reached through the cache's own recursion, or rebuilt after a
    # clear, give the same polynomials as an ascending build.
    m, n, theta = 2, 2, HALF
    hooks = enumerate_hooks(m, n, 6)
    clear = isjp._polynomials_of_size.cache_clear

    def build(shapes):
        return {lam: interpolation_polynomial(m, n, theta, lam) for lam in shapes}

    ascending = build(hooks)
    clear()
    assert build(reversed(hooks)) == ascending
    clear()
    split = build(lam for lam in hooks if size(lam) < 4)
    clear()
    split.update(build(lam for lam in hooks if size(lam) >= 4))
    assert split == ascending


# sha256 over each size's sorted(coords.items()) in turn, sizes 0..top, taken
# from the rank-free table once its monomial expansions matched every
# GOLDEN_DIGESTS entry below.
COORDINATE_DIGESTS = [
    (
        HALF, 10,
        "cbd7ba40427b881785b6e842a164f3f6eb20b6a9ae2c059c9be2255db5c35461",
    ),
    (
        Fraction(1, 3), 8,
        "0430d62e66b515200ab6ffda3569c67e3f809df05ec33884d2e1024938b538f7",
    ),
]


@pytest.mark.parametrize(
    "theta,top,digest", COORDINATE_DIGESTS, ids=["half-10", "third-8"]
)
def test_coordinates_are_in_lowest_terms_and_match_digests(
    theta, top, digest, cold_cache
):
    hasher = hashlib.sha256()
    for d in range(top + 1):
        coords = sorted(isjp._polynomials_of_size(theta, d).coords.items())
        for lam, (den, nums) in coords:
            assert den > 0 and math.gcd(den, *nums) == 1, lam
        hasher.update(repr(coords).encode())
    assert hasher.hexdigest() == digest

def test_each_node_point_is_computed_once(monkeypatch, cold_cache):
    # Each size computes the integer node points only at its own nodes and
    # reads the smaller nodes' points from the cache: one call per partition.
    # Each power-sum reader reads its rank's empty node once more: the build
    # makes one per rank (l, 0), l <= d, at each size d, 28 in all, and the
    # rank-(2,1) expansions one per size from 1 to 6.
    m, n, theta, top = 2, 1, HALF, 6
    calls = []

    def counting_point(lam, *args):
        calls.append(lam)
        return node_point(lam, *args)

    monkeypatch.setattr(isjp, "node_point", counting_point)
    for lam in enumerate_hooks(m, n, top):
        interpolation_polynomial(m, n, theta, lam)
    partitions = list(enumerate_partitions(top, top))
    assert len(partitions) == 30
    assert Counter(calls) == Counter(partitions) + Counter({(): 28 + top})


def test_each_normalization_value_is_taken_once_per_shape(monkeypatch, cold_cache):
    # The residuals divide by |kappa|! once per size of the smaller nodes, so
    # the only characteristic values a cold build takes are its right-hand
    # sides: one per shape.
    m, n, theta, top = 2, 1, HALF, 6
    calls = []

    def counting_value(lam):
        calls.append(lam)
        return characteristic_value(lam)

    monkeypatch.setattr(isjp, "characteristic_value", counting_value)
    evaluator(m, n, theta, enumerate_hooks(m, n, top))
    assert sorted(calls) == sorted(enumerate_partitions(top, top))


# The library functions that may make a Fraction while polynomials are built
# and expanded: theta and the expansion's output terms. psi_r's coefficients
# (`_power_sum_terms`) and the node points (`node_point`) are integers.
FRACTION_MAKERS = {
    "require_theta",
    "_from_sums",
}


def test_build_makes_no_fraction():
    # Each Fraction made by a cold build and the expansion of every
    # polynomial is charged to the innermost allowed library function on the
    # stack, or else to the innermost library function.
    m, n, theta, top = 2, 1, HALF, 6
    library = str(Path(isjp.__file__).parent)
    callers = Counter()
    fraction_new = Fraction.__new__

    def recording_new(*args, **kwargs):
        names = []
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code.co_filename.startswith(library):
                names.append(frame.f_code.co_name)
            frame = frame.f_back
        allowed = [name for name in names if name in FRACTION_MAKERS]
        callers[(allowed or names or ["outside the library"])[0]] += 1
        return fraction_new(*args, **kwargs)

    hooks = enumerate_hooks(m, n, top)
    isjp._polynomials_of_size.cache_clear()
    Fraction.__new__ = staticmethod(recording_new)
    try:
        evaluator(m, n, theta, hooks)
        for lam in hooks:
            interpolation_polynomial(m, n, theta, lam)
    finally:
        Fraction.__new__ = staticmethod(fraction_new)
        isjp._polynomials_of_size.cache_clear()
    assert set(callers) <= FRACTION_MAKERS, callers
    assert callers["_from_sums"] > 0


# sha256 over the sorted-key JSON of every polynomial's `to_json_dict()`, in
# `enumerate_hooks` order, taken from the Fraction build of the polynomials
# before the build ran in integers.
GOLDEN_DIGESTS = [
    (
        2, 2, HALF, 6,
        "1a075dd83af5506a26c21f59efd922de0257089f60a52c467b794a184982ab38",
    ),
    (
        3, 2, Fraction(1, 3), 5,
        "72d8180ac9f5d49758bcf75795a7af3002bf3d4ca7ff95e7435407f6ff95c085",
    ),
    (
        1, 2, HALF, 6,
        "6c8391ea1b7b3c764bfc0fdd715f36c1a17bc945109eb61f92cec0aa00bcf417",
    ),
    (
        3, 3, Fraction(2), 4,
        "b83c30228361850ec868b015d23de3d10c1484e86933fcdae768b4435e36feb3",
    ),
    (
        0, 2, HALF, 5,
        "86ad359b823403bf84dc5f7b83bea9d3423e38237ecb9030c120d7a8fcde920f",
    ),
    (
        2, 0, ONE, 5,
        "00e4e2a7f369139cd34f3eeba9061533ee1e3a63224ed0fcbc9cef718d398d03",
    ),
]


@pytest.mark.parametrize("m,n,theta,top,digest", GOLDEN_DIGESTS)
def test_polynomials_match_golden_digests(m, n, theta, top, digest, cold_cache):
    hasher = hashlib.sha256()
    for lam in enumerate_hooks(m, n, top):
        poly = interpolation_polynomial(m, n, theta, lam)
        hasher.update(json.dumps(poly.to_json_dict(), sort_keys=True).encode())
    assert hasher.hexdigest() == digest
