"""Highest weights of the modules attached to hook partitions, for every
Borel containing the diagonal Cartan: closed forms for the standard Borels,
single odd-reflection steps, reflection walks that re-derive the closed
forms, and the diagram rule that reads the highest weight of any ordering
off the Young diagram."""

from __future__ import annotations

from fractions import Fraction

from .borel import (
    BorelDescriptor,
    Sequence,
    WeightVector,
    opposite_sequence,
    validate_sequence,
    weyl_vector,
)
from .partitions import (
    arm_columns,
    double_partition,
    part,
    require_hook,
    transpose,
)

# -- standard highest weights ------------------------------------------------


def hw_standard_diag(lam, m: int, n: int) -> WeightVector:
    """Highest weight, for the standard ordering e_1..e_m d_1..d_n, of the
    module indexed by an (m|n)-hook partition: row lengths on the e-side and
    clipped column depths max(0, lam'_j - m) on the d-side."""
    lam = require_hook(lam, m, n)
    eps = [Fraction(part(lam, i)) for i in range(1, m + 1)]
    delta = [Fraction(c) for c in arm_columns(lam, m, n)]
    return WeightVector.make(eps, delta)


def hw_standard_doubled(lam, m: int, n: int) -> WeightVector:
    """Highest weight, for the all-d-first ordering of the (m|2n) family, of
    the dual module indexed by the doubled partition: minus the doubled rows
    and minus the duplicated clipped column depths."""
    lam = require_hook(lam, m, n)
    doubled = double_partition(lam, m, n)
    eps = [-Fraction(part(doubled, i)) for i in range(1, m + 1)]
    delta = [-Fraction(c) for c in arm_columns(doubled, m, 2 * n)]
    return WeightVector.make(eps, delta)


# -- odd reflections ----------------------------------------------------------


def _mixed_root_indices(alpha: WeightVector) -> tuple[int, int, int]:
    """Decompose alpha as sign*(e_i - d_k); returns (sign, i, k)."""
    eps_nz = [(i, v) for i, v in enumerate(alpha.eps, start=1) if v]
    delta_nz = [(k, v) for k, v in enumerate(alpha.delta, start=1) if v]
    if len(eps_nz) != 1 or len(delta_nz) != 1:
        raise ValueError("root must involve exactly one symbol of each family")
    (i, ev), (k, dv) = eps_nz[0], delta_nz[0]
    if ev + dv != 0 or abs(ev) != 1:
        raise ValueError("root must be of the form +-(e_i - d_k)")
    return (1 if ev > 0 else -1, i, k)


def odd_reflection_step(w: WeightVector, alpha: WeightVector) -> WeightVector:
    """Highest-weight update across one odd reflection: subtract the root
    when the invariant form pairs it nontrivially with w, else no change."""
    _mixed_root_indices(alpha)
    if w.pairing(alpha) != 0:
        return w - alpha
    return w


# -- walks along orderings -----------------------------------------------------


def reflection_walk(lam, borel: BorelDescriptor) -> tuple[WeightVector, WeightVector]:
    """Derive the highest weight and Weyl vector of a decreasing Borel by
    walking from the all-d-first ordering through the generic roots in their
    canonical order, checking adjacency at every step."""
    m, num_delta = borel.m, borel.num_delta
    seq = list(opposite_sequence(m, num_delta))
    w = hw_standard_doubled(lam, m, borel.n)
    rho = weyl_vector(opposite_sequence(m, num_delta))
    for alpha in borel.generic_roots():
        sign, i, k = _mixed_root_indices(alpha)
        if sign != -1:
            raise AssertionError("generic roots must be d_k - e_i")
        pos_d = seq.index(("d", k))
        pos_e = seq.index(("e", i))
        if pos_e != pos_d + 1:
            raise AssertionError(
                f"root d{k}-e{i} is not a simple adjacent pair in {seq}"
            )
        w = odd_reflection_step(w, alpha)
        rho = rho + alpha
        seq[pos_d], seq[pos_e] = seq[pos_e], seq[pos_d]
    if tuple(seq) != borel.sequence():
        raise AssertionError("walk did not land on the target ordering")
    return w, rho


# -- closed forms for decreasing Borels ----------------------------------------


def truncated_root_sum(lam, borel: BorelDescriptor) -> WeightVector:
    """Sum over e-rows of (d_1 + ... + d_t - t*e_i) with the per-row count t
    clipped at twice the row length: the generic-root contribution that the
    module actually absorbs."""
    lam = require_hook(lam, borel.m, borel.n)
    total = WeightVector.zero(borel.m, borel.num_delta)
    for i in range(1, borel.m + 1):
        t = min(borel.ell_of(i), 2 * part(lam, i))
        eps = [Fraction(0)] * borel.m
        eps[i - 1] = Fraction(-t)
        delta = [Fraction(1) if k <= t else Fraction(0) for k in range(1, borel.num_delta + 1)]
        total = total + WeightVector.make(eps, delta)
    return total


def highest_weight(lam, borel: BorelDescriptor) -> WeightVector:
    """Closed form: standard highest weight minus the truncated root sum."""
    return hw_standard_doubled(lam, borel.m, borel.n) - truncated_root_sum(lam, borel)


def is_generic(lam, borel: BorelDescriptor) -> bool:
    """True iff every clip is inactive: 2*lam_i >= ell_i for all i
    (equivalently for i = m alone, as ell increases and rows decrease)."""
    lam = require_hook(lam, borel.m, borel.n)
    return 2 * part(lam, borel.m) >= borel.ell_of(borel.m)


def nongeneric_index(lam, borel: BorelDescriptor) -> int | None:
    """Least row index where the clip bites, or None when generic."""
    lam = require_hook(lam, borel.m, borel.n)
    for i in range(1, borel.m + 1):
        if borel.ell_of(i) > 2 * part(lam, i):
            return i
    return None


# -- arbitrary orderings for the equal-family pair ------------------------------


def diagram_cut(seq: Sequence, lam, m: int, n: int) -> WeightVector:
    """Highest weight, for the ordering seq of the m e- and n d-symbols, of
    the module indexed by an (m|n)-hook partition, read off its diagram: the
    j-th e-symbol met takes the boxes of row j right of the columns already
    taken, and the j-th d-symbol met takes the boxes of column j below the
    rows already taken. Each count is the coefficient of the symbol itself.

    Examples
    ========

    >>> diagram_cut((("e", 1), ("e", 2), ("d", 1)), (3, 1, 1), 2, 1).coords()
    (Fraction(3, 1), Fraction(1, 1), Fraction(1, 1))
    >>> diagram_cut((("d", 1), ("e", 1), ("e", 2)), (3, 1, 1), 2, 1).coords()
    (Fraction(2, 1), Fraction(0, 1), Fraction(3, 1))
    """
    lam = require_hook(lam, m, n)
    columns = transpose(lam)
    coeffs = {"e": [0] * m, "d": [0] * n}
    taken = {"e": 0, "d": 0}
    for kind, index in seq:
        if kind == "e":
            boxes = part(lam, taken["e"] + 1) - taken["d"]
        else:
            boxes = part(columns, taken["d"] + 1) - taken["e"]
        coeffs[kind][index - 1] = max(0, boxes)
        taken[kind] += 1
    return WeightVector.make(coeffs["e"], coeffs["d"])


def diag_highest_weight(
    seq: Sequence, lam, m: int, n: int, dual: bool
) -> tuple[WeightVector, WeightVector]:
    """Highest weight and Weyl vector of an arbitrary ordering for the
    (m|n)-hook module (dual=False) or its dual (dual=True).

    The dual's highest weight is minus the module's lowest weight, which is
    the module's highest weight for the reversed ordering.
    """
    seq = validate_sequence(seq, m, n)
    if dual:
        w = -diagram_cut(tuple(reversed(seq)), lam, m, n)
    else:
        w = diagram_cut(seq, lam, m, n)
    return w, weyl_vector(seq)
