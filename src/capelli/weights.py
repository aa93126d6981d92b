"""Highest weights of the modules attached to hook partitions, for every
Borel containing the diagonal Cartan: closed forms for the standard Borels,
single odd-reflection steps, reflection walks that re-derive the closed
forms, and permutation transport to arbitrary orderings."""

from __future__ import annotations

from fractions import Fraction

from .borel import (
    BorelDescriptor,
    Sequence,
    WeightVector,
    opposite_sequence,
    standard_sequence,
    weyl_vector,
)
from .partitions import (
    Partition,
    arm_columns,
    double_partition,
    part,
    require_hook,
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


def bubble_walk(
    start: Sequence, target: Sequence, w: WeightVector, rho: WeightVector
) -> tuple[WeightVector, WeightVector]:
    """Walk from one ordering to another by adjacent swaps of mixed-family
    pairs, updating the highest weight and the Weyl vector at every swap.

    Requires the same-family relative orders of start and target to agree, so
    that mixed swaps suffice.
    """
    if sorted(start) != sorted(target):
        raise ValueError("orderings use different symbols")
    rank = {sym: p for p, sym in enumerate(target)}
    seq = list(start)
    num_eps, num_delta = w.shape()
    while tuple(seq) != target:
        for p in range(len(seq) - 1):
            if rank[seq[p]] > rank[seq[p + 1]]:
                if seq[p][0] == seq[p + 1][0]:
                    raise ValueError(
                        "same-family inversion: orderings are not mixed-swap "
                        f"reachable ({seq[p]} vs {seq[p + 1]})"
                    )
                alpha = WeightVector.unit(num_eps, num_delta, seq[p]) - (
                    WeightVector.unit(num_eps, num_delta, seq[p + 1])
                )
                w = odd_reflection_step(w, alpha)
                rho = rho + alpha
                seq[p], seq[p + 1] = seq[p + 1], seq[p]
                break
        else:
            raise AssertionError("no inversion found yet orderings differ")
    return w, rho


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


def monotone_core(seq: Sequence, descending: bool) -> Sequence:
    """Replace each family's indices by the sorted ones, keeping the family
    pattern of the ordering."""
    eps_count = sum(1 for kind, _ in seq if kind == "e")
    delta_count = len(seq) - eps_count
    eps_sorted = sorted(range(1, eps_count + 1), reverse=descending)
    delta_sorted = sorted(range(1, delta_count + 1), reverse=descending)
    eps_iter = iter(eps_sorted)
    delta_iter = iter(delta_sorted)
    return tuple(
        ("e", next(eps_iter)) if kind == "e" else ("d", next(delta_iter))
        for kind, _ in seq
    )


def transport(
    seq: Sequence, core: Sequence, value: WeightVector
) -> WeightVector:
    """Move a weight across the family-preserving permutation taking the
    monotone core ordering to the requested ordering: the coefficient at each
    position is preserved."""
    num_eps, num_delta = value.shape()
    eps = [Fraction(0)] * num_eps
    delta = [Fraction(0)] * num_delta
    for sym, core_sym in zip(seq, core):
        if sym[0] != core_sym[0]:
            raise ValueError("ordering and core have different family patterns")
        coeff = value.coeff(core_sym)
        if sym[0] == "e":
            eps[sym[1] - 1] = coeff
        else:
            delta[sym[1] - 1] = coeff
    return WeightVector.make(eps, delta)


def diag_highest_weight(
    seq: Sequence, lam, m: int, n: int, dual: bool
) -> tuple[WeightVector, WeightVector]:
    """Highest weight and Weyl vector of an arbitrary ordering for the
    (m|n)-hook module (dual=False) or its dual (dual=True).

    The dual module's weights are reached from the all-d-first ordering and
    carry the negated standard highest weight; the module itself starts from
    the standard ordering.
    """
    lam = require_hook(lam, m, n)
    core = monotone_core(seq, descending=dual)
    if dual:
        start = opposite_sequence(m, n)
        w0 = -hw_standard_diag(lam, m, n)
    else:
        start = standard_sequence(m, n)
        w0 = hw_standard_diag(lam, m, n)
    rho0 = weyl_vector(start)
    w_core, rho_core = bubble_walk(start, core, w0, rho0)
    return transport(seq, core, w_core), transport(seq, core, rho_core)
