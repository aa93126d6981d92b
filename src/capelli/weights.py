"""Highest weights of the modules attached to hook partitions, for every
Borel containing the diagonal Cartan, all from one rule: the diagram cut,
which reads the highest weight of any ordering off the Young diagram. A
weight is a flat tuple of integers, the e-block then the d-block."""

from __future__ import annotations

from .borel import BorelDescriptor, Sequence, validate_sequence
from .partitions import double_partition, hook_frame, part, require_hook, require_rank


def diagram_cut(seq: Sequence, lam, m: int, n: int) -> tuple[int, ...]:
    """Highest weight, for the ordering seq of the m e- and n d-symbols, of
    the module indexed by an (m|n)-hook partition, read off its diagram: the
    j-th e-symbol met takes the boxes of row j right of the columns already
    taken, and the j-th d-symbol met takes the boxes of column j below the
    rows already taken. Each count is the coefficient of the symbol itself.

    Examples
    ========

    >>> diagram_cut((("e", 1), ("e", 2), ("d", 1)), (3, 1, 1), 2, 1)
    (3, 1, 1)
    >>> diagram_cut((("d", 1), ("e", 1), ("e", 2)), (3, 1, 1), 2, 1)
    (2, 0, 3)
    """
    m, n = require_rank(m, n)
    seq = validate_sequence(seq, m, n)
    return tuple(integer_cut(seq, hook_frame(require_hook(lam, m, n), m, n), m))


def integer_cut(seq: Sequence, frame: tuple[int, ...], m: int) -> list[int]:
    """`diagram_cut` as a list, unchecked, from the hook's `hook_frame`: a
    symbol met after r e- and c d-symbols takes its box count, lam_{r+1} - c
    for an e and lam'_{c+1} - r for a d, or 0 when that is negative."""
    cut = [0] * len(frame)
    rows = cols = 0
    for kind, index in seq:
        if kind == "e":
            boxes, rows = frame[rows] - cols, rows + 1
            cut[index - 1] = boxes if boxes > 0 else 0
        else:
            boxes, cols = frame[m + cols] - rows, cols + 1
            cut[m + index - 1] = boxes if boxes > 0 else 0
    return cut


# -- the (m|2n) family: duals of doubled hook modules ----------------------------
#
# The gl(m|2n) module of a hook partition is the dual of the module of its
# doubled partition, so its highest weight for an ordering is minus the
# doubled module's lowest weight, `diag_highest_weight`'s dual case.


def highest_weight(lam, borel: BorelDescriptor) -> tuple[int, ...]:
    """Highest weight for a decreasing Borel of the (m|2n) family. On the
    opposite Borel it is the standard weight: minus the doubled rows and
    minus the duplicated clipped column depths.

    Examples
    ========

    >>> highest_weight((2, 1), BorelDescriptor(2, 1, (1, 1)))
    (-3, -1, -2, 0)
    """
    doubled = double_partition(lam, borel.m, borel.n)
    return diag_highest_weight(
        borel.sequence(), doubled, borel.m, borel.num_delta, dual=True
    )


def is_generic(lam, borel: BorelDescriptor) -> bool:
    """True iff 2*lam_i >= ell_i for all i (equivalently for i = m alone, as
    ell increases and rows decrease; with no e-symbol, m = 0, every shape is
    generic). Then the highest weight is the standard one minus the Borel's
    root sum."""
    lam = require_hook(lam, borel.m, borel.n)
    return borel.m == 0 or 2 * part(lam, borel.m) >= borel.ell_of(borel.m)


# -- arbitrary orderings for the equal-family pair ------------------------------


def diag_highest_weight(
    seq: Sequence, lam, m: int, n: int, dual: bool
) -> tuple[int, ...]:
    """Highest weight of an arbitrary ordering for the (m|n)-hook module
    (dual=False) or its dual (dual=True).

    The dual's highest weight is minus the module's lowest weight, which is
    the module's highest weight for the reversed ordering.
    """
    if dual:
        return tuple(-v for v in diagram_cut(reversed(seq), lam, m, n))
    return diagram_cut(seq, lam, m, n)
