"""Highest weights of the modules attached to hook partitions, for every
Borel containing the diagonal Cartan, all from one rule: the diagram cut,
which reads the highest weight of any ordering off the Young diagram. A
weight is a flat tuple of integers, the e-block then the d-block."""

from __future__ import annotations

from .borel import BorelDescriptor, Sequence, validate_sequence
from .partitions import hook_frame, part, require_hook, require_rank


def integer_cut(seq: Sequence, frame: tuple[int, ...], m: int) -> list[int]:
    """The diagram cut of seq as a list, unchecked, from the hook's
    `hook_frame`: a symbol met after r e- and c d-symbols takes lam_{r+1} - c
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
# doubled partition, so its highest weight for an ordering is minus the cut
# of the reversed ordering on the doubled shape.


def doubled_frame(frame: tuple[int, ...], m: int) -> tuple[int, ...]:
    """The (m|2n) `hook_frame` of the doubled shape (`double_partition`)
    from an (m|n) hook's frame, unchecked: each row lam_1..lam_m doubles
    and each column length is listed twice."""
    return (*[2 * r for r in frame[:m]], *[c for c in frame[m:] for _ in "ab"])


def highest_weight(lam, borel: BorelDescriptor) -> tuple[int, ...]:
    """Highest weight for a decreasing Borel of the (m|2n) family. On the
    opposite Borel it is the standard weight: minus the doubled rows and
    minus the duplicated clipped column depths.

    Examples
    ========

    >>> highest_weight((2, 1), BorelDescriptor(2, 1, (1, 1)))
    (-3, -1, -2, 0)
    """
    m, n = borel.m, borel.n
    frame = doubled_frame(hook_frame(require_hook(lam, m, n), m, n), m)
    return tuple(-v for v in integer_cut(borel.sequence()[::-1], frame, m))


def is_generic(lam, borel: BorelDescriptor) -> bool:
    """True iff 2*lam_i >= ell_i for all i (equivalently for i = m alone, as
    ell increases and rows decrease; with no e-symbol, m = 0, every shape is
    generic). Then the highest weight is the standard one minus the Borel's
    root sum."""
    lam = require_hook(lam, borel.m, borel.n)
    return borel.m == 0 or 2 * part(lam, borel.m) >= borel.ell[-1]


# -- arbitrary orderings for the equal-family pair ------------------------------


def diag_highest_weight(
    seq: Sequence, lam, m: int, n: int, dual: bool
) -> tuple[int, ...]:
    """Highest weight, for the ordering seq of the m e- and n d-symbols, of
    the module indexed by an (m|n)-hook partition (dual=False) or of its
    dual (dual=True), read off its diagram: the j-th e-symbol met takes the
    boxes of row j right of the columns already taken, and the j-th d-symbol
    met takes the boxes of column j below the rows already taken. Each count
    is the coefficient of the symbol itself. The dual's highest weight is
    minus the module's lowest weight, which is the module's highest weight
    for the reversed ordering.

    Examples
    ========

    >>> diag_highest_weight((("e", 1), ("e", 2), ("d", 1)), (3, 1, 1), 2, 1, False)
    (3, 1, 1)
    >>> diag_highest_weight((("d", 1), ("e", 1), ("e", 2)), (3, 1, 1), 2, 1, False)
    (2, 0, 3)
    """
    m, n = require_rank(m, n)
    seq = validate_sequence(seq, m, n)
    frame = hook_frame(require_hook(lam, m, n), m, n)
    if dual:
        return tuple(-v for v in integer_cut(seq[::-1], frame, m))
    return tuple(integer_cut(seq, frame, m))
