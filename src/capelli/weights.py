"""Highest weights of the modules attached to hook partitions, for every
Borel containing the diagonal Cartan, all from one rule: the diagram cut,
which reads the highest weight of any ordering off the Young diagram. A
weight is a flat tuple of integers, the e-block then the d-block."""

from __future__ import annotations

import itertools
from fractions import Fraction

from .borel import BorelDescriptor, Sequence, standard_sequence, validate_sequence
from .partitions import double_partition, node_point, part, require_hook


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
    seq = validate_sequence(seq, m, n)
    return tuple(integer_cut(seq, require_hook(lam, m, n), m, n))


def integer_cut(seq: Sequence, lam: tuple[int, ...], m: int, n: int) -> list[int]:
    """The coordinates of `diagram_cut` in a list, with no check of its
    input: seq must be an ordering of the m e- and n d-symbols and lam an
    (m|n)-hook partition."""
    cut = [0] * (m + n)
    rows = cols = 0
    for kind, index in seq:
        if kind == "e":
            cut[index - 1] = max(0, part(lam, rows + 1) - cols)
            rows += 1
        else:
            # the depth of column cols + 1 below row rows
            cut[m + index - 1] = sum(1 for p in lam[rows:] if p > cols)
            cols += 1
    return cut


def _plain_changes(size: int):
    """The positions p of the adjacent swaps (p, p + 1) that walk every
    ordering of size items once, in plain changes (Knuth, TAOCP 4A, 7.2.1.2):
    the last item sweeps down and up through the others, and between two
    sweeps the others take their own next plain change."""
    down = range(size - 2, -1, -1)
    inner = _plain_changes(size - 1) if size > 2 else iter(())
    for k in itertools.count():
        yield from reversed(down) if k % 2 else down
        p = next(inner, None)
        if p is None:
            return
        yield p + (k % 2 == 0)


def diag_walk(lams, m: int, n: int):
    """Yield every ordering of the m e- and n d-symbols, each one adjacent
    swap from the last (`_plain_changes` from the standard ordering), with
    the list of its 2w + 2 rho per (m|n)-hook lam, unchecked: twice the
    `integer_cut` plus twice the `weyl_vector`, as integer tuples. At the
    standard ordering w + rho is the theta = 1 node (`node_point`). A
    same-family swap trades the two coordinates. A mixed swap at p, with
    r e's before p and c = p - r, moves the e-coordinate by +2 and the
    d-coordinate by -2 when (e, d) becomes (d, e), and the other way round
    when (d, e) becomes (e, d), unless box (r + 1, c + 1) is in lam: then it
    changes nothing."""
    seq = list(standard_sequence(m, n))
    slot = {symbol: i for i, symbol in enumerate(seq)}
    nodes = (node_point(lam, m, n, Fraction(1)) for lam in lams)
    points = [[2 * v // den for v in nums] for den, nums in nodes]
    # the points of the shapes without box (r + 1, c + 1)
    outside = [
        [[pt for lam, pt in zip(lams, points) if part(lam, r + 1) <= c]
         for c in range(n)]
        for r in range(m)
    ]
    yield tuple(seq), list(map(tuple, points))
    for p in _plain_changes(m + n):
        a, b = seq[p], seq[p + 1]
        seq[p], seq[p + 1] = b, a
        i, k = slot[a], slot[b]
        if a[0] == b[0]:
            for pt in points:
                pt[i], pt[k] = pt[k], pt[i]
        else:
            r = sum(kind == "e" for kind, _ in seq[:p])
            step, e, d = (2, i, k) if a[0] == "e" else (-2, k, i)
            for pt in outside[r][p - r]:
                pt[e] += step
                pt[d] -= step
        yield tuple(seq), list(map(tuple, points))


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
