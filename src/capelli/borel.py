"""Borel subalgebras containing the diagonal Cartan, encoded as orderings of
the two families of coordinate functionals, plus the combinatorics attached
to the "decreasing" ones: right-count vectors, root sums, and the even/odd
classification used by the eigenvalue maps. A weight is a flat tuple of its
coefficients, the e-block then the d-block."""

from __future__ import annotations

import itertools
from fractions import Fraction

from .exact_linalg import Frozen, Vector
from .partitions import require_rank

# A symbol is ("e", i) or ("d", k) with 1-based index: a functional on the
# even (e) or odd (d) part of the diagonal Cartan.
Symbol = tuple[str, int]
Sequence = tuple[Symbol, ...]


def standard_sequence(num_eps: int, num_delta: int) -> Sequence:
    """e_1 .. e_m then d_1 .. d_N."""
    return tuple(("e", i) for i in range(1, num_eps + 1)) + tuple(
        ("d", k) for k in range(1, num_delta + 1)
    )


def all_sequences(num_eps: int, num_delta: int):
    """Every ordering of the symbols: one Borel per ordering."""
    return itertools.permutations(standard_sequence(num_eps, num_delta))


def validate_sequence(seq, num_eps: int, num_delta: int) -> Sequence:
    seq = tuple((str(kind), int(index)) for kind, index in seq)
    sizes = {"e": num_eps, "d": num_delta}
    distinct = len(set(seq)) == len(seq) == num_eps + num_delta
    if not distinct or any(not 1 <= i <= sizes.get(kind, 0) for kind, i in seq):
        raise ValueError(
            f"sequence {seq} is not an ordering of {num_eps} e/{num_delta} d symbols"
        )
    return seq


def weyl_vector(seq: Sequence) -> Vector:
    """Half-sum over ordered pairs of (earlier - later), signed +1 for a
    same-family pair and -1 for a mixed pair. In closed form, the symbol at
    position p has coefficient half of (same-family after - mixed after) -
    (same-family before - mixed before).

    Examples
    ========

    >>> weyl_vector((("d", 1), ("e", 1)))
    (Fraction(1, 2), Fraction(-1, 2))
    """
    num_eps = sum(1 for kind, _ in seq if kind == "e")
    family_size = {"e": num_eps, "d": len(seq) - num_eps}
    block_start = {"e": 0, "d": num_eps}
    coeffs = [Fraction(0)] * len(seq)
    same_seen = {"e": 0, "d": 0}
    for p, (kind, index) in enumerate(seq):
        same_before = same_seen[kind]
        same_after = family_size[kind] - same_before - 1
        mixed_before = p - same_before
        mixed_after = len(seq) - p - 1 - same_after
        coeffs[block_start[kind] + index - 1] = Fraction(
            (same_after - mixed_after) - (same_before - mixed_before), 2
        )
        same_seen[kind] += 1
    return tuple(coeffs)


class BorelDescriptor(Frozen):
    """A decreasing Borel of the (m | 2n) family: both symbol families occur
    in descending index order, so the ordering is determined by the weakly
    increasing vector ell, where ell[i-1] counts d-symbols to the right of
    e_i."""

    __slots__ = ("m", "n", "ell")

    def __init__(self, m: int, n: int, ell):
        require_rank(m, n)
        ell = tuple(int(v) for v in ell)
        if len(ell) != m:
            raise ValueError(f"ell must have length m={m}")
        if any(not 0 <= v <= 2 * n for v in ell):
            raise ValueError(f"ell entries must lie in [0, {2 * n}]")
        if any(ell[i] > ell[i + 1] for i in range(len(ell) - 1)):
            raise ValueError(f"ell must be weakly increasing: {ell}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ell", ell)

    @property
    def num_delta(self) -> int:
        return 2 * self.n

    def ell_of(self, i: int) -> int:
        """Right-count of e_i (1-based)."""
        if not 1 <= i <= self.m:
            raise ValueError(f"i={i} out of range")
        return self.ell[i - 1]

    def j_of(self, k: int) -> int:
        """Number of e-symbols left of d_k: #{i : ell_i >= k}."""
        if not 1 <= k <= self.num_delta:
            raise ValueError(f"k={k} out of range")
        return sum(1 for v in self.ell if v >= k)

    def j_vector(self) -> tuple[int, ...]:
        return tuple(self.j_of(k) for k in range(1, self.num_delta + 1))

    def sequence(self) -> Sequence:
        seq: list[Symbol] = []
        k = self.num_delta
        for i in range(self.m, 0, -1):
            while k > self.ell_of(i):
                seq.append(("d", k))
                k -= 1
            seq.append(("e", i))
        while k > 0:
            seq.append(("d", k))
            k -= 1
        return tuple(seq)

    @classmethod
    def opposite(cls, m: int, n: int) -> "BorelDescriptor":
        """The decreasing Borel with every e-symbol after every d-symbol."""
        return cls(m, n, (0,) * m)

    @classmethod
    def enumerate(cls, m: int, n: int) -> list["BorelDescriptor"]:
        """All decreasing Borels, lexicographically by ell."""
        return [
            cls(m, n, ell)
            for ell in itertools.combinations_with_replacement(
                range(2 * n + 1), m
            )
        ]

    # -- roots and root sums ------------------------------------------------

    def root_sum(self) -> tuple[int, ...]:
        """Sum of the generic roots d_k - e_i over k <= ell_i:
        -sum ell_i e_i + sum j_k d_k.

        Examples
        ========

        >>> BorelDescriptor(2, 1, (1, 1)).root_sum()
        (-1, -1, 2, 0)
        """
        return tuple(-v for v in self.ell) + self.j_vector()

    # -- parity classification ----------------------------------------------

    def is_very_even(self) -> bool:
        """Every right-count is even."""
        return all(v % 2 == 0 for v in self.ell)

    def is_relatively_even(self) -> bool:
        """Each d-pair's e-counts differ by at most one."""
        return all(
            self.j_of(2 * k - 1) - self.j_of(2 * k) <= 1 for k in range(1, self.n + 1)
        )


def parse_symbol(token: str) -> Symbol:
    """Parse "e2" or "d1" into a symbol."""
    token = token.strip().lower()
    if token[:1] in ("e", "d") and token[1:].isdecimal():
        return (token[0], int(token[1:]))
    raise ValueError(f"bad symbol token {token!r}")


def format_symbol(symbol: Symbol) -> str:
    return f"{symbol[0]}{symbol[1]}"
