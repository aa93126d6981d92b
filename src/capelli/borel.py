"""Borel subalgebras containing the diagonal Cartan, encoded as orderings of
the two families of coordinate functionals, plus the combinatorics attached
to the "decreasing" ones: right-count vectors, root sums, and the even/odd
classification used by the eigenvalue maps."""

from __future__ import annotations

import itertools
from fractions import Fraction

from .exact_linalg import Frozen, Rational, as_vector, format_vector
from .partitions import require_rank

# A symbol is ("e", i) or ("d", k) with 1-based index: a functional on the
# even (e) or odd (d) part of the diagonal Cartan.
Symbol = tuple[str, int]
Sequence = tuple[Symbol, ...]


class WeightVector(Frozen):
    """Coefficients of a weight in the two coordinate families."""

    __slots__ = ("eps", "delta")

    def __init__(self, eps: tuple[Rational, ...], delta: tuple[Rational, ...]):
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "delta", delta)

    @classmethod
    def make(cls, eps, delta) -> "WeightVector":
        return cls(as_vector(eps), as_vector(delta))

    def shape(self) -> tuple[int, int]:
        return (len(self.eps), len(self.delta))

    def _check(self, other: "WeightVector"):
        if self.shape() != other.shape():
            raise ValueError("weight shape mismatch")

    def __add__(self, other: "WeightVector") -> "WeightVector":
        self._check(other)
        return WeightVector(
            tuple(a + b for a, b in zip(self.eps, other.eps)),
            tuple(a + b for a, b in zip(self.delta, other.delta)),
        )

    def __sub__(self, other: "WeightVector") -> "WeightVector":
        self._check(other)
        return WeightVector(
            tuple(a - b for a, b in zip(self.eps, other.eps)),
            tuple(a - b for a, b in zip(self.delta, other.delta)),
        )

    def __neg__(self) -> "WeightVector":
        return WeightVector(tuple(-a for a in self.eps), tuple(-a for a in self.delta))

    def coords(self) -> tuple[Rational, ...]:
        """Flatten to a plain point: e-block then d-block."""
        return self.eps + self.delta

    def to_json_dict(self) -> dict:
        return {
            "eps": format_vector(self.eps),
            "delta": format_vector(self.delta),
        }


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


def weyl_vector(seq: Sequence) -> WeightVector:
    """Half-sum over ordered pairs of (earlier - later), signed +1 for a
    same-family pair and -1 for a mixed pair. In closed form, the symbol at
    position p has coefficient half of (same-family after - mixed after) -
    (same-family before - mixed before)."""
    num_eps = sum(1 for kind, _ in seq if kind == "e")
    family_size = {"e": num_eps, "d": len(seq) - num_eps}
    coeffs = {kind: [Fraction(0)] * size for kind, size in family_size.items()}
    same_seen = {"e": 0, "d": 0}
    for p, (kind, index) in enumerate(seq):
        same_before = same_seen[kind]
        same_after = family_size[kind] - same_before - 1
        mixed_before = p - same_before
        mixed_after = len(seq) - p - 1 - same_after
        coeffs[kind][index - 1] = Fraction(
            (same_after - mixed_after) - (same_before - mixed_before), 2
        )
        same_seen[kind] += 1
    return WeightVector(tuple(coeffs["e"]), tuple(coeffs["d"]))


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

    def root_sum(self) -> WeightVector:
        """Sum of the generic roots d_k - e_i over k <= ell_i:
        -sum ell_i e_i + sum j_k d_k."""
        eps = [-Fraction(v) for v in self.ell]
        delta = [Fraction(j) for j in self.j_vector()]
        return WeightVector.make(eps, delta)

    def odd_root_sum(self, k: int) -> WeightVector:
        """Contribution of the k-th d-pair beyond the even core:
        (j_{2k-1} - j_{2k}) d_{2k-1} - (e_{m-j_{2k-1}+1} + ... + e_{m-j_{2k}})."""
        if not 1 <= k <= self.n:
            raise ValueError(f"k={k} out of range")
        j_hi = self.j_of(2 * k - 1)
        j_lo = self.j_of(2 * k)
        eps = [Fraction(0)] * self.m
        for i in range(self.m - j_hi + 1, self.m - j_lo + 1):
            eps[i - 1] = Fraction(-1)
        delta = [Fraction(0)] * self.num_delta
        delta[2 * k - 2] = Fraction(j_hi - j_lo)
        return WeightVector.make(eps, delta)

    # -- parity classification ----------------------------------------------

    def is_very_even(self) -> bool:
        """Every right-count is even."""
        return all(v % 2 == 0 for v in self.ell)

    def odd_pair_set(self) -> tuple[int, ...]:
        """Pairs k whose two d-symbols see different e-counts."""
        return tuple(
            k for k in range(1, self.n + 1) if self.j_of(2 * k) < self.j_of(2 * k - 1)
        )

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
