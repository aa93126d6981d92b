"""Integer partitions, hook conditions, transposition, doubling, and the
shifted coordinates at which interpolation polynomials are evaluated."""

from __future__ import annotations

from fractions import Fraction

from .exact_linalg import Vector, as_integer, as_rational, format_rational, lowest_terms

Partition = tuple[int, ...]


def validate_partition(parts) -> Partition:
    """Normalize to a tuple of weakly decreasing positive ints (no trailing zeros)."""
    parts = tuple(as_integer(p, "part") for p in parts)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    if any(p < 0 for p in parts):
        raise ValueError(f"negative part in {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"parts not weakly decreasing: {parts}")
    return parts


def part(lam: Partition, i: int) -> int:
    """The i-th part (1-based), zero beyond the last row."""
    return lam[i - 1] if 1 <= i <= len(lam) else 0


def size(lam: Partition) -> int:
    return sum(lam)


def transpose(lam: Partition) -> Partition:
    """Conjugate partition: column lengths of the diagram.

    Examples
    ========

    >>> transpose((3, 1, 1))
    (3, 1, 1)
    >>> transpose((4, 2))
    (2, 2, 1, 1)
    """
    lam = validate_partition(lam)
    return hook_frame(lam, 0, part(lam, 1))


def require_rank(m: int, n: int) -> tuple[int, int]:
    """(m, n) as ints, raising ValueError unless both ranks are nonnegative
    integers."""
    m, n = as_integer(m, "m"), as_integer(n, "n")
    if m < 0 or n < 0:
        raise ValueError(f"m and n must be nonnegative, got ({m}, {n})")
    return m, n


def is_hook(lam: Partition, m: int, n: int) -> bool:
    """True iff the diagram fits in the (m|n) fat hook: row m+1 has length <= n."""
    m, n = require_rank(m, n)
    lam = validate_partition(lam)
    return part(lam, m + 1) <= n


def require_hook(lam: Partition, m: int, n: int) -> Partition:
    """lam validated once, raising ValueError unless it fits the (m|n) hook."""
    m, n = require_rank(m, n)
    lam = validate_partition(lam)
    if part(lam, m + 1) > n:
        raise ValueError(f"partition {lam} not in the ({m}|{n}) hook")
    return lam


def double_partition(lam: Partition, m: int, n: int) -> Partition:
    """Double an (m|n)-hook partition into the (m|2n) hook: every row doubles,
    so rows 1..m double and each column is listed twice (row m+r meets both
    copies of the lam_{m+r} <= n columns it met).

    Examples
    ========

    >>> double_partition((2, 1, 1, 1), 2, 1)
    (4, 2, 2, 2)
    """
    return tuple(2 * p for p in require_hook(lam, m, n))


def hook_frame(lam: Partition, m: int, n: int) -> tuple[int, ...]:
    """What a diagram cut reads of an (m|n) hook, unchecked: its rows
    lam_1..lam_m, then its column lengths lam'_1..lam'_n, zero-padded.

    Examples
    ========

    >>> hook_frame((3, 1, 1), 2, 1)
    (3, 1, 3)
    """
    cols = (len([p for p in lam if p >= j]) for j in range(1, n + 1))
    return (*lam[:m], *(0,) * (m - len(lam)), *cols)


def enumerate_partitions(max_size: int, max_parts: int) -> list[Partition]:
    """All partitions with at most max_parts parts and size <= max_size,
    ordered by size then lexicographically: the (max_parts|0) hooks."""
    return enumerate_hooks(max_parts, 0, max_size)


def enumerate_hooks(m: int, n: int, max_size: int) -> list[Partition]:
    """All (m|n)-hook partitions of size <= max_size, by size then lex,
    generated depth first on a stack, each row past m capped at n.

    Examples
    ========

    >>> enumerate_hooks(1, 1, 3)
    [(), (1,), (1, 1), (2,), (1, 1, 1), (2, 1), (3,)]
    """
    m, n = require_rank(m, n)
    max_size = as_integer(max_size, "size bound")
    if max_size < 0:
        raise ValueError(f"size bound must be nonnegative, got {max_size}")
    found, stack = [], [((), max_size, max_size)]
    while stack:
        lam, left, cap = stack.pop()
        found.append(lam)
        if len(lam) >= m:
            cap = min(cap, n)
        stack.extend((lam + (p,), left - p, p) for p in range(1, min(cap, left) + 1))
    found.sort(key=lambda lam: (sum(lam), lam))
    return found


def require_theta(theta) -> Fraction:
    """theta, or its text, as a Fraction; raises ValueError unless theta > 0,
    and for a float."""
    theta = as_rational(theta, "theta")
    if theta <= 0:
        raise ValueError(f"theta must be positive, got {format_rational(theta)}")
    return theta


def node_point(lam: Partition, m: int, n: int, theta: Fraction):
    """The shifted coordinates of the hook lam as (den, nums) in lowest terms:
    entry i <= m is lam_i - theta*(i - 1/2) - (n - theta*m)/2, and entry m+j
    is c_j - (j - 1/2)/theta + (n/theta + m)/2, where c_j = max(0, lam'_j - m)
    counts the rows past m of length >= j. Over 2pq, for theta = p/q, every
    entry is an integer. Unchecked: lam is a hook and theta a Fraction > 0.

    Examples
    ========

    >>> node_point((1,), 1, 1, Fraction(1, 2))
    (2, (1, 1))
    """
    p, q = theta.numerator, theta.denominator
    xs = [
        p * (2 * q * part(lam, i) + p * (m + 1 - 2 * i) - n * q)
        for i in range(1, m + 1)
    ]
    ys = [
        q * (2 * p * len([r for r in lam[m:] if r >= j]) + q * (n + 1 - 2 * j) + m * p)
        for j in range(1, n + 1)
    ]
    return lowest_terms(2 * p * q, xs + ys)


def frobenius_coords(lam: Partition, m: int, n: int, theta) -> Vector:
    """Shifted coordinates of a hook partition, the point where interpolation
    polynomials take their characteristic values: `node_point` as Fractions,
    after checking lam and theta.

    Examples
    ========

    >>> frobenius_coords((1,), 1, 1, Fraction(1, 2))
    (Fraction(1, 2), Fraction(1, 2))
    """
    theta = require_theta(theta)
    m, n = require_rank(m, n)
    den, nums = node_point(require_hook(lam, m, n), m, n, theta)
    return tuple(Fraction(v, den) for v in nums)


def parse_int_list(text: str) -> tuple[int, ...]:
    """Parse a comma-separated integer list; a blank string is the empty list."""
    if not text.strip():
        return ()
    values = []
    for token in text.split(","):
        try:
            values.append(int(token))
        except ValueError:
            raise ValueError(f"bad integer {token.strip()!r}") from None
    return tuple(values)


def parse_partition(text: str) -> Partition:
    """Parse a comma-separated part list; empty string is the empty partition."""
    return validate_partition(parse_int_list(text))


def format_partition(lam: Partition) -> str:
    return ",".join(str(p) for p in lam)
