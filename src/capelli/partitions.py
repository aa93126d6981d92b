"""Integer partitions, hook conditions, transposition, doubling, and the
shifted coordinates at which interpolation polynomials are evaluated."""

from __future__ import annotations

from fractions import Fraction

from .exact_linalg import Rational, Vector

Partition = tuple[int, ...]


def validate_partition(parts) -> Partition:
    """Normalize to a tuple of weakly decreasing positive ints (no trailing zeros)."""
    parts = tuple(int(p) for p in parts)
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
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def is_hook(lam: Partition, m: int, n: int) -> bool:
    """True iff the diagram fits in the (m|n) fat hook: row m+1 has length <= n."""
    if m < 0 or n < 0:
        raise ValueError(f"m and n must be nonnegative, got ({m}, {n})")
    lam = validate_partition(lam)
    return part(lam, m + 1) <= n


def require_hook(lam: Partition, m: int, n: int) -> Partition:
    lam = validate_partition(lam)
    if not is_hook(lam, m, n):
        raise ValueError(f"partition {lam} not in the ({m}|{n}) hook")
    return lam


def arm_columns(lam: Partition, m: int, n: int) -> tuple[int, ...]:
    """Column lengths below row m: the vector (max(0, lam'_j - m)) for j = 1..n."""
    lam = require_hook(lam, m, n)
    tr = transpose(lam)
    return tuple(max(0, part(tr, j) - m) for j in range(1, n + 1))


def double_partition(lam: Partition, m: int, n: int) -> Partition:
    """Double a ((m|n)-hook) partition into the (m|2n) hook: rows 1..m are
    doubled and each column length below row m is repeated twice.

    Examples
    ========

    >>> double_partition((2, 1, 1, 1), 2, 1)
    (4, 2, 2, 2)
    """
    lam = require_hook(lam, m, n)
    cols = arm_columns(lam, m, n)
    doubled_cols = []
    for c in cols:
        doubled_cols.extend((c, c))
    tail = transpose(validate_partition(doubled_cols))
    head = tuple(2 * part(lam, i) for i in range(1, m + 1))
    return validate_partition(head + tail)


def enumerate_partitions(max_size: int, max_parts: int, max_part: int | None = None):
    """Yield all partitions with at most max_parts parts and size <= max_size,
    ordered by size then lexicographically."""
    if max_part is None:
        max_part = max_size

    def rows(remaining, parts_left, cap):
        yield ()
        if parts_left == 0:
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rows(remaining - first, parts_left - 1, first):
                yield (first,) + rest

    found = sorted(rows(max_size, max_parts, max_part), key=lambda p: (sum(p), p))
    yield from found


def enumerate_hooks(m: int, n: int, max_size: int) -> list[Partition]:
    """All (m|n)-hook partitions of size <= max_size, by size then lex.

    Examples
    ========

    >>> enumerate_hooks(1, 1, 3)
    [(), (1,), (1, 1), (2,), (1, 1, 1), (2, 1), (3,)]
    """
    return [
        lam for lam in enumerate_partitions(max_size, max_size) if is_hook(lam, m, n)
    ]


def require_theta(theta) -> Fraction:
    """theta as a Fraction; raises ValueError outside the domain theta > 0."""
    theta = Fraction(theta)
    if theta <= 0:
        raise ValueError("theta outside allowed domain")
    return theta


def frobenius_coords(lam: Partition, m: int, n: int, theta) -> Vector:
    """Shifted coordinates of a hook partition: the point where interpolation
    polynomials take their characteristic values.

    Entry i <= m is lam_i - theta*(i - 1/2) - (n - theta*m)/2; entry m+j is
    max(0, lam'_j - m) - (j - 1/2)/theta + (n/theta + m)/2.

    Examples
    ========

    >>> frobenius_coords((1,), 1, 1, Fraction(1, 2))
    (Fraction(1, 2), Fraction(1, 2))
    """
    theta = require_theta(theta)
    lam = require_hook(lam, m, n)
    cols = arm_columns(lam, m, n)
    xs = [
        part(lam, i) - theta * Fraction(2 * i - 1, 2) - Fraction(n - theta * m, 2)
        for i in range(1, m + 1)
    ]
    ys = [
        cols[j - 1] - Fraction(2 * j - 1, 2) / theta + (n / theta + m) / 2
        for j in range(1, n + 1)
    ]
    return tuple(Fraction(v) for v in xs + ys)


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
