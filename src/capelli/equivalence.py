"""The move-generated equivalence on evaluation points: block transpositions
plus unit shifts across the affine conditions x_i + theta*y_j = (1-theta)/2
and x_i + theta*y_j = -(1-theta)/2, orbit search with explicit infinite-orbit
detection at theta = 1/2, and the closure criterion."""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from .exact_linalg import Frozen, Vector, as_integer, as_rational, format_vector
from .partitions import require_rank, require_theta

DEFAULT_BUDGET = 10**4
HALF = Fraction(1, 2)


def require_point(point, m: int, n: int) -> Vector:
    """point as a vector of Rationals, raising ValueError unless the rank is
    valid and the point has m + n coordinates."""
    require_rank(m, n)
    point = tuple(as_rational(v, "coordinate") for v in point)
    if len(point) != m + n:
        raise ValueError(f"point has length {len(point)}, expected {m + n}")
    return point


def monoidal_moves(point, m: int, n: int, theta) -> list[Vector]:
    """All points one move away: x-block and y-block adjacent swaps, and unit
    shifts -e_i + e_{m+j} (resp. +e_i - e_{m+j}) available when x_i +
    theta*y_j equals (1-theta)/2 (resp. its negative)."""
    theta = require_theta(theta)
    m, n = require_rank(m, n)
    point = require_point(point, m, n)
    level = (1 - theta) / 2
    out = set()
    for i in range(m):
        for j in range(n):
            value = point[i] + theta * point[m + j]
            if value == level:
                moved = list(point)
                moved[i] -= 1
                moved[m + j] += 1
                out.add(tuple(moved))
            if value == -level:
                moved = list(point)
                moved[i] += 1
                moved[m + j] -= 1
                out.add(tuple(moved))
    for a in range(m - 1):
        moved = list(point)
        moved[a], moved[a + 1] = moved[a + 1], moved[a]
        out.add(tuple(moved))
    for b in range(n - 1):
        moved = list(point)
        moved[m + b], moved[m + b + 1] = moved[m + b + 1], moved[m + b]
        out.add(tuple(moved))
    out.discard(point)
    return sorted(out)


def _witness_triples(point, m: int, n: int):
    """Every triple (i, i0, j), scanned over ordered x-pairs, with
    x_i - x_{i0} = 2*x_i + y_j = -1/2."""
    for i in range(1, m + 1):
        for i0 in range(1, m + 1):
            if i == i0 or point[i - 1] - point[i0 - 1] != -HALF:
                continue
            for j in range(1, n + 1):
                if 2 * point[i - 1] + point[m + j - 1] == -HALF:
                    yield (i, i0, j)


def infinite_witness(point, m: int, n: int, theta) -> tuple[int, int, int] | None:
    """At theta = 1/2: the first witness triple (i, i0, j) of the point; such
    a point has an infinite orbit. Returns None when theta != 1/2 or no
    triple fires."""
    theta = require_theta(theta)
    m, n = require_rank(m, n)
    point = require_point(point, m, n)
    if theta != HALF:
        return None
    return next(_witness_triples(point, m, n), None)


class OrbitResult(Frozen):
    """How an orbit search ended (one of the three statuses below), the
    orbit's points when it is finite, the witness when it is infinite, and
    how many distinct points the search met."""

    __slots__ = ("status", "points", "witness", "explored")

    FINITE = "finite"
    INFINITE = "infinite"
    BUDGET_EXHAUSTED = "budget_exhausted"

    def __init__(
        self,
        status: str,
        points: tuple[Vector, ...] | None,
        witness: dict | None,
        explored: int,
    ):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "explored", explored)

    def to_json_dict(self) -> dict:
        blob: dict = {"status": self.status, "explored": self.explored}
        if self.points is not None:
            blob["points"] = [format_vector(p) for p in self.points]
        if self.witness is not None:
            blob["witness"] = self.witness
        return blob


def require_budget(budget: int) -> int:
    """budget as an int, raising ValueError unless it is a nonnegative
    integer."""
    budget = as_integer(budget, "budget")
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    return budget


def orbit(point, m: int, n: int, theta, budget: int = DEFAULT_BUDGET) -> OrbitResult:
    """Breadth-first closure under the moves. Stops early with a witness when
    the infinite-orbit criterion fires, or with budget_exhausted when more
    than `budget` distinct points appear."""
    budget = require_budget(budget)
    theta = require_theta(theta)
    m, n = require_rank(m, n)
    start = require_point(point, m, n)
    seen = {start}
    if len(seen) > budget:
        return OrbitResult(OrbitResult.BUDGET_EXHAUSTED, None, None, len(seen))
    queue = deque([start])
    while queue:
        current = queue.popleft()
        witness = infinite_witness(current, m, n, theta)
        if witness is not None:
            i, i0, j = witness
            return OrbitResult(
                OrbitResult.INFINITE,
                None,
                {
                    "point": format_vector(current),
                    "i": i,
                    "i0": i0,
                    "j": j,
                },
                len(seen),
            )
        for neighbor in monoidal_moves(current, m, n, theta):
            if neighbor in seen:
                continue
            seen.add(neighbor)
            if len(seen) > budget:
                return OrbitResult(
                    OrbitResult.BUDGET_EXHAUSTED, None, None, len(seen)
                )
            queue.append(neighbor)
    return OrbitResult(OrbitResult.FINITE, tuple(sorted(seen)), None, len(seen))


def closure_member(u, v, m: int, n: int, theta) -> bool:
    """True iff v lies in the described closure set of u's orbit for some
    witness triple of u: agreement outside the triple's coordinates, and the
    two affine conditions holding at a common value +-1/2."""
    theta = require_theta(theta)
    if theta != HALF:
        raise ValueError("closure criterion requires theta = 1/2")
    m, n = require_rank(m, n)
    u = require_point(u, m, n)
    v = require_point(v, m, n)
    for i, i0, j in _witness_triples(u, m, n):
        inside = {i - 1, i0 - 1, m + j - 1}
        if any(v[s] != u[s] for s in range(m + n) if s not in inside):
            continue
        common = v[i - 1] - v[i0 - 1]
        if common in (HALF, -HALF) and 2 * v[i - 1] + v[m + j - 1] == common:
            return True
    return False

