"""Affine maps carrying Borel highest weights to interpolation-polynomial
arguments: the standard halve-and-pair map, its compatible perturbation
families, canonical members, and the per-Borel offset constructions."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .borel import BorelDescriptor, WeightVector, weyl_vector
from .exact_linalg import (
    RationalMatrix,
    Vector,
    format_rational,
    vec_add,
)

# -- affine maps ----------------------------------------------------------------


@dataclass(frozen=True)
class AffineMap:
    """x -> matrix * x + offset on flattened weight coordinates."""

    matrix: RationalMatrix
    offset: Vector

    def __post_init__(self):
        if self.matrix.rows != len(self.offset):
            raise ValueError("offset length must match matrix rows")
        object.__setattr__(
            self, "offset", tuple(Fraction(v) for v in self.offset)
        )

    def apply(self, point) -> Vector:
        if isinstance(point, WeightVector):
            point = point.coords()
        return vec_add(self.matrix.apply(point), self.offset)

    def to_json_dict(self) -> dict:
        return {
            "matrix": [
                [format_rational(v) for v in row] for row in self.matrix.entries
            ],
            "offset": [format_rational(v) for v in self.offset],
        }


# -- the standard map -------------------------------------------------------------


def restrict_matrix(m: int, n: int) -> RationalMatrix:
    """Halve-and-pair projection from (m|2n) weight coordinates to m+n
    interpolation variables: a_i -> a_i/2 and (b_{2k-1}, b_{2k}) -> their
    half-sum."""
    rows = []
    for i in range(m):
        row = [Fraction(0)] * (m + 2 * n)
        row[i] = Fraction(1, 2)
        rows.append(row)
    for k in range(n):
        row = [Fraction(0)] * (m + 2 * n)
        row[m + 2 * k] = Fraction(1, 2)
        row[m + 2 * k + 1] = Fraction(1, 2)
        rows.append(row)
    return RationalMatrix(rows)


def standard_matrix(m: int, n: int) -> RationalMatrix:
    """Negated halve-and-pair projection: the linear part of the standard map."""
    return restrict_matrix(m, n).scale(-1)


def standard_offset(m: int, n: int) -> Vector:
    """Offset of the standard map: the negated projection of the all-d-first
    Weyl vector. Entry i is (m + 1 - 2n - 2i)/4; entry m+k is
    (m + 2 + 2n - 4k)/2."""
    rho = weyl_vector(BorelDescriptor.opposite(m, n).sequence())
    return standard_matrix(m, n).apply(rho.coords())


def standard_map(m: int, n: int) -> AffineMap:
    return AffineMap(standard_matrix(m, n), standard_offset(m, n))


def x0_eps_entry(i: int, m: int, n: int) -> Fraction:
    return Fraction(m + 1 - 2 * n - 2 * i, 4)


def x0_delta_entry(k: int, m: int, n: int) -> Fraction:
    return Fraction(m + 2 + 2 * n - 4 * k, 2)


# -- perturbation families ---------------------------------------------------------
#
# A compatible matrix differs from the standard one only in the d-columns,
# with the two columns of each d-pair perturbed by opposite vectors. The
# kernel family additionally annihilates the odd root sums of a Borel; the
# full family pins the first column of each odd pair to a prescribed value.


def matrix_from_pair_columns(m: int, n: int, columns) -> RationalMatrix:
    """Compatible matrix with per-pair perturbation columns: columns[k-1] is
    added to d-column 2k-1 and subtracted from d-column 2k."""
    base = standard_matrix(m, n)
    entries = [list(row) for row in base.entries]
    for k, col in enumerate(columns, start=1):
        col = tuple(Fraction(v) for v in col)
        if len(col) != m + n:
            raise ValueError("perturbation column has wrong length")
        for r in range(m + n):
            entries[r][m + 2 * k - 2] += col[r]
            entries[r][m + 2 * k - 1] -= col[r]
    return RationalMatrix(entries)


def pair_columns_of(matrix: RationalMatrix, m: int, n: int):
    """Inverse of matrix_from_pair_columns; raises if the matrix is not in
    the compatible family."""
    base = standard_matrix(m, n)
    if (matrix.rows, matrix.cols) != (m + n, m + 2 * n):
        raise ValueError("matrix has wrong shape")
    for j in range(m):
        if matrix.column(j) != base.column(j):
            raise ValueError("matrix changes an e-column")
    columns = []
    for k in range(1, n + 1):
        hi = tuple(
            a - b
            for a, b in zip(matrix.column(m + 2 * k - 2), base.column(m + 2 * k - 2))
        )
        lo = tuple(
            a - b
            for a, b in zip(matrix.column(m + 2 * k - 1), base.column(m + 2 * k - 1))
        )
        if tuple(-v for v in lo) != hi:
            raise ValueError("d-pair columns are not opposite perturbations")
        columns.append(hi)
    return columns


def in_plain_family(matrix: RationalMatrix, m: int, n: int) -> bool:
    try:
        pair_columns_of(matrix, m, n)
    except ValueError:
        return False
    return True


def in_kernel_family(matrix: RationalMatrix, borel: BorelDescriptor) -> bool:
    """Compatible and annihilating every odd root sum of the Borel."""
    m, n = borel.m, borel.n
    if not in_plain_family(matrix, m, n):
        return False
    zero = (Fraction(0),) * (m + n)
    return all(
        matrix.apply(borel.odd_root_sum(k).coords()) == zero
        for k in borel.odd_pair_set()
    )


def in_full_family(matrix: RationalMatrix, borel: BorelDescriptor) -> bool:
    """Compatible and sending d_{2k-1}, for each odd pair k, to the pinned
    value e_{m - j_{2k}}/2 - e_{m+k}."""
    m, n = borel.m, borel.n
    if not in_plain_family(matrix, m, n):
        return False
    for k in borel.odd_pair_set():
        got = matrix.column(m + 2 * k - 2)
        want = [Fraction(0)] * (m + n)
        want[m - borel.j_of(2 * k) - 1] = Fraction(1, 2)
        want[m + k - 1] += Fraction(-1)
        if got != tuple(want):
            return False
    return True


def kernel_member(borel: BorelDescriptor) -> RationalMatrix:
    """Canonical kernel-family member: perturb each odd pair k by
    -(standard matrix applied to its odd root sum)/(j_{2k-1} - j_{2k})."""
    m, n = borel.m, borel.n
    base = standard_matrix(m, n)
    columns = []
    for k in range(1, n + 1):
        gap = borel.j_of(2 * k - 1) - borel.j_of(2 * k)
        if gap == 0:
            columns.append((Fraction(0),) * (m + n))
        else:
            image = base.apply(borel.odd_root_sum(k).coords())
            columns.append(tuple(-v / gap for v in image))
    return matrix_from_pair_columns(m, n, columns)


def full_member(borel: BorelDescriptor) -> RationalMatrix:
    """Canonical full-family member: perturb each odd pair k by
    (e_{m - j_{2k}} - e_{m+k})/2."""
    m, n = borel.m, borel.n
    columns = []
    for k in range(1, n + 1):
        col = [Fraction(0)] * (m + n)
        if k in borel.odd_pair_set():
            col[m - borel.j_of(2 * k) - 1] = Fraction(1, 2)
            col[m + k - 1] = Fraction(-1, 2)
        columns.append(tuple(col))
    return matrix_from_pair_columns(m, n, columns)


# -- per-Borel maps -----------------------------------------------------------------


def eigenvalue_map_very_even(
    borel: BorelDescriptor, matrix: RationalMatrix | None = None
) -> AffineMap:
    """Map for a very even Borel: any compatible matrix with offset equal to
    the standard matrix applied to the Borel's Weyl vector."""
    if not borel.is_very_even():
        raise ValueError(f"Borel ell={borel.ell} is not very even")
    m, n = borel.m, borel.n
    if matrix is None:
        matrix = standard_matrix(m, n)
    elif not in_plain_family(matrix, m, n):
        raise ValueError("matrix is not a compatible perturbation")
    offset = standard_matrix(m, n).apply(weyl_vector(borel.sequence()).coords())
    return AffineMap(matrix, offset)


def eigenvalue_map_rel_even(
    borel: BorelDescriptor, matrix: RationalMatrix | None = None
) -> AffineMap:
    """Map for a relatively even Borel: a kernel-family matrix with offset
    taken from the Borel's even core."""
    if not borel.is_relatively_even():
        raise ValueError(f"Borel ell={borel.ell} is not relatively even")
    return _kernel_map(borel, matrix)


def _kernel_map(
    borel: BorelDescriptor, matrix: RationalMatrix | None
) -> AffineMap:
    m, n = borel.m, borel.n
    if matrix is None:
        matrix = kernel_member(borel)
    elif not in_kernel_family(matrix, borel):
        raise ValueError("matrix is not in the kernel family of this Borel")
    core = borel.even_core()
    offset = standard_matrix(m, n).apply(weyl_vector(core.sequence()).coords())
    return AffineMap(matrix, offset)


def forced_kernel_map(
    borel: BorelDescriptor, matrix: RationalMatrix | None = None
) -> AffineMap:
    """The kernel-family construction applied without the relatively-even
    hypothesis: a negative control that provably fails on some Borels."""
    return _kernel_map(borel, matrix)


def eigenvalue_map_full(
    borel: BorelDescriptor, matrix: RationalMatrix | None = None
) -> AffineMap:
    """Map defined for every decreasing Borel: a full-family matrix with
    offset (matrix applied to the Borel root sum) + standard offset; the
    offset does not depend on the choice within the family."""
    m, n = borel.m, borel.n
    if matrix is None:
        matrix = full_member(borel)
    elif not in_full_family(matrix, borel):
        raise ValueError("matrix is not in the full family of this Borel")
    offset = vec_add(
        matrix.apply(borel.root_sum().coords()), standard_offset(m, n)
    )
    return AffineMap(matrix, offset)


# -- the map-family registry ---------------------------------------------------------
#
# Dispatch goes through the module-level constructor names, not through function
# objects stored in a table, so rebinding a constructor on this module (to trace
# it, say) also covers the calls made by family name.

MAP_FAMILIES = ("full", "releven", "veryeven", "cb-forced")


def in_family_domain(borel: BorelDescriptor, family: str) -> bool:
    """Whether the family's map is defined on the Borel; the full and
    forced-kernel maps are defined on every decreasing Borel."""
    if family == "releven":
        return borel.is_relatively_even()
    if family == "veryeven":
        return borel.is_very_even()
    return family in MAP_FAMILIES


def family_map(borel: BorelDescriptor, family: str) -> AffineMap:
    """The family's canonical map for the Borel; raises ValueError when the
    Borel is outside the family's domain."""
    if family == "full":
        return eigenvalue_map_full(borel)
    if family == "releven":
        return eigenvalue_map_rel_even(borel)
    if family == "veryeven":
        return eigenvalue_map_very_even(borel)
    if family == "cb-forced":
        return forced_kernel_map(borel)
    raise ValueError(f"unknown map family {family!r}; use one of {MAP_FAMILIES}")


# -- equal-family pair maps (theta = 1) -----------------------------------------------


def diag_map_standard(m: int, n: int) -> AffineMap:
    """Second-factor map for the distinguished pair of Borels: add the
    standard Weyl vector."""
    from .borel import standard_sequence

    rho = weyl_vector(standard_sequence(m, n))
    return AffineMap(RationalMatrix.identity(m + n), rho.coords())


def diag_map_first(rho: WeightVector) -> AffineMap:
    """First-factor map attached to a Borel with Weyl vector rho: negate and
    subtract the Weyl vector."""
    size = len(rho.coords())
    return AffineMap(
        RationalMatrix.identity(size).scale(-1),
        tuple(-v for v in rho.coords()),
    )


def diag_map_second(rho: WeightVector) -> AffineMap:
    """Second-factor map attached to a Borel with Weyl vector rho: add the
    Weyl vector."""
    size = len(rho.coords())
    return AffineMap(RationalMatrix.identity(size), rho.coords())
