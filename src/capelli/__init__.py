"""Exact rational computation of interpolation polynomials on two blocks of
variables, Borel-dependent highest weights, and the affine eigenvalue maps
that relate them."""

__version__ = "0.1.0"

from .exact_linalg import Rational, format_rational, parse_rational
from .isjp import eigenvalue, interpolation_polynomial
from .partitions import (
    double_partition,
    enumerate_hooks,
    frobenius_coords,
    is_hook,
    transpose,
)
from .sympoly import SparsePolynomial

__all__ = [
    "Rational",
    "SparsePolynomial",
    "double_partition",
    "eigenvalue",
    "enumerate_hooks",
    "format_rational",
    "frobenius_coords",
    "interpolation_polynomial",
    "is_hook",
    "parse_rational",
    "transpose",
]
