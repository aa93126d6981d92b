"""Supercommutative polynomial algebras on a graded vector space, the
identification of degree-d symmetric elements with signed-symmetrized
tensors, the two induced pairings between the symmetric algebra and the
polynomial functions, and the invariant operator built from dual bases."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exact_linalg import RationalMatrix

# A term key is (even_exponents, odd_indices): exponents for the p even
# generators plus a strictly increasing tuple of odd generator indices
# (1-based within the odd block).
TermKey = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class SuperSpace:
    """A graded space with p even and q odd basis directions. Generator
    indices run 1..p for the even block and p+1..p+q for the odd block."""

    even: int
    odd: int

    def __post_init__(self):
        if self.even < 0 or self.odd < 0:
            raise ValueError("dimensions must be nonnegative")

    @property
    def total(self) -> int:
        return self.even + self.odd

    def parity(self, index: int) -> int:
        if not 1 <= index <= self.total:
            raise ValueError(f"generator index {index} out of range")
        return 0 if index <= self.even else 1


class SuperPolynomial:
    """Element of the free supercommutative algebra on a SuperSpace: even
    generators commute, odd generators anticommute and square to zero."""

    __slots__ = ("space", "terms")

    def __init__(self, space: SuperSpace, terms=None):
        self.space = space
        clean: dict[TermKey, Fraction] = {}
        if terms:
            for (even, odd), coef in terms.items():
                even = tuple(int(e) for e in even)
                odd = tuple(int(o) for o in odd)
                if len(even) != space.even or any(e < 0 for e in even):
                    raise ValueError(f"bad even exponents {even}")
                if list(odd) != sorted(set(odd)) or any(
                    not 1 <= o <= space.odd for o in odd
                ):
                    raise ValueError(f"bad odd index tuple {odd}")
                coef = Fraction(coef)
                if coef:
                    key = (even, odd)
                    clean[key] = clean.get(key, Fraction(0)) + coef
                    if not clean[key]:
                        del clean[key]
        self.terms = clean

    @classmethod
    def zero(cls, space: SuperSpace) -> "SuperPolynomial":
        return cls(space, {})

    @classmethod
    def one(cls, space: SuperSpace) -> "SuperPolynomial":
        return cls(space, {((0,) * space.even, ()): Fraction(1)})

    @classmethod
    def generator(cls, space: SuperSpace, index: int) -> "SuperPolynomial":
        if space.parity(index) == 0:
            even = tuple(1 if k == index else 0 for k in range(1, space.even + 1))
            return cls(space, {(even, ()): Fraction(1)})
        return cls(space, {((0,) * space.even, (index - space.even,)): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, SuperPolynomial)
            and self.space == other.space
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.space, frozenset(self.terms.items())))

    def __repr__(self):
        bits = [f"{c}*{k}" for k, c in sorted(self.terms.items())]
        return f"SuperPolynomial({' + '.join(bits) or '0'})"

    def __add__(self, other: "SuperPolynomial") -> "SuperPolynomial":
        if self.space != other.space:
            raise ValueError("mixing different spaces")
        terms = dict(self.terms)
        for key, coef in other.terms.items():
            terms[key] = terms.get(key, Fraction(0)) + coef
        return SuperPolynomial(self.space, terms)

    def __sub__(self, other: "SuperPolynomial") -> "SuperPolynomial":
        return self + other.scale(-1)

    def scale(self, value) -> "SuperPolynomial":
        value = Fraction(value)
        return SuperPolynomial(
            self.space, {k: value * c for k, c in self.terms.items()}
        )

    def __mul__(self, other: "SuperPolynomial") -> "SuperPolynomial":
        if self.space != other.space:
            raise ValueError("mixing different spaces")
        terms: dict[TermKey, Fraction] = {}
        for (e1, o1), c1 in self.terms.items():
            for (e2, o2), c2 in other.terms.items():
                if set(o1) & set(o2):
                    continue
                sign = -1 if _odd_merge_inversions(o1, o2) % 2 else 1
                even = tuple(a + b for a, b in zip(e1, e2))
                odd = tuple(sorted(o1 + o2))
                key = (even, odd)
                terms[key] = terms.get(key, Fraction(0)) + sign * c1 * c2
        return SuperPolynomial(self.space, terms)

    def power(self, k: int) -> "SuperPolynomial":
        result = SuperPolynomial.one(self.space)
        for _ in range(k):
            result = result * self
        return result

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) + len(o) for e, o in self.terms)

    def is_homogeneous(self, d: int) -> bool:
        return all(sum(e) + len(o) == d for e, o in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get(((0,) * self.space.even, ()), Fraction(0))

    def derivation(self, index: int) -> "SuperPolynomial":
        """Apply the superderivation dual to generator `index` (1-based over
        the whole space): even indices differentiate normally; odd indices
        remove the matching factor with the sign of moving past the odd
        factors to its left."""
        parity = self.space.parity(index)
        terms: dict[TermKey, Fraction] = {}
        for (even, odd), coef in self.terms.items():
            if parity == 0:
                e = even[index - 1]
                if e == 0:
                    continue
                new_even = (
                    even[: index - 1] + (e - 1,) + even[index:]
                )
                key = (new_even, odd)
                terms[key] = terms.get(key, Fraction(0)) + coef * e
            else:
                c = index - self.space.even
                if c not in odd:
                    continue
                t = odd.index(c)
                sign = -1 if t % 2 else 1
                key = (even, odd[:t] + odd[t + 1 :])
                terms[key] = terms.get(key, Fraction(0)) + sign * coef
        return SuperPolynomial(self.space, terms)


def _odd_merge_inversions(left: tuple[int, ...], right: tuple[int, ...]) -> int:
    return sum(1 for a in left for b in right if a > b)


def _term_word(space: SuperSpace, key: TermKey) -> tuple[int, ...]:
    """Canonical ascending generator word of a monomial."""
    even, odd = key
    word = []
    for idx, e in enumerate(even, start=1):
        word.extend([idx] * e)
    word.extend(space.even + c for c in odd)
    return tuple(word)


def _koszul_sign(space: SuperSpace, word: tuple[int, ...], perm) -> int:
    """Sign of rearranging the word so position t holds word[perm[t]]: one
    factor -1 per inversion of two odd letters."""
    count = 0
    for s in range(len(perm)):
        for t in range(s + 1, len(perm)):
            if perm[s] > perm[t]:
                if space.parity(word[perm[s]]) and space.parity(word[perm[t]]):
                    count += 1
    return -1 if count % 2 else 1


def symmetrize_to_tensor(poly: SuperPolynomial, d: int) -> dict:
    """Averaged signed symmetrization of a degree-d element: a dict from
    length-d generator words to coefficients."""
    if not poly.is_homogeneous(d):
        raise ValueError(f"element is not homogeneous of degree {d}")
    space = poly.space
    tensor: dict[tuple[int, ...], Fraction] = {}
    scale = Fraction(1, math.factorial(d))
    for key, coef in poly.terms.items():
        word = _term_word(space, key)
        for perm in itertools.permutations(range(d)):
            sign = _koszul_sign(space, word, perm)
            arranged = tuple(word[perm[t]] for t in range(d))
            tensor[arranged] = (
                tensor.get(arranged, Fraction(0)) + sign * coef * scale
            )
    return {w: c for w, c in tensor.items() if c}


def tensor_pairing_reversed(t1: dict, t2: dict, d: int) -> Fraction:
    """Pairing of a degree-d tensor with a dual one, matching the factors in
    reversed order: word v pairs with word w iff reversed(v) == w."""
    total = Fraction(0)
    for word, coef in t1.items():
        other = t2.get(tuple(reversed(word)))
        if other:
            total += coef * other
    return total


def symmetrization_pairing(u: SuperPolynomial, p: SuperPolynomial, d: int) -> Fraction:
    """Pairing through the signed-symmetrization lifts of both sides and the
    reversed-order tensor pairing."""
    return tensor_pairing_reversed(
        symmetrize_to_tensor(u, d), symmetrize_to_tensor(p, d), d
    )


def apply_derivation(u: SuperPolynomial, p: SuperPolynomial) -> SuperPolynomial:
    """Apply the derivation indexed by u: each monomial g_{i_1}..g_{i_d} of u
    (ascending) acts as the composition of the generator derivations, the
    rightmost factor acting first."""
    if u.space != p.space:
        raise ValueError("mixing different spaces")
    result = SuperPolynomial.zero(p.space)
    for key, coef in u.terms.items():
        word = _term_word(u.space, key)
        partial = p
        for index in reversed(word):
            partial = partial.derivation(index)
        result = result + partial.scale(coef)
    return result


def derivation_pairing(u: SuperPolynomial, p: SuperPolynomial) -> Fraction:
    """Constant term of the derivation of p along u; for degree-d homogeneous
    arguments this is d! times the symmetrization pairing."""
    return apply_derivation(u, p).constant_term()


def dual_basis_matrix(
    subspace: list[SuperPolynomial], dual: list[SuperPolynomial], d: int
) -> RationalMatrix:
    """Gram matrix of the symmetrization pairing between a claimed dual basis
    (in the symmetric side) and a subspace basis (in the function side)."""
    return RationalMatrix(
        [[symmetrization_pairing(w, pstar, d) for pstar in subspace] for w in dual]
    )


def invariant_operator_matrix(
    subspace: list[SuperPolynomial], dual: list[SuperPolynomial], d: int
) -> RationalMatrix:
    """Matrix, on the given basis of the function-side subspace, of
    q -> sum_i subspace[i] * (derivation along dual[i] applied to q)."""
    gram = dual_basis_matrix(subspace, dual, d)
    if gram != RationalMatrix.identity(len(subspace)):
        raise ValueError("claimed dual basis is not dual under the pairing")
    columns = []
    for q in subspace:
        image = SuperPolynomial.zero(q.space)
        for w_star, w in zip(subspace, dual):
            image = image + w_star * apply_derivation(w, q)
        columns.append(_coordinates(image, subspace))
    return RationalMatrix(columns).transpose()


def _coordinates(poly: SuperPolynomial, basis: list[SuperPolynomial]):
    """Coordinates of poly in a monomial-triangular basis via term matching."""
    remaining = poly
    coords = []
    for b in basis:
        key = next(iter(b.terms))
        scale = remaining.terms.get(key, Fraction(0)) / b.terms[key]
        coords.append(scale)
        remaining = remaining - b.scale(scale)
    if not remaining.is_zero():
        raise ValueError("element lies outside the basis span")
    return coords
