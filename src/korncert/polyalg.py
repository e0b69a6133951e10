"""Exact algebra for vector-valued polynomials over the rationals.

A polynomial map p: R^n -> R^m of total degree at most K is stored as a
flat vector of Fraction coefficients over the graded-lexicographic
monomial basis of P_K.  Monomials are ordered by total degree first and,
within one degree, by descending exponent tuple, so for n = 2, K = 2:

    1, x1, x2, x1^2, x1*x2, x2^2

The coefficient of monomial j for component c lives at index
j * dimV + c.  A PolyVec is only that coefficient record; linear
algebra on fields happens on coefficient vectors (kernel.py, normtest.py).
Besides the basis, the module holds exact differentiation and evaluation
(exact at rational points, float otherwise) and the rational parsing and
printing shared by the reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import Iterator, Sequence

Rational = Fraction

# Denominators above this print as decimals instead of p/q.  Exact small
# rationals stay exact in text; float-derived coefficients (huge binary
# denominators) print as shortest round-tripping decimals.
_PRETTY_DENOMINATOR_LIMIT = 10**12


def parse_rational(value: int | str | Fraction | float) -> Fraction:
    """Coerce a config-level scalar to an exact Fraction.

    Strings may be integers ("3"), ratios ("-3/2"), or decimals ("0.1",
    "1e-3"), and are read exactly: "0.1" is 1/10.  Floats keep their
    exact binary value.  An unparseable string, a zero denominator
    included, raises ValueError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("boolean is not a rational scalar")
    if isinstance(value, (int, float)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as a rational scalar")


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    if q.denominator <= _PRETTY_DENOMINATOR_LIMIT:
        return f"{q.numerator}/{q.denominator}"
    return repr(float(q))


@dataclass(frozen=True)
class MultiIndex:
    """Exponent tuple alpha of a monomial x^alpha (all entries >= 0)."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.entries) == 0:
            raise ValueError("multi-index needs at least one entry")
        if any(not isinstance(e, int) or e < 0 for e in self.entries):
            raise ValueError(f"multi-index entries must be nonnegative ints: {self.entries}")

    @property
    def order(self) -> int:
        return sum(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def dominates(self, other: "MultiIndex") -> bool:
        """True when self >= other in every coordinate."""
        return all(a >= b for a, b in zip(self.entries, other.entries))


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    # Exponent tuples of fixed length summing to `total`, descending lex.
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@dataclass(frozen=True)
class MonomialBasis:
    """Graded-lex ordered monomial basis of P_K in n variables."""

    n: int
    K: int
    exponents: tuple[MultiIndex, ...]

    @cached_property
    def _index(self) -> dict[MultiIndex, int]:
        return {mi: j for j, mi in enumerate(self.exponents)}

    @property
    def size(self) -> int:
        return len(self.exponents)

    def index_of(self, mi: MultiIndex) -> int:
        try:
            return self._index[mi]
        except KeyError:
            raise ValueError(f"{mi.entries} has degree > {self.K} or wrong length") from None


def monomial_basis(n: int, K: int) -> MonomialBasis:
    """All multi-indices of order <= K, strictly increasing in graded-lex order."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if K < 0:
        raise ValueError(f"need K >= 0, got {K}")
    exps = tuple(MultiIndex(t) for d in range(K + 1) for t in _compositions(d, n))
    assert len(exps) == comb(n + K, K)
    return MonomialBasis(n=n, K=K, exponents=exps)


@dataclass(frozen=True, eq=False)
class PolyVec:
    """Vector-valued polynomial: an immutable record of exact rational
    coefficients.

    coeffs[j * dimV + c] is the coefficient of basis.exponents[j] in
    component c.  There is no arithmetic and no value equality: callers
    work on the coefficient tuples (or float arrays of them) directly.
    """

    basis: MonomialBasis
    dimV: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.dimV < 1:
            raise ValueError(f"need dimV >= 1, got {self.dimV}")
        expected = self.dimV * self.basis.size
        if len(self.coeffs) != expected:
            raise ValueError(f"expected {expected} coefficients, got {len(self.coeffs)}")
        if not all(isinstance(c, Fraction) for c in self.coeffs):
            object.__setattr__(self, "coeffs", tuple(parse_rational(c) for c in self.coeffs))

    @classmethod
    def from_floats(cls, basis: MonomialBasis, dimV: int, values: Sequence[float]) -> "PolyVec":
        """Adopt float coefficients exactly (binary value, no rounding)."""
        return cls(basis, dimV, tuple(Fraction(float(v)) for v in values))


def eval_poly(p: PolyVec, x: Sequence) -> tuple:
    """Evaluate p at x.  Exact (Fractions) when every coordinate is an
    int or Fraction; plain floats otherwise."""
    if len(x) != p.basis.n:
        raise ValueError(f"point has {len(x)} coordinates, expected {p.basis.n}")
    exact = all(isinstance(v, (int, Fraction)) for v in x)
    if exact:
        coords = [Fraction(v) for v in x]
        out = [Fraction(0)] * p.dimV
        one: Fraction | float = Fraction(1)
    else:
        coords = [float(v) for v in x]
        out = [0.0] * p.dimV
        one = 1.0
    for j, mi in enumerate(p.basis.exponents):
        m = one
        for v, e in zip(coords, mi.entries):
            if e:
                m = m * v**e
        if m == 0:
            continue
        base = j * p.dimV
        for c in range(p.dimV):
            q = p.coeffs[base + c]
            if q != 0:
                out[c] = out[c] + q * m
    return tuple(out) if exact else tuple(float(v) for v in out)


def differentiate(p: PolyVec, alpha: MultiIndex | tuple[int, ...]) -> PolyVec:
    """Exact partial derivative d^alpha p, in the degree-(K - |alpha|) basis.

    An order exceeding the degree bound yields the zero polynomial in
    the degree-0 basis rather than an error.
    """
    mi = alpha if isinstance(alpha, MultiIndex) else MultiIndex(tuple(alpha))
    if len(mi) != p.basis.n:
        raise ValueError("derivative multi-index has wrong length")
    target = monomial_basis(p.basis.n, max(p.basis.K - mi.order, 0))
    coeffs = [Fraction(0)] * (p.dimV * target.size)
    for j, beta in enumerate(p.basis.exponents):
        if not beta.dominates(mi):
            continue
        factor = 1
        for b, a in zip(beta.entries, mi.entries):
            for step in range(a):
                factor *= b - step
        tj = target.index_of(MultiIndex(tuple(b - a for b, a in zip(beta.entries, mi.entries))))
        for c in range(p.dimV):
            q = p.coeffs[j * p.dimV + c]
            if q != 0:
                coeffs[tj * p.dimV + c] += factor * q
    return PolyVec(target, p.dimV, tuple(coeffs))


def format_poly(p: PolyVec) -> str:
    """Human-readable form, e.g. "(-3/2)*x1^2*x2 e_1", graded-lex term order."""
    parts = []
    for j, mi in enumerate(p.basis.exponents):
        for c in range(p.dimV):
            q = p.coeffs[j * p.dimV + c]
            if q == 0:
                continue
            factors = "".join(
                f"*x{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(mi.entries)
                if e > 0
            )
            parts.append(f"({format_rational(q)}){factors} e_{c + 1}")
    return " + ".join(parts) if parts else "0"
