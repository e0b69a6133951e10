"""Exact algebra for vector-valued polynomials over the rationals.

A polynomial map p: R^n -> R^m of total degree at most K is stored as a
flat vector of Fraction coefficients over the graded-lexicographic
monomial basis of P_K.  Monomials are ordered by total degree first and,
within one degree, by descending exponent tuple, so for n = 2, K = 2:

    1, x1, x2, x1^2, x1*x2, x2^2

The coefficient of monomial j for component c lives at index
j * dimV + c.  Everything here is exact; floating point enters only when
a polynomial is evaluated at a float point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import Iterator, Mapping, Sequence

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

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        if len(self) != len(other):
            raise ValueError("multi-index length mismatch")
        return MultiIndex(tuple(a + b for a, b in zip(self.entries, other.entries)))

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
    """Vector-valued polynomial with exact rational coefficients.

    coeffs[j * dimV + c] is the coefficient of basis.exponents[j] in
    component c.  Instances are immutable; arithmetic returns new ones.
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

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls, basis: MonomialBasis, dimV: int) -> "PolyVec":
        return cls(basis, dimV, (Fraction(0),) * (dimV * basis.size))

    @classmethod
    def from_terms(
        cls,
        basis: MonomialBasis,
        dimV: int,
        terms: Mapping[tuple[tuple[int, ...] | MultiIndex, int], int | str | Fraction],
    ) -> "PolyVec":
        """Build from {(exponent tuple, component): coefficient}."""
        coeffs = [Fraction(0)] * (dimV * basis.size)
        for (mono, comp), value in terms.items():
            mi = mono if isinstance(mono, MultiIndex) else MultiIndex(tuple(mono))
            if not 0 <= comp < dimV:
                raise ValueError(f"component {comp} outside [0, {dimV})")
            coeffs[basis.index_of(mi) * dimV + comp] += parse_rational(value)
        return cls(basis, dimV, tuple(coeffs))

    @classmethod
    def from_floats(cls, basis: MonomialBasis, dimV: int, values: Sequence[float]) -> "PolyVec":
        """Adopt float coefficients exactly (binary value, no rounding)."""
        return cls(basis, dimV, tuple(Fraction(float(v)) for v in values))

    # -- queries ------------------------------------------------------

    def coefficient(self, mono: MultiIndex | tuple[int, ...], comp: int) -> Fraction:
        mi = mono if isinstance(mono, MultiIndex) else MultiIndex(tuple(mono))
        return self.coeffs[self.basis.index_of(mi) * self.dimV + comp]

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _support(self) -> tuple[tuple[tuple[int, ...], int, Fraction], ...]:
        # Canonical nonzero terms; embedding-invariant, used by __eq__/__hash__.
        out = []
        for j, mi in enumerate(self.basis.exponents):
            for c in range(self.dimV):
                q = self.coeffs[j * self.dimV + c]
                if q != 0:
                    out.append((mi.entries, c, q))
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyVec):
            return NotImplemented
        if self.basis.n != other.basis.n or self.dimV != other.dimV:
            return False
        return self._support() == other._support()

    def __hash__(self) -> int:
        return hash((self.basis.n, self.dimV, self._support()))

    # -- arithmetic ---------------------------------------------------

    def _aligned(self, other: "PolyVec") -> tuple["PolyVec", "PolyVec"]:
        if self.basis.n != other.basis.n or self.dimV != other.dimV:
            raise ValueError("polynomials live in different spaces")
        K = max(self.basis.K, other.basis.K)
        return self.embed(K), other.embed(K)

    def __add__(self, other: "PolyVec") -> "PolyVec":
        a, b = self._aligned(other)
        return PolyVec(a.basis, a.dimV, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    def __sub__(self, other: "PolyVec") -> "PolyVec":
        a, b = self._aligned(other)
        return PolyVec(a.basis, a.dimV, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __neg__(self) -> "PolyVec":
        return PolyVec(self.basis, self.dimV, tuple(-x for x in self.coeffs))

    def __mul__(self, scalar: int | Fraction) -> "PolyVec":
        q = parse_rational(scalar)
        return PolyVec(self.basis, self.dimV, tuple(q * x for x in self.coeffs))

    __rmul__ = __mul__

    def embed(self, K: int) -> "PolyVec":
        """Reinterpret in the degree-K basis (K >= current degree bound)."""
        if K == self.basis.K:
            return self
        if K < self.basis.K:
            raise ValueError(f"cannot embed degree-{self.basis.K} poly into degree-{K} basis")
        target = monomial_basis(self.basis.n, K)
        coeffs = [Fraction(0)] * (self.dimV * target.size)
        for j, mi in enumerate(self.basis.exponents):
            tj = target.index_of(mi)
            for c in range(self.dimV):
                coeffs[tj * self.dimV + c] = self.coeffs[j * self.dimV + c]
        return PolyVec(target, self.dimV, tuple(coeffs))


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
