"""Exact algebra for vector-valued polynomials over the rationals.

A polynomial map p: R^n -> R^m of total degree at most K is stored as a
flat vector of Fraction coefficients over the graded-lexicographic
monomial basis of P_K.  Monomials are ordered by total degree first and,
within one degree, by descending exponent tuple, so for n = 2, K = 2:

    1, x1, x2, x1^2, x1*x2, x2^2

The coefficient of monomial j for component c lives at index
j * dimV + c.  A PolyVec is only that coefficient record; linear
algebra on fields happens on coefficient vectors (kernel.py, normtest.py).
The monomial tables are memoised: compositions(d, n) is one tuple per
degree and monomial_basis(n, K) one MonomialBasis per (n, K), index,
numpy exponent_table and format_poly's labels included, shared by every
caller.  Both are pure functions of two small ints with immutable
results; nothing else is kept between calls.  The public PolyVec constructor coerces ints, strings and
floats to Fractions; the private PolyVec._of_fractions adopts
coefficients that are Fractions by construction (kernel bases,
from_floats) and checks only their number.
Besides the basis, the module holds exact differentiation and evaluation
(exact at rational points, float otherwise), the rational parsing and
printing shared by the reports, float_columns, and the two scalar rules
of the package: parse_int, what operator.index takes but a bool, as a
plain int, and parse_real, a finite real number, as a float.  The three
scalar parsers raise ValueError for whatever they refuse.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import repeat
from math import comb, isfinite, nan
from numbers import Real
from typing import Sequence

# Denominators above this print as decimals instead of p/q.  Exact small
# rationals stay exact in text; float-derived coefficients (huge binary
# denominators) print as shortest round-tripping decimals.
_PRETTY_DENOMINATOR_LIMIT = 10**12


def parse_rational(value: int | str | Fraction | float) -> Fraction:
    """Coerce a config-level scalar to an exact Fraction.

    Strings may be integers ("3"), ratios ("-3/2"), or decimals ("0.1",
    "1e-3"), and are read exactly: "0.1" is 1/10.  Floats keep their
    exact binary value.  A bool, any other type and an unparseable
    string, a zero denominator included, raise ValueError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError("boolean is not a rational scalar")
    if isinstance(value, (int, float)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise ValueError(f"cannot interpret {value!r} as a rational scalar")


def parse_int(value, what: str, minimum: int | None = None) -> int:
    """value as a plain int: anything operator.index accepts except a
    bool.  Anything else, and a value below minimum, raises ValueError
    naming what; nothing is truncated or parsed."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None:
        raise ValueError(f"{what} must be an int, got {value!r}")
    if minimum is not None and number < minimum:
        raise ValueError(f"need {what} >= {minimum}, got {number}")
    return number


def parse_real(value, what: str, positive: bool = False) -> float:
    """value as a finite float: an int but a bool, a float, any other
    numbers.Real (a Fraction, a numpy real) or a string parse_rational
    reads.  Anything else, NaN, an infinity, a value beyond the float
    range and, with positive, a value <= 0 raise ValueError naming what;
    a value beyond the float range is not echoed."""
    number = value
    if type(value) is not float:
        number = nan  # refused below
        if isinstance(value, str) or (isinstance(value, Real) and not isinstance(value, bool)):
            try:
                number = float(parse_rational(value) if isinstance(value, str) else value)
            except OverflowError:
                raise ValueError(f"{what} must be a finite real number, got a value beyond the float range") from None
            except ValueError:  # an unparseable string
                pass
    if not isfinite(number):
        raise ValueError(f"{what} must be a finite real number, got {value!r}")
    if positive and not number > 0.0:
        raise ValueError(f"need {what} > 0, got {number!r}")
    return number


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
        object.__setattr__(self, "entries", tuple(parse_int(e, "a multi-index entry", 0) for e in self.entries))

    @property
    def order(self) -> int:
        return sum(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def dominates(self, other: "MultiIndex") -> bool:
        """True when self >= other in every coordinate."""
        return all(a >= b for a, b in zip(self.entries, other.entries))


@cache
def compositions(total: int, parts: int) -> tuple[tuple[int, ...], ...]:
    """The exponent tuples of length parts summing to total, in
    descending lex order: the degree-total monomials of P_K in
    graded-lex order.  Memoised: one table per (total, parts)."""
    if parts == 1:
        return ((total,),)
    return tuple(
        (first,) + rest for first in range(total, -1, -1) for rest in compositions(total - first, parts - 1)
    )


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

    @cached_property
    def exponent_table(self):
        """The exponents as a read-only (size, n) numpy array, built once."""
        import numpy as np

        table = np.array([mi.entries for mi in self.exponents])
        table.flags.writeable = False
        return table

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """Each monomial as format_poly prints it after its coefficient,
        e.g. "*x1^2*x2" (empty for 1), built once."""
        return tuple(
            "".join(f"*x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(mi.entries) if e)
            for mi in self.exponents
        )

    def index_of(self, mi: MultiIndex) -> int:
        try:
            return self._index[mi]
        except KeyError:
            raise ValueError(f"{mi.entries} has degree > {self.K} or wrong length") from None


def monomial_basis(n: int, K: int) -> MonomialBasis:
    """All multi-indices of order <= K, strictly increasing in graded-lex
    order.  Memoised: one basis, and so one index, per (n, K), checked
    before the lookup, so the result never depends on earlier calls."""
    return _monomial_basis(parse_int(n, "n", 1), parse_int(K, "K", 0))


@cache
def _monomial_basis(n: int, K: int) -> MonomialBasis:
    exps = tuple(MultiIndex(t) for d in range(K + 1) for t in compositions(d, n))
    assert len(exps) == comb(n + K, K)
    return MonomialBasis(n=n, K=K, exponents=exps)


@dataclass(frozen=True, eq=False, slots=True)
class PolyVec:
    """Vector-valued polynomial: an immutable record of exact rational
    coefficients.

    coeffs[j * dimV + c] is the coefficient of basis.exponents[j] in
    component c.  There is no arithmetic and no value equality: callers
    work on the coefficient tuples (or float arrays of them) directly.
    Slotted: a kernel basis holds many, and none carries a __dict__.
    """

    basis: MonomialBasis
    dimV: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dimV", parse_int(self.dimV, "dimV", 1))
        _check_length(self.basis, self.dimV, self.coeffs)
        if not all(map(isinstance, self.coeffs, repeat(Fraction))):
            object.__setattr__(self, "coeffs", tuple(parse_rational(c) for c in self.coeffs))

    @classmethod
    def _of_fractions(cls, basis: MonomialBasis, dimV: int, coeffs: tuple[Fraction, ...]) -> "PolyVec":
        """A PolyVec of coefficients that are Fractions by construction.
        Only the length is checked: no entry is scanned or coerced."""
        _check_length(basis, dimV, coeffs)
        p = object.__new__(cls)
        object.__setattr__(p, "basis", basis)  # past the frozen __setattr__
        object.__setattr__(p, "dimV", dimV)
        object.__setattr__(p, "coeffs", coeffs)
        return p

    @classmethod
    def from_floats(cls, basis: MonomialBasis, dimV: int, values: Sequence[float]) -> "PolyVec":
        """Adopt float coefficients exactly (binary value, no rounding).
        The zeros, 0.0 and -0.0 alike, become one shared Fraction(0)."""
        zero = Fraction(0)
        return cls._of_fractions(basis, dimV, tuple(Fraction(x) if (x := float(v)) else zero for v in values))


def float_columns(polys: Sequence[PolyVec]):
    """Float coefficient matrix, one column per polynomial.  Int true
    division is what float() does for a Fraction, bit for bit."""
    import numpy as np

    return np.array([[c.numerator / c.denominator for c in p.coeffs] for p in polys], dtype=float).T


def _check_length(basis: MonomialBasis, dimV: int, coeffs: tuple) -> None:
    expected = dimV * basis.size
    if len(coeffs) != expected:
        raise ValueError(f"expected {expected} coefficients, got {len(coeffs)}")


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
    labels, dim_v = p.basis.labels, p.dimV
    parts = [
        f"({format_rational(q)}){labels[i // dim_v]} e_{i % dim_v + 1}" for i, q in enumerate(p.coeffs) if q
    ]
    return " + ".join(parts) or "0"
