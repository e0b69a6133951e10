"""Constant-coefficient homogeneous differential operators.

An operator A = sum_{|alpha| = k} A_alpha d^alpha maps polynomial fields
R^n -> R^dimV to fields R^n -> R^dimW through exact rational matrices
A_alpha.  The module provides the standard first-order vector-field
operators (gradient, divergence, symmetric / deviatoric gradients), full
higher gradients, user-supplied term lists or fourth-order coefficient
tensors, exact application to polynomials, exact symbol matrices over
the complex rationals, and a randomized ellipticity probe.

Ellipticity here means the symbol A[xi] is injective for all real
xi != 0; C-ellipticity extends that to complex xi.  The probe samples
random rational frequencies, decides each symbol's rank exactly, and on
a rank drop produces an exact witness pair (xi, v) with A[xi] v = 0.
Full rank is first tried modulo a prime (linalg.residue), which proves
it exactly; only a symbol whose residue loses rank goes through exact
elimination, so a rank drop is always decided over the complex
rationals.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linalg
from .polyalg import (
    MultiIndex,
    PolyVec,
    differentiate,
    format_rational,
    monomial_basis,
    parse_rational,
)

Matrix = tuple[tuple[Fraction, ...], ...]

_PROBE_COEFF_BOUND = 10**6


@dataclass(frozen=True, eq=False)
class ComplexRational:
    """Exact complex number with rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @classmethod
    def of(cls, value) -> "ComplexRational":
        if isinstance(value, ComplexRational):
            return value
        if isinstance(value, complex):
            return cls(Fraction(value.real), Fraction(value.imag))
        return cls(parse_rational(value))

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ComplexRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, complex):
            return self == ComplexRational.of(other)
        return NotImplemented

    def __add__(self, other) -> "ComplexRational":
        o = ComplexRational.of(other)
        return ComplexRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self) -> "ComplexRational":
        return ComplexRational(-self.re, -self.im)

    def __sub__(self, other) -> "ComplexRational":
        return self + (-ComplexRational.of(other))

    def __mul__(self, other) -> "ComplexRational":
        o = ComplexRational.of(other)
        return ComplexRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ComplexRational":
        o = ComplexRational.of(other)
        d = o.norm2()
        if d == 0:
            raise ZeroDivisionError("division by complex zero")
        return ComplexRational(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def norm2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __str__(self) -> str:
        if self.im == 0:
            return format_rational(self.re)
        if self.re == 0:
            return f"{format_rational(self.im)}i"
        sign = "+" if self.im > 0 else "-"
        return f"{format_rational(self.re)}{sign}{format_rational(abs(self.im))}i"


CR_ZERO = ComplexRational()
CR_ONE = ComplexRational(Fraction(1))


@dataclass(frozen=True)
class DiffOperator:
    """Immutable operator description: terms maps each multi-index of the
    shared order to a dimW x dimV rational matrix."""

    n: int
    order: int
    dimV: int
    dimW: int
    terms: tuple[tuple[MultiIndex, Matrix], ...]
    name: str = "custom"

    def describe(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "order": self.order,
            "dimV": self.dimV,
            "dimW": self.dimW,
            "term_count": len(self.terms),
        }

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "dimV": self.dimV,
            "dimW": self.dimW,
            "terms": [
                {
                    "alpha": list(alpha.entries),
                    "matrix": [[format_rational(v) for v in row] for row in m],
                }
                for alpha, m in self.terms
            ],
        }


def custom_operator(
    terms: Sequence[tuple[MultiIndex | tuple[int, ...], Sequence[Sequence]]],
    name: str = "custom",
) -> DiffOperator:
    """Validate and freeze a term list into a DiffOperator.

    Requires a nonempty list, one common order and shape across terms,
    distinct multi-indices, and at least one nonzero matrix entry.
    """
    if not terms:
        raise ValueError("operator needs at least one term")
    seen: dict[MultiIndex, Matrix] = {}
    n = order = dim_v = dim_w = None
    any_nonzero = False
    for alpha_raw, matrix_raw in terms:
        alpha = alpha_raw if isinstance(alpha_raw, MultiIndex) else MultiIndex(tuple(alpha_raw))
        if n is None:
            n, order = len(alpha), alpha.order
        if len(alpha) != n:
            raise ValueError("terms disagree on the number of variables")
        if alpha.order != order:
            raise ValueError(f"mixed orders: |{alpha.entries}| != {order}")
        if alpha in seen:
            raise ValueError(f"duplicate multi-index {alpha.entries}")
        matrix = tuple(tuple(parse_rational(v) for v in row) for row in matrix_raw)
        if dim_w is None:
            dim_w = len(matrix)
            dim_v = len(matrix[0]) if matrix else 0
        if len(matrix) != dim_w or any(len(row) != dim_v for row in matrix):
            raise ValueError("terms disagree on matrix shape")
        if any(v != 0 for row in matrix for v in row):
            any_nonzero = True
        seen[alpha] = matrix
    if dim_v == 0 or dim_w == 0:
        raise ValueError("operator matrices must be nonempty")
    if not any_nonzero:
        raise ValueError("all-zero operator")
    ordered = tuple(
        sorted(seen.items(), key=lambda kv: (kv[0].order, tuple(-e for e in kv[0].entries)))
    )
    return DiffOperator(n=n, order=order, dimV=dim_v, dimW=dim_w, terms=ordered, name=name)


def operator_from_tensor4(tensor) -> DiffOperator:
    """First-order operator (Au)_{ij} = sum_{k,l} A_{ijkl} d_l u_k from a
    nested n x n x n x n coefficient array, output rows flattened row-major."""
    n = len(tensor)
    if n < 1 or any(
        len(tensor[i]) != n
        or any(len(tensor[i][j]) != n or len(tensor[i][j][k]) != n for j in range(n) for k in range(n))
        for i in range(n)
    ):
        raise ValueError("tensor4 must be n x n x n x n")
    return _first_order(n, lambda i, j, k, l: tensor[i][j][k][l], "tensor4")


def _unit_alpha(n: int, l: int) -> MultiIndex:
    return MultiIndex(tuple(1 if m == l else 0 for m in range(n)))


def _first_order(n: int, entry, name: str) -> DiffOperator:
    """The operator (Au)_{ij} = sum_{k,l} entry(i, j, k, l) d_l u_k on R^n,
    output rows (i, j) flattened row-major."""
    terms = [
        (_unit_alpha(n, l), [[entry(i, j, k, l) for k in range(n)] for i in range(n) for j in range(n)])
        for l in range(n)
    ]
    return custom_operator(terms, name=name)


def builtin_operator(name: str, n: int, order: int | None = None) -> DiffOperator:
    """Construct one of the named operators on R^n.

    Names: grad, div, sym_grad, dev_grad, dev_sym_grad, grad_k (the last
    takes the gradient order as `order`).  The three symmetric or
    deviatoric variants need n >= 2 (in one variable they collapse).
    Matrix-valued outputs are flattened row-major, so dimW = n^2 for the
    first-order matrix operators and n^(k+1) for grad_k.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if name in {"sym_grad", "dev_grad", "dev_sym_grad"} and n < 2:
        raise ValueError(f"{name} needs n >= 2")
    if name != "grad_k" and order is not None:
        raise ValueError(f"{name} does not take an order argument")

    inv_n = Fraction(1, n)
    half = Fraction(1, 2)
    # entry(i, j, k, l) of each first-order matrix operator (_first_order).
    entries = {
        "grad": lambda i, j, k, l: Fraction(int(k == i and j == l)),
        "sym_grad": lambda i, j, k, l: half * (int(j == l and k == i) + int(i == l and k == j)),
        "dev_grad": lambda i, j, k, l: Fraction(int(k == i and j == l)) - inv_n * int(i == j and k == l),
        "dev_sym_grad": lambda i, j, k, l: half * (int(j == l and k == i) + int(i == l and k == j))
        - inv_n * int(i == j and k == l),
    }
    if name in entries:
        return _first_order(n, entries[name], name)
    if name == "div":
        terms = [(_unit_alpha(n, l), [[Fraction(int(k == l)) for k in range(n)]]) for l in range(n)]
        return custom_operator(terms, name=name)
    if name == "grad_k":
        if order is None or order < 1:
            raise ValueError("grad_k needs an order >= 1")
        # Output row (i, j_1..j_k), row-major, holds d_{j_1}..d_{j_k} u_i,
        # so it belongs to the term whose alpha counts the j's.
        rows = [
            (i, tuple(js.count(l) for l in range(n)))
            for i, *js in itertools.product(range(n), repeat=order + 1)
        ]
        alphas = [mi for mi in monomial_basis(n, order).exponents if mi.order == order]
        terms = []
        for alpha in alphas:
            matrix = [
                [Fraction(int(k == i and c == alpha.entries)) for k in range(n)] for i, c in rows
            ]
            terms.append((alpha, matrix))
        return custom_operator(terms, name=f"grad_{order}")
    raise ValueError(f"unknown operator name: {name}")


def operator_from_json(obj: dict) -> DiffOperator:
    """Parse the JSON operator form: either an explicit term list
    {"order", "dimV", "dimW", "terms": [{"alpha", "matrix"}]} or a
    fourth-order tensor {"tensor4": nested array}."""
    if "tensor4" in obj:
        return operator_from_tensor4(obj["tensor4"])
    try:
        terms = [(tuple(t["alpha"]), t["matrix"]) for t in obj["terms"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed operator spec: {exc}") from exc
    op = custom_operator(terms)
    for key in ("order", "dimV", "dimW"):
        if key in obj and obj[key] != getattr(op, key):
            raise ValueError(f"operator spec field {key}={obj[key]} does not match terms")
    return op


def apply_operator(A: DiffOperator, p: PolyVec) -> PolyVec:
    """Exact A p, a dimW-valued polynomial of degree <= deg(p) - order."""
    if p.dimV != A.dimV:
        raise ValueError(f"operator expects dimV={A.dimV}, polynomial has {p.dimV}")
    if p.basis.n != A.n:
        raise ValueError(f"operator lives on R^{A.n}, polynomial on R^{p.basis.n}")
    target = monomial_basis(A.n, max(p.basis.K - A.order, 0))
    coeffs = [Fraction(0)] * (A.dimW * target.size)
    for alpha, matrix in A.terms:
        dp = differentiate(p, alpha)
        for j in range(target.size):
            for w in range(A.dimW):
                acc = Fraction(0)
                for v in range(A.dimV):
                    m = matrix[w][v]
                    if m != 0:
                        acc += m * dp.coeffs[j * A.dimV + v]
                if acc != 0:
                    coeffs[j * A.dimW + w] += acc
    return PolyVec(target, A.dimW, tuple(coeffs))


@dataclass(frozen=True)
class SymbolMatrix:
    """Exact symbol A[xi] = sum_alpha xi^alpha A_alpha at a complex
    rational frequency."""

    xi: tuple[ComplexRational, ...]
    matrix: tuple[tuple[ComplexRational, ...], ...]
    order: int

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.matrix), len(self.matrix[0]))

    def apply(self, v: Sequence) -> tuple[ComplexRational, ...]:
        vec = [ComplexRational.of(x) for x in v]
        if len(vec) != self.shape[1]:
            raise ValueError("vector length mismatch")
        return tuple(
            sum((row[j] * vec[j] for j in range(len(vec))), CR_ZERO) for row in self.matrix
        )

    def rank(self) -> int:
        return linalg.rank([list(row) for row in self.matrix], self.shape[1])

    def kernel(self) -> list[tuple[ComplexRational, ...]]:
        vecs = linalg.nullspace(
            [list(row) for row in self.matrix], self.shape[1], zero=CR_ZERO, one=CR_ONE
        )
        return [tuple(v) for v in vecs]


def symbol_matrix(A: DiffOperator, xi: Sequence) -> SymbolMatrix:
    """Evaluate the symbol exactly; xi entries may be ints, Fractions,
    rational strings, floats, or complex numbers (floats keep their
    exact binary value)."""
    z = tuple(ComplexRational.of(v) for v in xi)
    if len(z) != A.n:
        raise ValueError(f"frequency has {len(z)} entries, expected {A.n}")
    rows = [[CR_ZERO for _ in range(A.dimV)] for _ in range(A.dimW)]
    for alpha, matrix in A.terms:
        power = CR_ONE
        for v, e in zip(z, alpha.entries):
            for _ in range(e):
                power = power * v
        if not power:
            continue
        for w in range(A.dimW):
            for v in range(A.dimV):
                if matrix[w][v] != 0:
                    rows[w][v] = rows[w][v] + power * matrix[w][v]
    return SymbolMatrix(xi=z, matrix=tuple(tuple(r) for r in rows), order=A.order)


@dataclass(frozen=True)
class Witness:
    """Exact certificate of symbol rank deficiency: A[xi] v = 0, v != 0."""

    xi: tuple[ComplexRational, ...]
    v: tuple[ComplexRational, ...]

    def to_json(self) -> dict:
        return {
            "xi": [str(z) for z in self.xi],
            "v": [str(z) for z in self.v],
        }


@dataclass(frozen=True)
class EllipticityReport:
    elliptic: bool
    elliptic_trials: int
    c_elliptic: bool
    c_elliptic_trials: int
    witness: Witness | None = None

    def to_json(self) -> dict:
        return {
            "elliptic": self.elliptic,
            "elliptic_trials": self.elliptic_trials,
            "c_elliptic": self.c_elliptic,
            "c_elliptic_trials": self.c_elliptic_trials,
            "witness": self.witness.to_json() if self.witness else None,
        }


def _witness_from(symbol: SymbolMatrix) -> Witness:
    kernel = symbol.kernel()
    assert kernel, "rank-deficient symbol must have a kernel vector"
    v = kernel[0]
    image = symbol.apply(v)
    assert all(not z for z in image), "witness must satisfy A[xi] v = 0 exactly"
    return Witness(xi=symbol.xi, v=v)


def _terms_mod_p(A: DiffOperator):
    """(alpha entries, nonzero (w, v, residue) entries) per term, or None
    when an entry has a denominator divisible by P."""
    reduced = []
    for alpha, matrix in A.terms:
        entries = [
            (w, v, linalg.residue(m))
            for w, row in enumerate(matrix)
            for v, m in enumerate(row)
            if m
        ]
        if any(r is None for _, _, r in entries):
            return None
        reduced.append((alpha.entries, entries))
    return reduced


def _full_rank_mod_p(A: DiffOperator, reduced, xi: Sequence[ComplexRational]) -> bool:
    """True when the residue of A[xi] has full column rank mod P, which
    proves that A[xi] has full column rank.  False proves nothing."""
    if reduced is None:
        return False
    z = [linalg.residue(c) for c in xi]
    if None in z:
        return False
    rows = [[0] * A.dimV for _ in range(A.dimW)]
    for exponents, entries in reduced:
        power = 1
        for c, e in zip(z, exponents):
            power = power * pow(c, e, linalg.P) % linalg.P
        for w, v, m in entries:
            rows[w][v] += power * m
    image = [[x % linalg.P for x in row] for row in rows]
    return linalg.rank_mod_p(image, A.dimV) == A.dimV


def ellipticity_probe(A: DiffOperator, trials: int = 8, seed: int = 0) -> EllipticityReport:
    """Randomized exact-rank test of the symbol.

    Real ellipticity evidence: `trials` random rational frequencies, each
    with numerator and denominator bounded by 10^6.  Complex evidence
    additionally checks the deterministic family xi = e_1 + i e_j,
    j = 2..n, before the random complex draws; that family catches the
    classical failures (for the deviatoric symmetric gradient on R^2 it
    produces the witness xi = (1, i), v = (1, -i)).  Each sampled rank is
    exact: full rank is taken from a full rank mod P or from exact
    elimination, a rank drop only from exact elimination, and it yields
    an exact witness.  Full rank at sampled frequencies is only evidence
    of ellipticity, not proof.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = random.Random(seed)

    def rand_xi(parts: int) -> list[ComplexRational]:
        # parts = 1 draws a real frequency, 2 a complex one (re, then im).
        bound = _PROBE_COEFF_BOUND
        while True:
            draws = [
                Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
                for _ in range(parts * A.n)
            ]
            xi = [ComplexRational(*draws[c * parts : (c + 1) * parts]) for c in range(A.n)]
            if any(xi):
                return xi

    i_unit = ComplexRational(Fraction(0), Fraction(1))
    # (real?, xi) in a fixed order: every frequency is drawn and checked,
    # so the random stream, and with it the witness, never depends on
    # which earlier checks failed.
    frequencies = [
        (False, [CR_ONE if m == 0 else i_unit if m == j else CR_ZERO for m in range(A.n)])
        for j in range(1, A.n)
    ]
    frequencies += [(False, rand_xi(2)) for _ in range(trials)]
    frequencies += [(True, rand_xi(1)) for _ in range(trials)]
    elliptic = c_elliptic = True
    witness: Witness | None = None
    reduced = _terms_mod_p(A)
    for real, xi in frequencies:
        # With fewer outputs than inputs every symbol is deficient by its
        # shape; otherwise a full rank mod P settles the frequency.
        symbol = None
        if A.dimW >= A.dimV:
            if _full_rank_mod_p(A, reduced, xi):
                continue
            symbol = symbol_matrix(A, xi)
            if symbol.rank() == A.dimV:
                continue
        # A real rank drop is also a complex one.
        c_elliptic = False
        elliptic = elliptic and not real
        if witness is None:
            witness = _witness_from(symbol or symbol_matrix(A, xi))
    return EllipticityReport(
        elliptic=elliptic,
        elliptic_trials=trials,
        c_elliptic=c_elliptic,
        c_elliptic_trials=trials,
        witness=witness,
    )
