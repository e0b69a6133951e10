"""Constant-coefficient homogeneous differential operators.

An operator A = sum_{|alpha| = k} A_alpha d^alpha maps polynomial fields
R^n -> R^dimV to fields R^n -> R^dimW through exact rational matrices
A_alpha.  The module provides the standard first-order vector-field
operators (gradient, divergence, symmetric / deviatoric gradients), full
higher gradients, user-supplied term lists or fourth-order coefficient
tensors, exact application to polynomials, exact symbol matrices at
complex rational frequencies, and a randomized ellipticity probe.

Each operator derives one exact integer form from its terms when it is
built: the lcm s of their denominators (scale) and, per term, the
nonzero (w, v, entry) entries of s A (integer_terms).  s A has the
kernel of A, so the kernel blocks (kernel.py) read A through it;
apply_operator walks the rational matrices, as an independent reference.
With it comes a basis of the output rows (output_basis): stack the terms
side by side into one dimW x (terms * dimV) integer matrix, and keep the
components w whose rows are no combination of earlier rows, the pivot
columns of its transpose under linalg.rref.  A dependent component of
A u is then the same combination of the kept ones for every field u, so
the kept components alone have the kernel of A.

The symbol takes the same form.  Let d be the lcm of the denominators of
a complex rational frequency xi, so that z = d xi has Gaussian-integer
entries.  A is homogeneous of order k, so sum_alpha z^alpha (s A_alpha)
= d^k s A[xi]: a Gaussian-integer matrix re + i im with the rank and
kernel of A[xi].  A SymbolMatrix holds re, im and the factor d^k s.  Its
rank and kernel come from the realified integer matrix, in which each
entry x + iy is the block [[x, -y], [y, x]] and the columns Re v_j and
Im v_j sit side by side, so linalg eliminates integers only.  Each pivot
column of A[xi] becomes two real pivot columns, and each free column two
free ones; the first of these, Re v_j, carries the kernel vector of free
column j up to a real factor, which dividing by the first nonzero
complex entry removes.

Ellipticity here means the symbol A[xi] is injective for all real
xi != 0; C-ellipticity extends that to complex xi.  The probe samples
random rational frequencies, decides each symbol's rank exactly, and on
a rank drop produces an exact witness pair (xi, v) with A[xi] v = 0.
It keeps each draw as the integer pair (numerator, denominator) it was
drawn as, and screens it mod a prime first.  With z = d xi as above,
each Gaussian coordinate a + ib becomes its residue a + I b (mod P),
with I a square root of -1 mod P (linalg).  That map is a ring
homomorphism, so the walk over integer_terms with these residues gives
the image re + I im (mod P) of the Gaussian-integer symbol.  The screen
builds it transposed, dimV x dimW, keeps the columns of a given list of
output rows, and looks for dimV of them whose minor is nonzero mod P
(linalg.pivots_mod_p).  Such a minor is nonzero in re + i im too, so
A[xi] has full rank, whatever the denominators of A.  Each frequency
is screened in up to three steps:

1. on the dimV rows of the minor that settled the previous frequency,
   a dimV x dimV elimination.  That minor is a polynomial in xi that
   did not vanish there, so it seldom vanishes at the next draw;
2. if it does vanish mod P, on output_basis, whose rows have the rank
   of all dimW of them over Q;
3. if that fails too, by exact elimination: the frequency becomes
   Fractions, ComplexRationals and a SymbolMatrix.

A frequency settled by step 1 or 2 needs no Fraction, and a rank drop
is always decided exactly, by step 3.  The remembered minor lives in
one probe call only.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Sequence

from . import linalg
from .polyalg import (
    MultiIndex,
    PolyVec,
    differentiate,
    format_rational,
    monomial_basis,
    parse_int,
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

    def __neg__(self) -> "ComplexRational":
        return ComplexRational(-self.re, -self.im)

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
    shared order to a dimW x dimV rational matrix.  scale and
    integer_terms, its integer form, and output_basis, a basis of its
    output rows (module docstring), are derived from terms and take no
    part in equality or repr."""

    n: int
    order: int
    dimV: int
    dimW: int
    terms: tuple[tuple[MultiIndex, Matrix], ...]
    name: str = "custom"
    scale: int = field(init=False, compare=False, repr=False)
    integer_terms: tuple[tuple[MultiIndex, tuple[tuple[int, int, int], ...]], ...] = field(
        init=False, compare=False, repr=False
    )
    output_basis: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        scale = lcm(*(m.denominator for _, matrix in self.terms for row in matrix for m in row))
        integer_terms = tuple(
            (
                alpha,
                tuple(
                    (w, v, m.numerator * (scale // m.denominator))
                    for w, row in enumerate(matrix)
                    for v, m in enumerate(row)
                    if m
                ),
            )
            for alpha, matrix in self.terms
        )
        # The transpose of the stacked form: row (t, v) holds entry (w, v)
        # of term t in column w.  Its pivot columns are the output rows
        # that are no combination of earlier ones.
        stacked = [[0] * self.dimW for _ in range(len(integer_terms) * self.dimV)]
        for t, (_, entries) in enumerate(integer_terms):
            for w, v, m in entries:
                stacked[t * self.dimV + v][w] = m
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "integer_terms", integer_terms)
        object.__setattr__(self, "output_basis", tuple(linalg.rref(stacked, self.dimW)[1]))

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
        seen[alpha] = matrix
    if dim_v == 0 or dim_w == 0:
        raise ValueError("operator matrices must be nonempty")
    ordered = tuple(
        sorted(seen.items(), key=lambda kv: (kv[0].order, tuple(-e for e in kv[0].entries)))
    )
    op = DiffOperator(n=n, order=order, dimV=dim_v, dimW=dim_w, terms=ordered, name=name)
    if not any(entries for _, entries in op.integer_terms):
        raise ValueError("all-zero operator")
    return op


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
    n = parse_int(n, "n", 1)
    if name in {"sym_grad", "dev_grad", "dev_sym_grad"} and n < 2:
        raise ValueError(f"{name} needs n >= 2")
    if name != "grad_k" and order is not None:
        raise ValueError(f"{name} does not take an order argument")

    # entry(i, j, k, l) of each first-order matrix operator (_first_order),
    # as its integer numerator over the common denominator 2n.
    numerators = {
        "grad": lambda i, j, k, l: 2 * n * (k == i and j == l),
        "sym_grad": lambda i, j, k, l: n * ((j == l and k == i) + (i == l and k == j)),
        "dev_grad": lambda i, j, k, l: 2 * n * (k == i and j == l) - 2 * (i == j and k == l),
        "dev_sym_grad": lambda i, j, k, l: n * ((j == l and k == i) + (i == l and k == j))
        - 2 * (i == j and k == l),
    }
    zero, one = Fraction(0), Fraction(1)
    if name in numerators:
        numerator = numerators[name]
        return _first_order(n, lambda *ijkl: Fraction(v, 2 * n) if (v := numerator(*ijkl)) else zero, name)
    if name == "div":
        terms = [(_unit_alpha(n, l), [[one if k == l else zero for k in range(n)]]) for l in range(n)]
        return custom_operator(terms, name=name)
    if name == "grad_k":
        order = parse_int(order, "order", 1)
        # Output row (i, j_1..j_k), row-major, holds d_{j_1}..d_{j_k} u_i,
        # so it belongs to the term whose alpha counts the j's.
        rows = [
            (i, tuple(js.count(l) for l in range(n)))
            for i, *js in itertools.product(range(n), repeat=order + 1)
        ]
        alphas = [mi for mi in monomial_basis(n, order).exponents if mi.order == order]
        terms = []
        for alpha in alphas:
            matrix = [[one if k == i and c == alpha.entries else zero for k in range(n)] for i, c in rows]
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
    rational frequency, in its Gaussian-integer form (module docstring):
    A[xi] = (re + i im) / factor, with int matrices re and im and a
    positive int factor.  rank, kernel and apply work on the realified
    matrix."""

    xi: tuple[ComplexRational, ...]
    re: tuple[tuple[int, ...], ...]
    im: tuple[tuple[int, ...], ...]
    factor: int

    def _realified(self) -> list[list[int]]:
        """Each entry x + iy as the block [[x, -y], [y, x]]: output w
        gives the rows Re and Im, and input v_j the columns Re v_j and
        Im v_j, side by side."""
        rows = []
        for re_row, im_row in zip(self.re, self.im):
            rows.append([c for x, y in zip(re_row, im_row) for c in (x, -y)])
            rows.append([c for x, y in zip(re_row, im_row) for c in (y, x)])
        return rows

    def apply(self, v: Sequence) -> tuple[ComplexRational, ...]:
        vec = [ComplexRational.of(x) for x in v]
        if len(vec) != len(self.re[0]):
            raise ValueError("vector length mismatch")
        flat = [c for z in vec for c in (z.re, z.im)]
        image = [
            Fraction(sum(a * b for a, b in zip(row, flat)), self.factor) for row in self._realified()
        ]
        return tuple(ComplexRational(x, y) for x, y in zip(image[::2], image[1::2]))

    def rank(self) -> int:
        return linalg.rank(self._realified(), 2 * len(self.re[0])) // 2

    def kernel(self) -> list[tuple[ComplexRational, ...]]:
        """Exact kernel basis of A[xi], one vector per free column, first
        nonzero entry normalised to one."""
        # Each free column of A[xi] becomes the free columns Re and Im,
        # side by side, of the realified matrix; the Re one carries its
        # kernel vector, up to a real factor that the normalisation
        # removes (module docstring).
        vectors = linalg.nullspace(self._realified(), 2 * len(self.re[0]))[::2]
        kernel = []
        for flat in vectors:
            pairs = list(zip(flat[::2], flat[1::2]))
            c, d = next(z for z in pairs if any(z))
            norm = c * c + d * d
            # (a + bi) / (c + di) = ((ac + bd) + (bc - ad) i) / (c^2 + d^2)
            kernel.append(
                tuple(ComplexRational((a * c + b * d) / norm, (b * c - a * d) / norm) for a, b in pairs)
            )
        return kernel


def _scaled(xi: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """d xi as ints and d, the lcm of the denominators, for rationals xi
    given as (numerator, denominator) pairs."""
    d = lcm(*(q for _, q in xi))
    return [p * (d // q) for p, q in xi], d


def _gaussian_symbol(A: DiffOperator, z: Sequence[int]) -> tuple[list[list[int]], list[list[int]]]:
    """Int matrices re and im with re + i im = sum_alpha z^alpha (scale *
    A_alpha), for Gaussian-integer coordinates z given as their real and
    imaginary parts in turn."""
    coords = list(zip(z[::2], z[1::2]))
    re = [[0] * A.dimV for _ in range(A.dimW)]
    im = [[0] * A.dimV for _ in range(A.dimW)]
    for alpha, entries in A.integer_terms:
        x, y = 1, 0  # (x + iy) = z^alpha
        for (a, b), e in zip(coords, alpha.entries):
            for _ in range(e):
                x, y = x * a - y * b, x * b + y * a
        for w, v, m in entries:
            re[w][v] += x * m
            im[w][v] += y * m
    return re, im


def symbol_matrix(A: DiffOperator, xi: Sequence) -> SymbolMatrix:
    """Evaluate the symbol exactly; xi entries may be ints, Fractions,
    rational strings, floats, or complex numbers (floats keep their
    exact binary value)."""
    xi = tuple(ComplexRational.of(v) for v in xi)
    if len(xi) != A.n:
        raise ValueError(f"frequency has {len(xi)} entries, expected {A.n}")
    z, d = _scaled([(x.numerator, x.denominator) for c in xi for x in (c.re, c.im)])
    re, im = _gaussian_symbol(A, z)
    return SymbolMatrix(
        xi=xi, re=tuple(map(tuple, re)), im=tuple(map(tuple, im)), factor=d**A.order * A.scale
    )


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


def _full_rank_mod_p(
    A: DiffOperator, xi: Sequence[tuple[int, int]], rows: Sequence[int]
) -> tuple[int, ...] | None:
    """dimV of the output rows listed in rows whose minor of A[xi] is
    nonzero mod P, which proves that A[xi] has full column rank; None
    proves nothing.  xi holds the real and imaginary part of each
    coordinate in turn, as (numerator, denominator) pairs (module
    docstring)."""
    z, _ = _scaled(xi)
    P = linalg.P
    residues = [(a + linalg.I * b) % P for a, b in zip(z[::2], z[1::2])]
    # The transpose of the symbol's image: dimV rows, one per input.
    image = [[0] * A.dimW for _ in range(A.dimV)]
    for alpha, entries in A.integer_terms:
        x = 1
        for r, e in zip(residues, alpha.entries):
            if e:
                x = x * r**e % P
        for w, v, m in entries:
            image[v][w] += x * m
    pivots = linalg.pivots_mod_p([[row[w] for w in rows] for row in image], len(rows))
    return tuple([rows[c] for c in pivots]) if len(pivots) == A.dimV else None


def _rational_draws(rng: random.Random, bound: int, count: int) -> list[tuple[int, int]]:
    """count pairs (numerator, denominator), drawn uniformly from
    [-bound, bound] and [1, bound].  Each integer comes from
    rng.getrandbits(k), with k the bit length of the width of its range,
    redrawn until it falls in that range.  That is how
    rng.randint(-bound, bound) and rng.randint(1, bound) draw on CPython
    3.10-3.12, so the pairs are the integers those calls give, drawn
    alternately, without their per-call overhead."""
    getrandbits = rng.getrandbits
    width = 2 * bound + 1
    k_num, k_den = width.bit_length(), bound.bit_length()
    draws = []
    for _ in range(count):
        p = getrandbits(k_num)
        while p >= width:
            p = getrandbits(k_num)
        q = getrandbits(k_den)
        while q >= bound:
            q = getrandbits(k_den)
        draws.append((p - bound, q + 1))
    return draws


def ellipticity_probe(A: DiffOperator, trials: int = 8, seed: int = 0) -> EllipticityReport:
    """Randomized exact-rank test of the symbol.

    Real ellipticity evidence: `trials` random rational frequencies, each
    with numerator and denominator bounded by 10^6, drawn from
    random.Random(seed) by getrandbits (_rational_draws), which gives the
    integers randint gives on CPython 3.10-3.12.  Complex evidence
    additionally checks the deterministic family xi = e_1 + i e_j,
    j = 2..n, before the random complex draws; that family catches the
    classical failures (for the deviatoric symmetric gradient on R^2 it
    produces the witness xi = (1, i), v = (1, -i)).  Each sampled rank is
    exact: full rank is taken from a full rank mod P or from exact
    elimination, a rank drop only from exact elimination, and it yields
    an exact witness.  Full rank at sampled frequencies is only evidence
    of ellipticity, not proof.
    """
    trials = parse_int(trials, "trials", 1)
    rng = random.Random(parse_int(seed, "seed"))
    bound = _PROBE_COEFF_BOUND
    zero, one = (0, 1), (1, 1)

    def rand_xi(parts: int) -> list[tuple[int, int]]:
        # parts = 1 draws a real frequency, 2 a complex one (re, then im).
        while True:
            draws = _rational_draws(rng, bound, parts * A.n)
            if any(p for p, _ in draws):
                return draws if parts == 2 else [c for re in draws for c in (re, zero)]

    def exact_symbol(xi: list[tuple[int, int]]) -> SymbolMatrix:
        parts = [Fraction(p, q) for p, q in xi]
        return symbol_matrix(A, tuple(map(ComplexRational, parts[::2], parts[1::2])))

    # (real?, xi) in a fixed order: every frequency is drawn and checked,
    # so the random stream, and with it the witness, never depends on
    # which earlier checks failed.
    frequencies = [
        (False, [c for m in range(A.n) for c in (one if m == 0 else zero, one if m == j else zero)])
        for j in range(1, A.n)
    ]
    frequencies += [(False, rand_xi(2)) for _ in range(trials)]
    frequencies += [(True, rand_xi(1)) for _ in range(trials)]

    elliptic = c_elliptic = True
    witness: Witness | None = None
    minor: tuple[int, ...] = ()  # the output rows that settled the last screen
    for real, xi in frequencies:
        # With fewer outputs than inputs every symbol is deficient by its
        # shape; otherwise a full rank mod P settles the frequency, on the
        # rows of the last nonzero minor or else on output_basis.  Only a
        # frequency that neither settles becomes Fractions.
        symbol = None
        if A.dimW >= A.dimV:
            settled = (minor and _full_rank_mod_p(A, xi, minor)) or _full_rank_mod_p(A, xi, A.output_basis)
            if settled:
                minor = settled
                continue
            symbol = exact_symbol(xi)
            if symbol.rank() == A.dimV:
                continue
        # A real rank drop is also a complex one.
        c_elliptic = False
        elliptic = elliptic and not real
        if witness is None:
            witness = _witness_from(symbol or exact_symbol(xi))
    return EllipticityReport(
        elliptic=elliptic,
        elliptic_trials=trials,
        c_elliptic=c_elliptic,
        c_elliptic_trials=trials,
        witness=witness,
    )
