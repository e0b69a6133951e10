"""Exact Gaussian elimination over rational-like scalars.

Routines accept any scalar type closed under +, -, *, / with exact
equality against 0; Fraction and ComplexRational both qualify.  The
pivot is the first nonzero entry of its column: exact arithmetic needs
no pivoting for stability.  Row updates skip zero entries: a zero stays
the object it was, and a pivot row's zero leaves the other row's entry
as it is.  The values are those of the plain loop, at a cost that
follows the nonzeros, which suits the sparse coefficient blocks
kernel.kernel_basis eliminates one degree at a time.  Inputs are never
mutated and results are fully deterministic: the reduced echelon form
is unique, and nullspace vectors are normalised so their first nonzero
entry is one.

A modular helper proves full rank cheaply.  P is a prime with
P = 1 (mod 4) and I a square root of -1 mod P, so the map
a/b + i c/d -> a b^-1 + I c d^-1 (mod P) is a ring homomorphism from the
complex rationals whose denominators are prime to P onto the integers
mod P.  Minors map to minors, so a matrix whose residue has full column
rank mod P has full column rank exactly.  A rank drop mod P proves
nothing: only a full-rank answer may be taken from the residues.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, TypeVar

T = TypeVar("T")

P = 2**61 - 31
I = 583529827753931384  # I * I = -1 (mod P)


def rref(matrix: Sequence[Sequence[T]], ncols: int) -> tuple[list[list[T]], list[int]]:
    """Reduced row echelon form and pivot column list."""
    rows = [list(r) for r in matrix]
    for r in rows:
        if len(r) != ncols:
            raise ValueError("ragged matrix")
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        best = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if best is None:
            continue
        rows[rank], rows[best] = rows[best], rows[rank]
        piv = rows[rank][col]
        rows[rank] = [v / piv if v != 0 else v for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b if b != 0 else a for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rows, pivots


def rank(matrix: Sequence[Sequence[T]], ncols: int) -> int:
    return len(rref(matrix, ncols)[1])


def nullspace(
    matrix: Sequence[Sequence[T]],
    ncols: int,
    zero: T = Fraction(0),
    one: T = Fraction(1),
) -> list[list[T]]:
    """Exact kernel basis, one vector per free column, first nonzero entry
    normalised to one.  A matrix with no rows has full kernel."""
    if ncols < 1:
        raise ValueError("need at least one column")
    reduced, pivots = rref(matrix, ncols) if len(matrix) else ([], [])
    free = [c for c in range(ncols) if c not in pivots]
    basis: list[list[T]] = []
    for f in free:
        v = [zero] * ncols
        v[f] = one
        for r, p in enumerate(pivots):
            coeff = reduced[r][f]
            if coeff != 0:
                v[p] = zero - coeff
        lead = next(x for x in v if x != 0)
        if lead != one:
            v = [x / lead if x != 0 else zero for x in v]
        basis.append(v)
    return basis


def residue(x) -> int | None:
    """Image of x mod P: n * d^-1 for an int or Fraction n/d, re + I * im
    for a complex rational; None when a denominator is divisible by P."""
    if hasattr(x, "im"):
        re, im = residue(x.re), residue(x.im)
        return None if re is None or im is None else (re + I * im) % P
    if x.denominator % P == 0:
        return None
    return x.numerator * pow(x.denominator, -1, P) % P


def rank_mod_p(matrix: Sequence[Sequence[int]], ncols: int) -> int:
    """Rank of a matrix of residues (ints in [0, P)) over the integers mod P."""
    rows = [list(r) for r in matrix]
    rank = 0
    for col in range(ncols):
        best = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if best is None:
            continue
        rows[rank], rows[best] = rows[best], rows[rank]
        inv = pow(rows[rank][col], -1, P)
        pivot_row = [v * inv % P for v in rows[rank]]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [(a - f * b) % P for a, b in zip(rows[i], pivot_row)]
        rank += 1
        if rank == len(rows):
            break
    return rank
