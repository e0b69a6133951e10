"""Exact Gaussian elimination over the integers.

rref, rank and nullspace take rational matrices: ints and Fractions.
There is one fraction-free Gauss-Jordan loop.  On entry each row is
multiplied by the lcm of its denominators, which leaves its span alone;
each update r_i <- p r_i - f r_p, with p the pivot and f the entry of
r_i in the pivot column, multiplies and subtracts without dividing; and
each updated row is divided by the gcd of its entries, so the integers
stay as small as the row allows.  On exit each nonzero entry of a pivot
row is divided by the row's pivot, once.  The pivot is the first nonzero
entry of its column: exact arithmetic needs no pivoting for stability.
Inputs are never mutated and results are fully deterministic: the
reduced echelon form is unique, so it does not depend on the scaling of
any row, and nullspace vectors are normalised so their first nonzero
entry is one.  A complex matrix comes here realified, as an integer
matrix (diffop.SymbolMatrix).

A modular helper proves full rank cheaply.  P is a prime with
P = 1 (mod 4) and I a square root of -1 mod P, so a + bi -> a + I b
(mod P) is a ring homomorphism from the Gaussian integers onto the
integers mod P.  Minors map to minors, so an integer or Gaussian-integer
matrix whose image has full column rank mod P has full column rank
exactly; a rational matrix reaches it with its rows cleared to integers
first.  A rank drop mod P proves nothing: only a full-rank answer may be
taken from rank_mod_p.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Sequence

P = 2**61 - 31
I = 583529827753931384  # I * I = -1 (mod P)


def rref(
    matrix: Sequence[Sequence[int | Fraction]], ncols: int
) -> tuple[list[list[int | Fraction]], list[int]]:
    """Reduced row echelon form and pivot column list, by the
    fraction-free loop of the module docstring.  The nonzero entries of
    the result are Fractions and the zeros ints."""
    if any(len(r) != ncols for r in matrix):
        raise ValueError("ragged matrix")
    if set(map(type, chain.from_iterable(matrix))) <= {int}:
        rows = [_primitive(list(r)) for r in matrix]
    else:
        rows = [_primitive(_cleared(r)) for r in matrix]
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        best = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if best is None:
            continue
        rows[rank], rows[best] = rows[best], rows[rank]
        pivot_row = rows[rank]
        p = pivot_row[col]
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != rank:
                rows[i] = _primitive([p * a - f * b for a, b in zip(row, pivot_row)])
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    for i, col in enumerate(pivots):
        p = rows[i][col]
        rows[i] = [Fraction(v, p) if v else v for v in rows[i]]
    return rows, pivots


def _cleared(row: Sequence[int | Fraction]) -> list[int]:
    """A rational row times the lcm of its denominators, as ints."""
    scale = lcm(*(v.denominator for v in row))
    return [v.numerator * (scale // v.denominator) for v in row]


def _primitive(row: list[int]) -> list[int]:
    """An integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return row if g <= 1 else [v // g for v in row]


def rank(matrix: Sequence[Sequence[int | Fraction]], ncols: int) -> int:
    return len(rref(matrix, ncols)[1])


def nullspace(matrix: Sequence[Sequence[int | Fraction]], ncols: int) -> list[list[Fraction]]:
    """Exact kernel basis, one vector per free column, first nonzero entry
    normalised to one.  A matrix with no rows has full kernel."""
    if ncols < 1:
        raise ValueError("need at least one column")
    reduced, pivots = rref(matrix, ncols) if len(matrix) else ([], [])
    free = [c for c in range(ncols) if c not in pivots]
    zero, one = Fraction(0), Fraction(1)
    basis: list[list[Fraction]] = []
    for f in free:
        v = [zero] * ncols
        v[f] = one
        for r, p in enumerate(pivots):
            coeff = reduced[r][f]
            if coeff:
                v[p] = -coeff
        lead = next(x for x in v if x)
        if lead != one:
            v = [x / lead if x else zero for x in v]
        basis.append(v)
    return basis


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
