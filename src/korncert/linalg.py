"""Exact Gaussian elimination over the integers.

rref, rank and nullspace take rational matrices: ints and Fractions.
They hand the elimination each row times the lcm of its denominators,
which leaves its span alone.  Each update r_i <- p r_i - f r_p, with p
the pivot and f the entry of r_i in the pivot column, multiplies and
subtracts without dividing, and each row is divided by the gcd of its
entries, so the integers stay as small as the row allows.  The pivot is
the first nonzero entry of its column: exact arithmetic needs no
pivoting for stability.  Inputs are never mutated and results are fully
deterministic.  A complex matrix comes here realified, as an integer
matrix (diffop.SymbolMatrix).

Elimination runs in two halves.  The forward half, which rank,
pivots_mod_p and rref share, runs only the updates below each pivot, on
rows it owns, and returns the echelon rows with their pivot columns.
rank counts the pivots.  rref's back half then clears the entries above
each pivot, from the last pivot row upward, so each pivot row it uses is
already cleared above the later pivots.  rref returns primitive integer
rows undivided, with their pivot columns: nothing divides on its exit.
Dividing a row by its pivot gives the reduced echelon form, which is
unique, so it does not depend on the order of the updates or the scaling
of any row; a matrix with a pivot in every column comes back as +-e_i
rows.  nullspace forms each kernel vector from rref's rows in ints over
the lcm of the pivots it touches and divides once, by its first nonzero
entry, so that entry is one.

A modular rank proves full rank cheaply.  P is a prime with
P = 1 (mod 4) and I a square root of -1 mod P, so a + bi -> a + I b
(mod P) is a ring homomorphism from the Gaussian integers onto the
integers mod P.  Minors map to minors, and the rank mod P never exceeds
the exact rank, so an integer or Gaussian-integer matrix whose rank mod
P is its row or column count has that full rank exactly; a rational
matrix reaches it with its rows cleared to integers first.
pivots_mod_p, and rank_mod_p, which counts its pivots, run the forward
half on the rows reduced mod P and build each updated row once, already
reduced mod P, in place of the gcd: the pivot is a unit mod P.  A rank
drop mod P proves nothing: only a full-rank answer may be taken from
them.
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
) -> tuple[list[list[int]], list[int]]:
    """Row echelon form by the two halves of the module docstring:
    primitive integer rows, pivot rows first and zero rows last, and the
    pivot column list.  Row i divided by its entry in column pivots[i]
    is row i of the reduced row echelon form."""
    rows, pivots = _forward(_integer_rows(matrix, ncols), ncols)
    # The back half: row k is already clear above every later pivot.
    for k in range(len(pivots) - 1, 0, -1):
        pivot_row, col = rows[k], pivots[k]
        p = pivot_row[col]
        for i in range(k):
            row = rows[i]
            f = row[col]
            if f:
                rows[i] = _primitive([p * a - f * b for a, b in zip(row, pivot_row)])
    return rows, pivots


def _forward(rows: list[list[int]], ncols: int, mod_p: bool = False) -> tuple[list[list[int]], list[int]]:
    """The forward half, on rows it owns: the updates below each pivot.
    Each updated row is divided by its gcd or, with mod_p, built reduced
    mod P, one list per update."""
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        # A loop, not next() over a generator: on the screens' small
        # matrices the generator cost as much as the updates.
        for best in range(rank, len(rows)):
            if rows[best][col]:
                break
        else:
            continue
        rows[rank], rows[best] = rows[best], rows[rank]
        pivot_row = rows[rank]
        p = pivot_row[col]
        for i in range(rank + 1, len(rows)):
            row = rows[i]
            f = row[col]
            if not f:
                continue
            if mod_p:
                rows[i] = [(p * a - f * b) % P for a, b in zip(row, pivot_row)]
            else:
                rows[i] = _primitive([p * a - f * b for a, b in zip(row, pivot_row)])
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rows, pivots


def _integer_rows(matrix: Sequence[Sequence[int | Fraction]], ncols: int) -> list[list[int]]:
    """The rows of a rational matrix as new primitive integer rows."""
    if any(len(r) != ncols for r in matrix):
        raise ValueError("ragged matrix")
    if set(map(type, chain.from_iterable(matrix))) <= {int}:
        return [_primitive(list(r)) for r in matrix]
    return [_primitive(_cleared(r)) for r in matrix]


def _cleared(row: Sequence[int | Fraction]) -> list[int]:
    """A rational row times the lcm of its denominators, as ints."""
    scale = lcm(*(v.denominator for v in row))
    return [v.numerator * (scale // v.denominator) for v in row]


def _primitive(row: list[int]) -> list[int]:
    """An integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return row if g <= 1 else [v // g for v in row]


def rank(matrix: Sequence[Sequence[int | Fraction]], ncols: int) -> int:
    return len(_forward(_integer_rows(matrix, ncols), ncols)[1])


def nullspace(matrix: Sequence[Sequence[int | Fraction]], ncols: int) -> list[list[Fraction]]:
    """Exact kernel basis, one vector per free column, first nonzero entry
    normalised to one.  The zero entries are one shared Fraction.  A
    matrix with no rows has full kernel."""
    if ncols < 1:
        raise ValueError("need at least one column")
    rows, pivots = rref(matrix, ncols) if len(matrix) else ([], [])
    pivot_set = set(pivots)
    zero = Fraction(0)
    basis: list[list[Fraction]] = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        # v[f] = 1 and v[p] = -row[f] / row[p] for the pivot column p of
        # each row; over the lcm of the pivots involved, all are ints.
        touched = [(p, row) for p, row in zip(pivots, rows) if row[f]]
        scale = lcm(*(row[p] for p, row in touched))
        ints = [(p, -row[f] * (scale // row[p])) for p, row in touched] + [(f, scale)]
        lead = ints[0][1]  # pivots ascend, and each touched one lies left of f
        v = [zero] * ncols
        for c, x in ints:
            v[c] = Fraction(x, lead)
        basis.append(v)
    return basis


def rank_mod_p(matrix: Sequence[Sequence[int]], ncols: int) -> int:
    """Rank mod P of an integer matrix."""
    return len(pivots_mod_p(matrix, ncols))


def pivots_mod_p(matrix: Sequence[Sequence[int]], ncols: int) -> list[int]:
    """The pivot columns of an integer matrix mod P: the first column
    that is no combination mod P of earlier ones, then the next, up to
    the rank.  The columns they name have full column rank mod P."""
    return _forward([[v % P for v in row] for row in matrix], ncols, mod_p=True)[1]
