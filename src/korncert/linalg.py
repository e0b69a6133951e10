"""Exact Gaussian elimination over the integers.

rref, rank and nullspace take rational matrices: ints and Fractions.
They hand the elimination each row times the lcm of its denominators,
which leaves its span alone; a row of ints, which gcd takes as it is,
is only copied.  Each update r_i <- p r_i - f r_p, with p the pivot and
f the entry of r_i in the pivot column, multiplies and subtracts
without dividing, and each row is divided by the gcd of its
entries, so the integers stay as small as the row allows.  The pivot is
the first nonzero entry of its column: exact arithmetic needs no
pivoting for stability.  Inputs are never mutated and results are fully
deterministic.  A complex matrix comes here realified, as an integer
matrix (diffop.SymbolMatrix).

Elimination runs in two halves, and both touch live columns only.  The
forward half, which rank, pivots_mod_p and rref share, runs only the
updates below each pivot, on rows it owns, and returns the echelon rows
with their pivot columns.  Every row below a pivot is zero left of the
pivot column, so each update rewrites, in place, only the row's tail
from that column on; the gcd of the tail is the gcd of the row.  rank
counts the pivots.  rref's back half then clears the entries above each
pivot, from the last pivot row upward, so each pivot row it uses is
already cleared above the later pivots; it rewrites row i only from its
own pivot column on, left of which it is zero.  rref returns primitive
integer rows undivided, with their pivot columns: nothing divides on its
exit.  Dividing a row by its pivot gives the reduced echelon form, which
is unique, so it does not depend on the order of the updates or the
scaling of any row; a matrix with a pivot in every column comes back as
+-e_i rows.  nullspace forms each kernel vector from rref's rows in ints
over the lcm of the pivots it touches and divides once, by its first
nonzero entry, so that entry is one.  It makes one Fraction per distinct
(value, first entry) pair in a call, shared by every vector that holds
it, and one shared zero.

A modular rank proves full rank cheaply.  P is a prime with
P = 1 (mod 4) and I a square root of -1 mod P, so a + bi -> a + I b
(mod P) is a ring homomorphism from the Gaussian integers onto the
integers mod P.  Minors map to minors, and the rank mod P never exceeds
the exact rank, so an integer or Gaussian-integer matrix whose rank mod
P is its row or column count has that full rank exactly; a rational
matrix reaches it with its rows cleared to integers first.
pivots_mod_p, and rank_mod_p, which counts its pivots, run the forward
half on the rows reduced mod P and build each updated tail once,
already reduced mod P, in place of the gcd: the pivot is a unit mod P.
A rank drop mod P proves nothing: only a full-rank answer may be taken
from them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
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
    # The back half: row k is already clear above every later pivot, and
    # row i < k is zero left of pivots[i], so only its tail changes.
    for k in range(len(pivots) - 1, 0, -1):
        pivot_row, col = rows[k], pivots[k]
        p = pivot_row[col]
        for i in range(k):
            row = rows[i]
            f = row[col]
            if f:
                start = pivots[i]
                row[start:] = _primitive([p * a - f * b for a, b in zip(row[start:], pivot_row[start:])])
    return rows, pivots


def _forward(rows: list[list[int]], ncols: int, mod_p: bool = False) -> tuple[list[list[int]], list[int]]:
    """The forward half, on rows it owns: the updates below each pivot.
    Every row below the pivot row is zero left of the pivot column, so
    each update rewrites only the row's tail from that column on, in
    place, divided by its gcd, which is the row's, or, with mod_p,
    reduced mod P."""
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
        tail = pivot_row[col:]
        for i in range(rank + 1, len(rows)):
            row = rows[i]
            f = row[col]
            if not f:
                continue
            if mod_p:
                row[col:] = [(p * a - f * b) % P for a, b in zip(row[col:], tail)]
            else:
                row[col:] = _primitive([p * a - f * b for a, b in zip(row[col:], tail)])
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rows, pivots


def _integer_rows(matrix: Sequence[Sequence[int | Fraction]], ncols: int) -> list[list[int]]:
    """The rows of a rational matrix as new primitive integer rows.  gcd
    takes ints only, so a row it takes needs no clearing."""
    if any(len(r) != ncols for r in matrix):
        raise ValueError("ragged matrix")
    rows = []
    for r in matrix:
        try:
            g = gcd(*r)
        except TypeError:  # a Fraction in the row
            rows.append(_primitive(_cleared(r)))
        else:
            rows.append([v // g for v in r] if g > 1 else list(r))
    return rows


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
    normalised to one.  The zero entries are one shared Fraction, and
    equal nonzero entries over the same lead share one too.  A matrix
    with no rows has full kernel."""
    if ncols < 1:
        raise ValueError("need at least one column")
    rows, pivots = rref(matrix, ncols) if len(matrix) else ([], [])
    heads = [row[p] for p, row in zip(pivots, rows)]
    # Column f of the pivot rows, one tuple per column.
    columns = list(zip(*rows[: len(pivots)])) if pivots else [()] * ncols
    indices = range(len(pivots))
    pivot_set = set(pivots)
    zero = Fraction(0)
    shared: dict[tuple[int, int], Fraction] = {}  # (x, lead) -> Fraction(x, lead)
    basis: list[list[Fraction]] = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        # v[f] = 1 and v[p] = -row[f] / row[p] for the pivot column p of
        # each row with row[f] != 0; over the lcm of those pivots, all
        # are ints.
        column = columns[f]
        touched = list(compress(indices, column))
        scale = lcm(*[heads[i] for i in touched])
        ints = [(pivots[i], -column[i] * (scale // heads[i])) for i in touched]
        ints.append((f, scale))
        lead = ints[0][1]  # pivots ascend, and each touched one lies left of f
        v = [zero] * ncols
        for c, x in ints:
            q = shared.get((x, lead))
            if q is None:
                q = shared[x, lead] = Fraction(x, lead)
            v[c] = q
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
