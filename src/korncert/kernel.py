"""Exact polynomial nullspaces of differential operators.

For an operator A of order k and a degree bound K, the space
S = ker(A) intersected with degree-<= K polynomial fields is computed
exactly: A acts linearly on coefficient vectors, the matrix of that
action over the graded-lex bases has a closed form (each monomial
derivative is a falling factorial times a lower monomial), and its
rational nullspace is the kernel basis.  No sampling is involved, so the
result is a certificate, not evidence.

A is homogeneous of order k, so it maps degree-d fields to degree-(d-k)
fields only.  In the graded-lex layout each degree is one contiguous
column range, the coefficient matrix is block-diagonal by degree, and
each degree block is assembled and eliminated on its own.  The blocks
are integer matrices: diffop.degree_block builds them, for this module
and for the ellipticity probe's proof, from the operator's integer form
(DiffOperator.integer_terms, A scaled by the lcm of its denominators,
which leaves the kernel alone), so every entry is a falling-factorial
product times an integer, and linalg.nullspace eliminates the block over
the integers, fraction-free.  Only coefficient_matrix divides
DiffOperator.scale back out.  kernel_basis and kernel_dim_profile build
each block from a basis of the output rows only, the components in
DiffOperator.output_basis.  A dependent component's block rows are the
same combination of the kept components' rows, so the block keeps its
row space, and with it its nullspace and its unique reduced echelon
form; only coefficient_matrix builds every row.  A block's monomials
come from polyalg's memoised compositions, one table per degree and
process, and their entries from the operator's block_terms, built
with it.  linalg.nullspace makes every entry of a kernel vector a
Fraction, one per distinct value in a block, so kernel_basis adopts the
vectors through the private PolyVec._of_fractions, which scans no
entry.

The dimension profile is exact evidence, not a heuristic.  The kernel
splits by degree, and each partial derivative d_i commutes with A, so it
maps ker A into ker A.  Suppose the degree-d block has a trivial kernel.
A homogeneous degree-(d+1) kernel field then has every d_i of it in the
degree-d kernel, hence zero, so it is a constant of degree >= 1: zero.
By induction there is no kernel in any degree >= d.  A stabilized
profile (two equal consecutive entries, that is, one trivial block)
therefore shows that the degree-<= K kernel is the whole kernel of A,
and that A is C-elliptic, which is how diffop's probe proves it.
It also means that no block above the first trivial one needs
assembly or elimination: kernel_basis and kernel_dim_profile stop there.

A full rank is decided mod P (linalg: a full row or column rank mod P
is the exact rank).  kernel_basis screens each block with at least as
many rows as columns first: full column rank mod P makes it the first
trivial block, so the loop stops without linalg.nullspace.
kernel_dim_profile takes a block's rank mod P when it equals the block's
smaller side, its row or column count.  Only a block whose rank drops
mod P, which proves nothing, goes through exact elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import comb
from typing import Sequence

from . import linalg
from .diffop import DiffOperator, degree_block
from .polyalg import PolyVec, float_columns, format_poly, format_rational, monomial_basis, parse_int


@dataclass(frozen=True)
class KernelBasis:
    """Exact basis of ker(A) within degree-<= K fields.

    m is the ambient coefficient dimension dimV * |P_K basis| and rank
    the exact rank of the coefficient map, so dim + rank == m.
    """

    operator: DiffOperator
    K: int
    basis: tuple[PolyVec, ...]
    m: int
    rank: int

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def unit_columns(self):
        """The float view normtest certifies with: an (m, dim) numpy array,
        one column per basis element, unit-normalized in the Euclidean
        coefficient norm, read-only.  Built on first use, once per basis;
        the exact layer never imports numpy."""
        import numpy as np

        cols = float_columns(self.basis)
        norms = np.linalg.norm(cols, axis=0)
        if np.any(norms == 0.0):
            raise ValueError("kernel basis contains a zero element")
        cols = cols / norms
        cols.flags.writeable = False
        return cols


@dataclass(frozen=True)
class DimProfile:
    """Kernel dimensions for K = 0..K_max; stabilized when the last two
    entries agree."""

    dims: tuple[int, ...]

    @property
    def stabilized(self) -> bool:
        return len(self.dims) >= 2 and self.dims[-1] == self.dims[-2]


def coefficient_matrix(A: DiffOperator, K: int) -> list[list[Fraction]]:
    """Matrix of p -> A p between coefficient spaces at degree bound K.

    Rows index output coefficients (dimW * |P_{K-k}|), columns input
    coefficients (dimV * |P_K|), both in the PolyVec layout.  It is
    block-diagonal by degree; every entry outside the blocks of
    _degree_blocks is zero, and each integer block is the slice of this
    matrix it covers times A.scale.
    """
    zero = Fraction(0)
    target_size = comb(A.n + max(K - A.order, 0), A.n)
    rows = [[zero] * (A.dimV * comb(A.n + K, A.n)) for _ in range(A.dimW * target_size)]
    for row, col, cols, block in _degree_blocks(A, K, range(A.dimW)):
        for i, block_row in enumerate(block):
            rows[row + i][col : col + cols] = [Fraction(v, A.scale) for v in block_row]
    return rows


def _degree_blocks(A: DiffOperator, K: int, outputs: Sequence[int]):
    """Yield (row offset, column offset, column count, block) for the
    integer degree blocks d = 0..K of A, with the rows of the output
    components in outputs (diffop.degree_block).

    Each block is assembled only when the caller reaches it, so a caller
    that stops early assembles no higher block and builds no monomial of
    a higher degree.
    """
    n, k = A.n, A.order
    for d in range(K + 1):
        row = len(outputs) * comb(n - 1 + d - k, n) if d >= k else 0
        col = A.dimV * comb(n - 1 + d, n)
        yield row, col, A.dimV * comb(n - 1 + d, d), degree_block(A, d, outputs)


def kernel_basis(A: DiffOperator, K: int) -> KernelBasis:
    """Exact basis of the degree-<= K polynomial kernel of A.

    Elimination runs on each integer degree block separately (module
    docstring), and each block vector is padded with zeros to the full
    coefficient length.  The reduced echelon form is unique, so this is
    the nullspace of the whole matrix, in the same order.  For K below
    the operator order every field is annihilated (the blocks have no
    rows), so the full coefficient space comes back.  Basis vectors
    follow the echelon convention (first nonzero coefficient equal to
    one) and are uniquely determined by A and K.
    """
    K = parse_int(K, "K", 0)
    source = monomial_basis(A.n, K)
    m = A.dimV * source.size
    zero = Fraction(0)
    basis = []
    for _, col, cols, block in _degree_blocks(A, K, A.output_basis):
        if len(block) >= cols and linalg.rank_mod_p(block, cols) == cols:
            break  # the first trivial block: so is every higher one (module docstring)
        vectors = linalg.nullspace(block, cols)
        if not vectors:
            break  # trivial, though its rank dropped mod P
        head, tail = (zero,) * col, (zero,) * (m - col - cols)
        basis.extend(PolyVec._of_fractions(source, A.dimV, head + tuple(v) + tail) for v in vectors)
    return KernelBasis(operator=A, K=K, basis=tuple(basis), m=m, rank=m - len(basis))


def kernel_dim_profile(A: DiffOperator, K_max: int) -> DimProfile:
    """Kernel dimension at each degree bound K = 0..K_max: a running sum
    of the nullities of the degree blocks.  The blocks above the first
    trivial one have nullity 0 and are never assembled, so their
    monomials are never built either."""
    K_max = parse_int(K_max, "K_max", 0)
    nullities = [0] * (K_max + 1)
    for d, (_, _, cols, block) in enumerate(_degree_blocks(A, K_max, A.output_basis)):
        rank = linalg.rank_mod_p(block, cols)
        if rank < min(len(block), cols):
            rank = linalg.rank(block, cols)
        nullities[d] = cols - rank
        if not nullities[d]:
            break
    return DimProfile(dims=tuple(accumulate(nullities)))


def kernel_to_json(kb: KernelBasis) -> dict:
    """Serialize with exact "p/q" coefficient strings plus pretty text."""
    return {
        "operator": kb.operator.describe(),
        "K": kb.K,
        "dim": kb.dim,
        "ambient_dim": kb.m,
        "rank": kb.rank,
        "basis": [
            {
                "coeffs": [format_rational(c) for c in p.coeffs],
                "pretty": format_poly(p),
            }
            for p in kb.basis
        ],
    }
