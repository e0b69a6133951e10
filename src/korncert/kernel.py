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
are integer matrices: each call scales A's coefficient matrices once by
the lcm of their denominators, which leaves the kernel alone, so every
entry is a falling-factorial product times an integer, and
linalg.nullspace eliminates the block over the integers, fraction-free.
Only coefficient_matrix divides the scale back out.

The dimension profile is exact evidence, not a heuristic.  The kernel
splits by degree, and each partial derivative d_i commutes with A, so it
maps ker A into ker A.  Suppose the degree-d block has a trivial kernel.
A homogeneous degree-(d+1) kernel field then has every d_i of it in the
degree-d kernel, hence zero, so it is a constant of degree >= 1: zero.
By induction there is no kernel in any degree >= d.  A stabilized
profile (two equal consecutive entries, that is, one trivial block)
therefore shows that the degree-<= K kernel is the whole kernel of A.
It also means that no block above the first trivial one needs
assembly or elimination: kernel_basis and kernel_dim_profile stop there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb, lcm, perm, prod

from . import linalg
from .diffop import DiffOperator
from .polyalg import MonomialBasis, MultiIndex, PolyVec, format_poly, format_rational, monomial_basis


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
    matrix it covers times the scale of _integer_terms.
    """
    source = monomial_basis(A.n, K)
    zero = Fraction(0)
    target_size = comb(A.n + max(K - A.order, 0), A.n)
    rows = [[zero] * (A.dimV * source.size) for _ in range(A.dimW * target_size)]
    scale = _integer_terms(A)[0]
    for row, col, cols, block in _degree_blocks(A, source):
        for i, block_row in enumerate(block):
            rows[row + i][col : col + cols] = [Fraction(v, scale) for v in block_row]
    return rows


def _integer_terms(A: DiffOperator) -> tuple[int, list]:
    """The lcm scale of the denominators of A's coefficients, and the
    terms of the integer operator scale * A, each term's matrix as its
    nonzero (w, v, entry) triples.  scale * A has the kernel of A."""
    scale = lcm(*(m.denominator for _, matrix in A.terms for row in matrix for m in row))
    terms = [
        (
            alpha,
            [
                (w, v, m.numerator * (scale // m.denominator))
                for w, row in enumerate(matrix)
                for v, m in enumerate(row)
                if m
            ],
        )
        for alpha, matrix in A.terms
    ]
    return scale, terms


def _degree_block(A: DiffOperator, terms, basis: MonomialBasis, d: int) -> list[list[int]]:
    """The degree-d block of the integer operator whose terms
    _integer_terms gives: the map from degree-d to degree-(d-k)
    coefficients, with no rows when d < k.

    Columns are the degree-d monomials of basis times the dimV
    components, rows the degree-(d-k) monomials times the dimW
    components, in the PolyVec layout.  Because

        d^alpha x^beta = beta!/(beta - alpha)! x^(beta - alpha)   (beta >= alpha)

    and 0 otherwise, the entry joining component v of x^beta to component
    w of x^(beta - alpha) is beta!/(beta - alpha)! * A_alpha[w][v]; every
    other entry is zero.  No entry is set twice: beta and beta - alpha
    determine alpha.
    """
    n, k = A.n, A.order
    if d < k:
        return []
    first = comb(n - 1 + d, n)  # monomials of degree < d
    count = comb(n - 1 + d, d)  # monomials of degree d
    below = comb(n - 1 + d - k, n)  # monomials of degree < d - k
    rows = [[0] * (A.dimV * count) for _ in range(A.dimW * comb(n - 1 + d - k, d - k))]
    for j, beta in enumerate(basis.exponents[first : first + count]):
        for alpha, entries in terms:
            if not beta.dominates(alpha):
                continue
            factor = prod(perm(b, a) for b, a in zip(beta.entries, alpha.entries))
            gamma = MultiIndex(tuple(b - a for b, a in zip(beta.entries, alpha.entries)))
            t = basis.index_of(gamma) - below
            for w, v, m in entries:
                rows[t * A.dimW + w][j * A.dimV + v] = factor * m
    return rows


def _degree_blocks(A: DiffOperator, basis: MonomialBasis):
    """Yield (row offset, column offset, column count, block) for the
    integer degree blocks d = 0..basis.K of A.

    Each block is assembled only when the caller reaches it, so a caller
    that stops early assembles no higher block.
    """
    n, k = A.n, A.order
    terms = _integer_terms(A)[1]
    for d in range(basis.K + 1):
        row = A.dimW * comb(n - 1 + d - k, n) if d >= k else 0
        col = A.dimV * comb(n - 1 + d, n)
        yield row, col, A.dimV * comb(n - 1 + d, d), _degree_block(A, terms, basis, d)


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
    if K < 0:
        raise ValueError(f"need K >= 0, got {K}")
    source = monomial_basis(A.n, K)
    m = A.dimV * source.size
    zero = Fraction(0)
    basis = []
    for _, col, cols, block in _degree_blocks(A, source):
        vectors = linalg.nullspace(block, cols, zero=zero)
        if not vectors:
            break  # every higher block is trivial too (module docstring)
        for v in vectors:
            coeffs = [zero] * m
            coeffs[col : col + cols] = v
            basis.append(PolyVec(source, A.dimV, tuple(coeffs)))
    return KernelBasis(operator=A, K=K, basis=tuple(basis), m=m, rank=m - len(basis))


def kernel_dim_profile(A: DiffOperator, K_max: int) -> DimProfile:
    """Kernel dimension at each degree bound K = 0..K_max: a running sum
    of the nullities of the degree blocks.  The blocks above the first
    trivial one have nullity 0 and are never assembled."""
    if K_max < 0:
        raise ValueError(f"need K_max >= 0, got {K_max}")
    nullities = [0] * (K_max + 1)
    for d, (_, _, cols, block) in enumerate(_degree_blocks(A, monomial_basis(A.n, K_max))):
        nullities[d] = cols - linalg.rank(block, cols)
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
