"""Exact polynomial nullspaces of differential operators.

For an operator A of order k and a degree bound K, the space
S = ker(A) intersected with degree-<= K polynomial fields is computed
exactly: A acts linearly on coefficient vectors, the matrix of that
action over the graded-lex bases has a closed form (each monomial
derivative is a falling factorial times a lower monomial), and its
rational nullspace is the kernel basis.  No sampling is involved, so the
result is a certificate, not evidence.

C-elliptic operators have finite-dimensional polynomial kernels whose
dimension stabilizes once K is large enough; kernel_dim_profile exposes
that stabilization, which corroborates (or refutes) the randomized
symbol probe from diffop.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import perm, prod

from . import linalg
from .diffop import DiffOperator
from .polyalg import MultiIndex, PolyVec, format_poly, format_rational, monomial_basis


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
    coefficients (dimV * |P_K|), both in the PolyVec layout.  Because

        d^alpha x^beta = beta!/(beta - alpha)! x^(beta - alpha)   (beta >= alpha)

    and 0 otherwise, the entry joining component v of x^beta to component
    w of x^(beta - alpha) is beta!/(beta - alpha)! * A_alpha[w][v]; every
    other entry is zero.  No entry is set twice: beta and beta - alpha
    determine alpha.
    """
    source = monomial_basis(A.n, K)
    target = monomial_basis(A.n, max(K - A.order, 0))
    zero = Fraction(0)
    rows = [[zero] * (A.dimV * source.size) for _ in range(A.dimW * target.size)]
    for j, beta in enumerate(source.exponents):
        for alpha, matrix in A.terms:
            if not beta.dominates(alpha):
                continue
            factor = prod(perm(b, a) for b, a in zip(beta.entries, alpha.entries))
            gamma = MultiIndex(tuple(b - a for b, a in zip(beta.entries, alpha.entries)))
            t = target.index_of(gamma)
            for w in range(A.dimW):
                for v in range(A.dimV):
                    if matrix[w][v] != 0:
                        rows[t * A.dimW + w][j * A.dimV + v] = factor * matrix[w][v]
    return rows


def kernel_basis(A: DiffOperator, K: int) -> KernelBasis:
    """Exact basis of the degree-<= K polynomial kernel of A.

    For K below the operator order every field is annihilated (the
    coefficient matrix is zero), so the full coefficient space comes back.
    Basis vectors follow the echelon convention (first nonzero coefficient
    equal to one) and are uniquely determined by A and K.
    """
    if K < 0:
        raise ValueError(f"need K >= 0, got {K}")
    source = monomial_basis(A.n, K)
    m = A.dimV * source.size
    vectors = linalg.nullspace(coefficient_matrix(A, K), m)
    basis = tuple(PolyVec(source, A.dimV, tuple(v)) for v in vectors)
    return KernelBasis(operator=A, K=K, basis=basis, m=m, rank=m - len(basis))


def kernel_dim_profile(A: DiffOperator, K_max: int) -> DimProfile:
    """Kernel dimension at each degree bound K = 0..K_max."""
    if K_max < 0:
        raise ValueError(f"need K_max >= 0, got {K_max}")
    return DimProfile(dims=tuple(kernel_basis(A, K).dim for K in range(K_max + 1)))


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
