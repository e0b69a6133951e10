"""Building PolyVec fields in tests: from a term dict, and re-read in a
larger degree basis."""

from fractions import Fraction

from korncert.polyalg import MultiIndex, PolyVec, monomial_basis


def poly(basis, dimV, terms):
    """The field with {(exponent tuple, component): coefficient}."""
    coeffs = [Fraction(0)] * (dimV * basis.size)
    for (mono, comp), value in terms.items():
        coeffs[basis.index_of(MultiIndex(tuple(mono))) * dimV + comp] += Fraction(value)
    return PolyVec(basis, dimV, tuple(coeffs))


def embed(p, K):
    """p in the degree-K basis, K >= p.basis.K.  Graded-lex bases nest,
    so the degree-K coefficients extend p's by zeros."""
    target = monomial_basis(p.basis.n, K)
    return PolyVec(target, p.dimV, p.coeffs + (Fraction(0),) * (p.dimV * (target.size - p.basis.size)))
