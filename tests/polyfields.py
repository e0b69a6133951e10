"""Building PolyVec fields in tests: from a term dict, and re-read in a
larger degree basis; and format_poly's text built term by term."""

from fractions import Fraction

from korncert.polyalg import MultiIndex, PolyVec, format_rational, monomial_basis


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


def format_poly_reference(p):
    """format_poly's text, joined coefficient by coefficient with each
    monomial's factors built where it is used."""
    parts = []
    for j, mi in enumerate(p.basis.exponents):
        for c in range(p.dimV):
            q = p.coeffs[j * p.dimV + c]
            if q == 0:
                continue
            factors = "".join(f"*x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(mi.entries) if e > 0)
            parts.append(f"({format_rational(q)}){factors} e_{c + 1}")
    return " + ".join(parts) if parts else "0"
