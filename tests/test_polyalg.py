"""Exact polynomial algebra: bases, coefficient records,
differentiation, evaluation, formatting round trips."""

import dataclasses
import re
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from korncert.polyalg import (
    MultiIndex,
    PolyVec,
    compositions,
    differentiate,
    eval_poly,
    format_poly,
    format_rational,
    monomial_basis,
    parse_rational,
)
from polyfields import embed, poly

_TERM_RE = re.compile(r"^\(([^()]+)\)((?:\*x\d+(?:\^\d+)?)*) e_(\d+)$")
_FACTOR_RE = re.compile(r"\*x(\d+)(?:\^(\d+))?")


def parse_poly(text: str, basis, dimV: int) -> PolyVec:
    """Inverse of format_poly over the given basis."""
    text = text.strip()
    coeffs = [Fraction(0)] * (dimV * basis.size)
    chunks = [] if text == "0" else text.split(" + ")
    for chunk in chunks:
        m = _TERM_RE.match(chunk.strip())
        if m is None:
            raise ValueError(f"unparseable term: {chunk!r}")
        entries = [0] * basis.n
        for var, power in _FACTOR_RE.findall(m.group(2)):
            entries[int(var) - 1] += int(power) if power else 1
        comp = int(m.group(3)) - 1
        coeffs[basis.index_of(MultiIndex(tuple(entries))) * dimV + comp] += parse_rational(m.group(1))
    return PolyVec(basis, dimV, tuple(coeffs))


class TestRationals:
    def test_parse_forms(self):
        assert parse_rational(3) == Fraction(3)
        assert parse_rational("2/7") == Fraction(2, 7)
        assert parse_rational("-5") == Fraction(-5)
        assert parse_rational("0.25") == Fraction(1, 4)
        assert parse_rational(Fraction(9, 4)) == Fraction(9, 4)
        assert parse_rational(0.5) == Fraction(1, 2)

    def test_decimal_strings_are_exact(self):
        assert parse_rational("0.1") == Fraction(1, 10)
        assert parse_rational(" 1e-3 ") == Fraction(1, 1000)
        assert parse_rational("-2.5E2") == Fraction(-250)
        # Floats keep their binary value, which a decimal string rounds to.
        assert parse_rational(0.1) == Fraction(0.1) != Fraction(1, 10)
        assert float(parse_rational("0.1")) == 0.1

    def test_parse_rejects_garbage(self):
        for text in ("two thirds", "abc", "1/0", "0/0", ""):
            with pytest.raises(ValueError):
                parse_rational(text)

    def test_format_small_denominator(self):
        assert format_rational(Fraction(-3, 7)) == "-3/7"
        assert format_rational(Fraction(4)) == "4"

    def test_format_huge_denominator_falls_back_to_float(self):
        q = Fraction(1, 10**13) + Fraction(1, 3)
        text = format_rational(q)
        assert "/" not in text
        assert abs(float(text) - float(q)) < 1e-15


class TestMonomialBasis:
    def test_graded_order_n2_K2(self):
        basis = monomial_basis(2, 2)
        exps = [mi.entries for mi in basis.exponents]
        assert exps == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    @pytest.mark.parametrize("n,K", [(1, 0), (2, 3), (3, 2), (4, 5)])
    def test_size_is_binomial(self, n, K):
        assert monomial_basis(n, K).size == comb(n + K, K)

    def test_index_round_trip(self):
        basis = monomial_basis(3, 3)
        for j, mi in enumerate(basis.exponents):
            assert basis.index_of(mi) == j

    def test_index_rejects_foreign_monomial(self):
        basis = monomial_basis(2, 1)
        with pytest.raises(ValueError):
            basis.index_of(MultiIndex((2, 0)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_tables_match_an_independent_enumeration(self, n):
        # Every exponent tuple with entries up to 6, by degree and then
        # descending lex order.
        graded = sorted(
            (t for t in product(range(7), repeat=n) if sum(t) <= 6), key=lambda t: (sum(t), [-e for e in t])
        )
        for d in range(7):
            assert compositions(d, n) == tuple(t for t in graded if sum(t) == d)
            assert compositions(d, n) is compositions(d, n)
        for K in range(7):
            basis = monomial_basis(n, K)
            assert [mi.entries for mi in basis.exponents] == [t for t in graded if sum(t) <= K]
            assert monomial_basis(n, K) is basis
            table = basis.exponent_table
            assert table.tolist() == [list(t) for t in graded if sum(t) <= K]
            assert basis.exponent_table is table and not table.flags.writeable

    @pytest.mark.parametrize("n,K", [(0, 1), (2, -1)])
    def test_bad_arguments_raise_on_every_call(self, n, K):
        for _ in range(2):
            with pytest.raises(ValueError):
                monomial_basis(n, K)


class TestMultiIndex:
    def test_order(self):
        assert MultiIndex((2, 1)).order == 3
        assert len(MultiIndex((2, 1))) == 2

    def test_dominates(self):
        assert MultiIndex((2, 1)).dominates(MultiIndex((1, 1)))
        assert not MultiIndex((2, 0)).dominates(MultiIndex((1, 1)))

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            MultiIndex((1, -1))


class TestPolyVec:
    def test_eval_exact_rational_point(self):
        basis = monomial_basis(2, 2)
        # rho(x) = (x1^2 - x2, 3) evaluated at (1/2, 1/3)
        p = poly(
            basis, 2, {((2, 0), 0): 1, ((0, 1), 0): -1, ((0, 0), 1): 3}
        )
        value = eval_poly(p, (Fraction(1, 2), Fraction(1, 3)))
        assert value == (Fraction(-1, 12), Fraction(3))
        assert all(isinstance(v, Fraction) for v in value)

    def test_eval_float_point(self):
        basis = monomial_basis(2, 1)
        p = poly(basis, 1, {((1, 0), 0): 2})
        value = eval_poly(p, (0.25, 0.0))
        assert value == pytest.approx((0.5,))

    def test_eval_quadratic_field(self):
        # 2<a,x>x - |x|^2 a with a = e1, at (1,1): 2*(1,1) - 2*(1,0) = (0,2)
        basis = monomial_basis(2, 2)
        p = poly(
            basis,
            2,
            {
                ((2, 0), 0): 1,   # 2 x1^2 - (x1^2 + x2^2) = x1^2 - x2^2
                ((0, 2), 0): -1,
                ((1, 1), 1): 2,
            },
        )
        assert eval_poly(p, (1, 1)) == (Fraction(0), Fraction(2))

    def test_differentiate_exact(self):
        basis = monomial_basis(2, 3)
        p = poly(basis, 1, {((2, 1), 0): Fraction(1, 2)})
        d = differentiate(p, (1, 1))
        # d/dx1 d/dx2 of x1^2 x2 / 2 = x1
        assert d.coeffs == poly(monomial_basis(2, 1), 1, {((1, 0), 0): 1}).coeffs
        assert d.basis.K == 1

    def test_differentiate_past_degree_gives_zero(self):
        basis = monomial_basis(2, 1)
        p = poly(basis, 1, {((1, 0), 0): 1})
        d = differentiate(p, (2, 0))
        assert d.coeffs == (0,)
        assert d.basis.K == 0

    def test_coerced_zeros_are_fractions(self):
        p = PolyVec(monomial_basis(2, 1), 2, (0,) * 6)
        assert all(type(c) is Fraction and c == 0 for c in p.coeffs)

    def test_of_fractions_checks_the_length(self):
        basis = monomial_basis(2, 1)
        coeffs = (Fraction(1),) * 6
        assert PolyVec._of_fractions(basis, 2, coeffs).coeffs is coeffs
        for wrong in (coeffs[:5], coeffs + (Fraction(0),)):
            with pytest.raises(ValueError, match="expected 6 coefficients"):
                PolyVec._of_fractions(basis, 2, wrong)

    def test_slotted_record(self):
        # No per-instance __dict__: kernel bases hold many PolyVecs.
        basis = monomial_basis(2, 1)
        p = PolyVec._of_fractions(basis, 2, (Fraction(1),) * 6)
        assert not hasattr(p, "__dict__")
        assert (p.basis, p.dimV) == (basis, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.dimV = 3
        q = dataclasses.replace(p, coeffs=(1, 0, "1/2", 0, 0, 0))
        assert q.coeffs == (1, 0, Fraction(1, 2), 0, 0, 0)
        assert all(type(c) is Fraction for c in q.coeffs)
        assert q.basis is basis and p.coeffs == (Fraction(1),) * 6
        with pytest.raises(ValueError, match="expected 6 coefficients"):
            dataclasses.replace(p, coeffs=(1,))

    def test_from_floats_is_exact_with_one_shared_zero(self):
        values = [0.0, -0.0, 0.5, 1e-300, 5e-324]
        p = PolyVec.from_floats(monomial_basis(1, 4), 1, values)
        assert all(type(c) is Fraction and c == Fraction(v) for c, v in zip(p.coeffs, values))
        assert p.coeffs[0] is p.coeffs[1]

    def test_embed_preserves_identity(self):
        basis = monomial_basis(2, 1)
        p = poly(basis, 2, {((1, 0), 1): 5})
        q = embed(p, 3)
        assert q.basis.K == 3
        assert q.coeffs == poly(q.basis, 2, {((1, 0), 1): 5}).coeffs


class TestFormatting:
    def test_format_example(self):
        basis = monomial_basis(2, 2)
        p = poly(
            basis, 2, {((1, 1), 0): Fraction(-1, 2), ((0, 0), 1): 3}
        )
        assert format_poly(p) == "(3) e_2 + (-1/2)*x1*x2 e_1"

    def test_format_zero(self):
        basis = monomial_basis(2, 1)
        assert format_poly(PolyVec(basis, 2, (0,) * 6)) == "0"

    def test_parse_inverts_format(self):
        basis = monomial_basis(3, 2)
        p = poly(
            basis,
            3,
            {((2, 0, 0), 2): Fraction(7, 3), ((0, 1, 1), 0): -2, ((0, 0, 0), 1): 1},
        )
        assert parse_poly(format_poly(p), basis, 3).coeffs == p.coeffs


# -- property suites ---------------------------------------------------

_rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)


def _polyvecs(n: int, K: int, dimV: int):
    basis = monomial_basis(n, K)
    size = dimV * basis.size
    return st.lists(_rationals, min_size=size, max_size=size).map(
        lambda cs: PolyVec(basis, dimV, tuple(cs))
    )


_alphas = st.tuples(st.integers(0, 2), st.integers(0, 2)).map(MultiIndex)


@settings(max_examples=60, deadline=None)
@given(p=_polyvecs(2, 3, 2), q=_polyvecs(2, 3, 2), alpha=_alphas)
def test_differentiate_is_linear(p, q, alpha):
    total = PolyVec(p.basis, p.dimV, tuple(a + b for a, b in zip(p.coeffs, q.coeffs)))
    lhs = differentiate(total, alpha).coeffs
    rhs = tuple(a + b for a, b in zip(differentiate(p, alpha).coeffs, differentiate(q, alpha).coeffs))
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(p=_polyvecs(2, 4, 1), a=_alphas, b=_alphas)
def test_partial_derivatives_commute(p, a, b):
    ab = differentiate(differentiate(p, a), b)
    ba = differentiate(differentiate(p, b), a)
    assert ab.basis.K == ba.basis.K
    assert ab.coeffs == ba.coeffs


@settings(max_examples=60, deadline=None)
@given(p=_polyvecs(2, 3, 2))
def test_format_parse_round_trip(p):
    assert parse_poly(format_poly(p), p.basis, p.dimV).coeffs == p.coeffs


@settings(max_examples=40, deadline=None)
@given(
    p=_polyvecs(2, 2, 2),
    x=st.tuples(
        st.fractions(min_value=-3, max_value=3, max_denominator=8),
        st.fractions(min_value=-3, max_value=3, max_denominator=8),
    ),
)
def test_eval_commutes_with_addition(p, x):
    double = PolyVec(p.basis, p.dimV, tuple(2 * c for c in p.coeffs))
    left = eval_poly(double, x)
    right = tuple(2 * v for v in eval_poly(p, x))
    assert left == right
