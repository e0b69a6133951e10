"""Operators: construction, application, symbols, and the randomized
ellipticity probe."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from korncert.diffop import (
    CR_ONE,
    CR_ZERO,
    ComplexRational,
    SymbolMatrix,
    apply_operator,
    builtin_operator,
    custom_operator,
    ellipticity_probe,
    operator_from_json,
    operator_from_tensor4,
    symbol_matrix,
)
from korncert.linalg import P
from korncert.polyalg import MultiIndex, PolyVec, differentiate, eval_poly, monomial_basis
from polyfields import poly


class TestComplexRational:
    def test_arithmetic(self):
        i = ComplexRational(Fraction(0), Fraction(1))
        assert i * i == -1
        assert (CR_ONE + i) * (CR_ONE - i) == 2
        assert (CR_ONE / (CR_ONE + i)) == ComplexRational(Fraction(1, 2), Fraction(-1, 2))

    def test_equality_against_plain_numbers(self):
        assert ComplexRational(Fraction(3)) == 3
        assert ComplexRational(Fraction(3)) == Fraction(3)
        assert ComplexRational(Fraction(1), Fraction(2)) == complex(1, 2)
        assert ComplexRational(Fraction(0), Fraction(1)) != 0

    def test_zero_is_falsy(self):
        assert not CR_ZERO
        assert CR_ONE

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            _ = CR_ONE / CR_ZERO

    def test_str_forms(self):
        assert str(ComplexRational(Fraction(1, 2), Fraction(3))) == "1/2+3i"
        assert str(ComplexRational(Fraction(0), Fraction(-1))) == "-1i"
        assert str(CR_ONE) == "1"


class TestBuiltins:
    def test_grad_shape_and_kernel_of_constants(self):
        op = builtin_operator("grad", 3)
        assert (op.order, op.dimV, op.dimW) == (1, 3, 9)

    def test_div_is_scalar_valued(self):
        op = builtin_operator("div", 2)
        assert op.dimW == 1
        basis = monomial_basis(2, 1)
        p = poly(basis, 2, {((1, 0), 0): 1, ((0, 1), 1): 1})
        q = apply_operator(op, p)
        assert q.coeffs == (2,)

    def test_sym_grad_entries(self):
        # symmetric part of the Jacobian: entry (i,j) of eps(u) is
        # (d_j u_i + d_i u_j) / 2; the d_1 coefficient matrix rows follow
        # row-major (i, j) flattening.
        op = builtin_operator("sym_grad", 2)
        m = dict(op.terms)[MultiIndex((1, 0))]
        assert m[0][0] == 1           # eps_11 gets d_1 u_1
        assert m[1][1] == Fraction(1, 2)
        assert m[2][1] == Fraction(1, 2)
        assert m[3][1] == 0

    def test_dev_variants_subtract_trace(self):
        for name in ("dev_grad", "dev_sym_grad"):
            op = builtin_operator(name, 2)
            m = dict(op.terms)[MultiIndex((1, 0))]
            # W entry (0,0) carries d_1 u_1 - (1/2) div u
            assert m[0][0] == Fraction(1, 2)

    def test_grad_k_dimensions(self):
        op = builtin_operator("grad_k", 2, order=3)
        assert (op.order, op.dimV, op.dimW) == (3, 2, 16)
        assert op.name == "grad_3"

    def test_grad_k_rows_are_iterated_partials(self):
        # Row i * n^k + (j_1..j_k read in base n) holds d_{j_1}..d_{j_k} u_i.
        for n in (1, 2, 3):
            for k in (1, 2, 3):
                op = builtin_operator("grad_k", n, order=k)
                basis = monomial_basis(n, k)
                u = PolyVec(basis, n, tuple(Fraction(c + 1, 7) for c in range(n * basis.size)))
                du = apply_operator(op, u)
                for row in range(op.dimW):
                    i, rest = divmod(row, n**k)
                    alpha = [0] * n
                    for _ in range(k):
                        rest, j = divmod(rest, n)
                        alpha[j] += 1
                    assert du.coeffs[row] == differentiate(u, tuple(alpha)).coeffs[i]

    def test_sym_variants_need_n_at_least_2(self):
        for name in ("sym_grad", "dev_grad", "dev_sym_grad"):
            with pytest.raises(ValueError):
                builtin_operator(name, 1)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            builtin_operator("laplace", 2)

    def test_order_argument_only_for_grad_k(self):
        with pytest.raises(ValueError):
            builtin_operator("sym_grad", 2, order=2)


class TestCustomOperators:
    def test_tensor4_matches_sym_grad(self):
        n = 2
        tensor = [
            [
                [
                    [
                        (Fraction(1, 2) if (i == k and j == l) else Fraction(0))
                        + (Fraction(1, 2) if (j == k and i == l) else Fraction(0))
                        for l in range(n)
                    ]
                    for k in range(n)
                ]
                for j in range(n)
            ]
            for i in range(n)
        ]
        op = operator_from_tensor4(tensor)
        ref = builtin_operator("sym_grad", n)
        assert dict(op.terms) == dict(ref.terms)

    @pytest.mark.parametrize("name", ["grad", "sym_grad", "dev_grad", "dev_sym_grad"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_tensor4_reproduces_first_order_builtins(self, n, name):
        # A_{ijkl} is the entry of the d_l term in output row (i, j), column k.
        ref = builtin_operator(name, n)
        terms = dict(ref.terms)
        unit = [MultiIndex(tuple(int(m == l) for m in range(n))) for l in range(n)]
        tensor = [
            [[[terms[unit[l]][i * n + j][k] for l in range(n)] for k in range(n)] for j in range(n)]
            for i in range(n)
        ]
        assert operator_from_tensor4(tensor).to_json() == ref.to_json()

    def test_mixed_order_terms_rejected(self):
        with pytest.raises(ValueError):
            custom_operator(
                [
                    (MultiIndex((1, 0)), ((1,),)),
                    (MultiIndex((2, 0)), ((1,),)),
                ]
            )

    def test_duplicate_alpha_rejected(self):
        with pytest.raises(ValueError):
            custom_operator(
                [
                    (MultiIndex((1, 0)), ((1,),)),
                    (MultiIndex((1, 0)), ((2,),)),
                ]
            )

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            custom_operator([(MultiIndex((1, 0)), ((0,),))])

    def test_json_round_trip(self):
        op = builtin_operator("dev_sym_grad", 3)
        again = operator_from_json(op.to_json())
        assert dict(again.terms) == dict(op.terms)
        assert (again.order, again.dimV, again.dimW) == (op.order, op.dimV, op.dimW)


class TestApply:
    def test_sym_grad_annihilates_rotation(self):
        op = builtin_operator("sym_grad", 2)
        basis = monomial_basis(2, 1)
        rot = poly(basis, 2, {((0, 1), 0): -1, ((1, 0), 1): 1})
        assert not any(apply_operator(op, rot).coeffs)

    def test_dev_grad_annihilates_dilation(self):
        op = builtin_operator("dev_grad", 2)
        basis = monomial_basis(2, 1)
        dil = poly(basis, 2, {((1, 0), 0): 1, ((0, 1), 1): 1})
        assert not any(apply_operator(op, dil).coeffs)

    def test_grad_of_linear_field(self):
        op = builtin_operator("grad", 2)
        basis = monomial_basis(2, 1)
        p = poly(basis, 2, {((1, 0), 0): 2, ((0, 1), 0): 3})
        q = apply_operator(op, p)
        # Jacobian rows flatten row-major: entry (0,0) = 2, (0,1) = 3.
        assert q.coeffs == (2, 3, 0, 0)

    def test_against_finite_difference_oracle(self):
        """Independent check: central differences approximate each
        partial derivative; the exact application must agree at a
        generic point."""
        op = builtin_operator("dev_sym_grad", 2)
        basis = monomial_basis(2, 2)
        p = poly(
            basis,
            2,
            {
                ((2, 0), 0): Fraction(1, 3),
                ((1, 1), 1): -2,
                ((0, 1), 0): 5,
                ((0, 0), 1): 7,
            },
        )
        x0 = np.array([0.37, -0.81])
        h = 1e-5

        def u(x):
            return np.array([float(v) for v in eval_poly(p, tuple(x))])

        approx = np.zeros(op.dimW)
        for alpha, matrix in op.terms:
            if alpha.order == 1:
                axis = alpha.entries.index(1)
                e = np.zeros(2)
                e[axis] = h
                du = (u(x0 + e) - u(x0 - e)) / (2 * h)
            else:  # order 2 multi-indices for completeness
                raise AssertionError("first-order operator expected")
            m = np.array([[float(c) for c in row] for row in matrix])
            approx += m @ du

        exact = np.array([float(v) for v in eval_poly(apply_operator(op, p), tuple(x0))])
        assert np.max(np.abs(exact - approx)) < 1e-9

    def test_dimension_mismatch_rejected(self):
        op = builtin_operator("sym_grad", 2)
        basis = monomial_basis(2, 1)
        p = poly(basis, 3, {((1, 0), 0): 1})
        with pytest.raises(ValueError):
            apply_operator(op, p)


class TestSymbol:
    def test_sym_grad_symbol_column(self):
        op = builtin_operator("sym_grad", 2)
        sym = symbol_matrix(op, (0, 1))
        column = [row[0] for row in sym.matrix]
        assert column == [0, Fraction(1, 2), Fraction(1, 2), 0]

    def test_symbol_is_homogeneous(self):
        op = builtin_operator("grad_k", 2, order=3)
        xi = (Fraction(2), Fraction(-1))
        sym1 = symbol_matrix(op, xi)
        sym2 = symbol_matrix(op, tuple(3 * c for c in xi))
        scale = ComplexRational.of(3**3)
        for r1, r2 in zip(sym1.matrix, sym2.matrix):
            for a, b in zip(r1, r2):
                assert ComplexRational.of(a) * scale == ComplexRational.of(b)

    def test_symbol_kernel_for_degenerate_direction(self):
        op = builtin_operator("dev_sym_grad", 2)
        i = ComplexRational(Fraction(0), Fraction(1))
        sym = symbol_matrix(op, (CR_ONE, i))
        kernel = sym.kernel()
        assert len(kernel) == 1
        v = kernel[0]
        assert sym.apply(v) == (CR_ZERO,) * op.dimW


class TestProbe:
    def test_sym_grad_fully_elliptic(self):
        report = ellipticity_probe(builtin_operator("sym_grad", 3))
        assert report.elliptic and report.c_elliptic
        assert report.witness is None

    def test_dev_sym_grad_2d_not_c_elliptic(self):
        report = ellipticity_probe(builtin_operator("dev_sym_grad", 2))
        assert report.elliptic
        assert not report.c_elliptic
        w = report.witness
        assert w is not None
        # The deterministic first candidate xi = e1 + i e2 already
        # degenerates, and its kernel vector is (1, -i).
        assert w.xi == (CR_ONE, ComplexRational(Fraction(0), Fraction(1)))
        assert w.v == (CR_ONE, ComplexRational(Fraction(0), Fraction(-1)))

    def test_witness_satisfies_symbol_equation_exactly(self):
        op = builtin_operator("dev_sym_grad", 2)
        report = ellipticity_probe(op)
        sym = symbol_matrix(op, report.witness.xi)
        assert sym.apply(report.witness.v) == (CR_ZERO,) * op.dimW

    def test_probe_deterministic_in_seed(self):
        op = builtin_operator("sym_grad", 2)
        r1 = ellipticity_probe(op, trials=5, seed=11)
        r2 = ellipticity_probe(op, trials=5, seed=11)
        assert r1.to_json() == r2.to_json()

    def test_json_shape(self):
        obj = ellipticity_probe(builtin_operator("dev_sym_grad", 2)).to_json()
        assert obj["elliptic"] is True
        assert obj["c_elliptic"] is False
        assert obj["witness"]["xi"] == ["1", "1i"]
        assert obj["witness"]["v"] == ["1", "-1i"]

    def test_full_rank_mod_p_needs_no_exact_rank(self, monkeypatch):
        real = SymbolMatrix.rank
        calls = []
        monkeypatch.setattr(SymbolMatrix, "rank", lambda self: calls.append(self) or real(self))
        report = ellipticity_probe(builtin_operator("sym_grad", 3))
        assert report.elliptic and report.c_elliptic
        assert calls == []
        # A rank drop mod P still goes through exact elimination.
        w = ellipticity_probe(builtin_operator("dev_sym_grad", 2)).witness
        assert calls
        assert w.to_json() == {"xi": ["1", "1i"], "v": ["1", "-1i"]}

    def test_denominator_divisible_by_p_takes_the_exact_path(self, monkeypatch):
        # det [[1/P, 1], [1, P]] = 0, so every symbol xi * A is singular;
        # a residue that dropped the denominator would be [[1, 1], [1, 0]],
        # which has full rank.
        op = custom_operator([((1,), [[Fraction(1, P), 1], [1, P]])])
        real = SymbolMatrix.rank
        calls = []
        monkeypatch.setattr(SymbolMatrix, "rank", lambda self: calls.append(self) or real(self))
        report = ellipticity_probe(op, trials=3)
        assert len(calls) == 6
        assert not report.elliptic and not report.c_elliptic
        assert report.to_json() == _exact_probe(op, 3, 0)


def _exact_probe(A, trials: int, seed: int) -> dict:
    """Reference: the probe loop that takes every symbol's exact rank."""
    rng = random.Random(seed)

    def rand_xi(parts):
        while True:
            draws = [
                Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**6))
                for _ in range(parts * A.n)
            ]
            xi = [ComplexRational(*draws[c * parts : (c + 1) * parts]) for c in range(A.n)]
            if any(xi):
                return xi

    i_unit = ComplexRational(Fraction(0), Fraction(1))
    frequencies = [
        (False, [CR_ONE if m == 0 else i_unit if m == j else CR_ZERO for m in range(A.n)])
        for j in range(1, A.n)
    ]
    frequencies += [(False, rand_xi(2)) for _ in range(trials)]
    frequencies += [(True, rand_xi(1)) for _ in range(trials)]
    elliptic = c_elliptic = True
    witness = None
    for real, xi in frequencies:
        symbol = symbol_matrix(A, xi)
        if symbol.rank() < A.dimV:
            c_elliptic = False
            elliptic = elliptic and not real
            if witness is None:
                v = symbol.kernel()[0]
                witness = {"xi": [str(z) for z in symbol.xi], "v": [str(z) for z in v]}
    return {
        "elliptic": elliptic,
        "elliptic_trials": trials,
        "c_elliptic": c_elliptic,
        "c_elliptic_trials": trials,
        "witness": witness,
    }


# Mostly zeros, so that rank drops occur; P has residue 0, so it drops
# the rank mod P but not the exact rank.
_entries = st.sampled_from(
    [Fraction(0)] * 4 + [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(P)]
)
# Entries with a denominator divisible by P have no residue.
_no_residue = st.sampled_from([Fraction(1, P), Fraction(3, 2 * P)])


@st.composite
def _probe_operators(draw):
    kind = draw(st.sampled_from(["builtin", "grad_k", "tensor4", "custom"]))
    if kind == "builtin":
        name = draw(st.sampled_from(["grad", "div", "sym_grad", "dev_grad", "dev_sym_grad"]))
        return builtin_operator(name, draw(st.integers(2, 4)))
    if kind == "grad_k":
        return builtin_operator("grad_k", draw(st.integers(2, 4)), order=draw(st.integers(1, 3)))
    if kind == "tensor4":
        n = draw(st.integers(2, 3))
        flat = draw(st.lists(_entries, min_size=n**4, max_size=n**4).filter(any))
        it = iter(flat)
        r = range(n)
        return operator_from_tensor4([[[[next(it) for _ in r] for _ in r] for _ in r] for _ in r])
    n, order = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    dim_v, dim_w = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    alphas = [mi for mi in monomial_basis(n, order).exponents if mi.order == order]
    chosen = draw(st.lists(st.sampled_from(alphas), min_size=1, unique=True))
    entries = st.one_of(_entries, _no_residue) if draw(st.booleans()) else _entries
    row = st.lists(entries, min_size=dim_v, max_size=dim_v)
    matrices = draw(
        st.lists(
            st.lists(row, min_size=dim_w, max_size=dim_w),
            min_size=len(chosen),
            max_size=len(chosen),
        ).filter(lambda ms: any(v for m in ms for r in m for v in r))
    )
    return custom_operator(list(zip(chosen, matrices)))


@settings(max_examples=60, deadline=None)
@given(op=_probe_operators(), seed=st.integers(0, 2**32), trials=st.integers(1, 8))
@example(op=builtin_operator("dev_sym_grad", 2), seed=0, trials=8)
@example(op=builtin_operator("div", 3), seed=1, trials=2)
def test_probe_matches_exact_rank_loop(op, seed, trials):
    report = ellipticity_probe(op, trials=trials, seed=seed)
    assert report.to_json() == _exact_probe(op, trials, seed)


# -- property suite ----------------------------------------------------

_fractions = st.fractions(min_value=-8, max_value=8, max_denominator=6)


@settings(max_examples=40, deadline=None)
@given(
    c1=_fractions,
    c2=_fractions,
    data=st.data(),
)
def test_apply_operator_is_linear(c1, c2, data):
    op = builtin_operator("sym_grad", 2)
    basis = monomial_basis(2, 2)
    size = 2 * basis.size
    coeffs1 = data.draw(st.lists(_fractions, min_size=size, max_size=size))
    coeffs2 = data.draw(st.lists(_fractions, min_size=size, max_size=size))
    combo = PolyVec(basis, 2, tuple(c1 * a + c2 * b for a, b in zip(coeffs1, coeffs2)))
    lhs = apply_operator(op, combo).coeffs
    ap = apply_operator(op, PolyVec(basis, 2, tuple(coeffs1))).coeffs
    aq = apply_operator(op, PolyVec(basis, 2, tuple(coeffs2))).coeffs
    assert lhs == tuple(c1 * a + c2 * b for a, b in zip(ap, aq))
