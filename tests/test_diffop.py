"""Operators: construction, application, symbols, and the randomized
ellipticity probe."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import korncert.diffop
import korncert.linalg
from korncert.diffop import (
    CR_ONE,
    CR_ZERO,
    ComplexRational,
    SymbolMatrix,
    _full_rank_mod_p,
    _rational_draws,
    _row_terms,
    apply_operator,
    builtin_operator,
    custom_operator,
    ellipticity_probe,
    operator_from_json,
    operator_from_tensor4,
    symbol_matrix,
)
from korncert.linalg import I, P
from korncert.polyalg import MultiIndex, PolyVec, differentiate, eval_poly, monomial_basis
from polyfields import poly


class TestComplexRational:
    def test_equality_against_plain_numbers(self):
        assert ComplexRational(Fraction(3)) == 3
        assert ComplexRational(Fraction(3)) == Fraction(3)
        assert ComplexRational(Fraction(1), Fraction(2)) == complex(1, 2)
        assert ComplexRational(Fraction(0), Fraction(1)) != 0

    def test_zero_is_falsy(self):
        assert not CR_ZERO
        assert CR_ONE

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

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize(
        "name, order",
        [("grad", None), ("div", None), ("sym_grad", None), ("dev_grad", None), ("dev_sym_grad", None)]
        + [("grad_k", k) for k in (1, 2, 3)],
    )
    def test_builtins_match_their_defining_formulas(self, name, order, n):
        assert builtin_operator(name, n, order).to_json() == _reference_builtin(name, n, order)

    @pytest.mark.parametrize(
        "name, n, order",
        [("grad", 3, None), ("div", 2, None), ("sym_grad", 3, None), ("dev_grad", 2, None)]
        + [("dev_sym_grad", 3, None), ("grad_k", 2, 3), ("grad_k", 1, 1)],
    )
    def test_equal_arguments_give_the_identical_operator(self, name, n, order):
        op = builtin_operator(name, n, order)
        wide = None if order is None else np.int64(order)
        assert builtin_operator(name, np.int64(n), wide) is op
        assert builtin_operator(name, n=n, order=order) is op
        # The memo hands out what a fresh build gives.
        assert op == korncert.diffop._builtin_operator.__wrapped__(name, n, order)
        assert type(op.n) is int

    @pytest.mark.parametrize(
        "args, message",
        [
            (("grad", True), r"^n must be an int, got True$"),
            (("grad", 1.0), r"^n must be an int, got 1\.0$"),
            (("grad_k", 1, True), r"^order must be an int, got True$"),
            (("grad_k", 1, 1.0), r"^order must be an int, got 1\.0$"),
            (("grad_k", 1), r"^order must be an int, got None$"),
            (("curl", 1), r"^unknown operator name: curl$"),
            (("grad", 1, 1), r"^grad does not take an order argument$"),
        ],
    )
    def test_invalid_arguments_raise_on_every_call_and_stay_out_of_the_memo(self, args, message):
        # True == 1 and 1.0 == 1 as memo keys, so each check comes first:
        # a valid (name, 1, ...) already in the memo lets none through.
        builtin_operator("grad", 1)
        builtin_operator("grad_k", 1, 1)
        memo = korncert.diffop._builtin_operator
        size = memo.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                builtin_operator(*args)
        assert memo.cache_info().currsize == size


def _reference_builtin(name: str, n: int, order: int | None) -> dict:
    """to_json() of a builtin, from its defining formula: the entry
    joining input component k to output row w in the d^alpha term."""

    def d(a, b):
        return Fraction(int(a == b))

    def first_order(entry):
        # Output rows (i, j), row-major; alpha = e_l.
        return lambda alpha, w, k: entry(*divmod(w, n), k, alpha.index(1))

    formulas = {
        # (grad u)_ij = d_j u_i
        "grad": first_order(lambda i, j, k, l: d(i, k) * d(j, l)),
        # (sym_grad u)_ij = (d_j u_i + d_i u_j) / 2
        "sym_grad": first_order(lambda i, j, k, l: (d(i, k) * d(j, l) + d(j, k) * d(i, l)) / 2),
        # (dev_grad u)_ij = d_j u_i - delta_ij div u / n
        "dev_grad": first_order(lambda i, j, k, l: d(i, k) * d(j, l) - d(i, j) * d(k, l) / n),
        "dev_sym_grad": first_order(
            lambda i, j, k, l: (d(i, k) * d(j, l) + d(j, k) * d(i, l)) / 2 - d(i, j) * d(k, l) / n
        ),
        # div u = sum_k d_k u_k
        "div": lambda alpha, w, k: d(alpha.index(1), k),
    }
    k = order or 1
    if name == "grad_k":
        # Row (i, j_1..j_k), row-major, holds d_{j_1}..d_{j_k} u_i.
        rows = list(itertools.product(range(n), repeat=k + 1))
        dim_w = len(rows)

        def entry(alpha, w, c):
            i, *js = rows[w]
            return d(i, c) * d(tuple(js.count(m) for m in range(n)), alpha)

    else:
        dim_w = 1 if name == "div" else n * n
        entry = formulas[name]
    alphas = sorted((a for a in itertools.product(range(k + 1), repeat=n) if sum(a) == k), reverse=True)
    return {
        "order": k,
        "dimV": n,
        "dimW": dim_w,
        "terms": [
            {
                "alpha": list(alpha),
                "matrix": [[str(entry(alpha, w, c)) for c in range(n)] for w in range(dim_w)],
            }
            for alpha in alphas
        ],
    }


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
        # scale 2 and d = 1: re + i im = 2 A[xi].
        op = builtin_operator("sym_grad", 2)
        sym = symbol_matrix(op, (0, 1))
        assert sym.factor == 2
        assert [row[0] for row in sym.re] == [0, 1, 1, 0]
        assert not any(any(row) for row in sym.im)
        # xi = (1/2, i/3): d = 6, so factor = 6 * 2 and column 0 of A[xi],
        # (1/2, i/6, i/6, 0), is (6, 2i, 2i, 0) / 12.
        sym = symbol_matrix(op, (Fraction(1, 2), ComplexRational(Fraction(0), Fraction(1, 3))))
        assert sym.factor == 12
        assert [row[0] for row in sym.re] == [6, 0, 0, 0]
        assert [row[0] for row in sym.im] == [0, 2, 2, 0]

    def test_symbol_is_homogeneous(self):
        # A[3 xi] = 27 A[xi], though the two forms have factors
        # 6^3 and 2^3 (d = 6 and d = 2).
        op = builtin_operator("grad_k", 2, order=3)
        xi = (Fraction(2, 3), Fraction(-1, 2))
        sym1 = symbol_matrix(op, xi)
        sym2 = symbol_matrix(op, tuple(3 * c for c in xi))
        assert (sym1.factor, sym2.factor) == (6**3, 2**3)
        for form1, form2 in ((sym1.re, sym2.re), (sym1.im, sym2.im)):
            for r1, r2 in zip(form1, form2):
                for a, b in zip(r1, r2):
                    assert 27 * Fraction(a, sym1.factor) == Fraction(b, sym2.factor)

    def test_symbol_kernel_for_degenerate_direction(self):
        op = builtin_operator("dev_sym_grad", 2)
        i = ComplexRational(Fraction(0), Fraction(1))
        sym = symbol_matrix(op, (CR_ONE, i))
        kernel = sym.kernel()
        assert len(kernel) == 1
        v = kernel[0]
        assert sym.apply(v) == (CR_ZERO,) * op.dimW


class TestProbe:
    def test_passing_screen_does_no_exact_work(self, monkeypatch):
        ops = [builtin_operator(name, 3) for name in ("grad", "sym_grad", "dev_grad", "dev_sym_grad")]
        ops.append(builtin_operator("grad_k", 2, order=3))
        # Proven without a draw above; these two are screened.
        ops += [builtin_operator("sym_grad", 5), builtin_operator("dev_sym_grad", 4)]
        calls = []

        class CountedComplexRational(ComplexRational):
            def __init__(self, *args, **kwargs):
                calls.append("ComplexRational")
                super().__init__(*args, **kwargs)

        def counted_symbol_matrix(*args, **kwargs):
            calls.append("symbol_matrix")
            return symbol_matrix(*args, **kwargs)

        monkeypatch.setattr(korncert.diffop, "ComplexRational", CountedComplexRational)
        monkeypatch.setattr(korncert.diffop, "symbol_matrix", counted_symbol_matrix)
        for op in ops:
            for seed in range(4):
                report = ellipticity_probe(op, seed=seed)
                assert report.elliptic and report.c_elliptic
        assert calls == []
        # A rank drop is settled exactly, through both counted calls.
        w = ellipticity_probe(builtin_operator("dev_sym_grad", 2)).witness
        assert {"ComplexRational", "symbol_matrix"} <= set(calls)
        assert w.xi == (CR_ONE, ComplexRational(Fraction(0), Fraction(1)))
        assert w.v == (CR_ONE, ComplexRational(Fraction(0), Fraction(-1)))

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
        # Proven, and screened: sym_grad on R^5 is above the search's bound.
        for n in (3, 5):
            report = ellipticity_probe(builtin_operator("sym_grad", n))
            assert report.elliptic and report.c_elliptic
        assert calls == []
        # A rank drop mod P still goes through exact elimination.
        w = ellipticity_probe(builtin_operator("dev_sym_grad", 2)).witness
        assert calls
        assert w.to_json() == {"xi": ["1", "1i"], "v": ["1", "-1i"]}

    def test_denominator_divisible_by_p_takes_the_exact_path(self, monkeypatch):
        # Both terms map (P, -1) to 0, so every symbol is singular, while
        # their rows side by side are independent: output_basis does not
        # settle it by shape.  A residue that dropped the denominator
        # would be [[xi_1 + xi_2, xi_1], [xi_1, 0]], which has full rank
        # wherever xi_1 != 0.
        op = custom_operator([((1, 0), [[Fraction(1, P), 1], [1, P]]), ((0, 1), [[1, P], [0, 0]])])
        assert op.output_basis == (0, 1)
        real = SymbolMatrix.rank
        calls = []
        monkeypatch.setattr(SymbolMatrix, "rank", lambda self: calls.append(self) or real(self))
        report = ellipticity_probe(op, trials=3)
        # e_1 + i e_2, the complex and the real draws, and the two axes.
        assert len(calls) == 1 + 3 + 3 + 2
        assert not report.elliptic and not report.c_elliptic
        assert report.to_json() == _exact_probe(op, 3, 0)

    def test_denominator_divisible_by_p_is_screened_mod_p(self, monkeypatch):
        # The search and the screen read scale * A, here the identity, so
        # the scale P costs no exact elimination, proven or, with no block
        # searched, sampled.
        op = custom_operator([((1,), [[Fraction(1, P), 0], [0, Fraction(1, P)]])])
        real = SymbolMatrix.rank
        calls = []
        monkeypatch.setattr(SymbolMatrix, "rank", lambda self: calls.append(self) or real(self))
        for columns in (korncert.diffop._PROOF_BLOCK_COLUMNS, 0):
            monkeypatch.setattr(korncert.diffop, "_PROOF_BLOCK_COLUMNS", columns)
            report = ellipticity_probe(op, trials=3)
            assert calls == []
            assert report.elliptic and report.c_elliptic
            assert report.to_json() == _exact_probe(op, 3, 0)
            calls.clear()

    def test_probe_screens_the_last_minor_first(self, monkeypatch):
        # sym_grad on R^5, whose first trivial block has 75 columns, more
        # than the search takes: the first frequency is screened on the
        # 15 rows of output_basis, and every later draw on the 5 rows of
        # the minor that settled the one before.  So is e_1, the first
        # axis; at each later axis the minor of the axis before vanishes,
        # and output_basis settles it.
        widths = []
        real = korncert.linalg.pivots_mod_p
        monkeypatch.setattr(
            korncert.linalg, "pivots_mod_p", lambda m, ncols: widths.append(ncols) or real(m, ncols)
        )
        op = builtin_operator("sym_grad", 5)
        assert len(op.output_basis) == 15
        assert ellipticity_probe(op, trials=4).to_json() == _exact_probe(op, 4, 0)
        assert widths == [15] + [5] * (4 + 2 * 4 - 1) + [5] + [5, 15] * 4

    def test_a_vanishing_minor_falls_back_to_output_basis(self):
        # The gradient of a scalar on R^2 at xi = (0, 1): row 0 is zero,
        # so the minor on it proves nothing, and output_basis finds row 1.
        op = custom_operator([((1, 0), [[1], [0]]), ((0, 1), [[0], [1]])], name="grad")
        xi = [(0, 1), (0, 1), (1, 1), (0, 1)]
        assert _full_rank_mod_p(op, xi, (0,), _row_terms(op, (0,))) is None
        assert op.output_basis == (0, 1)
        assert _full_rank_mod_p(op, xi, op.output_basis, _row_terms(op, op.output_basis)) == (1,)

    def test_fewer_independent_outputs_than_inputs_is_deficient_by_shape(self, monkeypatch):
        # rank A[xi] <= len(output_basis) = 1 < dimV = 2 at every xi,
        # though dimW = dimV: no frequency needs a rank.
        op = _REPEATED_ROW
        assert (op.output_basis, op.dimW, op.dimV) == ((0,), 2, 2)
        real = SymbolMatrix.rank
        calls = []
        monkeypatch.setattr(SymbolMatrix, "rank", lambda self: calls.append(self) or real(self))
        report = ellipticity_probe(op)
        assert calls == []
        assert report.to_json() == _exact_probe(op, 8, 0)
        assert not report.elliptic and not report.c_elliptic

    def test_the_search_ends_on_its_column_sum(self, monkeypatch):
        # The partial gradient on R^3: every block has x_3^d in its
        # kernel.  The tall ones, of degrees 2, 3 and 4, take 6 + 10 + 15
        # = 31 columns; degree 5 would take 21 more, past 50, so the
        # search ends there and the probe samples.
        degrees = []
        real = korncert.diffop.degree_block
        monkeypatch.setattr(
            korncert.diffop, "degree_block", lambda A, d, rows: degrees.append(d) or real(A, d, rows)
        )
        assert korncert.diffop._PROOF_BLOCK_COLUMNS == 50
        op = _PARTIAL_GRADIENT
        assert ellipticity_probe(op, trials=3).to_json() == _exact_probe(op, 3, 0)
        assert degrees == [2, 3, 4]

    def test_a_one_variable_search_assembles_one_block(self, monkeypatch):
        # d/dx (u1, u2) -> (P u1', u2'): every block is d diag(P, 1), of
        # full rank but of rank 1 mod P, so the first one settles the
        # search, within a bound that would admit 25 of them.
        op = custom_operator([((1,), [[P, 0], [0, 1]])])
        degrees = []
        real = korncert.diffop.degree_block
        monkeypatch.setattr(
            korncert.diffop, "degree_block", lambda A, d, rows: degrees.append(d) or real(A, d, rows)
        )
        report = ellipticity_probe(op, trials=3)
        assert degrees == [1]
        assert report.to_json() == _exact_probe(op, 3, 0)
        assert report.elliptic and report.c_elliptic

    def test_the_coordinate_axes_catch_the_partial_gradient(self):
        # Its symbol (xi_1, xi_2) vanishes on the x_3 axis, which no
        # random draw hits: the axes, drawn last, give the witness.
        report = ellipticity_probe(_PARTIAL_GRADIENT)
        assert not report.elliptic and not report.c_elliptic
        assert report.witness.to_json() == {"xi": ["0", "0", "1"], "v": ["1"]}
        assert report.to_json() == _exact_probe(_PARTIAL_GRADIENT, 8, 0)

    @pytest.mark.parametrize(
        "name, n, order, proven",
        [
            *((name, n, None, True) for name, n in (("sym_grad", 2), ("sym_grad", 3), ("dev_grad", 2))),
            *((name, 3, None, True) for name in ("dev_grad", "dev_sym_grad")),
            ("grad_k", 2, 3, True),
            ("grad", 1, None, True),
            ("dev_sym_grad", 2, None, False),
            ("div", 3, None, False),
            ("dev_sym_grad", 4, None, False),
        ],
    )
    def test_a_trivial_block_proves_the_report_without_sampling(self, monkeypatch, name, n, order, proven):
        # The five shipped-config operators, grad_k of order 3 on R^2 and
        # grad on R^1 have a trivial block of at most 30 columns, so the
        # probe neither draws nor screens.  dev_sym_grad on R^2 and div on
        # R^3 are not C-elliptic, and the first trivial block of
        # dev_sym_grad on R^4 has 80 columns: all three draw, and each one
        # with as many independent outputs as inputs screens.
        calls = []
        for fn in ("_full_rank_mod_p", "_rational_draws"):
            real = getattr(korncert.diffop, fn)
            monkeypatch.setattr(
                korncert.diffop, fn, lambda *args, _real=real, _fn=fn: calls.append(_fn) or _real(*args)
            )
        op = builtin_operator(name, n, order)
        for seed, trials in ((0, 8), (3, 1), (7, 3)):
            calls.clear()
            assert ellipticity_probe(op, trials=trials, seed=seed).to_json() == _exact_probe(op, trials, seed)
            if proven:
                assert calls == []
            elif len(op.output_basis) >= op.dimV:
                assert set(calls) == {"_rational_draws", "_full_rank_mod_p"}
            else:
                assert set(calls) == {"_rational_draws"}


# u -> (d_1 u, d_2 u) on R^3, whose symbol vanishes at e_3.
_PARTIAL_GRADIENT = custom_operator([((1, 0, 0), [[1], [0]]), ((0, 1, 0), [[0], [1]])])
# Row 1 repeats row 0 in both terms, so output_basis is (0,) though dimW = dimV = 2.
_REPEATED_ROW = custom_operator([((1, 0), [[1, 2], [1, 2]]), ((0, 1), [[0, 1], [0, 1]])])
# output_basis smaller than dimW: symmetric, deviatoric and higher-order
# outputs, and a copy of an output row.
_DEPENDENT_ROWS = [
    builtin_operator("sym_grad", 2),
    builtin_operator("sym_grad", 3),
    builtin_operator("dev_sym_grad", 2),
    builtin_operator("dev_sym_grad", 3),
    builtin_operator("grad_k", 2, order=2),
    _REPEATED_ROW,
    custom_operator([((1, 0), [[1, 2], [0, 1], [1, 2]]), ((0, 1), [[0, 1], [3, 0], [0, 1]])]),
]


@pytest.mark.parametrize("op", _DEPENDENT_ROWS, ids=lambda op: f"{op.name}{op.n}")
def test_probe_matches_exact_rank_loop_on_more_seeds(op):
    assert len(op.output_basis) < op.dimW
    for seed in range(10):
        assert ellipticity_probe(op, trials=3, seed=seed).to_json() == _exact_probe(op, 3, seed), seed


@pytest.mark.parametrize("bound", [1, 2, 10**6, 2**61])
def test_rational_draws_are_the_randint_stream(bound):
    # The probe's draws, and with them every probe report, are the
    # integers randint gives, drawn alternately; CI runs this on each
    # Python it supports.
    for seed in range(200):
        want = random.Random(seed)
        expected = [(want.randint(-bound, bound), want.randint(1, bound)) for _ in range(6)]
        rng = random.Random(seed)
        assert _rational_draws(rng, bound, 6) == expected
        assert rng.getstate() == want.getstate()


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
    frequencies += [(True, [CR_ONE if m == j else CR_ZERO for m in range(A.n)]) for j in range(A.n)]
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
# Entries with a denominator divisible by P put P into the operator's
# scale, so mod P the screen sees only them: every other entry of
# scale * A is a multiple of P.
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
@example(op=custom_operator([((2, 0), [[1]]), ((0, 2), [[1]])], name="laplacian"), seed=0, trials=2)
# Each branch of the search: a proof at once, a proof mod P through the
# scale, no block within the bound, and square or tall blocks that all
# have x_3^d in their kernel, so the probe samples, and reports the
# partial gradient not elliptic, with the witness e_3 from the axes.
@example(op=builtin_operator("grad", 1), seed=0, trials=8)
@example(op=custom_operator([((1,), [[Fraction(1, P), 0], [0, Fraction(1, P)]])]), seed=2, trials=3)
@example(op=builtin_operator("dev_sym_grad", 4), seed=0, trials=8)
@example(op=_PARTIAL_GRADIENT, seed=0, trials=8)
def test_probe_matches_exact_rank_loop(op, seed, trials):
    report = ellipticity_probe(op, trials=trials, seed=seed)
    assert report.to_json() == _exact_probe(op, trials, seed)


def _sympy_symbol(op, xi) -> sympy.Matrix:
    """Reference: A[xi] over Q(i), built from the rational terms."""
    z = [_sympy_number(c) for c in xi]
    symbol = sympy.zeros(op.dimW, op.dimV)
    for alpha, matrix in op.terms:
        power = sympy.Mul(*[c**e for c, e in zip(z, alpha.entries)])
        rows = [[sympy.Rational(m.numerator, m.denominator) for m in row] for row in matrix]
        symbol += power * sympy.Matrix(rows)
    return symbol.expand()


def _sympy_number(c: ComplexRational):
    return sympy.Rational(c.re.numerator, c.re.denominator) + sympy.I * sympy.Rational(
        c.im.numerator, c.im.denominator
    )


# Small parts, so that rank drops occur (the zero frequency among them),
# and the probe's parts, whose denominators run up to 10^6.
_parts = st.one_of(
    st.sampled_from([Fraction(0), Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)]),
    st.fractions(min_value=-10, max_value=10, max_denominator=10**6),
)


@settings(max_examples=60, deadline=None)
@given(op=_probe_operators(), data=st.data())
def test_symbol_matches_sympy_over_gaussian_rationals(op, data):
    # The probe's family e_1 + i e_j, then one random complex frequency.
    i_unit = ComplexRational(Fraction(0), Fraction(1))
    frequencies = [
        [CR_ONE if m == 0 else i_unit if m == j else CR_ZERO for m in range(op.n)] for j in range(1, op.n)
    ]
    frequencies.append([ComplexRational(data.draw(_parts), data.draw(_parts)) for _ in range(op.n)])
    for xi in frequencies:
        sym = symbol_matrix(op, xi)
        want = _sympy_symbol(op, xi)
        got = sympy.Matrix(sym.re) + sympy.I * sympy.Matrix(sym.im)
        assert (got - sym.factor * want).expand() == sympy.zeros(op.dimW, op.dimV)
        assert sym.rank() == want.rank()
        kernel = sym.kernel()
        reference = want.nullspace()
        assert len(kernel) == len(reference)
        columns = [sympy.Matrix([_sympy_number(c) for c in v]) for v in kernel]
        if reference:
            assert sympy.Matrix.hstack(*columns, *reference).rank() == len(reference)
        for v in kernel:
            assert next(c for c in v if c) == 1
            assert sym.apply(v) == (CR_ZERO,) * op.dimW


@st.composite
def _small_first_order(draw):
    """First-order operators with integer entries |m| <= 3 on R^n, n <= 3,
    and dimV <= 3 <= dimW <= 4."""
    n, dim_v, dim_w = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(3, 4))
    alphas = [tuple(int(i == l) for i in range(n)) for l in range(n)]
    chosen = draw(st.lists(st.sampled_from(alphas), min_size=1, unique=True))
    row = st.lists(st.integers(-3, 3), min_size=dim_v, max_size=dim_v)
    matrices = draw(
        st.lists(
            st.lists(row, min_size=dim_w, max_size=dim_w), min_size=len(chosen), max_size=len(chosen)
        ).filter(lambda ms: any(v for m in ms for r in m for v in r))
    )
    return custom_operator(list(zip(chosen, matrices)))


# Parts with numerators up to 5 and denominators up to 3: the real and
# imaginary part of each coordinate in turn, the first 2n of them.
_small_parts = st.lists(st.tuples(st.integers(-5, 5), st.integers(1, 3)), min_size=6, max_size=6)


@settings(max_examples=100, deadline=None)
@given(op=_small_first_order(), parts=_small_parts)
@example(op=builtin_operator("dev_sym_grad", 2), parts=[(1, 1), (0, 1), (0, 1), (1, 1), (0, 1), (0, 1)])
def test_screen_decides_small_symbols_exactly(op, parts):
    xi = parts[: 2 * op.n]
    fractions = [Fraction(p, q) for p, q in xi]
    sym = symbol_matrix(op, list(map(ComplexRational, fractions[::2], fractions[1::2])))
    # Hadamard: a dimV-minor of the Gaussian-integer symbol re + i im has
    # a norm of at most the product of its columns' squared lengths.  The
    # residue map a + ib -> a + I b (mod P) sends a Gaussian integer to 0
    # only when P divides its norm, so below P a nonzero minor stays
    # nonzero mod P, and the screen's answer is the exact one, on all
    # output rows and on output_basis alike: a minor of some of the rows
    # is a minor of them all.
    columns = zip(zip(*sym.re), zip(*sym.im))
    assert math.prod(sum(x * x + y * y for x, y in zip(*column)) for column in columns) < P
    for rows in (tuple(range(op.dimW)), op.output_basis):
        assert (_full_rank_mod_p(op, xi, rows, _row_terms(op, rows)) is not None) == (sym.rank() == op.dimV)


def _pivots_mod_p_reference(matrix, ncols):
    """Pivot columns mod P by textbook elimination: each pivot row is
    scaled to a leading one by its inverse mod P."""
    rows = [[v % P for v in row] for row in matrix]
    pivots = []
    for col in range(ncols):
        found = next((r for r in range(len(pivots), len(rows)) if rows[r][col]), None)
        if found is None:
            continue
        k = len(pivots)
        rows[k], rows[found] = rows[found], rows[k]
        inverse = pow(rows[k][col], -1, P)
        rows[k] = [v * inverse % P for v in rows[k]]
        for r in range(k + 1, len(rows)):
            f = rows[r][col]
            rows[r] = [(a - f * b) % P for a, b in zip(rows[r], rows[k])]
        pivots.append(col)
    return pivots


def _full_image_screen(op, xi, rows):
    """Reference screen: the residue image of every integer_terms entry,
    dimV x dimW, then the columns of the given rows."""
    d = math.lcm(*(q for _, q in xi))
    z = [p * (d // q) for p, q in xi]
    residues = [(a + I * b) % P for a, b in zip(z[::2], z[1::2])]
    image = [[0] * op.dimW for _ in range(op.dimV)]
    for alpha, entries in op.integer_terms:
        x = math.prod(pow(r, e, P) for r, e in zip(residues, alpha.entries)) % P
        for w, v, m in entries:
            image[v][w] += x * m
    pivots = _pivots_mod_p_reference([[row[w] for w in rows] for row in image], len(rows))
    return tuple(rows[c] for c in pivots) if len(pivots) == op.dimV else None


_SCREENED = [
    builtin_operator(name, n, order)
    for name, n, order in [
        *((name, n, None) for name in ("grad", "div") for n in (1, 2, 3)),
        *((name, n, None) for name in ("sym_grad", "dev_grad", "dev_sym_grad") for n in (2, 3)),
        ("grad_k", 1, 2),
        ("grad_k", 2, 1),
        ("grad_k", 2, 2),
        ("grad_k", 2, 3),
        ("grad_k", 3, 2),
    ]
] + [
    _DEPENDENT_ROWS[-1],
    # Second order, every row in every term, row 3 = row 1 + row 2.
    custom_operator(
        [
            ((2, 0), [[1, 0], [0, 1], [1, 1]]),
            ((1, 1), [[0, 1], [-1, 0], [-1, 1]]),
            ((0, 2), [[1, 0], [0, 2], [1, 2]]),
        ]
    ),
    # The wave operator twice: its symbol vanishes where xi_1 = +-xi_2.
    custom_operator([((2, 0), [[1], [2]]), ((0, 2), [[-1], [-2]])], name="wave"),
]

# Parts small enough to make minors vanish, or probe-sized ones.
_screen_parts = st.one_of(
    st.tuples(st.integers(-2, 2), st.integers(1, 2)),
    st.tuples(st.integers(-(10**6), 10**6), st.integers(1, 10**6)),
)


@settings(max_examples=200, deadline=None)
@given(
    op=st.sampled_from(_SCREENED),
    real=st.booleans(),
    parts=st.lists(_screen_parts, min_size=6, max_size=6),
    picks=st.lists(st.integers(0, 26), min_size=1),
)
@example(op=_SCREENED[-1], real=True, parts=[(1, 1), (0, 1), (-1, 1), (0, 1), (0, 1), (0, 1)], picks=[1])
def test_screen_on_its_rows_matches_the_full_image(op, real, parts, picks):
    xi = [(0, 1) if real and c % 2 else part for c, part in enumerate(parts[: 2 * op.n])]
    # The rows in the order picked, each once.
    picked = tuple(dict.fromkeys(k % op.dimW for k in picks))
    for rows in (op.output_basis, tuple(range(op.dimW)), picked):
        assert _full_rank_mod_p(op, xi, rows, _row_terms(op, rows)) == _full_image_screen(op, xi, rows)


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
