"""Exact polynomial kernels: dimensions, bases, degree profiles.

The dimension table is cross-checked against an independent sympy
oracle that builds the constraint system by symbolic differentiation
and counts free parameters, so the two implementations share nothing
but the operator definition.
"""

import copy
import dataclasses
import hashlib
import json
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import korncert.kernel
import korncert.linalg
from korncert.cli import build_operator
from korncert.diffop import (
    apply_operator,
    builtin_operator,
    custom_operator,
    ellipticity_probe,
    operator_from_tensor4,
)
from korncert.kernel import (
    coefficient_matrix,
    kernel_basis,
    kernel_dim_profile,
    kernel_to_json,
)
from korncert.linalg import I, P, nullspace, pivots_mod_p, rank, rank_mod_p, rref
from korncert.polyalg import PolyVec, format_poly, format_rational, monomial_basis
from polyfields import embed, format_poly_reference, poly

_CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _operator_grid():
    """Every builtin at n = 2, 3 (grad_k at orders 1-3), a non-symmetric
    first-order tensor4 operator and a second-order custom operator."""
    r = range(2)
    tensor = [[[[Fraction(i + 2 * j - k, 1 + l) for l in r] for k in r] for j in r] for i in r]
    ops = [
        operator_from_tensor4(tensor),
        custom_operator(
            [
                ((2, 0), [[1, 0], [0, Fraction(1, 2)]]),
                ((1, 1), [[0, 1], [-1, 0]]),
                ((0, 2), [[1, 0], [0, 1]]),
            ],
            name="custom2",
        ),
    ]
    for n in (2, 3):
        for name in ("grad", "div", "sym_grad", "dev_grad", "dev_sym_grad"):
            ops.append(builtin_operator(name, n))
        ops += [builtin_operator("grad_k", n, order=k) for k in (1, 2, 3)]
    return ops


def _in_span(vectors, v) -> bool:
    """Exact span membership: appending v does not raise the rank."""
    return rank([*vectors, v], len(v)) == rank(vectors, len(v))


def sympy_kernel_dim(op, K: int) -> int:
    """Oracle: symbolic nullspace dimension of the coefficient system."""
    xs = sympy.symbols(f"x1:{op.n + 1}")
    basis = monomial_basis(op.n, K)
    coeffs = sympy.symbols(f"c0:{op.dimV * basis.size}")
    components = []
    for comp in range(op.dimV):
        expr = sympy.Integer(0)
        for j, mi in enumerate(basis.exponents):
            mono = sympy.prod(x**e for x, e in zip(xs, mi.entries))
            expr += coeffs[j * op.dimV + comp] * mono
        components.append(expr)
    rows = [sympy.Integer(0)] * op.dimW
    for alpha, matrix in op.terms:
        derived = [
            sympy.diff(components[k], *[d for x, e in zip(xs, alpha.entries) for d in [x] * e])
            for k in range(op.dimV)
        ]
        for w in range(op.dimW):
            rows[w] += sum(sympy.Rational(matrix[w][k]) * derived[k] for k in range(op.dimV))
    constraints = [sympy.expand(r) for r in rows]
    # Each polynomial identity must vanish coefficient-wise.
    equations = []
    for expr in constraints:
        poly = sympy.Poly(expr, *xs, domain=f"QQ[{','.join(str(c) for c in coeffs)}]")
        equations.extend(poly.coeffs())
    if not equations:
        return op.dimV * basis.size
    system, _ = sympy.linear_eq_to_matrix(equations, list(coeffs))
    return len(coeffs) - system.rank()


class TestLinalg:
    def test_rref_identity(self):
        rows, pivots = rref([[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]], 2)
        assert rows == [[1, 0], [0, 1]]
        assert pivots == [0, 1]

    def test_rref_of_a_full_rank_block_is_the_identity(self):
        # sym_grad on R^3 has no kernel of degree 2: its 18 x 18 block
        # has a pivot in every column, so rref takes the identity exit.
        op = builtin_operator("sym_grad", 3)
        blocks = korncert.kernel._degree_blocks(op, 2, op.output_basis)
        _, _, cols, block = list(blocks)[2]
        assert (len(block), cols) == (18, 18)
        rows, pivots = rref(block, cols)
        assert rows == [[int(i == j) for j in range(18)] for i in range(18)]
        assert all(type(x) is int for row in rows for x in row)
        assert pivots == list(range(18))

    def test_rank_of_dependent_rows(self):
        m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        assert rank(m, 2) == 1

    def test_nullspace_normalization(self):
        m = [[Fraction(1), Fraction(2), Fraction(3)]]
        vecs = nullspace(m, 3)
        assert len(vecs) == 2
        for v in vecs:
            first = next(c for c in v if c != 0)
            assert first == 1
            assert sum(m[0][j] * v[j] for j in range(3)) == 0
        # Normalising keeps zero entries as one shared object.
        assert len({id(c) for v in vecs for c in v if c == 0}) == 1

    def test_nullspace_of_empty_system(self):
        vecs = nullspace([], 2)
        assert vecs == [[1, 0], [0, 1]]

    def test_modulus_and_square_root_of_minus_one(self):
        assert sympy.isprime(P)
        assert P > 10**6
        assert P % 4 == 1
        assert I * I % P == P - 1


_DIM_TABLE = [
    ("dev_grad", 2, 1, 3),
    ("dev_grad", 3, 1, 4),
    ("sym_grad", 2, 1, 3),
    ("sym_grad", 3, 1, 6),
    ("dev_sym_grad", 3, 2, 10),
    ("grad", 2, 1, 2),
    ("grad", 3, 1, 3),
]


class TestKernelDimensions:
    @pytest.mark.parametrize("name,n,K,expected", _DIM_TABLE)
    def test_known_dimensions(self, name, n, K, expected):
        op = builtin_operator(name, n)
        assert kernel_basis(op, K).dim == expected

    @pytest.mark.parametrize("name,n,K", [
        ("dev_grad", 2, 1),
        ("sym_grad", 2, 2),
        ("sym_grad", 3, 1),
        ("dev_sym_grad", 2, 3),
        ("dev_sym_grad", 3, 2),
    ])
    def test_dimensions_match_sympy_oracle(self, name, n, K):
        op = builtin_operator(name, n)
        assert kernel_basis(op, K).dim == sympy_kernel_dim(op, K)

    def test_rank_nullity(self):
        op = builtin_operator("sym_grad", 3)
        kb = kernel_basis(op, 2)
        assert kb.rank + kb.dim == kb.m

    def test_low_degree_gives_full_space(self):
        op = builtin_operator("grad_k", 2, order=2)
        kb = kernel_basis(op, 1)
        assert kb.dim == kb.m
        assert kb.rank == 0
        # The echelon basis of the whole space is the unit vectors, in order.
        assert [p.coeffs for p in kb.basis] == [
            tuple(Fraction(int(c == col)) for c in range(kb.m)) for col in range(kb.m)
        ]

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            kernel_basis(builtin_operator("grad", 2), -1)


class TestKernelContents:
    def test_every_basis_element_is_annihilated(self):
        for name, n, K in [("sym_grad", 2, 1), ("dev_sym_grad", 3, 2), ("dev_grad", 3, 1)]:
            op = builtin_operator(name, n)
            kb = kernel_basis(op, K)
            for p in kb.basis:
                assert not any(apply_operator(op, p).coeffs)

    def test_rotation_in_sym_grad_kernel(self):
        op = builtin_operator("sym_grad", 2)
        kb = kernel_basis(op, 1)
        basis = monomial_basis(2, 1)
        rot = poly(basis, 2, {((0, 1), 0): -1, ((1, 0), 1): 1})
        assert _in_span([b.coeffs for b in kb.basis], rot.coeffs)

    def test_dilation_in_dev_grad_kernel(self):
        op = builtin_operator("dev_grad", 2)
        kb = kernel_basis(op, 1)
        basis = monomial_basis(2, 1)
        dil = poly(basis, 2, {((1, 0), 0): 1, ((0, 1), 1): 1})
        assert _in_span([b.coeffs for b in kb.basis], dil.coeffs)

    def test_quadratic_conformal_field_in_3d_kernel(self):
        # 2 <a,x> x - |x|^2 a with a = e1 lies in the degree-2 kernel of
        # the trace-free symmetric gradient.
        op = builtin_operator("dev_sym_grad", 3)
        kb = kernel_basis(op, 2)
        basis = monomial_basis(3, 2)
        rho = poly(
            basis,
            3,
            {
                ((2, 0, 0), 0): 1,
                ((0, 2, 0), 0): -1,
                ((0, 0, 2), 0): -1,
                ((1, 1, 0), 1): 2,
                ((1, 0, 1), 2): 2,
            },
        )
        assert not any(apply_operator(op, rho).coeffs)
        assert _in_span([b.coeffs for b in kb.basis], rho.coeffs)

    def test_block_elimination_matches_whole_matrix(self):
        # Reference: the nullspace of the whole coefficient matrix.
        for op in _operator_grid():
            for K in range(op.order + 4):
                m = op.dimV * monomial_basis(op.n, K).size
                whole = nullspace(coefficient_matrix(op, K), m)
                kb = kernel_basis(op, K)
                assert (kb.m, kb.rank) == (m, m - len(whole)), (op.name, op.n, K)
                assert [[format_rational(c) for c in p.coeffs] for p in kb.basis] == [
                    [format_rational(c) for c in v] for v in whole
                ], (op.name, op.n, K)

    def test_degree_blocks_are_slices_of_coefficient_matrix(self):
        # Blocks are integer matrices of scale * A: scale times the slice
        # of the Fraction matrix they cover, entry by entry.
        def check_integer_form(op):
            assert op.scale == lcm(*(m.denominator for _, matrix in op.terms for row in matrix for m in row))
            assert [alpha for alpha, _ in op.integer_terms] == [alpha for alpha, _ in op.terms]
            for (_, entries), (_, matrix) in zip(op.integer_terms, op.terms):
                assert all(type(m) is int and m for _, _, m in entries), op.name
                dense = [[0] * op.dimV for _ in range(op.dimW)]
                for w, v, m in entries:
                    dense[w][v] = m
                assert dense == [[op.scale * m for m in row] for row in matrix], op.name

        for op in _operator_grid():
            check_integer_form(op)
            # replace() derives the integer form again from the new terms.
            third = dataclasses.replace(
                op, terms=tuple((a, tuple(tuple(m / 3 for m in row) for row in mat)) for a, mat in op.terms)
            )
            check_integer_form(third)
            assert third.scale != op.scale, op.name
            assert dataclasses.replace(op) == op and hash(dataclasses.replace(op)) == hash(op)
            scale = op.scale
            for K in range(op.order + 3):
                whole = coefficient_matrix(op, K)
                kept = op.output_basis
                full_blocks = korncert.kernel._degree_blocks(op, K, range(op.dimW))
                basis_blocks = korncert.kernel._degree_blocks(op, K, kept)
                for (row, col, cols, block), (_, _, _, rows) in zip(full_blocks, basis_blocks):
                    assert all(type(v) is int for r in block for v in r), (op.name, op.n, K)
                    assert block == [[scale * v for v in r[col : col + cols]] for r in whole[row : row + len(block)]]
                    assert all(len(r) == cols for r in block), (op.name, op.n, K)
                    # The basis block is the full block's rows of the kept
                    # output components, monomial by monomial.
                    assert rows == [block[t + w] for t in range(0, len(block), op.dimW) for w in kept]

    def test_no_block_assembled_above_first_trivial(self, monkeypatch):
        degrees = []
        build = korncert.kernel._degree_block

        def traced(A, d, outputs):
            degrees.append(d)
            return build(A, d, outputs)

        monkeypatch.setattr(korncert.kernel, "_degree_block", traced)
        op = builtin_operator("sym_grad", 3)
        assert kernel_basis(op, 4).dim == 6
        assert degrees == [0, 1, 2]
        degrees.clear()
        assert kernel_dim_profile(op, 4).dims == (3, 6, 6, 6, 6)
        assert degrees == [0, 1, 2]

    def test_output_basis_sizes(self):
        # Symmetric outputs repeat across the diagonal, a deviatoric one
        # also has a trace that the others determine, and the outputs of
        # grad_k repeat under permuted derivatives.
        cases = {
            ("sym_grad", 3, None): (6, 9),
            ("dev_sym_grad", 3, None): (5, 9),
            ("dev_sym_grad", 2, None): (2, 4),
            ("grad_k", 2, 3): (8, 16),
            ("div", 3, None): (1, 1),
        }
        for (name, n, order), sizes in cases.items():
            op = builtin_operator(name, n, order)
            assert (len(op.output_basis), op.dimW) == sizes, name

    def test_profile_builds_no_monomial_above_first_trivial(self, monkeypatch):
        # sym_grad on R^3 has its first trivial block at degree 2, so a
        # profile to K_max = 200 builds the monomials of degrees 0..2
        # only, and no monomial basis at all.
        degrees, bases = [], []
        for name, calls in (("compositions", degrees), ("monomial_basis", bases)):
            real = getattr(korncert.kernel, name)
            monkeypatch.setattr(
                korncert.kernel, name, lambda a, b, _real=real, _calls=calls: _calls.append(a) or _real(a, b)
            )
        op = builtin_operator("sym_grad", 3)
        profile = kernel_dim_profile(op, 200)
        assert profile.dims == (3, 6) + (6,) * 199
        assert max(degrees) == 2
        assert bases == []
        assert profile.dims[:4] == kernel_dim_profile(op, 3).dims

    def test_kernel_inclusion_across_degrees(self):
        op = builtin_operator("sym_grad", 2)
        kb1 = kernel_basis(op, 1)
        kb2 = kernel_basis(op, 2)
        big = [b.coeffs for b in kb2.basis]
        for p in kb1.basis:
            assert _in_span(big, embed(p, 2).coeffs)


class TestDimProfiles:
    def test_sym_grad_profile_stabilizes(self):
        profile = kernel_dim_profile(builtin_operator("sym_grad", 2), 3)
        assert profile.dims == (2, 3, 3, 3)
        assert profile.stabilized

    def test_dev_sym_grad_2d_profile_grows_linearly(self):
        profile = kernel_dim_profile(builtin_operator("dev_sym_grad", 2), 4)
        assert profile.dims == (2, 4, 6, 8, 10)
        assert not profile.stabilized

    def test_profile_matches_sympy_oracle_per_degree(self):
        op = builtin_operator("dev_sym_grad", 2)
        profile = kernel_dim_profile(op, 4)
        for K, dim in enumerate(profile.dims):
            assert dim == sympy_kernel_dim(op, K)

    def test_profile_is_the_running_kernel_dimension(self, monkeypatch):
        real = korncert.kernel.kernel_basis
        calls = []
        monkeypatch.setattr(
            korncert.kernel, "kernel_basis", lambda *args: calls.append(args) or real(*args)
        )
        for op in _operator_grid():
            K = op.order + 3
            profile = kernel_dim_profile(op, K)
            assert calls == [], "kernel_dim_profile called kernel_basis"
            assert list(profile.dims) == [real(op, k).dim for k in range(K + 1)], (op.name, op.n)

    def test_dev_sym_grad_3d_profile(self):
        profile = kernel_dim_profile(builtin_operator("dev_sym_grad", 3), 3)
        assert profile.dims == (3, 7, 10, 10)
        assert profile.stabilized

    def test_no_block_above_the_first_trivial_one_is_eliminated(self, monkeypatch):
        # sym_grad on R^3: block nullities 3, 3, 0; the degree-d block has
        # 3 * (d+1)(d+2)/2 columns, so blocks 0..2 have 3, 9 and 18.  A
        # block is eliminated exactly or mod P, never both.
        eliminated = []
        for name in ("rank", "nullspace", "rank_mod_p"):
            real = getattr(korncert.linalg, name)
            monkeypatch.setattr(
                korncert.linalg,
                name,
                lambda block, ncols, *a, _real=real, **kw: eliminated.append(ncols)
                or _real(block, ncols, *a, **kw),
            )
        op = builtin_operator("sym_grad", 3)
        assert kernel_basis(op, 4).dim == 6
        assert eliminated == [3, 9, 18]
        eliminated.clear()
        assert kernel_dim_profile(op, 4).dims == (3, 6, 6, 6, 6)
        assert eliminated == [3, 9, 18]

    def test_screened_profile_is_the_exact_rank_profile(self):
        for op in _operator_grid():
            K_max = op.order + 3
            assert kernel_dim_profile(op, K_max).dims == _exact_profile(op, K_max), (op.name, op.n)

    def test_rank_drop_mod_p_falls_back_to_exact_elimination(self, monkeypatch):
        # d/dx (u1, u2) -> (P u1', u2'): each degree-d block, d >= 1, is
        # d diag(P, 1), of rank 2 but of rank 1 mod P.
        op = custom_operator([((1,), [[P, 0], [0, 1]])])
        calls = []
        for name in ("rank", "nullspace", "rank_mod_p"):
            real = getattr(korncert.linalg, name)
            monkeypatch.setattr(
                korncert.linalg,
                name,
                lambda block, ncols, _real=real, _name=name: calls.append((_name, len(block)))
                or _real(block, ncols),
            )
        assert kernel_dim_profile(op, 3).dims == (2, 2, 2, 2) == _exact_profile(op, 3)
        # The empty degree-0 block is decided mod P: no rows, rank 0.
        assert calls == [("rank_mod_p", 0), ("rank_mod_p", 2), ("rank", 2)]
        calls.clear()
        assert kernel_basis(op, 3).dim == 2
        assert calls == [("nullspace", 0), ("rank_mod_p", 2), ("nullspace", 2)]


def _exact_profile(op, K_max: int) -> tuple[int, ...]:
    """Reference: the kernel dimension at each K from the exact rank of
    the whole coefficient matrix."""
    sizes = [op.dimV * monomial_basis(op.n, K).size for K in range(K_max + 1)]
    return tuple(m - rank(coefficient_matrix(op, K), m) for K, m in enumerate(sizes))


def _unit_vector_matrix(op, K: int) -> list[list[Fraction]]:
    """Reference: column c is A applied to the c-th unit coefficient vector."""
    source = monomial_basis(op.n, K)
    m = op.dimV * source.size
    units = [tuple(Fraction(int(c == col)) for c in range(m)) for col in range(m)]
    columns = [apply_operator(op, PolyVec(source, op.dimV, u)).coeffs for u in units]
    return [list(row) for row in zip(*columns)]


class TestSerialization:
    def test_coefficient_matrix_shape(self):
        for op in _operator_grid():
            for K in range(op.order + 3):
                m = coefficient_matrix(op, K)
                source = monomial_basis(op.n, K)
                target = monomial_basis(op.n, max(K - op.order, 0))
                assert len(m) == op.dimW * target.size
                assert all(len(row) == op.dimV * source.size for row in m)
                assert m == _unit_vector_matrix(op, K), (op.name, op.n, K)

    def test_kernel_to_json(self):
        kb = kernel_basis(builtin_operator("sym_grad", 2), 1)
        obj = kernel_to_json(kb)
        assert obj["dim"] == 3
        assert len(obj["basis"]) == 3
        for entry in obj["basis"]:
            assert isinstance(entry["pretty"], str)
            assert all(isinstance(c, str) for c in entry["coeffs"])


# The exact layer's outputs, hashed: the ellipticity probe report and the
# kernel_basis coefficients of every shipped config's operator at its K,
# and of the benchmark's kernel-sweep operators at their degrees.  Any
# change to a coefficient, a witness or the random stream moves the hash.
_EXACT_LAYER_SHA256 = "a6c3dbad05cc08a71671182b17bd92a49d4b1e9df03a11deb4870e469b6f772a"
_KERNEL_SWEEP = [
    ("sym_grad", 3, None, (2, 3, 4)),
    ("dev_sym_grad", 3, None, (2, 3, 4)),
    ("dev_sym_grad", 2, None, (2, 4, 6, 8)),
    ("div", 3, None, (1, 3, 5)),
    ("grad_k", 2, 3, (3, 5, 7)),
]


def test_exact_layer_pin():
    cases = []
    for path in sorted(_CONFIG_DIR.glob("*.json")):
        cfg = json.loads(path.read_text())
        cases.append((build_operator(cfg["operator"]), cfg["K"]))
    for name, n, order, degrees in _KERNEL_SWEEP:
        cases.extend((builtin_operator(name, n, order), K) for K in degrees)
    h = hashlib.sha256()
    for op, K in cases:
        probe = ellipticity_probe(op).to_json()
        h.update(json.dumps([op.name, op.n, K, probe], sort_keys=True).encode())
        for p in kernel_basis(op, K).basis:
            h.update(json.dumps([format_rational(c) for c in p.coeffs]).encode())
    assert h.hexdigest() == _EXACT_LAYER_SHA256


def test_kernel_sweep_coefficients_are_fractions():
    # kernel_basis adopts its vectors without scanning their entries, so
    # each must be a Fraction by construction, not merely equal to one.
    for name, n, order, degrees in _KERNEL_SWEEP:
        op = builtin_operator(name, n, order)
        for K in degrees:
            for p in kernel_basis(op, K).basis:
                assert p.basis is monomial_basis(n, K)
                assert all(type(c) is Fraction for c in p.coeffs), (name, n, K)


def test_format_poly_is_the_term_by_term_join_on_the_kernel_sweep():
    for name, n, order, degrees in _KERNEL_SWEEP:
        op = builtin_operator(name, n, order)
        for K in degrees:
            for p in kernel_basis(op, K).basis:
                assert format_poly(p) == format_poly_reference(p), (name, n, K)


# -- property suite ----------------------------------------------------

_coords = st.fractions(min_value=-10, max_value=10, max_denominator=12)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_kernel_is_closed_under_combinations(data):
    op = builtin_operator("sym_grad", 2)
    kb = kernel_basis(op, 2)
    weights = data.draw(st.lists(_coords, min_size=kb.dim, max_size=kb.dim))
    coeffs = tuple(
        sum(w * c for w, c in zip(weights, cs)) for cs in zip(*(p.coeffs for p in kb.basis))
    )
    assert not any(apply_operator(op, PolyVec(kb.basis[0].basis, op.dimV, coeffs)).coeffs)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_dependent_output_rows_leave_the_kernel_alone(data):
    # Insert output rows that are copies, negatives or integer
    # combinations of the rows already there, the same combination in
    # every term: the kernel and its echelon basis do not change.
    name = data.draw(st.sampled_from(["grad", "div", "sym_grad", "dev_grad", "dev_sym_grad", "grad_k"]))
    n = data.draw(st.integers(2, 3))
    op = builtin_operator(name, n, data.draw(st.integers(1, 2)) if name == "grad_k" else None)
    combination = st.one_of(
        st.tuples(st.just(1), st.integers(0, op.dimW - 1)),
        st.tuples(st.just(-1), st.integers(0, op.dimW - 1)),
        st.lists(st.integers(-2, 2), min_size=op.dimW, max_size=op.dimW),
    )
    matrices = [list(matrix) for _, matrix in op.terms]
    for _ in range(data.draw(st.integers(1, 3))):
        drawn = data.draw(combination)
        weights = [drawn[0] * (w == drawn[1]) for w in range(op.dimW)] if isinstance(drawn, tuple) else drawn
        at = data.draw(st.integers(0, len(matrices[0])))
        for matrix, (_, original) in zip(matrices, op.terms):
            matrix.insert(at, [sum(c * row[v] for c, row in zip(weights, original)) for v in range(op.dimV)])
    wider = custom_operator([(alpha, m) for (alpha, _), m in zip(op.terms, matrices)])
    assert len(wider.output_basis) == len(op.output_basis)
    for K in range(5):
        got, want = kernel_basis(wider, K), kernel_basis(op, K)
        assert [p.coeffs for p in got.basis] == [p.coeffs for p in want.basis], (op.name, K)
    assert kernel_dim_profile(wider, 4).dims == kernel_dim_profile(op, 4).dims


# Mostly small ints; P and 1/P make a block's rank mod P drop below its
# exact rank, or leave only the 1/P entries mod P.
_screen_entries = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), P, Fraction(1, P)])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_screened_kernels_are_the_exact_kernels(data):
    # Custom operators with output rows that combine the earlier ones:
    # the screened profile is the exact-rank profile, and the kernel
    # basis is the nullspace of the whole coefficient matrix,
    # coefficient for coefficient.
    n, order = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
    dim_v, dim_w = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    alphas = [mi.entries for mi in monomial_basis(n, order).exponents if mi.order == order]
    chosen = data.draw(st.lists(st.sampled_from(alphas), min_size=1, unique=True))
    row = st.lists(_screen_entries, min_size=dim_v, max_size=dim_v)
    matrices = data.draw(
        st.lists(st.lists(row, min_size=dim_w, max_size=dim_w), min_size=len(chosen), max_size=len(chosen))
        .filter(lambda ms: any(v for m in ms for r in m for v in r))
    )
    weights = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=dim_w, max_size=dim_w), max_size=2))
    for matrix in matrices:
        matrix += [[sum(c * r[v] for c, r in zip(ws, matrix)) for v in range(dim_v)] for ws in weights]
    op = custom_operator(list(zip(chosen, matrices)))
    K_max = order + 2
    assert kernel_dim_profile(op, K_max).dims == _exact_profile(op, K_max)
    for K in range(K_max + 1):
        m = op.dimV * monomial_basis(n, K).size
        want = nullspace(coefficient_matrix(op, K), m)
        assert [list(p.coeffs) for p in kernel_basis(op, K).basis] == want, K


def _dense_rref(matrix, ncols):
    """Reference: the elimination loop that updates every entry."""
    rows = [list(r) for r in matrix]
    pivots = []
    rank_ = 0
    for col in range(ncols):
        best, best_size = None, None
        for i in range(rank_, len(rows)):
            if rows[i][col] != 0 and (best is None or abs(rows[i][col]) > best_size):
                best, best_size = i, abs(rows[i][col])
        if best is None:
            continue
        rows[rank_], rows[best] = rows[best], rows[rank_]
        piv = rows[rank_][col]
        rows[rank_] = [v / piv for v in rows[rank_]]
        for i in range(len(rows)):
            if i != rank_ and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank_])]
        pivots.append(col)
        rank_ += 1
        if rank_ == len(rows):
            break
    return rows, pivots


def _dense_nullspace(matrix, ncols):
    """Reference: the kernel basis read off _dense_rref, one vector per
    free column, first nonzero entry normalised to one."""
    reduced, pivots = _dense_rref([[Fraction(x) for x in row] for row in matrix], ncols)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        lead = next(x for x in v if x)
        basis.append([x / lead for x in v])
    return basis


def _divided(rows, pivots):
    """Each echelon row divided by its pivot: the reduced form."""
    reduced = [[Fraction(x, row[col]) for x in row] for row, col in zip(rows, pivots)]
    return reduced + rows[len(pivots) :]


_small = st.builds(Fraction, st.integers(-3, 3))


@pytest.mark.parametrize("entry", [_small], ids=["fraction"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rank_mod_p_of_small_integer_matrices_is_the_exact_rank(entry, data):
    # A nonzero minor here is an integer of absolute value below P
    # (Hadamard), so it is never 0 mod P and the two ranks agree exactly.
    ncols = data.draw(st.integers(1, 7))
    matrix = data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=6))
    assert rank_mod_p([[int(x) % P for x in row] for row in matrix], ncols) == rank(matrix, ncols)
    # A transpose has the same rank.
    transpose = [[int(x) % P for x in column] for column in zip(*matrix)]
    assert rank_mod_p(transpose, len(matrix)) == rank(matrix, ncols)


# Rows mixing ints and Fractions whose denominators run up to 97, so that
# clearing a row's denominators multiplies many coprime ones.
_rational = st.one_of(
    st.just(0),
    st.just(Fraction(0)),
    st.integers(-20, 20),
    st.fractions(min_value=-10, max_value=10, max_denominator=97),
)


@pytest.mark.parametrize("entries", [_rational], ids=["fraction"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rref_skipping_zeros_matches_dense_loop(entries, data):
    ncols = data.draw(st.integers(1, 7))
    matrix = data.draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=6))
    # The reference divides, so its ints become Fractions first.
    exact = [[Fraction(x) for x in row] for row in matrix]
    rows, pivots = rref(matrix, ncols)
    assert all(type(x) is int for row in rows for x in row)
    assert (_divided(rows, pivots), pivots) == _dense_rref(exact, ncols)
    for v in nullspace(matrix, ncols):
        for row in matrix:
            assert sum(a * b for a, b in zip(row, v)) == 0


@st.composite
def _matrices(draw):
    """An int/Fraction matrix with 0-7 rows and 1-7 columns; a row may be
    zero or repeat an earlier one."""
    ncols = draw(st.integers(1, 7))
    entry = st.one_of(st.integers(-5, 5), st.fractions(min_value=-5, max_value=5, max_denominator=9))
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["fresh", "zero", "repeat"] if rows else ["fresh", "zero"]))
        if kind == "fresh":
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
        elif kind == "zero":
            rows.append([draw(st.sampled_from([0, Fraction(0)])) for _ in range(ncols)])
        else:
            rows.append(list(draw(st.sampled_from(rows))))
    return rows, ncols


@settings(max_examples=200, deadline=None)
@given(case=_matrices())
# Full column rank takes rref's identity exit: square, tall with
# repeated rows, and a single column.
@example(case=([[0, -2, 1], [3, 1, 0], [1, Fraction(1, 2), 4]], 3))
@example(case=([[1, 2], [3, Fraction(-4, 3)], [1, 2], [3, Fraction(-4, 3)]], 2))
@example(case=([[0], [Fraction(-3, 2)], [5]], 1))
def test_elimination_matches_sympy(case):
    matrix, ncols = case
    ref = sympy.Matrix(len(matrix), ncols, [sympy.Rational(x) for row in matrix for x in row])
    assert rank(matrix, ncols) == ref.rank()
    rows, pivots = rref(matrix, ncols)
    reduced, ref_pivots = ref.rref()
    assert pivots == list(ref_pivots)
    assert _divided(rows, pivots) == reduced.tolist()
    vectors = nullspace(matrix, ncols)
    reference = ref.nullspace()
    assert len(vectors) == len(reference)
    if reference:
        columns = [sympy.Matrix([sympy.Rational(x) for x in v]) for v in vectors]
        assert sympy.Matrix.hstack(*columns, *reference).rank() == len(reference)
    assert all(type(x) is Fraction for v in vectors for x in v)
    assert all(next(x for x in v if x) == 1 for v in vectors)
    assert len({id(x) for v in vectors for x in v if not x}) <= 1


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_pivots_mod_p_reduce_any_integers(data):
    # Any ints, reduced or not; on small entries the pivots mod P are
    # the exact ones, as in the test above.
    ncols = data.draw(st.integers(1, 6))
    small = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols), max_size=5))
    shifts = data.draw(
        st.lists(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols), min_size=len(small), max_size=len(small))
    )
    shifted = [[x + k * P for x, k in zip(r, ks)] for r, ks in zip(small, shifts)]
    pivots = pivots_mod_p(shifted, ncols)
    assert pivots == pivots_mod_p([[x % P for x in r] for r in small], ncols) == rref(small, ncols)[1]
    assert rank_mod_p(shifted, ncols) == len(pivots)


def _typed(matrix):
    """A matrix's entries with their types: Fraction(2) == 2, but a call
    that turned one into the other would have changed its argument."""
    return [[(type(x), x) for x in row] for row in matrix]


# Residues at both ends of [0, P) and anywhere between, so that the
# updates wrap around P.
_residue = st.one_of(st.integers(0, 3), st.integers(P - 3, P - 1), st.integers(0, P - 1))


@settings(max_examples=100, deadline=None)
@given(case=_matrices(), data=st.data())
def test_linalg_never_changes_its_inputs(case, data):
    matrix, ncols = case
    before = copy.deepcopy(matrix)
    for call in (rref, rank, nullspace):
        call(matrix, ncols)
        assert _typed(matrix) == _typed(before), call.__name__
    residues = [[Fraction(x).numerator % P for x in row] for row in matrix]
    residues += data.draw(st.lists(st.lists(_residue, min_size=ncols, max_size=ncols), max_size=4))
    before = copy.deepcopy(residues)
    rank_mod_p(residues, ncols)
    assert residues == before


@pytest.mark.parametrize(
    "terms",
    [
        [
            ((1, 0), [[Fraction(1, 7), 0], [0, Fraction(3, 11)], [Fraction(-5, 13), Fraction(1, 7)]]),
            ((0, 1), [[0, Fraction(-5, 13)], [Fraction(3, 11), 0], [Fraction(1, 7), Fraction(3, 11)]]),
        ],
        [
            ((2, 0), [[Fraction(1, 7), Fraction(3, 11)]]),
            ((1, 1), [[Fraction(-5, 13), 0]]),
            ((0, 2), [[0, Fraction(1, 7)]]),
        ],
    ],
    ids=["first-order", "second-order"],
)
def test_integer_blocks_keep_the_kernel_of_a_rational_operator(terms):
    # kernel_basis eliminates blocks of 1001 * A; the reference eliminates
    # the Fraction matrix of A, built by apply_operator, with the dividing
    # loop.  A wrong scale on any term would change the kernel.
    op = custom_operator(terms)
    assert op.scale == 7 * 11 * 13
    for K in range(op.order + 4):
        got = [p.coeffs for p in kernel_basis(op, K).basis]
        matrix = _unit_vector_matrix(op, K)
        assert coefficient_matrix(op, K) == matrix, K
        ncols = op.dimV * monomial_basis(op.n, K).size
        want = _dense_nullspace(matrix, ncols)
        assert got == [tuple(v) for v in want], K
