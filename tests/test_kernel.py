"""Exact polynomial kernels: dimensions, bases, degree profiles.

The dimension table is cross-checked against an independent sympy
oracle that builds the constraint system by symbolic differentiation
and counts free parameters, so the two implementations share nothing
but the operator definition.
"""

import hashlib
import json
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import korncert.kernel
import korncert.linalg
from korncert.cli import build_operator
from korncert.diffop import (
    CR_ONE,
    CR_ZERO,
    ComplexRational,
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
from korncert.linalg import I, P, nullspace, rank, rank_mod_p, residue, rref
from korncert.polyalg import PolyVec, format_rational, monomial_basis
from polyfields import embed, poly

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

    def test_residue(self):
        half = residue(Fraction(1, 2))
        assert 2 * half % P == 1
        assert residue(ComplexRational(Fraction(1, 2), Fraction(3))) == (half + 3 * I) % P
        assert residue(ComplexRational(Fraction(0), Fraction(1))) == I
        assert residue(Fraction(-1)) == P - 1
        assert residue(Fraction(5, P)) is None
        assert residue(ComplexRational(Fraction(1), Fraction(1, 3 * P))) is None


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
        for op in _operator_grid():
            scale = korncert.kernel._integer_terms(op)[0]
            assert scale == lcm(*(m.denominator for _, matrix in op.terms for row in matrix for m in row))
            for K in range(op.order + 3):
                whole = coefficient_matrix(op, K)
                for row, col, cols, block in korncert.kernel._degree_blocks(op, monomial_basis(op.n, K)):
                    assert all(type(v) is int for r in block for v in r), (op.name, op.n, K)
                    assert block == [[scale * v for v in r[col : col + cols]] for r in whole[row : row + len(block)]]
                    assert all(len(r) == cols for r in block), (op.name, op.n, K)

    def test_no_block_assembled_above_first_trivial(self, monkeypatch):
        degrees = []
        build = korncert.kernel._degree_block

        def traced(A, terms, basis, d):
            degrees.append(d)
            return build(A, terms, basis, d)

        monkeypatch.setattr(korncert.kernel, "_degree_block", traced)
        op = builtin_operator("sym_grad", 3)
        assert kernel_basis(op, 4).dim == 6
        assert degrees == [0, 1, 2]
        degrees.clear()
        assert kernel_dim_profile(op, 4).dims == (3, 6, 6, 6, 6)
        assert degrees == [0, 1, 2]

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
        # 3 * (d+1)(d+2)/2 columns, so blocks 0..2 have 3, 9 and 18.
        eliminated = []
        for name in ("rank", "nullspace"):
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


def _dense_rref(matrix, ncols):
    """Reference: the elimination loop that updates every entry."""
    rows = [list(r) for r in matrix]
    pivots = []
    rank_ = 0
    for col in range(ncols):
        best, best_size = None, None
        for i in range(rank_, len(rows)):
            if rows[i][col] != 0:
                x = rows[i][col]
                size = x.norm2() if isinstance(x, ComplexRational) else abs(x)
                if best is None or size > best_size:
                    best, best_size = i, size
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


# Mostly zeros, as in the coefficient blocks.
_sparse = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), _coords)
_complex = st.builds(ComplexRational, _sparse, _sparse)


_small = st.builds(Fraction, st.integers(-3, 3))


@pytest.mark.parametrize(
    "entry",
    [_small, st.builds(ComplexRational, _small, _small)],
    ids=["fraction", "complex"],
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rank_mod_p_of_small_integer_matrices_is_the_exact_rank(entry, data):
    # A nonzero minor here is a Gaussian integer of norm below P (Hadamard),
    # and a + bi with a^2 + b^2 < P is never 0 mod P: a = -I b would give
    # a^2 + b^2 = 0 (mod P).  So the two ranks agree exactly.
    ncols = data.draw(st.integers(1, 7))
    matrix = data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=6))
    assert rank_mod_p([[residue(x) for x in row] for row in matrix], ncols) == rank(matrix, ncols)


# Rows mixing ints and Fractions whose denominators run up to 97, so that
# clearing a row's denominators multiplies many coprime ones.
_rational = st.one_of(
    st.just(0),
    st.just(Fraction(0)),
    st.integers(-20, 20),
    st.fractions(min_value=-10, max_value=10, max_denominator=97),
)


@pytest.mark.parametrize(
    "entries,zero,one",
    [(_rational, Fraction(0), Fraction(1)), (_complex, CR_ZERO, CR_ONE)],
    ids=["fraction", "complex"],
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rref_skipping_zeros_matches_dense_loop(entries, zero, one, data):
    ncols = data.draw(st.integers(1, 7))
    matrix = data.draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=6))
    # The reference divides, so its ints become Fractions first.
    exact = [[x if isinstance(x, ComplexRational) else Fraction(x) for x in row] for row in matrix]
    assert rref(matrix, ncols) == _dense_rref(exact, ncols)
    for v in nullspace(matrix, ncols, zero=zero, one=one):
        for row in matrix:
            assert sum((a * b for a, b in zip(row, v)), zero) == 0


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
def test_integer_blocks_keep_the_kernel_of_a_rational_operator(monkeypatch, terms):
    # kernel_basis eliminates blocks of 1001 * A; the reference eliminates
    # the Fraction matrix of A, built by apply_operator, with the dividing
    # loop.  A wrong scale on any term would change the kernel.
    op = custom_operator(terms)
    assert korncert.kernel._integer_terms(op)[0] == 7 * 11 * 13
    for K in range(op.order + 4):
        got = [p.coeffs for p in kernel_basis(op, K).basis]
        matrix = _unit_vector_matrix(op, K)
        assert coefficient_matrix(op, K) == matrix, K
        with monkeypatch.context() as m:
            m.setattr(korncert.linalg, "rref", _dense_rref)
            want = nullspace(matrix, op.dimV * monomial_basis(op.n, K).size)
        assert got == [tuple(v) for v in want], K
