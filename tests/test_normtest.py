"""Seminorm-is-norm classification: constraint assembly, numeric
nullspaces, two-stage verdicts, and point measures.

The A2 verdicts below are backed by closed-form kernel fields whose
traces vanish identically, so residual assertions can be tightened far
below the working tolerance; the one exception keeps a field with a
small trace on purpose, under a loose threshold.
"""

import dataclasses
import functools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from korncert.diffop import builtin_operator
from korncert import normtest
from korncert.geometry import StarDomain, boundary_point, grid_frame, outward_normal, sample_grid
from korncert.kernel import kernel_basis
from korncert.normtest import (
    TraceKind,
    certificate_residual,
    classify,
    numeric_nullspace,
    point_measure_test,
    trace_magnitudes,
    trace_values,
)
from korncert.polyalg import PolyVec, eval_poly, monomial_basis
from polyfields import embed, poly


def _span_projector(polys, ambient_basis, dimV):
    """Orthogonal projector onto the span of the given fields, in the
    coefficient space of ambient_basis."""
    cols = np.array(
        [[float(c) for c in embed(p, ambient_basis.K).coeffs] for p in polys]
    ).T
    q, _ = np.linalg.qr(cols)
    return q @ q.T


def _max_principal_angle(polys_a, polys_b, ambient_basis, dimV):
    pa = _span_projector(polys_a, ambient_basis, dimV)
    pb = _span_projector(polys_b, ambient_basis, dimV)
    return float(np.linalg.norm(pa - pb, 2))


def _constraints(kb, dom, kind, grid):
    """Trace constraint rows of the raw kernel basis, assembled as
    classify assembles them: grid order, then output component."""
    columns = np.array([[float(c) for c in p.coeffs] for p in kb.basis]).T
    xs, nus = grid_frame(dom, grid)
    values = trace_values(kb.basis[0].basis, columns, xs, TraceKind.of(kind), nus)
    return values.reshape(-1, values.shape[2])


_BALL2 = StarDomain.ball(2)
_BALL3 = StarDomain.ball(3)
_WAVY2 = StarDomain.sine2d(2, 1, 2)


def _grids(dom, coarse_counts, factor=8):
    coarse = sample_grid(dom, coarse_counts)
    dense = sample_grid(dom, [c * factor for c in coarse_counts])
    return coarse, dense


class TestAssemble:
    def test_dilation_normal_trace_on_circle_is_constant_one(self):
        # The field x has normal trace <x, nu> = |x| = 1 on the unit
        # circle, so its constraint column is identically 1.
        op = builtin_operator("dev_grad", 2)
        kb = kernel_basis(op, 1)
        grid = sample_grid(_BALL2, [5])
        cm = _constraints(kb, _BALL2, TraceKind.NORMAL, grid)
        basis2 = monomial_basis(2, 1)
        dil = poly(basis2, 2, {((1, 0), 0): 1, ((0, 1), 1): 1})
        col = next(
            j for j, p in enumerate(kb.basis) if p.coeffs == dil.coeffs
        )
        assert cm[:, col] == pytest.approx(np.ones(5))

    def test_translation_columns_have_rank_two(self):
        op = builtin_operator("sym_grad", 2)
        kb = kernel_basis(op, 0)
        grid = sample_grid(_BALL2, [4])
        cm = _constraints(kb, _BALL2, TraceKind.NORMAL, grid)
        assert cm.shape == (4, 2)
        assert np.linalg.matrix_rank(cm) == 2

    def test_row_counts_per_kind(self):
        op = builtin_operator("sym_grad", 2)
        kb = kernel_basis(op, 1)
        grid = sample_grid(_BALL2, [6])
        assert _constraints(kb, _BALL2, TraceKind.NORMAL, grid).shape[0] == 6
        assert _constraints(kb, _BALL2, TraceKind.FULL, grid).shape[0] == 12
        assert _constraints(kb, _BALL2, TraceKind.TANGENTIAL, grid).shape[0] == 12

    def test_full_trace_decomposes_into_normal_and_tangential(self):
        op = builtin_operator("sym_grad", 2)
        kb = kernel_basis(op, 1)
        grid = sample_grid(_WAVY2, [7])
        full = _constraints(kb, _WAVY2, TraceKind.FULL, grid)
        normal = _constraints(kb, _WAVY2, TraceKind.NORMAL, grid)
        tang = _constraints(kb, _WAVY2, TraceKind.TANGENTIAL, grid)
        rebuilt = np.empty_like(full)
        for i, theta in enumerate(grid.thetas):
            nu = outward_normal(_WAVY2, theta)
            block = slice(2 * i, 2 * i + 2)
            rebuilt[block] = np.outer(nu, normal[i]) + tang[block]
        assert np.max(np.abs(full - rebuilt)) < 1e-12

    def test_projected_kinds_need_matching_dimensions(self):
        from korncert.diffop import custom_operator
        from korncert.polyalg import MultiIndex

        # Scalar fields (dimV = 1) have no normal component in R^2.
        op = custom_operator(
            [(MultiIndex((1, 0)), ((1,),)), (MultiIndex((0, 1)), ((1,),))]
        )
        kb = kernel_basis(op, 1)
        grid = sample_grid(_BALL2, [4])
        with pytest.raises(ValueError, match=r"^normal trace needs dimV == n, got dimV=1, n=2$"):
            _constraints(kb, _BALL2, TraceKind.NORMAL, grid)


def _reference_trace(polys, xs, kind, nus):
    """trace_values one point and one polynomial at a time: eval_poly on
    float points, then the normal or tangential projection by hand."""
    dim_v = polys[0].dimV
    out = np.empty((len(xs), 1 if kind is TraceKind.NORMAL else dim_v, len(polys)))
    for d, rho in enumerate(polys):
        for p, x in enumerate(xs):
            v = np.array(eval_poly(rho, [float(c) for c in x]))
            if kind is TraceKind.FULL:
                out[p, :, d] = v
                continue
            normal = sum(vi * ni for vi, ni in zip(v, nus[p]))
            out[p, :, d] = normal if kind is TraceKind.NORMAL else v - normal * nus[p]
    return out


class TestTraceValues:
    @pytest.mark.parametrize("K", range(5))
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("kind", list(TraceKind), ids=lambda k: k.value)
    def test_matches_pointwise_reference(self, kind, n, K):
        # From K = 3 on, the power table rounds differently from pow.
        rng = np.random.default_rng(100 * n + K)
        basis = monomial_basis(n, K)
        columns = rng.uniform(-1.0, 1.0, (basis.size * n, 4))
        xs = rng.uniform(-2.0, 2.0, (12, n))
        xs[0] = 0.0
        xs[1:4, 0] = 0.0
        xs[4:6, -1] = 0.0
        nus = rng.normal(size=xs.shape)
        nus /= np.linalg.norm(nus, axis=1, keepdims=True)
        got = trace_values(basis, columns, xs, kind, nus)
        ref = _reference_trace([PolyVec.from_floats(basis, n, col) for col in columns.T], xs, kind, nus)
        assert got.shape == ref.shape
        scale = np.max(np.abs(ref), axis=(0, 1))
        assert np.all(np.abs(got - ref) <= 1e-13 * scale)

    def test_points_with_too_few_coordinates_rejected(self):
        basis = monomial_basis(3, 1)
        with pytest.raises(ValueError, match=r"points must be an \(npoints, 3\) array, got shape \(5, 2\)"):
            trace_values(basis, np.ones((basis.size * 3, 1)), np.ones((5, 2)), TraceKind.FULL)

    @pytest.mark.parametrize("kind", [TraceKind.NORMAL, TraceKind.TANGENTIAL], ids=lambda k: k.value)
    def test_projected_kinds_need_normals(self, kind):
        basis = monomial_basis(2, 1)
        with pytest.raises(ValueError, match=rf"{kind.value} trace needs normals of shape \(5, 2\), got none"):
            trace_values(basis, np.ones((basis.size * 2, 1)), np.ones((5, 2)), kind)

    def test_normals_must_match_points(self):
        basis = monomial_basis(2, 1)
        with pytest.raises(ValueError, match=r"normal trace needs normals of shape \(5, 2\), got shape \(4, 2\)"):
            trace_values(basis, np.ones((basis.size * 2, 1)), np.ones((5, 2)), TraceKind.NORMAL, np.ones((4, 2)))


class TestNumericNullspace:
    def test_zero_matrix_gives_full_nullspace(self):
        result = numeric_nullspace(np.zeros((4, 3)))
        assert result.dim == 3
        assert result.singular_values == pytest.approx([0.0, 0.0, 0.0])

    def test_wide_matrix_pads_null_directions(self):
        # One row against three columns: the two directions the row does
        # not touch come from the full V, with zeros padding the spectrum.
        result = numeric_nullspace(np.array([[1.0, 2.0, 3.0]]))
        assert result.dim == 2
        assert len(result.singular_values) == 3
        assert np.abs(np.array([1.0, 2.0, 3.0]) @ result.vectors).max() < 1e-12

    def test_identity_gives_trivial_nullspace(self):
        result = numeric_nullspace(np.eye(3))
        assert result.dim == 0

    def test_rotation_direction_recovered(self):
        op = builtin_operator("sym_grad", 2)
        kb = kernel_basis(op, 1)
        grid = sample_grid(_BALL2, [6])
        cm = _constraints(kb, _BALL2, TraceKind.NORMAL, grid)
        result = numeric_nullspace(cm)
        assert result.dim == 1
        basis2 = monomial_basis(2, 1)
        rot = poly(basis2, 2, {((0, 1), 0): -1, ((1, 0), 1): 1})
        rot_coeffs = np.array([float(c) for c in rot.coeffs])
        # Express the recovered direction in coefficient space and
        # compare up to sign and scale.
        cols = np.array([[float(c) for c in p.coeffs] for p in kb.basis]).T
        cols = cols / np.linalg.norm(cols, axis=0)
        recovered = cols @ result.vectors[:, 0]
        recovered /= np.linalg.norm(recovered)
        target = rot_coeffs / np.linalg.norm(rot_coeffs)
        assert min(
            np.linalg.norm(recovered - target), np.linalg.norm(recovered + target)
        ) < 1e-8


def _planted(seed, q, d, nullity):
    """A q x d matrix of rank d - nullity, with spread singular values,
    turned by a random orthogonal matrix on the right."""
    rng = np.random.default_rng(seed)
    rank = d - nullity
    left = rng.standard_normal((q, rank)) * np.logspace(0, -3, rank)
    rotation, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return left @ rng.standard_normal((rank, d)) @ rotation


def _direct_nullspace(matrix, sigma_rel=normtest._SIGMA_REL_DEFAULT):
    """numeric_nullspace without the reduction: one SVD of the matrix."""
    q, d = matrix.shape
    _, s, vh = np.linalg.svd(matrix, full_matrices=q < d)
    spectrum = np.concatenate([s, np.zeros(max(d - len(s), 0))])
    mask = spectrum <= sigma_rel * max(float(spectrum[0]), 1.0)
    return vh[mask].T, spectrum


def _assert_matches_direct(matrix):
    result = numeric_nullspace(matrix)
    vectors, spectrum = _direct_nullspace(matrix)
    assert result.dim == vectors.shape[1]
    assert np.abs(result.singular_values - spectrum).max() <= 1e-12 * spectrum[0]
    span = result.vectors @ result.vectors.T - vectors @ vectors.T
    assert np.linalg.norm(span, 2) <= 1e-8


class TestTallReduction:
    """numeric_nullspace reduces a matrix of more than
    max(_QR_BLOCK_ENTRIES // d, 2 d) rows to stacked block R factors
    before its SVD; the direct SVD is the reference."""

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(min_value=1, max_value=15),
        entries=st.integers(min_value=8193, max_value=40000),
        fraction=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_tall_matrix_matches_the_direct_svd(self, d, entries, fraction, seed):
        q = max(entries // d, 8193 // d + 1)
        nullity = 1 + round(fraction * (d - 1))
        _assert_matches_direct(_planted(seed, q, d, nullity))

    @pytest.mark.parametrize(
        "q,d",
        [(max(normtest._QR_BLOCK_ENTRIES // d, 2 * d), d) for d in (1, 3, 10, 64, 100)] + [(2, 5), (50, 100)],
    )
    def test_matrix_of_at_most_one_block_takes_the_direct_svd(self, q, d):
        matrix = _planted(d, q, d, d - min(q, d) + 1)
        result = numeric_nullspace(matrix)
        vectors, spectrum = _direct_nullspace(matrix)
        assert np.array_equal(result.vectors, vectors)
        assert np.array_equal(result.singular_values, spectrum)

    @pytest.mark.parametrize("q,d", [(40000, 1), (9000, 2), (2304, 10), (3000, 6), (5000, 33), (5000, 64)])
    def test_no_lapack_call_sees_more_than_one_block(self, monkeypatch, q, d):
        seen = []

        def spy(fn):
            def call(a, *args, **kwargs):
                seen.append((fn.__name__, a.shape[-2] * a.shape[-1]))
                return fn(a, *args, **kwargs)

            return call

        monkeypatch.setattr(np.linalg, "qr", spy(np.linalg.qr))
        monkeypatch.setattr(np.linalg, "svd", spy(np.linalg.svd))
        numeric_nullspace(_planted(q, q, d, 1))
        assert seen[0][0] == "qr" and seen[-1][0] == "svd"
        assert max(entries for _, entries in seen) <= normtest._QR_BLOCK_ENTRIES

    def test_wide_blocks_still_shrink(self):
        # At d = 100 a block has 2 d rows, more than _QR_BLOCK_ENTRIES
        # entries; each pass must still shorten the matrix.
        _assert_matches_direct(_planted(7, 5000, 100, 3))


class TestClassifyVerdicts:
    def test_dev_grad_disk_normal_is_norm(self):
        op = builtin_operator("dev_grad", 2)
        kb = kernel_basis(op, 1)
        verdict = classify(kb, _BALL2, TraceKind.NORMAL, *_grids(_BALL2, [6]))
        assert verdict.tag == "A1"
        assert verdict.certificates == ()

    def test_sym_grad_disk_normal_fails_on_rotation(self):
        op = builtin_operator("sym_grad", 2)
        kb = kernel_basis(op, 1)
        verdict = classify(kb, _BALL2, TraceKind.NORMAL, *_grids(_BALL2, [6]))
        assert verdict.tag == "A2"
        assert len(verdict.certificates) == 1
        basis2 = monomial_basis(2, 1)
        rot = poly(basis2, 2, {((0, 1), 0): -1, ((1, 0), 1): 1})
        angle = _max_principal_angle(verdict.certificates, [rot], basis2, 2)
        assert angle < 1e-8

    def test_certificate_coefficients_are_fractions(self):
        # from_floats adopts its coefficients without scanning them.
        kb = kernel_basis(builtin_operator("dev_sym_grad", 3), 2)
        verdict = classify(kb, _BALL3, TraceKind.NORMAL, *_grids(_BALL3, [4, 4]))
        assert len(verdict.certificates) == 6
        assert all(type(c) is Fraction for cert in verdict.certificates for c in cert.coeffs)

    def test_sym_grad_wavy_domain_normal_is_norm(self):
        op = builtin_operator("sym_grad", 2)
        kb = kernel_basis(op, 1)
        verdict = classify(kb, _WAVY2, TraceKind.NORMAL, *_grids(_WAVY2, [6]))
        assert verdict.tag == "A1"

    def test_dev_sym_grad_ball3_normal_certificate_space(self):
        # The unit sphere is exceptional for the trace-free symmetric
        # gradient: besides the three rotations, the quadratic fields
        # 2<a,x>x - |x|^2 a - a satisfy <rho_a(x), x> = <a,x>(|x|^2 - 1),
        # which vanishes on |x| = 1.  The certificate space is 6-dim.
        op = builtin_operator("dev_sym_grad", 3)
        kb = kernel_basis(op, 2)
        verdict = classify(kb, _BALL3, TraceKind.NORMAL, *_grids(_BALL3, [4, 4]))
        assert verdict.tag == "A2"
        assert len(verdict.certificates) == 6

        basis3 = monomial_basis(3, 2)
        expected = []
        for axis in range(3):
            i, j = [k for k in range(3) if k != axis]
            expected.append(
                poly(basis3, 3, {(_unit(j), i): -1, (_unit(i), j): 1})
            )
        for axis in range(3):
            terms = {(_unit2(axis), axis): 1, ((0, 0, 0), axis): -1}
            for other in range(3):
                if other != axis:
                    terms[(_unit2(other), axis)] = -1
                    terms[(_pair(axis, other), other)] = 2
            expected.append(poly(basis3, 3, terms))
        angle = _max_principal_angle(list(verdict.certificates), expected, basis3, 3)
        assert angle < 1e-8

    def test_trivial_kernel_short_circuits_to_a1(self):
        # Constants always sit in differential kernels, so a genuinely
        # zero-dimensional one has to be constructed directly.
        from korncert.kernel import KernelBasis

        op = builtin_operator("sym_grad", 2)
        full = kernel_basis(op, 1)
        kb = KernelBasis(operator=op, K=1, basis=(), m=full.m, rank=full.m)
        verdict = classify(kb, _BALL2, TraceKind.NORMAL, *_grids(_BALL2, [6]))
        assert verdict.tag == "A1"
        assert "trivial kernel" in verdict.diagnostics.note

    def test_a3_when_coarse_grid_too_small(self):
        op = builtin_operator("sym_grad", 2)
        kb = kernel_basis(op, 1)
        coarse = sample_grid(_WAVY2, [2])
        dense = sample_grid(_WAVY2, [16])
        verdict = classify(kb, _WAVY2, TraceKind.NORMAL, coarse, dense)
        assert verdict.tag == "A3"
        assert "coarse" in verdict.diagnostics.note

    def test_a1_builds_no_dense_geometry(self, monkeypatch):
        # A coarse A1 verdict never reaches the dense grid, so the only
        # frame built is the coarse one.
        framed = []
        real = normtest.grid_frame

        def counting(dom, grid):
            framed.append(len(grid))
            return real(dom, grid)

        monkeypatch.setattr(normtest, "grid_frame", counting)
        kb = kernel_basis(builtin_operator("dev_grad", 2), 1)
        coarse, dense = _grids(_BALL2, [6])
        verdict = classify(kb, _BALL2, TraceKind.NORMAL, coarse, dense)
        assert verdict.tag == "A1"
        assert sum(framed) == len(coarse)

    def test_grid_of_another_dimension_is_refused(self):
        kb = kernel_basis(builtin_operator("sym_grad", 3), 1)
        coarse, dense = _grids(_BALL2, [6])
        with pytest.raises(ValueError, match="2-dimensional sample grid does not fit a 3-dimensional domain"):
            classify(kb, _BALL3, TraceKind.NORMAL, coarse, dense)

    def test_dense_grid_must_be_strictly_finer(self):
        op = builtin_operator("sym_grad", 2)
        kb = kernel_basis(op, 1)
        grid = sample_grid(_BALL2, [6])
        with pytest.raises(ValueError, match=r"^dense grid must be strictly finer than coarse in every coordinate$"):
            classify(kb, _BALL2, TraceKind.NORMAL, grid, grid)

    def test_dense_grid_must_cover_the_coarse_range(self):
        # A run config cannot give the dense grid a range of its own; a
        # library caller can.
        kb = kernel_basis(builtin_operator("sym_grad", 2), 1)
        coarse = sample_grid(_BALL2, [6], [(0.0, 3.0)])
        dense = sample_grid(_BALL2, [48], [(0.0, 2.0)])
        with pytest.raises(ValueError, match=r"^coarse and dense grids must cover the same angular ranges$"):
            classify(kb, _BALL2, TraceKind.NORMAL, coarse, dense)

    def test_certificates_vanish_on_much_finer_grid(self):
        op = builtin_operator("sym_grad", 2)
        kb = kernel_basis(op, 1)
        verdict = classify(kb, _BALL2, TraceKind.NORMAL, *_grids(_BALL2, [6]))
        fine = sample_grid(_BALL2, [6 * 32])
        for cert in verdict.certificates:
            assert certificate_residual(cert, _BALL2, TraceKind.NORMAL, fine) < 1e-12


class _CountingFraction(Fraction):
    """A Fraction that counts reads of its numerator: one per float
    conversion."""

    reads = 0

    @property
    def numerator(self):
        _CountingFraction.reads += 1
        return super().numerator


class TestKernelFloatView:
    def test_built_once_bit_for_bit_and_read_only(self, monkeypatch):
        exact = kernel_basis(builtin_operator("dev_sym_grad", 3), 2)
        polys = tuple(PolyVec(p.basis, p.dimV, tuple(map(_CountingFraction, p.coeffs))) for p in exact.basis)
        kb = dataclasses.replace(exact, basis=polys)
        monkeypatch.setattr(_CountingFraction, "reads", 0)
        assert "unit_columns" not in vars(kb)  # nothing is converted up front
        expected = np.array([[c.numerator / c.denominator for c in p.coeffs] for p in exact.basis]).T
        expected = expected / np.linalg.norm(expected, axis=0)
        for _ in range(2):
            classify(kb, _BALL3, TraceKind.NORMAL, *_grids(_BALL3, [4, 4], factor=4))
            point_measure_test(kb, [boundary_point(_BALL3, (0.5 + t, 0.3 * t)) for t in range(12)])
        assert _CountingFraction.reads == kb.m * kb.dim
        view = kb.unit_columns
        assert view.shape == (kb.m, kb.dim)
        assert view.tobytes() == expected.tobytes()
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0, 0] = 1.0

    def test_zero_element_is_refused(self):
        exact = kernel_basis(builtin_operator("sym_grad", 2), 1)
        zero = PolyVec(exact.basis[0].basis, exact.basis[0].dimV, (0,) * exact.m)
        kb = dataclasses.replace(exact, basis=(*exact.basis, zero))
        with pytest.raises(ValueError, match="zero element"):
            classify(kb, _BALL2, TraceKind.NORMAL, *_grids(_BALL2, [6]))


class TestTangentialCases:
    def test_dev_grad_disk_tangential_fails_on_dilation(self):
        op = builtin_operator("dev_grad", 2)
        kb = kernel_basis(op, 1)
        verdict = classify(kb, _BALL2, TraceKind.TANGENTIAL, *_grids(_BALL2, [6]))
        assert verdict.tag == "A2"
        assert len(verdict.certificates) == 1
        basis2 = monomial_basis(2, 1)
        dil = poly(basis2, 2, {((1, 0), 0): 1, ((0, 1), 1): 1})
        assert _max_principal_angle(verdict.certificates, [dil], basis2, 2) < 1e-8
        assert verdict.diagnostics.residuals[0] < 1e-12

    def test_dev_grad_wavy_tangential_is_norm(self):
        op = builtin_operator("dev_grad", 2)
        kb = kernel_basis(op, 1)
        verdict = classify(kb, _WAVY2, TraceKind.TANGENTIAL, *_grids(_WAVY2, [8]))
        assert verdict.tag == "A1"

    def test_sym_grad_disk_tangential_is_norm(self):
        op = builtin_operator("sym_grad", 2)
        kb = kernel_basis(op, 1)
        verdict = classify(kb, _BALL2, TraceKind.TANGENTIAL, *_grids(_BALL2, [6]))
        assert verdict.tag == "A1"


class TestPointMeasures:
    def test_two_generic_points_pin_dev_grad_kernel(self):
        op = builtin_operator("dev_grad", 2)
        kb = kernel_basis(op, 1)
        verdict = point_measure_test(kb, [np.array([0.3, 0.1]), np.array([-0.2, 0.6])])
        assert verdict.tag == "A1"

    def test_single_origin_point_leaves_rotation(self):
        op = builtin_operator("sym_grad", 2)
        kb = kernel_basis(op, 1)
        verdict = point_measure_test(kb, [np.array([0.0, 0.0])])
        assert verdict.tag == "A2"
        assert len(verdict.certificates) == 1

    def test_second_point_flips_to_norm(self):
        op = builtin_operator("sym_grad", 2)
        kb = kernel_basis(op, 1)
        verdict = point_measure_test(
            kb, [np.array([0.0, 0.0]), np.array([1.0, 0.0])]
        )
        assert verdict.tag == "A1"

    def test_axis_line_leaves_rotation_about_it(self):
        from korncert.geometry import line_points

        op = builtin_operator("sym_grad", 3)
        kb = kernel_basis(op, 2)
        pts = line_points([0, 0, 0], [1, 0, 0], 5, 1.0)
        verdict = point_measure_test(kb, pts)
        assert verdict.tag == "A2"
        assert len(verdict.certificates) == 1
        basis3 = monomial_basis(3, 2)
        rot_x = poly(basis3, 3, {((0, 0, 1), 1): -1, ((0, 1, 0), 2): 1})
        assert _max_principal_angle(verdict.certificates, [rot_x], basis3, 3) < 1e-8

    def test_two_lines_pin_everything(self):
        from korncert.geometry import line_points

        op = builtin_operator("sym_grad", 3)
        kb = kernel_basis(op, 2)
        pts = line_points([0, 0, 0], [1, 0, 0], 5, 1.0) + line_points(
            [0, 0, 0], [0, 1, 0], 5, 1.0
        )
        verdict = point_measure_test(kb, pts)
        assert verdict.tag == "A1"

    def test_no_points_rejected(self):
        op = builtin_operator("sym_grad", 2)
        kb = kernel_basis(op, 1)
        with pytest.raises(ValueError):
            point_measure_test(kb, [])


class TestCertificateResidual:
    def test_rotation_normal_trace_vanishes_exactly(self):
        basis2 = monomial_basis(2, 1)
        rot = poly(basis2, 2, {((0, 1), 0): -1, ((1, 0), 1): 1})
        grid = sample_grid(_BALL2, [64])
        assert certificate_residual(rot, _BALL2, TraceKind.NORMAL, grid) < 1e-15

    def test_dilation_tangential_trace_vanishes_exactly(self):
        basis2 = monomial_basis(2, 1)
        dil = poly(basis2, 2, {((1, 0), 0): 1, ((0, 1), 1): 1})
        grid = sample_grid(_BALL2, [64])
        assert certificate_residual(dil, _BALL2, TraceKind.TANGENTIAL, grid) < 1e-15

    def test_translation_normal_trace_does_not_vanish(self):
        basis2 = monomial_basis(2, 1)
        e1 = poly(basis2, 2, {((0, 0), 0): 1})
        grid = sample_grid(_BALL2, [64])
        assert certificate_residual(e1, _BALL2, TraceKind.NORMAL, grid) > 0.9

    @pytest.mark.parametrize(
        "operator, K, dom, kind, counts, tolerances",
        [
            ("sym_grad", 1, _BALL2, TraceKind.NORMAL, [6], {}),
            ("dev_grad", 1, _BALL2, TraceKind.TANGENTIAL, [6], {}),
            ("sym_grad", 1, _BALL3, TraceKind.NORMAL, [4, 4], {}),
            ("dev_sym_grad", 2, _BALL3, TraceKind.NORMAL, [4, 4], {}),
            # On a disk of radius 1/1000 the dilation's trace stays below a
            # loose threshold, so its residual is about 7e-4, not rounding.
            ("dev_grad", 1, StarDomain.ball(2, Fraction(1, 1000)), TraceKind.NORMAL, [6], {"sigma_rel": 1e-2, "tol_dense": 1.0}),
            ("dev_grad", 1, StarDomain.ball(2, Fraction(1, 1000)), TraceKind.FULL, [6], {"sigma_rel": 1e-2, "tol_dense": 1.0}),
        ],
        ids=[
            "sym_grad-disk-normal",
            "dev_grad-disk-tangential",
            "sym_grad-ball3-normal",
            "dev_sym_grad-ball3-normal",
            "dev_grad-small-disk-normal",
            "dev_grad-small-disk-full",
        ],
    )
    def test_reported_residuals_are_the_certificates_own(self, operator, K, dom, kind, counts, tolerances):
        # classify computes the residuals from float coefficients; each must
        # be the residual of the Fraction certificate it reports.
        kb = kernel_basis(builtin_operator(operator, dom.n), K)
        coarse, dense = _grids(dom, counts)
        verdict = classify(kb, dom, kind, coarse, dense, **tolerances)
        assert verdict.tag == "A2"
        for cert, res in zip(verdict.certificates, verdict.diagnostics.residuals, strict=True):
            assert abs(certificate_residual(cert, dom, kind, dense) - res) <= 1e-15

    # The rotation's float residuals here are 5.551e-17, so a tolerance
    # below them trips the gate that every A2 verdict passes.
    def test_classify_rejects_residual_above_tolerance(self):
        kb = kernel_basis(builtin_operator("sym_grad", 2), 1)
        with pytest.raises(ValueError, match=r"exceeds tol_dense=1\.0e-300"):
            classify(kb, _BALL2, TraceKind.NORMAL, *_grids(_BALL2, [6]), tol_dense=1e-300)

    def test_point_test_rejects_residual_above_tolerance(self):
        kb = kernel_basis(builtin_operator("sym_grad", 2), 1)
        with pytest.raises(ValueError, match=r"exceeds tol_dense=1\.0e-300"):
            point_measure_test(kb, [np.array([0.3, 0.7])], tol_dense=1e-300)


@pytest.mark.parametrize(
    "tolerances,message",
    [
        ({"sigma_rel": math.nan}, "sigma_rel must be a finite real number, got nan"),
        ({"tol_dense": math.inf}, "tol_dense must be a finite real number, got inf"),
        ({"tol_dense": 0.0}, "need tol_dense > 0, got 0.0"),
    ],
    ids=["sigma_rel-nan", "tol_dense-inf", "tol_dense-0"],
)
@pytest.mark.parametrize("test", ["classify", "point_measure_test", "trivial-kernel"])
def test_tolerance_must_be_finite_and_positive(test, tolerances, message):
    # A NaN sigma_rel would drop every nullspace direction (a wrong A1),
    # an infinite one would keep them all.  The trivial kernel checks too.
    from korncert.kernel import KernelBasis

    kb = kernel_basis(builtin_operator("sym_grad", 2), 1)
    if test == "trivial-kernel":
        kb = KernelBasis(operator=kb.operator, K=1, basis=(), m=kb.m, rank=kb.m)
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        if test == "point_measure_test":
            point_measure_test(kb, [np.array([0.0, 0.0])], **tolerances)
        else:
            classify(kb, _BALL2, TraceKind.NORMAL, *_grids(_BALL2, [6]), **tolerances)


@pytest.mark.parametrize("value", [None, 1, 2.5, ["normal"], b"normal", "bogus"])
def test_trace_kind_of_refuses_what_names_no_kind(value):
    # Only a TraceKind or the name of one, in any case, is a trace kind.
    with pytest.raises(ValueError, match=rf"^unknown trace kind: {re.escape(repr(value))}$"):
        TraceKind.of(value)
    kb = kernel_basis(builtin_operator("sym_grad", 2), 1)
    with pytest.raises(ValueError, match=r"^unknown trace kind: "):
        classify(kb, _BALL2, value, *_grids(_BALL2, [6]))
    assert TraceKind.of("Normal") is TraceKind.of(TraceKind.NORMAL) is TraceKind.NORMAL


class TestInvariance:
    def test_verdict_invariant_under_basis_recombination(self):
        """The certificate span must not depend on which exact basis of
        the kernel the classifier starts from."""
        import random

        from fractions import Fraction

        from korncert.kernel import KernelBasis

        op = builtin_operator("sym_grad", 2)
        kb = kernel_basis(op, 1)
        coarse, dense = _grids(_BALL2, [6])
        reference = classify(kb, _BALL2, TraceKind.NORMAL, coarse, dense)
        basis2 = monomial_basis(2, 1)
        rng = random.Random(12)

        trials = 0
        while trials < 20:
            entries = [
                [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(kb.dim)]
                for _ in range(kb.dim)
            ]
            # Reject singular recombinations.
            from korncert.linalg import rank as exact_rank

            if exact_rank([row[:] for row in entries], kb.dim) < kb.dim:
                continue
            trials += 1
            columns = list(zip(*(p.coeffs for p in kb.basis)))
            recombined = [
                PolyVec(basis2, 2, tuple(sum(w * c for w, c in zip(row, cs)) for cs in columns))
                for row in entries
            ]
            kb2 = KernelBasis(
                operator=kb.operator, K=kb.K, basis=tuple(recombined), m=kb.m, rank=kb.rank
            )
            verdict = classify(kb2, _BALL2, TraceKind.NORMAL, coarse, dense)
            assert verdict.tag == reference.tag
            angle = _max_principal_angle(
                list(verdict.certificates), list(reference.certificates), basis2, 2
            )
            assert angle < 1e-8

    def test_nullspace_dim_monotone_in_grid_refinement(self):
        op = builtin_operator("dev_sym_grad", 3)
        kb = kernel_basis(op, 2)
        dims = []
        for counts in ([2, 2], [3, 3], [4, 4], [6, 6]):
            grid = sample_grid(_BALL3, counts)
            cm = _constraints(kb, _BALL3, TraceKind.NORMAL, grid)
            dims.append(numeric_nullspace(cm).dim)
        assert dims == sorted(dims, reverse=True)
        assert dims[-1] == 6

    def test_verdict_stable_under_grid_refinement_on_disk(self):
        op = builtin_operator("sym_grad", 2)
        kb = kernel_basis(op, 1)
        basis2 = monomial_basis(2, 1)
        reference = None
        for counts in ([6], [12], [24]):
            verdict = classify(kb, _BALL2, TraceKind.NORMAL, *_grids(_BALL2, counts))
            assert verdict.tag == "A2"
            if reference is None:
                reference = verdict
            else:
                angle = _max_principal_angle(
                    list(verdict.certificates),
                    list(reference.certificates),
                    basis2,
                    2,
                )
                assert angle < 1e-8


def _unit(axis: int) -> tuple[int, int, int]:
    e = [0, 0, 0]
    e[axis] = 1
    return tuple(e)


def _unit2(axis: int) -> tuple[int, int, int]:
    e = [0, 0, 0]
    e[axis] = 2
    return tuple(e)


def _pair(a: int, b: int) -> tuple[int, int, int]:
    e = [0, 0, 0]
    e[a] += 1
    e[b] += 1
    return tuple(e)


# -- property suite ----------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    count=st.integers(min_value=5, max_value=24),
    phase=st.floats(min_value=0.0, max_value=2 * math.pi),
)
def test_rotation_survives_any_circle_grid(count, phase):
    """The rotation field has identically zero normal trace on circles,
    so every grid and every phase must keep it in the nullspace."""
    op = builtin_operator("sym_grad", 2)
    kb = kernel_basis(op, 1)
    grid = sample_grid(_BALL2, [count], [(phase, phase + 2 * math.pi)])
    cm = _constraints(kb, _BALL2, TraceKind.NORMAL, grid)
    result = numeric_nullspace(cm)
    assert result.dim >= 1


@functools.lru_cache(maxsize=None)
def _kernel(name, n):
    return kernel_basis(builtin_operator(name, n), 2)


def _reference_magnitudes(rho, dom, kind, grid):
    """Per-sample trace magnitudes, one point at a time through eval_poly."""
    xs = [boundary_point(dom, theta) for theta in grid.thetas]
    nus = [outward_normal(dom, theta) for theta in grid.thetas]
    return np.max(np.abs(_reference_trace([rho], xs, kind, nus)), axis=1)[:, 0]


_DOMAINS = {
    "disk": lambda c, a, m1, m2: StarDomain.ball(2, c),
    "sine2d": lambda c, a, m1, m2: StarDomain.sine2d(c, a, m1),
    "ball3": lambda c, a, m1, m2: StarDomain.ball(3, c),
    "sine3d": lambda c, a, m1, m2: StarDomain.sine3d(c, a, m1, m2),
}


@settings(max_examples=30, deadline=None)
@given(
    operator=st.sampled_from(["sym_grad", "dev_sym_grad", "dev_grad"]),
    family=st.sampled_from(sorted(_DOMAINS)),
    kind=st.sampled_from(list(TraceKind)),
    c=st.fractions(min_value=1, max_value=2, max_denominator=8),
    a=st.fractions(min_value=Fraction(-1, 2), max_value=Fraction(1, 2), max_denominator=8),
    m1=st.integers(min_value=1, max_value=4),
    m2=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_trace_magnitudes_match_pointwise_reference(operator, family, kind, c, a, m1, m2, data):
    """The batched evaluator agrees with evaluating each sample on its own."""
    dom = _DOMAINS[family](c, a, m1, m2)
    kb = _kernel(operator, dom.n)
    weight = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    polys = []
    columns = list(zip(*(p.coeffs for p in kb.basis)))
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        weights = [data.draw(weight) for _ in kb.basis]
        coeffs = tuple(sum(w * c for w, c in zip(weights, cs)) for cs in columns)
        polys.append(PolyVec(kb.basis[0].basis, kb.basis[0].dimV, coeffs))
    grid = sample_grid(dom, [7] if dom.n == 2 else [4, 5])
    got = trace_magnitudes(polys, kind, *grid_frame(dom, grid))
    for j, rho in enumerate(polys):
        ref = _reference_magnitudes(rho, dom, kind, grid)
        assert np.max(np.abs(got[:, j] - ref)) <= 1e-13
