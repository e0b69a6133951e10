"""Seminorm-is-norm classification: constraint assembly, numeric
nullspaces, two-stage verdicts, and point measures.

The A2 verdicts below are all backed by closed-form kernel fields whose
traces vanish identically, so residual assertions can be tightened far
below the working tolerance.
"""

import functools
import math
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
        with pytest.raises(ValueError):
            _constraints(kb, _BALL2, TraceKind.NORMAL, grid)


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

    def test_dense_grid_must_be_strictly_finer(self):
        op = builtin_operator("sym_grad", 2)
        kb = kernel_basis(op, 1)
        grid = sample_grid(_BALL2, [6])
        with pytest.raises(ValueError):
            classify(kb, _BALL2, TraceKind.NORMAL, grid, grid)

    def test_certificates_vanish_on_much_finer_grid(self):
        op = builtin_operator("sym_grad", 2)
        kb = kernel_basis(op, 1)
        verdict = classify(kb, _BALL2, TraceKind.NORMAL, *_grids(_BALL2, [6]))
        fine = sample_grid(_BALL2, [6 * 32])
        for cert in verdict.certificates:
            assert certificate_residual(cert, _BALL2, TraceKind.NORMAL, fine) < 1e-12


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
    "tolerances",
    [{"sigma_rel": math.nan}, {"tol_dense": math.inf}, {"tol_dense": 0.0}],
    ids=["sigma_rel-nan", "tol_dense-inf", "tol_dense-0"],
)
@pytest.mark.parametrize("test", ["classify", "point_measure_test", "trivial-kernel"])
def test_tolerance_must_be_finite_and_positive(test, tolerances):
    # A NaN sigma_rel would drop every nullspace direction (a wrong A1),
    # an infinite one would keep them all.  The trivial kernel checks too.
    from korncert.kernel import KernelBasis

    kb = kernel_basis(builtin_operator("sym_grad", 2), 1)
    if test == "trivial-kernel":
        kb = KernelBasis(operator=kb.operator, K=1, basis=(), m=kb.m, rank=kb.m)
    name, value = next(iter(tolerances.items()))
    with pytest.raises(ValueError, match=rf"^{name} must be finite and > 0, got {value}$"):
        if test == "point_measure_test":
            point_measure_test(kb, [np.array([0.0, 0.0])], **tolerances)
        else:
            classify(kb, _BALL2, TraceKind.NORMAL, *_grids(_BALL2, [6]), **tolerances)


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
    out = []
    for theta in grid.thetas:
        x = boundary_point(dom, theta)
        v = np.array(eval_poly(rho, x))
        nu = outward_normal(dom, theta)
        if kind is TraceKind.NORMAL:
            out.append(abs(float(v @ nu)))
        elif kind is TraceKind.TANGENTIAL:
            out.append(float(np.max(np.abs(v - float(v @ nu) * nu))))
        else:
            out.append(float(np.max(np.abs(v))))
    return np.array(out)


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
