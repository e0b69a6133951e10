"""Self-tests for the benchmark's oracles and checks.

    python3 -m pytest -q perfbench/test_oracles.py

The oracles must accept true outputs and reject a perturbed kernel
basis vector, a certificate rotated out of the true span, and a wrong
verdict tag.  The closed forms and analytic spans are checked here
against brute-force sympy computations that share no code with them.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import korncert  # noqa: E402
import oracles  # noqa: E402
from workloads import DenseCertify, KernelSweep, check_certificates  # noqa: E402


def _coeffs(field, n, K):
    """Exact Fraction coefficient vector of a sympy field in the layout."""
    exps = oracles.graded_exponents(n, K)
    index = {e: j for j, e in enumerate(exps)}
    out = [Fraction(0)] * (len(exps) * len(field))
    xs = oracles.symbols(n)
    for c, comp in enumerate(field):
        if sp.expand(comp) == 0:
            continue
        for mono, q in sp.Poly(comp, *xs).as_dict().items():
            out[index[mono] * len(field) + c] = Fraction(int(q.p), int(q.q))
    return out


def _brute_kernel_dim(name, n, order, K):
    """Kernel dimension from a generic polynomial with symbolic coefficients."""
    xs = oracles.symbols(n)
    _, dim_v, _ = oracles.operator_dims(name, n, order)
    exps = oracles.graded_exponents(n, K)
    unknowns = sp.symbols(f"c0:{dim_v * len(exps)}")
    comps = [
        sum(unknowns[j * dim_v + c] * sp.Mul(*[x**e for x, e in zip(xs, mono)]) for j, mono in enumerate(exps))
        for c in range(dim_v)
    ]
    equations = []
    for image in oracles.apply_definition(name, n, order, comps, xs):
        image = sp.expand(image)
        if image != 0:
            equations += sp.Poly(image, *xs).coeffs()
    if not equations:
        return len(unknowns)
    matrix = sp.Matrix([[sp.diff(eq, u) for u in unknowns] for eq in equations])
    return len(unknowns) - matrix.rank()


@pytest.mark.parametrize(
    "name,n,order,K",
    [("sym_grad", 2, None, K) for K in range(4)]
    + [("sym_grad", 3, None, 2), ("dev_sym_grad", 3, None, 1), ("dev_sym_grad", 3, None, 2)]
    + [("dev_sym_grad", 2, None, K) for K in range(4)]
    + [("div", 2, None, K) for K in range(3)] + [("div", 3, None, 2)]
    + [("grad_k", 2, 3, K) for K in range(5)],
)
def test_closed_form_dims_match_brute_force(name, n, order, K):
    assert oracles.kernel_dim(name, n, order, K) == _brute_kernel_dim(name, n, order, K)


def test_graded_exponents_match_documented_order():
    assert oracles.graded_exponents(2, 2) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    basis = korncert.monomial_basis(3, 4)
    assert [mi.entries for mi in basis.exponents] == oracles.graded_exponents(3, 4)


def test_annihilation_accepts_rigid_motions_and_rejects_a_perturbation():
    op = korncert.builtin_operator("sym_grad", 3)
    terms = [(a.entries, m) for a, m in op.terms]
    exps = oracles.graded_exponents(3, 2)
    x1, x2, x3 = oracles.symbols(3)
    field = _coeffs([-x2, x1, sp.Integer(7)], 3, 2)
    assert oracles.annihilated("sym_grad", 3, None, terms, field, exps, 3)
    field[exps.index((2, 0, 0)) * 3] += Fraction(1, 7)
    assert not oracles.annihilated("sym_grad", 3, None, terms, field, exps, 3)


def test_annihilation_rejects_wrong_coefficient_matrices():
    op = korncert.builtin_operator("dev_sym_grad", 3)
    wrong = korncert.builtin_operator("sym_grad", 3)
    exps = oracles.graded_exponents(3, 1)
    dilation = _coeffs(list(oracles.symbols(3)), 3, 1)
    assert oracles.annihilated("dev_sym_grad", 3, None, [(a.entries, m) for a, m in op.terms], dilation, exps, 3)
    assert not oracles.annihilated(
        "dev_sym_grad", 3, None, [(a.entries, m) for a, m in wrong.terms], dilation, exps, 3
    )


def test_independence_is_exact():
    vs = [[Fraction(1), Fraction(2), Fraction(0)], [Fraction(0), Fraction(1, 3), Fraction(1)]]
    assert oracles.independent(vs)
    assert not oracles.independent(vs + [[Fraction(2), Fraction(13, 3), Fraction(1)]])


def test_witness_check():
    op = korncert.builtin_operator("dev_sym_grad", 2)
    terms = [(a.entries, m) for a, m in op.terms]
    one, zero = Fraction(1), Fraction(0)
    assert oracles.witness_holds(terms, [(one, zero), (zero, one)], [(one, zero), (zero, -one)])
    assert not oracles.witness_holds(terms, [(one, zero), (zero, one)], [(one, zero), (zero, one)])


@pytest.mark.parametrize("name,n,K,c", [("sym_grad", 2, 1, 1), ("sym_grad", 3, 2, 1), ("dev_sym_grad", 3, 2, 1),
                                        ("dev_sym_grad", 3, 3, 2), ("dev_sym_grad", 2, 3, 1)])
def test_analytic_spans_are_kernel_fields_with_zero_normal_trace(name, n, K, c):
    domain = {"n": n, "family": "constant", "c": c}
    span = oracles.boundary_span(name, n, K, domain, "normal")
    assert len(span) == {("sym_grad", 2): 1, ("sym_grad", 3): 3, ("dev_sym_grad", 3): 6, ("dev_sym_grad", 2): 3}[(name, n)]
    xs = oracles.symbols(n)
    exps = oracles.graded_exponents(n, K)
    for field in span:
        assert all(sp.expand(e) == 0 for e in oracles.apply_definition(name, n, None, field, xs))
    coeffs = np.array([oracles.from_sympy(f, exps, xs) for f in span])
    assert np.linalg.matrix_rank(coeffs) == len(span)
    points, normals = oracles.boundary_frame(domain, oracles.grid_angles(n, [7] * (n - 1)))
    values = oracles.eval_fields(coeffs, exps, n, points)
    assert np.abs(oracles.trace_rows(values, normals, "normal")).max() < 1e-12


@pytest.mark.parametrize(
    "domain",
    [
        {"n": 2, "family": "sine2d", "c": 2.0, "a": 1.0, "m1": 2},
        {"n": 3, "family": "sine3d", "c": 2.0, "a": 1.0, "m1": 2, "m2": 3},
        {"n": 3, "family": "constant", "c": 1.5},
    ],
)
def test_boundary_frame_is_outward_unit_and_orthogonal_to_tangents(domain):
    n = domain["n"]
    angles = oracles.grid_angles(n, [9] * (n - 1))
    points, normals = oracles.boundary_frame(domain, angles)
    assert np.allclose(np.linalg.norm(normals, axis=1), 1.0)
    assert np.all(np.einsum("pv,pv->p", points, normals) > 0)
    h = 1e-6
    for k in range(n - 1):
        step = np.zeros(n - 1)
        step[k] = h
        tangent = (oracles.boundary_frame(domain, angles + step)[0] - oracles.boundary_frame(domain, angles - step)[0]) / (2 * h)
        assert np.abs(np.einsum("pv,pv->p", tangent, normals)).max() < 1e-7
    dom = korncert.StarDomain.from_json({"n": n, "radial": {"m": domain.get("m1"), **domain}})
    grid = korncert.sample_grid(dom, [9] * (n - 1))
    assert np.allclose(np.array(grid.thetas), angles, rtol=0, atol=1e-15)
    ref = np.array([korncert.outward_normal(dom, t) for t in grid.thetas])
    assert np.abs(ref - normals).max() < 1e-12


# -- the workload checks reject wrong outputs ------------------------------


@pytest.fixture(scope="module")
def sweep():
    wl = KernelSweep()
    wl.setup(seed=5)
    results = {label: fn({}) for label, fn in wl.ops() if ":sym_grad3" in label or "dev_sym_grad2" in label}
    wl.ops_ = {k: v for k, v in wl.ops_.items() if k in ("sym_grad3", "dev_sym_grad2")}
    return wl, results


def test_kernel_sweep_accepts_true_outputs(sweep):
    wl, results = sweep
    assert wl.check(results) == []


def test_kernel_sweep_rejects_a_perturbed_basis_vector(sweep):
    wl, results = sweep
    kb = results["kernel:sym_grad3:4"]
    p = kb.basis[2]
    coeffs = list(p.coeffs)
    coeffs[-1] += Fraction(1, 3)
    bad = dataclasses.replace(kb, basis=kb.basis[:2] + (dataclasses.replace(p, coeffs=tuple(coeffs)),) + kb.basis[3:])
    errors = wl.check({**results, "kernel:sym_grad3:4": bad})
    assert errors and all("sym_grad3 K=4" in e for e in errors)


def test_kernel_sweep_rejects_a_dependent_basis(sweep):
    wl, results = sweep
    kb = results["kernel:sym_grad3:2"]
    bad = dataclasses.replace(kb, basis=kb.basis[:-1] + (kb.basis[0],))
    assert any("dependent" in e for e in wl.check({**results, "kernel:sym_grad3:2": bad}))


def test_kernel_sweep_rejects_a_wrong_probe_verdict(sweep):
    wl, results = sweep
    probe = results["probe:dev_sym_grad2"]
    bad = dataclasses.replace(probe, c_elliptic=True, witness=None)
    assert any("probe says" in e for e in wl.check({**results, "probe:dev_sym_grad2": bad}))


@pytest.fixture(scope="module")
def ball_case():
    kb = korncert.kernel_basis(korncert.builtin_operator("dev_sym_grad", 3), 2)
    dom = korncert.StarDomain.ball(3)
    verdict = korncert.classify(kb, dom, "normal", korncert.sample_grid(dom, [4, 4]), korncert.sample_grid(dom, [16, 16]))
    case = {"label": "ball", "n": 3, "K": 2, "dim_v": 3, "domain": {"n": 3, "family": "constant", "c": 1.0},
            "trace": "normal", "coarse": [4, 4], "dense": [16, 16]}
    span = oracles.boundary_span("dev_sym_grad", 3, 2, case["domain"], "normal")
    certs = np.array([[float(q) for q in p.coeffs] for p in verdict.certificates])
    return verdict, case, span, certs


def test_certificates_in_the_six_dimensional_span_pass(ball_case):
    verdict, case, span, certs = ball_case
    assert verdict.tag == "A2" and len(span) == 6
    assert check_certificates(certs, case, span) == []


def test_certificate_rotated_out_of_the_span_is_rejected(ball_case):
    _, case, span, certs = ball_case
    exps = oracles.graded_exponents(3, 2)
    translation = np.zeros(len(exps) * 3)
    translation[exps.index((0, 0, 0)) * 3] = 1.0  # e_1: zero normal trace nowhere on the sphere
    eps = 1e-6
    rotated = certs.copy()
    rotated[0] = math.cos(eps) * certs[0] + math.sin(eps) * translation
    rotated[0] /= np.linalg.norm(rotated[0])
    assert any("analytic span" in e for e in check_certificates(rotated, case, span))


def test_too_few_certificates_are_rejected(ball_case):
    _, case, span, certs = ball_case
    assert check_certificates(certs[:3], case, span)


def test_wrong_verdict_tag_is_rejected(ball_case):
    verdict, case, span, _ = ball_case
    wl = DenseCertify()
    wl.kernels = {"dev3": korncert.kernel_basis(korncert.builtin_operator("dev_sym_grad", 3), 2)}
    assert wl._check_verdict(verdict, case, span, "dev3") == []
    assert wl._check_verdict(dataclasses.replace(verdict, tag="A1"), case, span, "dev3")
    assert wl._check_verdict(dataclasses.replace(verdict, tag="A3"), case, span, "dev3")


def test_a1_reproduction_rejects_a_grid_that_cannot_separate():
    kb = korncert.kernel_basis(korncert.builtin_operator("sym_grad", 2), 1)
    case = {"label": "wavy2", "n": 2, "K": 1, "dim_v": 2, "trace": "normal",
            "domain": {"n": 2, "family": "sine2d", "c": 2.0, "a": 1.0, "m1": 2}}
    coeffs = [p.coeffs for p in kb.basis]
    from workloads import check_norm

    assert check_norm(coeffs, {**case, "coarse": [12]}) == []
    assert check_norm(coeffs, {**case, "coarse": [2]})  # 2 rows, 3 unknowns


def test_line_span_is_the_rotation_about_the_line():
    (field,) = oracles.line_span("sym_grad", 3, 2, [0, 0, 0], [1, 0, 0])
    x1, x2, x3 = oracles.symbols(3)
    assert [sp.expand(f) for f in field] == [0, -x3, x2]
    pts = np.array([[t, 0.0, 0.0] for t in np.linspace(-1, 1, 5)])
    exps = oracles.graded_exponents(3, 2)
    vec = oracles.from_sympy(field, exps, oracles.symbols(3))
    assert np.abs(oracles.eval_fields(vec[None, :], exps, 3, pts)).max() == 0.0
