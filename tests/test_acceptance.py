"""Acceptance gate: every release criterion in one module, one pass or
fail line per criterion (visible with -v through the test names, and as
printed summaries with -s or on failure).

Criterion 2c pins the proved 6-dimensional certificate space of the
trace-free symmetric gradient on the unit ball in R^3.  A degree-2
kernel element rho = t + Wx + lam x + 2<b,x>x - |x|^2 b has
<rho(x), x> = <t,x> + lam |x|^2 + <b,x>|x|^2, which on |x| = 1 is
<t + b, x> + lam: zero exactly when lam = 0 and t = -b.  That leaves
the three rotations and the three quadratic fields 2<a,x>x - |x|^2 a - a.
The test proves both bounds exactly: the six explicit fields are
independent kernel elements with vanishing normal trace (at least 6),
and the normal traces of the 10-dimensional kernel have rank 4 at
rational points of the sphere (at most 10 - 4 = 6).
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
import sympy

from korncert.cli import run_config
from korncert.diffop import (
    CR_ONE,
    CR_ZERO,
    ComplexRational,
    apply_operator,
    builtin_operator,
    ellipticity_probe,
    symbol_matrix,
)
from korncert.geometry import (
    StarDomain,
    boundary_point,
    line_points,
    outward_normal,
    sample_grid,
)
from korncert.kernel import KernelBasis, kernel_basis, kernel_dim_profile
from korncert.linalg import rank as exact_rank
from korncert.normtest import TraceKind, classify, point_measure_test
from korncert.polyalg import PolyVec, eval_poly, monomial_basis
from polyfields import embed, poly

_BALL2 = StarDomain.ball(2)
_BALL3 = StarDomain.ball(3)
_WAVY2 = StarDomain.sine2d(2, 1, 2)
_WAVY3 = StarDomain.sine3d(2, 1, 2, 3)


def _ok(line: str) -> None:
    print(f"PASS {line}")


def _grids(dom, counts, factor=8):
    return (
        sample_grid(dom, counts),
        sample_grid(dom, [c * factor for c in counts]),
    )


def _span_projector(polys, ambient_K):
    first = polys[0]
    cols = np.array(
        [[float(c) for c in embed(p, ambient_K).coeffs] for p in polys]
    ).T
    q, _ = np.linalg.qr(cols)
    return q @ q.T


def _span_angle(polys_a, polys_b, ambient_K):
    pa = _span_projector(list(polys_a), ambient_K)
    pb = _span_projector(list(polys_b), ambient_K)
    return float(np.linalg.norm(pa - pb, 2))


def _rotation_2d():
    basis = monomial_basis(2, 1)
    return poly(basis, 2, {((0, 1), 0): -1, ((1, 0), 1): 1})


def _dilation_2d():
    basis = monomial_basis(2, 1)
    return poly(basis, 2, {((1, 0), 0): 1, ((0, 1), 1): 1})


def _rotations_3d():
    basis = monomial_basis(3, 2)
    rots = []
    for axis in range(3):
        i, j = [k for k in range(3) if k != axis]
        ei = tuple(1 if k == i else 0 for k in range(3))
        ej = tuple(1 if k == j else 0 for k in range(3))
        rots.append(poly(basis, 3, {(ej, i): -1, (ei, j): 1}))
    return rots


def _quadratic_conformal_3d():
    """The fields 2<a,x>x - |x|^2 a - a for a = e_1, e_2, e_3."""
    basis = monomial_basis(3, 2)
    fields = []
    for axis in range(3):
        terms = {((0, 0, 0), axis): -1}
        for k in range(3):
            square = tuple(2 if i == k else 0 for i in range(3))
            mixed = tuple(int(i == k) + int(i == axis) for i in range(3))
            terms[(square, axis)] = terms.get((square, axis), 0) - 1
            terms[(mixed, k)] = terms.get((mixed, k), 0) + 2
        fields.append(poly(basis, 3, terms))
    return fields


def _sympy_normal_trace(p, xs):
    """<p(x), x> as a sympy polynomial."""
    comps = [sympy.Integer(0)] * p.dimV
    for j, mi in enumerate(p.basis.exponents):
        mono = sympy.prod(x**e for x, e in zip(xs, mi.entries))
        for c in range(p.dimV):
            q = p.coeffs[j * p.dimV + c]
            comps[c] += sympy.Rational(q.numerator, q.denominator) * mono
    return sum(comp * x for comp, x in zip(comps, xs))


def _rational_sphere_point(u, v):
    """Inverse stereographic image of (u, v): an exact point of |x| = 1."""
    d = u * u + v * v + 1
    return (2 * u / d, 2 * v / d, (u * u + v * v - 1) / d)


# -- criterion 1: exact kernel dimensions -------------------------------

_DIMENSIONS = [
    ("dev_grad", 2, 1, 3),
    ("dev_grad", 3, 1, 4),
    ("sym_grad", 2, 1, 3),
    ("sym_grad", 3, 1, 6),
    ("dev_sym_grad", 3, 2, 10),
    ("grad", 2, 1, 2),
    ("grad", 3, 1, 3),
]


def test_criterion_1_kernel_dimensions():
    for name, n, K, expected in _DIMENSIONS:
        op = builtin_operator(name, n)
        t0 = time.perf_counter()
        kb = kernel_basis(op, K)
        elapsed = time.perf_counter() - t0
        assert kb.dim == expected, (
            f"[criterion 1] FAIL: dim ker({name}, n={n}, K={K}) = {kb.dim}, "
            f"expected {expected}"
        )
        assert elapsed < 1.0, (
            f"[criterion 1] FAIL: kernel of {name} (n={n}) took {elapsed:.2f} s"
        )
    _ok("[criterion 1] kernel dimensions exact, each under 1 s")


# -- criterion 2: verdict table on the reference domains ----------------


@pytest.fixture(scope="module")
def verdict_table():
    """All ten table entries, computed once and timed as a whole."""
    entries = {}
    t0 = time.perf_counter()
    for name in ("dev_grad", "sym_grad"):
        op = builtin_operator(name, 2)
        kb = kernel_basis(op, 1)
        entries[(name, "ball2")] = classify(
            kb, _BALL2, TraceKind.NORMAL, *_grids(_BALL2, [6])
        )
        entries[(name, "wavy2")] = classify(
            kb, _WAVY2, TraceKind.NORMAL, *_grids(_WAVY2, [6])
        )
    for name in ("dev_grad", "sym_grad", "dev_sym_grad"):
        op = builtin_operator(name, 3)
        kb = kernel_basis(op, 2)
        entries[(name, "ball3")] = classify(
            kb, _BALL3, TraceKind.NORMAL, *_grids(_BALL3, [4, 4])
        )
        entries[(name, "wavy3")] = classify(
            kb, _WAVY3, TraceKind.NORMAL, *_grids(_WAVY3, [6, 6])
        )
    elapsed = time.perf_counter() - t0
    return entries, elapsed


def test_criterion_2a_disk_verdicts(verdict_table):
    entries, _ = verdict_table
    assert entries[("dev_grad", "ball2")].tag == "A1", "[criterion 2a] FAIL: dev_grad on the disk"
    verdict = entries[("sym_grad", "ball2")]
    assert verdict.tag == "A2", "[criterion 2a] FAIL: sym_grad on the disk"
    angle = _span_angle(verdict.certificates, [_rotation_2d()], 1)
    assert angle < 1e-8, (
        f"[criterion 2a] FAIL: certificate span is {angle:.2e} away from the rotation"
    )
    _ok("[criterion 2a] disk: dev_grad A1, sym_grad A2 with rotation certificate")


def test_criterion_2b_wavy_2d_verdicts(verdict_table):
    entries, _ = verdict_table
    for name in ("dev_grad", "sym_grad"):
        assert entries[(name, "wavy2")].tag == "A1", (
            f"[criterion 2b] FAIL: {name} on r = 2 + sin(2 theta)"
        )
    _ok("[criterion 2b] r = 2 + sin(2 theta): both operators A1")


def test_criterion_2c_ball3_dev_grad(verdict_table):
    entries, _ = verdict_table
    assert entries[("dev_grad", "ball3")].tag == "A1", (
        "[criterion 2c] FAIL: dev_grad on the unit ball"
    )
    _ok("[criterion 2c] unit ball: dev_grad A1")


def test_criterion_2c_ball3_sym_grad(verdict_table):
    entries, _ = verdict_table
    verdict = entries[("sym_grad", "ball3")]
    assert verdict.tag == "A2", "[criterion 2c] FAIL: sym_grad on the unit ball"
    assert len(verdict.certificates) == 3, (
        f"[criterion 2c] FAIL: expected 3 certificates, got {len(verdict.certificates)}"
    )
    angle = _span_angle(verdict.certificates, _rotations_3d(), 2)
    assert angle < 1e-8, (
        f"[criterion 2c] FAIL: certificate span is {angle:.2e} away from the rotations"
    )
    _ok("[criterion 2c] unit ball: sym_grad A2 with the 3 rotations")


def test_criterion_2c_ball3_dev_sym_grad(verdict_table):
    entries, _ = verdict_table
    verdict = entries[("dev_sym_grad", "ball3")]
    assert verdict.tag == "A2", "[criterion 2c] FAIL: dev_sym_grad on the unit ball"

    # Lower bound: six explicit kernel fields whose normal trace vanishes
    # identically on |x| = 1 (sympy as the independent oracle).
    op = builtin_operator("dev_sym_grad", 3)
    rotations = _rotations_3d()
    quadratics = _quadratic_conformal_3d()
    expected = rotations + quadratics
    xs = sympy.symbols("x1:4")
    radius2 = sum(x * x for x in xs)
    for rho in expected:
        assert not any(apply_operator(op, rho).coeffs), (
            "[criterion 2c] FAIL: an expected certificate field is not "
            "annihilated by dev_sym_grad"
        )
    for rho in rotations:
        assert sympy.expand(_sympy_normal_trace(rho, xs)) == 0, (
            "[criterion 2c] FAIL: a rotation has <rho(x), x> != 0"
        )
    for axis, rho in enumerate(quadratics):
        identity = _sympy_normal_trace(rho, xs) - xs[axis] * (radius2 - 1)
        assert sympy.expand(identity) == 0, (
            f"[criterion 2c] FAIL: <rho_a(x), x> != <a,x>(|x|^2 - 1) for a = e_{axis + 1}"
        )

    # Upper bound: the normal traces of the whole kernel, sampled at
    # exact points of the sphere, have rank 4, so at most 10 - 4 = 6
    # independent kernel fields have a vanishing normal trace.
    kb = kernel_basis(op, 2)
    halves = [Fraction(k, 2) for k in range(-2, 3)]
    thirds = [Fraction(k, 3) for k in range(-2, 3)]
    points = [_rational_sphere_point(u, v) for u in halves for v in thirds]
    traces = [
        [sum(c * xk for c, xk in zip(eval_poly(rho, x), x)) for rho in kb.basis]
        for x in points
    ]
    trace_rank = exact_rank(traces, kb.dim)
    assert (kb.dim, trace_rank) == (10, 4), (
        f"[criterion 2c] FAIL: dim ker = {kb.dim} and the sampled normal traces "
        f"have exact rank {trace_rank}; expected 10 and 4, which bound the "
        "certificate space by 6"
    )

    assert len(verdict.certificates) == 6, (
        "[criterion 2c] FAIL: expected a 6-dim certificate space for "
        f"dev_sym_grad on the unit ball, measured {len(verdict.certificates)}"
    )
    angle = _span_angle(verdict.certificates, expected, 2)
    assert angle < 1e-8, (
        f"[criterion 2c] FAIL: certificate span is {angle:.2e} away from the "
        "rotations and the fields 2<a,x>x - |x|^2 a - a"
    )
    # The six fields are independent, which completes the lower bound.
    independent = exact_rank([list(rho.coeffs) for rho in expected], len(expected[0].coeffs))
    assert independent == len(expected), (
        f"[criterion 2c] FAIL: the expected fields span only {independent} dimensions"
    )
    _ok(
        "[criterion 2c] unit ball: dev_sym_grad A2 with the 3 rotations and "
        "the 3 fields 2<a,x>x - |x|^2 a - a (exactly 6, proved)"
    )


def test_criterion_2d_wavy_3d_verdicts(verdict_table):
    entries, _ = verdict_table
    for name in ("dev_grad", "sym_grad", "dev_sym_grad"):
        assert entries[(name, "wavy3")].tag == "A1", (
            f"[criterion 2d] FAIL: {name} on r = 2 + sin(2 t1) sin(3 t2)"
        )
    _ok("[criterion 2d] r = 2 + sin(2 t1) sin(3 t2): all three operators A1")


def test_criterion_2e_table_runtime(verdict_table):
    _, elapsed = verdict_table
    assert elapsed < 10.0, f"[criterion 2e] FAIL: table took {elapsed:.1f} s"
    _ok(f"[criterion 2e] full verdict table in {elapsed:.2f} s (< 10 s)")


# -- criterion 3: the 2D trace-free symmetric gradient is not C-elliptic


def test_criterion_3_non_c_elliptic_profile_and_witness():
    op = builtin_operator("dev_sym_grad", 2)
    profile = kernel_dim_profile(op, 4)
    assert profile.dims == (2, 4, 6, 8, 10), (
        f"[criterion 3] FAIL: dimension profile {profile.dims}"
    )
    assert not profile.stabilized, "[criterion 3] FAIL: profile unexpectedly stabilized"

    report = ellipticity_probe(op)
    assert report.elliptic and not report.c_elliptic, "[criterion 3] FAIL: probe flags"
    w = report.witness
    i = ComplexRational(Fraction(0), Fraction(1))
    assert w.xi == (CR_ONE, i), f"[criterion 3] FAIL: witness xi = {w.xi}"
    assert w.v == (CR_ONE, -i), f"[criterion 3] FAIL: witness v = {w.v}"
    sym = symbol_matrix(op, w.xi)
    assert sym.apply(w.v) == (CR_ZERO,) * op.dimW, (
        "[criterion 3] FAIL: symbol at the witness does not annihilate v exactly"
    )
    _ok("[criterion 3] profile (2,4,6,8,10) without stabilization; exact witness (1,i)/(1,-i)")


# -- criterion 4: tangential trace dichotomy for the trace-free gradient


def test_criterion_4_tangential_dichotomy():
    op = builtin_operator("dev_grad", 2)
    kb = kernel_basis(op, 1)
    verdict = classify(kb, _BALL2, TraceKind.TANGENTIAL, *_grids(_BALL2, [6]))
    assert verdict.tag == "A2", "[criterion 4] FAIL: expected A2 on the disk"
    assert len(verdict.certificates) == 1
    angle = _span_angle(verdict.certificates, [_dilation_2d()], 1)
    assert angle < 1e-8, f"[criterion 4] FAIL: certificate {angle:.2e} from the dilation"
    assert max(verdict.diagnostics.residuals) < 1e-12, (
        f"[criterion 4] FAIL: residual {max(verdict.diagnostics.residuals):.2e} >= 1e-12"
    )

    wavy = classify(kb, _WAVY2, TraceKind.TANGENTIAL, *_grids(_WAVY2, [8]))
    assert wavy.tag == "A1", "[criterion 4] FAIL: expected A1 on r = 2 + sin(2 theta)"
    _ok("[criterion 4] tangential: dilation certificate on the disk, A1 on the wavy domain")


# -- criterion 5: symmetric gradient, axisymmetric dichotomy ------------


def test_criterion_5_sym_grad_trace_cases():
    op = builtin_operator("sym_grad", 2)
    kb = kernel_basis(op, 1)
    tangential = classify(kb, _BALL2, TraceKind.TANGENTIAL, *_grids(_BALL2, [6]))
    assert tangential.tag == "A1", "[criterion 5] FAIL: tangential trace on the disk"
    normal = classify(kb, _BALL2, TraceKind.NORMAL, *_grids(_BALL2, [6]))
    assert normal.tag == "A2", "[criterion 5] FAIL: normal trace on the disk"
    wavy = classify(kb, _WAVY2, TraceKind.NORMAL, *_grids(_WAVY2, [6]))
    assert wavy.tag == "A1", "[criterion 5] FAIL: normal trace on the wavy domain"
    _ok("[criterion 5] sym_grad: tangential A1, normal A2 (disk), normal A1 (wavy)")


# -- criterion 6: line measures in 3D -----------------------------------


def test_criterion_6_line_measures():
    op = builtin_operator("sym_grad", 3)
    kb = kernel_basis(op, 2)
    one_line = point_measure_test(kb, line_points([0, 0, 0], [1, 0, 0], 5, 1.0))
    assert one_line.tag == "A2", "[criterion 6] FAIL: one line should leave a rotation"
    assert len(one_line.certificates) == 1, (
        f"[criterion 6] FAIL: certificate space has dim {len(one_line.certificates)}"
    )
    basis3 = monomial_basis(3, 2)
    rot_about_x1 = poly(
        basis3, 3, {((0, 0, 1), 1): -1, ((0, 1, 0), 2): 1}
    )
    angle = _span_angle(one_line.certificates, [rot_about_x1], 2)
    assert angle < 1e-8, (
        f"[criterion 6] FAIL: certificate {angle:.2e} from the rotation about the line"
    )

    two_lines = point_measure_test(
        kb,
        line_points([0, 0, 0], [1, 0, 0], 5, 1.0)
        + line_points([0, 0, 0], [0, 1, 0], 5, 1.0),
    )
    assert two_lines.tag == "A1", "[criterion 6] FAIL: two non-collinear lines"
    _ok("[criterion 6] one axis line A2 (rotation about it), two lines A1")


# -- criterion 7: higher gradients, full trace ---------------------------


def test_criterion_7_grad3_full_trace_certificate():
    op = builtin_operator("grad_k", 2, order=3)
    kb = kernel_basis(op, 2)
    verdict = classify(kb, _BALL2, TraceKind.FULL, *_grids(_BALL2, [6]))
    assert verdict.tag == "A2", "[criterion 7] FAIL: expected A2"

    basis2 = monomial_basis(2, 2)
    target = poly(
        basis2, 2, {((0, 0), 0): 1, ((2, 0), 0): -1, ((0, 2), 0): -1}
    )
    t = np.array([float(c) for c in target.coeffs])
    proj = _span_projector(list(verdict.certificates), 2)
    cosine = float(np.linalg.norm(proj @ t) / np.linalg.norm(t))
    assert cosine > 1 - 1e-10, (
        f"[criterion 7] FAIL: cosine similarity {cosine} <= 1 - 1e-10"
    )
    _ok("[criterion 7] grad_3 full trace: certificate space contains (1 - |x|^2) e_1")


# -- criterion 8: full trace on a boundary patch -------------------------


def test_criterion_8_arc_patch_full_trace():
    arc = [(0.0, math.pi / 8)]
    coarse = sample_grid(_BALL2, [8], arc)
    dense = sample_grid(_BALL2, [64], arc)
    for name in ("dev_grad", "sym_grad"):
        op = builtin_operator(name, 2)
        kb = kernel_basis(op, 1)
        verdict = classify(kb, _BALL2, TraceKind.FULL, coarse, dense)
        assert verdict.tag == "A1", f"[criterion 8] FAIL: {name} on the arc patch"
    _ok("[criterion 8] full trace on the arc theta in [0, pi/8], 8 points: both A1")


# -- criterion 9: property invariants at the stated sample counts --------


def test_criterion_9a_kernel_exactness_invariant():
    rng = random.Random(5)
    for name, n, K in [("sym_grad", 2, 2), ("dev_sym_grad", 3, 2)]:
        op = builtin_operator(name, n)
        kb = kernel_basis(op, K)
        for _ in range(25):
            weights = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in kb.basis]
            coeffs = tuple(
                sum(w * c for w, c in zip(weights, cs)) for cs in zip(*(p.coeffs for p in kb.basis))
            )
            acc = PolyVec(kb.basis[0].basis, op.dimV, coeffs)
            assert not any(apply_operator(op, acc).coeffs), (
                "[criterion 9a] FAIL: kernel combination not annihilated exactly"
            )
    _ok("[criterion 9a] random kernel combinations are annihilated exactly")


def test_criterion_9b_normal_invariants_1000_angles():
    rng = random.Random(0)
    for dom in (_WAVY2, _WAVY3):
        for _ in range(1000):
            if dom.n == 2:
                theta = (rng.uniform(0.0, 2 * math.pi),)
            else:
                theta = (
                    rng.uniform(0.05, math.pi - 0.05),
                    rng.uniform(0.0, 2 * math.pi),
                )
            nu = outward_normal(dom, theta)
            x = boundary_point(dom, theta)
            assert abs(float(np.linalg.norm(nu)) - 1.0) < 1e-12, (
                "[criterion 9b] FAIL: normal is not unit length"
            )
            assert float(nu @ x) > 0.0, "[criterion 9b] FAIL: normal points inward"
    _ok("[criterion 9b] unit outward normals on 1000 random angles per domain")


def test_criterion_9c_basis_invariance_20_recombinations():
    op = builtin_operator("sym_grad", 2)
    kb = kernel_basis(op, 1)
    coarse, dense = _grids(_BALL2, [6])
    reference = classify(kb, _BALL2, TraceKind.NORMAL, coarse, dense)
    rng = random.Random(21)
    done = 0
    while done < 20:
        entries = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(kb.dim)]
            for _ in range(kb.dim)
        ]
        if exact_rank([row[:] for row in entries], kb.dim) < kb.dim:
            continue
        done += 1
        columns = list(zip(*(p.coeffs for p in kb.basis)))
        recombined = [
            PolyVec(kb.basis[0].basis, 2, tuple(sum(w * c for w, c in zip(row, cs)) for cs in columns))
            for row in entries
        ]
        kb2 = KernelBasis(
            operator=kb.operator, K=kb.K, basis=tuple(recombined), m=kb.m, rank=kb.rank
        )
        verdict = classify(kb2, _BALL2, TraceKind.NORMAL, coarse, dense)
        assert verdict.tag == reference.tag, "[criterion 9c] FAIL: verdict changed"
        angle = _span_angle(verdict.certificates, reference.certificates, 1)
        assert angle < 1e-8, (
            f"[criterion 9c] FAIL: certificate span moved by {angle:.2e}"
        )
    _ok("[criterion 9c] verdict and certificate span invariant over 20 recombinations")


def test_criterion_9d_deterministic_report_digests():
    cfg = {
        "operator": {"builtin": "sym_grad", "n": 2},
        "K": 1,
        "test": {
            "kind": "boundary",
            "trace": "normal",
            "domain": {"n": 2, "radial": {"family": "constant", "c": 1}},
            "coarse": {"counts": [6]},
        },
    }
    digests = {run_config(dict(cfg))[0]["digest"] for _ in range(3)}
    assert len(digests) == 1, "[criterion 9d] FAIL: digest varies between runs"
    _ok("[criterion 9d] report digest identical across repeated runs")
