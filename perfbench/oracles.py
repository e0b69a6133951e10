"""Independent oracles for the benchmark's correctness checks.

Nothing here calls korncert.  Inputs are plain data: exponent tuples,
Fraction or float coefficient vectors in korncert's documented layout
(graded-lex monomials, coefficient of monomial j, component c at index
j * dimV + c), operator term lists as (alpha, matrix) pairs, and domain
specs as dicts {"n", "family", "c", "a", "m1", "m2"}.

- operators are applied with sympy, both from their textbook
  definitions and from a given list of coefficient matrices;
- kernel dimensions come from closed forms;
- A2 certificate spans come from analytic formulas (rotations, and the
  conformal fields 2<a,x>x - |x|^2 a - c^2 a on a ball of radius c);
- boundary points and normals come from the analytic radial formulas,
  assembled with numpy (gradient form of the normal, not a cross
  product of tangents).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from math import comb

import numpy as np
import sympy as sp

MOD_PRIME = 2_147_483_647  # 2^31 - 1: products of two residues fit in int64


# -- monomial layout ------------------------------------------------------


def graded_exponents(n: int, K: int) -> list[tuple[int, ...]]:
    """Monomials of degree <= K: by total degree, then descending tuple."""
    out = []
    for d in range(K + 1):
        same = [t for t in itertools.product(range(d + 1), repeat=n) if sum(t) == d]
        out.extend(sorted(same, reverse=True))
    return out


def symbols(n: int) -> list[sp.Symbol]:
    return list(sp.symbols(f"x1:{n + 1}"))


def to_sympy(coeffs, exps, dim_v: int, xs) -> list[sp.Expr]:
    """Components of a coefficient vector as sympy expressions."""
    comps = [sp.Integer(0)] * dim_v
    for j, e in enumerate(exps):
        mono = sp.Mul(*[x**k for x, k in zip(xs, e)])
        for c in range(dim_v):
            q = coeffs[j * dim_v + c]
            if q:
                comps[c] += sp.Rational(q.numerator, q.denominator) * mono
    return comps


def from_sympy(field, exps, xs) -> np.ndarray:
    """Float coefficient vector of a sympy vector field in the layout."""
    dim_v = len(field)
    index = {e: j for j, e in enumerate(exps)}
    vec = np.zeros(len(exps) * dim_v)
    for c, comp in enumerate(field):
        expr = sp.expand(comp)
        if expr == 0:
            continue
        for mono, q in sp.Poly(expr, *xs).as_dict().items():
            vec[index[mono] * dim_v + c] = float(q)
    return vec


# -- operators ------------------------------------------------------------


def apply_definition(name: str, n: int, order: int | None, comps, xs) -> list[sp.Expr]:
    """Textbook definition of each builtin operator, output flattened."""
    if name == "div":
        return [sum(sp.diff(comps[i], xs[i]) for i in range(n))]
    if name == "grad_k":
        out = []
        for i, *js in itertools.product(range(n), repeat=order + 1):
            out.append(sp.diff(comps[i], *[xs[j] for j in js]))
        return out
    jac = sp.Matrix(n, n, lambda i, j: sp.diff(comps[i], xs[j]))
    if name == "grad":
        mat = jac
    elif name == "sym_grad":
        mat = (jac + jac.T) / 2
    elif name == "dev_grad":
        mat = jac - jac.trace() / n * sp.eye(n)
    elif name == "dev_sym_grad":
        mat = (jac + jac.T) / 2 - jac.trace() / n * sp.eye(n)
    else:
        raise ValueError(f"no definition for operator {name!r}")
    return list(mat)


def apply_terms(terms, comps, xs) -> list[sp.Expr]:
    """sum_alpha A_alpha d^alpha u for explicit rational matrices A_alpha."""
    dim_w = len(terms[0][1])
    out = [sp.Integer(0)] * dim_w
    for alpha, matrix in terms:
        derivs = [sp.diff(u, *[(x, a) for x, a in zip(xs, alpha) if a]) for u in comps]
        for w, row in enumerate(matrix):
            for v, q in enumerate(row):
                if q:
                    out[w] += sp.Rational(q.numerator, q.denominator) * derivs[v]
    return out


def annihilated(name, n, order, terms, coeffs, exps, dim_v) -> bool:
    """Both the definition and the coefficient matrices map the field to 0."""
    xs = symbols(n)
    comps = to_sympy(coeffs, exps, dim_v, xs)
    images = apply_definition(name, n, order, comps, xs) + apply_terms(terms, comps, xs)
    return all(sp.expand(e) == 0 for e in images)


def witness_holds(terms, xi, v) -> bool:
    """A[xi] v == 0 exactly, xi and v given as (re, im) Fraction pairs."""
    z = [sp.Rational(re) + sp.I * sp.Rational(im) for re, im in xi]
    w = [sp.Rational(re) + sp.I * sp.Rational(im) for re, im in v]
    if all(x == 0 for x in w):
        return False
    dim_w = len(terms[0][1])
    image = [sp.Integer(0)] * dim_w
    for alpha, matrix in terms:
        power = sp.Mul(*[zi**a for zi, a in zip(z, alpha)])
        for r, row in enumerate(matrix):
            image[r] += power * sum(sp.Rational(q) * wj for q, wj in zip(row, w))
    return all(sp.expand(e) == 0 for e in image)


def operator_dims(name: str, n: int, order: int | None) -> tuple[int, int, int]:
    """(order, dimV, dimW) of a builtin operator."""
    if name == "div":
        return 1, n, 1
    if name == "grad_k":
        return order, n, n ** (order + 1)
    return 1, n, n * n


def kernel_dim(name: str, n: int, order: int | None, K: int) -> int:
    """Closed-form dimension of the degree-<= K polynomial kernel."""
    k, dim_v, _ = operator_dims(name, n, order)
    full = dim_v * comb(K + n, n)
    if K < k:
        return full
    if name == "sym_grad":
        return n * (n + 1) // 2
    if name == "dev_sym_grad" and n == 2:
        return 2 * K + 2
    if name == "dev_sym_grad" and n == 3:
        return 10 if K >= 2 else 7
    if name == "div":
        return full - comb(K + n - 1, n)
    if name == "grad_k":
        return dim_v * comb(n + k - 1, n)
    raise ValueError(f"no closed form for {name} on R^{n}")


def ambient_dim(name: str, n: int, order: int | None, K: int) -> int:
    return operator_dims(name, n, order)[1] * comb(K + n, n)


def _mod_p(q: Fraction) -> int:
    if q.denominator % MOD_PRIME == 0:
        raise ZeroDivisionError("denominator divisible by the modulus")
    return q.numerator % MOD_PRIME * pow(q.denominator, -1, MOD_PRIME) % MOD_PRIME


def independent(vectors) -> bool:
    """Exact linear independence of Fraction vectors.

    Full rank modulo a prime implies full rank over Q (a nonzero minor
    mod p is nonzero over Z), so True is a proof; False means the rank
    mod p dropped, which for these inputs only a real dependence does.
    """
    if not vectors:
        return True
    rows = np.array([[_mod_p(q) for q in v] for v in vectors], dtype=np.int64)
    rank = 0
    for col in range(rows.shape[1]):
        nz = np.nonzero(rows[rank:, col])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        rows[[rank, piv]] = rows[[piv, rank]]
        rows[rank] = rows[rank] * pow(int(rows[rank, col]), -1, MOD_PRIME) % MOD_PRIME
        below = rows[rank + 1 :, col].copy()
        rows[rank + 1 :] = (rows[rank + 1 :] - below[:, None] * rows[rank]) % MOD_PRIME
        rank += 1
        if rank == rows.shape[0]:
            break
    return rank == len(vectors)


# -- analytic certificate spans --------------------------------------------


def _rotations(xs) -> list[list[sp.Expr]]:
    n = len(xs)
    out = []
    for i, j in itertools.combinations(range(n), 2):
        field = [sp.Integer(0)] * n
        field[i], field[j] = -xs[j], xs[i]
        out.append(field)
    return out


def boundary_span(name: str, n: int, K: int, domain: dict, trace: str):
    """Analytic certificate span for a boundary trace test.

    Returns sympy vector fields spanning the kernel elements whose trace
    vanishes on the whole boundary; an empty list means the seminorm is
    a norm (A1).  Raises ValueError for cases without a closed form.
    """
    xs = symbols(n)
    if K < 1 or name not in ("sym_grad", "dev_sym_grad", "dev_grad", "grad"):
        raise ValueError(f"no analytic span for {name} at K={K}")
    ball = domain["family"] == "constant"
    if trace == "full":
        # A rigid, affine-conformal or holomorphic field that vanishes
        # along a closed curve or surface is zero.
        return []
    if trace == "tangential":
        # A field normal to the boundary everywhere: a rigid motion never
        # is; a + lambda x only on a sphere centred at -a / lambda.
        if name == "sym_grad":
            return []
        if name == "dev_grad":
            return [list(xs)] if ball else []
        raise ValueError(f"no analytic span for the tangential trace of {name}")
    if not ball or name in ("grad", "dev_grad"):
        # The wavy domains have no continuous symmetry, and a + lambda x
        # has normal part <a, nu> + lambda <x, nu>, which is not zero.
        return []
    spans = _rotations(xs)
    if name == "dev_sym_grad" and K >= 2:
        c2 = sp.nsimplify(domain["c"]) ** 2
        r2 = sum(x * x for x in xs)
        for a in range(n):
            ax = xs[a]
            field = [2 * ax * x - (r2 + c2) * int(i == a) for i, x in enumerate(xs)]
            spans.append(field)
    return spans


def line_span(name: str, n: int, K: int, p0, direction):
    """Rigid motions vanishing on a line: rotations about it (sym_grad, n=3)."""
    if name != "sym_grad" or n != 3 or K < 1:
        raise ValueError("line spans are known for sym_grad on R^3 only")
    xs = symbols(3)
    d = [sp.nsimplify(v) for v in direction]
    y = [x - sp.nsimplify(p) for x, p in zip(xs, p0)]
    return [[d[1] * y[2] - d[2] * y[1], d[2] * y[0] - d[0] * y[2], d[0] * y[1] - d[1] * y[0]]]


def span_distance(certs: np.ndarray, span: np.ndarray) -> float:
    """Largest distance of a unit certificate (rows of certs) from the
    span of the rows of span, and of the span from the certificates.

    Both directions together make the check an equality of subspaces."""
    q_span, _ = np.linalg.qr(span.T)
    q_cert, _ = np.linalg.qr(certs.T)
    out_c = certs.T - q_span @ (q_span.T @ certs.T)
    unit_span = span.T / np.linalg.norm(span.T, axis=0)
    out_s = unit_span - q_cert @ (q_cert.T @ unit_span)
    return float(max(np.abs(out_c).max(), np.abs(out_s).max()))


# -- geometry ---------------------------------------------------------------


def grid_angles(n: int, counts, ranges=None) -> np.ndarray:
    """Sample angles: uniform left-closed steps in 2D; in 3D a polar x
    azimuth product with half-step polar and quarter-step azimuth offsets."""
    if ranges is None:
        ranges = [(0.0, 2 * math.pi)] if n == 2 else [(0.0, math.pi), (0.0, 2 * math.pi)]
    offsets = (0.0,) if n == 2 else (0.5, 0.25)
    axes = [
        lo + (np.arange(c) + off) * (hi - lo) / c
        for c, (lo, hi), off in zip(counts, ranges, offsets)
    ]
    if n == 2:
        return axes[0][:, None]
    t1, t2 = np.meshgrid(axes[0], axes[1], indexing="ij")
    return np.stack([t1.ravel(), t2.ravel()], axis=1)


def boundary_frame(domain: dict, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Boundary points and outward unit normals.

    For x = r u the outward normal is parallel to the gradient of
    |x| - r(angles(x)): r u - r_t u_t in 2D and
    r u - r_1 e_theta - (r_2 / sin t1) e_phi in 3D.
    """
    fam, c = domain["family"], float(domain["c"])
    a = float(domain.get("a", 0.0))
    if domain["n"] == 2:
        t = angles[:, 0]
        m = domain.get("m1", domain.get("m", 0))
        r = c + a * np.sin(m * t) if fam == "sine2d" else np.full_like(t, c)
        dr = a * m * np.cos(m * t) if fam == "sine2d" else np.zeros_like(t)
        u = np.stack([np.cos(t), np.sin(t)], axis=1)
        u_t = np.stack([-np.sin(t), np.cos(t)], axis=1)
        normal = r[:, None] * u - dr[:, None] * u_t
    else:
        t1, t2 = angles[:, 0], angles[:, 1]
        m1, m2 = domain.get("m1", 0), domain.get("m2", 0)
        if fam == "sine3d":
            r = c + a * np.sin(m1 * t1) * np.sin(m2 * t2)
            r1 = a * m1 * np.cos(m1 * t1) * np.sin(m2 * t2)
            r2 = a * m2 * np.sin(m1 * t1) * np.cos(m2 * t2)
        else:
            r, r1, r2 = np.full_like(t1, c), np.zeros_like(t1), np.zeros_like(t1)
        s1, c1, s2, c2 = np.sin(t1), np.cos(t1), np.sin(t2), np.cos(t2)
        u = np.stack([s1 * c2, s1 * s2, c1], axis=1)
        e_theta = np.stack([c1 * c2, c1 * s2, -s1], axis=1)
        e_phi = np.stack([-s2, c2, np.zeros_like(t2)], axis=1)
        normal = r[:, None] * u - r1[:, None] * e_theta - (r2 / s1)[:, None] * e_phi
    points = r[:, None] * u
    return points, normal / np.linalg.norm(normal, axis=1, keepdims=True)


def eval_fields(coeffs: np.ndarray, exps, dim_v: int, points: np.ndarray) -> np.ndarray:
    """Values of coefficient vectors (rows) at points: (npoints, dimV, nvec)."""
    e = np.array(exps, dtype=float)
    mono = np.prod(points[:, None, :] ** e[None, :, :], axis=2)
    b = np.asarray(coeffs, dtype=float).reshape(len(coeffs), len(exps), dim_v)
    return np.einsum("ps,dsv->pvd", mono, b)


def trace_rows(values: np.ndarray, normals: np.ndarray | None, trace: str) -> np.ndarray:
    """Constraint rows (one per sample, or per sample and component)."""
    if trace == "normal":
        return np.einsum("pv,pvd->pd", normals, values)
    if trace == "tangential":
        normal_part = np.einsum("pv,pvd->pd", normals, values)
        values = values - normals[:, :, None] * normal_part[:, None, :]
    return values.reshape(-1, values.shape[2])


def nullity(rows: np.ndarray, sigma_rel: float) -> int:
    """Numeric nullity under the relative threshold sigma_rel * max(s_max, 1)."""
    s = np.linalg.svd(rows, compute_uv=False)
    s = np.concatenate([s, np.zeros(max(rows.shape[1] - len(s), 0))])
    return int(np.sum(s <= sigma_rel * max(float(s[0]), 1.0)))


def unit_columns(coeffs) -> np.ndarray:
    """Rows of float coefficients, each scaled to unit norm."""
    c = np.array([[float(q) for q in v] for v in coeffs])
    return c / np.linalg.norm(c, axis=1, keepdims=True)
