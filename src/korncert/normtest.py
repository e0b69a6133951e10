"""Norm certification for trace seminorms on polynomial kernels.

Given an exact kernel basis (rho_1, ..., rho_d) and a sampled boundary
trace T, the seminorm |||u||| = sum over samples of |T u(x(theta))| is a
norm on the kernel exactly when no nonzero combination of the basis has
vanishing trace at every sample.  The classifier works in two stages:

    stage 1   SVD nullspace of the coarse constraint matrix; empty
              nullspace certifies a norm (A1).
    stage 2   the coarse nullspace directions are re-tested against a
              strictly finer grid; directions that survive are
              certificates of failure (A2), and if none survive the run
              is inconclusive (A3) - the coarse grid was too small to
              separate, the dense grid killed every candidate.

Certificates are kernel elements with numerically vanishing trace on
the dense grid; they are strong numerical evidence, not exact proofs.
A point-measure variant tests interior point evaluations instead of
boundary traces (full values at finitely many points), where a single
exact stage suffices and A3 cannot occur.

Trace kinds: FULL is the whole vector trace, NORMAL the scalar
(trace . nu), TANGENTIAL the projection trace - (trace . nu) nu.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import SampleGrid, StarDomain, grid_frame
from .kernel import KernelBasis
from .polyalg import MonomialBasis, PolyVec, format_poly

_SIGMA_REL_DEFAULT = 1e-10
_TOL_DENSE_DEFAULT = 1e-8
_SIGN_CUTOFF = 1e-9


class TraceKind(enum.Enum):
    FULL = "full"
    NORMAL = "normal"
    TANGENTIAL = "tangential"

    @classmethod
    def of(cls, value: "TraceKind | str") -> "TraceKind":
        if isinstance(value, TraceKind):
            return value
        try:
            return cls(value.lower())
        except ValueError:
            raise ValueError(f"unknown trace kind: {value!r}") from None


@dataclass(frozen=True)
class NullspaceResult:
    """Orthonormal nullspace basis (columns) plus the full singular
    spectrum, zero-padded when rows < columns."""

    vectors: np.ndarray
    singular_values: np.ndarray

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class Diagnostics:
    coarse_sv: tuple[float, ...] = ()
    dense_sv: tuple[float, ...] = ()
    residuals: tuple[float, ...] = ()
    sigma_rel: float = _SIGMA_REL_DEFAULT
    tol_dense: float = _TOL_DENSE_DEFAULT
    coarse_points: int = 0
    dense_points: int = 0
    note: str = ""

    def to_json(self) -> dict:
        return {
            "coarse_sv": list(self.coarse_sv),
            "dense_sv": list(self.dense_sv),
            "residuals": list(self.residuals),
            "max_residual": max(self.residuals) if self.residuals else None,
            "sigma_rel": self.sigma_rel,
            "tol_dense": self.tol_dense,
            "coarse_points": self.coarse_points,
            "dense_points": self.dense_points,
            "note": self.note,
        }


@dataclass(frozen=True)
class Verdict:
    """A1: the seminorm is a norm.  A2: certified failure with kernel
    certificates.  A3: inconclusive at these grids."""

    tag: str
    certificates: tuple[PolyVec, ...] = ()
    diagnostics: Diagnostics = field(default_factory=Diagnostics)

    def to_json(self) -> dict:
        return {
            "verdict": self.tag,
            "certificates": [
                {
                    "coeffs": [float(c) for c in p.coeffs],
                    "pretty": format_poly(p),
                }
                for p in self.certificates
            ],
            "diagnostics": self.diagnostics.to_json(),
        }


def _coefficient_columns(polys: Sequence[PolyVec]) -> np.ndarray:
    """Float coefficient matrix, one column per polynomial."""
    return np.array([[float(c) for c in p.coeffs] for p in polys], dtype=float).T


def _basis_columns(basis: KernelBasis) -> np.ndarray:
    """Float coefficient matrix, one unit-normalized column per element."""
    cols = _coefficient_columns(basis.basis)
    norms = np.linalg.norm(cols, axis=0)
    if np.any(norms == 0.0):
        raise ValueError("kernel basis contains a zero element")
    return cols / norms


def trace_values(
    basis: MonomialBasis,
    columns: np.ndarray,
    xs: np.ndarray,
    kind: TraceKind,
    nus: np.ndarray | None = None,
) -> np.ndarray:
    """Trace of every column at every point: (npoints, ncomp, ncols).

    columns holds one polynomial per column in the PolyVec coefficient
    layout over basis; xs is (npoints, n), and nus the unit normals at
    xs, which NORMAL and TANGENTIAL need.  ncomp is 1 for NORMAL and
    dimV for FULL and TANGENTIAL.
    """
    dim_v = columns.shape[0] // basis.size
    exponents = np.array([mi.entries for mi in basis.exponents], dtype=float)
    # mono_values[p, j] = prod_i xs[p, i] ** exponents[j, i]
    mono_values = np.prod(xs[:, None, :] ** exponents[None, :, :], axis=2)
    b3 = columns.reshape(-1, dim_v, columns.shape[1])
    values = np.einsum("ps,svd->pvd", mono_values, b3)
    if kind is TraceKind.FULL:
        return values
    if dim_v != xs.shape[1]:
        raise ValueError(
            f"{kind.value} trace needs dimV == n, got dimV={dim_v}, n={xs.shape[1]}"
        )
    normal_part = np.einsum("pv,pvd->pd", nus, values)
    if kind is TraceKind.NORMAL:
        return normal_part[:, None, :]
    return values - nus[:, :, None] * normal_part[:, None, :]


def trace_magnitudes(
    polys: Sequence[PolyVec],
    kind: TraceKind,
    xs: np.ndarray,
    nus: np.ndarray | None = None,
) -> np.ndarray:
    """|trace| of each polynomial at each point, max over components:
    (npoints, npolys)."""
    values = trace_values(polys[0].basis, _coefficient_columns(polys), xs, kind, nus)
    return np.max(np.abs(values), axis=1)


def _constraint_rows(values: np.ndarray) -> np.ndarray:
    """Rows in point order, then output component."""
    rows = values.reshape(-1, values.shape[2])
    if not np.all(np.isfinite(rows)):
        raise ValueError("non-finite constraint entries")
    return rows


def _grid_rows(
    basis: KernelBasis,
    columns: np.ndarray,
    dom: StarDomain,
    kind: TraceKind,
    grid: SampleGrid,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Constraint rows of the columns on a boundary grid, and the grid's
    frame (points, normals) for reuse."""
    frame = grid_frame(dom, grid)
    values = trace_values(basis.basis[0].basis, columns, frame[0], kind, frame[1])
    return _constraint_rows(values), frame


def assemble_constraints(
    basis: KernelBasis,
    dom: StarDomain,
    kind: TraceKind | str,
    grid: SampleGrid,
) -> np.ndarray:
    """Trace constraint rows for the raw (un-normalized) kernel basis.

    Row order is deterministic: grid order, then output component for
    the vector-valued kinds (FULL and TANGENTIAL contribute dimV rows
    per sample, NORMAL one row).
    """
    kind = TraceKind.of(kind)
    if basis.dim == 0:
        raise ValueError("empty kernel basis; nothing to constrain")
    if basis.operator.n != dom.n:
        raise ValueError("operator and domain dimensions differ")
    return _grid_rows(basis, _coefficient_columns(basis.basis), dom, kind, grid)[0]


def numeric_nullspace(
    matrix: np.ndarray, sigma_rel: float = _SIGMA_REL_DEFAULT
) -> NullspaceResult:
    """SVD nullspace with the relative threshold
    sigma_i <= sigma_rel * max(sigma_max, 1)."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.size == 0:
        raise ValueError("empty constraint matrix")
    q, d = matrix.shape
    # Only a wide matrix needs the full V: its extra rows span the
    # directions no constraint touches.
    _, s, vh = np.linalg.svd(matrix, full_matrices=q < d)
    spectrum = np.concatenate([s, np.zeros(max(d - len(s), 0))])
    threshold = sigma_rel * max(float(spectrum[0]), 1.0)
    mask = spectrum <= threshold
    return NullspaceResult(vectors=vh[mask].T, singular_values=spectrum)


def _sign_fixed(vec: np.ndarray) -> np.ndarray:
    cutoff = _SIGN_CUTOFF * float(np.max(np.abs(vec)))
    for v in vec:
        if abs(v) > cutoff:
            return vec if v > 0 else -vec
    return vec


def _to_certificates(
    basis: KernelBasis, ambient_vectors: np.ndarray
) -> tuple[PolyVec, ...]:
    poly_basis = basis.basis[0].basis
    dim_v = basis.basis[0].dimV
    certs = []
    for i in range(ambient_vectors.shape[1]):
        w = ambient_vectors[:, i]
        w = _sign_fixed(w / np.linalg.norm(w))
        certs.append(PolyVec.from_floats(poly_basis, dim_v, w))
    return tuple(certs)


def certificate_residual(
    rho: PolyVec, dom: StarDomain, kind: TraceKind | str, grid: SampleGrid
) -> float:
    """Sup over the grid of the trace magnitude of rho (max over
    components for the vector-valued kinds)."""
    return _residuals([rho], TraceKind.of(kind), *grid_frame(dom, grid))[0]


def _residuals(
    certificates: Sequence[PolyVec],
    kind: TraceKind,
    xs: np.ndarray,
    nus: np.ndarray | None = None,
) -> tuple[float, ...]:
    """Per certificate, the max trace magnitude over the points."""
    return tuple(float(r) for r in np.max(trace_magnitudes(certificates, kind, xs, nus), axis=0))


def classify(
    basis: KernelBasis,
    dom: StarDomain,
    kind: TraceKind | str,
    coarse: SampleGrid,
    dense: SampleGrid,
    sigma_rel: float = _SIGMA_REL_DEFAULT,
    tol_dense: float = _TOL_DENSE_DEFAULT,
) -> Verdict:
    """Two-stage boundary trace classification.

    The kernel basis is unit-normalized (Euclidean coefficient norm)
    before assembly, so singular values are comparable across bases.
    The verdict tag and the certificate span are invariant under
    invertible recombination of the basis.
    """
    kind = TraceKind.of(kind)
    if basis.dim == 0:
        return Verdict(
            tag="A1",
            diagnostics=Diagnostics(
                sigma_rel=sigma_rel,
                tol_dense=tol_dense,
                note="trivial kernel; every seminorm is a norm",
            ),
        )
    if coarse.ranges != dense.ranges:
        raise ValueError("coarse and dense grids must cover the same angular ranges")
    if not all(dc > cc for cc, dc in zip(coarse.counts, dense.counts)):
        raise ValueError("dense grid must be strictly finer than coarse in every coordinate")

    columns = _basis_columns(basis)
    coarse_matrix, _ = _grid_rows(basis, columns, dom, kind, coarse)
    stage1 = numeric_nullspace(coarse_matrix, sigma_rel)
    coarse_sv = tuple(float(s) for s in stage1.singular_values)
    if stage1.dim == 0:
        return Verdict(
            tag="A1",
            diagnostics=Diagnostics(
                coarse_sv=coarse_sv,
                sigma_rel=sigma_rel,
                tol_dense=tol_dense,
                coarse_points=len(coarse),
                dense_points=len(dense),
            ),
        )

    dense_matrix, dense_frame = _grid_rows(basis, columns, dom, kind, dense)
    restricted = dense_matrix @ stage1.vectors
    stage2 = numeric_nullspace(restricted, sigma_rel)
    dense_sv = tuple(float(s) for s in stage2.singular_values)
    if stage2.dim == 0:
        return Verdict(
            tag="A3",
            diagnostics=Diagnostics(
                coarse_sv=coarse_sv,
                dense_sv=dense_sv,
                sigma_rel=sigma_rel,
                tol_dense=tol_dense,
                coarse_points=len(coarse),
                dense_points=len(dense),
                note="coarse nullspace died on the dense grid; enlarge the coarse grid",
            ),
        )

    ambient = columns @ (stage1.vectors @ stage2.vectors)
    certificates = _to_certificates(basis, ambient)
    residuals = _residuals(certificates, kind, *dense_frame)
    for res in residuals:
        if not res < tol_dense:
            raise RuntimeError(
                f"certificate residual {res:.3e} exceeds tol_dense={tol_dense:.1e}; "
                "stage-2 nullspace is inconsistent with the dense grid"
            )
    return Verdict(
        tag="A2",
        certificates=certificates,
        diagnostics=Diagnostics(
            coarse_sv=coarse_sv,
            dense_sv=dense_sv,
            residuals=residuals,
            sigma_rel=sigma_rel,
            tol_dense=tol_dense,
            coarse_points=len(coarse),
            dense_points=len(dense),
        ),
    )


def point_measure_test(
    basis: KernelBasis,
    points: Sequence[Sequence[float]],
    sigma_rel: float = _SIGMA_REL_DEFAULT,
    tol: float = _TOL_DENSE_DEFAULT,
) -> Verdict:
    """Point-evaluation variant: the functional is the full value of the
    field at each given point.

    Points are the exact input, so there is no dense refinement and the
    verdict is A1 or A2 (never A3).  Certificates vanish at every input
    point within tol.
    """
    if basis.dim == 0:
        return Verdict(
            tag="A1",
            diagnostics=Diagnostics(
                sigma_rel=sigma_rel,
                tol_dense=tol,
                note="trivial kernel; every seminorm is a norm",
            ),
        )
    if len(points) == 0:
        raise ValueError("need at least one evaluation point")
    xs = np.array([[float(c) for c in p] for p in points])
    if xs.shape[1] != basis.operator.n:
        raise ValueError(f"points must have {basis.operator.n} coordinates")
    columns = _basis_columns(basis)
    matrix = _constraint_rows(trace_values(basis.basis[0].basis, columns, xs, TraceKind.FULL))
    stage = numeric_nullspace(matrix, sigma_rel)
    spectrum = tuple(float(s) for s in stage.singular_values)
    if stage.dim == 0:
        return Verdict(
            tag="A1",
            diagnostics=Diagnostics(
                coarse_sv=spectrum,
                sigma_rel=sigma_rel,
                tol_dense=tol,
                coarse_points=len(points),
            ),
        )
    certificates = _to_certificates(basis, columns @ stage.vectors)
    residuals = _residuals(certificates, TraceKind.FULL, xs)
    for res in residuals:
        if not res < tol:
            raise RuntimeError(
                f"certificate residual {res:.3e} exceeds tol={tol:.1e} at the input points"
            )
    return Verdict(
        tag="A2",
        certificates=certificates,
        diagnostics=Diagnostics(
            coarse_sv=spectrum,
            residuals=residuals,
            sigma_rel=sigma_rel,
            tol_dense=tol,
            coarse_points=len(points),
        ),
    )
