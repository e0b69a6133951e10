"""Norm certification for trace seminorms on polynomial kernels.

Given an exact kernel basis (rho_1, ..., rho_d) and a sampled trace T,
the seminorm |||u||| = sum over samples of |T u(x)| is a norm on the
kernel exactly when no nonzero combination of the basis has vanishing
trace at every sample.  One loop decides it over a sequence of sample
sets: each stage takes the SVD nullspace of the constraint rows on its
set, restricted to the directions the earlier stages left.

    first stage   empty nullspace certifies a norm (A1).
    later stage   empty nullspace: the earlier sets were too small to
                  separate and this one killed every candidate, so the
                  run is inconclusive (A3).
    survivors     directions left after the last stage are certificates
                  of failure (A2).

classify runs a coarse and a strictly finer dense boundary grid.
Certificates are kernel elements with numerically vanishing trace on
the last set; they are strong numerical evidence, not exact proofs.
point_measure_test runs one stage on given points (full values), where
A3 cannot occur.

Trace kinds: FULL is the whole vector trace, NORMAL the scalar
(trace . nu), TANGENTIAL the projection trace - (trace . nu) nu.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Sequence

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


def _certify(
    basis: KernelBasis,
    kind: TraceKind,
    frames: Iterable[tuple[np.ndarray, np.ndarray | None]],
    sizes: Sequence[int],
    sigma_rel: float,
    tol: float,
) -> Verdict:
    """The staged decision over (points, normals) frames, drawn lazily:
    each stage keeps the part of the previous nullspace whose trace
    vanishes on its frame.  sizes are the sample counts the diagnostics
    report, one per stage."""
    if not (0.0 < sigma_rel < np.inf and 0.0 < tol < np.inf):  # NaN fails every comparison
        name, value = ("tol_dense", tol) if 0.0 < sigma_rel < np.inf else ("sigma_rel", sigma_rel)
        raise ValueError(f"{name} must be finite and > 0, got {value}")
    diagnostics = partial(Diagnostics, sigma_rel=sigma_rel, tol_dense=tol)
    if basis.dim == 0:
        return Verdict(tag="A1", diagnostics=diagnostics(note="trivial kernel; every seminorm is a norm"))
    diagnostics = partial(diagnostics, **dict(zip(("coarse_points", "dense_points"), sizes)))
    columns = _basis_columns(basis)
    spectra: dict[str, tuple[float, ...]] = {}
    null = None
    for field_name, (xs, nus) in zip(("coarse_sv", "dense_sv"), frames):
        values = trace_values(basis.basis[0].basis, columns, xs, kind, nus)
        rows = values.reshape(-1, values.shape[2])  # point order, then component
        if not np.all(np.isfinite(rows)):
            raise ValueError("non-finite constraint entries")
        stage = numeric_nullspace(rows if null is None else rows @ null, sigma_rel)
        spectra[field_name] = tuple(float(s) for s in stage.singular_values)
        if stage.dim == 0:
            if null is None:
                return Verdict(tag="A1", diagnostics=diagnostics(**spectra))
            return Verdict(
                tag="A3",
                diagnostics=diagnostics(
                    **spectra, note="coarse nullspace died on the dense grid; enlarge the coarse grid"
                ),
            )
        null = stage.vectors if null is None else null @ stage.vectors
    certificates = _to_certificates(basis, columns @ null)
    residuals = _residuals(certificates, kind, xs, nus)
    for res in residuals:
        if not res < tol:
            raise ValueError(f"certificate residual {res:.3e} exceeds tol_dense={tol:.1e}")
    return Verdict(tag="A2", certificates=certificates, diagnostics=diagnostics(**spectra, residuals=residuals))


def classify(
    basis: KernelBasis,
    dom: StarDomain,
    kind: TraceKind | str,
    coarse: SampleGrid,
    dense: SampleGrid,
    sigma_rel: float = _SIGMA_REL_DEFAULT,
    tol_dense: float = _TOL_DENSE_DEFAULT,
) -> Verdict:
    """Two-stage boundary trace classification: the coarse grid, then the
    dense one, whose frame is built only if the coarse nullspace is not
    empty.

    The kernel basis is unit-normalized (Euclidean coefficient norm)
    before assembly, so singular values are comparable across bases.
    The verdict tag and the certificate span are invariant under
    invertible recombination of the basis.
    """
    if coarse.ranges != dense.ranges:
        raise ValueError("coarse and dense grids must cover the same angular ranges")
    if not all(dc > cc for cc, dc in zip(coarse.counts, dense.counts)):
        raise ValueError("dense grid must be strictly finer than coarse in every coordinate")
    frames = (grid_frame(dom, grid) for grid in (coarse, dense))
    sizes = (len(coarse), len(dense))
    return _certify(basis, TraceKind.of(kind), frames, sizes, sigma_rel, tol_dense)


def point_measure_test(
    basis: KernelBasis,
    points: Sequence[Sequence[float]],
    sigma_rel: float = _SIGMA_REL_DEFAULT,
    tol_dense: float = _TOL_DENSE_DEFAULT,
) -> Verdict:
    """Point-evaluation variant: the functional is the full value of the
    field at each given point.

    Points are the exact input, so there is no dense refinement and the
    verdict is A1 or A2 (never A3).  The one stage plays the dense
    stage's part: certificates vanish at every input point within
    tol_dense, the same bound and name as in classify and the run config.
    """
    if len(points) == 0:
        raise ValueError("need at least one evaluation point")
    xs = np.asarray(points, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != basis.operator.n:
        raise ValueError(f"points must have {basis.operator.n} coordinates")
    return _certify(basis, TraceKind.FULL, [(xs, None)], (len(points),), sigma_rel, tol_dense)
