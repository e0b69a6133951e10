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

certify runs that loop on a sample set, which owns its stage sizes,
its checks, its report block and its frames, built on first use and
kept.  BoundaryGrids, behind classify, is a coarse and a strictly finer
dense grid on a domain's boundary; PointSet, behind point_measure_test,
is given points with the full trace, one stage, so never A3.
Certificates are kernel elements with numerically vanishing trace on
the last set; they are strong numerical evidence, not exact proofs.

Trace kinds: FULL is the whole vector trace, NORMAL the scalar
(trace . nu), TANGENTIAL the projection trace - (trace . nu) nu.

Every trace is evaluated by trace_values: a table of coordinate powers,
one multiplication per degree, gathered by MonomialBasis.exponent_table,
then one matrix product of the monomial values with the coefficients;
a magnitude is its max over components.  A nullspace needs only the
singular values and the right singular vectors, so numeric_nullspace
never forms the left factor U of a tall SVD: it first replaces a
constraint matrix of thousands of rows by the stacked R factors of
blocks of at most _QR_BLOCK_ENTRIES entries (TSQR), which have the same
singular values and right singular vectors.  No LAPACK call is then
large enough for OpenBLAS to split across threads, whose hand-off can
cost a scheduler tick per call.  Float coefficients come from
polyalg.float_columns, a kernel's once, as KernelBasis.unit_columns.  A
sample set keeps its frames; every other float (traces, spectra,
verdicts) is recomputed on every call.  The module loads no numpy: each
function that computes with floats imports it itself, so numpy loads on
the first float call.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import TYPE_CHECKING, Iterator, Sequence

from .geometry import SampleGrid, StarDomain, grid_frame
from .kernel import KernelBasis
from .polyalg import MonomialBasis, PolyVec, float_columns, format_poly

if TYPE_CHECKING:
    import numpy as np

_SIGMA_REL_DEFAULT = 1e-10
_TOL_DENSE_DEFAULT = 1e-8
_SIGN_CUTOFF = 1e-9
# The most entries one LAPACK call in numeric_nullspace's reduction sees.
_QR_BLOCK_ENTRIES = 8192


class TraceKind(enum.Enum):
    FULL = "full"
    NORMAL = "normal"
    TANGENTIAL = "tangential"

    @classmethod
    def of(cls, value: "TraceKind | str") -> "TraceKind":
        if isinstance(value, TraceKind):
            return value
        try:
            return cls(value.lower() if isinstance(value, str) else value)
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
                    # Int true division is float(c), bit for bit (float_columns).
                    "coeffs": [c.numerator / c.denominator for c in p.coeffs],
                    "pretty": format_poly(p),
                }
                for p in self.certificates
            ],
            "diagnostics": self.diagnostics.to_json(),
        }


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

    The monomial values come from a (npoints, n, K+1) table of powers,
    one multiplication per degree, gathered by exponent: no pow per
    monomial.  The values of all columns are then one matrix product.
    """
    import numpy as np

    n = basis.n
    if xs.ndim != 2 or xs.shape[1] != n:
        raise ValueError(f"points must be an (npoints, {n}) array, got shape {xs.shape}")
    dim_v = columns.shape[0] // basis.size
    if kind is not TraceKind.FULL:
        if nus is None or nus.shape != xs.shape:
            got = "none" if nus is None else f"shape {nus.shape}"
            raise ValueError(f"{kind.value} trace needs normals of shape {xs.shape}, got {got}")
        if dim_v != n:
            raise ValueError(f"{kind.value} trace needs dimV == n, got dimV={dim_v}, n={n}")
    exponents = basis.exponent_table
    powers = np.empty((xs.shape[0], n, basis.K + 1))
    powers[:, :, 0] = 1.0
    for k in range(1, basis.K + 1):
        powers[:, :, k] = powers[:, :, k - 1] * xs
    # mono[p, j] = prod_i xs[p, i] ** exponents[j, i]
    mono = powers[:, 0, exponents[:, 0]]
    for i in range(1, n):
        mono = mono * powers[:, i, exponents[:, i]]
    ncols = columns.shape[1]
    values = (mono @ columns.reshape(basis.size, dim_v * ncols)).reshape(xs.shape[0], dim_v, ncols)
    if kind is TraceKind.FULL:
        return values
    normal_part = nus[:, None, :] @ values  # (npoints, 1, ncols)
    if kind is TraceKind.NORMAL:
        return normal_part
    return values - nus[:, :, None] * normal_part


def _magnitudes(basis: MonomialBasis, columns: np.ndarray, xs, kind: TraceKind, nus) -> np.ndarray:
    """|trace| of each column at each point, max over components:
    (npoints, ncols)."""
    return abs(trace_values(basis, columns, xs, kind, nus)).max(axis=1)


def trace_magnitudes(
    polys: Sequence[PolyVec],
    kind: TraceKind,
    xs: np.ndarray,
    nus: np.ndarray | None = None,
) -> np.ndarray:
    """_magnitudes of the polynomials: (npoints, npolys)."""
    return _magnitudes(polys[0].basis, float_columns(polys), xs, kind, nus)


def numeric_nullspace(
    matrix: np.ndarray, sigma_rel: float = _SIGMA_REL_DEFAULT
) -> NullspaceResult:
    """SVD nullspace with the relative threshold
    sigma_i <= sigma_rel * max(sigma_max, 1).

    Only the singular values and the right singular vectors are used, so
    a tall matrix is first reduced (TSQR): while it has more than
    block = max(_QR_BLOCK_ENTRIES // d, 2 d) rows, it is zero-padded to
    whole blocks and replaced by the stacked R factors of its blocks.
    Each pass keeps R^T R = A^T A and leaves at most q / 2 + d rows; no
    LAPACK call sees more than _QR_BLOCK_ENTRIES entries for d <= 64, so
    none is split across BLAS threads and the q x d left factor U of a
    tall SVD is never formed.  A matrix of at most block rows takes the
    direct SVD, bit for bit."""
    import numpy as np

    matrix = np.asarray(matrix, dtype=float)
    if matrix.size == 0:
        raise ValueError("empty constraint matrix")
    q, d = matrix.shape
    block = max(_QR_BLOCK_ENTRIES // d, 2 * d)
    while q > block:
        k = -(-q // block)
        stack = np.zeros((k * block, d))
        stack[:q] = matrix
        matrix = np.linalg.qr(stack.reshape(k, block, d), mode="r").reshape(k * d, d)
        q = k * d
    # Only a wide matrix needs the full V: its extra rows span the
    # directions no constraint touches.
    _, s, vh = np.linalg.svd(matrix, full_matrices=q < d)
    spectrum = np.concatenate([s, np.zeros(max(d - len(s), 0))])
    threshold = sigma_rel * max(float(spectrum[0]), 1.0)
    mask = spectrum <= threshold
    return NullspaceResult(vectors=vh[mask].T, singular_values=spectrum)


def _sign_fixed(vec: np.ndarray) -> np.ndarray:
    import numpy as np

    cutoff = _SIGN_CUTOFF * float(np.max(np.abs(vec)))
    for v in vec:
        if abs(v) > cutoff:
            return vec if v > 0 else -vec
    return vec


def certificate_residual(
    rho: PolyVec, dom: StarDomain, kind: TraceKind | str, grid: SampleGrid
) -> float:
    """Sup over the grid of the trace magnitude of rho (max over
    components for the vector-valued kinds)."""
    return float(trace_magnitudes([rho], TraceKind.of(kind), *grid_frame(dom, grid)).max())


class BoundaryGrids:
    """The trace of kind on a coarse grid, then on a strictly finer dense
    grid over the same ranges.  A grid's frame is built on first use and
    kept: the dense one only if the coarse stage leaves a nullspace."""

    def __init__(self, dom: StarDomain, kind: TraceKind | str, coarse: SampleGrid, dense: SampleGrid) -> None:
        if coarse.ranges != dense.ranges:
            raise ValueError("coarse and dense grids must cover the same angular ranges")
        if not all(dc > cc for cc, dc in zip(coarse.counts, dense.counts)):
            raise ValueError("dense grid must be strictly finer than coarse in every coordinate")
        self.dom, self.kind, self.coarse, self.dense = dom, TraceKind.of(kind), coarse, dense
        self.sizes = (len(coarse), len(dense))

    @cached_property
    def coarse_frame(self) -> tuple[np.ndarray, np.ndarray]:
        return grid_frame(self.dom, self.coarse)

    @cached_property
    def dense_frame(self) -> tuple[np.ndarray, np.ndarray]:
        return grid_frame(self.dom, self.dense)

    def frames(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        yield self.coarse_frame
        yield self.dense_frame

    def to_json(self) -> dict:
        sizes = dict(zip(("coarse_points", "dense_points"), self.sizes))
        return {"kind": "boundary", "trace": self.kind.value, "domain": self.dom.to_json(), **sizes}


class PointSet:
    """The full value of the field at each given point of R^n: one stage."""

    kind = TraceKind.FULL

    def __init__(self, points: Sequence[Sequence[float]], n: int) -> None:
        import numpy as np

        if len(points) == 0:
            raise ValueError("need at least one evaluation point")
        self.points = np.asarray(points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != n:
            raise ValueError(f"points must have {n} coordinates")
        self.sizes = (len(points),)

    def frames(self) -> tuple[tuple[np.ndarray, None]]:
        return ((self.points, None),)

    def to_json(self) -> dict:
        return {"kind": "points", "point_count": self.sizes[0], "points": self.points.tolist()}


def certify(
    basis: KernelBasis,
    samples: BoundaryGrids | PointSet,
    sigma_rel: float = _SIGMA_REL_DEFAULT,
    tol_dense: float = _TOL_DENSE_DEFAULT,
) -> Verdict:
    """The staged decision over the frames of samples, drawn lazily:
    each stage keeps the part of the previous nullspace whose trace
    vanishes on its frame.  The diagnostics report samples.sizes, one
    count per stage."""
    import numpy as np

    if not (0.0 < sigma_rel < np.inf and 0.0 < tol_dense < np.inf):  # NaN fails every comparison
        name, value = ("tol_dense", tol_dense) if 0.0 < sigma_rel < np.inf else ("sigma_rel", sigma_rel)
        raise ValueError(f"{name} must be finite and > 0, got {value}")
    diagnostics = partial(Diagnostics, sigma_rel=sigma_rel, tol_dense=tol_dense)
    if basis.dim == 0:
        return Verdict(tag="A1", diagnostics=diagnostics(note="trivial kernel; every seminorm is a norm"))
    diagnostics = partial(diagnostics, **dict(zip(("coarse_points", "dense_points"), samples.sizes)))
    poly_basis = basis.basis[0].basis
    columns = basis.unit_columns
    spectra: dict[str, tuple[float, ...]] = {}
    null = None
    for field_name, (xs, nus) in zip(("coarse_sv", "dense_sv"), samples.frames()):
        values = trace_values(poly_basis, columns, xs, samples.kind, nus)
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
    # Unit-normalized and sign-fixed.  The residuals come from the very
    # floats the certificates adopt exactly, so they are their own.
    cert_columns = np.stack([_sign_fixed(w / np.linalg.norm(w)) for w in (columns @ null).T], axis=1)
    magnitudes = _magnitudes(poly_basis, cert_columns, xs, samples.kind, nus)
    residuals = tuple(float(r) for r in magnitudes.max(axis=0))
    for res in residuals:
        if not res < tol_dense:
            raise ValueError(f"certificate residual {res:.3e} exceeds tol_dense={tol_dense:.1e}")
    certificates = tuple(PolyVec.from_floats(poly_basis, basis.basis[0].dimV, w) for w in cert_columns.T)
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
    """Two-stage boundary trace classification: certify on the coarse
    grid, then on the dense one.

    The kernel basis is unit-normalized (Euclidean coefficient norm)
    before assembly, so singular values are comparable across bases.
    The verdict tag and the certificate span are invariant under
    invertible recombination of the basis.
    """
    return certify(basis, BoundaryGrids(dom, kind, coarse, dense), sigma_rel, tol_dense)


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
    return certify(basis, PointSet(points, basis.operator.n), sigma_rel, tol_dense)
