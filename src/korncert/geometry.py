"""Star-shaped domains with analytic boundaries, and point samplers.

A domain is given by a radial function r over the unit sphere of R^2 or
R^3: boundary points are x(theta) = r(theta) * u(theta) with u the usual
angular parametrization (polar angle in 2D; polar angle theta1 from the
positive x3-axis and azimuth theta2 in 3D).  Radial families:

    constant        r = c                       (balls)
    sine2d          r = c + a*sin(m*theta)
    sine3d          r = c + a*sin(m1*theta1)*sin(m2*theta2)

Construction checks that r is strictly positive through its exact
minimum: c for balls and for a zero frequency, else c - |a|, since a
nonzero frequency makes the sine factor (or the product of the two)
cover [-1, 1].  Every integer passes polyalg.parse_int and every real
number polyalg.parse_real: a domain's c and a, which every constructor
stores as floats, an angular range bound and a line's extent.  The
family fixes the dimension.  Points and outward unit normals come from
analytic tangent frames, never finite differences, computed for a whole
sample grid at once, one component at a time.  A SampleGrid stores its
axes, one angle array per coordinate, and a frame runs the trig once
per axis: a 3D product grid broadcasts a column of polar angles against
a row of azimuths, with the bits of the per-point formulas.
boundary_point and outward_normal are one-point calls of the same
code.  3D sample grids offset the polar angle by half a step so the
poles (where the frame degenerates) are never hit.

StarDomain is plain Python, so building and validating a domain loads
no numpy.  Every function that computes with floats imports numpy
itself, so numpy loads on the first float call, not with the module.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .polyalg import parse_int, parse_real

if TYPE_CHECKING:
    import numpy as np

TWO_PI = 2.0 * math.pi

_FRAME_TOL = 1e-14


class GeometryError(RuntimeError):
    """Degenerate geometry: nonpositive radius or a collapsing tangent frame."""


@dataclass(frozen=True)
class StarDomain:
    """Bounded star-shaped domain {rho * r(theta) u(theta): rho < 1}."""

    n: int
    family: str
    c: float
    a: float = 0.0
    m1: int = 0
    m2: int = 0

    def __post_init__(self) -> None:
        for key, what in (("n", "the dimension"), ("m1", "a radial frequency"), ("m2", "a radial frequency")):
            object.__setattr__(self, key, parse_int(getattr(self, key), what))
        for key in ("c", "a"):
            object.__setattr__(self, key, parse_real(getattr(self, key), key))
        if self.n not in (2, 3):
            raise GeometryError(f"only n in {{2, 3}} supported, got {self.n}")
        expected_n = {"constant": self.n, "sine2d": 2, "sine3d": 3}.get(self.family)
        if expected_n is None:
            raise GeometryError(f"unknown radial family: {self.family}")
        if expected_n != self.n:
            raise GeometryError(f"family {self.family} requires n = {expected_n}")
        if not self.rmin > 0.0:
            raise GeometryError(f"radial function reaches its minimum {self.rmin:.6g} <= 0")

    @property
    def rmin(self) -> float:
        """The exact minimum of r.  A nonzero frequency m makes
        sin(m theta) cover [-1, 1] over [0, 2 pi); in 3D the polar factor
        over [0, pi] reaches 1 or -1 as well, so a*s1*s2 covers
        [-|a|, |a|].  A zero frequency leaves r = c."""
        if self.family == "constant" or self.m1 == 0 or (self.n == 3 and self.m2 == 0):
            return self.c
        return self.c - abs(self.a)

    # -- constructors ---------------------------------------------------

    @classmethod
    def ball(cls, n: int, radius=1) -> "StarDomain":
        return cls(n=n, family="constant", c=radius)

    @classmethod
    def sine2d(cls, c, a, m: int) -> "StarDomain":
        return cls(n=2, family="sine2d", c=c, a=a, m1=m)

    @classmethod
    def sine3d(cls, c, a, m1: int, m2: int) -> "StarDomain":
        return cls(n=3, family="sine3d", c=c, a=a, m1=m1, m2=m2)

    @classmethod
    def from_json(cls, obj: dict) -> "StarDomain":
        try:
            n = obj["n"]
            radial = obj["radial"]
            family = radial["family"]
        except (KeyError, TypeError) as exc:
            raise GeometryError(f"malformed domain spec: {exc}") from exc
        try:
            if family in ("constant", "ball"):
                return cls.ball(n, radial.get("c", 1))
            if family == "sine2d":
                return cls(n, family, radial["c"], radial["a"], radial["m"])
            if family == "sine3d":
                return cls(n, family, radial["c"], radial["a"], radial["m1"], radial["m2"])
        except KeyError as exc:  # a missing family parameter
            raise GeometryError(f"malformed domain spec: {exc}") from exc
        raise GeometryError(f"unknown radial family: {family}")

    def to_json(self) -> dict:
        radial: dict = {"family": self.family, "c": self.c}
        if self.family == "sine2d":
            radial.update(a=self.a, m=self.m1)
        elif self.family == "sine3d":
            radial.update(a=self.a, m1=self.m1, m2=self.m2)
        return {"n": self.n, "radial": radial}


def _as_angles(dom: StarDomain, theta) -> tuple[np.ndarray, ...]:
    """One angle tuple as one-element angle arrays for the array code."""
    import numpy as np

    if isinstance(theta, (int, float)):
        angles = (float(theta),)
    else:
        angles = tuple(float(t) for t in theta)
    if len(angles) != dom.n - 1:
        raise ValueError(f"expected {dom.n - 1} angles for n = {dom.n}, got {len(angles)}")
    return tuple(np.array([t]) for t in angles)


def _polar(dom: StarDomain, *angles: np.ndarray) -> tuple[np.ndarray, list, list]:
    """r, the components of the unit direction u, and per angle k the
    partials (dr/dtheta_k, components of du/dtheta_k), for angle arrays
    that broadcast against each other."""
    import numpy as np

    # A ball is the zero perturbation: r = c + 0.0 and dr = 0.0 exactly.
    a, m1, m2 = (0.0, 0, 0) if dom.family == "constant" else (dom.a, dom.m1, dom.m2)
    if dom.n == 2:
        (t,) = angles
        cos_t, sin_t = np.cos(t), np.sin(t)
        return dom.c + a * np.sin(m1 * t), [cos_t, sin_t], [(a * m1 * np.cos(m1 * t), [-sin_t, cos_t])]
    t1, t2 = angles
    s1, c1 = np.sin(t1), np.cos(t1)
    s2, c2 = np.sin(t2), np.cos(t2)
    u = [s1 * c2, s1 * s2, c1]
    # du/dtheta2 = (-s1 s2, s1 c2, 0) = (-u_2, u_1, 0), bit for bit.
    du1, du2 = [c1 * c2, c1 * s2, -s1], [-u[1], u[0], 0.0]
    phase1, phase2 = m1 * t1, m2 * t2
    sin_m1, sin_m2 = np.sin(phase1), np.sin(phase2)
    r = dom.c + a * sin_m1 * sin_m2
    dr1 = a * m1 * np.cos(phase1) * sin_m2
    dr2 = a * m2 * sin_m1 * np.cos(phase2)
    return r, u, [(dr1, du1), (dr2, du2)]


def _rows(components: list) -> np.ndarray:
    """Equal-shape component arrays as one contiguous (npoints, n) array,
    points in C order; np.stack takes twice as long on small grids."""
    import numpy as np

    out = np.empty((*np.shape(components[0]), len(components)))
    for k, component in enumerate(components):
        out[..., k] = component
    return out.reshape(-1, len(components))


def _row_dots(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """p[i] @ q[i] for every row of two contiguous (npoints, n) arrays,
    through the same dot routine as the 1-D product (np.linalg.norm of a
    row, ``row @ row``), so the bits match."""
    return (p[:, None, :] @ q[:, :, None])[:, 0, 0]


def _frame(dom: StarDomain, *angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Boundary points x = r u and unit outward normals from the analytic
    tangent frame, as (npoints, n) arrays over the broadcast angles in C
    order.  The 3D normal is np.cross in its own operation order.

    Raises GeometryError when the frame degenerates (e.g. at the 3D
    poles, which grids built by sample_grid never hit) or its length is
    not finite (an overflow would turn every normal into 0).  The
    unnormalised normal is at least r^(n-1) long, times sin(theta1) in
    3D, so the test is relative to rmin^(n-1), not to the domain's size.
    """
    import numpy as np

    r, u, partials = _polar(dom, *angles)
    xs = _rows([r * ui for ui in u])
    tangents = [[dr * ui + r * dui for ui, dui in zip(u, du)] for dr, du in partials]
    if dom.n == 2:
        ((tx, ty),) = tangents
        normals = _rows([ty, -tx])
    else:
        (a0, a1, a2), (b0, b1, b2) = tangents
        normals = _rows([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])
    lengths = np.sqrt(_row_dots(normals, normals))
    # rmin * rmin, as rmin ** 2 raises where it overflows; <= still
    # refuses a zero normal where the tolerance underflows to 0.
    tol = _FRAME_TOL * (dom.rmin if dom.n == 2 else dom.rmin * dom.rmin)
    degenerate = (lengths <= tol) | ~np.isfinite(lengths)
    if degenerate.any():
        at = tuple(float(t.flat[np.argmax(degenerate)]) for t in np.broadcast_arrays(*angles))
        raise GeometryError(f"degenerate tangent frame at theta = {at}")
    normals = normals / lengths[:, None]
    inward = _row_dots(normals, xs) < 0.0
    return xs, np.where(inward[:, None], -normals, normals)


def boundary_point(dom: StarDomain, theta) -> np.ndarray:
    """x(theta) = r(theta) * u(theta) on the boundary."""
    r, u, _ = _polar(dom, *_as_angles(dom, theta))
    return _rows([r * ui for ui in u])[0]


def outward_normal(dom: StarDomain, theta) -> np.ndarray:
    """Unit outward normal at one angle tuple: a one-point grid_frame."""
    return _frame(dom, *_as_angles(dom, theta))[1][0]


@dataclass(frozen=True, eq=False)
class SampleGrid:
    """Deterministic boundary sample angles: the product of the axes,
    one float angle array per coordinate.  thetas is that product as a
    (points, n - 1) array, the last angle varying fastest."""

    axes: tuple[np.ndarray, ...]
    ranges: tuple[tuple[float, float], ...]

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(len(axis) for axis in self.axes)

    @property
    def thetas(self) -> np.ndarray:
        import numpy as np

        return _rows(np.meshgrid(*self.axes, indexing="ij"))

    def __len__(self) -> int:
        return math.prod(self.counts)


def sample_grid(
    dom: StarDomain,
    counts: int | Sequence[int],
    ranges: Sequence[Sequence[float]] | None = None,
) -> SampleGrid:
    """Uniform boundary sample grid.

    2D: count angles, left-closed uniform steps over [0, 2 pi) or the
    given range.  3D: a (count1 x count2) product grid; the polar angle
    is offset by half a step so the poles are excluded, the azimuth by a
    quarter step.  The azimuthal offset matters when a radial frequency
    m2 hits the grid Nyquist rate (count2 = 2 m2): the grid then only
    sees sin(pi * offset) and cos(pi * offset) of the resonant mode, and
    a quarter step keeps both quadratures equally far from zero, where
    aligned or half-step grids zero one of them out exactly.  counts is
    one count or any 1-D input (a list, a tuple, a range, an array) of
    counts, one per angle.
    """
    import numpy as np

    # np.ndim copies a list into an array first, which would double the
    # cost of a small grid, so a list or a tuple skips it.
    counts_t = tuple(counts) if isinstance(counts, (list, tuple)) or np.ndim(counts) else (counts,)
    if len(counts_t) != dom.n - 1:
        raise ValueError(f"expected {dom.n - 1} counts for n = {dom.n}, got {len(counts_t)}")
    counts_t = tuple(parse_int(c, "grid count", 1) for c in counts_t)
    if ranges is None:
        ranges_t = ((0.0, TWO_PI),) if dom.n == 2 else ((0.0, math.pi), (0.0, TWO_PI))
    else:
        ranges_t = tuple(tuple(parse_real(t, "an angular range bound") for t in (lo, hi)) for lo, hi in ranges)
    if len(ranges_t) != dom.n - 1:
        raise ValueError(f"expected {dom.n - 1} ranges, got {len(ranges_t)}")
    for lo, hi in ranges_t:
        if not hi > lo:
            raise ValueError(f"empty angular range [{lo}, {hi}]")
    if dom.n == 3:
        lo1, hi1 = ranges_t[0]
        if lo1 < 0.0 or hi1 > math.pi:
            raise ValueError("polar angle range must sit inside [0, pi]")
    axes = []
    for coord, (count, (lo, hi)) in enumerate(zip(counts_t, ranges_t)):
        step = (hi - lo) / count
        offset = (0.5, 0.25)[coord] if dom.n == 3 else 0.0
        axes.append(lo + (np.arange(count) + offset) * step)
    return SampleGrid(axes=tuple(axes), ranges=ranges_t)


def grid_frame(dom: StarDomain, grid: SampleGrid) -> tuple[np.ndarray, np.ndarray]:
    """Boundary points and unit outward normals at every grid sample,
    each as an (npoints, n) array in grid order, in one array pass."""
    import numpy as np

    if len(grid.axes) != dom.n - 1:
        raise ValueError(
            f"a {len(grid.axes) + 1}-dimensional sample grid does not fit a {dom.n}-dimensional domain"
        )
    if len(grid) == 0:
        raise ValueError("empty sample grid")
    axes = [np.asarray(axis, dtype=float) for axis in grid.axes]
    if dom.n == 2:
        return _frame(dom, axes[0])
    return _frame(dom, axes[0][:, None], axes[1][None, :])


def interior_points(dom: StarDomain, count: int, seed: int = 0) -> list[np.ndarray]:
    """Random points strictly inside the domain; deterministic per seed."""
    import numpy as np

    count = parse_int(count, "count", 0)
    rng = random.Random(parse_int(seed, "seed"))
    draws = []
    for _ in range(count):
        if dom.n == 2:
            angles = (rng.uniform(0.0, TWO_PI),)
        else:
            angles = (rng.uniform(0.0, math.pi), rng.uniform(0.0, TWO_PI))
        draws.append((*angles, rng.random()))
    table = np.array(draws, dtype=float).reshape(count, dom.n)
    r, u, _ = _polar(dom, *table.T[:-1])
    radii = table[:, -1] * r
    return list(_rows([radii * ui for ui in u]))


def line_points(p0: Sequence[float], direction: Sequence[float], count: int, extent: float) -> list[np.ndarray]:
    """count points p0 + t * dir, t equally spaced over [-extent, extent]."""
    import numpy as np

    count = parse_int(count, "count", 2)
    extent = parse_real(extent, "extent", positive=True)
    p0 = np.asarray(p0, dtype=float)
    d = np.asarray(direction, dtype=float)
    if p0.shape != d.shape:
        raise ValueError(f"p0 and dir must have the same length, got shapes {p0.shape} and {d.shape}")
    for name, values in (("p0", p0), ("dir", d)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} must be finite, got {values.tolist()}")
    if not d.any():
        raise ValueError(f"dir must be nonzero, got {d.tolist()}")
    # Scaled by a power of two to a largest entry in [0.5, 1) first, so
    # the norm neither underflows nor overflows; the scaling is exact, so
    # a direction whose norm is in range keeps its bits.
    # Entries far below the largest may still underflow, as they would
    # in the norm of dir itself.
    with np.errstate(under="ignore"):
        d = np.ldexp(d, -math.frexp(float(np.max(np.abs(d))))[1])
        d = d / np.linalg.norm(d)
    return [p0 + t * d for t in np.linspace(-extent, extent, count)]
