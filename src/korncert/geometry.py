"""Star-shaped domains with analytic boundaries, and point samplers.

A domain is given by a radial function r over the unit sphere of R^2 or
R^3: boundary points are x(theta) = r(theta) * u(theta) with u the usual
angular parametrization (polar angle in 2D; polar angle theta1 from the
positive x3-axis and azimuth theta2 in 3D).  Radial families:

    constant        r = c                       (balls)
    sine2d          r = c + a*sin(m*theta)
    sine3d          r = c + a*sin(m1*theta1)*sin(m2*theta2)

Construction validates strict positivity of r on a dense angular grid
(10^4 samples per coordinate).  Outward unit normals come from analytic
tangent frames, never finite differences; 3D sample grids offset the
polar angle by half a step so the poles (where the frame degenerates)
are never hit.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .polyalg import parse_rational

TWO_PI = 2.0 * math.pi

_VALIDATION_SAMPLES = 10**4
_FRAME_TOL = 1e-14


class GeometryError(RuntimeError):
    """Degenerate geometry: nonpositive radius or a collapsing tangent frame."""


def _scalar(value) -> float:
    return float(parse_rational(value)) if isinstance(value, str) else float(value)


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
        if self.n not in (2, 3):
            raise GeometryError(f"only n in {{2, 3}} supported, got {self.n}")
        expected_n = {"constant": self.n, "sine2d": 2, "sine3d": 3}.get(self.family)
        if expected_n is None:
            raise GeometryError(f"unknown radial family: {self.family}")
        if expected_n != self.n:
            raise GeometryError(f"family {self.family} requires n = {expected_n}")
        rmin = self._min_radius_on_validation_grid()
        if not rmin > 0.0:
            raise GeometryError(
                f"radial function reaches {rmin:.6g} <= 0 on the validation grid"
            )

    # -- radial function and derivatives -------------------------------

    def radius(self, theta: Sequence[float]) -> float:
        if self.family == "constant":
            return self.c
        if self.family == "sine2d":
            return self.c + self.a * math.sin(self.m1 * theta[0])
        return self.c + self.a * math.sin(self.m1 * theta[0]) * math.sin(self.m2 * theta[1])

    def radius_gradient(self, theta: Sequence[float]) -> tuple[float, ...]:
        """Partial derivatives of r with respect to each angle."""
        if self.family == "constant":
            return (0.0,) * (self.n - 1)
        if self.family == "sine2d":
            return (self.a * self.m1 * math.cos(self.m1 * theta[0]),)
        t1, t2 = theta[0], theta[1]
        return (
            self.a * self.m1 * math.cos(self.m1 * t1) * math.sin(self.m2 * t2),
            self.a * self.m2 * math.sin(self.m1 * t1) * math.cos(self.m2 * t2),
        )

    def _min_radius_on_validation_grid(self) -> float:
        if self.family == "constant":
            return self.c
        if self.family == "sine2d":
            grid = np.linspace(0.0, TWO_PI, _VALIDATION_SAMPLES, endpoint=False)
            return float(np.min(self.c + self.a * np.sin(self.m1 * grid)))
        # The product grid has 10^8 points, but min(a*s1*s2) over a product
        # of grids is attained at extreme factor pairs, so four candidates
        # reproduce the exact grid minimum.
        g1 = np.sin(self.m1 * np.linspace(0.0, math.pi, _VALIDATION_SAMPLES))
        g2 = np.sin(self.m2 * np.linspace(0.0, TWO_PI, _VALIDATION_SAMPLES, endpoint=False))
        corners = [
            self.a * s1 * s2
            for s1 in (float(g1.min()), float(g1.max()))
            for s2 in (float(g2.min()), float(g2.max()))
        ]
        return self.c + min(corners)

    # -- constructors ---------------------------------------------------

    @classmethod
    def ball(cls, n: int, radius=1) -> "StarDomain":
        return cls(n=n, family="constant", c=_scalar(radius))

    @classmethod
    def sine2d(cls, c, a, m: int) -> "StarDomain":
        return cls(n=2, family="sine2d", c=_scalar(c), a=_scalar(a), m1=int(m))

    @classmethod
    def sine3d(cls, c, a, m1: int, m2: int) -> "StarDomain":
        return cls(n=3, family="sine3d", c=_scalar(c), a=_scalar(a), m1=int(m1), m2=int(m2))

    @classmethod
    def from_json(cls, obj: dict) -> "StarDomain":
        try:
            n = int(obj["n"])
            radial = obj["radial"]
            family = radial["family"]
        except (KeyError, TypeError) as exc:
            raise GeometryError(f"malformed domain spec: {exc}") from exc
        if family in ("constant", "ball"):
            return cls.ball(n, radial.get("c", 1))
        if family == "sine2d":
            return cls.sine2d(radial["c"], radial["a"], radial["m"])
        if family == "sine3d":
            return cls.sine3d(radial["c"], radial["a"], radial["m1"], radial["m2"])
        raise GeometryError(f"unknown radial family: {family}")

    def to_json(self) -> dict:
        radial: dict = {"family": self.family, "c": self.c}
        if self.family == "sine2d":
            radial.update(a=self.a, m=self.m1)
        elif self.family == "sine3d":
            radial.update(a=self.a, m1=self.m1, m2=self.m2)
        return {"n": self.n, "radial": radial}


def _as_angles(dom: StarDomain, theta) -> tuple[float, ...]:
    if isinstance(theta, (int, float)):
        angles = (float(theta),)
    else:
        angles = tuple(float(t) for t in theta)
    if len(angles) != dom.n - 1:
        raise ValueError(f"expected {dom.n - 1} angles for n = {dom.n}, got {len(angles)}")
    return angles


def _direction(dom: StarDomain, angles: tuple[float, ...]) -> np.ndarray:
    if dom.n == 2:
        t = angles[0]
        return np.array([math.cos(t), math.sin(t)])
    t1, t2 = angles
    return np.array(
        [math.sin(t1) * math.cos(t2), math.sin(t1) * math.sin(t2), math.cos(t1)]
    )


def boundary_point(dom: StarDomain, theta) -> np.ndarray:
    """x(theta) = r(theta) * u(theta) on the boundary."""
    angles = _as_angles(dom, theta)
    return dom.radius(angles) * _direction(dom, angles)


def outward_normal(dom: StarDomain, theta) -> np.ndarray:
    """Unit outward normal from the analytic tangent frame.

    Raises GeometryError when the frame degenerates (e.g. at the 3D
    poles); grids built by sample_grid never hit those angles.
    """
    angles = _as_angles(dom, theta)
    r = dom.radius(angles)
    dr = dom.radius_gradient(angles)
    x = r * _direction(dom, angles)
    if dom.n == 2:
        t = angles[0]
        u = np.array([math.cos(t), math.sin(t)])
        du = np.array([-math.sin(t), math.cos(t)])
        tangent = dr[0] * u + r * du
        normal = np.array([tangent[1], -tangent[0]])
    else:
        t1, t2 = angles
        s1, c1 = math.sin(t1), math.cos(t1)
        s2, c2 = math.sin(t2), math.cos(t2)
        u = np.array([s1 * c2, s1 * s2, c1])
        du1 = np.array([c1 * c2, c1 * s2, -s1])
        du2 = np.array([-s1 * s2, s1 * c2, 0.0])
        tangent1 = dr[0] * u + r * du1
        tangent2 = dr[1] * u + r * du2
        normal = np.cross(tangent1, tangent2)
    length = float(np.linalg.norm(normal))
    if length < _FRAME_TOL:
        raise GeometryError(f"degenerate tangent frame at theta = {angles}")
    normal = normal / length
    if float(normal @ x) < 0.0:
        normal = -normal
    return normal


@dataclass(frozen=True)
class SampleGrid:
    """Deterministic boundary sample angles, one tuple per point."""

    thetas: tuple[tuple[float, ...], ...]
    counts: tuple[int, ...]
    ranges: tuple[tuple[float, float], ...]

    def __len__(self) -> int:
        return len(self.thetas)


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
    aligned or half-step grids zero one of them out exactly.
    """
    counts_t = (counts,) if isinstance(counts, int) else tuple(int(c) for c in counts)
    if len(counts_t) != dom.n - 1:
        raise ValueError(f"expected {dom.n - 1} counts for n = {dom.n}, got {len(counts_t)}")
    if any(c < 1 for c in counts_t):
        raise ValueError("grid counts must be >= 1")
    if ranges is None:
        ranges_t = ((0.0, TWO_PI),) if dom.n == 2 else ((0.0, math.pi), (0.0, TWO_PI))
    else:
        ranges_t = tuple((float(lo), float(hi)) for lo, hi in ranges)
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
        axes.append([lo + (i + offset) * step for i in range(count)])
    if dom.n == 2:
        thetas = tuple((t,) for t in axes[0])
    else:
        thetas = tuple((t1, t2) for t1 in axes[0] for t2 in axes[1])
    return SampleGrid(thetas=thetas, counts=counts_t, ranges=ranges_t)


def grid_frame(dom: StarDomain, grid: SampleGrid) -> tuple[np.ndarray, np.ndarray]:
    """Boundary points and unit outward normals at every grid sample,
    each as an (npoints, n) array in grid order."""
    if len(grid) == 0:
        raise ValueError("empty sample grid")
    xs = np.array([boundary_point(dom, t) for t in grid.thetas])
    nus = np.array([outward_normal(dom, t) for t in grid.thetas])
    return xs, nus


def interior_points(dom: StarDomain, count: int, seed: int = 0) -> list[np.ndarray]:
    """Random points strictly inside the domain; deterministic per seed."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        if dom.n == 2:
            angles = (rng.uniform(0.0, TWO_PI),)
        else:
            angles = (rng.uniform(0.0, math.pi), rng.uniform(0.0, TWO_PI))
        rho = rng.random()
        points.append(rho * dom.radius(angles) * _direction(dom, angles))
    return points


def line_points(p0: Sequence[float], direction: Sequence[float], count: int, extent: float) -> list[np.ndarray]:
    """count points p0 + t * dir, t equally spaced over [-extent, extent]."""
    if count < 2:
        raise ValueError("need at least two points per line")
    if extent <= 0:
        raise ValueError("extent must be positive")
    p0 = np.asarray(p0, dtype=float)
    d = np.asarray(direction, dtype=float)
    length = float(np.linalg.norm(d))
    if length < _FRAME_TOL:
        raise ValueError("zero direction vector")
    d = d / length
    return [p0 + t * d for t in np.linspace(-extent, extent, count)]
