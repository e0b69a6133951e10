"""Star-shaped domains: boundary parametrization, outward normals,
sample grids, and point generators.

Normals are checked two ways: finite-difference tangents on random
angles (the normal must be orthogonal to the boundary's tangent frame)
and the exact radial identity on balls.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from korncert.geometry import (
    GeometryError,
    StarDomain,
    boundary_point,
    interior_points,
    line_points,
    outward_normal,
    sample_grid,
)

_FD_STEP = 1e-6
_FD_TOL = 1e-6


def _fd_tangents(dom, theta):
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    tangents = []
    for k in range(len(theta)):
        e = np.zeros_like(theta)
        e[k] = _FD_STEP
        tangents.append(
            (boundary_point(dom, theta + e) - boundary_point(dom, theta - e))
            / (2 * _FD_STEP)
        )
    return tangents


class TestDomains:
    def test_ball_radius(self):
        dom = StarDomain.ball(2)
        assert dom.radius((0.3,)) == 1.0

    def test_sine2d_radius(self):
        dom = StarDomain.sine2d(2, 1, 2)
        assert dom.radius((math.pi / 4,)) == pytest.approx(3.0)

    def test_sine3d_radius(self):
        dom = StarDomain.sine3d(2, 1, 2, 3)
        theta = (math.pi / 4, math.pi / 6)
        expected = 2 + math.sin(2 * theta[0]) * math.sin(3 * theta[1])
        assert dom.radius(theta) == pytest.approx(expected)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(GeometryError):
            StarDomain.sine2d(1, 2, 2)
        with pytest.raises(GeometryError):
            StarDomain.sine3d(1, 2, 2, 3)

    def test_json_round_trip(self):
        for dom in (
            StarDomain.ball(3),
            StarDomain.sine2d(2, 1, 2),
            StarDomain.sine3d(2, 1, 2, 3),
        ):
            again = StarDomain.from_json(dom.to_json())
            assert again == dom

    def test_from_json_accepts_ball_alias(self):
        dom = StarDomain.from_json({"n": 2, "radial": {"family": "ball", "c": 2}})
        assert dom.family == "constant"
        assert dom.c == 2.0

    def test_dimension_family_mismatch_rejected(self):
        with pytest.raises(GeometryError):
            StarDomain(n=3, family="sine2d", c=2.0, a=1.0, m1=2)


class TestBoundaryPoints:
    def test_circle_point(self):
        dom = StarDomain.ball(2)
        assert boundary_point(dom, (0.0,)) == pytest.approx([1.0, 0.0])

    def test_sine2d_point(self):
        dom = StarDomain.sine2d(2, 1, 2)
        p = boundary_point(dom, (math.pi / 4,))
        assert p == pytest.approx([3 / math.sqrt(2), 3 / math.sqrt(2)])

    def test_sphere_point_polar_convention(self):
        dom = StarDomain.ball(3)
        p = boundary_point(dom, (math.pi / 2, 0.0))
        assert p == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)
        q = boundary_point(dom, (0.25, 0.0))
        assert q[2] == pytest.approx(math.cos(0.25))


class TestNormals:
    def test_ball_normal_is_radial(self):
        dom = StarDomain.ball(2)
        for theta in (0.1, 2.0, 5.5):
            x = boundary_point(dom, (theta,))
            nu = outward_normal(dom, (theta,))
            assert nu == pytest.approx(x, abs=1e-14)

    def test_sphere_normal_is_radial(self):
        dom = StarDomain.ball(3)
        theta = (1.1, 2.3)
        x = boundary_point(dom, theta)
        nu = outward_normal(dom, theta)
        assert nu == pytest.approx(x, abs=1e-12)

    @pytest.mark.parametrize(
        "dom",
        [StarDomain.sine2d(2, 1, 2), StarDomain.sine3d(2, 1, 2, 3)],
        ids=["sine2d", "sine3d"],
    )
    def test_normal_orthogonal_to_fd_tangents(self, dom):
        rng = random.Random(7)
        for _ in range(50):
            if dom.n == 2:
                theta = (rng.uniform(0, 2 * math.pi),)
            else:
                theta = (rng.uniform(0.1, math.pi - 0.1), rng.uniform(0, 2 * math.pi))
            nu = outward_normal(dom, theta)
            for t in _fd_tangents(dom, theta):
                assert abs(float(nu @ t)) < _FD_TOL * max(1.0, float(np.linalg.norm(t)))

    @pytest.mark.parametrize(
        "dom",
        [
            StarDomain.ball(2),
            StarDomain.sine2d(2, 1, 2),
            StarDomain.ball(3),
            StarDomain.sine3d(2, 1, 2, 3),
        ],
        ids=["ball2", "sine2d", "ball3", "sine3d"],
    )
    def test_unit_length_and_outwardness_on_random_angles(self, dom):
        rng = random.Random(0)
        for _ in range(1000):
            if dom.n == 2:
                theta = (rng.uniform(0, 2 * math.pi),)
            else:
                theta = (rng.uniform(0.05, math.pi - 0.05), rng.uniform(0, 2 * math.pi))
            nu = outward_normal(dom, theta)
            x = boundary_point(dom, theta)
            assert abs(float(np.linalg.norm(nu)) - 1.0) < 1e-12
            assert float(nu @ x) > 0.0

    def test_pole_frame_degenerates(self):
        dom = StarDomain.ball(3)
        with pytest.raises(GeometryError):
            outward_normal(dom, (0.0, 0.3))


class TestSampleGrids:
    def test_2d_grid_is_uniform_without_offset(self):
        dom = StarDomain.sine2d(2, 1, 2)
        grid = sample_grid(dom, [6])
        values = [t[0] for t in grid.thetas]
        assert values == pytest.approx([2 * math.pi * j / 6 for j in range(6)])

    def test_3d_grid_offsets(self):
        # Polar samples sit at half steps so the poles are excluded;
        # azimuthal samples at quarter steps avoid Nyquist-aligned zero
        # sets of the sine3d radial perturbation.
        dom = StarDomain.ball(3)
        grid = sample_grid(dom, [4, 4])
        assert len(grid) == 16
        theta1 = sorted({t[0] for t in grid.thetas})
        theta2 = sorted({t[1] for t in grid.thetas})
        assert theta1 == pytest.approx([(i + 0.5) * math.pi / 4 for i in range(4)])
        assert theta2 == pytest.approx([(j + 0.25) * 2 * math.pi / 4 for j in range(4)])

    def test_custom_range(self):
        dom = StarDomain.ball(2)
        grid = sample_grid(dom, [8], [(0.0, math.pi / 8)])
        values = [t[0] for t in grid.thetas]
        assert values == pytest.approx([math.pi / 8 * j / 8 for j in range(8)])
        assert max(values) < math.pi / 8

    def test_row_major_order(self):
        dom = StarDomain.ball(3)
        grid = sample_grid(dom, [2, 3])
        thetas = grid.thetas
        assert thetas[0][0] == thetas[1][0] == thetas[2][0]
        assert thetas[3][0] > thetas[0][0]

    def test_count_validation(self):
        dom = StarDomain.ball(2)
        with pytest.raises(ValueError):
            sample_grid(dom, [6, 6])
        with pytest.raises(ValueError):
            sample_grid(dom, [0])

    def test_polar_range_clamped_to_sphere(self):
        dom = StarDomain.ball(3)
        with pytest.raises(ValueError):
            sample_grid(dom, [4, 4], [(-0.5, math.pi), (0.0, 2 * math.pi)])


class TestPointGenerators:
    def test_interior_points_inside_domain(self):
        dom = StarDomain.sine2d(2, 1, 2)
        pts = interior_points(dom, 200, seed=3)
        assert len(pts) == 200
        for p in pts:
            theta = math.atan2(p[1], p[0]) % (2 * math.pi)
            assert np.linalg.norm(p) < dom.radius((theta,))

    def test_interior_points_deterministic(self):
        dom = StarDomain.ball(3)
        a = interior_points(dom, 5, seed=9)
        b = interior_points(dom, 5, seed=9)
        assert all(np.array_equal(p, q) for p, q in zip(a, b))

    def test_interior_zero_count(self):
        assert interior_points(StarDomain.ball(2), 0) == []

    def test_line_points_symmetric(self):
        pts = line_points([0, 0], [2, 0], 5, 1.0)
        assert len(pts) == 5
        assert pts[0] == pytest.approx([-1.0, 0.0])
        assert pts[2] == pytest.approx([0.0, 0.0])
        assert pts[4] == pytest.approx([1.0, 0.0])

    def test_line_validation(self):
        with pytest.raises(ValueError):
            line_points([0, 0], [1, 0], 1, 1.0)
        with pytest.raises(ValueError):
            line_points([0, 0], [0, 0], 3, 1.0)


# -- property suite ----------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    theta=st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True),
    m=st.integers(min_value=1, max_value=5),
)
def test_normal_invariants_2d_property(theta, m):
    dom = StarDomain.sine2d(3, 1, m)
    nu = outward_normal(dom, (theta,))
    x = boundary_point(dom, (theta,))
    assert abs(float(np.linalg.norm(nu)) - 1.0) < 1e-12
    assert float(nu @ x) > 0.0


@settings(max_examples=200, deadline=None)
@given(
    theta1=st.floats(min_value=0.05, max_value=math.pi - 0.05),
    theta2=st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True),
)
def test_normal_invariants_3d_property(theta1, theta2):
    dom = StarDomain.sine3d(2, 1, 2, 3)
    nu = outward_normal(dom, (theta1, theta2))
    x = boundary_point(dom, (theta1, theta2))
    assert abs(float(np.linalg.norm(nu)) - 1.0) < 1e-12
    assert float(nu @ x) > 0.0
