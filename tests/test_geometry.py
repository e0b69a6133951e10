"""Star-shaped domains: boundary parametrization, outward normals,
sample grids, and point generators.

Normals are checked two ways: finite-difference tangents on random
angles (the normal must be orthogonal to the boundary's tangent frame)
and the exact radial identity on balls.
"""

import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from korncert.geometry import (
    GeometryError,
    StarDomain,
    SampleGrid,
    boundary_point,
    grid_frame,
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
        assert np.linalg.norm(boundary_point(dom, (0.3,))) == pytest.approx(1.0)

    def test_sine2d_radius(self):
        dom = StarDomain.sine2d(2, 1, 2)
        assert np.linalg.norm(boundary_point(dom, (math.pi / 4,))) == pytest.approx(3.0)

    def test_sine3d_radius(self):
        dom = StarDomain.sine3d(2, 1, 2, 3)
        theta = (math.pi / 4, math.pi / 6)
        expected = 2 + math.sin(2 * theta[0]) * math.sin(3 * theta[1])
        assert np.linalg.norm(boundary_point(dom, theta)) == pytest.approx(expected)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(GeometryError):
            StarDomain.sine2d(1, 2, 2)
        with pytest.raises(GeometryError):
            StarDomain.sine3d(1, 2, 2, 3)
        # min r = c - |a| = 0: the boundary touches the origin.
        with pytest.raises(GeometryError):
            StarDomain.sine3d(1, 1, 3, 5)
        with pytest.raises(GeometryError):
            StarDomain.sine2d(1, 1, 7)
        # r(pi/2, 3 pi/2) = -5e-9.
        with pytest.raises(GeometryError):
            StarDomain.sine3d(1, 1.000000005, 1, 1)
        StarDomain.sine2d(1, 0.999, 7)
        StarDomain.sine3d(1, 0.999, 3, 5)
        StarDomain.sine3d(1, -0.999, 1, 1)

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

    @pytest.mark.parametrize(
        "build,value",
        [
            (lambda: StarDomain.sine2d(1, 0.5, 2.5), "2.5"),
            (lambda: StarDomain.sine3d(1, 0.5, True, 1), "True"),
            (lambda: StarDomain.sine3d(1, 0.5, 1, 1.9), "1.9"),
            (lambda: StarDomain(n=2, family="sine2d", c=1.0, a=0.5, m1=2.0), "2.0"),
            (lambda: StarDomain.from_json({"n": 2, "radial": {"family": "sine2d", "c": 1, "a": 0.5, "m": 2.7}}), "2.7"),
        ],
        ids=["sine2d", "sine3d-bool", "sine3d-float", "init", "from_json"],
    )
    def test_non_int_frequency_rejected(self, build, value):
        # A frequency is never truncated: 2.5 used to become 2, True 1.
        with pytest.raises(ValueError, match=rf"^a radial frequency must be an int, got {value}$"):
            build()

    @pytest.mark.parametrize(
        "build,value",
        [
            (lambda: StarDomain.from_json({"n": 2.0, "radial": {"family": "constant", "c": 1}}), "2.0"),
            (lambda: StarDomain.from_json({"n": 2.7, "radial": {"family": "constant", "c": 1}}), "2.7"),
            (lambda: StarDomain.from_json({"n": "3", "radial": {"family": "constant", "c": 1}}), "'3'"),
            (lambda: StarDomain.from_json({"n": True, "radial": {"family": "constant", "c": 1}}), "True"),
            (lambda: StarDomain.ball(3.0), "3.0"),
            (lambda: StarDomain(n=2.0, family="sine2d", c=1.0, a=0.5, m1=2), "2.0"),
        ],
        ids=["from_json-whole-float", "from_json-float", "from_json-str", "from_json-bool", "ball", "init"],
    )
    def test_non_int_dimension_rejected(self, build, value):
        # The dimension is never truncated or parsed: 2.7 used to give a
        # disk and "3" a ball.
        with pytest.raises(ValueError, match=rf"^the dimension must be an int, got {value}$"):
            build()

    @pytest.mark.parametrize(
        "spec,n",
        [
            ({"n": 3, "radial": {"family": "sine2d", "c": 2, "a": 1, "m": 2}}, 2),
            ({"n": 2, "radial": {"family": "sine3d", "c": 2, "a": 1, "m1": 2, "m2": 3}}, 3),
        ],
        ids=["sine2d-n3", "sine3d-n2"],
    )
    def test_from_json_keeps_the_dimension(self, spec, n):
        # from_json used to drop n for the wavy families: a sine2d spec
        # with n = 3 gave a 2D domain, a sine3d spec with n = 2 a 3D one.
        family = spec["radial"]["family"]
        with pytest.raises(GeometryError, match=rf"^family {family} requires n = {n}$"):
            StarDomain.from_json(spec)

    @pytest.mark.parametrize(
        "n,radial,key",
        [
            (2, {"family": "sine2d", "c": 2, "a": 1}, "m"),
            (2, {"family": "sine2d", "c": 2, "m": 2}, "a"),
            (3, {"family": "sine3d", "c": 2, "a": 1, "m1": 2}, "m2"),
            (3, {"family": "sine3d", "a": 1, "m1": 2, "m2": 3}, "c"),
        ],
        ids=["sine2d-m", "sine2d-a", "sine3d-m2", "sine3d-c"],
    )
    def test_from_json_missing_family_parameter(self, n, radial, key):
        # The same error as a missing n, radial or family, not a bare KeyError.
        with pytest.raises(GeometryError, match=rf"^malformed domain spec: '{key}'$"):
            StarDomain.from_json({"n": n, "radial": radial})
        with pytest.raises(GeometryError, match=r"^malformed domain spec: 'radial'$"):
            StarDomain.from_json({"n": n})

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

    @pytest.mark.parametrize("radius", [1e-2, 1e-7, 1e-30])
    def test_small_ball_frame_is_the_unit_ball_frame(self, radius):
        # Degeneracy is judged relative to r^(n-1), which a scaled ball
        # scales with its normals' unnormalised lengths; the pole of any
        # ball still degenerates.
        for n, theta in ((2, 0.3), (3, (0.39269908169872414, 0.39269908169872414))):
            nu = outward_normal(StarDomain.ball(n, radius), theta)
            assert np.allclose(nu, outward_normal(StarDomain.ball(n), theta), rtol=0, atol=1e-15)
        with pytest.raises(GeometryError):
            outward_normal(StarDomain.ball(3, radius), (0.0, 0.3))
        dom = StarDomain.sine3d(radius, radius / 2, 2, 3)
        grid = sample_grid(dom, [8, 8])
        unit_nus = grid_frame(StarDomain.sine3d(1, 0.5, 2, 3), grid)[1]
        assert np.allclose(grid_frame(dom, grid)[1], unit_nus, rtol=0, atol=1e-13)

    def test_overflowing_frame_degenerates(self):
        # At r = 1e155 the squared normal length overflows to inf, which
        # would scale every normal to 0; at 1e150 it is finite.
        dom = StarDomain.ball(2, 1e155)
        with np.errstate(over="ignore"):
            with pytest.raises(GeometryError):
                grid_frame(dom, sample_grid(dom, 6))
            with pytest.raises(GeometryError):
                outward_normal(dom, 0.3)
        nu = outward_normal(StarDomain.ball(2, 1e150), 0.3)
        assert np.allclose(nu, [math.cos(0.3), math.sin(0.3)], rtol=0, atol=1e-15)
        # In R^3 the normal is a cross product of length r^2 sin(theta1),
        # so its square overflows from r of about 1.16e77 on the equator:
        # 1.2e77 is refused on the shipped ball's 32 x 32 dense grid and
        # 1e77 is not.
        dom = StarDomain.ball(3, 1.2e77)
        with np.errstate(over="ignore"):
            with pytest.raises(GeometryError):
                grid_frame(dom, sample_grid(dom, [32, 32]))
            with pytest.raises(GeometryError):
                outward_normal(dom, (math.pi / 2, 0.3))
        grid = sample_grid(StarDomain.ball(3), [32, 32])
        nus = grid_frame(StarDomain.ball(3, 1e77), grid)[1]
        assert np.allclose(nus, grid_frame(StarDomain.ball(3), grid)[1], rtol=0, atol=1e-15)

    def test_grid_with_a_pole_sample_degenerates(self):
        dom = StarDomain.ball(3)
        grid = SampleGrid(axes=((0.5, 0.0, 1.0), (0.3,)), ranges=((0.0, math.pi), (0.0, 2 * math.pi)))
        assert grid.counts == (3, 1)
        with pytest.raises(GeometryError, match=r"at theta = \(0\.0, 0\.3\)"):
            grid_frame(dom, grid)

    @pytest.mark.parametrize("n_dom, n_grid", [(2, 3), (3, 2)])
    def test_grid_of_another_dimension_is_refused(self, n_dom, n_grid):
        dom = StarDomain.ball(n_dom)
        grid = sample_grid(StarDomain.ball(n_grid), [3] * (n_grid - 1))
        message = f"a {n_grid}-dimensional sample grid does not fit a {n_dom}-dimensional domain"
        with pytest.raises(ValueError, match=message):
            grid_frame(dom, grid)


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

    @pytest.mark.parametrize("count", [4.7, 4.0, True, "4", None])
    def test_counts_that_are_not_ints_are_refused(self, count):
        # Nothing is truncated: 4.7 is not 4 points, nor True 1.
        ball2, ball3 = StarDomain.ball(2), StarDomain.ball(3)
        for dom, counts in ((ball2, count), (ball2, [count]), (ball3, [4, count])):
            with pytest.raises(ValueError, match=rf"^grid count must be an int, got {re.escape(repr(count))}$"):
                sample_grid(dom, counts)

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
            assert np.linalg.norm(p) < np.linalg.norm(boundary_point(dom, theta))

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "direction", [[1e-15, 0], [2, 0], [1e150, 0], [1e-160, 0], [1e-200, 0], [5e-324, 0], [1e300, 0]]
    )
    def test_line_direction_of_any_finite_length_is_normalised(self, direction):
        # d / |d| is exactly e_1 here, so the points keep the unit
        # direction's bits, also where |d|^2 is subnormal, underflows or
        # overflows.
        pts = line_points([0.5, 0], direction, 3, 1.0)
        assert all(np.array_equal(p, q) for p, q in zip(pts, line_points([0.5, 0], [1, 0], 3, 1.0)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "direction, power",
        [([1, 1], 1023), ([3, -4, 0.5], -1070), ([0.3, -0.7, 1e-5], 600), ([1, 2], -600)],
    )
    def test_line_points_are_invariant_under_power_of_two_scaling(self, direction, power):
        # Scaling dir by 2**power is exact; [1, 1] * 2**1023 has the norm
        # overflow, [3, -4, 0.5] * 2**-1070 subnormal entries and
        # [1, 2] * 2**-600 a squared norm that underflows.  Each gives the
        # bits of d / |d| for the unscaled dir, whose norm is in range.
        p0 = np.array([0, 0.25, 0][: len(direction)])
        unit = np.asarray(direction, dtype=float) / np.linalg.norm(direction)
        ref = [p0 + t * unit for t in np.linspace(-1.0, 1.0, 3)]
        scaled = np.ldexp(np.asarray(direction, dtype=float), power)
        assert np.isfinite(scaled).all() and scaled.any()
        for d in (direction, scaled):
            pts = line_points(p0, d, 3, 1.0)
            assert all(np.array_equal(p, q) for p, q in zip(pts, ref))

    @pytest.mark.parametrize(
        "direction, message",
        [([0, 0], r"dir must be nonzero, got \[0.0, 0.0\]"), ([math.inf, 0], "dir must be finite"),
         ([math.nan, 1], "dir must be finite")],
        ids=["zero", "inf", "nan"],
    )
    def test_line_direction_norm_must_be_nonzero_and_finite(self, direction, message):
        # Only a zero or non-finite dir is refused: any other has a
        # nonzero finite norm once scaled by a power of two.
        with pytest.raises(ValueError, match=f"^{message}"):
            line_points([0, 0], direction, 3, 1.0)

    @pytest.mark.parametrize("p0,direction", [([0, 0], [1, 0, 0]), ([0, 0, 0], [1, 0])])
    def test_line_p0_and_dir_of_different_lengths(self, p0, direction):
        with pytest.raises(ValueError, match=r"^p0 and dir must have the same length, got shapes "):
            line_points(p0, direction, 3, 1.0)

    @pytest.mark.parametrize("count", [3.0, True, "3", None])
    def test_point_counts_must_be_ints(self, count):
        # As for sample_grid: nothing is truncated, and a bool is no count.
        with pytest.raises(ValueError, match=rf"^count must be an int, got {re.escape(repr(count))}$"):
            line_points([0, 0], [1, 0], count, 1.0)
        with pytest.raises(ValueError, match=rf"^count must be an int, got {re.escape(repr(count))}$"):
            interior_points(StarDomain.ball(2), count)


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


# -- the array frame against the per-sample formulas -------------------


def _reference_polar(dom, theta):
    """r, its angular partials and u at one angle tuple, with math trig."""
    if dom.family == "constant":
        r = dom.c
        dr = (0.0,) * len(theta)
    elif dom.n == 2:
        r = dom.c + dom.a * math.sin(dom.m1 * theta[0])
        dr = (dom.a * dom.m1 * math.cos(dom.m1 * theta[0]),)
    else:
        t1, t2 = theta
        r = dom.c + dom.a * math.sin(dom.m1 * t1) * math.sin(dom.m2 * t2)
        dr = (
            dom.a * dom.m1 * math.cos(dom.m1 * t1) * math.sin(dom.m2 * t2),
            dom.a * dom.m2 * math.sin(dom.m1 * t1) * math.cos(dom.m2 * t2),
        )
    if dom.n == 2:
        u = np.array([math.cos(theta[0]), math.sin(theta[0])])
    else:
        s1, c1 = math.sin(theta[0]), math.cos(theta[0])
        u = np.array([s1 * math.cos(theta[1]), s1 * math.sin(theta[1]), c1])
    return r, dr, u


def _reference_frame(dom, theta):
    """The per-sample frame with math trig, per-row np.cross and
    np.linalg.norm: the formulas grid_frame evaluates on whole arrays."""
    r, dr, u = _reference_polar(dom, theta)
    if dom.n == 2:
        t = theta[0]
        tangent = dr[0] * u + r * np.array([-math.sin(t), math.cos(t)])
        normal = np.array([tangent[1], -tangent[0]])
    else:
        s1, c1 = math.sin(theta[0]), math.cos(theta[0])
        s2, c2 = math.sin(theta[1]), math.cos(theta[1])
        tangent1 = dr[0] * u + r * np.array([c1 * c2, c1 * s2, -s1])
        tangent2 = dr[1] * u + r * np.array([-s1 * s2, s1 * c2, 0.0])
        normal = np.cross(tangent1, tangent2)
    x = r * u
    normal = normal / float(np.linalg.norm(normal))
    if float(normal @ x) < 0.0:
        normal = -normal
    return x, normal


@st.composite
def _domains(draw):
    n = draw(st.sampled_from([2, 3]))
    c = draw(st.floats(min_value=0.5, max_value=3.0))
    family = draw(st.sampled_from(["constant", "sine2d" if n == 2 else "sine3d"]))
    if family == "constant":
        return StarDomain.ball(n, c)
    a = draw(st.floats(min_value=-0.95, max_value=0.95)) * c
    m = [draw(st.integers(min_value=1, max_value=6)) for _ in range(n - 1)]
    return StarDomain.sine2d(c, a, *m) if n == 2 else StarDomain.sine3d(c, a, *m)


@st.composite
def _grids(draw, dom):
    counts = [draw(st.integers(min_value=1, max_value=40)) for _ in range(dom.n - 1)]
    if not draw(st.booleans()):
        return sample_grid(dom, counts)
    ranges = []
    for top in [2 * math.pi] if dom.n == 2 else [math.pi, 2 * math.pi]:
        lo = draw(st.floats(min_value=0.0, max_value=top * 0.9))
        ranges.append((lo, draw(st.floats(min_value=lo + 1e-3, max_value=top))))
    return sample_grid(dom, counts, ranges)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_sample_grid_matches_per_sample_loop_bit_for_bit(data):
    """The array-built angles equal the per-element loop over the axes,
    then the product of the axes with the last angle varying fastest."""
    dom = data.draw(_domains())
    grid = data.draw(_grids(dom))
    axes = []
    for coord, (count, (lo, hi)) in enumerate(zip(grid.counts, grid.ranges)):
        step = (hi - lo) / count
        offset = (0.5, 0.25)[coord] if dom.n == 3 else 0.0
        axes.append([lo + (i + offset) * step for i in range(count)])
    expected = np.array(list(itertools.product(*axes)))
    assert grid.thetas.shape == expected.shape == (len(grid), dom.n - 1)
    assert grid.thetas.tobytes() == expected.tobytes()


_SINE3 = StarDomain.sine3d(2, 1, 2, 3)
_PATCH3 = StarDomain.sine3d(1, 0.5, 3, 1)
_PATCH2 = StarDomain.sine2d(1, 0.5, 3)


@st.composite
def _domain_grids(draw):
    dom = draw(_domains())
    return dom, draw(_grids(dom))


@settings(max_examples=150, deadline=None)
@given(case=_domain_grids())
@example(case=(_SINE3, sample_grid(_SINE3, [1, 9])))
@example(case=(_SINE3, sample_grid(_SINE3, [9, 1])))
@example(case=(_PATCH3, sample_grid(_PATCH3, [5, 7], [(0.2, 1.1), (4.0, 5.5)])))
@example(case=(_PATCH2, sample_grid(_PATCH2, [6], [(2.0, 2.5)])))
def test_grid_frame_matches_per_sample_reference_bit_for_bit(case):
    """A grid's frame, built from its axes, against the per-sample
    formulas; the examples pin 1 x k and k x 1 product grids and patches."""
    dom, grid = case
    xs, nus = grid_frame(dom, grid)
    ref = [_reference_frame(dom, theta) for theta in grid.thetas]
    assert np.array_equal(xs, np.array([x for x, _ in ref]))
    assert np.array_equal(nus, np.array([nu for _, nu in ref]))
    for theta, x, nu in zip(grid.thetas[:3], xs, nus):
        assert np.array_equal(boundary_point(dom, theta), x)
        assert np.array_equal(outward_normal(dom, theta), nu)


@settings(max_examples=50, deadline=None)
@given(dom=_domains(), count=st.integers(min_value=0, max_value=60), seed=st.integers(0, 2**32))
def test_interior_points_match_per_point_reference(dom, count, seed):
    rng = random.Random(seed)
    expected = []
    for _ in range(count):
        if dom.n == 2:
            theta = (rng.uniform(0.0, 2 * math.pi),)
        else:
            theta = (rng.uniform(0.0, math.pi), rng.uniform(0.0, 2 * math.pi))
        rho = rng.random()
        r, _, u = _reference_polar(dom, theta)
        expected.append(rho * r * u)
    got = interior_points(dom, count, seed)
    assert len(got) == count
    assert all(np.array_equal(p, q) for p, q in zip(got, expected))
