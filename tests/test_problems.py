import math

import numpy as np
import pytest

from maxnit.mesh import gen_lshape
from maxnit.problems import curved_l_case, lshape_case, square_case

FD_STEP = 1e-6
# the achievable central-difference accuracy at this step is limited by
# roundoff (~eps/step) and truncation; 1e-8 leaves headroom for both
FD_TOL = 1e-8


def central_diff(f, pts, step=FD_STEP):
    ex = np.array([step, 0.0])
    ey = np.array([0.0, step])
    dx = (f(pts + ex) - f(pts - ex)) / (2 * step)
    dy = (f(pts + ey) - f(pts - ey)) / (2 * step)
    return dx, dy


class TestSquareCase:
    case = square_case()

    def test_center_values(self):
        center = np.zeros((1, 2))
        assert np.allclose(self.case.exact_u(center), 0.0)
        assert self.case.exact_curl_u(center)[0] == pytest.approx(0.0, abs=1e-15)

    def test_nonzero_boundary_data(self):
        # phi(1) = 1 and phi(-1) = -1 make the tangential data nonzero
        pts = np.column_stack([np.full(9, 1.0), np.linspace(-1, 1, 9)])
        ub = self.case.dirichlet_u(pts)
        assert np.abs(ub).max() > 0.5
        # u2(1, 0) = -phi'(1) phi(0) = 0, u2(1, 1) = -phi'(1) phi(1) = -2
        assert self.case.exact_u(np.array([[1.0, 1.0]]))[0, 1] == pytest.approx(-2.0)

    def test_divergence_free(self, rng):
        pts = rng.uniform(-0.95, 0.95, size=(100, 2))
        dx, dy = central_diff(self.case.exact_u, pts)
        div = dx[:, 0] + dy[:, 1]
        assert np.abs(div).max() < FD_TOL

    def test_curl_matches_analytic(self, rng):
        pts = rng.uniform(-0.95, 0.95, size=(100, 2))
        dx, dy = central_diff(self.case.exact_u, pts)
        curl_fd = dx[:, 1] - dy[:, 0]
        assert np.abs(curl_fd - self.case.exact_curl_u(pts)).max() < FD_TOL

    def test_source_is_rotated_curl_gradient(self, rng):
        pts = rng.uniform(-0.95, 0.95, size=(100, 2))
        dx, dy = central_diff(self.case.exact_curl_u, pts)
        f_fd = np.column_stack([dy, -dx])
        assert np.abs(f_fd - self.case.source_f(pts)).max() < FD_TOL

    def test_source_divergence_free(self, rng):
        pts = rng.uniform(-0.95, 0.95, size=(100, 2))
        dx, dy = central_diff(self.case.source_f, pts)
        assert np.abs(dx[:, 0] + dy[:, 1]).max() < 1e-6 * np.abs(self.case.source_f(pts)).max()

    def test_fields_equal_per_derivative_formulas_bit_for_bit(self, rng):
        # phi(t) = t^2 sin(pi t/2) and its derivatives, one function each
        # with its own sine and cosine, as the fields were first written
        def phi(t):
            return t * t * np.sin(0.5 * np.pi * t)

        def phi1(t):
            s, c = np.sin(0.5 * np.pi * t), np.cos(0.5 * np.pi * t)
            return 2.0 * t * s + 0.5 * np.pi * t * t * c

        def phi2(t):
            s, c = np.sin(0.5 * np.pi * t), np.cos(0.5 * np.pi * t)
            return (2.0 - 0.25 * np.pi**2 * t * t) * s + 2.0 * np.pi * t * c

        def phi3(t):
            s, c = np.sin(0.5 * np.pi * t), np.cos(0.5 * np.pi * t)
            return (3.0 * np.pi - 0.125 * np.pi**3 * t * t) * c - 1.5 * np.pi**2 * t * s

        pts = rng.uniform(-1.2, 1.2, size=(200_000, 2))
        x, y = pts[:, 0], pts[:, 1]
        u = np.column_stack([phi(x) * phi1(y), -phi1(x) * phi(y)])
        curl = -(phi2(x) * phi(y) + phi(x) * phi2(y))
        dcdx = -(phi3(x) * phi(y) + phi1(x) * phi2(y))
        dcdy = -(phi2(x) * phi1(y) + phi(x) * phi3(y))
        f = np.column_stack([dcdy, -dcdx])  # per unit nu

        case = square_case()
        assert np.array_equal(case.exact_u(pts), u)
        assert np.array_equal(case.dirichlet_u(pts), u)
        assert np.array_equal(case.exact_curl_u(pts), curl)
        assert np.array_equal(case.source_f(pts), f)


class TestLshapeCase:
    def test_tangential_data_vanishes_on_legs(self):
        for n in (1, 2, 4):
            case = lshape_case(n)
            on_x = np.column_stack([np.linspace(0.1, 1.0, 7), np.zeros(7)])
            assert np.abs(case.exact_u(on_x)[:, 0]).max() < 1e-13
            on_y = np.column_stack([np.zeros(7), np.linspace(-1.0, -0.1, 7)])
            assert np.abs(case.exact_u(on_y)[:, 1]).max() < 1e-13

    def test_angular_node_for_n4(self):
        # at theta = 3*pi/8 the n=4 potential crosses zero, so the field is
        # purely angular: u . e_r = (2n/3) r^(2n/3-1) sin(2n theta/3) = 0
        case = lshape_case(4)
        theta = 3 * math.pi / 8
        pt = np.array([math.cos(theta), math.sin(theta)])
        u = case.exact_u(pt[None])[0]
        assert u @ pt == pytest.approx(0.0, abs=1e-14)

    def test_singular_point_behaviour(self):
        # unbounded at the corner for n = 1: NaN there, finite everywhere else
        vertices = gen_lshape(32).vertices
        corner = np.all(vertices == 0.0, axis=1)
        assert corner.sum() == 1
        for n in (1, 2, 4):
            u = lshape_case(n).exact_u(vertices)
            assert np.all(np.isfinite(u[~corner]))
            assert np.all(np.isnan(u[corner]) if n == 1 else u[corner] == 0.0)
        assert np.all(np.isnan(lshape_case(1).exact_u(np.zeros((1, 2)))))

    def test_curl_and_div_vanish(self, rng):
        for n in (1, 2, 4):
            case = lshape_case(n)
            pts = []
            while len(pts) < 100:
                p = rng.uniform(-0.95, 0.95, size=2)
                inside = not (p[0] >= 0.0 and p[1] <= 0.0)
                if inside and np.linalg.norm(p) > 0.05:
                    pts.append(p)
            pts = np.array(pts)
            dx, dy = central_diff(case.exact_u, pts)
            assert np.abs(dx[:, 1] - dy[:, 0]).max() < FD_TOL
            assert np.abs(dx[:, 0] + dy[:, 1]).max() < FD_TOL

    def test_zero_source_and_curl(self):
        case = lshape_case(2)
        pts = np.array([[0.5, 0.5], [-0.3, -0.7]])
        assert np.all(case.source_f(pts) == 0.0)
        assert np.all(case.exact_curl_u(pts) == 0.0)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            lshape_case(3)


class TestCurvedLCase:
    def test_same_fields_as_lshape(self):
        pt = np.array([[0.5, 0.5]])
        for n in (1, 2, 4):
            a = curved_l_case(n).exact_u(pt)
            b = lshape_case(n).exact_u(pt)
            assert np.allclose(a, b, rtol=0, atol=0)

    def test_source_vanishes(self):
        case = curved_l_case(1)
        assert np.all(case.source_f(np.array([[0.2, 0.2], [-0.5, 0.1]])) == 0.0)

    def test_golden_value_on_arc_point(self):
        # direct evaluation at the mapped corner (1-sqrt2, sqrt2-1):
        # r = 2 - sqrt(2), theta = 3*pi/4
        pt = np.array([[1 - math.sqrt(2), math.sqrt(2) - 1]])
        r = 2.0 - math.sqrt(2.0)
        for n, golden in [
            (1, None),
            (2, None),
            (4, None),
        ]:
            k = 2.0 * n / 3.0
            rad = k * r ** (k - 1.0)
            ang = (k - 1.0) * 0.75 * math.pi
            expect = np.array([rad * math.sin(ang), rad * math.cos(ang)])
            got = curved_l_case(n).exact_u(pt)[0]
            assert np.allclose(got, expect, rtol=1e-14)
        # frozen regression value for the singular case
        got = curved_l_case(1).exact_u(pt)[0]
        assert got[0] == pytest.approx(-0.563396276350480, rel=1e-12)
        assert got[1] == pytest.approx(+0.563396276350480, rel=1e-12)

    def test_domain_tag(self):
        assert curved_l_case(2).domain == "curved-l"
        assert curved_l_case(2).singularity_n == 2


def test_zero_source_flag(rng):
    assert square_case().zero_source is False
    pts = rng.uniform(-1.0, 1.0, (50, 2))
    for n in (1, 2, 4):
        for case in (lshape_case(n), curved_l_case(n)):
            assert case.zero_source is True
            f = case.source_f(pts)
            assert f.shape == (50, 2)
            assert np.all(f == 0.0)
