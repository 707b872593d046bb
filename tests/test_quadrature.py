import math

import numpy as np
import pytest

from maxnit.quadrature import edge_rule, subdivide_triangle_rule, triangle_rule


def tri_monomial(a, b):
    # exact integral of x^a y^b over the reference triangle
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


@pytest.mark.parametrize("degree", range(1, 11))
def test_triangle_exactness(degree):
    rule = triangle_rule(degree)
    assert rule.exact_degree >= degree
    for a in range(rule.exact_degree + 1):
        for b in range(rule.exact_degree + 1 - a):
            val = (rule.weights * rule.points[:, 1] ** a * rule.points[:, 2] ** b).sum()
            exact = tri_monomial(a, b)
            assert abs(val - exact) <= 1e-13 * abs(exact)


@pytest.mark.parametrize("degree", range(1, 11))
def test_triangle_weight_sum(degree):
    rule = triangle_rule(degree)
    assert rule.weights.sum() == pytest.approx(0.5, abs=1e-14)
    assert np.allclose(rule.points.sum(axis=1), 1.0, atol=1e-14)


def test_triangle_degree_one_is_centroid():
    rule = triangle_rule(1)
    assert len(rule.weights) == 1
    assert rule.weights[0] == pytest.approx(0.5)
    assert np.allclose(rule.points[0], [1 / 3, 1 / 3, 1 / 3])


def test_triangle_degree_six_cubic_product():
    rule = triangle_rule(6)
    val = (rule.weights * rule.points[:, 1] ** 3 * rule.points[:, 2] ** 3).sum()
    assert val == pytest.approx(tri_monomial(3, 3), rel=1e-13)
    assert tri_monomial(3, 3) == pytest.approx(1 / 1120)


@pytest.mark.parametrize("degree", range(1, 12))
def test_edge_exactness(degree):
    rule = edge_rule(degree)
    assert rule.exact_degree >= degree
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
    for k in range(rule.exact_degree + 1):
        val = (rule.weights * rule.points**k).sum()
        assert val == pytest.approx(1.0 / (k + 1), rel=1e-13)


def test_edge_degree_one_is_midpoint():
    rule = edge_rule(1)
    assert len(rule.weights) == 1
    assert rule.points[0] == pytest.approx(0.5)


def test_edge_two_point_cubic():
    rule = edge_rule(3)
    assert len(rule.weights) == 2
    val = (rule.weights * rule.points**3).sum()
    assert abs(val - 0.25) < 1e-15


def test_edge_five_point_ninth():
    rule = edge_rule(9)
    assert len(rule.weights) == 5
    assert (rule.weights * rule.points**9).sum() == pytest.approx(0.1, rel=1e-13)


def test_subdivision_keeps_exactness():
    rule = subdivide_triangle_rule(triangle_rule(4), 2)
    assert rule.weights.sum() == pytest.approx(0.5, abs=1e-13)
    for a, b in [(4, 0), (2, 2), (1, 3)]:
        val = (rule.weights * rule.points[:, 1] ** a * rule.points[:, 2] ** b).sum()
        assert val == pytest.approx(tri_monomial(a, b), rel=1e-12)


def test_unsupported_degrees_raise():
    with pytest.raises(ValueError):
        triangle_rule(0)
    with pytest.raises(ValueError):
        triangle_rule(11)
    with pytest.raises(ValueError):
        edge_rule(0)
    with pytest.raises(ValueError):
        subdivide_triangle_rule(triangle_rule(2), -1)
