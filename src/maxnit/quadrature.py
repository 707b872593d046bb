"""Quadrature rules on the reference triangle and the unit edge.

Triangle rules are given in barycentric coordinates on the reference
triangle (0,0)-(1,0)-(0,1) with weights summing to 1/2; edge rules are
Gauss-Legendre points on [0,1] with weights summing to 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QuadRule", "triangle_rule", "edge_rule", "subdivide_triangle_rule"]


@dataclass(frozen=True)
class QuadRule:
    """Fixed point set and weights of stated polynomial exactness."""

    points: np.ndarray  # (k, 3) barycentric for triangles, (k,) in [0, 1] for edges
    weights: np.ndarray  # (k,)
    exact_degree: int


def _orbit1(a: float) -> list[tuple[float, float, float]]:
    # permutations of (1-2a, a, a)
    b = 1.0 - 2.0 * a
    return [(b, a, a), (a, b, a), (a, a, b)]


def _orbit2(a: float, b: float) -> list[tuple[float, float, float]]:
    # all six permutations of (a, b, 1-a-b) with distinct entries
    c = 1.0 - a - b
    return [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]


def _tabulated_triangle_rules() -> dict[int, tuple[np.ndarray, np.ndarray]]:
    third = 1.0 / 3.0
    rules: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    rules[1] = (np.array([[third, third, third]]), np.array([1.0]))

    # 12-point degree-6 rule, two symmetric orbits and one full orbit
    pts = (
        _orbit1(0.063089014491502)
        + _orbit1(0.249286745170910)
        + _orbit2(0.310352451033785, 0.053145049844816)
    )
    w = np.array(
        [0.050844906370207] * 3
        + [0.116786275726379] * 3
        + [0.082851075618374] * 6
    )
    rules[6] = (np.array(pts), w)
    return rules


_TRI_RULES = _tabulated_triangle_rules()


def _collapsed_product_rule(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss product rule on the square collapsed onto the triangle.

    With n = ceil((degree+2)/2) points per direction the substitution
    x = u, y = v(1-u) integrates every bivariate polynomial of total
    degree <= degree exactly, with positive weights.
    """
    n = (degree + 3) // 2
    t, w = np.polynomial.legendre.leggauss(n)
    u = 0.5 * (t + 1.0)
    wu = 0.5 * w
    uu, vv = np.meshgrid(u, u, indexing="ij")
    ww = np.outer(wu, wu) * (1.0 - uu)
    x = uu.ravel()
    y = (vv * (1.0 - uu)).ravel()
    bary = np.column_stack([1.0 - x - y, x, y])
    return bary, 2.0 * ww.ravel()  # weights in sum-to-1 normalisation


def triangle_rule(degree: int) -> QuadRule:
    """Smallest available triangle rule with exactness >= degree."""
    if not 1 <= degree <= 10:
        raise ValueError(f"unsupported triangle quadrature degree {degree}")
    for d in sorted(_TRI_RULES):
        if d >= degree:
            pts, w = _TRI_RULES[d]
            return QuadRule(pts.copy(), 0.5 * w, d)
    pts, w = _collapsed_product_rule(degree)
    return QuadRule(pts, 0.5 * w, degree)


def edge_rule(degree: int) -> QuadRule:
    """Gauss-Legendre rule on [0,1] with exactness 2*n_pts - 1 >= degree."""
    if not 1 <= degree <= 41:
        raise ValueError(f"unsupported edge quadrature degree {degree}")
    n = (degree + 2) // 2
    t, w = np.polynomial.legendre.leggauss(n)
    return QuadRule(0.5 * (t + 1.0), 0.5 * w, 2 * n - 1)


def subdivide_triangle_rule(rule: QuadRule, levels: int) -> QuadRule:
    """Composite rule applying `rule` on 4**levels uniform subtriangles."""
    if levels < 0:
        raise ValueError("levels must be >= 0")
    corners = [np.eye(3)]
    for _ in range(levels):
        refined = []
        for c in corners:
            e0, e1, e2 = c
            m01, m12, m02 = 0.5 * (e0 + e1), 0.5 * (e1 + e2), 0.5 * (e0 + e2)
            refined += [
                np.array([e0, m01, m02]),
                np.array([m01, e1, m12]),
                np.array([m02, m12, e2]),
                np.array([m01, m12, m02]),
            ]
        corners = refined
    pts = np.concatenate([rule.points @ c for c in corners])
    w = np.concatenate([rule.weights / 4.0**levels for _ in corners])
    return QuadRule(pts, w, rule.exact_degree)
