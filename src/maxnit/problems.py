"""Manufactured solution cases: exact fields, sources and boundary data.

Conventions (2D): scalar curl c(v) = d1 v2 - d2 v1, vector curl of a
scalar w is (d2 w, -d1 w). Every field callable takes an (m, 2) float
array of points and returns m values: an (m,) array for a scalar field, an
(m, 2) array for a vector field. A field is NaN where it is unbounded: at
the re-entrant corner of an n = 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

__all__ = [
    "ProblemCase",
    "square_case",
    "lshape_case",
    "curved_l_case",
]


@dataclass(frozen=True)
class ProblemCase:
    """Exact solution bundle; the pseudo-pressure is identically zero. The
    exact fields do not depend on nu, and `source_f` is the source per unit
    nu, curl curl u: the discrete problem's f is `Params.nu * source_f`."""

    domain: str
    exact_u: Callable[[np.ndarray], np.ndarray]
    exact_curl_u: Callable[[np.ndarray], np.ndarray]
    source_f: Callable[[np.ndarray], np.ndarray]
    dirichlet_u: Callable[[np.ndarray], np.ndarray]
    singularity_n: int | None = None
    # f is identically zero: the right-hand side skips its source quadrature.
    # `source_f` stays a callable that returns zeros.
    zero_source: bool = False


def _phis(t, order: int):
    """phi(t) = t^2 sin(pi t/2) and its derivatives up to `order` (1 to 3),
    from one sine and one cosine per point."""
    s, c = np.sin(0.5 * np.pi * t), np.cos(0.5 * np.pi * t)
    out = [t * t * s, 2.0 * t * s + 0.5 * np.pi * t * t * c]
    if order >= 2:
        out.append((2.0 - 0.25 * np.pi**2 * t * t) * s + 2.0 * np.pi * t * c)
    if order >= 3:
        out.append((3.0 * np.pi - 0.125 * np.pi**3 * t * t) * c - 1.5 * np.pi**2 * t * s)
    return out


def square_case() -> ProblemCase:
    """Smooth rotational field on (-1,1)^2 built from phi(t) = t^2 sin(pi t/2)."""

    def u(pts):
        (px, p1x), (py, p1y) = _phis(pts[:, 0], 1), _phis(pts[:, 1], 1)
        return np.column_stack([px * p1y, -p1x * py])

    def curl(pts):
        (px, _, p2x), (py, _, p2y) = _phis(pts[:, 0], 2), _phis(pts[:, 1], 2)
        return -(p2x * py + px * p2y)

    def f(pts):
        # f / nu = vector-curl of the scalar curl, so div f = 0 identically
        (px, p1x, p2x, p3x), (py, p1y, p2y, p3y) = _phis(pts[:, 0], 3), _phis(pts[:, 1], 3)
        dcdx = -(p3x * py + p1x * p2y)
        dcdy = -(p2x * p1y + px * p3y)
        return np.column_stack([dcdy, -dcdx])

    return ProblemCase("square", u, curl, f, u)


def _corner_gradient(n: int):
    """Gradient of r^(2n/3) sin(2n theta/3) with theta measured from the
    positive x-axis into [0, 3*pi/2]; at the origin it is 0, or NaN for
    n = 1, where it is unbounded."""
    k = 2.0 * n / 3.0

    def u(pts):
        x, y = pts[:, 0], pts[:, 1]
        r = np.hypot(x, y)
        theta = np.arctan2(y, x)
        theta = np.where(theta < 0.0, theta + 2.0 * np.pi, theta)
        out = np.empty((len(r), 2))
        at_origin = r < 1e-14
        out[at_origin] = np.nan if n == 1 else 0.0
        ok = ~at_origin
        rad = k * r[ok] ** (k - 1.0)
        ang = (k - 1.0) * theta[ok]
        out[ok, 0] = rad * np.sin(ang)
        out[ok, 1] = rad * np.cos(ang)
        return out

    return u


def lshape_case(n: int) -> ProblemCase:
    """Curl-free corner singularity on the L-domain; smoothness grows with n."""
    if n not in (1, 2, 4):
        raise ValueError("n must be one of 1, 2, 4")
    u = _corner_gradient(n)

    def zero_scalar(pts):
        return np.zeros(pts.shape[0])

    def zero_vector(pts):
        return np.zeros((pts.shape[0], 2))

    return ProblemCase("lshape", u, zero_scalar, zero_vector, u, singularity_n=n, zero_source=True)


def curved_l_case(n: int) -> ProblemCase:
    """Same fields as the L-domain case, posed on the curved-L domain."""
    return replace(lshape_case(n), domain="curved-l")
