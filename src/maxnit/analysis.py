"""Error norms, stability norms and convergence rates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import (
    Params,
    _curl_coefs,
    _div_coefs,
    _edge_frame,
    _edge_mass,
    _edge_trace,
    _map_rule_points,
)
from .mesh import Mesh
from .problems import ProblemCase
from .quadrature import subdivide_triangle_rule, triangle_rule

__all__ = [
    "ErrorReport",
    "l2_errors",
    "triple_norm",
    "boundary_data_norm",
    "convergence_rate",
]

_P1_MASS = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0

# radius, in mesh sizes h, of the disc around the singular corner inside
# which the error norm of a singularity_n == 1 case subdivides its rule
_CORNER_RADIUS_H = 8.0


@dataclass
class ErrorReport:
    """One refinement level of a convergence study."""

    h: float
    err_u: float
    err_curl: float
    err_p: float
    dofs: int
    triple: float | None = None
    data_norm: float | None = None
    wall_ms: float = 0.0


def _udofs(nodal: np.ndarray) -> np.ndarray:
    """Interleaved (u_x, u_y) element vectors from nodal (..., 3, [ux, uy, p])."""
    return nodal[..., :2].reshape(nodal.shape[:-2] + (6,))


def _rule_parts(mesh: Mesh, case: ProblemCase):
    """(rule, triangles) pairs of the degree-6 rule that cover every triangle
    once. A case with singularity_n == 1 gets the once-subdivided rule on the
    triangles near its singular corner, the origin, and the plain rule
    elsewhere; every other case gets the plain rule."""
    rule = triangle_rule(6)
    if case.singularity_n != 1:
        return [(rule, slice(None))]
    centroid = mesh.vertices[mesh.triangles].mean(axis=1)
    near = np.hypot(centroid[:, 0], centroid[:, 1]) <= _CORNER_RADIUS_H * mesh.h
    return [(rule, ~near), (subdivide_triangle_rule(rule, 1), near)]


def l2_errors(mesh: Mesh, x: np.ndarray, case: ProblemCase) -> ErrorReport:
    """Error norms of a discrete solution, the full nodal coefficient vector
    `x`, against the exact fields.

    |u - u_h|^2 and |p_h|^2 are integrated with the degree-6 rule. For the
    strongest singularity (singularity_n == 1) the triangles whose centroid
    lies within `_CORNER_RADIUS_H` mesh sizes of the corner get one extra
    uniform quadrature subdivision, so the corner elements are integrated
    adequately.

    The curl error is measured at the element centroids, the Gauss point
    of a P1 code. Since the discrete curl is elementwise constant, this is
    the natural discrete curl-error measure; on criss-cross and
    Powell-Sabin meshes the centroid values are superconvergent, which a
    full-quadrature norm of the piecewise-constant curl cannot see (it is
    bounded below by the piecewise-constant approximation error of the
    exact curl).
    """
    coords = mesh.vertices[mesh.triangles]
    nodal = x.reshape(-1, 3)[mesh.triangles]  # (m, 3, 3)
    c_h = np.einsum("ma,ma->m", _curl_coefs(mesh.tri_grads), _udofs(nodal))
    w2a = 2.0 * mesh.tri_area

    sq_u = sq_p = 0.0
    coords_nodal = np.concatenate([coords, nodal], axis=2)  # (m, 3, [x, y, ux, uy, p])
    for rule, tris in _rule_parts(mesh, case):
        mapped = _map_rule_points(rule, coords_nodal[tris])
        pts, u_h, p_h = mapped[..., :2], mapped[..., 2:4], mapped[..., 4]
        u_ex = case.exact_u(pts.reshape(-1, 2)).reshape(pts.shape)
        du = ((u_ex - u_h) ** 2).sum(axis=2)
        sq_u += np.einsum("m,q,mq->", w2a[tris], rule.weights, du)
        sq_p += np.einsum("m,q,mq->", w2a[tris], rule.weights, p_h**2)
    err_u, err_p = np.sqrt(sq_u), np.sqrt(sq_p)

    crule = triangle_rule(1)  # the centroid
    cpts = _map_rule_points(crule, coords)
    c_ex = case.exact_curl_u(cpts.reshape(-1, 2)).reshape(cpts.shape[:2])
    dc = (c_ex - c_h[:, None]) ** 2
    err_c = np.sqrt(np.einsum("m,q,mq->", w2a, crule.weights, dc))
    return ErrorReport(mesh.h, float(err_u), float(err_c), float(err_p), 3 * mesh.n_vertices)


def triple_norm(mesh: Mesh, x: np.ndarray, params: Params) -> float:
    """Mesh-dependent stability norm of a discrete pair [v, q], given as its
    full nodal coefficient vector `x`:

    nu ||c(v)||^2 + (nu/L0^2) ||v||^2 + (L0^2/nu) ||grad q||^2
      + nu sum_K (h_K^2/L0^2) ||div v||_K^2
      + sum_e (nu/h_e) ||t(v)||_e^2 + sum_e (L0^2/(nu h_e)) ||q||_e^2
    """
    area, h_k, grads = mesh.tri_area, mesh.tri_h, mesh.tri_grads
    nodal = x.reshape(-1, 3)[mesh.triangles]
    udofs = _udofs(nodal)

    curl = np.einsum("ma,ma->m", _curl_coefs(grads), udofs)
    div = np.einsum("ma,ma->m", _div_coefs(grads), udofs)
    gradq = np.einsum("mid,mi->md", grads, nodal[:, :, 2])

    nu, l0 = params.nu, params.L0
    total = nu * (area * curl**2).sum()
    total += nu * (h_k**2 / l0**2 * area * div**2).sum()
    total += (l0**2 / nu) * (area * (gradq**2).sum(axis=1)).sum()
    for comp in range(2):
        vals = nodal[:, :, comp]
        total += (nu / l0**2) * (area * np.einsum("mi,ij,mj->m", vals, _P1_MASS, vals)).sum()

    mass = _edge_mass(1.0)
    _, _, tvec, edge_u, edge_p, _, _ = _edge_frame(mesh)
    tvals = np.einsum("kd,kid->ki", tvec, x[edge_u].reshape(-1, 2, 2))  # t(v) at edge endpoints
    qvals = x[edge_p]
    eint_t = mesh.edge_length * np.einsum("ki,ij,kj->k", tvals, mass, tvals)
    eint_q = mesh.edge_length * np.einsum("ki,ij,kj->k", qvals, mass, qvals)
    total += (nu / mesh.edge_local_h * eint_t).sum()
    total += (l0**2 / (nu * mesh.edge_local_h) * eint_q).sum()
    return float(total)


def boundary_data_norm(mesh: Mesh, case: ProblemCase, params: Params) -> float:
    """||f||_L2 + sqrt(nu/h) ||t(ubar)||_L2(boundary), with f = nu * source_f,
    the data functional scale against which the solution's triple norm is
    compared.

    A `zero_source` case has ||f|| = 0 without quadrature; its flag is
    checked at the mesh vertices, and a nonzero `source_f` there raises
    ValueError."""
    if case.zero_source:
        if np.any(case.source_f(mesh.vertices)):
            raise ValueError("case flagged zero_source has a nonzero source_f")
        f_norm = 0.0
    else:
        rule = triangle_rule(6)
        pts = _map_rule_points(rule, mesh.vertices[mesh.triangles])
        f = params.nu * case.source_f(pts.reshape(-1, 2)).reshape(pts.shape)
        f_norm = np.sqrt(
            np.einsum("m,q,mq->", 2.0 * mesh.tri_area, rule.weights, (f**2).sum(axis=2))
        )

    _, weights, tu = _edge_trace(mesh, case)
    t_norm = np.sqrt((mesh.edge_length[:, None] * weights * tu**2).sum())
    return float(f_norm + np.sqrt(params.nu / mesh.h) * t_norm)


def convergence_rate(coarse: ErrorReport, fine: ErrorReport, field: str = "err_u") -> float:
    """log(e_coarse/e_fine) / log(h_coarse/h_fine) between two levels."""
    e_c, e_f = getattr(coarse, field), getattr(fine, field)
    if fine.h >= coarse.h:
        raise ValueError("fine level must have smaller h")
    if e_c <= 0.0 or e_f <= 0.0:
        raise ValueError("rates need strictly positive errors")
    return float(np.log(e_c / e_f) / np.log(coarse.h / fine.h))
