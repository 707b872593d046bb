"""Shared fixtures and independent oracles for the test suite.

The oracle helpers deliberately avoid the production code paths: P1 basis
functions are recovered by solving small Vandermonde systems and every
integral is evaluated by mapped quadrature on pointwise samples.
"""

import numpy as np
import pytest

from maxnit.mesh import MeshError, _edge_table, _tri_geometry
from maxnit.quadrature import edge_rule, triangle_rule


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# --- independent P1 basis -------------------------------------------------


def p1_coefficients(coords):
    """Columns i hold (a, b, c) with lambda_i = a + b x + c y."""
    coords = np.asarray(coords, dtype=float)
    vand = np.column_stack([np.ones(3), coords[:, 0], coords[:, 1]])
    return np.linalg.solve(vand, np.eye(3))


def p1_values(coords, pts):
    coef = p1_coefficients(coords)
    pts = np.atleast_2d(pts)
    return np.column_stack([np.ones(len(pts)), pts[:, 0], pts[:, 1]]) @ coef


def p1_gradients(coords):
    coef = p1_coefficients(coords)
    return coef[1:, :].T  # (3, 2)


def tri_area_of(coords):
    d1 = coords[1] - coords[0]
    d2 = coords[2] - coords[0]
    return 0.5 * (d1[0] * d2[1] - d1[1] * d2[0])


def map_tri_rule(coords, degree=6):
    """Physical quadrature points and weights on one triangle."""
    rule = triangle_rule(degree)
    pts = rule.points @ np.asarray(coords, dtype=float)
    w = rule.weights * 2.0 * tri_area_of(np.asarray(coords, dtype=float))
    return pts, w


# --- oracle local matrices -------------------------------------------------

# the six vector basis fields are ordered (lambda_0, 0), (0, lambda_0), ...


def _vec_basis_samples(coords, pts):
    lam = p1_values(coords, pts)  # (q, 3)
    q = len(pts)
    vals = np.zeros((q, 6, 2))
    for i in range(3):
        vals[:, 2 * i, 0] = lam[:, i]
        vals[:, 2 * i + 1, 1] = lam[:, i]
    return vals


def _vec_basis_curl(coords):
    g = p1_gradients(coords)
    curl = np.zeros(6)
    for i in range(3):
        curl[2 * i] = -g[i, 1]
        curl[2 * i + 1] = g[i, 0]
    return curl


def _vec_basis_div(coords):
    g = p1_gradients(coords)
    div = np.zeros(6)
    for i in range(3):
        div[2 * i] = g[i, 0]
        div[2 * i + 1] = g[i, 1]
    return div


def oracle_curl_curl(coords, nu):
    pts, w = map_tri_rule(coords)
    curl = _vec_basis_curl(coords)
    return nu * w.sum() * np.outer(curl, curl)


def oracle_mixed_grad(coords):
    pts, w = map_tri_rule(coords)
    vec = _vec_basis_samples(coords, pts)  # (q, 6, 2)
    grad = p1_gradients(coords)  # (3, 2)
    return np.einsum("q,qad,jd->aj", w, vec, grad)


def oracle_div_div(coords, params):
    pts, w = map_tri_rule(coords)
    div = _vec_basis_div(coords)
    coords = np.asarray(coords, dtype=float)
    h_k = max(
        np.linalg.norm(coords[1] - coords[0]),
        np.linalg.norm(coords[2] - coords[1]),
        np.linalg.norm(coords[0] - coords[2]),
    )
    scale = params.c_u * params.nu * h_k**2 / params.L0**2
    return scale * w.sum() * np.outer(div, div)


def oracle_pressure_laplacian(coords, params):
    pts, w = map_tri_rule(coords)
    grad = p1_gradients(coords)
    return -(params.L0**2 / params.nu) * w.sum() * (grad @ grad.T)


def oracle_edge_blocks(tri_coords, edge_local, normal, params):
    """Boundary blocks of one edge by mapped Gauss quadrature.

    tri_coords: (3, 2) adjacent triangle, CCW; edge_local: (i, j) local
    vertex indices of the edge so that the interior lies left of i->j.
    Returns blocks in the same (rows, cols) layouts as the production code:
    edge u-dofs are ordered (ux_i, uy_i, ux_j, uy_j).
    """
    tri_coords = np.asarray(tri_coords, dtype=float)
    i, j = edge_local
    p0, p1 = tri_coords[i], tri_coords[j]
    ell = np.linalg.norm(p1 - p0)
    h_k = max(
        np.linalg.norm(tri_coords[1] - tri_coords[0]),
        np.linalg.norm(tri_coords[2] - tri_coords[1]),
        np.linalg.norm(tri_coords[0] - tri_coords[2]),
    )
    rule = edge_rule(7)
    pts = p0[None, :] + rule.points[:, None] * (p1 - p0)[None, :]
    w = rule.weights * ell

    lam = p1_values(tri_coords, pts)  # (q, 3) all three tri functions on the edge
    grad = p1_gradients(tri_coords)
    curl = _vec_basis_curl(tri_coords)

    # traces of the two edge-vertex scalar functions, in edge-local order
    lam_e = lam[:, [i, j]]
    tvec = np.array([-normal[1], normal[0]])

    # t(v) coefficients for the 4 edge u-dofs, per quadrature point
    tv = np.einsum("qi,c->qic", lam_e, tvec).reshape(-1, 4)
    nv = np.einsum("qi,c->qic", lam_e, np.asarray(normal)).reshape(-1, 4)

    cons = -params.nu * np.einsum("q,qa,b->ab", w, tv, curl)  # (4 edge, 6 tri)
    nq = -np.einsum("q,qj,qa->ja", w, lam_e, nv)  # (2 edge p, 4 edge u)
    pen_u = params.N_u * params.nu / h_k * np.einsum("q,qa,qb->ab", w, tv, tv)
    pen_p = -params.N_p * params.L0**2 / (params.nu * h_k) * np.einsum(
        "q,qa,qb->ab", w, lam_e, lam_e
    )
    ndgrad = grad @ np.asarray(normal)
    pflux = (
        params.L0**2
        / params.nu
        * np.einsum("q,qj,a->ja", w, lam_e, ndgrad)  # (2 edge p, 3 tri p)
    )
    return {
        "consistency": cons,
        "normal_flux": nq,
        "penalty_u": pen_u,
        "penalty_p": pen_p,
        "p_flux": pflux,
    }


def random_ccw_triangle(rng, min_area=0.05):
    while True:
        coords = rng.uniform(-1.0, 1.0, size=(3, 2))
        a = tri_area_of(coords)
        if a < -min_area:
            coords = coords[[0, 2, 1]]
            a = -a
        if a > min_area:
            return coords


# --- mesh and field helpers -----------------------------------------------

_DOMAIN_AREAS = {"square": 4.0, "lshape": 3.0}
_AREA_TOL = 1e-10  # relative, of the summed triangle areas in `validate_mesh`


def validate_mesh(m) -> None:
    """Raise MeshError on any violated structural invariant. Unlike the
    oracles above, it recomputes the geometry and the edge table with the
    mesh module's own kernels, to catch a stored table gone stale."""
    if not np.all(np.isfinite(m.vertices)):
        raise MeshError("non-finite vertex coordinates")
    geometry = _tri_geometry(m.vertices[m.triangles])
    if not all(map(np.array_equal, geometry, (m.tri_area, m.tri_h, m.tri_grads))):
        raise MeshError("stored triangle geometry is stale")

    _, edges, _, sides = _edge_table(m.triangles)
    stored = np.unique(np.sort(m.edge_vertices, axis=1), axis=0)
    if not np.array_equal(edges[sides[:, 1] < 0], stored):
        raise MeshError("stored boundary edges disagree with connectivity")

    mids = 0.5 * (m.vertices[m.edge_vertices[:, 0]] + m.vertices[m.edge_vertices[:, 1]])
    centroids = m.vertices[m.triangles[m.edge_tri]].mean(axis=1)
    if np.any(((mids - centroids) * m.edge_normal).sum(axis=1) <= 0.0):
        raise MeshError("boundary normal points inward")
    if not np.allclose(np.linalg.norm(m.edge_normal, axis=1), 1.0, atol=1e-12):
        raise MeshError("boundary normal not unit length")

    expected = _DOMAIN_AREAS.get(m.domain)
    if expected is not None:
        total = m.tri_area.sum()
        if abs(total - expected) > _AREA_TOL * expected:
            raise MeshError(f"area {total} differs from domain area {expected}")


def mesh_stats(m) -> dict:
    """Basic size and quality report; min_angle is in degrees."""
    p = m.vertices[m.triangles]
    angles = []
    for i in range(3):
        u = p[:, (i + 1) % 3] - p[:, i]
        v = p[:, (i + 2) % 3] - p[:, i]
        cosang = (u * v).sum(axis=1) / (
            np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
        )
        angles.append(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))))
    return {
        "h": m.h,
        "n_vertices": m.n_vertices,
        "n_triangles": m.n_triangles,
        "n_boundary_edges": m.n_boundary_edges,
        "min_area": float(m.tri_area.min()),
        "min_angle": float(np.min(angles)),
    }


def all_boundary(edges) -> np.ndarray:
    """Tags every boundary edge "boundary": the tagger of `mesh._build` for
    a mesh with no named segments."""
    return np.full(len(edges), "boundary")


def boundary_mask(mesh) -> np.ndarray:
    """(n,) bool: True at the vertices of the boundary edges."""
    mask = np.zeros(mesh.n_vertices, dtype=bool)
    mask[mesh.edge_vertices] = True
    return mask


def nodal_interpolant(mesh, case) -> np.ndarray:
    """Interleaved (u_x, u_y, p) coefficients of the vertex interpolant of
    the exact solution, with p = 0."""
    u = case.exact_u(mesh.vertices)
    out = np.zeros(3 * mesh.n_vertices)
    out[0::3] = u[:, 0]
    out[1::3] = u[:, 1]
    return out
