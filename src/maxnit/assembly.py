"""Element and boundary-edge matrices, global assembly, strong constraints.

Unknowns are nodal and interleaved per vertex as (u_x, u_y, p). The three
formulations share the volume blocks

    curl-curl        nu (c(u), c(v))          c(v) = d1 v2 - d2 v1
    mixed gradient   (grad p, v) + (grad q, u)
    div-div          c_u nu h_K^2 / L0^2 (div u, div v)      [stabilised]
    p-laplacian      -(L0^2/nu) (grad p, grad q)             [stabilised]

and the weak formulations add the boundary terms

    -nu <t(v), c(u)> - nu <t(u), c(v)>        t(v) = n1 v2 - n2 v1
    -<n.u, q> - <n.v, p>
    +N_u (nu/h) <t(v), t(u)>  -  N_p (L0^2/(nu h)) <p, q>
    +(L0^2/nu) [<n.grad p, q> + <p, n.grad q>]   [stabilised]

with h the diameter of the edge's adjacent element. The right-hand side is

    (f, v) - nu <t(ubar), c(v)> + N_u (nu/h) <t(v), t(ubar)>.
"""

from __future__ import annotations

import math
import numbers
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh, MeshError
from .problems import ProblemCase
from .quadrature import edge_rule, triangle_rule

__all__ = [
    "FORMULATIONS",
    "CORNER_STRATEGIES",
    "ConfigError",
    "Params",
    "LinearSystem",
    "assemble_rhs",
    "assemble_global",
    "apply_strong_bc",
]

FORMULATIONS = ("galerkin-nitsche", "stabilised-nitsche", "stabilised-strong")
CORNER_STRATEGIES = ("both-zero", "free", "bisector-normal")

# quadrature for data-dependent right-hand-side terms; bilinear terms are
# polynomial and integrated exactly by construction. The source rule is the
# 25-point collapsed Gauss product.
RHS_TRI_DEGREE = 8
RHS_EDGE_DEGREE = 11

# triangles per block of the rule-point kernel and the source quadrature
_BLOCK = 2048

_PENALTY_WARN_THRESHOLD = 4.0  # ~4 * (unit trace-constant estimate)^2

_EDGE_MASS = np.array([[2.0, 1.0], [1.0, 2.0]])


class ConfigError(ValueError):
    """An invalid study request: parameters, case, mesh rule or output."""


@dataclass(frozen=True)
class Params:
    """The constants and the formulation: every setting of the assembled matrix."""

    nu: float = 1.0
    L0: float = 1.0
    c_u: float = 1.0
    N_u: float = 100.0
    N_p: float = 100.0
    formulation: str = "stabilised-nitsche"

    def __post_init__(self):
        for name in ("nu", "L0", "c_u", "N_u", "N_p"):
            value = getattr(self, name)
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not real or not abs(value) <= sys.float_info.max:  # nan, inf, a huge int
                raise ConfigError(f"{name} must be a finite real number")
        for name in ("nu", "L0", "c_u"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be positive")
        if self.N_u < 0.0 or self.N_p < 0.0:
            raise ConfigError("penalty constants must be non-negative")
        # the forms' scales, by `*` and `/`: inf or 0 where `**` would raise
        l0_sq = self.L0 * self.L0
        scales = (self.c_u * self.nu / self.L0 / self.L0, l0_sq / self.nu)
        penalties = (self.N_u * self.nu, self.N_p * l0_sq / self.nu)
        if not all(map(math.isfinite, scales + penalties)) or 0.0 in scales:
            raise ConfigError(f"the scales c_u nu/L0^2, L0^2/nu = {scales} must be finite and "
                              f"nonzero, and N_u nu, N_p L0^2/nu = {penalties} finite")
        if self.formulation not in FORMULATIONS:
            raise ConfigError(f"unknown formulation {self.formulation!r}")
        if self.formulation != "stabilised-strong" and (
            self.N_u < _PENALTY_WARN_THRESHOLD or self.N_p < _PENALTY_WARN_THRESHOLD
        ):
            warnings.warn(
                "penalty constants below the stability threshold estimate; "
                "the discrete problem may be unstable",
                stacklevel=3,  # past the dataclass's generated __init__
            )


def _dofs(vertices) -> np.ndarray:
    """The interleaved unknowns (u_x, u_y, p) of each vertex, (..., 3)."""
    return 3 * np.asarray(vertices)[..., None] + np.arange(3)


@dataclass
class LinearSystem:
    """Sparse system whose CSR `matrix` equals its transpose, as the solver
    checks; strong constraints are the affine map full = transform @ reduced
    + offset. `corner` lists, in ascending order, the unknowns at re-entrant
    corners that the corner strategy kept (none if weak or both-zero)."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    transform: sp.csr_matrix | None = None
    offset: np.ndarray | None = None
    corner: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))

    @property
    def n_unknowns(self) -> int:
        return self.matrix.shape[0]


def _curl_coefs(grads: np.ndarray) -> np.ndarray:
    """Element curl of the six nodal vector basis fields, (m, 6): the rotated
    gradients, -d2 lambda_i for (lambda_i, 0), d1 lambda_i for (0, lambda_i)."""
    return np.stack([-grads[:, :, 1], grads[:, :, 0]], axis=2).reshape(-1, 6)


def _div_coefs(grads: np.ndarray) -> np.ndarray:
    """Element divergence of the six nodal vector basis fields, (m, 6): the
    interleaved gradients, d1 lambda_i for (lambda_i, 0), d2 lambda_i for (0, lambda_i)."""
    return grads.reshape(-1, 6)


def _batch_curl_curl(area, grads, nu):
    c = _curl_coefs(grads)
    return nu * area[:, None, None] * c[:, :, None] * c[:, None, :]


def _batch_div_div(area, h_k, grads, params):
    d = _div_coefs(grads)
    scale = params.c_u * params.nu / params.L0**2 * h_k**2 * area
    return scale[:, None, None] * d[:, :, None] * d[:, None, :]


def _batch_mixed_grad(area, grads):
    # entry[a=2i+c, j] = (area/3) * d_c psi_j, independent of the vertex i
    base = grads.transpose(0, 2, 1) * (area[:, None, None] / 3.0)
    return base[:, [0, 1, 0, 1, 0, 1], :]


def _batch_pressure_laplacian(area, grads, params):
    scale = -(params.L0**2 / params.nu) * area
    return scale[:, None, None] * np.einsum("mid,mjd->mij", grads, grads)


def _edge_mass(length) -> np.ndarray:
    """P1 x P1 mass matrix of an edge, (..., 2, 2) for a length array."""
    return (np.asarray(length, dtype=float) / 6.0)[..., None, None] * _EDGE_MASS


def _edge_frame(mesh: Mesh):
    """Per boundary edge: the owner triangle's P1 gradients (k, 3, 2) and
    element curl coefficients (k, 6), the tangent t = (-n2, n1) (k, 2), the
    edge dofs (ux0, uy0, ux1, uy1) and (p0, p1), and the owner triangle's
    u dofs (k, 6) and p dofs (k, 3)."""
    edge, tri = _dofs(mesh.edge_vertices), _dofs(mesh.triangles[mesh.edge_tri])
    grads = mesh.tri_grads[mesh.edge_tri]
    n = mesh.edge_normal
    return (
        grads,
        _curl_coefs(grads),
        np.column_stack([-n[:, 1], n[:, 0]]),
        edge[..., :2].reshape(-1, 4),
        edge[..., 2],
        tri[..., :2].reshape(-1, 6),
        tri[..., 2],
    )


def _edge_blocks(mesh: Mesh, params: Params):
    """Boundary blocks of every edge as (rows (k, r), cols (k, c), values
    (k, r, c)) triples, in the order consistency, its transpose, normal
    flux, its transpose, u penalty, p penalty, and for the stabilised form
    the pressure flux and its transpose."""
    grads, curl6, tvec, edge_u, edge_p, tri_u, tri_p = _edge_frame(mesh)
    n = mesh.edge_normal
    ell = mesh.edge_length
    lh = mesh.edge_local_h
    mass = _edge_mass(ell)

    t4 = np.tile(tvec, 2)  # coefficient of t(v) per edge dof ux0, uy0, ux1, uy1
    cons = (-params.nu * (ell / 2.0))[:, None, None] * (t4[:, :, None] * curl6[:, None, :])
    # <n.u, q>: P1 x P1 edge mass composed with the normal
    nq = -(mass[:, :, :, None] * n[:, None, None, :]).reshape(-1, 2, 4)
    tt = tvec[:, :, None] * tvec[:, None, :]
    pen_u = (params.N_u * params.nu / lh)[:, None, None] * (
        mass[:, :, None, :, None] * tt[:, None, :, None, :]
    ).reshape(-1, 4, 4)
    pen_p = (-params.N_p * params.L0**2 / (params.nu * lh))[:, None, None] * mass

    blocks = [
        (edge_u, tri_u, cons),
        (tri_u, edge_u, cons.transpose(0, 2, 1)),
        (edge_p, edge_u, nq),
        (edge_u, edge_p, nq.transpose(0, 2, 1)),
        (edge_u, edge_u, pen_u),
        (edge_p, edge_p, pen_p),
    ]
    if params.formulation == "stabilised-nitsche":
        # n . grad psi_a, element constant; a batched matmul rounds like the
        # per-edge `grads[e] @ n[e]`, an einsum would not
        ndgrad = (grads @ n[:, :, None])[:, :, 0]
        scale = params.L0**2 / params.nu * (ell / 2.0)
        pflux = (scale[:, None] * ndgrad)[:, None, :].repeat(2, axis=1)
        blocks += [(edge_p, tri_p, pflux), (tri_p, edge_p, pflux.transpose(0, 2, 1))]
    return blocks


def _map_rule_points(rule, nodal: np.ndarray) -> np.ndarray:
    """P1 data at the rule points of every triangle: nodal values (m, 3, d)
    to a C-contiguous (m, q, d), e.g. vertex coordinates to physical points.

    Works in blocks of `_BLOCK` triangles with the triangle index innermost,
    several times faster than one einsum over (m, 3, d). Each value is the
    same k-ordered sum of products as `einsum("qk,mkd->mqd")`, bit for bit;
    `P @ nodal` and `tensordot` round differently (fused multiply-add).
    """
    m, _, d = nodal.shape
    out = np.empty((m, len(rule.points), d))
    for s in range(0, m, _BLOCK):
        block = np.ascontiguousarray(nodal[s : s + _BLOCK].transpose(1, 2, 0))
        out[s : s + _BLOCK] = np.einsum("qk,kdm->qdm", rule.points, block).transpose(2, 0, 1)
    return out


def _edge_trace(mesh: Mesh, case: ProblemCase):
    """Points t on [0, 1] and weights of the boundary-data edge rule, and the
    tangential trace t(ubar) = n1 ubar2 - n2 ubar1 at the rule points of
    every boundary edge, (k, q)."""
    rule = edge_rule(RHS_EDGE_DEGREE)
    p0 = mesh.vertices[mesh.edge_vertices[:, 0]]
    p1 = mesh.vertices[mesh.edge_vertices[:, 1]]
    epts = p0[:, None, :] + rule.points[None, :, None] * (p1 - p0)[:, None, :]
    ubar = case.dirichlet_u(epts.reshape(-1, 2)).reshape(epts.shape)
    n = mesh.edge_normal[:, None, :]
    return rule.points, rule.weights, n[..., 0] * ubar[..., 1] - n[..., 1] * ubar[..., 0]


def assemble_rhs(mesh: Mesh, case: ProblemCase, params: Params) -> np.ndarray:
    if case.domain != mesh.domain:
        raise ValueError(f"case domain {case.domain!r} != mesh domain {mesh.domain!r}")
    n_dofs = 3 * mesh.n_vertices
    parts = []  # (dof indices, values), summed in this order

    if not case.zero_source:
        # (f, phi_a) with f = nu * source_f and phi the nodal hat functions,
        # both components, one block of triangles at a time to cap the temporaries
        rule = triangle_rule(RHS_TRI_DEGREE)
        # w_q * phi_i(x_q): barycentric values are the P1 values
        wlam = rule.weights[:, None] * rule.points
        coords = mesh.vertices[mesh.triangles]
        area = mesh.tri_area
        contrib = np.empty((mesh.n_triangles, 3, 2))
        for s in range(0, mesh.n_triangles, _BLOCK):
            block = slice(s, s + _BLOCK)
            pts = _map_rule_points(rule, coords[block])
            fvals = params.nu * case.source_f(pts.reshape(-1, 2)).reshape(pts.shape)
            contrib[block] = 2.0 * area[block, None, None] * np.einsum("qi,mqd->mid", wlam, fvals)
        # per vertex slot i: the u_x entries of all triangles, then the u_y ones
        slots = _dofs(mesh.triangles.T)[..., :2].transpose(0, 2, 1)  # (3, 2, m)
        parts.append((slots, contrib.transpose(1, 2, 0)))

    if params.formulation != "stabilised-strong":
        t, ew, tu = _edge_trace(mesh, case)
        _, curl6, tvec, edge_u, _, tri_u, _ = _edge_frame(mesh)
        # -nu <t(ubar), c(v)>: element-constant curl, so one moment per edge
        moment0 = mesh.edge_length * (tu @ ew)
        parts.append((tri_u, -params.nu * moment0[:, None] * curl6))
        # +N_u (nu/h) <t(v), t(ubar)> over the two edge hat functions
        lam_edge = np.column_stack([1.0 - t, t])  # (q, 2)
        moment1 = mesh.edge_length[:, None] * np.einsum("q,qi,kq->ki", ew, lam_edge, tu)
        scale = params.N_u * params.nu / mesh.edge_local_h
        parts.append((edge_u, scale[:, None, None] * moment1[:, :, None] * tvec[:, None, :]))

    if not parts:
        return np.zeros(n_dofs)
    return np.bincount(
        np.concatenate([i.ravel() for i, _ in parts]),
        weights=np.concatenate([v.ravel() for _, v in parts]),
        minlength=n_dofs,
    )


def _triplets(groups, n_dofs):
    """(values, (rows, cols)) of the entries of `groups`, filled into one
    preallocated array each. A group is a list of blocks (rows (m, r), cols
    (m, c), values (m, r, c)) over the same m elements; its entries run
    element by element, each element's blocks in turn, row-major."""
    sizes = [[r.shape[1] * c.shape[1] for r, c, _ in group] for group in groups]
    total = sum(len(group[0][0]) * sum(size) for group, size in zip(groups, sizes))
    index = np.int32 if n_dofs <= np.iinfo(np.int32).max else np.int64
    rows, cols, vals = np.empty(total, index), np.empty(total, index), np.empty(total)
    start = 0
    for group, size in zip(groups, sizes):
        m, width = len(group[0][0]), sum(size)
        views = [a[start : start + m * width].reshape(m, width) for a in (rows, cols, vals)]
        at = 0
        for (r, c, v), k in zip(group, size):
            # views of the block's columns, split into (m, r, c)
            vr, vc, vv = (x[:, at : at + k].reshape(len(r), r.shape[1], -1) for x in views)
            vr[...], vc[...], vv[...] = r[:, :, None], c[:, None, :], v
            at += k
        start += m * width
    return vals, (rows, cols)


def _symmetrise(a) -> sp.csr_matrix:
    """(a + a^T) / 2 in CSR form, exactly symmetric; `a` is a sparse matrix
    that is symmetric up to rounding."""
    a = a.tocsr()
    a = a + a.T
    a.data *= 0.5
    return a


def _scatter(groups, n_dofs) -> sp.csr_matrix:
    """Sum of the element blocks of `groups` (see `_triplets`), made exactly
    symmetric."""
    return _symmetrise(sp.coo_matrix(_triplets(groups, n_dofs), shape=(n_dofs, n_dofs)))


def _assemble_matrix(mesh: Mesh, params: Params) -> sp.csr_matrix:
    area, h_k, grads = mesh.tri_area, mesh.tri_h, mesh.tri_grads
    dofs = _dofs(mesh.triangles)
    u_idx, p_idx = dofs[..., :2].reshape(-1, 6), dofs[..., 2]

    stabilised = params.formulation in ("stabilised-nitsche", "stabilised-strong")

    uu = _batch_curl_curl(area, grads, params.nu)
    if stabilised:
        uu = uu + _batch_div_div(area, h_k, grads, params)
    up = _batch_mixed_grad(area, grads)

    groups = [
        [(u_idx, u_idx, uu)],
        [(u_idx, p_idx, up)],
        [(p_idx, u_idx, up.transpose(0, 2, 1))],
    ]
    if stabilised:
        groups.append([(p_idx, p_idx, _batch_pressure_laplacian(area, grads, params))])
    if params.formulation != "stabilised-strong":
        # edge-major: every block of one edge before the next edge's
        groups.append(_edge_blocks(mesh, params))
    return _scatter(groups, 3 * mesh.n_vertices)


def assemble_global(mesh: Mesh, params: Params, case: ProblemCase) -> LinearSystem:
    """Full sparse system for the selected formulation. The element blocks
    are freed before the right-hand side is assembled."""
    matrix = _assemble_matrix(mesh, params)
    rhs = assemble_rhs(mesh, case, params)
    return LinearSystem(matrix, rhs)


def _boundary_vertex_info(mesh: Mesh):
    """Boundary vertices in ascending order with their incoming and outgoing
    boundary edge. Edges follow the CCW boundary orientation, so corner
    convexity can be read off the turn direction."""
    v0, v1 = mesh.edge_vertices.T
    e_in, e_out = np.argsort(v1), np.argsort(v0)
    head, tail = v1[e_in], v0[e_out]
    if np.any(head[1:] == head[:-1]) or np.any(tail[1:] == tail[:-1]):
        raise MeshError("boundary vertex with other than two incident segments")
    if not np.array_equal(head, tail):
        raise MeshError("boundary is not a union of closed loops")
    return head, e_in, e_out


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (m, 2) arrays. A batched matmul rounds
    like the 1-D `a[i] @ b[i]`; a sum of products may differ in the last bit."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def apply_strong_bc(
    system: LinearSystem, mesh: Mesh, case: ProblemCase, corner_strategy: str
) -> LinearSystem:
    """Eliminate boundary conditions symmetrically.

    On every boundary vertex p is set to zero. At vertices interior to a
    straight segment the (u_x, u_y) pair is rotated to normal/tangential
    coordinates and the tangential value is prescribed. Convex corners get
    both components prescribed from the boundary data, which is consistent
    there; the requested strategy is applied at re-entrant corners, where
    the nodal tangent is genuinely ambiguous.

    Reduced unknowns are numbered in vertex order: three per interior vertex
    (u_x, u_y, p), one per tangentially constrained vertex (the normal
    component), two for a free corner (u_x, u_y), none for a fixed one.
    The re-entrant-corner unknowns are recorded as `corner`; removing them
    leaves the both-zero system. A mesh on which every dof is prescribed
    (all vertices on the boundary and fixed) raises MeshError.
    """
    if corner_strategy not in CORNER_STRATEGIES:
        raise ValueError(f"unknown corner strategy {corner_strategy!r}")
    n_full = system.matrix.shape[0]
    vb, e_in, e_out = _boundary_vertex_info(mesh)
    n_a, n_b = mesh.edge_normal[e_in], mesh.edge_normal[e_out]
    turn = n_a[:, 0] * n_b[:, 1] - n_a[:, 1] * n_b[:, 0]  # sign of the CCW boundary turn
    colinear = (np.abs(turn) < 1e-12) & (_rowdot(n_a, n_b) > 0.0)
    # equal tags: interior vertex of a polygonally approximated curved
    # segment, treated like a straight vertex with the averaged normal
    averaged = ~colinear & (mesh.edge_tag[e_in] == mesh.edge_tag[e_out])
    # a convex corner has both tangents prescribed, so both components
    # are fixed by the data; the strategy decides at re-entrant corners
    reentrant = ~colinear & ~averaged & ~(turn > 0.0)
    averaged |= reentrant & (corner_strategy == "bisector-normal")
    free = reentrant & (corner_strategy == "free")
    tangential = colinear | averaged

    normal = n_a.copy()
    s = n_a[averaged] + n_b[averaged]
    normal[averaged] = s / np.sqrt(_rowdot(s, s))[:, None]
    tau = np.column_stack([-normal[:, 1], normal[:, 0]])
    ubar = case.dirichlet_u(mesh.vertices[vb])
    # an unbounded (NaN) re-entrant-corner value is pinned to zero; a NaN
    # anywhere else reaches the solve's non-finite check
    ubar = np.where(reentrant[:, None] & np.isnan(ubar), 0.0, ubar)
    prescribed = np.where(tangential[:, None], _rowdot(tau, ubar)[:, None] * tau, ubar)
    offset = np.zeros(n_full)  # p = 0 on the whole boundary
    offset.reshape(-1, 3)[vb, :2] = np.where(free[:, None], 0.0, prescribed)

    n_cols = np.full(mesh.n_vertices, 3)
    n_cols[vb] = np.select([tangential, free], [1, 2], 0)
    if not n_cols.any():
        raise MeshError("the strong boundary conditions leave no unknown")
    cols = (np.cumsum(n_cols) - n_cols)[:, None] + np.arange(3)
    vals = np.ones(cols.shape)
    vt = vb[tangential]
    cols[vt, 1] = cols[vt, 0]  # u_x and u_y both feed the normal-component column
    vals[vt, :2] = normal[tangential]
    # dofs with a column: all three of an interior vertex, u_x and u_y of a
    # tangential or free one
    mapped = np.arange(3) < np.where(n_cols == 1, 2, n_cols)[:, None]
    transform = sp.coo_matrix(
        (vals[mapped], (np.flatnonzero(mapped), cols[mapped])),
        shape=(n_full, int(n_cols.sum())),
    ).tocsr()
    reduced = _symmetrise(transform.T @ system.matrix @ transform)
    rhs = transform.T @ (system.rhs - system.matrix @ offset)
    vr = vb[reentrant]
    corner = cols[vr][np.arange(3) < n_cols[vr][:, None]]
    return LinearSystem(reduced, rhs, transform=transform, offset=offset, corner=corner)
