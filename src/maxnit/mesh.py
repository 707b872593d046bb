"""Triangulations of the square, L-shaped and curved-L domains.

All meshes are stored as flat numpy arrays: vertex coordinates, CCW
triangle connectivity, the element geometry every assembly and norm reads
(area, diameter, P1 gradients; computed once, at build), and an explicit
boundary-edge table carrying outward normals, the adjacent element, the
element diameter used as the local boundary length scale, and a segment
tag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Mesh",
    "MeshError",
    "gen_square_uniform",
    "gen_square_crisscross",
    "gen_lshape",
    "gen_lshape_uniform",
    "powell_sabin_refine",
    "map_to_curved_l",
]


class MeshError(RuntimeError):
    pass


@dataclass(frozen=True)
class Mesh:
    """Immutable triangulation with precomputed geometry.

    Boundary edges are oriented so the interior lies to the left of the
    (v0, v1) direction; `edge_local_h` is the diameter of the adjacent
    triangle, the length scale entering boundary penalty weights.
    """

    vertices: np.ndarray        # (n, 2)
    triangles: np.ndarray       # (m, 3) CCW vertex ids
    domain: str
    tri_area: np.ndarray        # (m,)
    tri_h: np.ndarray           # (m,) diameters (longest edge)
    tri_grads: np.ndarray       # (m, 3, 2) P1 basis gradients
    edge_vertices: np.ndarray   # (k, 2)
    edge_tri: np.ndarray        # (k,) adjacent triangle id
    edge_normal: np.ndarray     # (k, 2) outward unit normal
    edge_length: np.ndarray     # (k,)
    edge_local_h: np.ndarray    # (k,)
    edge_tag: np.ndarray        # (k,) segment names

    @property
    def h(self) -> float:
        return float(self.tri_h.max())

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def n_boundary_edges(self) -> int:
        return self.edge_vertices.shape[0]


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]


def _tri_geometry(coords: np.ndarray):
    """Areas, diameters and P1 gradients for a (m, 3, 2) coordinate batch.

    Raises MeshError on a triangle with non-positive signed area, then on
    one whose area is below the degeneracy floor 1e-14 h_K^2.
    """
    d1 = coords[:, 1] - coords[:, 0]
    d2 = coords[:, 2] - coords[:, 0]
    area = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    if np.any(area <= 0.0):
        raise MeshError("triangle with non-positive signed area")
    edges = np.stack(
        [coords[:, 2] - coords[:, 1], coords[:, 0] - coords[:, 2], d1], axis=1
    )
    h_k = np.sqrt((edges**2).sum(axis=2)).max(axis=1)
    if np.any(area < 1e-14 * h_k**2):
        raise MeshError("triangle area below the degeneracy floor")
    grads = np.empty((len(coords), 3, 2))
    # grad lambda_i = (y_j - y_k, x_k - x_j) / (2A), cyclic
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        grads[:, i, 0] = coords[:, j, 1] - coords[:, k, 1]
        grads[:, i, 1] = coords[:, k, 0] - coords[:, j, 0]
    grads /= 2.0 * area[:, None, None]
    return area, h_k, grads


def _edge_table(triangles: np.ndarray):
    """Unique undirected edges of a triangulation, in lexicographic order.

    Half-edge r = k*m + t of an m-triangle mesh runs from local vertex k to
    k+1 (mod 3) of triangle t. Returns the (3m, 2) half-edges, the (n_e, 2)
    sorted vertex pairs of the edges, the edge of every half-edge (3m,), and
    the first and second half-edge of every edge (n_e, 2), the second being
    -1 on the boundary.
    """
    half = np.concatenate(
        [triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]]
    )
    # one integer key per vertex pair sorts like the pair (low id first)
    n = int(triangles.max()) + 1
    key = half.min(axis=1) * n + half.max(axis=1)
    by_key = np.argsort(key, kind="stable")
    key = key[by_key]
    starts = np.concatenate([[True], key[1:] != key[:-1]])
    first = np.flatnonzero(starts)
    count = np.diff(np.append(first, len(key)))
    if count.max() > 2:
        raise MeshError("non-manifold edge: shared by more than two triangles")
    edges = np.column_stack(np.divmod(key[first], n))
    edge_of = np.empty(len(key), dtype=np.int64)
    edge_of[by_key] = np.cumsum(starts) - 1
    sides = np.full((len(edges), 2), -1, dtype=np.int64)
    sides[:, 0] = by_key[first]
    shared = count == 2
    sides[shared, 1] = by_key[first[shared] + 1]
    return half, edges, edge_of, sides


def _build(vertices, triangles, domain, tag_edges) -> Mesh:
    """Assemble the derived geometry; `tag_edges` maps the (k, 2) directed
    boundary edges to a (k,) string array of their segment names."""
    vertices = np.ascontiguousarray(vertices, dtype=float)
    triangles = np.ascontiguousarray(triangles, dtype=np.int64)
    areas, h_k, grads = _tri_geometry(vertices[triangles])

    # each boundary edge keeps the orientation of its one CCW triangle
    half, _, _, sides = _edge_table(triangles)
    lone = sides[sides[:, 1] < 0, 0]
    bedges, owners = half[lone], lone % len(triangles)
    tangents = vertices[bedges[:, 1]] - vertices[bedges[:, 0]]
    lengths = np.sqrt((tangents**2).sum(axis=1))
    # interior is left of the directed edge, so the outward normal is its
    # clockwise rotation
    normals = np.column_stack([tangents[:, 1], -tangents[:, 0]]) / lengths[:, None]

    return Mesh(
        vertices=vertices,
        triangles=triangles,
        domain=domain,
        tri_area=areas,
        tri_h=h_k,
        tri_grads=grads,
        edge_vertices=bedges,
        edge_tri=owners,
        edge_normal=normals,
        edge_length=lengths,
        edge_local_h=h_k[owners],
        edge_tag=tag_edges(bedges),
    )


# straight boundary segments as (name, axis, coordinate), first match wins
_SEGMENTS = {
    "square": [("left", 0, -1.0), ("right", 0, 1.0), ("bottom", 1, -1.0), ("top", 1, 1.0)],
    "lshape": [
        ("left", 0, -1.0), ("top", 1, 1.0), ("right", 0, 1.0), ("bottom", 1, -1.0),
        ("leg-x", 1, 0.0), ("leg-y", 0, 0.0),
    ],
}


def _segment_tags(vertices, edges, domain) -> np.ndarray:
    """Name of the straight segment holding each edge midpoint."""
    mids = 0.5 * (vertices[edges[:, 0]] + vertices[edges[:, 1]])
    names, axes, values = zip(*_SEGMENTS[domain])
    on = np.abs(mids[:, axes] - np.array(values)) < 1e-12
    if not on.any(axis=1).all():
        raise MeshError("boundary edge midpoint not on a known segment")
    return np.array(names)[on.argmax(axis=1)]


def _grid_mesh(n: int, domain: str, split: str) -> Mesh:
    """n x n cells on [-1,1]^2 (minus [0,1]x[-1,0] for "lshape"), each cell
    cut along its (v00, v11) diagonal ("diagonal") or by both diagonals
    through an added centre vertex ("crisscross"). Cells, and the triangles
    within a cell, are numbered row-major in (i, j); vertex ids follow grid
    order with unused grid vertices dropped, then the centres."""
    if domain == "lshape" and (n < 2 or n % 2 != 0):
        raise ValueError("n_cells must be even and >= 2 for the L-shaped domain")
    if n < 1:
        raise ValueError("n_cells must be >= 1")
    coords = np.linspace(-1.0, 1.0, n + 1)
    xx, yy = np.meshgrid(coords, coords, indexing="ij")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])
    i, j = np.divmod(np.arange(n * n), n)
    if domain == "lshape":
        keep = ~((i >= n // 2) & (j < n // 2))
        i, j = i[keep], j[keep]
    v00 = i * (n + 1) + j
    v10, v01 = v00 + n + 1, v00 + 1
    v11 = v10 + 1
    if split == "diagonal":
        pattern = [(v00, v10, v11), (v00, v11, v01)]
    else:
        mids = 0.5 * (coords[:-1] + coords[1:])
        ctr = len(vertices) + np.arange(len(i))
        vertices = np.concatenate([vertices, np.column_stack([mids[i], mids[j]])])
        pattern = [(v00, v10, ctr), (v10, v11, ctr), (v11, v01, ctr), (v01, v00, ctr)]
    tris = np.stack([np.column_stack(t) for t in pattern], axis=1).reshape(-1, 3)

    used = np.zeros(len(vertices), dtype=bool)
    used[tris] = True
    new_id = np.cumsum(used) - 1
    vertices = vertices[used]
    return _build(
        vertices, new_id[tris], domain,
        tag_edges=lambda edges: _segment_tags(vertices, edges, domain),
    )


def gen_square_uniform(n_cells: int) -> Mesh:
    """n x n grid on (-1,1)^2, every cell split along the same diagonal."""
    return _grid_mesh(n_cells, "square", "diagonal")


def gen_square_crisscross(n_cells: int) -> Mesh:
    """n x n grid on (-1,1)^2, every cell split by both diagonals."""
    return _grid_mesh(n_cells, "square", "crisscross")


def gen_lshape(n_cells: int) -> Mesh:
    """Criss-cross mesh of [-1,1]^2 minus [0,1]x[-1,0]; the origin is a vertex."""
    return _grid_mesh(n_cells, "lshape", "crisscross")


def gen_lshape_uniform(n_cells: int) -> Mesh:
    """Same-diagonal right-angled mesh of the L-domain (Powell-Sabin base)."""
    return _grid_mesh(n_cells, "lshape", "diagonal")


def _incenters(vertices, triangles):
    p = vertices[triangles]
    a = np.linalg.norm(p[:, 1] - p[:, 2], axis=1)  # opposite vertex 0
    b = np.linalg.norm(p[:, 2] - p[:, 0], axis=1)
    c = np.linalg.norm(p[:, 0] - p[:, 1], axis=1)
    w = np.stack([a, b, c], axis=1)
    return (w[:, :, None] * p).sum(axis=1) / w.sum(axis=1)[:, None]


def powell_sabin_refine(m: Mesh) -> Mesh:
    """Six-way split: incenter interior point, incenter-line edge splits,
    boundary-edge midpoints."""
    verts = m.vertices
    tris = m.triangles
    n_v, n_t = len(verts), len(tris)
    centers = _incenters(verts, tris)
    _, edges, edge_of, sides = _edge_table(tris)

    # boundary edges split at their midpoint, interior ones where the
    # segment between the two adjacent incenters crosses them
    p0, p1 = verts[edges[:, 0]], verts[edges[:, 1]]
    splits = 0.5 * (p0 + p1)
    interior = sides[:, 1] >= 0
    z1, z2 = centers[sides[interior] % n_t].transpose(1, 0, 2)
    a = p0[interior]
    e01 = p1[interior] - a
    dz = z2 - z1
    t = _cross(z1 - a, dz) / _cross(e01, dz)
    if np.any(t <= 1e-9) or np.any(t >= 1.0 - 1e-9):
        raise MeshError("incenter segment misses the open edge; mesh too distorted")
    splits[interior] = a + t[:, None] * e01

    new_verts = np.concatenate([verts, centers, splits])
    split_id = n_v + n_t + edge_of.reshape(3, n_t).T  # per local edge (k, k+1)
    center_id = np.repeat(n_v + np.arange(n_t)[:, None], 3, axis=1)
    first = np.stack([tris, split_id, center_id], axis=-1)
    second = np.stack([split_id, np.roll(tris, -1, axis=1), center_id], axis=-1)
    children = np.stack([first, second], axis=2).reshape(-1, 3)

    # a child boundary edge holds one split vertex of a parent boundary edge,
    # whose tag it inherits; parent boundary edges are in edge-table order
    parent_edge = np.full(len(new_verts), -1)
    parent_edge[n_v + n_t + np.flatnonzero(~interior)] = np.arange(m.n_boundary_edges)

    def inherit(bedges):
        parent = parent_edge[bedges].max(axis=1)
        if np.any(parent < 0):
            raise MeshError("refined boundary edge without a split vertex")
        return m.edge_tag[parent]

    return _build(new_verts, children, m.domain, tag_edges=inherit)


_ARC_CENTER = np.array([1.0, -1.0])
_ARC_RADIUS = 2.0


def _blend_toward_arc(points: np.ndarray) -> np.ndarray:
    """Radial compression about the arc centre taking the corner path
    x=-1 / y=1 onto the arc while keeping the inner boundary fixed.

    Along the ray at angle phi from the centre, positions between the
    re-entrant legs (distance a) and the corner path (distance R) are mapped
    linearly onto [a, 2]; everything closer than the legs stays put. The rays
    through the fixed outer segments x=1 and y=-1 have R = 2, so the map is
    the identity there and the whole boundary behaves as required.
    """
    rel = points - _ARC_CENTER
    dist = np.linalg.norm(rel, axis=1)
    phi = np.arctan2(rel[:, 1], rel[:, 0])
    span = np.maximum(np.sin(phi), np.abs(np.cos(phi)))
    # freeze the disc reaching the re-entrant corner so the singular
    # neighbourhood is untouched; sqrt(2) = |corner - centre|
    inner = np.maximum(1.0 / span, np.sqrt(2.0))
    far = 2.0 / span
    scale = np.ones_like(dist)
    move = dist > inner
    scale[move] = (
        inner[move] + (dist[move] - inner[move]) * (2.0 - inner[move]) / (far[move] - inner[move])
    ) / dist[move]
    return _ARC_CENTER + rel * scale[:, None]


def map_to_curved_l(m: Mesh) -> Mesh:
    """Project the x=-1 and y=1 boundary onto the radius-2 arc centred at
    (1,-1); interior vertices follow a compatible radial blend. A triangle
    folded by the map raises MeshError."""
    if m.domain != "lshape":
        raise MeshError("map_to_curved_l expects an L-shape mesh")
    verts = _blend_toward_arc(m.vertices)

    on_arc = np.isin(m.edge_tag, ("left", "top"))
    project = np.zeros(len(verts), dtype=bool)
    project[m.edge_vertices[on_arc]] = True
    radial = m.vertices[project] - _ARC_CENTER
    dist = np.linalg.norm(radial, axis=1)
    verts[project] = _ARC_CENTER + radial * (_ARC_RADIUS / dist)[:, None]

    # same triangles, so the same boundary edges in the same order as `m`
    tags = np.where(on_arc, "arc", m.edge_tag)
    return _build(verts, m.triangles, "curved-l", tag_edges=lambda _: tags)
