import dataclasses
import hashlib
import math

import numpy as np
import pytest

from maxnit import mesh as mesh_module
from maxnit.mesh import (
    MeshError,
    _build,
    gen_lshape,
    gen_lshape_uniform,
    gen_square_crisscross,
    gen_square_uniform,
    map_to_curved_l,
    powell_sabin_refine,
)
from maxnit.io import save_txt

from conftest import all_boundary, boundary_mask, mesh_stats, validate_mesh


def test_square_uniform_smallest():
    m = gen_square_uniform(1)
    assert m.n_vertices == 4
    assert m.n_triangles == 2
    assert m.n_boundary_edges == 4
    assert m.h == pytest.approx(2 * math.sqrt(2))
    validate_mesh(m)


def test_square_uniform_h_sequence():
    assert gen_square_uniform(8).h == pytest.approx(0.3536, abs=5e-5)
    # refinement halves h (up to the last ulp of the coordinate grid)
    for k in (2, 5):
        assert gen_square_uniform(2 * k).h == pytest.approx(
            gen_square_uniform(k).h / 2, rel=1e-14
        )


def test_square_uniform_area():
    m = gen_square_uniform(2)
    assert m.tri_area.sum() == pytest.approx(4.0, abs=1e-14)


def test_crisscross_counts_and_h():
    m = gen_square_crisscross(1)
    assert m.n_vertices == 5
    assert m.n_triangles == 4
    assert gen_square_crisscross(8).h == pytest.approx(0.25)
    # (n+1)^2 grid vertices plus n^2 cell centres
    assert gen_square_crisscross(4).n_vertices == 41
    validate_mesh(gen_square_crisscross(4))


def test_lshape_geometry():
    m = gen_lshape(16)
    assert m.h == pytest.approx(0.125)
    assert m.tri_area.sum() == pytest.approx(3.0, abs=1e-13)
    validate_mesh(m)

    small = gen_lshape(2)
    origin = np.where(np.all(np.abs(small.vertices) < 1e-14, axis=1))[0]
    assert len(origin) == 1
    incident = [
        e for e in range(small.n_boundary_edges) if origin[0] in small.edge_vertices[e]
    ]
    assert len(incident) == 2
    n1, n2 = (small.edge_normal[e] for e in incident)
    assert abs(n1 @ n2) < 1e-14  # the two legs meet at a right angle


def test_lshape_rejects_odd():
    with pytest.raises(ValueError):
        gen_lshape(3)


def test_lshape_uniform():
    m = gen_lshape_uniform(16)
    assert m.tri_area.sum() == pytest.approx(3.0, abs=1e-13)
    assert m.n_triangles == 2 * 3 * 8 * 8
    validate_mesh(m)


def test_powell_sabin_counts_and_area():
    base = gen_square_uniform(1)
    ps = powell_sabin_refine(base)
    assert ps.n_triangles == 6 * base.n_triangles
    assert ps.tri_area.sum() == pytest.approx(base.tri_area.sum(), rel=1e-12)
    validate_mesh(ps)


def test_powell_sabin_equilateral_symmetry():
    # single equilateral triangle: the incenter equals the centroid and the
    # six children are congruent
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    base = _build(coords, np.array([[0, 1, 2]]), "test", all_boundary)
    ps = powell_sabin_refine(base)
    assert ps.n_triangles == 6
    assert np.allclose(ps.tri_area, ps.tri_area[0], rtol=1e-12)
    centroid = coords.mean(axis=0)
    assert any(np.allclose(v, centroid, atol=1e-12) for v in ps.vertices)


def test_powell_sabin_square_h():
    # the incenter split of the right-angled 8x8 base gives the documented
    # coarse level size
    ps = powell_sabin_refine(gen_square_uniform(8))
    assert ps.h == pytest.approx(0.1913, abs=5e-5)
    validate_mesh(ps)


def test_powell_sabin_lshape_h():
    ps = powell_sabin_refine(gen_lshape_uniform(16))
    assert ps.h == pytest.approx(0.0957, abs=5e-5)


def test_curved_map_projection_points():
    m = map_to_curved_l(gen_lshape(4))
    assert m.domain == "curved-l"
    target = np.array([1 - math.sqrt(2), math.sqrt(2) - 1])
    assert any(np.allclose(v, target, atol=1e-12) for v in m.vertices)
    for fixed in ([-1.0, -1.0], [1.0, 1.0]):
        assert any(np.allclose(v, fixed, atol=1e-12) for v in m.vertices)
    assert np.all(m.tri_area > 0)
    validate_mesh(m)
    # every arc vertex sits on the circle of radius 2 about (1, -1)
    arc_verts = set()
    for e in range(m.n_boundary_edges):
        if m.edge_tag[e] == "arc":
            arc_verts.update(m.edge_vertices[e].tolist())
    assert arc_verts
    for v in arc_verts:
        r = np.linalg.norm(m.vertices[v] - np.array([1.0, -1.0]))
        assert r == pytest.approx(2.0, abs=1e-12)


def test_curved_map_requires_lshape():
    with pytest.raises(MeshError):
        map_to_curved_l(gen_square_uniform(2))


def test_curved_map_of_powell_sabin_levels():
    for base in (2, 8):
        m = powell_sabin_refine(map_to_curved_l(gen_lshape(base)))
        validate_mesh(m)
        assert mesh_stats(m)["min_angle"] > 5.0


def test_mesh_stats():
    s = mesh_stats(gen_square_uniform(8))
    assert s["h"] == pytest.approx(0.3536, abs=5e-5)
    assert s["n_vertices"] == 81
    assert mesh_stats(gen_square_crisscross(8))["h"] == pytest.approx(0.25)

    ref = _build(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]]), "test",
        all_boundary,
    )
    s = mesh_stats(ref)
    assert s["min_area"] == pytest.approx(0.5)
    assert s["h"] == pytest.approx(math.sqrt(2))
    assert s["min_angle"] == pytest.approx(45.0)


def test_validator_catches_flipped_triangle():
    with pytest.raises(MeshError):
        _build(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            np.array([[0, 2, 1]]),
            "test",
            all_boundary,
        )


def test_conformity_of_generators():
    for m in (
        gen_square_uniform(3),
        gen_square_crisscross(3),
        gen_lshape(4),
        gen_lshape_uniform(4),
        powell_sabin_refine(gen_lshape(4)),
    ):
        validate_mesh(m)
        # outward normals: positive dot with (edge midpoint - centroid)
        mids = 0.5 * (m.vertices[m.edge_vertices[:, 0]] + m.vertices[m.edge_vertices[:, 1]])
        cents = m.vertices[m.triangles[m.edge_tri]].mean(axis=1)
        assert np.all(((mids - cents) * m.edge_normal).sum(axis=1) > 0)


def test_save_txt(tmp_path):
    m = gen_square_uniform(2)
    path = tmp_path / "mesh.txt"
    save_txt(m, str(path))
    lines = path.read_text().splitlines()
    header = lines[0].split(" / ")
    assert header[0] == f"VERTICES {m.n_vertices}"
    assert header[1] == f"TRIANGLES {m.n_triangles}"
    assert header[2] == f"BEDGES {m.n_boundary_edges}"
    assert len(lines) == 1 + m.n_vertices + m.n_triangles + m.n_boundary_edges
    # vertex coordinates round-trip through the text format
    vid, x, y = lines[1].split()
    assert float(x) == m.vertices[int(vid), 0]


def test_non_manifold_edge_rejected():
    # edge (0, 1) is shared by three positively oriented triangles
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]])
    with pytest.raises(MeshError, match="non-manifold"):
        _build(coords, np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]]), "test", all_boundary)


def test_validator_catches_stale_boundary_table():
    m = gen_square_uniform(2)
    with pytest.raises(MeshError, match="disagree"):
        validate_mesh(dataclasses.replace(m, edge_vertices=m.edge_vertices[1:]))


@pytest.mark.parametrize("name", ["tri_area", "tri_h", "tri_grads"])
def test_validator_catches_stale_geometry(name):
    m = gen_square_uniform(2)
    with pytest.raises(MeshError, match="stale"):
        validate_mesh(dataclasses.replace(m, **{name: 2.0 * getattr(m, name)}))


def test_mesh_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        gen_square_uniform(1).edge_tag = []


def test_folding_curved_map_raises(monkeypatch):
    base = gen_lshape(4)
    inner = int(np.flatnonzero(~boundary_mask(base))[0])
    blend = mesh_module._blend_toward_arc

    def folding_blend(points):
        out = blend(points)
        out[inner] += 5.0  # far outside the domain: incident triangles turn over
        return out

    monkeypatch.setattr(mesh_module, "_blend_toward_arc", folding_blend)
    with pytest.raises(MeshError, match="non-positive"):
        map_to_curved_l(base)


_FINGERPRINT_FIELDS = (
    "vertices", "triangles", "tri_area", "tri_h", "edge_vertices", "edge_tri",
    "edge_normal", "edge_length", "edge_local_h",
)


def _fingerprint(m) -> str:
    """sha256 over every array field (name, dtype, shape, bytes), the
    boundary vertex mask under its former field name, and the tags."""
    digest = hashlib.sha256()
    arrays = [(name, getattr(m, name)) for name in _FINGERPRINT_FIELDS]
    for name, a in arrays + [("on_boundary", boundary_mask(m))]:
        digest.update(f"{name}:{a.dtype.str}:{a.shape}".encode())
        digest.update(np.ascontiguousarray(a).tobytes())
    digest.update("\n".join(m.edge_tag).encode())
    return digest.hexdigest()


_FAMILY_BUILDERS = {
    "square-uniform": gen_square_uniform,
    "square-crisscross": gen_square_crisscross,
    "square-ps": lambda n: powell_sabin_refine(gen_square_uniform(n)),
    "lshape-crisscross": gen_lshape,
    "lshape-uniform": gen_lshape_uniform,
    "lshape-ps": lambda n: powell_sabin_refine(gen_lshape_uniform(n)),
    "curved-mapped": lambda n: map_to_curved_l(gen_lshape(n)),
    "curved-ps": lambda n: powell_sabin_refine(map_to_curved_l(gen_lshape(n))),
}

# Recorded from the per-cell loop generators this module used to have; every
# assembled matrix, LU ordering and reported error depends on these bytes.
_FINGERPRINTS = {
    ("curved-mapped", 2): "3e049606aacc6e9b86b83f19d6bebab4029e41313a1d2aebe33769ac8a43ff8f",
    ("curved-mapped", 4): "fd59ae00e612d69ffab2c6d580d6e1d161e78505d2a1eeae36f757bc26ae0f91",
    ("curved-ps", 2): "cc959a01aaced042b7e0b3b46e8a844a83aa1b034d317710a6d9725cc0e2a769",
    ("curved-ps", 4): "d31336d1c9e5d5d60b327806bf4a0074d004782580fcf64a2addc3ca1cd5511b",
    ("lshape-crisscross", 2): "d548be3855576b7536f6d5b8e17df2719c9dec3f24096e344df828f42df54f6d",
    ("lshape-crisscross", 4): "66bddd7571a568e65a6eb8c9adff9b5ddc814c0aa7e5817b6abef4aa8cd3a79f",
    ("lshape-ps", 2): "61fac3bd6e3b9ee01cdbbf5ef45b09ba628c58d543d44edd7aece6d72dc4a919",
    ("lshape-ps", 4): "cd0df66ce212723c76d0af08a453777628ec98800b7ca7af091d2efe34dcef6d",
    ("lshape-uniform", 2): "c0ba63bbe26b3e92a35c70bdae9ce346ea7cc45a51f33700c605d2951477be24",
    ("lshape-uniform", 4): "468dfad487421fb04c1e00585a4ac83072c267215d5b50186695476e3f2dc369",
    ("square-crisscross", 2): "bf3d45b908480459a4c027214eaa02c6f460bc06dc70e221cec52374523f4a2b",
    ("square-crisscross", 4): "93a2477b50825728fcefad68c1a72248b210054d538c89272c4a0e2f96805cef",
    ("square-ps", 2): "7c805e693b9cee16dcab38707d0903b9da05cbd2003fd3c020ba8f2e916ed9b6",
    ("square-ps", 4): "d55ca930503e916fb70fc52de92bc42ca15ec4145185b411203478ebc3083c88",
    ("square-uniform", 2): "fa5aeb4c18faa61f8de691d8cf86e7253eb1fb3b6907fb5619418b5604a92731",
    ("square-uniform", 4): "42b9441c0e93e13fccb73647de1fc7381d8d3478bef00dd70a20b4bd56fade61",
}


@pytest.mark.parametrize("family, n", sorted(_FINGERPRINTS))
def test_mesh_fingerprint(family, n):
    assert _fingerprint(_FAMILY_BUILDERS[family](n)) == _FINGERPRINTS[family, n]
