import hashlib
import re
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
import scipy.sparse as sp

from maxnit.analysis import boundary_data_norm, l2_errors, triple_norm
from maxnit.assembly import (
    _BLOCK,
    RHS_TRI_DEGREE,
    CORNER_STRATEGIES,
    FORMULATIONS,
    ConfigError,
    Params,
    _batch_curl_curl,
    _batch_div_div,
    _batch_mixed_grad,
    _batch_pressure_laplacian,
    _curl_coefs,
    _div_coefs,
    _dofs,
    _edge_blocks,
    _edge_frame,
    _map_rule_points,
    apply_strong_bc,
    assemble_global,
    assemble_rhs,
)
from maxnit.harness import _MESHES
from maxnit.linsolve import SingularSystemError, solve
from maxnit.mesh import (
    MeshError,
    _build,
    gen_lshape,
    gen_square_crisscross,
    gen_square_uniform,
    map_to_curved_l,
    powell_sabin_refine,
)
from maxnit.problems import (
    ProblemCase,
    curved_l_case,
    lshape_case,
    square_case,
)
from maxnit.quadrature import subdivide_triangle_rule, triangle_rule

from conftest import (
    all_boundary,
    boundary_mask,
    oracle_curl_curl,
    oracle_div_div,
    oracle_edge_blocks,
    oracle_mixed_grad,
    oracle_pressure_laplacian,
    random_ccw_triangle,
)

REF = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def volume_blocks(tri, params):
    """Curl-curl, mixed gradient, div-div and pressure-Laplacian blocks of
    one CCW triangle, from the batched kernels on a one-triangle mesh."""
    mesh = _build(tri, np.array([[0, 1, 2]]), "test", all_boundary)
    area, h_k, grads = mesh.tri_area, mesh.tri_h, mesh.tri_grads
    return (
        _batch_curl_curl(area, grads, params.nu)[0],
        _batch_mixed_grad(area, grads)[0],
        _batch_div_div(area, h_k, grads, params)[0],
        _batch_pressure_laplacian(area, grads, params)[0],
    )


def edge_blocks_of(mesh, e, params):
    """The (rows, cols, block) triples of boundary edge `e`, sliced from one
    call of the batched edge kernel."""
    return [(r[e], c[e], v[e]) for r, c, v in _edge_blocks(mesh, params)]


def block_matrix(blocks, n):
    """Sparse n x n sum of (rows (k, r), cols (k, c), values (k, r, c)) batches."""
    rows, cols, vals = [], [], []
    for r, c, v in blocks:
        rows.append(np.repeat(r, c.shape[1], axis=1).ravel())
        cols.append(np.tile(c, (1, r.shape[1])).ravel())
        vals.append(v.ravel())
    entries = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
    return sp.coo_matrix(entries, shape=(n, n)).tocsr()


def rotation_patch_case(domain="square"):
    """u = (-y, x), p = 0: constant curl 2, zero divergence, zero source."""

    def u(pts):
        return np.column_stack([-pts[:, 1], pts[:, 0]])

    def curl(pts):
        return np.full(pts.shape[0], 2.0)

    def f(pts):
        return np.zeros((pts.shape[0], 2))

    return ProblemCase(domain, u, curl, f, u)


def zero_case(domain="square"):
    def zv(pts):
        return np.zeros((pts.shape[0], 2))

    def zs(pts):
        return np.zeros(pts.shape[0])

    return ProblemCase(domain, zv, zs, zv, zv)


class TestLocalMatrices:
    def test_curl_curl_reference_entries(self):
        block = volume_blocks(REF, Params(nu=1.0))[0]
        # curl(lambda_0, 0) = -d2 lambda_0 = 1, curl(0, lambda_0) = d1 lambda_0 = -1
        assert block[0, 0] == pytest.approx(0.5)
        assert block[0, 1] == pytest.approx(-0.5)

    def test_curl_curl_nullspace(self):
        block = volume_blocks(REF, Params(nu=2.5))[0]
        constant = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        assert np.allclose(block @ constant, 0.0, atol=1e-14)
        # the nodal interpolant of grad(lambda_1) is again a constant field
        gradient = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        assert abs(gradient @ block @ gradient) < 1e-14

    def test_mixed_grad_reference_entry(self):
        block = volume_blocks(REF, Params())[1]
        # int lambda_0 * d1 lambda_1 = (1/3 area) * 1 = 1/6
        assert block[0, 1] == pytest.approx(1.0 / 6.0)

    def test_mixed_grad_constant_pressure(self):
        block = volume_blocks(REF, Params())[1]
        assert np.allclose(block @ np.ones(3), 0.0, atol=1e-15)

    def test_div_div_rigid_rotation(self):
        params = Params(nu=1.0, L0=1.0, c_u=1.0)
        block = volume_blocks(REF, params)[2]
        rot = np.array([0.0, 0.0, 0.0, 1.0, -1.0, 0.0])  # nodal (-y, x)
        assert abs(rot @ block @ rot) < 1e-14

    def test_div_div_reference_entry_and_scaling(self):
        params = Params(nu=1.0, L0=1.0, c_u=1.0)
        block = volume_blocks(REF, params)[2]
        # h_K = sqrt(2): entry for (lambda_1, 0): 2 * area * (d1 lambda_1)^2
        assert block[2, 2] == pytest.approx(1.0)
        wide = volume_blocks(REF, Params(nu=1.0, L0=2.0, c_u=1.0))[2]
        assert np.allclose(wide, block / 4.0)

    def test_pressure_laplacian(self):
        params = Params(nu=1.0, L0=1.0, c_u=1.0)
        block = volume_blocks(REF, params)[3]
        assert np.allclose(block @ np.ones(3), 0.0, atol=1e-15)
        assert block[1, 1] == pytest.approx(-0.5)
        assert np.all(np.linalg.eigvalsh(block) < 1e-14)

    def test_degenerate_triangle_rejected(self):
        flat = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1e-16]])
        with pytest.raises(MeshError, match="degeneracy"):
            _build(flat, np.array([[0, 1, 2]]), "test", all_boundary)


class TestLocalOracle:
    """Brute-force quadrature on independently reconstructed basis functions."""

    def test_volume_blocks_match_oracle(self, rng):
        params = Params(nu=1.3, L0=0.7, c_u=0.4)
        for _ in range(100):
            tri = random_ccw_triangle(rng)
            expected_blocks = (
                oracle_curl_curl(tri, params.nu),
                oracle_mixed_grad(tri),
                oracle_div_div(tri, params),
                oracle_pressure_laplacian(tri, params),
            )
            for produced, expected in zip(volume_blocks(tri, params), expected_blocks):
                scale = max(1.0, np.abs(expected).max())
                assert np.abs(produced - expected).max() < 1e-12 * scale

    def test_edge_blocks_match_oracle(self, rng):
        params = Params(nu=0.8, L0=1.7, c_u=1.0, N_u=35.0, N_p=12.0)
        for _ in range(100):
            tri = random_ccw_triangle(rng)
            mesh = _build(tri, np.array([[0, 1, 2]]), "test", all_boundary)
            e = int(rng.integers(0, 3))
            v0, v1 = mesh.edge_vertices[e]
            local = (
                int(np.where(mesh.triangles[0] == v0)[0][0]),
                int(np.where(mesh.triangles[0] == v1)[0][0]),
            )
            expected = oracle_edge_blocks(tri, local, mesh.edge_normal[e], params)
            blocks = edge_blocks_of(mesh, e, params)
            keyed = {
                (tuple(r), tuple(c)): b for r, c, b in blocks
            }
            edge_u = tuple(_dofs([v0, v1])[:, :2].ravel())
            edge_p = tuple(_dofs([v0, v1])[:, 2])
            tri_u = tuple(_dofs(mesh.triangles[0])[:, :2].ravel())
            tri_p = tuple(_dofs(mesh.triangles[0])[:, 2])
            pairs = [
                ((edge_u, tri_u), expected["consistency"]),
                ((edge_p, edge_u), expected["normal_flux"]),
                ((edge_u, edge_u), expected["penalty_u"]),
                ((edge_p, edge_p), expected["penalty_p"]),
                ((edge_p, tri_p), expected["p_flux"]),
            ]
            for key, exp in pairs:
                got = keyed[key]
                scale = max(1.0, np.abs(exp).max())
                assert np.abs(got - exp).max() < 1e-12 * scale
            # symmetric counterparts are exact transposes
            assert np.array_equal(keyed[(tri_u, edge_u)], keyed[(edge_u, tri_u)].T)
            assert np.array_equal(keyed[(edge_u, edge_p)], keyed[(edge_p, edge_u)].T)
            assert np.array_equal(keyed[(tri_p, edge_p)], keyed[(edge_p, tri_p)].T)


class TestEdgeBlocks:
    def test_penalty_block_bottom_edge(self):
        mesh = gen_square_uniform(1)
        bottoms = [e for e in range(4) if np.allclose(mesh.edge_normal[e], [0, -1])]
        assert len(bottoms) == 1
        e = bottoms[0]
        params = Params(nu=1.0, L0=1.0, c_u=1.0, N_u=100.0, N_p=100.0)
        blocks = edge_blocks_of(mesh, e, params)
        v0, v1 = mesh.edge_vertices[e]
        edge_u = tuple(_dofs([v0, v1])[:, :2].ravel())
        pen = next(b for r, c, b in blocks if tuple(r) == edge_u and tuple(c) == edge_u)
        # n = (0,-1): t(v) = v_x, so only the x-x pairs carry the edge mass
        ell = mesh.edge_length[e]
        lh = mesh.edge_local_h[e]
        mass = 100.0 / lh * ell / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(pen[np.ix_([0, 2], [0, 2])], mass, rtol=1e-14)
        assert np.allclose(pen[np.ix_([1, 3], [1, 3])], 0.0, atol=1e-14)

    def test_pressure_penalty_is_negative(self):
        mesh = gen_square_uniform(2)
        params = Params(N_u=100.0, N_p=100.0)
        case = zero_case()
        system = assemble_global(mesh, params, case)
        diag = system.matrix.diagonal()
        on_boundary = boundary_mask(mesh)
        boundary = _dofs(np.where(on_boundary)[0])[:, 2]
        interior = _dofs(np.where(~on_boundary)[0])[:, 2]
        # boundary p diagonals pick up the negative penalty mass on top of
        # the (already negative) pressure laplacian
        assert np.all(diag[boundary] < diag[interior].max())
        assert np.all(diag[boundary] < 0)

    def test_strong_formulation_has_no_edge_blocks(self):
        # the strong matrix is the stabilised-Nitsche one without any edge block
        mesh = gen_square_uniform(1)
        weak = Params()
        a_weak = assemble_global(mesh, weak, zero_case()).matrix
        a_strong = assemble_global(
            mesh, replace(weak, formulation="stabilised-strong"), zero_case()
        ).matrix
        edges = block_matrix(_edge_blocks(mesh, weak), a_weak.shape[0])
        assert abs(a_weak - edges - a_strong).max() < 1e-14 * abs(a_weak).max()


@pytest.mark.parametrize("domain, family", sorted(_MESHES))
class TestP1Frame:
    """The one copy of the boundary tangent and of the basis curl and
    divergence, which the Nitsche blocks, the right-hand side and the
    norms all read."""

    def test_tangent_runs_along_the_edge_with_the_interior_left(self, domain, family):
        mesh = _MESHES[domain, family](4)
        tvec = _edge_frame(mesh)[2]
        v0, v1 = (mesh.vertices[mesh.edge_vertices[:, i]] for i in range(2))
        d = v1 - v0
        assert np.abs(tvec - d / np.hypot(d[:, 0], d[:, 1])[:, None]).max() < 1e-15
        to_centroid = mesh.vertices[mesh.triangles[mesh.edge_tri]].mean(axis=1) - v0
        assert np.all(tvec[:, 0] * to_centroid[:, 1] - tvec[:, 1] * to_centroid[:, 0] > 0.0)

    def test_curl_and_div_coefs_of_the_basis_fields(self, domain, family):
        grads = _MESHES[domain, family](4).tri_grads
        curl, div = _curl_coefs(grads), _div_coefs(grads)
        for i in range(3):
            for c in range(2):  # column 2 i + c is the field lambda_i e_c
                jac = np.zeros((len(grads), 2, 2))  # [component, derivative]
                jac[:, c] = grads[:, i]
                assert np.array_equal(curl[:, 2 * i + c], jac[:, 1, 0] - jac[:, 0, 1])
                assert np.array_equal(div[:, 2 * i + c], jac[:, 0, 0] + jac[:, 1, 1])


class TestRhs:
    def test_zero_data_gives_zero_vector(self):
        mesh = gen_square_uniform(2)
        b = assemble_rhs(mesh, zero_case(), Params())
        assert np.all(b == 0.0)

    def test_source_is_scaled_by_params_nu(self):
        # f = nu * source_f; the strong form has no boundary terms in the RHS
        mesh, case = gen_square_uniform(4), square_case()
        strong = Params(formulation="stabilised-strong")
        unit = assemble_rhs(mesh, case, strong)
        assert np.abs(unit).max() > 0.0
        assert np.array_equal(assemble_rhs(mesh, case, replace(strong, nu=2.0)), 2.0 * unit)

    def test_corner_singularity_cases_have_boundary_only_rhs(self):
        mesh = gen_lshape(4)
        case = lshape_case(2)
        strong = assemble_rhs(mesh, case, Params(formulation="stabilised-strong"))
        assert np.all(strong == 0.0)  # zero source: the volume term vanishes
        weak = assemble_rhs(mesh, case, Params())
        assert np.abs(weak).max() > 0.0

    def test_rhs_matches_refined_quadrature_oracle(self):
        # independent degree-8 rule with two extra subdivisions
        from maxnit.quadrature import edge_rule, subdivide_triangle_rule, triangle_rule

        mesh = gen_square_uniform(8)
        case = square_case()
        params = Params(nu=1.0, L0=0.1, c_u=0.1, N_u=100.0, N_p=100.0)
        b = assemble_rhs(mesh, case, params)

        oracle = np.zeros(3 * mesh.n_vertices)
        rule = subdivide_triangle_rule(triangle_rule(8), 2)
        coords = mesh.vertices[mesh.triangles]
        pts = np.einsum("qk,mkd->mqd", rule.points, coords)
        f = case.source_f(pts.reshape(-1, 2)).reshape(pts.shape)
        contrib = 2.0 * mesh.tri_area[:, None, None] * np.einsum(
            "q,qi,mqd->mid", rule.weights, rule.points, f
        )
        for i in range(3):
            np.add.at(oracle, 3 * mesh.triangles[:, i], contrib[:, i, 0])
            np.add.at(oracle, 3 * mesh.triangles[:, i] + 1, contrib[:, i, 1])

        erule = edge_rule(21)
        t, ew = erule.points, erule.weights

        p0 = mesh.vertices[mesh.edge_vertices[:, 0]]
        p1 = mesh.vertices[mesh.edge_vertices[:, 1]]
        epts = p0[:, None, :] + t[None, :, None] * (p1 - p0)[:, None, :]
        ubar = case.dirichlet_u(epts.reshape(-1, 2)).reshape(epts.shape)
        tu = (
            mesh.edge_normal[:, None, 0] * ubar[:, :, 1]
            - mesh.edge_normal[:, None, 1] * ubar[:, :, 0]
        )
        curl6 = _curl_coefs(mesh.tri_grads[mesh.edge_tri])
        mom0 = mesh.edge_length * (tu @ ew)
        tri_u = _dofs(mesh.triangles[mesh.edge_tri])[..., :2]
        np.add.at(oracle, tri_u.ravel(), (-params.nu * mom0[:, None] * curl6).ravel())
        lam = np.column_stack([1.0 - t, t])
        mom1 = mesh.edge_length[:, None] * np.einsum("q,qi,kq->ki", ew, lam, tu)
        scale = params.N_u * params.nu / mesh.edge_local_h
        tvecs = np.column_stack([-mesh.edge_normal[:, 1], mesh.edge_normal[:, 0]])
        pen = scale[:, None, None] * mom1[:, :, None] * tvecs[:, None, :]
        edge_u = _dofs(mesh.edge_vertices)[..., :2]
        np.add.at(oracle, edge_u.ravel(), pen.reshape(-1, 4).ravel())

        assert np.linalg.norm(b - oracle) < 1e-10 * np.linalg.norm(oracle)

    def test_domain_mismatch_rejected(self):
        with pytest.raises(ValueError):
            assemble_rhs(gen_square_uniform(2), lshape_case(1), Params())


# every triangle rule the package maps points with: the RHS source, the
# singular-case error norm, the error norm and the data norm, the curl error
_RULES = {
    "rhs": triangle_rule(RHS_TRI_DEGREE),
    "degree-6-subdivided": subdivide_triangle_rule(triangle_rule(6), 1),
    "degree-6": triangle_rule(6),
    "degree-1": triangle_rule(1),
}


class TestMapRulePoints:
    @pytest.mark.parametrize("rule", sorted(_RULES))
    @pytest.mark.parametrize("m", [1, _BLOCK - 1, _BLOCK, 2 * _BLOCK + 17])
    @pytest.mark.parametrize("d", [2, 3])
    def test_equals_one_einsum_bit_for_bit(self, rng, rule, m, d):
        points = _RULES[rule].points
        nodal = rng.standard_normal((m, 3, d))
        out = _map_rule_points(_RULES[rule], nodal)
        assert out.flags.c_contiguous
        assert out.shape == (m, len(points), d)
        assert np.array_equal(out, np.einsum("qk,mkd->mqd", points, nodal))


def _spy(calls, fn):
    def spy(points):
        calls.append(len(points))
        return fn(points)

    return spy


class TestZeroSource:
    _CASES = {
        "lshape": (lambda: gen_lshape(4), lambda: lshape_case(1)),
        "curved-l": (
            lambda: powell_sabin_refine(map_to_curved_l(gen_lshape(2))),
            lambda: curved_l_case(2),
        ),
    }

    @pytest.mark.parametrize("form", FORMULATIONS)
    @pytest.mark.parametrize("domain", sorted(_CASES))
    def test_rhs_equals_unflagged_bit_for_bit(self, domain, form):
        build, make_case = self._CASES[domain]
        mesh, case = build(), make_case()
        params = _fingerprint_params(form)
        unflagged = assemble_rhs(mesh, replace(case, zero_source=False), params)
        assert np.array_equal(assemble_rhs(mesh, case, params), unflagged)

    def test_rhs_skips_the_source_and_data_norm_keeps_it(self):
        mesh = gen_lshape(4)
        calls = []
        case = lshape_case(1)
        case = replace(case, source_f=_spy(calls, case.source_f))
        assemble_rhs(mesh, case, Params())
        assert calls == []
        boundary_data_norm(mesh, case, Params())
        assert len(calls) >= 1
        calls.clear()
        assemble_rhs(mesh, replace(case, zero_source=False), Params())
        assert sum(calls) == len(_RULES["rhs"].points) * mesh.n_triangles


class TestGlobalAssembly:
    def test_exact_symmetry(self):
        mesh = gen_square_crisscross(3)
        system = assemble_global(mesh, Params(), square_case())
        diff = (system.matrix - system.matrix.T).tocoo()
        assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0

    def test_dof_count(self):
        mesh = gen_square_uniform(2)
        system = assemble_global(mesh, Params(), square_case())
        assert system.matrix.shape == (27, 27)
        assert np.array_equal(_dofs([0, 8]), [[0, 1, 2], [24, 25, 26]])

    def test_quadratic_form_positivity(self, rng):
        mesh = gen_square_uniform(4)
        system = assemble_global(
            mesh, Params(nu=1.0, L0=2.0, c_u=1.0, N_u=100.0, N_p=100.0), square_case()
        )
        n = mesh.n_vertices
        flip = np.ones(3 * n)
        flip[2::3] = -1.0
        for _ in range(20):
            x = rng.standard_normal(3 * n)
            assert x @ (system.matrix @ (flip * x)) > 0.0

    def test_formulation_nesting(self):
        mesh = gen_square_crisscross(2)
        params_sn = Params(nu=1.0, L0=0.5, c_u=0.7, N_u=50.0, N_p=50.0)
        params_gn = Params(nu=1.0, L0=0.5, N_u=50.0, N_p=50.0, formulation="galerkin-nitsche")
        case = square_case()
        a_sn = assemble_global(mesh, params_sn, case).matrix
        a_gn = assemble_global(mesh, params_gn, case).matrix

        area, h_k, grads = mesh.tri_area, mesh.tri_h, mesh.tri_grads
        uu = _batch_div_div(area, h_k, grads, params_sn)
        pp = _batch_pressure_laplacian(area, grads, params_sn)
        dofs = _dofs(mesh.triangles)
        u_idx, p_idx = dofs[..., :2].reshape(-1, 6), dofs[..., 2]
        stab = block_matrix([(u_idx, u_idx, uu), (p_idx, p_idx, pp)], a_sn.shape[0])

        # the pressure flux is the (p, p) edge-by-triangle pair of blocks
        pflux = block_matrix(
            [b for b in _edge_blocks(mesh, params_sn) if b[2].shape[1:] in ((2, 3), (3, 2))],
            a_sn.shape[0],
        )

        residual = a_sn - (a_gn + stab + pflux)
        scale = max(1.0, abs(a_sn).max())
        assert abs(residual).max() < 1e-14 * scale


class TestPatchTest:
    @pytest.mark.parametrize(
        "mesh",
        [
            gen_square_uniform(3),
            gen_square_crisscross(3),
            powell_sabin_refine(gen_square_uniform(2)),
        ],
        ids=["uniform", "crisscross", "powell-sabin"],
    )
    def test_rotation_field_reproduced(self, mesh):
        case = rotation_patch_case()
        params = Params(nu=1.0, L0=0.5, c_u=0.5, N_u=100.0, N_p=100.0)
        nodal = solve(assemble_global(mesh, params, case)).coeffs.reshape(-1, 3)
        expected = case.exact_u(mesh.vertices)
        assert np.abs(nodal[:, :2] - expected).max() < 1e-10
        assert np.abs(nodal[:, 2]).max() < 1e-10


class TestStrongBc:
    def test_square_corner_pairs_prescribed(self):
        mesh = gen_square_uniform(2)
        case = square_case()
        params = Params(formulation="stabilised-strong")
        system = apply_strong_bc(assemble_global(mesh, params, case), mesh, case, "both-zero")
        # eliminated: 3 dofs per boundary vertex at 4 corners, p plus the
        # tangential component elsewhere on the boundary
        n_boundary = int(boundary_mask(mesh).sum())
        n_corners = 4
        eliminated = 3 * n_corners + 2 * (n_boundary - n_corners)
        assert system.n_unknowns == 3 * mesh.n_vertices - eliminated
        diff = (system.matrix - system.matrix.T).tocoo()
        assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0

        nodal = solve(system).coeffs.reshape(-1, 3)
        ubar = case.dirichlet_u(mesh.vertices)
        for v in np.where(boundary_mask(mesh))[0]:
            assert nodal[v, 2] == 0.0
        for corner in [(0, 0), (2, 0), (0, 2), (2, 2)]:
            v = int(np.where(
                np.all(np.abs(mesh.vertices - np.array([-1.0, -1.0]) - np.array(corner)) < 1e-12, axis=1)
            )[0][0])
            assert np.allclose(nodal[v, :2], ubar[v], atol=1e-12)

    def test_tangential_constraint_exact(self):
        mesh = gen_square_uniform(4)
        case = square_case()
        params = Params(formulation="stabilised-strong")
        system = apply_strong_bc(assemble_global(mesh, params, case), mesh, case, "both-zero")
        u = solve(system).coeffs.reshape(-1, 3)[:, :2]
        ubar = case.dirichlet_u(mesh.vertices)
        for e in range(mesh.n_boundary_edges):
            n = mesh.edge_normal[e]
            for v in mesh.edge_vertices[e]:
                t_sol = n[0] * u[v, 1] - n[1] * u[v, 0]
                t_bar = n[0] * ubar[v, 1] - n[1] * ubar[v, 0]
                assert t_sol == pytest.approx(t_bar, abs=1e-11)

    def test_strategies_differ_only_at_reentrant_corner(self):
        mesh = gen_lshape(8)
        case = lshape_case(1)
        params = Params(formulation="stabilised-strong")
        base = assemble_global(mesh, params, case)
        free = apply_strong_bc(base, mesh, case, "free")
        both = apply_strong_bc(base, mesh, case, "both-zero")
        bis = apply_strong_bc(base, mesh, case, "bisector-normal")
        # counted against both-zero: free keeps two extra unknowns, the
        # bisector rotation keeps one
        assert free.n_unknowns == both.n_unknowns + 2
        assert bis.n_unknowns == both.n_unknowns + 1

    @pytest.mark.parametrize("strategy", CORNER_STRATEGIES)
    def test_one_data_evaluation_and_the_corner_pinned_to_zero(self, strategy):
        mesh, case = gen_lshape(32), lshape_case(1)
        system = assemble_global(mesh, Params(formulation="stabilised-strong"), case)
        calls = []

        def spy(points):
            calls.append(len(points))
            return case.dirichlet_u(points)

        reduced = apply_strong_bc(system, mesh, replace(case, dirichlet_u=spy), strategy)
        assert calls == [int(boundary_mask(mesh).sum())]
        corner = np.all(mesh.vertices == 0.0, axis=1)
        assert np.array_equal(reduced.offset.reshape(-1, 3)[corner], [[0.0, 0.0, 0.0]])
        assert np.all(np.isfinite(reduced.offset))

    @pytest.mark.parametrize("strategy", CORNER_STRATEGIES)
    def test_nan_data_off_the_corner_is_a_solver_failure(self, strategy):
        # only the re-entrant corner's unbounded value is pinned to zero
        mesh, case = gen_lshape(8), lshape_case(1)
        off_corner = boundary_mask(mesh) & np.any(mesh.vertices != 0.0, axis=1)
        target = mesh.vertices[np.flatnonzero(off_corner)[0]]

        def data(points):
            out = case.dirichlet_u(points)
            out[np.all(points == target, axis=1)] = np.nan
            return out

        system = assemble_global(mesh, Params(formulation="stabilised-strong"), case)
        reduced = apply_strong_bc(system, mesh, replace(case, dirichlet_u=data), strategy)
        with pytest.raises(SingularSystemError, match="right-hand side is not finite"):
            solve(reduced)

    def test_curved_arc_uses_averaged_normals(self):
        mesh = map_to_curved_l(gen_lshape(4))
        case = lshape_case(2)
        case = ProblemCase(
            "curved-l", case.exact_u, case.exact_curl_u, case.source_f,
            case.dirichlet_u, 2,
        )
        params = Params(formulation="stabilised-strong")
        system = apply_strong_bc(assemble_global(mesh, params, case), mesh, case, "both-zero")
        sol = solve(system)
        assert np.isfinite(sol.coeffs).all()

    @pytest.mark.parametrize(
        "broken, message",
        [
            (lambda ev: ev[1:], "not a union of closed loops"),
            (lambda ev: np.vstack([ev, [[ev[0, 0], ev[1, 1]]]]), "other than two incident"),
        ],
        ids=["edge-dropped", "two-outgoing"],
    )
    def test_broken_boundary_is_mesh_error(self, broken, message):
        mesh = gen_square_uniform(2)
        case = square_case()
        system = assemble_global(mesh, Params(formulation="stabilised-strong"), case)
        mesh = replace(mesh, edge_vertices=broken(mesh.edge_vertices))
        with pytest.raises(MeshError, match=message):
            apply_strong_bc(system, mesh, case, "both-zero")

    def test_unknown_strategy_rejected(self):
        mesh = gen_square_uniform(2)
        case = square_case()
        system = assemble_global(mesh, Params(formulation="stabilised-strong"), case)
        with pytest.raises(ValueError):
            apply_strong_bc(system, mesh, case, "mystery")


class TestParams:
    def test_positive_scalars_enforced(self):
        for bad in (dict(nu=0.0), dict(L0=-1.0), dict(c_u=0.0), dict(N_u=-1.0)):
            with pytest.raises(ValueError):
                Params(**bad)

    def test_non_real_scalars_rejected(self):
        for bad in (dict(nu="1"), dict(L0=None), dict(N_u=True), dict(N_p=[1.0]),
                    dict(nu=float("nan")), dict(c_u=float("inf")), dict(L0=10**400)):
            with pytest.raises(ValueError, match="finite real number"):
                Params(**bad)

    def test_scales_must_be_finite_and_nonzero(self):
        # unchecked, L0 = 1e200 overflowed (OverflowError) and L0 = 1e-200
        # underflowed (ZeroDivisionError) inside the assembly
        for bad in (dict(L0=1e200), dict(L0=1e-200), dict(L0=1e160, N_p=0.0),
                    dict(nu=1e300, N_u=1e10), dict(c_u=1e-300, nu=1e-300)):
            with pytest.raises(ValueError, match="scales"):
                Params(**bad)
        with pytest.warns(UserWarning, match="stability threshold"):
            Params(N_u=0.0, N_p=0.0)  # zero penalty scales are allowed
        Params(nu=1e-300)
        Params(nu=1e300)

    def test_invalid_params_are_config_errors(self):
        from maxnit import harness

        with pytest.raises(ConfigError, match="nu must be positive"):
            Params(nu=-1.0)
        assert harness.ConfigError is ConfigError

    def test_frozen_after_construction(self):
        params = Params()
        with pytest.raises(FrozenInstanceError):
            params.nu = -1
        with pytest.raises(ValueError):
            replace(params, nu=-1.0)  # replace re-runs the checks
        assert params.nu == 1.0

    def test_unknown_selectors_rejected(self):
        with pytest.raises(ValueError):
            Params(formulation="collocation")

    def test_every_field_enters_the_matrix(self):
        # Params holds the matrix's settings and nothing else: for each
        # formulation, each field that it reads, perturbed alone, changes its
        # assembled matrix, and each field that it does not read is a
        # ConfigError off its default
        mesh, case = gen_lshape(4), lshape_case(1)
        unread_fields = {"galerkin-nitsche": {"c_u"}, "stabilised-nitsche": set(),
                         "stabilised-strong": {"N_u", "N_p"}}
        assert unread_fields.keys() == FORMULATIONS.keys()
        for formulation, unread in unread_fields.items():
            base = Params(formulation=formulation)
            a = assemble_global(mesh, base, case).matrix
            # the selector takes each of its other choices, a number its double
            changes = [{"formulation": c} for c in FORMULATIONS if c != formulation] + [
                {f.name: 2.0 * getattr(base, f.name)}
                for f in fields(Params) if f.name != "formulation"
            ]
            for change in changes:
                (name,) = change
                if name in unread:
                    message = f"formulation {formulation!r} does not read [{name!r}]"
                    with pytest.raises(ConfigError, match=re.escape(message)):
                        replace(base, **change)
                else:
                    b = assemble_global(mesh, replace(base, **change), case).matrix
                    assert (a != b).nnz > 0, (formulation, name)

    def test_formulations_are_the_two_switches(self):
        # the properties read the table and are no dataclass fields
        assert {f: (Params(formulation=f).stabilised, Params(formulation=f).strong)
                for f in FORMULATIONS} == {"galerkin-nitsche": (False, False),
                                           "stabilised-nitsche": (True, False),
                                           "stabilised-strong": (True, True)}
        assert [f.name for f in fields(Params)] == ["nu", "L0", "c_u", "N_u", "N_p",
                                                    "formulation"]

    def test_small_penalty_warns(self):
        # the warning names the line that built Params, not the dataclass's
        # generated __init__
        with pytest.warns(UserWarning) as record:
            Params(N_u=0.5, N_p=0.5)
        assert record[0].filename == __file__


def test_matrix_market_dump(tmp_path):
    import scipy.io as sio

    mesh = gen_square_uniform(2)
    system = assemble_global(mesh, Params(), square_case())
    path = tmp_path / "system.mtx"
    from maxnit.io import write_matrix_market

    write_matrix_market(system, str(path))
    loaded = sio.mmread(str(path)).tocsr()
    assert loaded.shape == system.matrix.shape
    assert abs(loaded - system.matrix).max() < 1e-15


def test_velocity_block_positive_definite(rng):
    # curl-curl + div-div + penalty - consistency terms, probed on random
    # velocity-only vectors
    for mesh in (gen_square_uniform(4), gen_square_crisscross(4), gen_lshape(4)):
        case = zero_case(mesh.domain)
        system = assemble_global(
            mesh, Params(nu=1.0, L0=0.5, c_u=1.0, N_u=100.0, N_p=100.0), case
        )
        n = mesh.n_vertices
        u_dofs = np.ones(3 * n, dtype=bool)
        u_dofs[2::3] = False
        a_uu = system.matrix.toarray()[np.ix_(u_dofs, u_dofs)]
        for _ in range(20):
            x = rng.standard_normal(2 * n)
            assert x @ a_uu @ x > 0.0


def _digest(digest, name, a):
    a = np.asarray(a)
    digest.update(f"{name}:{a.dtype.str}:{a.shape}".encode())
    digest.update(np.ascontiguousarray(a).tobytes())


def _digest_sparse(digest, name, m):
    m = m.tocsr(copy=True)
    m.sort_indices()
    for part in ("indptr", "indices", "data"):
        _digest(digest, f"{name}.{part}", getattr(m, part))


def _system_fingerprints(mesh, case, params, corner_strategy) -> tuple[str, str]:
    """sha256 over the assembled matrix and, for the strong form, the
    transform, offset and reduced matrix; and sha256 over the RHS and, for
    the strong form, the reduced RHS."""
    system = assemble_global(mesh, params, case)
    matrix, rhs = hashlib.sha256(), hashlib.sha256()
    _digest_sparse(matrix, "matrix", system.matrix)
    _digest(rhs, "rhs", system.rhs)
    if params.formulation == "stabilised-strong":
        reduced = apply_strong_bc(system, mesh, case, corner_strategy)
        _digest_sparse(matrix, "transform", reduced.transform)
        _digest(matrix, "offset", reduced.offset)
        _digest_sparse(matrix, "reduced", reduced.matrix)
        _digest(rhs, "reduced_rhs", reduced.rhs)
    return matrix.hexdigest(), rhs.hexdigest()


_SYSTEM_MESHES = {
    "square-uniform": (gen_square_uniform, square_case),
    "square-ps": (lambda n: powell_sabin_refine(gen_square_uniform(n)), square_case),
    "lshape-crisscross": (gen_lshape, lambda: lshape_case(1)),
    "curved-ps": (
        lambda n: powell_sabin_refine(map_to_curved_l(gen_lshape(n))),
        lambda: curved_l_case(1),
    ),
}

# form -> (formulation, corner strategy)
_SYSTEM_FORMS = {
    "galerkin-nitsche": ("galerkin-nitsche", None),
    "stabilised-nitsche": ("stabilised-nitsche", None),
    "strong-both-zero": ("stabilised-strong", "both-zero"),
    "strong-free": ("stabilised-strong", "free"),
    "strong-bisector-normal": ("stabilised-strong", "bisector-normal"),
}

# (matrix hash, RHS hash). The matrix hashes are those of the per-edge and
# per-vertex boundary code that maxnit.assembly had before its batched edge
# kernel; so are the RHS hashes of the L-shape and curved-L cases, which
# also cover the corner value pinned to zero. The square RHS hashes are
# those of the 25-point source rule (RHS_TRI_DEGREE = 8) with f scaled by
# the Params' nu = 1.3; they equal the hashes of the former square case
# built with its own nu = 1.3. These are the only intended changes to any
# of these systems since.
_SYSTEM_FINGERPRINTS = {
    ("curved-ps", 2, "galerkin-nitsche"): (
        "59240e18fef591aab2499bac79f025f4e411d76bbae75df18d5f59f07b9b3980",
        "ae176ef07a26625daebda228833590ee8bef4636d3c950315bd4fc99b2df2f94",
    ),
    ("curved-ps", 2, "stabilised-nitsche"): (
        "41b716de6b682e8498b662c221088b6b1a75ea672d4dc610e17cc3b357f168b4",
        "ae176ef07a26625daebda228833590ee8bef4636d3c950315bd4fc99b2df2f94",
    ),
    ("curved-ps", 2, "strong-bisector-normal"): (
        "8652ff7c853aa3def510e3e6975197a85affb8485b0add666da41ef93045bc03",
        "190bcf8b123e0adbaea067501f9d288d553dc55744476b9e96603a8ca8f1e882",
    ),
    ("curved-ps", 2, "strong-both-zero"): (
        "72d614603869b8971aac77884ac43fd6160b2e51cc948758d98a7f42545ebf52",
        "70280a54b54eee1276b48c1c966fe3e06009a9665466295e6a8a84e41aa0c594",
    ),
    ("curved-ps", 2, "strong-free"): (
        "933cb8e9f08bc7b4b69213f5bcf73bac6ca98805cf5eeb5f6bbdadffbb93c268",
        "587ff805e17a62d84073575aa4960326446d158384b1ff95f3e9abf1307b5a1d",
    ),
    ("curved-ps", 4, "galerkin-nitsche"): (
        "d5c09fcb79b4e41db096f6107b187adcffe8ce21d47f9fb9656372723f95baa4",
        "da18ced904c3733a76b577f2b03a5e816d98a75afd7e1dd62bcf1b9ea9408c41",
    ),
    ("curved-ps", 4, "stabilised-nitsche"): (
        "d9efb3650e6d3878793a11666676d53d65c8a1efb85cb5d778981ed497a5eb58",
        "da18ced904c3733a76b577f2b03a5e816d98a75afd7e1dd62bcf1b9ea9408c41",
    ),
    ("curved-ps", 4, "strong-bisector-normal"): (
        "e7f440706c10db7002ddaac9a4384d1a50e87c2aed2b7fe0189ba782725fb48f",
        "929b95615c150cfe243a337c5173c549deb3d11980f8546b15de924031246316",
    ),
    ("curved-ps", 4, "strong-both-zero"): (
        "e905247b69aa3f66e942f5db37da8b32c1e2f174c5a7c25586ac5903bd58a7ba",
        "232bcdff03e412b8927c48722824160551e93d4b2277452060147221cd8c0cb9",
    ),
    ("curved-ps", 4, "strong-free"): (
        "bb212971d08e80d56f58d12ee70d538dd8531ddfbce93187767c29d5c5451949",
        "d3e8f24338c4c5fdefad2fe22c8da87d71398429159a6dca09e8ab00b35db874",
    ),
    ("lshape-crisscross", 2, "galerkin-nitsche"): (
        "624fd97736c96b1cd05a10802b83f3afe0015296f50b19b3ef996531b95d00bb",
        "633b8bb20b6d077dc8689a006544ca3ee44c62f5149e692836808974cb93bbfb",
    ),
    ("lshape-crisscross", 2, "stabilised-nitsche"): (
        "5cf18b4d623a7ae30583a92888095331dbf42fae998e4c654c4684225c66bca5",
        "633b8bb20b6d077dc8689a006544ca3ee44c62f5149e692836808974cb93bbfb",
    ),
    ("lshape-crisscross", 2, "strong-bisector-normal"): (
        "32d931fe6e689f11e1cc677e171462354f0bb2b3215f2121ee5ffd09b3f2120c",
        "ade6d8550e258c87aa245443b4731a00ab251e4a8d6e34ad75171275e44eed58",
    ),
    ("lshape-crisscross", 2, "strong-both-zero"): (
        "b834a07090a2551489b8be9ab20f26c4a86e73dd7e1f4e1775cdced922152372",
        "6d693cb249a191e9ce85fb224a6f61caf4c88d5c72a3785609fcb1a37482f2ae",
    ),
    ("lshape-crisscross", 2, "strong-free"): (
        "af47de9df2cfeae6c596b4fd8a49202499141422792478125811fd92f57ff19f",
        "09252f52b6fd9ad8a815bf58d3e8776fdb1575bf6b38f03b01c11ca70f49e483",
    ),
    ("lshape-crisscross", 4, "galerkin-nitsche"): (
        "21b94ce3b661f542e98c6838001a383f8d8c1a6314041d1b6b653a110a89fdbe",
        "92121ca99f11d6421a3ac924f5ebedf86c3d67a67693ce6bccd1a3d1acd81476",
    ),
    ("lshape-crisscross", 4, "stabilised-nitsche"): (
        "f92b4276bdb7d651029d4e4d54d758963c0dacd65a68f6556da2ebd428df4ead",
        "92121ca99f11d6421a3ac924f5ebedf86c3d67a67693ce6bccd1a3d1acd81476",
    ),
    ("lshape-crisscross", 4, "strong-bisector-normal"): (
        "d2edab6e98c133c5e6981c18b217d8831c90c481637c779004e9d6da1a3101a6",
        "c11bd1540899045e98d8df6d1bbdd8275f0ff3e4702b5096acabcb7f9b35c246",
    ),
    ("lshape-crisscross", 4, "strong-both-zero"): (
        "715cda2d333188c1a0f676da31d70e95f64b6b25e4c8dc1a88c941de32f9df93",
        "e001da03c0d822d8592ea2f8d72d4ecdab9366f9cd063175aa98599b0efc6cbb",
    ),
    ("lshape-crisscross", 4, "strong-free"): (
        "566d96a232238852d54c8c8e26d3288d8f6caaab1413f0fd72d04d38e4044ec4",
        "0e6cae0f0f1ed08cfa89288f803077ce7232c7591dc5eb63b754783c0c2fcc08",
    ),
    ("square-ps", 2, "galerkin-nitsche"): (
        "ff49c30525e0af577dbe38d2fb0b9dd0a2f9e1d91d90372bba70b1a5f7a18240",
        "15b7df9e8e43ed34f6321e590215d58fe5f0ef5a768d4631236b5a3f3d82f7f7",
    ),
    ("square-ps", 2, "stabilised-nitsche"): (
        "c1e381fd64b6cfa61945218e0f2d16b274815dac2c99cc7edff4e0ed512e7294",
        "15b7df9e8e43ed34f6321e590215d58fe5f0ef5a768d4631236b5a3f3d82f7f7",
    ),
    ("square-ps", 2, "strong-bisector-normal"): (
        "b70764878a075420174424f095a798781bb3f5513229f960afafb97dbac650a8",
        "0f54aaab9eb26945e213c6a9b6767839e3b11d00766988602ad1e43669927b93",
    ),
    ("square-ps", 2, "strong-both-zero"): (
        "b70764878a075420174424f095a798781bb3f5513229f960afafb97dbac650a8",
        "0f54aaab9eb26945e213c6a9b6767839e3b11d00766988602ad1e43669927b93",
    ),
    ("square-ps", 2, "strong-free"): (
        "b70764878a075420174424f095a798781bb3f5513229f960afafb97dbac650a8",
        "0f54aaab9eb26945e213c6a9b6767839e3b11d00766988602ad1e43669927b93",
    ),
    ("square-ps", 4, "galerkin-nitsche"): (
        "9bc23a22dcfad47950af80a03431ed19f43d1d65ad1caa3af4e914169a3a7363",
        "75b148cdf981c03de3c42200654baf9db09e9bf46ea319ad752fbefd2a3aa615",
    ),
    ("square-ps", 4, "stabilised-nitsche"): (
        "21854585c417289c3beab6c2477ba6b6791bb3e190b0d2266520c189bcc92328",
        "75b148cdf981c03de3c42200654baf9db09e9bf46ea319ad752fbefd2a3aa615",
    ),
    ("square-ps", 4, "strong-bisector-normal"): (
        "c4298cb36e67b562d1291bf3e4a5dcc2cf1592dc4fdeb9aa5243f56deb68c7df",
        "8ac3cf3c81241e92dd6c379785a60cc874c594d1224103e34decc1d7d3e4f286",
    ),
    ("square-ps", 4, "strong-both-zero"): (
        "c4298cb36e67b562d1291bf3e4a5dcc2cf1592dc4fdeb9aa5243f56deb68c7df",
        "8ac3cf3c81241e92dd6c379785a60cc874c594d1224103e34decc1d7d3e4f286",
    ),
    ("square-ps", 4, "strong-free"): (
        "c4298cb36e67b562d1291bf3e4a5dcc2cf1592dc4fdeb9aa5243f56deb68c7df",
        "8ac3cf3c81241e92dd6c379785a60cc874c594d1224103e34decc1d7d3e4f286",
    ),
    ("square-uniform", 2, "galerkin-nitsche"): (
        "46d3bf76d8cbd40d96a7b6488f682ecd79c8c7b098f70c6e05f558c25a3b6bec",
        "355fccf7cc6f09c4d970854b970923fd624c44a3f27d03adcc63d31dfd1e50ba",
    ),
    ("square-uniform", 2, "stabilised-nitsche"): (
        "9fb1e9d41ef7093ac79f4f01d0cf3f09eafe0c6029276646ef1373f7bac87f98",
        "355fccf7cc6f09c4d970854b970923fd624c44a3f27d03adcc63d31dfd1e50ba",
    ),
    ("square-uniform", 2, "strong-bisector-normal"): (
        "13a64420ea3ed5ca7c30a0506050cd04833f684e921d7a57ed0d8c2c3733fed6",
        "d57fb234156a458df7ed377735b87595ff8c27cc0367e4e50ccda07094a97109",
    ),
    ("square-uniform", 2, "strong-both-zero"): (
        "13a64420ea3ed5ca7c30a0506050cd04833f684e921d7a57ed0d8c2c3733fed6",
        "d57fb234156a458df7ed377735b87595ff8c27cc0367e4e50ccda07094a97109",
    ),
    ("square-uniform", 2, "strong-free"): (
        "13a64420ea3ed5ca7c30a0506050cd04833f684e921d7a57ed0d8c2c3733fed6",
        "d57fb234156a458df7ed377735b87595ff8c27cc0367e4e50ccda07094a97109",
    ),
    ("square-uniform", 4, "galerkin-nitsche"): (
        "b97bb8a9a1d632f719d2631f1c83bdbd803f14a279534d3c4215bb53fadb05e5",
        "e7c2d35e1b5cb514ba3f72992a26dd81b29c9abbda7362882c6af7028cbd5168",
    ),
    ("square-uniform", 4, "stabilised-nitsche"): (
        "c8067679ea9f3d861290e6c1bda9b15283c71478d0c77e92cf795d6eb57c5bc5",
        "e7c2d35e1b5cb514ba3f72992a26dd81b29c9abbda7362882c6af7028cbd5168",
    ),
    ("square-uniform", 4, "strong-bisector-normal"): (
        "999f819ef40ea5ffd60a05587c9e4661095d1b5f6bfeceec9256f09bc543dd58",
        "8e8778338b7e90b86d0993f70a3e4f3b1a525fe40699d9dea03a5437b343d6c3",
    ),
    ("square-uniform", 4, "strong-both-zero"): (
        "999f819ef40ea5ffd60a05587c9e4661095d1b5f6bfeceec9256f09bc543dd58",
        "8e8778338b7e90b86d0993f70a3e4f3b1a525fe40699d9dea03a5437b343d6c3",
    ),
    ("square-uniform", 4, "strong-free"): (
        "999f819ef40ea5ffd60a05587c9e4661095d1b5f6bfeceec9256f09bc543dd58",
        "8e8778338b7e90b86d0993f70a3e4f3b1a525fe40699d9dea03a5437b343d6c3",
    ),
}


_FINGERPRINT_PARAMS = Params(nu=1.3, L0=0.6, c_u=0.7, N_u=40.0, N_p=25.0)


def _fingerprint_params(formulation) -> Params:
    """`_FINGERPRINT_PARAMS` of `formulation`, the fields that it does not
    read at their defaults: `c_u` unless stabilised, `N_u` and `N_p` if strong."""
    stabilised, strong = FORMULATIONS[formulation]
    unread = ("c_u",) * (not stabilised) + ("N_u", "N_p") * strong
    defaults = {name: getattr(Params, name) for name in unread}
    return replace(_FINGERPRINT_PARAMS, formulation=formulation, **defaults)


def _fingerprints(family, n, form) -> tuple[str, str]:
    build, case = _SYSTEM_MESHES[family]
    formulation, corner_strategy = _SYSTEM_FORMS[form]
    params = _fingerprint_params(formulation)
    return _system_fingerprints(build(n), case(), params, corner_strategy)


@pytest.mark.parametrize("family, n, form", sorted(_SYSTEM_FINGERPRINTS))
def test_system_fingerprint(family, n, form):
    """The matrix (and the strong form's transform, offset and reduced matrix)."""
    assert _fingerprints(family, n, form)[0] == _SYSTEM_FINGERPRINTS[family, n, form][0]


@pytest.mark.parametrize("family, n, form", sorted(_SYSTEM_FINGERPRINTS))
def test_rhs_fingerprint(family, n, form):
    """The RHS (and the strong form's reduced RHS)."""
    assert _fingerprints(family, n, form)[1] == _SYSTEM_FINGERPRINTS[family, n, form][1]


# float.hex of (err_u, err_curl, err_p) of `l2_errors`, `triple_norm` and
# `boundary_data_norm` for the coefficient vector
# `default_rng(n).uniform(-1, 1, 3 n_vertices)` and `_FINGERPRINT_PARAMS`.
# Level 16 maps more than `_BLOCK` triangles, and on the L-shape and curved L
# it splits the error rule at the singular corner.
_NORM_FINGERPRINTS = {
    ("curved-ps", 4): (
        "0x1.6443f10b6a8dcp+0", "0x1.05e7169930b5dp+4", "0x1.3ca521de7904fp-1",
        "0x1.e26a48227845ep+8", "0x1.e3a3b3d9d216bp+0",
    ),
    ("curved-ps", 16): (
        "0x1.76b1d3f383ebdp+0", "0x1.06863f20ba720p+6", "0x1.2fae0a16cafdcp-1",
        "0x1.a9a1e8d33274fp+12", "0x1.de0daccf298bap+1",
    ),
    ("lshape-crisscross", 4): (
        "0x1.955755411c790p+0", "0x1.20983626494e1p+2", "0x1.744b7ca6899bep-1",
        "0x1.1d656c4e309edp+6", "0x1.c8b6bcf7cf7f3p+0",
    ),
    ("lshape-crisscross", 16): (
        "0x1.b2833bad36a78p+0", "0x1.78d4f45b3e8b4p+4", "0x1.6ed3ac690c5dep-1",
        "0x1.cd34d70067a39p+9", "0x1.c8b6bcf7cebdcp+1",
    ),
    ("square-ps", 4): (
        "0x1.ce32dadff8f30p+0", "0x1.a6444b40858c4p+3", "0x1.a4aa62a9fe500p-1",
        "0x1.5cee05a0fa352p+8", "0x1.19de752da9b87p+4",
    ),
    ("square-ps", 16): (
        "0x1.de0bfde901ee2p+0", "0x1.9b3c962773f99p+5", "0x1.989e88a131d18p-1",
        "0x1.0c4263dd9e52fp+12", "0x1.6089516c48bfcp+4",
    ),
    ("square-uniform", 4): (
        "0x1.c70a8b75c92dap+0", "0x1.86fa9a9547071p+2", "0x1.e11ced7dd2b63p-1",
        "0x1.4170de4f121bbp+6", "0x1.073048f015c14p+4",
    ),
    ("square-uniform", 16): (
        "0x1.eb00ff21961bap+0", "0x1.2bc1e2830d14cp+4", "0x1.9a20002003befp-1",
        "0x1.27cd325092c6bp+9", "0x1.3b2d0db480554p+4",
    ),
}


@pytest.mark.parametrize("family, n", sorted(_NORM_FINGERPRINTS))
def test_norm_fingerprint(family, n):
    """The error and stability norms, bit for bit, like the systems above."""
    build, case = _SYSTEM_MESHES[family]
    mesh, case = build(n), case()
    x = np.random.default_rng(n).uniform(-1.0, 1.0, 3 * mesh.n_vertices)
    rep = l2_errors(mesh, x, case)
    norms = (
        rep.err_u,
        rep.err_curl,
        rep.err_p,
        triple_norm(mesh, x, _FINGERPRINT_PARAMS),
        boundary_data_norm(mesh, case, _FINGERPRINT_PARAMS),
    )
    assert tuple(v.hex() for v in norms) == _NORM_FINGERPRINTS[family, n]
