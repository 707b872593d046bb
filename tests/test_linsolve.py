import time
import warnings

import numpy as np
import pytest

from maxnit.assembly import Params, assemble_global
from maxnit.linsolve import ResidualError, SingularSystemError, solve
from maxnit.mesh import gen_square_crisscross, gen_square_uniform
from maxnit.problems import square_case

from test_assembly import rotation_patch_case, zero_case


def test_zero_rhs_gives_zero_solution():
    system = assemble_global(gen_square_uniform(2), Params(), zero_case())
    sol = solve(system)
    assert np.all(sol.coeffs == 0.0)
    assert sol.residual == 0.0


def test_patch_system_reproduces_interpolant():
    mesh = gen_square_uniform(3)
    case = rotation_patch_case()
    sol = solve(assemble_global(mesh, Params(N_u=100.0, N_p=100.0), case))
    assert np.abs(sol.u - case.exact_u(mesh.vertices)).max() < 1e-10
    assert sol.residual < 1e-10


def test_accessors():
    mesh = gen_square_uniform(2)
    sol = solve(assemble_global(mesh, Params(), rotation_patch_case()))
    v = 4
    assert np.array_equal(sol.u[v], sol.coeffs[3 * v : 3 * v + 2])
    assert sol.p[v] == sol.coeffs[3 * v + 2]
    assert len(sol.coeffs) == 3 * mesh.n_vertices


def test_permutation_invariance(rng):
    import scipy.sparse as sp

    mesh = gen_square_uniform(4)
    system = assemble_global(mesh, Params(L0=0.5, c_u=0.5), square_case())
    sol = solve(system)

    n = system.matrix.shape[0]
    perm = rng.permutation(n)
    p_mat = sp.eye(n, format="csr")[perm]
    permuted = assemble_global(mesh, Params(L0=0.5, c_u=0.5), square_case())
    permuted.matrix = (p_mat @ system.matrix @ p_mat.T).tocsr()
    permuted.rhs = system.rhs[perm]
    sol_p = solve(permuted)
    restored = np.empty(n)
    restored[perm] = np.arange(n)
    assert np.allclose(
        sol_p.coeffs[restored.astype(int)], sol.coeffs, rtol=1e-9, atol=1e-12
    )


def test_singular_system_detected():
    # dropping both the volume and boundary pressure stabilisation leaves a
    # constant-pressure kernel mode
    mesh = gen_square_crisscross(4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        params = Params(N_u=100.0, N_p=0.0, formulation="galerkin-nitsche")
    system = assemble_global(mesh, params, square_case())
    with pytest.raises((SingularSystemError, ResidualError)):
        solve(system)


def test_residual_tolerance_enforced():
    system = assemble_global(gen_square_uniform(2), Params(), square_case())
    with pytest.raises(ResidualError):
        solve(system, tol=1e-30, refine_tol=1e-32)


def test_finest_table_level_under_budget():
    mesh = gen_square_uniform(64)
    assert 3 * mesh.n_vertices == 12675
    system = assemble_global(
        mesh, Params(nu=1.0, L0=0.1, c_u=0.1, N_u=100.0, N_p=100.0), square_case()
    )
    start = time.perf_counter()
    sol = solve(system)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    assert sol.residual < 1e-10
