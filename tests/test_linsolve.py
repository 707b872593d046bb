import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from maxnit import linsolve
from maxnit.analysis import l2_errors
from maxnit.assembly import CORNER_STRATEGIES, Params, apply_strong_bc, assemble_global
from maxnit.harness import StudyConfig, build_case, build_mesh, run_study
from maxnit.linsolve import (
    ResidualError,
    SingularSystemError,
    _inverse_norm1,
    factorize,
    solve,
)
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


def crisscross_matrix(n, N_p, formulation="galerkin-nitsche"):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # penalties below the stability estimate
        params = Params(N_u=100.0, N_p=N_p, formulation=formulation)
    return assemble_global(gen_square_crisscross(n), params, square_case()).matrix


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("N_p", [1e-16, 0.0])
def test_factorize_rejects_vanishing_pressure_penalty(n, N_p):
    # n=4, N_p=0 is the matrix of test_singular_system_detected; the pivot
    # ratio of every case here is below 1e-17. The diagonal pivots of the
    # quasi-definite ordering must not hide the constant-pressure mode either.
    for quasi_definite in (False, True):
        with pytest.raises(SingularSystemError, match="numerically singular"):
            factorize(crisscross_matrix(n, N_p), quasi_definite=quasi_definite)


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize(
    "formulation, N_p",
    [("galerkin-nitsche", N_p) for N_p in (100.0, 1e-4, 1e-8)]
    + [("stabilised-nitsche", N_p) for N_p in (100.0, 1e-4, 1e-8, 1e-12, 1e-16, 0.0)],
)
def test_factorize_accepts_regular_systems(n, formulation, N_p):
    matrix = crisscross_matrix(n, N_p, formulation)
    lu = factorize(matrix)
    assert lu.shape == matrix.shape


STRONG_SYSTEMS = {
    "lshape-crisscross-8": ("lshape:1", "crisscross", 8, Params(L0=0.5, c_u=1.0)),
    "square-powell-sabin-4": ("square", "powell-sabin", 4, Params(L0=2.0, c_u=1.0)),
}


def reduced_strong_system(name, corner_strategy):
    case_name, family, level, params = STRONG_SYSTEMS[name]
    mesh, case = build_mesh(case_name, family, level), build_case(case_name)
    params = replace(params, formulation="stabilised-strong")
    full = assemble_global(mesh, params, case)
    return mesh, case, apply_strong_bc(full, mesh, case, corner_strategy)


@pytest.mark.parametrize("corner_strategy", CORNER_STRATEGIES)
@pytest.mark.parametrize("name", sorted(STRONG_SYSTEMS))
def test_reduced_strong_system_is_quasi_definite(name, corner_strategy):
    # the precondition of factorize(..., quasi_definite=True): exact
    # symmetry, an SPD velocity block and an SPD negated pressure block
    _, _, system = reduced_strong_system(name, corner_strategy)
    a = system.matrix
    assert (a != a.T).nnz == 0
    # reduced columns fed by a pressure dof; boundary pressures have none
    p_cols = system.transform[2::3].indices
    u_cols = np.setdiff1d(np.arange(a.shape[0]), p_cols)
    assert len(p_cols) + len(u_cols) == a.shape[0]
    np.linalg.cholesky(a[u_cols][:, u_cols].toarray())
    np.linalg.cholesky(-a[p_cols][:, p_cols].toarray())


@pytest.mark.parametrize("corner_strategy", CORNER_STRATEGIES)
@pytest.mark.parametrize("name", sorted(STRONG_SYSTEMS))
def test_quasi_definite_ordering_changes_errors_by_rounding_only(name, corner_strategy):
    mesh, case, system = reduced_strong_system(name, corner_strategy)
    default, symmetric = (
        l2_errors(mesh, solve(system, lu=factorize(system.matrix, quasi_definite=q)), case)
        for q in (False, True)
    )
    for field in ("err_u", "err_curl", "err_p"):
        assert getattr(symmetric, field) == pytest.approx(getattr(default, field), rel=1e-12)


def small_matrices(rng):
    mesh, case = gen_square_uniform(3), square_case()
    strong = assemble_global(mesh, Params(formulation="stabilised-strong"), case)
    yield crisscross_matrix(2, 100.0)
    yield crisscross_matrix(4, 1e-4)
    yield crisscross_matrix(4, 0.0, "stabilised-nitsche")
    yield apply_strong_bc(strong, mesh, case, "both-zero").matrix
    yield sp.csr_matrix(rng.standard_normal((40, 40)) + 8.0 * np.eye(40))
    yield sp.diags([1.0, 1e-3, 1e3, 1e-6])


def test_inverse_norm1_is_a_close_lower_bound(rng):
    for matrix in small_matrices(rng):
        exact = np.linalg.cond(matrix.toarray(), 1) / spla.norm(matrix, 1)
        est = _inverse_norm1(spla.splu(sp.csc_matrix(matrix)), matrix.shape[0])
        assert exact / 10.0 <= est <= exact * (1.0 + 1e-10)


def test_inverse_norm1_is_deterministic_and_leaves_global_rng_alone():
    lu = spla.splu(sp.csc_matrix(crisscross_matrix(8, 1e-4)))
    before = np.random.get_state()
    first = _inverse_norm1(lu, lu.shape[0])
    second = _inverse_norm1(lu, lu.shape[0])
    after = np.random.get_state()
    assert first == second
    assert before[0] == after[0] and before[2:] == after[2:]
    assert np.array_equal(before[1], after[1])


class _FactorsOnly:
    """SuperLU stand-in that forwards solves and sizes and fails on any other
    attribute: the first read of `L` or `U` makes SuperLU keep CSC copies of
    both factors."""

    def __init__(self, lu):
        self._lu = lu
        self.shape, self.nnz = lu.shape, lu.nnz
        self.perm_r, self.perm_c = lu.perm_r, lu.perm_c

    def solve(self, rhs, trans="N"):
        return self._lu.solve(rhs, trans)

    def __getattr__(self, name):
        raise AssertionError(f"SuperLU.{name} read")


class _SplaView:
    def __init__(self, calls):
        self.calls = calls

    def __getattr__(self, name):
        return getattr(spla, name)

    def splu(self, *args, **kwargs):
        self.calls.append(args)
        return _FactorsOnly(spla.splu(*args, **kwargs))


def test_no_factor_copies(monkeypatch):
    calls = []
    monkeypatch.setattr(linsolve, "spla", _SplaView(calls))
    with pytest.raises(AssertionError, match="SuperLU.U read"):
        factorize(crisscross_matrix(2, 100.0)).U
    system = assemble_global(gen_square_uniform(3), Params(), square_case())
    sol = solve(system, lu=factorize(system.matrix))
    assert sol.residual < 1e-10
    report = run_study(StudyConfig("square", "uniform", [2, 4]))
    assert len(report.reports) == 2
    assert len(calls) == 4


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
