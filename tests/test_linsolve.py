import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from maxnit import linsolve
from maxnit.analysis import l2_errors
from maxnit.assembly import (
    CORNER_STRATEGIES,
    FORMULATIONS,
    LinearSystem,
    Params,
    apply_strong_bc,
    assemble_global,
)
from maxnit.harness import _MESHES, StudyConfig, build_case, build_mesh, run_studies, run_study
from maxnit.linsolve import (
    BorderedLU,
    ResidualError,
    SingularSystemError,
    _check_condition,
    _inverse_norm1,
    factorize_system,
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
    u = sol.coeffs.reshape(-1, 3)[:, :2]
    assert np.abs(u - case.exact_u(mesh.vertices)).max() < 1e-10
    assert sol.residual < 1e-10


def test_accessors():
    mesh = gen_square_uniform(2)
    sol = solve(assemble_global(mesh, Params(), rotation_patch_case()))
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


def whole(matrix, border=()):
    """A system of `matrix` alone: no strong reduction, `border` its corner."""
    return LinearSystem(matrix, np.zeros(matrix.shape[0]),
                        corner=np.asarray(border, dtype=np.intp))


def crisscross_matrix(n, N_p, formulation="galerkin-nitsche"):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # penalties below the stability estimate
        params = Params(N_u=100.0, N_p=N_p, formulation=formulation)
    return assemble_global(gen_square_crisscross(n), params, square_case()).matrix


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("N_p", [1e-16, 0.0])
def test_factorize_rejects_vanishing_pressure_penalty(n, N_p):
    # n=4, N_p=0 is the matrix of test_singular_system_detected; the pivot
    # ratio of every case here is below 1e-17
    with pytest.raises(SingularSystemError, match="numerically singular"):
        factorize_system(whole(crisscross_matrix(n, N_p)))


def test_symmetric_ordering_rejects_an_ill_conditioned_core(monkeypatch):
    # the diagonal pivots of the quasi-definite ordering must not hide a
    # condition estimate past the limit: c_u = 1e300 puts it near 2e300
    calls = []
    monkeypatch.setattr(linsolve, "spla", _SplaView(calls))
    mesh, case = build_mesh("lshape", "crisscross", 4), build_case("lshape:1")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        params = Params(formulation="stabilised-strong", c_u=1e300)
        full = assemble_global(mesh, params, case)
    system = apply_strong_bc(full, mesh, case, "both-zero")
    with pytest.raises(SingularSystemError, match=r"estimate \d\.\de\+300"):
        factorize_system(system)
    [(_, options)] = calls
    assert options["permc_spec"] == "MMD_AT_PLUS_A"


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize(
    "formulation, N_p",
    [("galerkin-nitsche", N_p) for N_p in (100.0, 1e-4, 1e-8)]
    + [("stabilised-nitsche", N_p) for N_p in (100.0, 1e-4, 1e-8, 1e-12, 1e-16, 0.0)],
)
def test_factorize_accepts_regular_systems(n, formulation, N_p):
    matrix = crisscross_matrix(n, N_p, formulation)
    lu = factorize_system(whole(matrix))
    assert lu.shape == matrix.shape


STRONG_SYSTEMS = {
    "lshape-crisscross-8": ("lshape:1", "crisscross", 8, Params(L0=0.5, c_u=1.0)),
    "lshape-powell-sabin-4": ("lshape:1", "powell-sabin", 4, Params(L0=0.5, c_u=1.0)),
    "curved-l-powell-sabin-4": ("curved-l:1", "powell-sabin", 4, Params(L0=0.5, c_u=0.1)),
    "square-powell-sabin-4": ("square", "powell-sabin", 4, Params(L0=2.0, c_u=1.0)),
}
# the systems with a re-entrant corner
CORNER_SYSTEMS = sorted(set(STRONG_SYSTEMS) - {"square-powell-sabin-4"})


def reduced_strong_system(name, corner_strategy, formulation="stabilised-strong"):
    case_name, family, level, params = STRONG_SYSTEMS[name]
    case = build_case(case_name)
    mesh = build_mesh(case.domain, family, level)
    full = assemble_global(mesh, replace(params, formulation=formulation), case)
    return mesh, case, apply_strong_bc(full, mesh, case, corner_strategy)


@pytest.mark.parametrize("corner_strategy", CORNER_STRATEGIES)
@pytest.mark.parametrize("name", sorted(STRONG_SYSTEMS))
def test_reduced_strong_system_is_quasi_definite(name, corner_strategy):
    # the precondition of factorize_system's symmetric ordering: exact
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


def unbordered(system):
    """`system` without its border: `solve` takes an LU of the whole matrix."""
    return replace(system, corner=np.zeros(0, dtype=np.intp))


@pytest.mark.parametrize("corner_strategy", CORNER_STRATEGIES)
@pytest.mark.parametrize("name", sorted(STRONG_SYSTEMS))
def test_quasi_definite_ordering_changes_errors_by_rounding_only(name, corner_strategy):
    # the symmetric-ordered, bordered solve against COLAMD on the whole matrix
    mesh, case, system = reduced_strong_system(name, corner_strategy)
    x = solve(unbordered(system), lu=factorize_system(whole(system.matrix))).coeffs
    default = l2_errors(mesh, x, case)
    symmetric = l2_errors(mesh, solve(system).coeffs, case)
    for field in ("err_u", "err_curl", "err_p"):
        assert getattr(symmetric, field) == pytest.approx(getattr(default, field), rel=1e-12)


def bordered(system):
    """The solver of `system` through the LU of its core."""
    return BorderedLU(factorize_system(system), system.matrix, system.corner)


@pytest.mark.parametrize("corner_strategy", CORNER_STRATEGIES)
@pytest.mark.parametrize("name", CORNER_SYSTEMS)
def test_bordered_solve_equals_own_factorisation(name, corner_strategy):
    _, _, system = reduced_strong_system(name, corner_strategy)
    kept = {"both-zero": 0, "bisector-normal": 1, "free": 2}[corner_strategy]
    assert len(system.corner) == kept
    own = factorize_system(unbordered(system))
    solver = bordered(system)
    assert solver.shape == system.matrix.shape
    b = system.rhs
    ref = own.solve(b)
    assert np.abs(solver.solve(b) - ref).max() <= 1e-12 * np.abs(ref).max()
    refined, direct = solve(system), solve(unbordered(system), lu=own)
    assert refined.residual <= 1e-12
    diff = np.abs(refined.coeffs - direct.coeffs).max()
    assert diff <= 1e-12 * np.abs(direct.coeffs).max()


@pytest.mark.parametrize("domain, family", [k for k in _MESHES if k[0] != "square"])
def test_core_of_every_strategy_is_the_both_zero_matrix(monkeypatch, domain, family):
    # SuperLU is handed the CSC view of the core's transpose, which holds the
    # core's CSR arrays; with an empty border the core is the matrix itself
    calls = []
    monkeypatch.setattr(linsolve, "spla", _SplaView(calls))
    mesh, case = build_mesh(domain, family, 4), build_case(f"{domain}:1")
    full = assemble_global(mesh, Params(formulation="stabilised-strong"), case)
    both_zero = apply_strong_bc(full, mesh, case, "both-zero").matrix
    for strategy in CORNER_STRATEGIES:
        system = apply_strong_bc(full, mesh, case, strategy)
        factorize_system(system)
        [((handed,), _)] = calls
        calls.clear()
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(handed, part), getattr(both_zero, part))
        if not len(system.corner):
            assert np.shares_memory(handed.data, system.matrix.data)


def with_border_block(system, block):
    """`system.matrix` with `block` added to its corner-by-corner block."""
    c = system.corner
    rows, cols = np.repeat(c, len(c)), np.tile(c, len(c))
    delta = sp.csr_matrix((block.ravel(), (rows, cols)), shape=system.matrix.shape)
    return (system.matrix + delta).tocsr()


@pytest.mark.parametrize("corner_strategy", ["free", "bisector-normal"])
def test_singular_or_non_finite_schur_complement_is_rejected(corner_strategy):
    _, _, system = reduced_strong_system("lshape-crisscross-8", corner_strategy)
    c = system.corner
    keep = np.setdiff1d(np.arange(system.n_unknowns), c)
    a = system.matrix.toarray()
    core = factorize_system(system)
    schur = a[np.ix_(c, c)] - a[np.ix_(c, keep)] @ core.solve(a[np.ix_(keep, c)])
    schur = 0.5 * (schur + schur.T)
    # S becomes zero, or for two border unknowns the rank-one matrix of ones
    scale = np.abs(schur).max()
    singular = -schur + (scale * np.ones((2, 2)) if len(c) == 2 else 0.0)
    for block in (singular, np.full((len(c), len(c)), np.nan)):
        with pytest.raises(SingularSystemError):
            BorderedLU(core, with_border_block(system, block), c)


def test_shape_mismatch_is_rejected():
    _, _, system = reduced_strong_system("lshape-crisscross-8", "free")
    own = factorize_system(unbordered(system))
    with pytest.raises(ValueError, match="border unknowns"):
        BorderedLU(own, system.matrix, system.corner)


def test_lone_solve_takes_the_study_path(monkeypatch):
    # `solve(system)` factors and borders a strong system as `run_studies`
    # does for a group of corner strategies: same errors, bit for bit
    case_name, family, level, params = STRONG_SYSTEMS["lshape-crisscross-8"]
    params = replace(params, formulation="stabilised-strong")
    configs = [
        StudyConfig(case_name, family, [level], params, corner_strategy=s)
        for s in CORNER_STRATEGIES
    ]
    studies = run_studies(configs)
    calls = []
    monkeypatch.setattr(linsolve, "spla", _SplaView(calls))
    for strategy, study in zip(CORNER_STRATEGIES, studies):
        mesh, case, system = reduced_strong_system("lshape-crisscross-8", strategy)
        lone = l2_errors(mesh, solve(system).coeffs, case)
        [((handed,), options)] = calls
        calls.clear()
        assert options["permc_spec"] == "MMD_AT_PLUS_A"
        assert handed.shape == (system.matrix.shape[0] - len(system.corner),) * 2
        for field in ("h", "dofs", "err_u", "err_curl", "err_p"):
            assert getattr(lone, field) == getattr(study.reports[0], field)


@pytest.mark.parametrize("domain, family", [k for k in _MESHES if k[0] != "square"])
def test_stabilised_strong_core_takes_the_symmetric_ordering(monkeypatch, domain, family):
    calls = []
    monkeypatch.setattr(linsolve, "spla", _SplaView(calls))
    mesh, case = build_mesh(domain, family, 4), build_case(f"{domain}:1")
    full = assemble_global(mesh, Params(formulation="stabilised-strong"), case)
    for strategy in CORNER_STRATEGIES:
        factorize_system(apply_strong_bc(full, mesh, case, strategy))
        [(_, options)] = calls
        calls.clear()
        assert options["permc_spec"] == "MMD_AT_PLUS_A"


@pytest.mark.parametrize("corner_strategy", CORNER_STRATEGIES)
def test_galerkin_system_reduced_strongly_is_solved(monkeypatch, corner_strategy):
    # a zero pressure block inside the domain: the core is not quasi-definite
    # and takes COLAMD with partial pivoting
    name = "lshape-powell-sabin-4"
    _, _, system = reduced_strong_system(name, corner_strategy, "galerkin-nitsche")
    calls = []
    monkeypatch.setattr(linsolve, "spla", _SplaView(calls))
    sol = solve(system)
    [(_, options)] = calls
    assert options == {}
    assert sol.residual <= 1e-10
    # the core's COLAMD LU, without the strong reduction that chose it
    ref = solve(system, lu=factorize_system(replace(system, transform=None)))
    assert np.array_equal(sol.coeffs, ref.coeffs)


@pytest.mark.parametrize("name", ["lshape-crisscross-8"])
def test_galerkin_system_reduced_strongly_is_rejected(name):
    # criss-cross P1-P1 Galerkin is singular, whatever the ordering
    _, _, system = reduced_strong_system(name, "both-zero", "galerkin-nitsche")
    with pytest.raises(SingularSystemError, match="numerically singular"):
        solve(system)


def small_bordered_systems(rng):
    """(matrix, border, core LU) triples small enough for a dense inverse."""
    for level in (2, 4):
        mesh, case = build_mesh("lshape", "crisscross", level), build_case("lshape:1")
        full = assemble_global(mesh, Params(formulation="stabilised-strong"), case)
        for strategy in ("free", "bisector-normal"):
            system = apply_strong_bc(full, mesh, case, strategy)
            yield system.matrix, system.corner, factorize_system(system)
    dense = rng.standard_normal((40, 40))
    matrix = sp.csr_matrix(dense + dense.T + 16.0 * np.eye(40))
    border = np.array([3, 17, 39])
    yield matrix, border, factorize_system(whole(matrix, border))


def test_inverse_norm1_through_the_border_is_a_close_lower_bound(rng):
    for matrix, border, core in small_bordered_systems(rng):
        exact = np.linalg.cond(matrix.toarray(), 1) / spla.norm(matrix, 1)
        est = _inverse_norm1(BorderedLU(core, matrix, border))
        assert exact / 10.0 <= est <= exact * (1.0 + 1e-10)


def test_bordered_solve_takes_blocks(rng):
    for matrix, border, core in small_bordered_systems(rng):
        solver = BorderedLU(core, matrix, border)
        rhs = rng.standard_normal((matrix.shape[0], 2))
        ref = np.linalg.solve(matrix.toarray(), rhs)
        x = solver.solve(rhs)
        assert x.shape == rhs.shape
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
        column = solver.solve(rhs[:, 1])
        assert np.abs(column - x[:, 1]).max() <= 1e-14 * np.abs(x).max()


class _CountedSolves:
    """SuperLU stand-in that counts its solves; those after the first
    `finite` ones are NaN."""

    def __init__(self, lu, finite=np.inf):
        self._lu, self.shape, self.finite, self.solves = lu, lu.shape, finite, 0

    def solve(self, rhs):
        self.solves += 1
        x = self._lu.solve(rhs)
        return x if self.solves <= self.finite else np.full_like(x, np.nan)


def free_system_and_b_entry():
    """The lshape-crisscross-8 `free` system and the (row, column) of an
    entry of B: a nonzero of the first border column outside the border."""
    _, _, system = reduced_strong_system("lshape-crisscross-8", "free")
    c = system.corner
    return system, (np.setdiff1d(system.matrix[:, c[0]].nonzero()[0], c)[0], c[0])


def test_asymmetric_border_is_rejected_before_a_solve():
    # B scaled at one entry: the border rows no longer hold B^T; unchecked,
    # refinement ends at a residual of 2.1e-5
    system, entry = free_system_and_b_entry()
    matrix = system.matrix.copy()
    matrix[entry] *= 1.5
    asymmetric = replace(system, matrix=matrix)
    core = _CountedSolves(factorize_system(asymmetric))
    with pytest.raises(ValueError, match="border rows are not the transpose"):
        BorderedLU(core, matrix, system.corner)
    assert core.solves == 0
    with pytest.raises(ValueError, match="border rows are not the transpose"):
        solve(asymmetric)


def test_nan_entries_are_singular_not_asymmetric():
    # NaN counts as equal to NaN in both symmetry checks, so a matrix with NaN
    # entries stays a solver failure (CLI exit 3), not a ValueError
    with pytest.raises(SingularSystemError):
        factorize_system(whole(crisscross_matrix(2, 100.0) * np.nan))
    system, (row, col) = free_system_and_b_entry()
    matrix = system.matrix.copy()
    matrix[row, col] = matrix[col, row] = np.nan
    with pytest.raises(SingularSystemError, match="border Schur complement is not finite"):
        BorderedLU(factorize_system(system), matrix, system.corner)


def small_strong_system():
    mesh, case = gen_square_uniform(3), square_case()
    strong = assemble_global(mesh, Params(formulation="stabilised-strong"), case)
    return apply_strong_bc(strong, mesh, case, "both-zero")


def small_matrices(rng):
    yield crisscross_matrix(2, 100.0)
    yield crisscross_matrix(4, 1e-4)
    yield crisscross_matrix(4, 0.0, "stabilised-nitsche")
    yield small_strong_system().matrix
    dense = rng.standard_normal((40, 40))
    yield sp.csr_matrix(dense + dense.T + 8.0 * np.eye(40))
    yield sp.diags([1.0, 1e-3, 1e3, 1e-6])


def test_inverse_norm1_is_a_close_lower_bound(rng):
    for matrix in small_matrices(rng):
        exact = np.linalg.cond(matrix.toarray(), 1) / spla.norm(matrix, 1)
        est = _inverse_norm1(spla.splu(sp.csc_matrix(matrix)))
        assert exact / 10.0 <= est <= exact * (1.0 + 1e-10)


def test_inverse_norm1_is_deterministic_and_leaves_global_rng_alone():
    lu = spla.splu(sp.csc_matrix(crisscross_matrix(8, 1e-4)))
    before = np.random.get_state()
    first = _inverse_norm1(lu)
    second = _inverse_norm1(lu)
    after = np.random.get_state()
    assert first == second
    assert before[0] == after[0] and before[2:] == after[2:]
    assert np.array_equal(before[1], after[1])


def test_non_finite_solve_is_an_infinite_estimate():
    matrix = crisscross_matrix(4, 1e-4)
    lu = _CountedSolves(spla.splu(sp.csc_matrix(matrix)), finite=1)
    assert _inverse_norm1(lu) == np.inf
    assert lu.solves > 1
    with pytest.raises(SingularSystemError, match="numerically singular"):
        _check_condition(spla.norm(matrix, 1), lu)


class _FactorsOnly:
    """SuperLU stand-in that forwards solves and sizes and fails on any other
    attribute: the first read of `L` or `U` makes SuperLU keep CSC copies of
    both factors."""

    def __init__(self, lu):
        self._lu = lu
        self.shape, self.nnz = lu.shape, lu.nnz
        self.perm_r, self.perm_c = lu.perm_r, lu.perm_c

    def solve(self, rhs):
        return self._lu.solve(rhs)

    def __getattr__(self, name):
        raise AssertionError(f"SuperLU.{name} read")


class _SplaView:
    def __init__(self, calls):
        self.calls = calls

    def __getattr__(self, name):
        return getattr(spla, name)

    def splu(self, *args, **kwargs):
        self.calls.append((args, kwargs))
        return _FactorsOnly(spla.splu(*args, **kwargs))


def test_no_factor_copies(monkeypatch):
    calls = []
    monkeypatch.setattr(linsolve, "spla", _SplaView(calls))
    with pytest.raises(AssertionError, match="SuperLU.U read"):
        factorize_system(whole(crisscross_matrix(2, 100.0))).U
    system = assemble_global(gen_square_uniform(3), Params(), square_case())
    sol = solve(system, lu=factorize_system(system))
    assert sol.residual < 1e-10
    report = run_study(StudyConfig("square", "uniform", [2, 4]))
    assert len(report.reports) == 2
    assert len(calls) == 4


HANDOFF_SYSTEMS = {
    "weak": lambda: assemble_global(gen_square_crisscross(4), Params(), square_case()),
    "strong": lambda: reduced_strong_system("lshape-crisscross-8", "free")[2],
}


@pytest.mark.parametrize("kind", sorted(HANDOFF_SYSTEMS))
def test_symmetric_matrix_reaches_superlu_without_a_copy(monkeypatch, kind):
    calls = []
    monkeypatch.setattr(linsolve, "spla", _SplaView(calls))
    system = HANDOFF_SYSTEMS[kind]()
    lu = factorize_system(unbordered(system))
    [((handed,), options)] = calls
    assert bool(options) == (kind == "strong")
    assert np.shares_memory(handed.data, system.matrix.data)
    assert np.shares_memory(handed.indices, system.matrix.indices)
    copied = spla.splu(system.matrix.tocsc(), **options)
    assert np.array_equal(lu.solve(system.rhs), copied.solve(system.rhs))


def test_weak_system_is_factorised_whole_by_colamd(monkeypatch):
    calls = []
    monkeypatch.setattr(linsolve, "spla", _SplaView(calls))
    mesh, case = gen_square_crisscross(4), square_case()
    for formulation in ("stabilised-nitsche", "galerkin-nitsche"):
        system = assemble_global(mesh, Params(formulation=formulation), case)
        factorize_system(system)
        [((handed,), options)] = calls
        calls.clear()
        assert options == {}
        assert handed.shape == system.matrix.shape


@pytest.mark.parametrize("structural", [False, True])
def test_nonsymmetric_matrix_is_rejected_before_superlu(monkeypatch, rng, structural):
    calls = []
    monkeypatch.setattr(linsolve, "spla", _SplaView(calls))
    dense = rng.standard_normal((40, 40)) + 8.0 * np.eye(40)
    if structural:
        dense[0, 1:] = 0.0  # the transpose has another sparsity pattern
    system = whole(sp.csr_matrix(dense))
    with pytest.raises(ValueError, match="not a CSR matrix equal to its transpose"):
        factorize_system(system)
    with pytest.raises(ValueError, match="not a CSR matrix equal to its transpose"):
        solve(system)
    assert calls == []


def test_symmetric_matrix_must_be_csr_and_is_made_canonical(monkeypatch):
    calls = []
    monkeypatch.setattr(linsolve, "spla", _SplaView(calls))
    matrix = crisscross_matrix(2, 100.0)
    with pytest.raises(ValueError, match="not a CSR matrix"):
        factorize_system(whole(matrix.tocsc()))
    assert calls == []
    # unsorted column indices, as a permuted product leaves them
    unsorted = matrix.copy()
    for lo, hi in zip(unsorted.indptr[:-1], unsorted.indptr[1:]):
        unsorted.indices[lo:hi] = unsorted.indices[lo:hi][::-1].copy()
        unsorted.data[lo:hi] = unsorted.data[lo:hi][::-1].copy()
    unsorted.has_sorted_indices = unsorted.has_canonical_format = False
    factorize_system(whole(unsorted))
    [((handed,), _)] = calls
    assert unsorted.has_canonical_format
    assert np.shares_memory(handed.data, unsorted.data)
    assert (unsorted != matrix).nnz == 0


def test_heap_is_released_right_before_each_factorisation(monkeypatch):
    events = []
    monkeypatch.setattr(linsolve, "_malloc_trim", lambda: lambda pad: events.append(pad))
    monkeypatch.setattr(linsolve, "spla", _SplaView(events))
    factorize_system(whole(crisscross_matrix(2, 100.0)))
    factorize_system(small_strong_system())
    # malloc_trim(0), then splu, for each factorisation, either ordering
    assert [e if e == 0 else "splu" for e in events] == [0, "splu", 0, "splu"]
    assert [bool(e[1]) for e in events if e != 0] == [False, True]


def test_factorize_without_malloc_trim(monkeypatch):
    monkeypatch.setattr(linsolve, "_malloc_trim", lambda: None)
    system = assemble_global(gen_square_uniform(3), Params(), square_case())
    assert solve(system, lu=factorize_system(system)).residual < 1e-10


@pytest.mark.parametrize("formulation", FORMULATIONS)
@pytest.mark.parametrize(
    "case_name, family",
    [
        ("square", "uniform"),
        ("square", "powell-sabin"),
        ("lshape:1", "crisscross"),
        ("curved-l:2", "curved-mapped"),
        ("curved-l:2", "powell-sabin"),
    ],
)
def test_every_system_is_exactly_symmetric(formulation, case_name, family):
    # so that `factorize_system` hands every preset's matrix to SuperLU without a
    # copy; a fallback to `tocsc()` would raise the peak memory silently
    case = build_case(case_name)
    mesh = build_mesh(case.domain, family, 4)
    params = Params(formulation=formulation)
    system = assemble_global(mesh, params, case)
    matrices = [system.matrix]
    if formulation == "stabilised-strong":
        matrices = [apply_strong_bc(system, mesh, case, s).matrix for s in CORNER_STRATEGIES]
    for a in matrices:
        assert (a != a.T).nnz == 0
        assert np.shares_memory(linsolve._as_csc(a).data, a.data)


def test_residual_tolerance_enforced(monkeypatch):
    system = assemble_global(gen_square_uniform(2), Params(), square_case())
    monkeypatch.setattr(linsolve, "_RESIDUAL_TOL", 1e-30)
    monkeypatch.setattr(linsolve, "_REFINE_TOL", 1e-32)
    with pytest.raises(ResidualError):
        solve(system)


def dense_system(a, b):
    return LinearSystem(sp.csr_matrix(np.array(a, dtype=float)), np.array(b, dtype=float))


def test_overflowing_residual_fails_the_gate():
    # r and b square past 1e308 in a plain 2-norm: the residual was NaN and
    # passed the gate, while the same system scaled by 1e-200 fails it
    a = 1e16 * np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]])
    for b in ([0.0, 1e295], [0.0, 1e95]):
        with pytest.raises(ResidualError, match="relative residual"):
            solve(dense_system(a, b))


@pytest.mark.parametrize("scale", [1.0, 1e160, 1e-200])
def test_residual_gate_holds_at_any_scale_of_the_data(scale):
    # the LU of another matrix leaves a residual that refinement cannot
    # remove; a plain 2-norm of b overflows (1e160) or underflows (1e-200)
    # and let the wrong solution through with residual 0 or a tiny one
    system = dense_system([[2.0, 1.0], [1.0, 3.0]], np.array([1.0, 2.0]) * scale)
    other = factorize_system(dense_system([[2.0, 0.0], [0.0, 3.0]], [1.0, 1.0]))
    assert solve(system).residual == 0.0
    with pytest.raises(ResidualError, match="relative residual"):
        solve(system, lu=other)


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
