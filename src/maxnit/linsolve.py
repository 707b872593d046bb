"""Direct sparse solve of the assembled symmetric indefinite system."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import LinearSystem

__all__ = ["SolutionFields", "SingularSystemError", "ResidualError", "factorize", "solve"]


class SingularSystemError(RuntimeError):
    pass


class ResidualError(RuntimeError):
    pass


@dataclass
class SolutionFields:
    """Full-length nodal coefficient vector with per-vertex accessors."""

    coeffs: np.ndarray
    n_vertices: int
    residual: float

    @property
    def u(self) -> np.ndarray:
        return self.coeffs.reshape(-1, 3)[:, :2]

    @property
    def p(self) -> np.ndarray:
        return self.coeffs.reshape(-1, 3)[:, 2]


# A system whose 1-norm condition estimate reaches this is rejected as
# singular. It is the reciprocal of a 1e-14 relative pivot floor; on the
# N_p -> 0 sweep of the Galerkin-Nitsche system (CHANGES.md) the estimate is
# at least the reciprocal pivot ratio, so such a floor rejects nothing more.
_COND_LIMIT = 1e14


def factorize(matrix, quasi_definite: bool = False) -> spla.SuperLU:
    """LU factorisation with fill-reducing ordering.

    By default SuperLU orders the columns by COLAMD and pivots partially.
    `quasi_definite=True` asserts that the matrix is symmetric with an SPD
    leading block and a negative definite trailing block, up to a symmetric
    permutation (the stabilised-strong reduced systems). Every symmetric
    ordering of such a matrix factors stably without pivoting (Vanderbei,
    SIAM J. Optim. 1995), so the factorisation then takes the minimum degree
    ordering of A^T + A on the diagonal, with 2.3-3.3x less fill. The
    stabilised-Nitsche systems are quasi-definite too, but their fine-level
    pressure errors sit at the solve's rounding level and move by up to
    1.8e-8 relative under another ordering; they keep the default until the
    reported numbers stop depending on the factorisation. The
    Galerkin-Nitsche pressure block is zero inside the domain: not
    quasi-definite.

    Raises SingularSystemError when the factorisation breaks down or the
    1-norm condition estimate ||A||_1 * est(||A^-1||_1) is not below
    `_COND_LIMIT`. The estimate only solves with the factors; reading
    `lu.L` or `lu.U` would make SuperLU keep CSC copies of both.
    """
    norm1 = spla.norm(matrix, 1)
    ordering = {}
    if quasi_definite:
        ordering = dict(
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True),
        )
    try:
        lu = spla.splu(matrix.tocsc(), **ordering)
    except RuntimeError as exc:
        raise SingularSystemError(f"factorisation failed: {exc}") from exc
    cond = norm1 * _inverse_norm1(lu, matrix.shape[0])
    if not cond < _COND_LIMIT:
        raise SingularSystemError(
            f"numerically singular system (1-norm condition estimate {cond:.1e}); "
            "check stabilisation and penalty constants"
        )
    return lu


def _inverse_norm1(lu: spla.SuperLU, n: int) -> float:
    """Lower estimate of ||A^-1||_1 from the factors of A: Hager's iteration
    with Higham's safeguards (LAPACK xLACN2). Deterministic; `inf` when a
    solve is not finite."""

    def apply(v, trans="N"):
        y = lu.solve(v, trans=trans)
        if not np.all(np.isfinite(y)):
            raise FloatingPointError
        return y

    # Higham's alternating-sign vector, of 1-norm 3n/2, catches what the
    # iteration misses; it is solved together with the start vector
    alt = (1.0 + np.arange(n) / max(n - 1, 1)) * (-1.0) ** np.arange(n)
    try:
        y, y_alt = apply(np.column_stack([np.full(n, 1.0 / n), alt])).T
        est = np.abs(y).sum()
        signs = np.where(y >= 0.0, 1.0, -1.0)
        j = None
        for _ in range(4):
            z = np.abs(apply(signs, "T"))
            if j is not None and z[j] == z.max():
                break  # the next unit vector would repeat the last estimate
            j = int(np.argmax(z))
            unit = np.zeros(n)
            unit[j] = 1.0
            y = apply(unit)
            new_signs = np.where(y >= 0.0, 1.0, -1.0)
            new_est = np.abs(y).sum()
            if new_est <= est or np.array_equal(new_signs, signs):
                est = max(est, new_est)
                break
            est, signs = new_est, new_signs
        return max(est, np.abs(y_alt).sum() / (1.5 * n))
    except FloatingPointError:
        return np.inf


def solve(
    system: LinearSystem,
    tol: float = 1e-10,
    refine_tol: float = 1e-12,
    max_refine: int = 3,
    lu: spla.SuperLU | None = None,
) -> SolutionFields:
    """LU solve plus iterative refinement.

    `lu` is a factorisation of `system.matrix` from `factorize`, shared by
    systems that differ only in the right-hand side; without it the matrix
    is factorised here. Raises SingularSystemError when the factorisation
    breaks down or yields non-finite values, ResidualError when refinement
    cannot reach `tol`.
    """
    a = system.matrix
    b = system.rhs
    if lu is None:
        lu = factorize(a)
    elif lu.shape != a.shape:
        raise ValueError(f"factorisation of shape {lu.shape} for a {a.shape} system")
    x = lu.solve(b)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("factorisation produced non-finite values")

    scale = np.linalg.norm(b)
    ref = scale if scale > 0.0 else 1.0
    res = np.linalg.norm(b - a @ x) / ref
    for _ in range(max_refine):
        if res <= refine_tol:
            break
        dx = lu.solve(b - a @ x)
        if not np.all(np.isfinite(dx)):
            break
        x = x + dx
        res = np.linalg.norm(b - a @ x) / ref
    if res > tol:
        raise ResidualError(f"relative residual {res:.3e} above {tol:.1e}")

    if system.transform is not None:
        full = system.transform @ x + system.offset
    else:
        full = x
    return SolutionFields(full, system.dofmap.n_vertices, float(res))
