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


def factorize(matrix) -> spla.SuperLU:
    """LU factorisation with fill-reducing ordering.

    Raises SingularSystemError when the factorisation breaks down or a pivot
    falls below the relative floor.
    """
    try:
        lu = spla.splu(matrix.tocsc())
    except RuntimeError as exc:
        raise SingularSystemError(f"factorisation failed: {exc}") from exc
    pivots = np.abs(lu.U.diagonal())
    if pivots.min() <= 1e-14 * pivots.max():
        raise SingularSystemError(
            "numerically singular system (degenerate pivot); "
            "check stabilisation and penalty constants"
        )
    return lu


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
    a = system.matrix.tocsc()
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
