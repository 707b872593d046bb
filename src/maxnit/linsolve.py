"""Direct sparse solve of the assembled symmetric indefinite system."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import LinearSystem

__all__ = [
    "SolutionFields",
    "SingularSystemError",
    "ResidualError",
    "BorderedLU",
    "factorize_system",
    "solve",
]


class SingularSystemError(RuntimeError):
    pass


class ResidualError(RuntimeError):
    pass


@dataclass
class SolutionFields:
    """Full-length nodal coefficient vector, interleaved (u_x, u_y, p) per
    vertex, and the relative residual of the solve."""

    coeffs: np.ndarray
    residual: float


# A system whose 1-norm condition estimate reaches this is rejected as
# singular. It is the reciprocal of a 1e-14 relative pivot floor; on the
# N_p -> 0 sweep of the Galerkin-Nitsche system (CHANGES.md) the estimate is
# at least the reciprocal pivot ratio, so such a floor rejects nothing more.
_COND_LIMIT = 1e14

# `solve` refines until the relative residual is at most _REFINE_TOL, for at
# most _MAX_REFINE steps, and raises ResidualError if it ends above _RESIDUAL_TOL
_RESIDUAL_TOL = 1e-10
_REFINE_TOL = 1e-12
_MAX_REFINE = 3


def factorize_system(system: LinearSystem) -> spla.SuperLU:
    """The LU that `solve` borders: of `system`'s core, the matrix without
    its `corner` unknowns. That is the matrix itself for a weak system and
    the both-zero matrix for every corner strategy, so the strategies of one
    matrix can share it.

    By default SuperLU orders the columns by COLAMD and pivots partially. A
    strong reduction (`system.transform` set) whose core has no zero on its
    diagonal, a stabilised-strong one, is symmetric quasi-definite: an SPD
    velocity block and a negative definite pressure block up to a symmetric
    permutation, as the tests check for every corner strategy. Every
    symmetric ordering of such a matrix factors stably without pivoting
    (Vanderbei, SIAM J. Optim. 1995), so it takes the minimum degree ordering
    of A^T + A on the diagonal, with 2.3-3.3x less fill. A Galerkin-Nitsche
    matrix reduced strongly has a zero pressure block inside the domain and,
    like every other system, keeps COLAMD. The stabilised-Nitsche systems
    are quasi-definite too, but their fine-level pressure errors sit at the
    solve's rounding level and move by up to 1.8e-8 relative under another
    ordering; they keep COLAMD until the reported numbers stop depending on
    the factorisation.

    Raises ValueError, before any factorisation, unless the core is a CSR
    matrix equal to its transpose, and SingularSystemError when the LU breaks
    down or the 1-norm condition estimate ||A||_1 * est(||A^-1||_1) is not
    below `_COND_LIMIT`. The estimate (`_inverse_norm1`) only solves with the
    factors: reading `lu.L` or `lu.U` makes SuperLU keep CSC copies of both.

    Memory: SuperLU gets the CSC view of the core's transpose, which shares the
    CSR's arrays. The 1-norm, whose `abs` copies the core, is taken first; then
    the heap that the caller has freed (assembly temporaries, that copy) is
    returned to the OS, so that the factors are not allocated on top of it.
    """
    core = system.matrix
    if len(system.corner):
        keep = np.delete(np.arange(core.shape[0]), system.corner)
        core = core[keep][:, keep]
    ordering = {}
    if system.transform is not None and core.diagonal().all():
        ordering = dict(
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True),
        )
    csc = _as_csc(core)
    norm1 = spla.norm(core, 1)  # after `_as_csc`: `abs` of a duplicate entry would add up
    trim = _malloc_trim()
    if trim is not None:
        trim(0)
    try:
        lu = spla.splu(csc, **ordering)
    except RuntimeError as exc:
        raise SingularSystemError(f"factorisation failed: {exc}") from exc
    _check_condition(norm1, lu)
    return lu


def _check_condition(norm1, lu) -> None:
    """Raise SingularSystemError unless ||A||_1 * est(||A^-1||_1), with A the
    matrix that `lu` solves with and `norm1` its 1-norm, is below `_COND_LIMIT`."""
    # Python floats: a product past the float range is inf, with no numpy warning
    cond = float(norm1) * float(_inverse_norm1(lu))
    if not cond < _COND_LIMIT:
        raise SingularSystemError(
            f"numerically singular system (1-norm condition estimate {cond:.1e}); "
            "check stabilisation and penalty constants"
        )


class BorderedLU:
    """Solves with a symmetric matrix through the LU of its core.

    Up to a symmetric permutation the matrix is [[A0, B], [B^T, D]]: the
    `border` unknowns (a few) hold B and D, the others the core A0, and
    `core` is a factorisation of A0 such as `factorize_system` returns. A
    solve is block elimination (Benzi, Golub & Liesen, Acta Numerica 2005,
    sec. 5): with W = A0^-1 B and the Schur complement S = D - B^T W, both
    computed here once,

        x_border = S^-1 (b_border - B^T A0^-1 b_core)
        x_core = A0^-1 b_core - W x_border.

    Raises ValueError unless the border rows hold the transpose of the
    border columns, and SingularSystemError when S is singular or not
    finite, or when the 1-norm condition estimate of the bordered matrix,
    taken through these solves, is not below `_COND_LIMIT`.
    """

    def __init__(self, core, matrix, border):
        n = matrix.shape[0]
        self.shape = matrix.shape
        self.core = core
        self.border = np.asarray(border, dtype=np.intp)
        if core.shape != (n - len(self.border),) * 2:
            raise ValueError(f"core of shape {core.shape} for a {self.shape} matrix "
                             f"with {len(self.border)} border unknowns")
        self.keep = np.delete(np.arange(n), self.border)
        rows = matrix[self.border]  # [B^T, D], up to the column order
        self.bt = rows[:, self.keep]
        b = matrix[:, self.border][self.keep].toarray()
        if not np.array_equal(b, self.bt.T.toarray(), equal_nan=True):
            raise ValueError("border rows are not the transpose of the border columns")
        self.w = core.solve(b)
        s = rows[:, self.border].toarray() - self.bt @ self.w
        if not np.all(np.isfinite(s)):
            raise SingularSystemError("border Schur complement is not finite")
        try:
            self.s_inv = np.linalg.inv(s)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"singular border Schur complement: {exc}") from exc
        _check_condition(spla.norm(matrix, 1), self)

    def solve(self, rhs):
        y = self.core.solve(rhs[self.keep])
        x_border = self.s_inv @ (rhs[self.border] - self.bt @ y)
        x = np.empty(rhs.shape)
        x[self.keep] = y - self.w @ x_border
        x[self.border] = x_border
        return x


def _as_csc(matrix):
    """For SuperLU, the CSC view of `matrix`'s transpose, which shares its
    arrays; ValueError unless `matrix` is CSR and equal to its transpose,
    NaNs too. Indices are made canonical in place, as SuperLU would do."""
    if matrix.format == "csr":
        matrix.sum_duplicates()
    csc = matrix.tocsc()
    if matrix.format != "csr" or not all(
            np.array_equal(getattr(csc, name), getattr(matrix, name), equal_nan=True)
            for name in ("indptr", "indices", "data")):
        raise ValueError("system matrix is not a CSR matrix equal to its transpose")
    return matrix.T


@cache
def _malloc_trim():
    """glibc's `malloc_trim`, which returns the free memory at the top and in
    the holes of the heap to the OS; None where the C library has none.
    Resolved on first use, so that start-up does not import ctypes, and
    through `CDLL(None)`: `ctypes.util.find_library` would run `ldconfig`."""
    import ctypes

    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def _inverse_norm1(lu) -> float:
    """Lower estimate of ||A^-1||_1 from the solves of `lu` with A (SuperLU
    or `BorderedLU`), `inf` when a solve is not finite: scipy's `onenormest`
    at t = 1, which draws random columns only for t >= 2, and one more solve
    with Higham's alternating-sign vector, which LAPACK's xLACN2 takes to
    catch what the iteration misses and scipy's t = 1 iteration lacks."""

    def apply(v):
        y = lu.solve(v)
        if not np.all(np.isfinite(y)):
            raise FloatingPointError
        return y

    n = lu.shape[0]
    # A^-T = A^-1, A being symmetric; without a dtype, LinearOperator solves once more
    op = spla.LinearOperator(lu.shape, matvec=apply, rmatvec=apply, dtype=float)
    alt = (1.0 + np.arange(n) / max(n - 1, 1)) * (-1.0) ** np.arange(n)
    try:
        return max(spla.onenormest(op, t=1), np.abs(apply(alt)).sum() / (1.5 * n))
    except FloatingPointError:
        return np.inf


def solve(system: LinearSystem, lu=None) -> SolutionFields:
    """LU solve plus iterative refinement, through `lu`, bordered by
    `BorderedLU(lu, system.matrix, system.corner)` if the system has corners.

    `lu` is the LU of the system's core as `factorize_system` returns it:
    its own, or that of a system with the same matrix up to the right-hand
    side or the corner strategy (the configs of one study group share it).
    Without it the core is factorised here. Raises ValueError when the
    matrix is not symmetric or `lu` not of the core's shape, SingularSystemError
    when the right-hand side is not finite (checked first) or when the
    factorisation or the border breaks down or yields non-finite values,
    ResidualError when refinement cannot reach `_RESIDUAL_TOL`.
    """
    a = system.matrix
    b = system.rhs
    if not np.all(np.isfinite(b)):
        raise SingularSystemError(
            "right-hand side is not finite: check the source and boundary data"
        )
    if lu is None:
        lu = factorize_system(system)
    if len(system.corner):
        lu = BorderedLU(lu, a, system.corner)
    x = lu.solve(b)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("factorisation produced non-finite values")

    # the 2-norm squares the entries, which overflows past about 1e154: r and
    # b are taken over a power of two near max|b|, which scales them exactly
    scale = np.ldexp(1.0, np.frexp(np.abs(b).max(initial=0.0))[1])
    ref = np.linalg.norm(b / scale) or 1.0
    for step in range(_MAX_REFINE + 1):
        r = b - a @ x
        res = np.linalg.norm(r / scale) / ref
        if res <= _REFINE_TOL or step == _MAX_REFINE:
            break
        dx = lu.solve(r)
        if not np.all(np.isfinite(dx)):
            break
        x = x + dx
    if not res <= _RESIDUAL_TOL:  # a NaN residual fails too
        raise ResidualError(f"relative residual {res:.3e} above {_RESIDUAL_TOL:.1e}")

    if system.transform is not None:
        full = system.transform @ x + system.offset
    else:
        full = x
    return SolutionFields(full, float(res))
