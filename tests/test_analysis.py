from dataclasses import replace

import numpy as np
import pytest

from maxnit import analysis
from maxnit.analysis import (
    ErrorReport,
    boundary_data_norm,
    convergence_rate,
    l2_errors,
    triple_norm,
)
from maxnit.assembly import Params, assemble_global
from maxnit.linsolve import solve
from maxnit.mesh import (
    gen_lshape,
    gen_lshape_uniform,
    gen_square_crisscross,
    gen_square_uniform,
    powell_sabin_refine,
)
from maxnit.problems import ProblemCase, lshape_case, square_case

from conftest import nodal_interpolant


def linear_case():
    def u(pts):
        return np.column_stack(
            [0.3 + 0.7 * pts[:, 0] - 0.2 * pts[:, 1], -0.1 + 0.4 * pts[:, 0] + pts[:, 1]]
        )

    def curl(pts):
        return np.full(pts.shape[0], 0.4 + 0.2)

    def f(pts):
        return np.zeros((pts.shape[0], 2))

    return ProblemCase("square", u, curl, f, u)


class TestL2Errors:
    def test_interpolated_linear_field_is_exact(self):
        mesh = gen_square_uniform(3)
        case = linear_case()
        rep = l2_errors(mesh, nodal_interpolant(mesh, case), case)
        assert rep.err_u < 1e-12
        assert rep.err_curl < 1e-12
        assert rep.dofs == 3 * mesh.n_vertices

    def test_reference_level_value(self):
        # coarsest level of the smooth-square study
        mesh = gen_square_uniform(8)
        params = Params(nu=1.0, L0=0.1, c_u=0.1, N_u=100.0, N_p=100.0)
        case = square_case()
        rep = l2_errors(mesh, solve(assemble_global(mesh, params, case)).coeffs, case)
        assert rep.err_u == pytest.approx(1.07e-01, rel=0.10)

    def test_nu_from_params_alone(self):
        # nu = 2 from Params alone: bit for bit the (err_u, err_curl, err_p) of
        # the former square case built with its own nu = 2
        params, case = Params(nu=2.0, L0=0.1, c_u=0.1), square_case()
        expected = {
            8: (0.0987774149464213, 0.864731373648937, 0.2832163769741126),
            16: (0.020455660735348706, 0.42437441055858494, 0.08217090718340725),
            32: (0.005043626050588828, 0.21404496467520115, 0.022274162978893574),
        }
        for n, errors in expected.items():
            mesh = gen_square_uniform(n)
            rep = l2_errors(mesh, solve(assemble_global(mesh, params, case)).coeffs, case)
            assert (rep.err_u, rep.err_curl, rep.err_p) == errors

    def test_err_p_reported(self):
        mesh = gen_square_uniform(8)
        case = square_case()
        x = solve(assemble_global(mesh, Params(L0=0.1, c_u=0.1), case)).coeffs
        rep = l2_errors(mesh, x, case)
        assert rep.err_p > 0.0


class TestCornerSubdivision:
    """For singularity_n == 1 the error norm subdivides the rule on the
    triangles near the corner only."""

    @pytest.mark.parametrize(
        "build",
        [lambda: gen_lshape(32), lambda: powell_sabin_refine(gen_lshape_uniform(16))],
        ids=["crisscross-32", "powell-sabin-16"],
    )
    def test_equals_full_subdivision(self, build, monkeypatch):
        mesh, case = build(), lshape_case(1)
        x = solve(assemble_global(mesh, Params(nu=1.0, L0=0.5, c_u=1.0), case)).coeffs

        def norm(base):
            """The error report and the number of exact_u points it took."""
            points = []

            def exact_u(pts):
                points.append(len(pts))
                return base.exact_u(pts)

            rep = l2_errors(mesh, x, replace(base, exact_u=exact_u))
            return rep, sum(points)

        corner, n_corner = norm(case)
        plain, n_plain = norm(replace(case, singularity_n=None))
        # a corner disc that holds every triangle: the rule subdivided everywhere
        monkeypatch.setattr(analysis, "_CORNER_RADIUS_H", np.inf)
        full, n_full = norm(case)
        assert corner.err_u == pytest.approx(full.err_u, rel=1e-12, abs=0.0)
        assert corner.err_p == pytest.approx(full.err_p, rel=1e-12, abs=0.0)
        assert corner.err_curl == full.err_curl
        # the subdivision matters at that tolerance; the plain rule takes 12
        # points per triangle, the subdivided one 48, the corner split some
        # of each
        assert abs(plain.err_u / full.err_u - 1.0) > 1e-4
        assert (n_plain, n_full) == (12 * mesh.n_triangles, 48 * mesh.n_triangles)
        assert n_plain < n_corner < n_full


class TestQuasiOptimality:
    @pytest.mark.parametrize(
        "mesh,params",
        [
            (gen_square_uniform(8), Params(nu=1.0, L0=0.1, c_u=0.1)),
            (gen_square_crisscross(8), Params(nu=1.0, L0=2.0, c_u=1.0)),
        ],
        ids=["uniform", "crisscross"],
    )
    def test_fe_error_close_to_interpolation(self, mesh, params):
        case = square_case()
        fe = l2_errors(mesh, solve(assemble_global(mesh, params, case)).coeffs, case).err_u
        interp = l2_errors(mesh, nodal_interpolant(mesh, case), case).err_u
        assert fe <= 10.0 * interp


class TestTripleNorm:
    params = Params(nu=1.0, L0=0.5, c_u=1.0)

    def test_zero_field(self):
        mesh = gen_square_uniform(2)
        assert triple_norm(mesh, np.zeros(3 * mesh.n_vertices), self.params) == 0.0

    def test_constant_pressure_boundary_term(self):
        mesh = gen_square_uniform(3)
        coeffs = np.zeros(3 * mesh.n_vertices)
        coeffs[2::3] = 1.0  # q = 1 everywhere: only the boundary q term survives
        expected = (self.params.L0**2 / self.params.nu) * (
            mesh.edge_length / mesh.edge_local_h
        ).sum()
        assert triple_norm(mesh, coeffs, self.params) == pytest.approx(expected, rel=1e-12)

    def test_quadratic_scaling(self, rng):
        mesh = gen_square_crisscross(2)
        x = rng.standard_normal(3 * mesh.n_vertices)
        base = triple_norm(mesh, x, self.params)
        assert triple_norm(mesh, 3.0 * x, self.params) == pytest.approx(9.0 * base, rel=1e-12)


class TestConvergenceRate:
    def test_exact_second_order(self):
        a = ErrorReport(0.1, 0.1, 1.0, 0.0, 10)
        b = ErrorReport(0.05, 0.025, 1.0, 0.0, 10)
        assert convergence_rate(a, b) == pytest.approx(2.0)

    def test_reference_bracket_values(self):
        a = ErrorReport(0.3536, 1.07e-1, 1.0, 0.0, 10)
        b = ErrorReport(0.1768, 2.04e-2, 1.0, 0.0, 10)
        assert convergence_rate(a, b) == pytest.approx(2.39, abs=5e-3)
        a = ErrorReport(0.125, 2.61e-1, 1.0, 0.0, 10)
        b = ErrorReport(0.0625, 1.58e-1, 1.0, 0.0, 10)
        assert convergence_rate(a, b) == pytest.approx(0.72, abs=5e-3)

    def test_invalid_inputs(self):
        a = ErrorReport(0.1, 0.1, 1.0, 0.0, 10)
        b = ErrorReport(0.2, 0.05, 1.0, 0.0, 10)
        with pytest.raises(ValueError):
            convergence_rate(a, b)
        c = ErrorReport(0.05, 0.0, 1.0, 0.0, 10)
        with pytest.raises(ValueError):
            convergence_rate(a, c)


def test_boundary_data_norm_scales_with_h():
    case = square_case()
    params = Params(nu=1.0, L0=0.1, c_u=0.1)
    coarse = boundary_data_norm(gen_square_uniform(4), case, params)
    fine = boundary_data_norm(gen_square_uniform(16), case, params)
    # the trace term grows like h^(-1/2)
    assert fine > coarse
    assert np.isfinite(coarse) and coarse > 0.0


def test_zero_source_data_norm_is_the_trace_term_alone():
    mesh = gen_lshape(4)
    params = Params(nu=1.3, L0=0.5, c_u=1.0)
    case = lshape_case(2)
    # the quadrature of the unflagged case sums squares of exact zeros
    assert boundary_data_norm(mesh, case, params) == boundary_data_norm(
        mesh, replace(case, zero_source=False), params
    )


def test_zero_source_flag_with_a_nonzero_source_raises():
    mesh = gen_square_uniform(4)
    case = replace(square_case(), zero_source=True)
    with pytest.raises(ValueError, match="zero_source"):
        boundary_data_norm(mesh, case, Params())
