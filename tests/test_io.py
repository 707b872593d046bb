import csv
from dataclasses import replace

import numpy as np
import pytest

from maxnit.assembly import Params, assemble_global
from maxnit.harness import StudyReport, StudyConfig, default_configs, run_studies, run_study
from maxnit.io import export_vtk, nodal_fields, write_report_csv
from maxnit.linsolve import solve
from maxnit.mesh import gen_lshape, gen_square_uniform
from maxnit.problems import lshape_case, square_case

GOLDEN_VTK = """# vtk DataFile Version 3.0
maxnit field snapshot
ASCII
DATASET UNSTRUCTURED_GRID
POINTS 4 double
-1 -1 0
-1 1 0
1 -1 0
1 1 0
CELLS 2 8
3 0 2 3
3 0 3 1
CELL_TYPES 2
5
5
POINT_DATA 4
SCALARS ones double 1
LOOKUP_TABLE default
1
1
1
1
"""


def test_vtk_golden_file(tmp_path):
    mesh = gen_square_uniform(1)
    path = tmp_path / "golden.vtk"
    export_vtk(mesh, str(path), {"ones": np.ones(4)})
    assert path.read_text() == GOLDEN_VTK


def test_snapshot_contains_six_arrays():
    mesh = gen_square_uniform(4)
    case = square_case()
    x = solve(assemble_global(mesh, Params(L0=0.1, c_u=0.1), case)).coeffs
    fields = nodal_fields(mesh, x, case)
    assert set(fields) == {"u_x", "u_y", "p", "u_x_exact", "u_y_exact", "p_exact"}
    assert all(len(a) == mesh.n_vertices for a in fields.values())
    assert fields["p_exact"].dtype == np.float64 and not fields["p_exact"].any()


def test_snapshot_singular_corner_is_nan():
    mesh = gen_lshape(4)
    fields = nodal_fields(mesh, np.zeros(3 * mesh.n_vertices), lshape_case(1))
    corner = np.hypot(*mesh.vertices.T) < 1e-14
    assert corner.sum() == 1
    assert np.isnan(fields["u_x_exact"][corner]).all()
    assert np.isfinite(fields["u_x_exact"][~corner]).all()


def test_snapshot_propagates_other_field_errors():
    def broken(points):
        raise TypeError("bad field")

    mesh = gen_square_uniform(2)
    case = replace(square_case(), exact_u=broken)
    with pytest.raises(TypeError, match="bad field"):
        nodal_fields(mesh, np.zeros(3 * mesh.n_vertices), case)


def test_snapshot_length_validation(tmp_path):
    mesh = gen_square_uniform(1)
    path = tmp_path / "bad.vtk"
    with pytest.raises(ValueError):
        export_vtk(mesh, str(path), {"bad": np.ones(3)})
    assert not path.exists()


def test_vtk_structure_is_consistent(tmp_path):
    mesh = gen_square_uniform(3)
    path = tmp_path / "mesh.vtk"
    export_vtk(mesh, str(path))
    lines = path.read_text().splitlines()
    n_pts = int(next(l for l in lines if l.startswith("POINTS")).split()[1])
    assert n_pts == mesh.n_vertices
    cells_line = next(l for l in lines if l.startswith("CELLS")).split()
    assert int(cells_line[1]) == mesh.n_triangles
    assert int(cells_line[2]) == 4 * mesh.n_triangles
    cell_rows = [l for l in lines if l.startswith("3 ")]
    assert len(cell_rows) == mesh.n_triangles
    ids = {int(tok) for row in cell_rows for tok in row.split()[1:]}
    assert max(ids) < n_pts


def read_csv(path) -> list[dict]:
    """The rows of a report CSV; a blank field is None, any other a float."""
    with open(path, newline="") as f:
        return [{key: None if raw == "" else float(raw) for key, raw in row.items()}
                for row in csv.DictReader(f)]


def test_report_csv_round_trip(tmp_path):
    config = StudyConfig(
        "square", "uniform", [2, 4], Params(nu=1.0, L0=0.5, c_u=0.5)
    )
    report = run_study(config)
    path = tmp_path / "study.csv"
    write_report_csv(report, str(path))
    rows = read_csv(str(path))
    assert len(rows) == 2
    for row, rep, ru in zip(rows, report.reports, report.rates_u):
        assert row["h"] == rep.h
        assert row["err_u"] == rep.err_u
        assert row["err_curl"] == rep.err_curl
        assert row["err_p"] == rep.err_p
        assert row["dofs"] == rep.dofs
        assert row["rate_u"] == (None if ru is None else ru)
        assert row["triple"] == rep.triple > 0.0
        assert row["data_norm"] == rep.data_norm > 0.0
    # a norm that was not computed is a blank field
    report.reports = [replace(rep, triple=None) for rep in report.reports]
    write_report_csv(report, str(path))
    assert [row["triple"] for row in read_csv(str(path))] == [None, None]


def test_empty_report_writes_header_only(tmp_path):
    config = StudyConfig("square", "uniform", [2])
    report = StudyReport(config, [], [], [])
    path = tmp_path / "empty.csv"
    write_report_csv(report, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines == ["h,dofs,err_u,rate_u,err_curl,rate_curl,err_p,wall_ms,triple,data_norm"]


def test_reference_preset_row_count(tmp_path):
    config = replace(
        default_configs()["table1-uniform"][0],
        levels=[2, 4, 8, 16],  # same shape, cheaper levels
    )
    run_studies([config], str(tmp_path), ("csv",))
    rows = read_csv(str(tmp_path / "t1-uniform.csv"))
    assert len(rows) == 4
