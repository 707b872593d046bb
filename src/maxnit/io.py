"""Field, mesh and report export for figures and external verification."""

from __future__ import annotations

import csv

import numpy as np

from .mesh import Mesh

__all__ = [
    "nodal_fields",
    "export_vtk",
    "write_report_csv",
    "read_report_csv",
]

_CSV_COLUMNS = (
    "h", "dofs", "err_u", "rate_u", "err_curl", "rate_curl", "err_p", "wall_ms",
    "triple", "data_norm",
)


def nodal_fields(mesh: Mesh, x: np.ndarray, case) -> dict:
    """The computed u_x, u_y and p of a solution, the full nodal coefficient
    vector `x`, and their exact counterparts, as nodal arrays."""
    nodal = x.reshape(-1, 3)
    u_ex = case.exact_u(mesh.vertices)  # NaN at a singular corner
    return {
        "u_x": nodal[:, 0].copy(),
        "u_y": nodal[:, 1].copy(),
        "p": nodal[:, 2].copy(),
        "u_x_exact": u_ex[:, 0],
        "u_y_exact": u_ex[:, 1],
        "p_exact": np.zeros(mesh.n_vertices),
    }


def export_vtk(mesh: Mesh, path: str, fields: dict | None = None) -> None:
    """Legacy ASCII unstructured-grid file of `mesh`, with one scalar array
    per entry of `fields` (name -> one value per vertex)."""
    fields = fields or {}
    for name, arr in fields.items():
        if len(arr) != mesh.n_vertices:
            raise ValueError(f"field {name!r} length != number of vertices")
    m = mesh.n_triangles
    with open(path, "w") as f:
        f.write(
            "# vtk DataFile Version 3.0\nmaxnit field snapshot\nASCII\n"
            f"DATASET UNSTRUCTURED_GRID\nPOINTS {mesh.n_vertices} double\n"
        )
        # lists of Python floats format faster than numpy scalars, same digits
        f.write("".join(f"{x:.17g} {y:.17g} 0\n" for x, y in mesh.vertices.tolist()))
        f.write(f"CELLS {m} {4 * m}\n")
        f.write("".join(f"3 {a} {b} {c}\n" for a, b, c in mesh.triangles.tolist()))
        f.write(f"CELL_TYPES {m}\n" + "5\n" * m)
        if fields:
            f.write(f"POINT_DATA {mesh.n_vertices}\n")
            for name, arr in fields.items():
                f.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                f.write("".join(f"{v:.17g}\n" for v in np.asarray(arr, float).tolist()))


def _fmt(value) -> str:
    return "" if value is None else f"{value:.17g}"


def write_report_csv(report, path: str) -> None:
    """One row per refinement level, the fields of `_CSV_COLUMNS` in order,
    every number to 17 significant digits (the dofs count exactly); a blank
    field is a rate of the first level or a norm that was not computed."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(_CSV_COLUMNS)
        for rep, ru, rc in zip(report.reports, report.rates_u, report.rates_curl):
            row = {**vars(rep), "rate_u": ru, "rate_curl": rc}
            writer.writerow([_fmt(row[key]) for key in _CSV_COLUMNS])


def read_report_csv(path: str) -> list[dict]:
    """Rows as dicts with floats (None for blank fields); round-trips exactly."""
    out = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != list(_CSV_COLUMNS):
            raise ValueError(f"unexpected CSV header in {path}")
        for row in reader:
            parsed = {}
            for key in _CSV_COLUMNS:
                raw = row[key]
                if raw == "":
                    parsed[key] = None
                elif key == "dofs":
                    parsed[key] = int(raw)
                else:
                    parsed[key] = float(raw)
            out.append(parsed)
    return out
