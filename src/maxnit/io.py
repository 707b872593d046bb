"""Field, mesh and report export for figures and external verification."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .mesh import Mesh
from .problems import _eval_or_fill

__all__ = [
    "FieldSnapshot",
    "snapshot_from_solution",
    "export_vtk",
    "write_mesh_vtk",
    "write_report_csv",
    "read_report_csv",
]

_CSV_COLUMNS = (
    "h", "dofs", "err_u", "rate_u", "err_curl", "rate_curl", "err_p", "wall_ms",
    "triple", "data_norm",
)


@dataclass
class FieldSnapshot:
    """Named nodal scalar arrays attached to a mesh."""

    mesh: Mesh
    fields: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, arr in self.fields.items():
            if len(arr) != self.mesh.n_vertices:
                raise ValueError(f"field {name!r} length != number of vertices")


def snapshot_from_solution(mesh: Mesh, sol, case) -> FieldSnapshot:
    """Computed components, p, and the exact counterparts (six arrays)."""
    coeffs = sol.coeffs if hasattr(sol, "coeffs") else np.asarray(sol)
    nodal = coeffs.reshape(-1, 3)
    u_ex = _eval_or_fill(case.exact_u, mesh.vertices, np.nan)  # NaN at a singular corner
    fields = {
        "u_x": nodal[:, 0].copy(),
        "u_y": nodal[:, 1].copy(),
        "p": nodal[:, 2].copy(),
        "u_x_exact": u_ex[:, 0],
        "u_y_exact": u_ex[:, 1],
        "p_exact": case.exact_p(mesh.vertices),
    }
    return FieldSnapshot(mesh, fields)


def _write_vtk_mesh_part(f, mesh: Mesh, title: str) -> None:
    f.write("# vtk DataFile Version 3.0\n")
    f.write(f"{title}\n")
    f.write("ASCII\n")
    f.write("DATASET UNSTRUCTURED_GRID\n")
    f.write(f"POINTS {mesh.n_vertices} double\n")
    for x, y in mesh.vertices:
        f.write(f"{x:.17g} {y:.17g} 0\n")
    m = mesh.n_triangles
    f.write(f"CELLS {m} {4 * m}\n")
    for a, b, c in mesh.triangles:
        f.write(f"3 {a} {b} {c}\n")
    f.write(f"CELL_TYPES {m}\n")
    for _ in range(m):
        f.write("5\n")


def export_vtk(snapshot: FieldSnapshot, path: str) -> None:
    """Legacy ASCII unstructured-grid file with one scalar array per field."""
    mesh = snapshot.mesh
    with open(path, "w") as f:
        _write_vtk_mesh_part(f, mesh, "maxnit field snapshot")
        if snapshot.fields:
            f.write(f"POINT_DATA {mesh.n_vertices}\n")
            for name, arr in snapshot.fields.items():
                f.write(f"SCALARS {name} double 1\n")
                f.write("LOOKUP_TABLE default\n")
                for v in arr:
                    f.write(f"{v:.17g}\n")


def write_mesh_vtk(mesh: Mesh, path: str) -> None:
    export_vtk(FieldSnapshot(mesh, {}), path)


def _fmt(value) -> str:
    return "" if value is None else f"{value:.17g}"


def write_report_csv(report, path: str) -> None:
    """One row per refinement level, 17-significant-digit floats; a blank
    field is a rate of the first level or a norm that was not computed."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(_CSV_COLUMNS)
        for rep, ru, rc in zip(report.reports, report.rates_u, report.rates_curl):
            writer.writerow(
                [
                    _fmt(rep.h),
                    rep.dofs,
                    _fmt(rep.err_u),
                    _fmt(ru),
                    _fmt(rep.err_curl),
                    _fmt(rc),
                    _fmt(rep.err_p),
                    _fmt(rep.wall_ms),
                    _fmt(rep.triple),
                    _fmt(rep.data_norm),
                ]
            )


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
