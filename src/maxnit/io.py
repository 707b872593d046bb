"""Every file maxnit writes: field snapshots and meshes (VTK, plain text),
system matrices (MatrixMarket) and convergence tables (CSV, markdown)."""

from __future__ import annotations

import csv

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh

__all__ = [
    "nodal_fields",
    "export_vtk",
    "save_txt",
    "write_matrix_market",
    "write_report_csv",
    "emit_table",
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


def save_txt(m: Mesh, path: str) -> None:
    """Plain-text export: one header line, then one line per entity."""
    k = m.n_boundary_edges
    edges = np.empty((k, 7), dtype=object)
    edges[:, 0] = np.arange(k)
    edges[:, 1:3] = m.edge_vertices
    edges[:, 3] = m.edge_tri
    edges[:, 4:6] = m.edge_normal
    edges[:, 6] = m.edge_tag
    with open(path, "w") as f:
        f.write(
            f"VERTICES {m.n_vertices} / TRIANGLES {m.n_triangles} / "
            f"BEDGES {k}\n"
        )
        np.savetxt(f, np.column_stack([np.arange(m.n_vertices), m.vertices]),
                   fmt="%d %.17g %.17g")
        np.savetxt(f, np.column_stack([np.arange(m.n_triangles), m.triangles]), fmt="%d")
        np.savetxt(f, edges, fmt="%d %d %d %d %.17g %.17g %s")


def write_matrix_market(system, path: str) -> None:
    """Dump the matrix of a `LinearSystem`, symmetric by its contract, in
    MatrixMarket coordinate format: the lower triangle alone."""
    import scipy.io as sio

    sio.mmwrite(path, sp.tril(system.matrix), symmetry="symmetric")


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


def _fmt_rate(rate) -> str:
    return "" if rate is None else f" ({rate:.2f})"


def emit_table(report) -> str:
    """Markdown table of h and the u and curl errors with their rates; the
    machine-readable table is `write_report_csv`."""
    lines = ["| h | err_u (rate) | err_curl (rate) |", "| --- | --- | --- |"]
    for rep, ru, rc in zip(report.reports, report.rates_u, report.rates_curl):
        lines.append(
            f"| {rep.h:.4f} | {rep.err_u:.2e}{_fmt_rate(ru)} | "
            f"{rep.err_curl:.2e}{_fmt_rate(rc)} |"
        )
    return "\n".join(lines) + "\n"
