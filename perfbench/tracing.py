"""Spans around the calls into each maxnit layer, recorded from outside the package.

`Tracer.attach` replaces the public names the harness calls through with
wrappers that record one span per call: name, parent span, run id, start
and end (CLOCK_MONOTONIC), and ``ru_maxrss`` at both ends. Spans stay in
memory; the study process writes them out when the study ends.
`layer_metrics` turns the spans of one traced study into the per-layer
metrics. No code under ``src/`` is changed.

The first part of a span name is its layer. Facts a wrapper reads from a
call's arguments or result (triangles, nnz, ...) are gathered in a child
span of layer ``trace``, so their cost shows as tracing cost, not as work
of the layer that was measured.
"""

import dataclasses
import functools
import importlib
import os
import resource
import time

# (module, attribute as the caller sees it, span name)
_WRAPPED = (
    ("maxnit.harness", "build_mesh", "mesh.build"),
    ("maxnit.harness", "build_case", "problems.build_case"),
    ("maxnit.harness", "assemble_global", "assembly.global"),
    ("maxnit.assembly", "assemble_rhs", "assembly.rhs"),
    ("maxnit.harness", "apply_strong_bc", "assembly.strong_bc"),
    ("maxnit.harness", "solve", "linsolve.solve"),
    ("maxnit.harness", "l2_errors", "analysis.errors"),
    ("maxnit.harness", "triple_norm", "analysis.norms"),
    ("maxnit.harness", "boundary_data_norm", "analysis.norms"),
    ("maxnit.io", "write_report_csv", "io.csv"),
)
# ProblemCase fields holding the manufactured-solution callables.
_CASE_FIELDS = ("exact_u", "exact_curl_u", "source_f", "dirichlet_u")
SPLU = "maxnit.linsolve.splu"

LAYERS = ("mesh", "problems", "assembly", "linsolve", "analysis", "io", "harness")


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rows(points) -> int:
    shape = getattr(points, "shape", ())
    return 1 if len(shape) < 2 else int(shape[0])


def _source_facts(out, points):
    import numpy as np  # here, so that run.py can import this module without numpy

    vals = np.asarray(out)
    nonzero = np.any(vals.reshape(_rows(points), -1) != 0.0, axis=1)
    return {"points": _rows(points), "nonzero": int(np.count_nonzero(nonzero))}


# Facts read after a call, by span name: f(result, *args) -> dict.
_FACTS = {
    "mesh.build": lambda mesh, *a: {"triangles": int(mesh.n_triangles)},
    "assembly.global": lambda system, *a: {"nnz": int(system.matrix.nnz)},
    "assembly.rhs": lambda rhs, mesh, *a: {"triangles": int(mesh.n_triangles)},
    "linsolve.solve": lambda sol, system, *a: {
        "unknowns": int(system.n_unknowns),
        "residual": float(sol.residual),
    },
    # SuperLU's own count of stored L and U entries. Reading lu.L.nnz and
    # lu.U.nnz would build both factors as CSC copies inside the measured
    # process and inflate the memory being measured.
    "linsolve.splu": lambda lu, *a: {"fill": int(lu.nnz)},
    "io.csv": lambda _, report, path, *a: {"bytes": os.path.getsize(path)},
    "problems.source_f": _source_facts,
}


class _ModuleView:
    """Stands in for a module in another module's namespace, overriding
    some of its attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.wrappers: dict[str, str] = {}  # wrapper -> "attached" | "missing"
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called `name`."""
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "name": name,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["rss0"] = _maxrss_mb()
        span["start"] = _now()
        try:
            out = fn(*args, **kwargs)
        finally:
            span["end"] = _now()
            span["rss1"] = _maxrss_mb()
            self._stack.pop()
        facts = _FACTS.get(name)
        if facts is not None:
            span.update(self.call("trace.facts", facts, out, *args))
        return out

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapped

    def _wrap_case(self, case):
        fields = {f.name for f in dataclasses.fields(case)}
        for field in _CASE_FIELDS:
            self.wrappers[f"problems.{field}"] = "attached" if field in fields else "missing"
        return dataclasses.replace(
            case,
            **{f: self.wrap(f"problems.{f}", getattr(case, f)) for f in _CASE_FIELDS if f in fields},
        )

    def attach(self) -> None:
        for module_name, attr, span in _WRAPPED:
            module = importlib.import_module(module_name)
            key = f"{module_name}.{attr}"
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.wrappers[key] = "missing"
                continue
            if attr == "build_case":
                base = fn
                fn = functools.wraps(base)(lambda *a, **k: self._wrap_case(base(*a, **k)))
            setattr(module, attr, self.wrap(span, fn))
            self.wrappers[key] = "attached"
        for field in _CASE_FIELDS:  # attached per case, once build_case runs
            self.wrappers.setdefault(f"problems.{field}", "missing")

        # scipy's splu as maxnit.linsolve reaches it, `spla.splu`. The view
        # keeps other modules' `spla.splu` calls (mesh's) out of the count.
        linsolve = importlib.import_module("maxnit.linsolve")
        spla = getattr(linsolve, "spla", None)
        if callable(getattr(spla, "splu", None)):
            linsolve.spla = _ModuleView(spla, splu=self.wrap("linsolve.splu", spla.splu))
            self.wrappers[SPLU] = "attached"
        else:
            self.wrappers[SPLU] = "missing"


# Per-layer metric -> the wrappers it is read from. A metric whose wrapper
# did not attach, or attached but saw no call where the workload makes
# such calls, is reported as missing, never as 0.
REQUIRES = {
    "mesh.build_s": ("maxnit.harness.build_mesh",),
    "mesh.calls": ("maxnit.harness.build_mesh",),
    "mesh.triangles": ("maxnit.harness.build_mesh",),
    "problems.eval_s": ("maxnit.harness.build_case",)
    + tuple(f"problems.{f}" for f in _CASE_FIELDS),
    "problems.f_points": ("problems.source_f",),
    "problems.f_nonzero_ratio": ("problems.source_f",),
    "quadrature.f_points_per_triangle": ("problems.source_f", "maxnit.assembly.assemble_rhs"),
    "assembly.global_s": ("maxnit.harness.assemble_global",),
    "assembly.rhs_s": ("maxnit.assembly.assemble_rhs",),
    "assembly.calls": ("maxnit.harness.assemble_global",),
    "assembly.nnz": ("maxnit.harness.assemble_global",),
    "assembly.strong_bc_s": ("maxnit.harness.apply_strong_bc",),
    "assembly.strong_bc_calls": ("maxnit.harness.apply_strong_bc",),
    "linsolve.solve_s": ("maxnit.harness.solve",),
    "linsolve.factor_s": (SPLU,),
    "linsolve.calls": ("maxnit.harness.solve",),
    "linsolve.unknowns": ("maxnit.harness.solve",),
    "linsolve.residual_max": ("maxnit.harness.solve",),
    "linsolve.factorizations": (SPLU,),
    "linsolve.lu_fill": (SPLU,),
    "analysis.errors_s": ("maxnit.harness.l2_errors",),
    "analysis.norms_s": ("maxnit.harness.triple_norm", "maxnit.harness.boundary_data_norm"),
    "io.csv_s": ("maxnit.io.write_report_csv",),
    "io.csv_bytes": ("maxnit.io.write_report_csv",),
    "harness.self_s": (),
    "mesh.rss_rise_mb": ("maxnit.harness.build_mesh",),
    "problems.rss_rise_mb": ("problems.source_f",),
    "assembly.rss_rise_mb": ("maxnit.harness.assemble_global",),
    "linsolve.rss_rise_mb": ("maxnit.harness.solve",),
    "analysis.rss_rise_mb": ("maxnit.harness.l2_errors",),
    "io.rss_rise_mb": ("maxnit.io.write_report_csv",),
    "harness.rss_rise_mb": (),
    "trace.study_s": (),
}

# Wrapper -> span names it records, to tell "attached but never called".
_SPANS_OF = {f"{m}.{a}": s for m, a, s in _WRAPPED} | {
    SPLU: "linsolve.splu",
    **{f"problems.{f}": f"problems.{f}" for f in _CASE_FIELDS},
}


def layer_metrics(spans: list, wrappers: dict, idle=()) -> dict:
    """Per-layer metrics of one traced study; None marks a missing metric.

    `idle` names wrappers the workload never calls, whose zero counts are
    real. Raises ValueError when the spans break the self-time invariants.
    """
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    for s in spans:
        kids = children.get(s["id"], ())
        s["self_s"] = (s["end"] - s["start"]) - sum(k["end"] - k["start"] for k in kids)
        s["rise_mb"] = (s["rss1"] - s["rss0"]) - sum(k["rss1"] - k["rss0"] for k in kids)
        if s["self_s"] < -1e-9:
            raise ValueError(f"span {s['name']} has negative self time {s['self_s']}")
    (root,) = [s for s in spans if s["parent"] is None]
    study_s = root["end"] - root["start"]
    if sum(s["self_s"] for s in spans) > study_s + 1e-9:
        raise ValueError("self times add up to more than the traced study")

    def named(name):
        return [s for s in spans if s["name"] == name]

    def self_s(*names):
        return sum(s["self_s"] for n in names for s in named(n))

    def total(name, key):
        return sum(s[key] for s in named(name))

    def layer(prefix):
        return [s for s in spans if s["name"].split(".")[0] == prefix]

    by_id = {s["id"]: s for s in spans}

    def inside(s, name):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            if s["name"] == name:
                return True
        return False

    f_points = total("problems.source_f", "points")
    rhs_f_points = sum(s["points"] for s in named("problems.source_f") if inside(s, "assembly.rhs"))
    rhs_triangles = total("assembly.rhs", "triangles")
    residuals = [s["residual"] for s in named("linsolve.solve")]
    values = {
        "mesh.build_s": self_s("mesh.build"),
        "mesh.calls": len(named("mesh.build")),
        "mesh.triangles": total("mesh.build", "triangles"),
        "problems.eval_s": sum(s["self_s"] for s in layer("problems")),
        "problems.f_points": f_points,
        # useful / attempted; with nothing evaluated nothing is wasted
        "problems.f_nonzero_ratio": (
            total("problems.source_f", "nonzero") / f_points if f_points else 1.0
        ),
        "quadrature.f_points_per_triangle": (
            rhs_f_points / rhs_triangles if rhs_triangles else 0.0
        ),
        "assembly.global_s": self_s("assembly.global"),
        "assembly.rhs_s": self_s("assembly.rhs"),
        "assembly.calls": len(named("assembly.global")),
        "assembly.nnz": total("assembly.global", "nnz"),
        "assembly.strong_bc_s": self_s("assembly.strong_bc"),
        "assembly.strong_bc_calls": len(named("assembly.strong_bc")),
        "linsolve.solve_s": self_s("linsolve.solve", "linsolve.splu"),
        "linsolve.factor_s": self_s("linsolve.splu"),
        "linsolve.calls": len(named("linsolve.solve")),
        "linsolve.unknowns": total("linsolve.solve", "unknowns"),
        "linsolve.residual_max": max(residuals) if residuals else 0.0,
        "linsolve.factorizations": len(named("linsolve.splu")),
        "linsolve.lu_fill": total("linsolve.splu", "fill"),
        "analysis.errors_s": self_s("analysis.errors"),
        "analysis.norms_s": self_s("analysis.norms"),
        "io.csv_s": self_s("io.csv"),
        "io.csv_bytes": total("io.csv", "bytes"),
        "harness.self_s": root["self_s"],
        "trace.study_s": study_s,
    }
    for name in LAYERS:
        values[f"{name}.rss_rise_mb"] = sum(s["rise_mb"] for s in layer(name))

    called = {w: any(s["name"] == span for s in spans) for w, span in _SPANS_OF.items()}
    absent = {
        w
        for w in _SPANS_OF
        if wrappers.get(w) != "attached" or (not called[w] and w not in idle)
    }
    return {m: (None if absent & set(REQUIRES[m]) else v) for m, v in values.items()}
