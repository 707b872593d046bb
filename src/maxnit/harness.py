"""Configuration-driven convergence studies: configs, presets and `run_studies`."""

from __future__ import annotations

import numbers
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from functools import partial

from . import assembly as masm
from . import io as mio
from .analysis import (
    ErrorReport,
    boundary_data_norm,
    convergence_rate,
    l2_errors,
    triple_norm,
)
from .assembly import ConfigError, Params, apply_strong_bc, assemble_global
from .linsolve import factorize_system, solve
from .mesh import (
    Mesh,
    gen_lshape,
    gen_lshape_uniform,
    gen_square_crisscross,
    gen_square_uniform,
    map_to_curved_l,
    powell_sabin_refine,
)
from .problems import ProblemCase, curved_l_case, lshape_case, square_case

__all__ = [
    "StudyConfig",
    "StudyReport",
    "ConfigError",
    "build_case",
    "build_mesh",
    "run_study",
    "run_studies",
    "default_configs",
]

# (domain, family) -> mesh of one refinement level; `level` is the cell count
# of the base grid. Powell-Sabin families refine a base mesh chosen to track
# the element sizes of the reference results (uniform right-angled bases for
# the square and L domains, criss-cross for the curved domain).
_MESHES = {
    ("square", "uniform"): gen_square_uniform,
    ("square", "crisscross"): gen_square_crisscross,
    ("square", "powell-sabin"): lambda level: powell_sabin_refine(gen_square_uniform(level)),
    ("lshape", "crisscross"): gen_lshape,
    ("lshape", "powell-sabin"): lambda level: powell_sabin_refine(gen_lshape_uniform(level)),
    ("curved-l", "powell-sabin"): lambda level: powell_sabin_refine(
        map_to_curved_l(gen_lshape(level))
    ),
    ("curved-l", "curved-mapped"): lambda level: map_to_curved_l(gen_lshape(level)),
}

_DOMAINS = tuple(dict.fromkeys(domain for domain, _ in _MESHES))
_FAMILIES = tuple(dict.fromkeys(family for _, family in _MESHES))
_EMITS = ("csv", "markdown", "vtk", "matrixmarket")

# case name -> ProblemCase factory
_CASES = {
    "square": square_case,
    **{f"lshape:{n}": partial(lshape_case, n) for n in (1, 2, 4)},
    **{f"curved-l:{n}": partial(curved_l_case, n) for n in (1, 2, 4)},
}


@dataclass(frozen=True)
class StudyConfig:
    """One convergence study: a case, a mesh family and refinement levels.
    `levels` and `emit` are kept as tuples, so a checked config cannot change."""

    case: str = "square"
    family: str = "uniform"
    levels: tuple = (8, 16, 32, 64)
    params: Params = field(default_factory=Params)
    out_dir: str | None = None
    emit: tuple = ("markdown",)
    label: str = ""

    def __post_init__(self):
        for name in ("case", "family", "label"):
            if not isinstance(getattr(self, name), str):
                raise ConfigError(f"{name} must be a string")
        if not isinstance(self.out_dir, (str, os.PathLike, type(None))):
            raise ConfigError("out_dir must be a path")
        if any(sep and sep in self.label for sep in ("/", os.sep, os.altsep)):
            raise ConfigError(f"label {self.label!r} holds a path separator")
        if self.case not in _CASES:
            raise ConfigError(f"unknown case {self.case!r}")
        for name, items in (("levels", "positive integers"), ("emit", "strings")):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ConfigError(f"{name} must be a list of {items}")
            object.__setattr__(self, name, tuple(getattr(self, name)))
        domain = _CASES[self.case]().domain
        for level in self.levels:
            _check_mesh(domain, self.family, level)
        if not self.levels or list(self.levels) != sorted(set(self.levels)):
            raise ConfigError("levels must be non-empty and strictly increasing")
        unknown = [e for e in self.emit if e not in _EMITS]
        if unknown:
            raise ConfigError(f"unknown emit formats {unknown}")
        files = set(self.emit) - {"markdown"}
        if files and self.out_dir is None:
            raise ConfigError(f"emit formats {sorted(files)} need an output directory (--out)")


@dataclass
class StudyReport:
    config: StudyConfig
    reports: list  # ErrorReport per level
    rates_u: list  # None for the first level
    rates_curl: list


def build_case(name: str) -> ProblemCase:
    if name not in _CASES:
        raise ConfigError(f"unknown case {name!r}")
    return _CASES[name]()


def _check_mesh(domain: str, family: str, level) -> None:
    """The mesh rule: `domain` is one of `_DOMAINS`, (domain, family) a key of
    `_MESHES`, and `level` a positive integer, even on an L-shaped domain."""
    if domain not in _DOMAINS:
        raise ConfigError(f"unknown domain {domain!r}")
    if (domain, family) not in _MESHES:
        raise ConfigError(f"family {family!r} incompatible with domain {domain!r}")
    integral = isinstance(level, numbers.Integral) and not isinstance(level, bool)
    if not integral or level < 1 or (domain != "square" and level % 2):
        raise ConfigError(f"level {level!r} of {family!r} on {domain!r}: levels are "
                          "positive integers, even on an L")


def build_mesh(domain: str, family: str, level: int) -> Mesh:
    """Mesh of one refinement level of `family` on `domain` (see `_MESHES`)."""
    _check_mesh(domain, family, level)
    return _MESHES[domain, family](level)


def run_study(config: StudyConfig) -> StudyReport:
    return run_studies([config])[0]


def run_studies(configs: list[StudyConfig]) -> list[StudyReport]:
    """Run a batch of studies level by level, sharing work between configs.

    Configs that meet at one (domain, family, level) share one mesh; those
    that also have equal `Params` apart from `corner_strategy` share one
    assembled matrix and one LU factorisation (of the matrix for a weak
    formulation, of the reduced matrix's both-zero core for the strong one).
    Each config still gets its own right-hand side, strong-BC elimination,
    bordered solver (border and condition estimate), solve (refinement and
    residual gate included) and error norms. One factorisation is alive at a
    time: a group's LU and matrix are freed before its error norms run.

    A row's `wall_ms` is its own time (the stages just listed) plus an equal
    share of each shared step it took part in: the mesh build, the matrix
    assembly (which includes the first config's right-hand side) and the
    factorisation. Reports come back in config order. Every `out_dir` is
    created, parents included, before the first mesh is built. An exception
    keeps its type and attributes; its message gains the level, and the
    study's title when a per-config stage raised it. Two configs that write
    files to the same directory under the same name raise ConfigError before
    any work.
    """
    writers: dict = {}
    for cfg in configs:
        if set(cfg.emit) - {"markdown"}:
            key = (os.path.abspath(cfg.out_dir), _slug(cfg))
            if key in writers:
                raise ConfigError(f"studies {_title(writers[key])!r} and {_title(cfg)!r} "
                                  f"both write {key[1]!r} files to {key[0]}")
            writers[key] = cfg
    cases = [build_case(c.case) for c in configs]
    # an unwritable output directory fails here, not after the studies ran
    for out_dir in dict.fromkeys(os.fspath(c.out_dir) for c in configs if c.out_dir is not None):
        os.makedirs(out_dir, exist_ok=True)
    rows: list[list[ErrorReport]] = [[] for _ in configs]
    for level in sorted({lv for c in configs for lv in c.levels}):
        at_level = [i for i, c in enumerate(configs) if level in c.levels]
        ms = dict.fromkeys(at_level, 0.0)  # each config's wall_ms at this level
        for on_mesh in _groups(at_level, lambda i: (cases[i].domain, configs[i].family)):
            with _stage(f"level {level}", ms, on_mesh):
                mesh = build_mesh(cases[on_mesh[0]].domain, configs[on_mesh[0]].family, level)
            for group in _groups(on_mesh, lambda i: _matrix_key(configs[i].params)):
                for i, sol in zip(group, _solve_group(mesh, level, group, configs, cases, ms)):
                    cfg, case = configs[i], cases[i]
                    with _stage(f"level {level}, {_title(cfg)}", ms, [i]):
                        rep = l2_errors(mesh, sol.coeffs, case)
                        rep.triple = triple_norm(mesh, sol.coeffs, cfg.params)
                        rep.data_norm = boundary_data_norm(mesh, case, cfg.params)
                    rep.wall_ms = ms[i]
                    rows[i].append(rep)
                    if "vtk" in cfg.emit:
                        path = f"{cfg.out_dir}/{_slug(cfg)}_L{level}.vtk"
                        mio.export_vtk(mesh, path, mio.nodal_fields(mesh, sol.coeffs, case))

    studies = []
    for cfg, reports in zip(configs, rows):
        rates = [[None] + [convergence_rate(a, b, key) for a, b in zip(reports, reports[1:])]
                 for key in ("err_u", "err_curl")]
        study = StudyReport(cfg, reports, *rates)
        if "csv" in cfg.emit:
            mio.write_report_csv(study, f"{cfg.out_dir}/{_slug(cfg)}.csv")
        studies.append(study)
    return studies


def _matrix_key(params: Params) -> tuple:
    """Params as far as the assembled matrix depends on them: the corner
    strategy only enters the strong-BC elimination."""
    return tuple(getattr(params, f.name) for f in fields(params) if f.name != "corner_strategy")


def _solve_group(mesh, level, group, configs, cases, ms) -> list:
    """Solve the configs `group` (indices into `configs` and `cases`), whose
    params are equal up to the corner strategy, in one pass over one
    assembled matrix and one LU (`factorize_system`'s), made when the first
    config gets there. Returns the solutions in `group` order and charges
    the stage times to `ms`; the LU and the matrix die with this frame."""
    params = configs[group[0]].params
    with _stage(f"level {level}", ms, group):
        base = assemble_global(mesh, params, cases[group[0]])
    lu, solutions = None, []
    for i in group:
        cfg, where = configs[i], f"level {level}, {_title(configs[i])}"
        with _stage(where, ms, [i]):
            system = base
            if i != group[0]:
                system = replace(base, rhs=masm.assemble_rhs(mesh, cases[i], params))
            if params.formulation == "stabilised-strong":  # leaves `base` as it was
                system = apply_strong_bc(system, mesh, cases[i], cfg.params.corner_strategy)
        if lu is None:
            with _stage(where, ms, group):
                lu = factorize_system(system)
        with _stage(where, ms, [i]):
            solutions.append(solve(system, lu=lu))
        if "matrixmarket" in cfg.emit:
            mio.write_matrix_market(system, f"{cfg.out_dir}/{_slug(cfg)}_L{level}.mtx")
    return solutions


def _groups(items, key) -> list[list]:
    """`items` split by `key`, groups and members in first-seen order."""
    out: dict = {}
    for item in items:
        out.setdefault(key(item), []).append(item)
    return list(out.values())


@contextmanager
def _stage(where: str, ms: dict, rows):
    """Time the block and add an equal share of its milliseconds to `ms[k]`
    for every k in `rows`, the configs that the stage serves. An escaping
    exception gets its message prefixed with `where` and is re-raised as the
    same object (type, attributes, traceback)."""
    t0 = time.perf_counter()
    try:
        yield
    except Exception as exc:
        exc.args = (f"{where}: {exc}",)
        raise
    share = (time.perf_counter() - t0) * 1e3 / len(rows)
    for k in rows:
        ms[k] += share


def _title(config: StudyConfig) -> str:
    return config.label or f"{config.case} / {config.family}"


def _slug(config: StudyConfig) -> str:
    base = config.label or f"{config.case}_{config.family}"
    return base.replace(":", "").replace(" ", "_")


def default_configs() -> dict[str, list[StudyConfig]]:
    """Named presets reproducing the reference convergence studies."""
    sq_uni = Params(nu=1.0, L0=0.1, c_u=0.1, N_u=100.0, N_p=100.0)
    sq_other = Params(nu=1.0, L0=2.0, c_u=1.0, N_u=100.0, N_p=100.0)
    lsh = Params(nu=1.0, L0=0.5, c_u=1.0, N_u=100.0, N_p=100.0)
    curved = Params(nu=1.0, L0=0.5, c_u=0.1, N_u=100.0, N_p=100.0)
    strong_sq = replace(sq_other, formulation="stabilised-strong")
    strong_lsh = replace(lsh, formulation="stabilised-strong")

    return {
        "table1-uniform": [
            StudyConfig("square", "uniform", [8, 16, 32, 64], sq_uni, label="t1-uniform")
        ],
        "table1-crisscross": [
            StudyConfig("square", "crisscross", [8, 16, 32, 64], sq_other, label="t1-cc")
        ],
        "table1-ps": [
            StudyConfig("square", "powell-sabin", [8, 16, 32, 64], sq_other, label="t1-ps")
        ],
        "table2-ps-strong": [
            StudyConfig(
                "square", "powell-sabin", [8, 16, 32, 64], strong_sq, label="t2-strong"
            )
        ],
        "table3-crisscross": [
            StudyConfig(f"lshape:{n}", "crisscross", [16, 32, 64, 128], lsh, label=f"t3-n{n}")
            for n in (1, 2, 4)
        ],
        "table4-ps": [
            StudyConfig(f"lshape:{n}", "powell-sabin", [16, 32, 64, 128], lsh, label=f"t4-n{n}")
            for n in (1, 2, 4)
        ],
        "table5-corner": [
            StudyConfig(
                "lshape:1", "crisscross", [128],
                replace(strong_lsh, corner_strategy=strategy),
                label=f"t5-{strategy}",
            )
            for strategy in ("both-zero", "free", "bisector-normal")
        ]
        + [StudyConfig("lshape:1", "crisscross", [128], lsh, label="t5-nitsche")],
        "table6-ps": [
            StudyConfig(
                f"curved-l:{n}", "powell-sabin", [2, 4, 8, 16, 32, 64], curved,
                label=f"t6-n{n}",
            )
            for n in (1, 2, 4)
        ],
    }
