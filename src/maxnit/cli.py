"""The `maxnit` command: convergence studies from presets or JSON config files,
mesh export and the preset list. It caps the BLAS and OpenMP thread pools at
MAXNIT_THREADS before numpy loads, and it maps each expected failure to one
stderr line and an exit code: 2 for a configuration or I/O error, 3 for a
solver or mesh failure."""

import argparse
import errno
import json
import os
import sys
from dataclasses import fields, replace


def _config_from_json(path: str, overrides: dict):
    """The config in the JSON file at `path`, with the fields in `overrides`
    (the command line's `--out` and `--emit`) replaced. The JSON schema is
    the dataclasses: every key names a field of `StudyConfig`, or of `Params`
    under "params"."""
    from .assembly import Params
    from .harness import ConfigError, StudyConfig

    try:
        with open(path) as f:
            raw = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    params = raw.get("params", {}) if isinstance(raw, dict) else None
    for what, obj, cls in (("config", raw, StudyConfig), ("params", params, Params)):
        if not isinstance(obj, dict):
            raise ConfigError(f"{what} must be a JSON object")
        unknown = set(obj) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown {what} fields {sorted(unknown)}")
    return StudyConfig(**{**raw, "params": Params(**params), **overrides})


# The commands call the library through the `harness` module's attributes,
# so a name replaced there is the one they run.
def _cmd_run(args) -> int:
    from . import harness, io as mio

    overrides = {}
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.emit is not None:
        overrides["emit"] = args.emit.split(",")
    if args.preset:
        presets = harness.default_configs()
        if args.preset not in presets:
            raise harness.ConfigError(f"unknown preset {args.preset!r}; see `maxnit presets`")
        configs = [replace(cfg, **overrides) for cfg in presets[args.preset]]
    else:
        configs = [_config_from_json(args.config, overrides)]
    for cfg, report in zip(configs, harness.run_studies(configs)):
        if "markdown" in cfg.emit:
            print(f"## {harness._title(cfg)}  [{cfg.params.formulation}]")
            print(mio.emit_table(report))
    return 0


def _cmd_mesh(args) -> int:
    from . import harness, io as mio

    out_dir = os.path.dirname(args.out) or "."
    if not os.path.isdir(out_dir):  # fail before the mesh is built
        raise FileNotFoundError(errno.ENOENT, "no such directory", out_dir)
    if os.path.isdir(args.out):
        raise IsADirectoryError(errno.EISDIR, "is a directory", args.out)
    mesh = harness.build_mesh(args.domain, args.family, args.level)
    if args.out.lower().endswith(".vtk"):
        mio.export_vtk(mesh, args.out)
    else:
        mio.save_txt(mesh, args.out)
    print(f"wrote {args.out}: {mesh.n_vertices} vertices, {mesh.n_triangles} triangles")
    return 0


def _cmd_presets(_args) -> int:
    from . import harness

    for name, configs in harness.default_configs().items():
        parts = ", ".join(c.label for c in configs)
        print(f"{name}: {parts}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from . import harness

    parser = argparse.ArgumentParser(prog="maxnit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a convergence study")
    group = run_p.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", help="named preset (see `maxnit presets`)")
    group.add_argument("--config", help="JSON study configuration file")
    run_p.add_argument("--out", help="output directory for emitted files")
    run_p.add_argument("--emit", help=f"comma-separated: {','.join(harness._EMITS)}")
    run_p.set_defaults(func=_cmd_run)

    mesh_p = sub.add_parser("mesh", help="generate and export a mesh")
    mesh_p.add_argument("--family", required=True, choices=harness._FAMILIES)
    mesh_p.add_argument("--level", required=True, type=int)
    mesh_p.add_argument("--out", required=True)
    mesh_p.add_argument("--domain", default="square", choices=harness._DOMAINS)
    mesh_p.set_defaults(func=_cmd_mesh)

    presets_p = sub.add_parser("presets", help="list preset names")
    presets_p.set_defaults(func=_cmd_presets)
    return parser


def main(argv=None) -> int:
    threads = os.environ.get("MAXNIT_THREADS")
    if threads:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, threads)
    from .harness import ConfigError  # loads numpy, so only after the cap
    from .linsolve import ResidualError, SingularSystemError
    from .mesh import MeshError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SingularSystemError, ResidualError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except MeshError as exc:
        print(f"mesh failure: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
