"""List the statements of maxnit that the studies and the CLI never run.

    python tools/src_trace.py [SRC]

SRC is a checkout or its `src` directory (default: this checkout) whose
`maxnit run --config` accepts the two JSON configs below. In one process,
with `sys.settrace` following only the files `SRC/maxnit/*.py`, it runs
through `maxnit.cli.main`:

- every preset of `default_configs()`, its levels replaced by two small
  ones (2, 4 on the square and the curved L; 4, 8 on the L-shape), with
  every emit format (csv, vtk, matrixmarket, markdown) into a temporary
  directory;
- `maxnit presets`;
- `maxnit mesh` for every (domain, family) of `harness._MESHES`, to a
  `.vtk` and to a `.txt` file;
- two studies from JSON configs: a galerkin-nitsche one, and a lone
  `free` corner study, whose group's first system has a border, so its
  LU is of a cut core.

It then prints every statement (an `ast.stmt`; definitions, imports and
docstrings aside) of which no line ran, one per line as
`file:line function source`, and a closing count, with exit status 0.
If any of these commands exits nonzero (a tree that rejects one of the
JSON configs, say), the tool stops there with exit status 1, names the
failing command and lists nothing. So a before/after count of two trees
runs each tree's own copy of this tool.
Standard library only; `MAXNIT_THREADS` defaults to 1, and the traced run
takes about a second on 2 cores.
"""

import ast
import contextlib
import io
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

SMALL_LEVELS = {"square": (2, 4), "curved-l": (2, 4), "lshape": (4, 8)}


def _package_dir(src: str) -> Path:
    root = Path(src).resolve()
    return root / "maxnit" if (root / "maxnit").is_dir() else root / "src" / "maxnit"


def _traffic(workdir: str) -> None:
    """Everything the presets and the CLI run, on small levels."""
    from maxnit.cli import main

    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code:
            raise SystemExit(f"maxnit {' '.join(argv)} exited with {code}")

    run(["presets"])  # first: it applies MAXNIT_THREADS before numpy loads
    from maxnit import harness

    small = {
        name: [replace(c, levels=SMALL_LEVELS[harness.build_case(c.case).domain])
               for c in configs]
        for name, configs in harness.default_configs().items()
    }
    real, harness.default_configs = harness.default_configs, lambda: small
    try:
        for name in small:
            run(["run", "--preset", name, "--out", workdir,
                 "--emit", "csv,vtk,matrixmarket,markdown"])
    finally:
        harness.default_configs = real
    for domain, family in harness._MESHES:
        for suffix in (".vtk", ".txt"):
            run(["mesh", "--domain", domain, "--family", family, "--level", "2",
                 "--out", os.path.join(workdir, f"{domain}-{family}{suffix}")])
    configs = {
        "galerkin": {"case": "square", "family": "crisscross", "levels": [2, 4],
                     "params": {"formulation": "galerkin-nitsche"}},
        "free": {"case": "lshape:1", "family": "crisscross", "levels": [4, 8],
                 "params": {"formulation": "stabilised-strong"}, "corner_strategy": "free"},
    }
    for label, config in configs.items():
        path = os.path.join(workdir, f"{label}.json")
        with open(path, "w") as f:
            json.dump({**config, "label": label}, f)
        run(["run", "--config", path, "--out", workdir, "--emit", "csv,markdown"])


def run_lines(package: Path) -> dict:
    """file name -> set of the line numbers that ran during `_traffic`."""
    files = {str(p): p.name for p in package.glob("*.py")}
    ran = {name: set() for name in files.values()}

    def local(frame, event, _arg):
        if event == "line":
            ran[files[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def on_call(frame, _event, _arg):
        return local if frame.f_code.co_filename in files else None

    sys.path.insert(0, str(package.parent))
    with tempfile.TemporaryDirectory() as workdir:
        sys.settrace(on_call)
        try:
            _traffic(workdir)
        finally:
            sys.settrace(None)
    return ran


def _statements(tree, scope="<module>"):
    """(statement, enclosing function) for every reportable statement."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _statements(node, node.name if scope == "<module>" else
                                   f"{scope}.{node.name}")
            continue
        docstring = (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                     and isinstance(node.value.value, str))
        if isinstance(node, ast.stmt) and not isinstance(node, (ast.Import, ast.ImportFrom)) \
                and not docstring:
            yield node, scope
        yield from _statements(node, scope)  # an except clause is no statement itself


def never_run(package: Path, ran: dict) -> list[str]:
    """`file:line function source` of every statement none of whose lines ran."""
    out = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        rows = [(node.lineno, scope) for node, scope in _statements(ast.parse(source))
                if not ran[path.name] & set(range(node.lineno, node.end_lineno + 1))]
        out += [f"{path.name}:{line} {scope} {lines[line - 1].strip()}"
                for line, scope in sorted(rows)]
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    package = _package_dir(argv[0] if argv else Path(__file__).resolve().parents[1])
    os.environ.setdefault("MAXNIT_THREADS", "1")
    rows = never_run(package, run_lines(package))
    print("\n".join(rows))
    print(f"{len(rows)} statements never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
