"""The package as a whole: every module's exports, the one module that
writes files, and the thread cap of the console entry point."""

import ast
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import maxnit

PACKAGE = Path(maxnit.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def test_submodule_exports_exist():
    missing = {
        name: [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
        for name in MODULES
        for module in [import_module(f"maxnit.{name}")]
    }
    assert missing == {name: [] for name in MODULES}


def _writes_a_file(call: ast.Call) -> bool:
    """`np.savetxt`, `scipy.io.mmwrite`, `csv.writer`, or `open` with a mode
    other than a literal read mode."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("savetxt", "mmwrite"):
        return True
    if name == "writer":
        return isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "csv"
    if name != "open":
        return False
    modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    return any(not (isinstance(m, ast.Constant) and set(m.value) <= set("rbt")) for m in modes)


def test_only_io_writes_files():
    writers = {
        path.name for path in PACKAGE.glob("*.py")
        if any(isinstance(node, ast.Call) and _writes_a_file(node)
               for node in ast.walk(ast.parse(path.read_text())))
    }
    assert writers == {"io.py"}


def test_thread_cap_is_set_before_numpy_loads():
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    env["MAXNIT_THREADS"] = "3"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    script = (
        "import contextlib, io, os, sys\n"
        "import maxnit.cli\n"
        "print('numpy' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert maxnit.cli.main(['presets']) == 0\n"
        f"print(*(os.environ.get(v) for v in {BLAS_THREADS!r}))\n"
    )
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.splitlines() == ["False", "3 3 3"]
