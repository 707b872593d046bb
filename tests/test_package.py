"""The package as a whole: every module's exports, the one module that
writes files, the one that reads the command line, the thread cap of the
console entry point, and the README's examples."""

import ast
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import maxnit
from maxnit import cli

README = Path(__file__).resolve().parents[1] / "README.md"
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


def test_only_cli_reads_the_command_line():
    """`argparse` and `json` (the command line and its config files) are
    imported by `cli.py` alone; the other modules are the library."""
    importers = {
        path.name for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Import) and {a.name for a in node.names} & {"argparse", "json"}
        or isinstance(node, ast.ImportFrom) and node.module in ("argparse", "json")
    }
    assert importers == {"cli.py"}


def _fresh_interpreter(script: str, threads: str) -> subprocess.CompletedProcess:
    """`script` run by a new Python with MAXNIT_THREADS=`threads` and none of
    the BLAS thread variables set."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    env["MAXNIT_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True)


def test_thread_cap_is_set_before_numpy_loads():
    script = (
        "import contextlib, io, os, sys\n"
        "import maxnit.cli\n"
        "print('numpy' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert maxnit.cli.main(['presets']) == 0\n"
        f"print(*(os.environ.get(v) for v in {BLAS_THREADS!r}))\n"
    )
    run = _fresh_interpreter(script, "3")
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["False", "3 3 3"]


@pytest.mark.parametrize("threads", ["abc", "0"])
def test_thread_cap_that_is_not_a_positive_integer_is_a_config_error(threads):
    script = (
        "import sys\n"
        "import maxnit.cli\n"
        "code = maxnit.cli.main(['presets'])\n"
        "print('numpy' in sys.modules)\n"
        "sys.exit(code)\n"
    )
    run = _fresh_interpreter(script, threads)
    assert run.returncode == 2
    assert run.stdout.splitlines() == ["False"]
    assert run.stderr.splitlines() == [
        f"configuration error: MAXNIT_THREADS must be a positive integer, not {threads!r}"
    ]


def _readme_block(section: str, language: str) -> str:
    """The first `language` code block under the README heading `## section`."""
    body = README.read_text().split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return body.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_examples_run(tmp_path, capsys):
    exec(_readme_block("Library example", "python"), {})
    assert capsys.readouterr().out.startswith("ErrorReport(h=")
    # the config file of "CLI" is one that `maxnit run --config` accepts
    path = tmp_path / "study.json"
    path.write_text(_readme_block("CLI", "json"))
    config = cli._config_from_json(str(path))
    assert (config.case, config.levels) == ("lshape:1", (16, 32, 64))
