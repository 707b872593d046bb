"""Compare the preset CSVs of two source trees, field by field.

    python tools/compare_presets.py PARENT_SRC CHANGE_SRC [PRESET ...]

Each SRC is a checkout or its `src` directory. The presets (by default
every one that the tree defines) run with `--emit csv` in one fresh
process per tree, one tree after the other, with `MAXNIT_THREADS=1`.
Every field other than `wall_ms` that differs between the trees is
printed with its relative difference. Exit status: 0 when at least one
field was compared and every difference is at most `REL_TOL` relative,
1 otherwise (a missing file, row or column counts as above it). A tree
that cannot run its presets (a wrong path, an unknown preset, a failing
study) ends the comparison with one line naming the tree and the exit
status of its run, after the run's own error output, and status 1.
"""

import csv
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REL_TOL = 1e-9
SKIP = {"wall_ms"}  # the one column that differs from run to run

# run in each tree's own interpreter: argv is the output directory, then the presets
_RUNNER = """
import sys
from maxnit.cli import main
from maxnit.harness import default_configs
out, presets = sys.argv[1], sys.argv[2:] or list(default_configs())
for preset in presets:
    code = main(["run", "--preset", preset, "--out", out, "--emit", "csv"])
    if code:
        sys.exit(f"preset {preset} exited with {code}")
"""


def _src(path: str) -> Path:
    path = Path(path).resolve()
    return path / "src" if (path / "src" / "maxnit").is_dir() else path


def run_presets(src: Path, out: Path, presets: list[str]) -> None:
    env = {**os.environ, "PYTHONPATH": str(src), "MAXNIT_THREADS": "1"}
    subprocess.run([sys.executable, "-B", "-c", _RUNNER, str(out), *presets], env=env, check=True)


def _rel(a: str, b: str) -> float:
    try:
        x, y = float(a), float(b)
    except ValueError:  # a blank field against a number
        return math.inf
    if x == y:
        return 0.0
    rel = abs(x - y) / max(abs(x), abs(y))
    return rel if math.isfinite(rel) else math.inf  # a nan or inf on one side


def _read(path: Path) -> tuple[list, list]:
    """The header row and the other rows of a CSV file."""
    with open(path, newline="") as f:
        header, *rows = list(csv.reader(f)) or [[]]
    return header, rows


def compare(parent: Path, change: Path) -> tuple[int, float]:
    """Print every differing field of the CSVs in the two directories;
    return the number of fields compared and the largest relative difference.
    Two CSVs whose header rows differ, in order, or whose rows differ in
    number or width, count as different."""
    names = sorted({p.name for p in parent.glob("*.csv")} | {p.name for p in change.glob("*.csv")})
    fields, worst = 0, 0.0
    for name in names:
        if not (parent / name).exists() or not (change / name).exists():
            print(f"{name}: only in {'change' if (change / name).exists() else 'parent'}")
            worst = math.inf
            continue
        header, rows_p = _read(parent / name)
        header_c, rows_c = _read(change / name)
        if header != header_c or [len(r) for r in rows_p] != [len(r) for r in rows_c]:
            print(f"{name}: rows or columns differ")
            worst = math.inf
            continue
        for level, (row_p, row_c) in enumerate(zip(rows_p, rows_c)):
            for key, a, b in zip(header, row_p, row_c):
                if key in SKIP:
                    continue
                fields += 1
                if a != b:
                    rel = _rel(a, b)
                    worst = max(worst, rel)
                    print(f"{name} row {level} {key}: {a} -> {b} (rel {rel:.2e})")
    print(f"{len(names)} CSVs, {fields} fields compared, largest relative difference {worst:.2e}")
    return fields, worst


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        outs = []
        for tag, src in zip(("parent", "change"), argv[:2]):
            out = Path(tmp) / tag
            out.mkdir()
            try:
                run_presets(_src(src), out, argv[2:])
            except subprocess.CalledProcessError as exc:
                print(f"{tag} tree {src}: presets exited with status {exc.returncode}",
                      file=sys.stderr)
                return 1
            outs.append(out)
        fields, worst = compare(*outs)
    return 0 if fields and worst <= REL_TOL else 1


if __name__ == "__main__":
    sys.exit(main())
