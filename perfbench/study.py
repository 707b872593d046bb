"""One benchmark process: set up, optionally run one traced preset study, report.

Usage (started by run.py, one fresh process per sample):

    python3 perfbench/study.py --src SRC --spawned-at T --result FILE
        [--preset NAME --out DIR [--trace]]

SRC is the directory holding the ``maxnit`` package. T is the
CLOCK_MONOTONIC reading the parent took just before it started this
process, so ``setup_s`` covers interpreter start-up as a user pays it.
Without ``--preset`` the process sets up and then times the yardstick (a
probe). The result is one JSON object written to FILE; the CLI's own table
output goes to whatever stdout the parent gave (normally /dev/null).
"""

import argparse
import json
import os
import resource
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


YARDSTICK_REPS = 3


def yardstick() -> float:
    """Seconds for a fixed piece of sequential numpy/SuperLU work, the
    host-speed probe run.py scales study and set-up times by. It must never
    change with maxnit: it calls no maxnit code, and its inputs are fixed.
    A sparse LU with fill well beyond the CPU caches plus streaming ufuncs
    over 16 MB arrays: the two kinds of work that take most of a study."""
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n, m = 200, 1 << 21
    t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    a = (sp.kron(sp.identity(n), t) + sp.kron(t, sp.identity(n))).tocsc()
    t0 = time.perf_counter()
    x = spla.splu(a).solve(np.ones(n * n))
    p = np.linspace(0.0, 1.0, m)
    s = np.sum(np.sin(3.0 * p) * np.cos(5.0 * p) * np.exp(-p))
    elapsed = time.perf_counter() - t0
    if not np.isfinite(x[0] + s):
        raise SystemExit("yardstick produced a non-finite value")
    return elapsed


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--preset")
    ap.add_argument("--out")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    from maxnit import cli

    pkg = os.path.realpath(os.path.dirname(cli.__file__))
    if os.path.dirname(pkg) != os.path.realpath(args.src):
        raise SystemExit(f"maxnit imported from {pkg}, not from {args.src}")
    # `presets` goes through the entry point: it applies the MAXNIT_THREADS
    # cap and then imports the harness, numpy and scipy, as `maxnit run` does.
    code = cli.main(["presets"])
    setup_s = _now() - args.spawned_at
    result = {"setup_s": setup_s, "setup_exit": code}

    if not args.preset:
        result["yardstick_s"] = [yardstick() for _ in range(YARDSTICK_REPS)]
    else:
        tracer = None
        if args.trace:
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from tracing import Tracer

            tracer = Tracer(run_id=os.path.basename(args.out))
            tracer.attach()
        argv = ["run", "--preset", args.preset, "--emit", "csv", "--out", args.out]
        t0 = time.perf_counter()
        if tracer is None:
            code = cli.main(argv)
        else:
            code = tracer.call("harness.study", cli.main, argv)
        result["study_s"] = time.perf_counter() - t0
        result["exit_code"] = code
        if tracer is not None:
            result["wrappers"] = tracer.wrappers
            result["spans"] = tracer.spans
    result["peak_rss_mb"] = _peak_rss_mb()

    with open(args.result, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
