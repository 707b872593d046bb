"""Benchmark of maxnit's preset convergence studies, through the user entry point.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Every sample is one fresh process (perfbench/study.py) that calls
``maxnit.cli.main(["run", "--preset", P, "--emit", "csv", "--out", DIR])``
with ``MAXNIT_THREADS`` set to the thread cap. Each study's full-precision
CSVs are checked against reference/<workload>.json, the seed commit's own
output. The inputs are deterministic manufactured solutions, so the seed
only sets which study of a traced/untraced pair runs first and the
workload order under ``all``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as medians
over the run's samples, times scaled to a reference host speed measured by
a yardstick (see YARDSTICK_REF_S); ``--trace 1`` runs traced and untraced studies in
pairs and reports the per-layer metrics. The last line of stdout is the
result object; the line before it is the full report (samples, quartiles,
run facts). Exit status: 0 when every level matches the reference, 1 when
a correctness check fails, 2 when the benchmark cannot run at all.
"""

import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracing import layer_metrics  # noqa: E402

# Why each workload is here is recorded in BENCHMARK.json and README.md.
# `idle`: wrappers the preset never calls (no strong-BC case), whose zero
# counts are real rather than missing.
WORKLOADS = {
    "square-ps-weak": {"preset": "table1-ps", "idle": ("maxnit.harness.apply_strong_bc",)},
    "lshape-cc-3case": {
        "preset": "table3-crisscross",
        "idle": ("maxnit.harness.apply_strong_bc",),
    },
    "lshape-corner": {"preset": "table5-corner", "idle": ()},
}
# Single-threaded BLAS/OpenMP pools: SuperLU factorises sequentially, so a
# second thread measured no faster and only adds contention on a shared
# host; a fixed cap also keeps runs on different hosts comparable.
THREADS = 1
# The yardstick's time (study.py) on the quiet reference host. A shared
# host's speed drifts, up to 1.8x between runs minutes apart, and slows a
# run's studies, set-ups and yardsticks alike; so untraced times are reported
# at the reference speed: wall time x YARDSTICK_REF_S / the run's median
# yardstick time.
YARDSTICK_REF_S = 0.30
CHILD_TIMEOUT_S = 150
REL_TOL = 1e-9  # ROADMAP's "same numbers"
CHECKED = ("h", "dofs", "err_u", "err_curl", "err_p")
TMP_PARENT = ROOT / ".perfbench_tmp"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, reference or spec)."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# one process


def run_child(tmp: Path, tag: str, preset=None, trace=False) -> dict:
    """Start study.py once and return its result; {"error": ...} on failure."""
    result = tmp / f"{tag}.json"
    out = tmp / tag
    cmd = [sys.executable, str(HERE / "study.py"), "--src", str(SRC), "--result", str(result)]
    if preset:
        out.mkdir()
        cmd += ["--preset", preset, "--out", str(out)] + (["--trace"] if trace else [])
    # The thread cap comes from MAXNIT_THREADS alone. Bytecode for every
    # module goes to a cache in the run's temporary directory, written by the
    # warm-up process, so later processes start as an installed package does.
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.endswith("_NUM_THREADS") and k != "PYTHONDONTWRITEBYTECODE"
    }
    env.update(MAXNIT_THREADS=str(THREADS), PYTHONPYCACHEPREFIX=str(tmp.parent / "pycache"))
    spawned = _now()
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(spawned)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )  # on timeout the child is killed and waited for
    except subprocess.TimeoutExpired:
        return {"error": f"no result within {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0 or not result.exists():
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"}
    with open(result) as f:
        res = json.load(f)
    res["out"] = out
    if res.get("exit_code", 0) != 0:
        res["error"] = f"maxnit exited {res['exit_code']}: {proc.stderr.strip()[-400:]}"
    return res


# ---------------------------------------------------------------------------
# correctness


def load_reference(workload: str) -> dict:
    path = HERE / "reference" / f"{workload}.json"
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read reference {path}: {exc}") from exc


def read_levels(path: Path) -> list:
    """The checked columns of one study CSV, read by column name."""
    with open(path, newline="") as f:
        return [
            {c: (int(row[c]) if c == "dofs" else float(row[c])) for c in CHECKED}
            for row in csv.DictReader(f)
        ]


def levels(reference: dict) -> int:
    return sum(len(rows) for rows in reference["files"].values())


def level_failures(study: dict, reference: dict) -> list:
    """One message per reference level the study did not reproduce."""
    if "error" in study:
        return [study["error"]] * levels(reference)
    failures = []
    for name, ref_rows in reference["files"].items():
        try:
            rows = read_levels(study["out"] / name)
        except (OSError, KeyError, ValueError) as exc:
            failures += [f"{name}: {exc!r}"] * len(ref_rows)
            continue
        if len(rows) != len(ref_rows):
            failures += [f"{name}: {len(rows)} rows, reference has {len(ref_rows)}"] * len(ref_rows)
            continue
        for i, (got, ref) in enumerate(zip(rows, ref_rows)):
            for c in CHECKED:
                # written so that a NaN fails
                if not abs(got[c] - ref[c]) <= REL_TOL * abs(ref[c]):
                    failures.append(f"{name} level {i}: {c} {got[c]!r} != {ref[c]!r}")
                    break
    return failures


# ---------------------------------------------------------------------------
# statistics


def summarise(values: list) -> dict:
    """Median, quartiles (from four samples on) and the highest percentile
    with at least ten samples beyond it (None below 20 samples)."""
    values = sorted(values)
    n = len(values)
    out = {"n": n, "median": statistics.median(values) if values else None, "values": values}
    if n >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    tail = None
    if n >= 20:
        p = int(100 * (n - 10) / n)  # whole percent, at least ten samples above
        tail = {"p": p, "value": statistics.quantiles(values, n=100)[p - 1]}
    out["tail"] = tail
    return out


# ---------------------------------------------------------------------------
# runs


def run_untraced(workload: str, seconds: float, tmp: Path) -> dict:
    """A probe (set-up plus yardstick) before each study, studies while the
    next probe and study fit in `seconds`, then probes in the time left."""
    spec, reference = WORKLOADS[workload], load_reference(workload)
    samples = {"study_s": [], "setup_s": [], "peak_rss_mb": [], "yardstick_s": []}
    failures: list = []
    attempted = 0
    t0 = _now()

    def probe(tag, counted=True):
        start = _now()
        res = run_child(tmp, tag)
        if "error" in res:
            raise BenchError(f"probe failed: {res['error']}")
        if counted:
            samples["setup_s"].append(res["setup_s"])
            samples["yardstick_s"] += res["yardstick_s"]
        return _now() - start

    probe("warmup", counted=False)  # fills the bytecode and file caches
    k = 0
    while True:
        start = _now()
        probe(f"probe{k}")
        study = run_child(tmp, f"study{k}", spec["preset"])
        k += 1
        bad = level_failures(study, reference)
        attempted += levels(reference)
        failures += bad
        if "error" not in study:  # timed even when its numbers are wrong
            for name in ("study_s", "setup_s", "peak_rss_mb"):
                samples[name].append(study[name])
        if _now() - t0 + (_now() - start) > seconds:
            break
    while True:  # at least one probe after the last study
        probe_cost = probe(f"probe{k}")
        k += 1
        if _now() - t0 + probe_cost > seconds:
            break

    yard = summarise(samples["yardstick_s"])
    scale = YARDSTICK_REF_S / yard["median"]
    stats = {
        "study_s": summarise([v * scale for v in samples["study_s"]]),
        "setup_s": summarise([v * scale for v in samples["setup_s"]]),
        "peak_rss_mb": summarise(samples["peak_rss_mb"]),
        "study_wall_s": summarise(samples["study_s"]),
        "setup_wall_s": summarise(samples["setup_s"]),
        "yardstick_s": yard,
        "speed_scale": scale,
    }
    values = {name: stats[name]["median"] for name in ("study_s", "setup_s")}
    # The highest peak among the run's study processes: one process's peak
    # on the seed code lands on one of a few levels about 50 MB apart
    # (800, 855, 905 MB), varying from process to process with the same
    # inputs, so a median of two or three samples flips between levels.
    values["peak_rss_mb"] = max(samples["peak_rss_mb"], default=None)
    values["pass_ratio"] = 1.0 - len(failures) / attempted
    return {"attempted": attempted, "failures": failures, "values": values, "stats": stats}


def run_traced(workload: str, seconds: float, rng: random.Random, tmp: Path) -> dict:
    """Traced and untraced studies in pairs; per-layer metrics from the traced."""
    spec, reference = WORKLOADS[workload], load_reference(workload)
    plain, layers, wrappers = [], [], {}
    failures: list = []
    attempted, k = 0, 0
    t0 = _now()
    while True:
        start = _now()
        for traced in rng.sample([False, True], 2):
            study = run_child(tmp, f"study{k}", spec["preset"], trace=traced)
            k += 1
            bad = level_failures(study, reference)
            attempted += levels(reference)
            failures += bad
            if "error" in study:
                continue
            if traced:
                wrappers = study["wrappers"]
                try:
                    layers.append(layer_metrics(study["spans"], wrappers, spec["idle"]))
                except ValueError as exc:  # a broken trace fails the traced study
                    failures += [f"trace of study{k - 1}: {exc}"] * levels(reference)
            else:
                plain.append(study["study_s"])
        if _now() - t0 + (_now() - start) > seconds:
            break

    stats, values = {}, {}
    for name in layers[0] if layers else ():
        got = [m[name] for m in layers]
        if any(v is None for v in got):
            values[name] = None  # missing
            continue
        stats[name] = summarise(got)
        values[name] = stats[name]["median"]
    if layers and plain:
        stats["study_s_untraced"] = summarise(plain)
        values["trace.overhead_s"] = values["trace.study_s"] - stats["study_s_untraced"]["median"]
    return {
        "attempted": attempted,
        "failures": failures,
        "values": values,
        "stats": stats,
        "wrappers": wrappers,
    }


# ---------------------------------------------------------------------------
# reporting


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None  # an exported checkout; src_sha256 names the code
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return proc.stdout.strip() or None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "maxnit").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_facts(args) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "maxnit_threads": THREADS,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _git_commit(),
        "src_sha256": _src_sha256(),
    }


def _print_workload(workload: str, run: dict, spec: list) -> None:
    print(f"== {workload} (preset {WORKLOADS[workload]['preset']})")
    failed, attempted = len(run["failures"]), run["attempted"]
    print(f"   {'fail_ratio':<34} {failed / attempted:>14.6g} {'ratio':<16} "
          f"{failed} of {attempted} levels failed")
    for m in spec:
        value = run["values"].get(m["name"])
        st = run["stats"].get(m["name"], {})
        if value is None:
            print(f"   {m['name']:<34} missing")
            continue
        extra = f"n={st['n']}" if st else ""
        if st.get("q1") is not None:
            extra += f" q1={st['q1']:.6g} q3={st['q3']:.6g}"
        if st and m["unit"] == "s":
            tail = st["tail"]
            extra += f" p{tail['p']}={tail['value']:.6g}" if tail else " (tail: under 20 samples)"
        print(f"   {m['name']:<34} {value:>14.6g} {m['unit']:<16} {extra}")
    if "speed_scale" in run["stats"]:
        st = run["stats"]
        print(f"   times above are at the reference speed: wall times x {st['speed_scale']:.4g} "
              f"(yardstick median {st['yardstick_s']['median']:.4g} s, n={st['yardstick_s']['n']}; "
              f"study wall median {st['study_wall_s']['median']} s)")
    for msg in run["failures"][:5]:
        print(f"   FAIL {msg}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=44.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        if not (SRC / "maxnit" / "cli.py").is_file():
            raise BenchError(f"no maxnit sources under {SRC}")
        with open(ROOT / "BENCHMARK.json") as f:
            bench = json.load(f)
        spec = bench["per_layer" if args.trace else "end_to_end"]
        for name in WORKLOADS:
            load_reference(name)
    except (BenchError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind like an interrupt: subprocess.run kills and waits
    # for the running study process, and the temporary directory goes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    rng = random.Random(args.seed)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    rng.shuffle(workloads)
    TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_PARENT))
    runs = {}
    try:
        for workload in workloads:
            wtmp = tmp / workload
            wtmp.mkdir()
            if args.trace:
                run = run_traced(workload, args.seconds, rng, wtmp)
            else:
                run = run_untraced(workload, args.seconds, wtmp)
            runs[workload] = run
            _print_workload(workload, run, spec)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass  # another run still uses it

    def key(workload, name):
        return name if args.workload != "all" else f"{workload}/{name}"

    metrics = {
        key(w, m["name"]): (
            {"value": run["values"][m["name"]], "unit": m["unit"]}
            if run["values"].get(m["name"]) is not None
            else {"value": None, "unit": m["unit"], "missing": True}
        )
        for w, run in runs.items()
        for m in spec
    }
    attempted = sum(r["attempted"] for r in runs.values())
    failed = sum(len(r["failures"]) for r in runs.values())
    report = {
        "facts": run_facts(args),
        "workloads": {
            w: {k: v for k, v in r.items() if k != "values"} for w, r in runs.items()
        },
    }
    print(json.dumps({"report": report}))
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
