"""Record reference/<workload>.json: the per-level values the correctness gate
compares against, from one untraced run of each preset at the current code.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run it only at a commit whose numbers are the accepted ones (the reference
in this directory comes from the seed commit); the gate exists to catch any
later change to them.
"""

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from run import HERE, TMP_PARENT, WORKLOADS, read_levels, run_child  # noqa: E402


def main(argv: list) -> int:
    TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="ref-", dir=TMP_PARENT))
    try:
        for workload in argv or WORKLOADS:
            preset = WORKLOADS[workload]["preset"]
            (tmp / workload).mkdir()
            res = run_child(tmp / workload, "study", preset)
            if "error" in res:
                print(f"{workload}: {res['error']}", file=sys.stderr)
                return 1
            files = {p.name: read_levels(p) for p in sorted(res["out"].glob("*.csv"))}
            path = HERE / "reference" / f"{workload}.json"
            path.parent.mkdir(exist_ok=True)
            with open(path, "w") as f:
                json.dump({"preset": preset, "files": files}, f, indent=1)
                f.write("\n")
            print(f"wrote {path}: {sum(map(len, files.values()))} levels")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
