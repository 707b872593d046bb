"""tools/src_trace.py: the statements that a traced run of every preset and
CLI command never reaches."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_reports_the_entry_points_and_not_the_study_path():
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "src_trace.py"), str(ROOT)],
                         capture_output=True, text=True, check=True)
    *rows, total = run.stdout.splitlines()
    assert total == f"{len(rows)} statements never ran"
    functions = {row.split()[1] for row in rows}
    assert {"run_study", "core_matrix"} <= functions  # library entry points
    assert any(row.startswith("cli.py:") and " main return 2" in row for row in rows)
    assert not functions & {"_rule_parts", "_build", "save_txt", "write_matrix_market",
                            "emit_table"}
