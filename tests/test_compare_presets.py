"""tools/compare_presets.py: the field-by-field comparison of two CSV sets."""

import importlib.util
import math
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_presets.py"
HEADER = "h,err_u,wall_ms,triple\n"


def load_tool(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("compare_presets", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(directory, name, rows, header=HEADER):
    directory.mkdir(exist_ok=True)
    (directory / name).write_text(header + "".join(row + "\n" for row in rows))


def test_identical_apart_from_wall_ms(monkeypatch, tmp_path, capsys):
    tool = load_tool(monkeypatch)
    write(tmp_path / "a", "s.csv", ["0.5,1e-3,12.5,", "0.25,2.5e-4,40.1,3"])
    write(tmp_path / "b", "s.csv", ["0.5,1e-3,13.0,", "0.25,2.5e-4,38.7,3"])
    assert tool.compare(tmp_path / "a", tmp_path / "b") == (6, 0.0)
    assert capsys.readouterr().out.splitlines() == [
        "1 CSVs, 6 fields compared, largest relative difference 0.00e+00"
    ]


def test_reports_each_difference_and_its_size(monkeypatch, tmp_path, capsys):
    tool = load_tool(monkeypatch)
    write(tmp_path / "a", "s.csv", ["0.5,1.0000000000e-3,1,", "0.25,2e-4,1,3"])
    write(tmp_path / "b", "s.csv", ["0.5,1.0000000001e-3,1,", "0.25,2e-4,1,"])
    write(tmp_path / "a", "gone.csv", [])
    fields, worst = tool.compare(tmp_path / "a", tmp_path / "b")
    out = capsys.readouterr().out
    assert fields == 6 and math.isinf(worst)
    assert "s.csv row 0 err_u" in out and "(rel 1.00e-10)" in out
    assert "s.csv row 1 triple: 3 ->  (rel inf)" in out
    assert "gone.csv: only in parent" in out


def test_the_gate_is_relative_1e_9(monkeypatch, tmp_path):
    tool = load_tool(monkeypatch)
    write(tmp_path / "a", "s.csv", ["1,1.0,0,"])
    write(tmp_path / "b", "s.csv", ["1,1.000000002,0,"])
    assert tool.compare(tmp_path / "a", tmp_path / "b")[1] > tool.REL_TOL == 1e-9


def test_a_non_finite_field_fails_the_gate(monkeypatch, tmp_path, capsys):
    tool = load_tool(monkeypatch)
    for value in ("nan", "inf", "-inf"):
        rows = {"parent": "1,1.0,0,", "change": f"1,{value},0,"}
        monkeypatch.setattr(
            tool, "run_presets", lambda src, out, presets: write(out, "s.csv", [rows[out.name]])
        )
        assert tool.main(["parent", "change"]) == 1
        out = capsys.readouterr().out
        assert f"s.csv row 0 err_u: 1.0 -> {value} (rel inf)" in out
        assert "largest relative difference inf" in out


def test_column_order_counts_with_or_without_rows(monkeypatch, tmp_path, capsys):
    tool = load_tool(monkeypatch)
    write(tmp_path / "a", "s.csv", ["0.5,1e-3,12.5,"])
    write(tmp_path / "b", "s.csv", ["0.5,12.5,1e-3,"], header="h,wall_ms,err_u,triple\n")
    write(tmp_path / "a", "empty.csv", [])
    write(tmp_path / "b", "empty.csv", [], header="h,err_u,triple,wall_ms\n")
    assert tool.compare(tmp_path / "a", tmp_path / "b") == (0, math.inf)
    out = capsys.readouterr().out
    assert "s.csv: rows or columns differ" in out and "empty.csv: rows or columns differ" in out


def test_nothing_compared_fails_the_gate(monkeypatch, capsys):
    # no CSV on either side: "same numbers" would hold vacuously
    tool = load_tool(monkeypatch)
    monkeypatch.setattr(tool, "run_presets", lambda src, out, presets: None)
    assert tool.main(["parent", "change"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "0 CSVs, 0 fields compared, largest relative difference 0.00e+00"
    ]


def test_a_tree_that_cannot_run_fails_in_one_line(monkeypatch, capsys):
    tool = load_tool(monkeypatch)

    def run_presets(src, out, presets):
        if out.name == "change":
            raise tool.subprocess.CalledProcessError(2, ["python"])
        write(out, "s.csv", ["1,1.0,0,"])

    monkeypatch.setattr(tool, "run_presets", run_presets)
    assert tool.main(["old", "new", "table1-ps"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["change tree new: presets exited with status 2"]
