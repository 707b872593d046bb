"""The benchmark's tracer still sees every layer call that it reads a metric from.

`perfbench/tracing.py` wraps names in maxnit (its `_WRAPPED`, the case
callables and SuperLU's `splu`) and reports a metric as missing when a
wrapper it depends on is absent or goes uncalled. The two studies below are
small versions of the benchmark's weak-formulation workloads, one with f ≡ 0
and one with f ≠ 0. A change that moves a wrapped name or stops calling it on
such a study fails here, before a benchmark run reports the metric missing.
"""

import importlib
import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from maxnit.assembly import Params
from maxnit.harness import StudyConfig, run_studies

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

STUDIES = {
    "lshape-crisscross": StudyConfig(
        "lshape:1", "crisscross", [4, 8], Params(nu=1.0, L0=0.5, c_u=1.0)
    ),
    "square-powell-sabin": StudyConfig(
        "square", "powell-sabin", [2, 4], Params(nu=1.0, L0=2.0, c_u=1.0)
    ),
}


def load_tracing(monkeypatch):
    """perfbench/tracing.py as a fresh module, leaving no bytecode beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_traced_study_reports_every_metric(monkeypatch, tmp_path, name):
    tracing = load_tracing(monkeypatch)
    # save every attribute that `attach` replaces; teardown restores them
    for module_name, attr, _ in tracing._WRAPPED:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, getattr(module, attr))
    linsolve = importlib.import_module("maxnit.linsolve")
    monkeypatch.setattr(linsolve, "spla", linsolve.spla)

    tracer = tracing.Tracer(run_id=name)
    tracer.attach()
    config = replace(STUDIES[name], out_dir=str(tmp_path), emit=("csv",))
    tracer.call("harness.study", run_studies, [config])

    metrics = tracing.layer_metrics(
        tracer.spans, tracer.wrappers, idle=("maxnit.harness.apply_strong_bc",)
    )
    assert set(metrics) == set(tracing.REQUIRES)
    assert [metric for metric, value in metrics.items() if value is None] == []
