"""The benchmark's tracer still sees every layer call that it reads a metric from.

`perfbench/tracing.py` wraps names in maxnit (its `_WRAPPED`, the case
callables and SuperLU's `splu`) and reports a metric as missing when a
wrapper it depends on is absent or goes uncalled. The studies below are
small versions of the benchmark's workloads: two weak-formulation studies,
one with f ≡ 0 and one with f ≠ 0, and a table5-shaped batch (three strong
corner strategies, which share one LU, plus Nitsche). A change that moves a
wrapped name or stops calling it on such a study fails here, before a
benchmark run reports the metric missing.
"""

import importlib
import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from maxnit.assembly import CORNER_STRATEGIES, Params
from maxnit.harness import StudyConfig, run_studies

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

LSHAPE = Params(nu=1.0, L0=0.5, c_u=1.0)
STRONG = replace(LSHAPE, formulation="stabilised-strong")
NO_STRONG_BC = ("maxnit.harness.apply_strong_bc",)

# name -> (batch, wrappers the batch never calls)
STUDIES = {
    "lshape-crisscross": ([StudyConfig("lshape:1", "crisscross", [4, 8], LSHAPE)], NO_STRONG_BC),
    "square-powell-sabin": (
        [StudyConfig("square", "powell-sabin", [2, 4], Params(nu=1.0, L0=2.0, c_u=1.0))],
        NO_STRONG_BC,
    ),
    "lshape-corner": (
        [
            StudyConfig("lshape:1", "crisscross", [8], STRONG, label=s, corner_strategy=s)
            for s in CORNER_STRATEGIES
        ]
        + [StudyConfig("lshape:1", "crisscross", [8], LSHAPE, label="nitsche")],
        (),
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
    batch, idle = STUDIES[name]
    tracer.call("harness.study", run_studies, batch, str(tmp_path), ("csv",))

    metrics = tracing.layer_metrics(tracer.spans, tracer.wrappers, idle=idle)
    assert set(metrics) == set(tracing.REQUIRES)
    assert [metric for metric, value in metrics.items() if value is None] == []
    if name == "lshape-corner":  # one LU for the strong core, one for Nitsche
        assert (metrics["linsolve.factorizations"], metrics["assembly.strong_bc_calls"]) == (2, 3)
