"""The benchmark's trace mode, run in process: ``bench/run.py --trace 1``
takes its per-layer metrics from spans on the package's public entry points,
so a solver change that leaves a metric with no span to read fails here."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(name, monkeypatch):
    """bench/<name>.py as the module ``name``, for the test's duration:
    run.py's traced pass imports the span recorder as ``spans``."""
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["sweep_independent", "hard_correlated", "cli_classification"])
def test_traced_pass_matches_and_reads_every_layer(name, tmp_path, monkeypatch):
    load("spans", monkeypatch)
    run, workloads = load("run", monkeypatch), load("workloads", monkeypatch)
    wl = workloads.WORKLOADS[name]
    inputs = wl.generate(0)
    state = wl.prepare(inputs, tmp_path)
    untraced = wl.fingerprint(state, wl.execute(state))
    tracer, root, state_t, raw_t = run.traced_pass(wl, inputs, tmp_path)
    assert wl.fingerprint(state_t, raw_t) == untraced
    metrics = run.layer_metrics(tracer, root)
    assert metrics
    for metric, m in metrics.items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), metric
