"""Tiny-scale smoke test of the benchmark: every workload, both modes.

Runs each workload on a few dozen events, untraced and traced, and
checks that the outputs pass the benchmark's own correctness checks,
that the self-time accounting holds, and that the metric names match
``BENCHMARK.json``.  Run with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from bench import run_workload  # noqa: E402
from tracing import AccountingError, LayerTable, SpanRecorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "hist-lbsn": dict(events=120, setups=1),
    "adn-batch": dict(events=300, setups=1, check_every=5),
    "serve-sharded": dict(setups=1),
}


@pytest.fixture(autouse=True)
def python_kernels(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "python")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_correctly(name, trace, tmp_path):
    workload = dataclasses.replace(WORKLOADS[name], **TINY[name])
    spans = tmp_path / "spans.jsonl"
    outcome = run_workload(workload, seed=3, seconds=0.6, trace=trace, spans_path=spans)
    assert outcome.errors == []
    assert outcome.correct and outcome.attempted > 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(outcome.metrics) == [metric["name"] for metric in wanted]
    for metric in wanted:
        value, unit = outcome.metrics[metric["name"]]
        assert unit == metric["unit"]
        assert value == value  # not NaN
    if trace:
        assert spans.stat().st_size > 0
        assert any(line.startswith("self-time accounting") for line in outcome.report)
        assert outcome.metrics["trace.total_s"][0] > 0
    else:
        assert outcome.metrics["events_per_s"][0] > 0
        assert outcome.metrics["setup_s"][0] > 0


def test_accounting_rejects_a_child_outside_its_parent():
    table = LayerTable()
    spans = [
        ["InfluenceTracker.step", 10, 20, -1, 0, 0],
        ["TDNGraph.add_interaction", 15, 25, 0, 0, 0],
    ]
    with pytest.raises(AccountingError):
        table.add([spans])


def test_self_time_subtracts_children():
    table = LayerTable()
    table.add([[
        ["InfluenceTracker.step", 0, 100, -1, 0, 0],
        ["HistApprox.on_batch", 10, 90, 0, 0, 0],
        ["SieveADN.on_batch", 20, 50, 1, 0, 0],
        ["TDNGraph.add_interaction", 95, 99, 0, 0, 0],
    ]])
    assert table.total_ns == 100
    assert table.layer_ns("tracker") == 16
    assert table.layer_ns("core.tracker") == 50
    assert table.layer_ns("core.sieve") == 30
    assert table.layer_ns("tdn.insert") == 4


def test_recorder_restores_the_wrapped_functions():
    from repro.core.tracker import InfluenceTracker

    original = InfluenceTracker.__dict__["step"]
    recorder = SpanRecorder()
    with recorder:
        assert InfluenceTracker.__dict__["step"] is not original
        tracker = InfluenceTracker("sieve-adn", k=2, epsilon=0.2)
        tracker.step(0, [("a", "b"), ("b", "c")])
    assert InfluenceTracker.__dict__["step"] is original
    (spans,) = recorder.take()
    assert spans[0][0] == "InfluenceTracker.step" and spans[0][3] == -1
    assert all(span[4] == 0 for span in spans)
