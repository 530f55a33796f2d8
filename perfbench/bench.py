"""Run one workload and turn what it observed into metrics.

:func:`run_workload` sets the workload up, checks the program's outputs,
measures for the requested number of seconds and returns an
:class:`Outcome`: the end-to-end metrics (untraced run) or the per-layer
metrics (traced run), plus the human-readable report lines.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs import names as metric_names
from repro.obs.registry import metrics_registry

from probe import SpeedTrack
from serve import SHARDED, ServeRun, serve, start_pool
from tracing import AccountingError, LayerTable, SpanRecorder, write_spans
from workloads import (
    Workload,
    new_tracker,
    peak_rss_mb,
    percentile,
    replay,
    resolved_kernel,
    set_up,
    solution_errors,
)

#: Layers reported with calls and self-time share, in report order.
SHARE_LAYERS = (
    "tdn.advance",
    "tdn.insert",
    "tdn.range_scan",
    "influence.sync_dirty",
    "influence.changed_nodes",
    "influence.spread",
    "influence.spread_many",
    "kernels.reach_scalar",
    "kernels.reach_vector",
    "kernels.spread_counts",
    "parallel.dispatch",
    "parallel.plane_publish",
)
#: Layers reported with self-time share only.
SELF_ONLY_LAYERS = ("core.tracker", "core.sieve", "core.query")


@dataclass
class Outcome:
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    report: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    spans: List[List[list]] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors

    def result(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


class Trace:
    """What the traced runs collect: the layer table, the last run's
    spans, graph sizes per step, and the oracle's counters."""

    def __init__(self) -> None:
        self.table = LayerTable()
        self.spans: List[List[list]] = []
        self.steps = self.pairs = self.overlay = self.instances = 0
        self.evals = 0
        self.counters = [0.0, 0.0, 0.0]  # memo hits, memo misses, dispatches

    def sample(self, tracker) -> None:
        """Record graph and tracker sizes (between steps)."""
        graph = tracker.graph
        self.steps += 1
        self.pairs += graph.num_pairs
        # Read the delta engine without syncing it: graph.csr() could
        # compact, moving work out of the next step.
        engine = getattr(graph, "_delta", None)
        self.overlay += engine.overlay_entries if engine is not None else 0
        self.instances += getattr(tracker.algorithm, "num_instances", 1)

    def mean(self, total: int) -> float:
        return total / self.steps if self.steps else 0.0

    def record(self, tracker, run, outcome: Outcome):
        """Call ``run()`` with the layer functions wrapped, fold in its
        spans, counters and oracle calls, and return its result."""
        recorder = SpanRecorder()
        before = _counters()
        with recorder:
            result = run()
        after = _counters()
        self.counters = [c + a - b for c, a, b in zip(self.counters, after, before)]
        self.evals += tracker.oracle_calls
        self.spans = recorder.take()
        try:
            self.table.add(self.spans)
        except AccountingError as exc:
            outcome.errors.append(f"self-time accounting: {exc}")
        return result


def _counters() -> List[float]:
    counters = metrics_registry().counter_values()
    return [
        counters[metric_names.ORACLE_MEMO_HITS_TOTAL],
        counters[metric_names.ORACLE_MEMO_MISSES_TOTAL],
        counters[metric_names.EXECUTOR_DISPATCHES_TOTAL],
    ]


def _mismatches(got: Sequence, expected: Sequence) -> int:
    """Steps whose solution differs from the expected sequence."""
    return sum(a != b for a, b in zip(got, expected)) + abs(len(got) - len(expected))


def _checker(tracker, every: int, last: int, outcome: Outcome, bad: set):
    """An ``after_step`` hook checking each solution (``every``-th and the
    last one re-evaluated against the reference reachability)."""

    def check(index: int, solution) -> None:
        found = solution_errors(tracker, solution, index % every == 0 or index == last)
        if found:
            bad.add(index)
            outcome.errors.extend(found[:3])

    return check


def _kernel_line(kernel) -> str:
    return (
        f"kernel: backend {kernel['backend']}, scalar/vector cutover "
        f"{kernel['scalar_pair_limit']} pairs (calibrated in this process)"
    )


# ----------------------------------------------------------------------
def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    spans_path: Optional[Path] = None,
) -> Outcome:
    runner = _run_serve if workload.serve else _run_replay
    outcome = runner(workload, seed, seconds, trace)
    if trace and spans_path is not None:
        write_spans(spans_path, outcome.spans)
    return outcome


def _run_replay(workload: Workload, seed: int, seconds: float, trace: bool):
    outcome = Outcome()
    setup, setup_s, generate_s = set_up(workload, seed, workload.events)
    setup.tracker.close()
    streams = setup.streams
    events = sum(len(batch) for steps in streams for _, batch in steps)

    # A short untimed replay warms the interpreter and numpy paths.
    tracker = new_tracker(workload)
    replay(tracker, streams[0][: max(1, len(streams[0]) // 10)])
    tracker.close()

    # Timed passes, each over every stream (and, traced, once more with
    # the layer functions wrapped), until the time is up.  The first
    # pass also checks every solution, between the timed steps; later
    # passes must reproduce its solutions exactly.
    collected = Trace()
    plain: List[list] = [[] for _ in streams]
    traced: List[list] = [[] for _ in streams]
    expected: List[list] = []
    passes = 0
    deadline = time.perf_counter() + seconds
    while passes == 0 or time.perf_counter() < deadline:
        for index, steps in enumerate(streams):
            for tracing in (False, True) if trace else (False,):
                # Start every pass from the same heap: the collector's
                # schedule inside the pass, and the peak resident set, no
                # longer depend on what earlier passes left behind.
                gc.collect()
                tracker = new_tracker(workload)
                if tracing:
                    run = collected.record(
                        tracker,
                        lambda: replay(
                            tracker,
                            steps,
                            lambda i, s: collected.sample(tracker),
                            speed=SpeedTrack(),
                        ),
                        outcome,
                    )
                    traced[index].append(run)
                else:
                    bad: set = set()
                    check = None
                    if passes == 0:
                        last = len(steps) - 1
                        every = workload.check_every
                        check = _checker(tracker, every, last, outcome, bad)
                    run = replay(tracker, steps, check, speed=SpeedTrack())
                    outcome.failed += len(bad)
                    if passes == 0:
                        expected.append(run.solutions)
                    plain[index].append(run)
                tracker.close()
                if run.error:
                    outcome.errors.append(run.error)
                outcome.attempted += len(steps)
                outcome.failed += run.failed
                outcome.failed += _mismatches(run.solutions, expected[index])
                run.solutions = []  # checked; keep only the timings
        passes += 1

    outcome.report.append(
        f"workload {workload.name}: seed {seed}, {len(streams)} streams of "
        f"{len(streams[0])} steps per pass ({events} events), {passes} timed passes"
        + (" + as many traced" if trace else "")
    )
    kernel = resolved_kernel()
    outcome.report.append(_kernel_line(kernel))
    # Per stream, the median pass; a pass sums the streams.
    measured = sum(statistics.median(sum(r.step_cpu_s) for r in rs) for rs in plain)
    untraced_s = sum(statistics.median(r.ref_cpu_s for r in rs) for rs in plain)
    outcome.report.append(
        f"events/s: {events / measured:.0f} measured, "
        f"{events / untraced_s:.0f} at reference speed"
    )
    if trace:
        traced_s = sum(statistics.median(r.ref_cpu_s for r in rs) for rs in traced)
        _per_layer(
            outcome,
            collected,
            passes,
            kernel,
            generate_s=generate_s,
            incidents=0,
            backlog_max=0,
            overhead_s=traced_s - untraced_s,
            untraced_s=untraced_s,
        )
        return outcome
    runs = [run for stream_runs in plain for run in stream_runs]
    values = [value for solutions in expected for _, value in solutions]
    _end_to_end(
        outcome,
        events_per_s=events / untraced_s,
        step_cpu=[c * s for r in runs for c, s in zip(r.step_cpu_s, r.scales)],
        result=[w * s for r in runs for w, s in zip(r.step_wall_s, r.scales)],
        setup_s=setup_s,
        value_mean=sum(values) / len(values),
    )
    return outcome


def _run_serve(workload: Workload, seed: int, seconds: float, trace: bool):
    outcome = Outcome()
    segments = workload.streams
    batches = int(seconds * workload.rate / workload.events_per_step / segments)
    if trace:
        batches //= 2  # half untraced, half traced
    setup, setup_s, generate_s = set_up(
        workload, seed, max(2, batches) * workload.events_per_step, start_pool
    )
    kernel = resolved_kernel()

    # One service per stream, each on a fresh tracker and pool, in turn;
    # traced, each stream runs once more with the layer functions wrapped.
    collected = Trace()
    plain: List[ServeRun] = []
    traced: List[ServeRun] = []
    tracker = setup.tracker
    for steps in setup.streams:
        for tracing in (False, True) if trace else (False,):
            gc.collect()
            if tracker is None:
                tracker = new_tracker(workload)
                start_pool(tracker)
            if tracing:
                run = collected.record(
                    tracker,
                    lambda: serve(
                        tracker,
                        steps,
                        workload.rate,
                        workload.poll_s,
                        after_step=lambda i: collected.sample(tracker),
                    ),
                    outcome,
                )
                traced.append(run)
            else:
                plain.append(serve(tracker, steps, workload.rate, workload.poll_s))
            tracker.close()
            tracker = None

    # Serial replay of the same batches, after the timed phase: every
    # epoch's solution, and so the final answer, must equal it.
    for index, steps in enumerate(setup.streams):
        bad: set = set()
        serial_tracker = new_tracker(workload, workers=1)
        last = len(steps) - 1
        check = _checker(serial_tracker, workload.check_every, last, outcome, bad)
        serial = replay(serial_tracker, steps, check)
        serial_tracker.close()
        if serial.error:
            outcome.errors.append(serial.error)
        outcome.attempted += len(steps)
        outcome.failed += serial.failed + len(bad)
        final = serial.solutions[-1] if serial.solutions else None
        for run in [plain[index]] + traced[index : index + 1]:
            outcome.attempted += run.batches + run.polls
            outcome.failed += run.unapplied + run.stale + run.oversized
            outcome.failed += _mismatches(run.solutions, serial.solutions)
            outcome.errors.extend(run.errors)
            if run.final != final:
                outcome.failed += 1
                outcome.errors.append(f"final answer {run.final} != serial {final}")
            if run.executor_state != SHARDED:
                # The pool degraded (or never started): the run measured a
                # serial fallback, not the sharded service.
                outcome.failed += 1
                outcome.errors.append(f"executor state {run.executor_state!r}")

    outcome.report.append(
        f"workload {workload.name}: seed {seed}, {segments} streams of "
        f"{len(setup.streams[0])} batches of {workload.events_per_step} events "
        f"offered at {workload.rate:g} events/s, {workload.workers} workers, "
        f"top_k polled every {workload.poll_s * 1e3:g} ms"
    )
    outcome.report.append(_kernel_line(kernel))
    for label, runs in (("untraced", plain), ("traced", traced)):
        if not runs:
            continue
        cpu_s = sum(run.cpu_s for run in runs)
        topk_s = [value for run in runs for value in run.topk_s]
        outcome.report.append(
            f"{label}: {sum(run.events for run in runs) / cpu_s:.0f} events/s "
            f"measured, result p50 "
            f"{percentile([r for run in runs for r in run.result_s], 50) * 1e3:.1f} "
            f"ms measured, top_k p99 {percentile(topk_s, 99) * 1e6:.1f} us "
            f"(n={len(topk_s)}), generator late max "
            f"{max(late for run in runs for late in run.late_s) * 1e3:.2f} ms, "
            f"backlog max {max(run.backlog_max for run in runs)} batches, "
            f"executor {', '.join(str(run.executor_state) for run in runs)}"
        )
    if trace:
        untraced_s = sum(sum(run.ref_step_cpu_s) for run in plain)
        _per_layer(
            outcome,
            collected,
            1,
            kernel,
            generate_s=generate_s,
            incidents=sum(run.incidents for run in traced),
            backlog_max=max(run.backlog_max for run in traced),
            overhead_s=sum(sum(run.ref_step_cpu_s) for run in traced) - untraced_s,
            untraced_s=untraced_s,
        )
        return outcome
    values = [value for run in plain for _, value in run.solutions] or [0.0]
    _end_to_end(
        outcome,
        events_per_s=sum(run.events for run in plain)
        / sum(run.ref_cpu_s for run in plain),
        step_cpu=[value for run in plain for value in run.ref_step_cpu_s],
        result=[value for run in plain for value in run.ref_result_s],
        setup_s=setup_s,
        value_mean=sum(values) / len(values),
    )
    return outcome


# ----------------------------------------------------------------------
def _end_to_end(outcome, *, events_per_s, step_cpu, result, setup_s, value_mean):
    if not step_cpu or not result:
        outcome.errors.append("no step completed")
        step_cpu = step_cpu or [0.0]
        result = result or [0.0]
    metrics = outcome.metrics
    metrics["events_per_s"] = (events_per_s, "events/s")
    metrics["step_ms_p50"] = (percentile(step_cpu, 50) * 1e3, "ms")
    metrics["step_ms_p90"] = (percentile(step_cpu, 90) * 1e3, "ms")
    metrics["result_ms_p50"] = (percentile(result, 50) * 1e3, "ms")
    metrics["result_ms_p90"] = (percentile(result, 90) * 1e3, "ms")
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    metrics["solution_value_mean"] = (value_mean, "nodes")
    for name, samples in (("step_ms", step_cpu), ("result_ms", result)):
        quantiles = (percentile(samples, q) * 1e3 for q in (90, 95, 99, 100))
        outcome.report.append(
            f"{name}: n={len(samples)}, p90/p95/p99/max "
            + "/".join(f"{value:.2f}" for value in quantiles)
        )


def _per_layer(
    outcome: Outcome,
    collected: Trace,
    passes: int,
    kernel,
    *,
    generate_s: float,
    incidents: int,
    backlog_max: int,
    overhead_s: float,
    untraced_s: float,
) -> None:
    table = collected.table
    metrics = outcome.metrics
    per_pass = 1.0 / passes
    for layer in SHARE_LAYERS:
        metrics[f"{layer}_calls"] = (table.layer_calls(layer) * per_pass, "count")
        metrics[f"{layer}_self_pct"] = (table.share(layer), "%")
    for layer in SELF_ONLY_LAYERS:
        metrics[f"{layer}_self_pct"] = (table.share(layer), "%")
    candidates = table.sizes["changed_nodes"] + table.sizes["nodes_in_id_order"]
    requested = table.sizes["InfluenceOracle.spread_many"]
    hits, misses, dispatches = collected.counters
    sweeps = table.spread_sweeps
    swept_sets = table.sizes["TraversalKernel.spread_counts"]
    metrics.update(
        {
            "tdn.alive_pairs_mean": (collected.mean(collected.pairs), "count"),
            "tdn.overlay_entries_mean": (collected.mean(collected.overlay), "count"),
            "influence.changed_candidates": (candidates * per_pass, "count"),
            "influence.sets_requested": (requested * per_pass, "count"),
            "influence.evals": (collected.evals * per_pass, "count"),
            "influence.memo_hit_ratio": (
                hits / (hits + misses) if hits + misses else 0.0,
                "ratio",
            ),
            "kernels.sets_per_sweep": (swept_sets / sweeps if sweeps else 0.0, "ratio"),
            "kernels.scalar_pair_limit": (float(kernel["scalar_pair_limit"]), "pairs"),
            "kernels.backend_native": (float(kernel["backend"] == "native"), "bool"),
            "core.instances_mean": (collected.mean(collected.instances), "count"),
            "core.instance_batches": (
                table.calls["SieveADN.on_batch"] * per_pass,
                "count",
            ),
            "parallel.pool_dispatches": (dispatches * per_pass, "count"),
            "parallel.incidents": (float(incidents), "count"),
            "parallel.backlog_max": (float(backlog_max), "count"),
            "datasets.generate_s": (generate_s, "s"),
            "trace.total_s": (table.total_ns * per_pass / 1e9, "s"),
            "trace.remainder_pct": (table.share("tracker"), "%"),
            "trace.overhead_s": (overhead_s, "s"),
        }
    )
    outcome.report.append(
        f"tracing overhead: {overhead_s:+.3f} s per pass on {untraced_s:.3f} s "
        f"untraced ({100.0 * overhead_s / untraced_s:+.0f}%)"
    )
    if not any(error.startswith("self-time accounting") for error in outcome.errors):
        outcome.report.append(
            f"self-time accounting: layers + remainder = traced total "
            f"({table.total_ns / 1e9:.3f} s over {passes} pass(es)): ok"
        )
    outcome.spans = collected.spans
