"""Spans recorded from outside the program, and per-layer self time.

The benchmark wraps a fixed set of public functions of each layer (see
:data:`LAYER_FUNCTIONS`) and records one span per call: function label,
start, end, parent span and step id.  Spans stay in memory while the
workload runs; :func:`write_spans` saves them when the run ends.

A span's *self time* is its duration minus the part of its interval that
its child spans cover.  The root spans are the calls that start a unit
of work (``InfluenceTracker.step``, or a plane publish the ingest service
issues between steps); the self time of the step roots is the
*remainder* — time spent in code that no wrapped function covers.
:meth:`LayerTable.add` checks that the layer self times plus the
remainder add up to the traced total.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: Root span label: a tracker step.  Its self time is the remainder.
ROOT = "InfluenceTracker.step"

_GRAPH = "repro.tdn.graph"
_ORACLE = "repro.influence.oracle"
_KERNEL = "repro.kernels.traversal"
_SIEVE = "repro.core.sieve_adn"
_HIST = "repro.core.hist_approx"
_EXECUTOR = "repro.parallel.executor"

#: Layer -> wrapped functions, each ``(module, attribute)``.  An attribute
#: "Class.method" wraps a method on the class; a plain name wraps a
#: module-level function under that name in the given module, which is
#: the module that calls it.  Spans carry the attribute as their label.
#: The set is kept small on purpose: every wrapped call costs about a
#: microsecond, and the hot kernels run hundreds of thousands of times.
LAYER_FUNCTIONS: Dict[str, List[Tuple[str, str]]] = {
    "tracker": [("repro.core.tracker", ROOT)],
    "tdn.advance": [(_GRAPH, "TDNGraph.advance_to")],
    "tdn.insert": [(_GRAPH, "TDNGraph.add_interaction")],
    "tdn.range_scan": [(_GRAPH, "TDNGraph.edges_with_expiry_in")],
    "influence.sync_dirty": [(_ORACLE, "InfluenceOracle.sync_dirty")],
    "influence.changed_nodes": [
        (_SIEVE, "changed_nodes"),
        (_SIEVE, "nodes_in_id_order"),
    ],
    "influence.spread": [(_ORACLE, "InfluenceOracle.spread")],
    "influence.spread_many": [(_ORACLE, "InfluenceOracle.spread_many")],
    "kernels.reach_scalar": [(_KERNEL, "TraversalKernel.reach_scalar")],
    "kernels.reach_vector": [(_KERNEL, "TraversalKernel.reach_vector")],
    "kernels.spread_counts": [(_KERNEL, "TraversalKernel.spread_counts")],
    "core.tracker": [(_HIST, "HistApprox.on_batch")],
    "core.sieve": [
        (_SIEVE, "SieveADN.on_batch"),
        (_SIEVE, "SieveADN.process_candidates"),
    ],
    "core.query": [(_HIST, "HistApprox.query"), (_SIEVE, "SieveADN.query")],
    "parallel.dispatch": [
        (_EXECUTOR, "ShardedOracleExecutor.spread_counts"),
        (_EXECUTOR, "ShardedOracleExecutor.ancestor_ids"),
        (_EXECUTOR, "ShardedOracleExecutor.touched_cone_ids"),
    ],
    "parallel.plane_publish": [("repro.parallel.plane", "SharedCSRPlane.publish")],
}

#: Functions whose calls also record a size: the number of seed sets
#: passed in, or of candidates returned.
_SIZED = {
    "InfluenceOracle.spread_many": lambda args, result: len(args[1]),
    "TraversalKernel.spread_counts": lambda args, result: len(args[1]),
    "changed_nodes": lambda args, result: len(result),
    "nodes_in_id_order": lambda args, result: len(result),
}

#: Generator functions: the wrapper drains them inside the span, so the
#: span covers the scan and not only the creation of the generator.
_GENERATORS = {"TDNGraph.edges_with_expiry_in"}


class SpanRecorder:
    """Collects spans from wrapped calls, one call stack per thread.

    A span is a list ``[label, start_ns, end_ns, parent, step, size]``
    where ``parent`` is the index of the enclosing span in the same
    thread's list (-1 for a root) and ``step`` numbers the root spans of
    that thread.  Clocks are ``time.perf_counter_ns``.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: List[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _state(self) -> "_ThreadSpans":
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadSpans()
            with self._lock:
                self._threads.append(state)
            return state

    def _wrap(self, label: str, func: Callable) -> Callable:
        clock = time.perf_counter_ns
        sized = _SIZED.get(label)
        drain = label in _GENERATORS
        thread_state = self._state

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            state = thread_state()
            spans, stack = state.spans, state.stack
            if stack:
                parent = stack[-1]
                step = spans[parent][4]
            else:
                parent = -1
                state.step += 1
                step = state.step
            span = [label, 0, 0, parent, step, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = func(*args, **kwargs)
                if drain:
                    result = iter(list(result))
            finally:
                span[2] = clock()
                stack.pop()
            if sized is not None:
                span[5] = sized(args, result)
            return result

        return wrapper

    def __enter__(self) -> "SpanRecorder":
        """Wrap every function of :data:`LAYER_FUNCTIONS`."""
        for targets in LAYER_FUNCTIONS.values():
            for module_name, attribute in targets:
                owner = importlib.import_module(module_name)
                name = attribute
                if "." in attribute:
                    class_name, name = attribute.split(".")
                    owner = getattr(owner, class_name)
                original = owner.__dict__[name]
                setattr(owner, name, self._wrap(attribute, original))
                self._patches.append((owner, name, original))
        return self

    def __exit__(self, *exc_info) -> None:
        """Restore every wrapped function."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------
    def take(self) -> List[List[list]]:
        """Hand over the spans recorded so far (per thread) and reset.

        Call it between units of work, while no wrapped call is open.
        """
        taken = []
        with self._lock:
            for state in self._threads:
                if state.stack:
                    raise AccountingError("spans taken while a call is open")
                if state.spans:
                    taken.append(state.spans)
                    state.spans = []
        return taken


class _ThreadSpans:
    """One thread's spans, open-call stack and step counter."""

    __slots__ = ("spans", "stack", "step")

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.step = -1


class AccountingError(AssertionError):
    """The spans do not nest, or self times do not add up to the total."""


class LayerTable:
    """Self time, calls and sizes per wrapped function, over many spans.

    Keys are function labels; :meth:`layer_ns` and :meth:`layer_calls`
    sum them per layer.  ``total_ns`` is the summed duration of all root
    spans; the self time of the step roots is the remainder.
    """

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.sizes: Dict[str, int] = defaultdict(int)
        self.total_ns = 0
        self.spread_sweeps = 0

    def layer_ns(self, layer: str) -> int:
        return sum(self.self_ns[label] for _, label in LAYER_FUNCTIONS[layer])

    def layer_calls(self, layer: str) -> int:
        return sum(self.calls[label] for _, label in LAYER_FUNCTIONS[layer])

    def share(self, layer: str) -> float:
        """Self time of ``layer`` as a percentage of the traced total."""
        if not self.total_ns:
            return 0.0
        return 100.0 * self.layer_ns(layer) / self.total_ns

    def add(self, threads: List[List[list]]) -> None:
        """Fold one unit of work's spans in; raise on a bad trace.

        Self time is computed from intervals: the union of the child
        intervals, clipped to the parent, is subtracted from the parent's
        duration.  The accounting check requires that every span is
        closed and lies inside its parent, that a child carries its
        parent's step id, and that the summed self times (remainder
        included) equal the summed root durations.
        """
        for spans in threads:
            children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
            roots_ns = 0
            for index, (label, start, end, parent, step, size) in enumerate(spans):
                if end < start or end == 0:
                    raise AccountingError(f"span {index} ({label}) never closed")
                self.calls[label] += 1
                self.sizes[label] += size
                if parent < 0:
                    roots_ns += end - start
                    continue
                p_label, p_start, p_end, _, p_step, _ = spans[parent]
                if start < p_start or end > p_end or step != p_step:
                    raise AccountingError(
                        f"span {index} ({label}) escapes its parent ({p_label})"
                    )
                children[parent].append((start, end))
            self_sum = 0
            for index, (label, start, end, _, _, _) in enumerate(spans):
                covered = 0
                cursor = start
                for c_start, c_end in sorted(children.get(index, ())):
                    c_start = max(c_start, cursor)
                    if c_end > c_start:
                        covered += c_end - c_start
                        cursor = c_end
                self.self_ns[label] += end - start - covered
                self_sum += end - start - covered
            if self_sum != roots_ns:
                raise AccountingError(
                    f"self times add up to {self_sum} ns, roots to {roots_ns} ns"
                )
            self.total_ns += roots_ns
            # Physical sweeps behind the kernel's spread_counts: each
            # scalar walk it issues is one sweep, else 64 sets share one.
            walks: Dict[int, int] = defaultdict(int)
            for label, _, _, parent, _, _ in spans:
                if label == "TraversalKernel.reach_scalar" and parent >= 0:
                    walks[parent] += 1
            for index, span in enumerate(spans):
                if span[0] == "TraversalKernel.spread_counts":
                    self.spread_sweeps += walks.get(index) or -(-span[5] // 64)


def write_spans(path, threads: List[List[list]]) -> None:
    """Write spans as JSON lines: thread, index, label, start, end,
    parent, step, size."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as out:
        for thread_index, spans in enumerate(threads):
            for index, span in enumerate(spans):
                out.write(json.dumps([thread_index, index] + span) + "\n")
