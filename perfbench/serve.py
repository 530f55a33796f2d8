"""The open-loop workload: an :class:`IngestService` under a fixed schedule.

One generator submits batches of 10 events at a fixed offered rate from
the benchmark process, whatever the service's state; one poller calls
``top_k()`` every ``poll_s`` seconds beside it.  A batch's result time is
the wall time from when it was *due* to the first answer whose epoch
covers it, so a stall also delays every batch queued behind it.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.tracker import InfluenceTracker
from repro.obs.registry import MetricsRegistry
from repro.parallel.service import IngestService
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction

from probe import SpeedTrack
from workloads import K, Step

#: Seconds between two reference-speed probes of the poller.
PROBE_EVERY_S = 0.5

SHARDED = "sharded"

#: How long the service may fall behind its schedule before the run
#: stops waiting for it and counts the rest as failed.
STALL_LIMIT_S = 60.0


def start_pool(tracker: InfluenceTracker) -> None:
    """Start the tracker's worker pool and wait until it answers.

    One sweep over a two-node warm-up graph, large enough to pass the
    executor's dispatch floor, makes every worker import, attach to the
    shared plane and reply.
    """
    executor = tracker.oracle.executor
    if executor is None:
        return
    warm = TDNGraph()
    warm.add_interaction(Interaction("warm-a", "warm-b", 0))
    executor.spread_counts(warm, [[0]] * executor.min_batch)


def _children_cpu_s() -> float:
    """CPU seconds used so far by this process's live child processes."""
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/stat", encoding="ascii") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])  # utime + stime
    return total / ticks


@dataclass
class ServeRun:
    """What one open-loop run observed."""

    batches: int
    events: int
    cpu_s: float = 0.0
    step_cpu_s: List[float] = field(default_factory=list)
    step_started: List[float] = field(default_factory=list)
    solutions: List[Tuple[tuple, float]] = field(default_factory=list)
    result_s: List[float] = field(default_factory=list)
    due: List[float] = field(default_factory=list)
    late_s: List[float] = field(default_factory=list)
    topk_s: List[float] = field(default_factory=list)
    polls: int = 0
    stale: int = 0
    oversized: int = 0
    backlog_max: int = 0
    unapplied: int = 0
    final: Optional[Tuple[tuple, float]] = None
    executor_state: Optional[str] = None
    incidents: int = 0
    errors: List[str] = field(default_factory=list)
    # One repeat per probe: the probe holds the event loop while it runs.
    speed: SpeedTrack = field(
        default_factory=lambda: SpeedTrack(time.monotonic, repeats=1)
    )

    # Durations in reference seconds (see probe.py).
    @property
    def ref_step_cpu_s(self) -> List[float]:
        scale = self.speed.scale_at
        return [c * scale(t) for c, t in zip(self.step_cpu_s, self.step_started)]

    @property
    def ref_result_s(self) -> List[float]:
        scale = self.speed.scale_at
        return [r * scale(t) for r, t in zip(self.result_s, self.due)]

    @property
    def ref_cpu_s(self) -> float:
        return self.cpu_s * self.speed.mean_scale()


def serve(
    tracker: InfluenceTracker,
    steps: Sequence[Step],
    rate: float,
    poll_s: float,
    after_step: Optional[Callable[[int], None]] = None,
) -> ServeRun:
    """Drive ``tracker`` through an ingest service on a fixed schedule."""
    events = sum(len(batch) for _, batch in steps)
    run = ServeRun(batches=len(steps), events=events)
    interval = events / rate / len(steps)

    # The service calls tracker.step on its writer thread; time each call
    # there.  The class attribute is looked up per call, so a tracing
    # wrapper installed on the class is honoured.
    def timed_step(t, batch):
        run.step_started.append(time.monotonic())
        started = time.thread_time()
        solution = type(tracker).step(tracker, t, batch)
        run.step_cpu_s.append(time.thread_time() - started)
        run.solutions.append((solution.nodes, solution.value))
        if after_step is not None:
            after_step(len(run.solutions) - 1)
        return solution

    tracker.step = timed_step  # type: ignore[method-assign]
    try:
        asyncio.run(_drive(tracker, steps, interval, poll_s, run))
    finally:
        del tracker.step
    return run


async def _drive(tracker, steps, interval, poll_s, run: ServeRun) -> None:
    service = IngestService(tracker, metrics=MetricsRegistry())
    await service.start()
    loop = asyncio.get_running_loop()
    clock = loop.time  # time.monotonic, the clock of run.speed
    due = run.due
    polls: List[Tuple[float, int]] = []
    total = len(steps)

    async def generate() -> None:
        first = clock() + interval
        for index, (t, batch) in enumerate(steps):
            when = first + index * interval
            delay = when - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            run.late_s.append(max(0.0, clock() - when))
            due.append(when)
            await service.submit(t, batch)
            run.backlog_max = max(run.backlog_max, index + 1 - service.epoch)

    async def poll(deadline: float) -> None:
        last_epoch = 0
        while clock() < deadline:
            started = time.perf_counter()
            answer = await service.top_k()
            run.topk_s.append(time.perf_counter() - started)
            polls.append((clock(), answer.epoch))
            run.polls += 1
            run.stale += answer.stale
            run.oversized += len(answer.nodes) > K
            if answer.epoch >= total:
                return
            # Probe right after a commit, while the writer is idle.
            if (
                answer.epoch > last_epoch
                and clock() - run.speed.times[-1] >= PROBE_EVERY_S
            ):
                run.speed.take()
            last_epoch = answer.epoch
            await asyncio.sleep(poll_s)

    run.speed.take()
    cpu0 = time.process_time() + _children_cpu_s()
    deadline = clock() + interval * total + STALL_LIMIT_S
    try:
        await asyncio.gather(generate(), poll(deadline))
        answer = await asyncio.wait_for(service.drain(), STALL_LIMIT_S)
        run.cpu_s = time.process_time() + _children_cpu_s() - cpu0
        run.final = (answer.nodes, answer.value)
    except Exception as exc:  # a failed service is data, not a crash
        run.errors.append(f"service failed: {exc!r}")
    run.speed.take()
    health = service.health()
    run.unapplied = total - service.batches_applied
    executor = health["executor"] or {}
    run.executor_state = executor.get("state")
    run.incidents = sum(health["incidents"].values()) + sum(
        (executor.get("incidents") or {}).values()
    )
    try:
        await service.close()
    except Exception as exc:
        run.errors.append(f"service close failed: {exc!r}")
    # Result time of batch i: first poll whose epoch covers it, minus due.
    cursor = 0
    for index, when in enumerate(due):
        while cursor < len(polls) and polls[cursor][1] < index + 1:
            cursor += 1
        if cursor == len(polls):
            run.errors.append(f"batch {index + 1} never answered")
            break
        run.result_s.append(polls[cursor][0] - when)
    del due[len(run.result_s):]
