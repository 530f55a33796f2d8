"""Workload definitions, seeded inputs, set-up and the closed-loop replay.

Every workload replays the gowalla stand-in of the dataset registry
through the public :class:`~repro.core.tracker.InfluenceTracker` with
k=10 and epsilon=0.2.  Inputs are generated from the seed here, in the
benchmark; the tracker receives only ``(source, target, lifetime)``
tuples.  ``serve.py`` holds the open-loop service workload.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.tracker import InfluenceTracker, Solution
from repro.datasets.registry import make_interactions
from repro.influence.reachability import reachable_set
from repro.kernels.backend import resolve_backend
from repro.tdn.csr import calibrate_scalar_pair_limit, resolve_scalar_pair_limit
from repro.tdn.lifetimes import GeometricLifetime

from probe import SpeedTrack

DATASET = "gowalla"
K = 10
EPSILON = 0.2
LIFETIME_P = 0.01
MAX_LIFETIME = 1000

Step = Tuple[int, List[tuple]]

#: Seconds of replay between two reference-speed probes.
PROBE_EVERY_S = 0.25


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    A replay pass replays ``streams`` independent streams of ``events``
    events each, every one through a fresh tracker: averaging over
    several streams keeps one seed's quirks from swinging the figures.
    The serve workload serves each stream through a fresh service, and
    derives the stream length from the offered ``rate`` and the run
    length.
    """

    name: str
    algorithm: str
    events: int
    events_per_step: int
    decaying: bool
    streams: int = 1
    setups: int = 5
    workers: int = 1
    rate: float = 0.0  # offered events/s of the open loop; 0 = closed loop
    poll_s: float = 0.002
    check_every: int = 40  # re-evaluate every n-th reported solution

    @property
    def serve(self) -> bool:
        return self.rate > 0


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "hist-lbsn",
            "hist-approx",
            events=1000,
            events_per_step=1,
            decaying=True,
            streams=4,
        ),
        Workload(
            "adn-batch",
            "sieve-adn",
            events=4000,
            events_per_step=10,
            decaying=False,
            streams=8,
            check_every=25,
        ),
        Workload(
            "serve-sharded",
            "hist-approx",
            events=0,
            events_per_step=10,
            decaying=True,
            setups=3,
            workers=2,
            rate=50.0,
            check_every=1,
        ),
    )
}


# ----------------------------------------------------------------------
# Inputs and set-up
# ----------------------------------------------------------------------
def make_streams(workload: Workload, seed: int, events: int) -> List[List[Step]]:
    """The seeded input: ``workload.streams`` streams of ``events`` events."""
    return [
        make_steps(workload, seed * 1000 + index, events)
        for index in range(workload.streams)
    ]


def make_steps(workload: Workload, seed: int, events: int) -> List[Step]:
    """One seeded stream: ``(t, [(source, target, lifetime), ...])`` steps.

    Lifetimes are drawn here from a seeded geometric law (p=0.01,
    L=1000) for decaying workloads, and are infinite otherwise.
    """
    interactions = make_interactions(
        DATASET, events, seed=seed, events_per_step=workload.events_per_step
    )
    policy = (
        GeometricLifetime(LIFETIME_P, MAX_LIFETIME, seed=seed)
        if workload.decaying
        else None
    )
    return [
        (t, [(i.source, i.target, policy.draw(i) if policy else None) for i in group])
        for t, group in groupby(interactions, key=attrgetter("time"))
    ]


def new_tracker(workload: Workload, workers: Optional[int] = None) -> InfluenceTracker:
    return InfluenceTracker(
        workload.algorithm,
        k=K,
        epsilon=EPSILON,
        workers=workload.workers if workers is None else workers,
    )


@dataclass
class Setup:
    streams: List[List[Step]]
    tracker: InfluenceTracker
    setup_s: float
    generate_s: float


def set_up(
    workload: Workload,
    seed: int,
    events: int,
    start_pool: Callable[[InfluenceTracker], None] = lambda tracker: None,
) -> Tuple[Setup, float, float]:
    """Set up ``workload.setups`` times; keep the last, report medians.

    One set-up is dataset generation, the per-process scalar/vector
    cutover calibration, tracker construction and (serve) pool start.
    Returns the kept set-up and the median set-up and generation times,
    in reference seconds (a speed probe runs before and after each).
    """
    setup_times, generate_times = [], []
    kept: Optional[Setup] = None
    speed = SpeedTrack()
    for _ in range(workload.setups):
        if kept is not None:
            kept.tracker.close()
        speed.take()
        started = time.perf_counter()
        streams = make_streams(workload, seed, events)
        generated = time.perf_counter()
        calibrate_scalar_pair_limit(force=True)
        tracker = new_tracker(workload)
        start_pool(tracker)
        finished = time.perf_counter()
        speed.take()
        scale = speed.scale_at(started)
        kept = Setup(
            streams,
            tracker,
            setup_s=(finished - started) * scale,
            generate_s=(generated - started) * scale,
        )
        setup_times.append(kept.setup_s)
        generate_times.append(kept.generate_s)
    assert kept is not None
    return kept, statistics.median(setup_times), statistics.median(generate_times)


def resolved_kernel() -> Dict[str, object]:
    """The scalar/vector cutover and kernel backend this process uses."""
    return {
        "scalar_pair_limit": resolve_scalar_pair_limit(),
        "backend": resolve_backend(None),
    }


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def check_horizon(tracker: InfluenceTracker) -> Optional[float]:
    """The horizon a solution's value refers to: the head's for
    HISTAPPROX, ``None`` (every alive edge) for SIEVEADN."""
    horizons = getattr(tracker.algorithm, "horizons", None)
    if horizons is None:
        return None
    live = horizons()
    return live[0] if live else None


def solution_errors(
    tracker: InfluenceTracker, solution: Solution, reevaluate: bool
) -> List[str]:
    """What is wrong with ``solution``: size over k, or a value that the
    reference reachability of :mod:`repro.influence.reachability`
    disagrees with (only when ``reevaluate``)."""
    errors = []
    if len(solution.nodes) > K:
        errors.append(f"t={solution.time}: {len(solution.nodes)} nodes > k={K}")
    if reevaluate and solution.nodes:
        expected = len(
            reachable_set(tracker.graph, solution.nodes, check_horizon(tracker))
        )
        if expected != solution.value:
            errors.append(
                f"t={solution.time}: value {solution.value} != reference {expected}"
            )
    return errors


# ----------------------------------------------------------------------
# Closed-loop replay
# ----------------------------------------------------------------------
@dataclass
class Pass:
    """One replay of the input through one tracker.

    ``scales`` holds, per step, the factor that converts the step's
    measured durations to reference seconds (all 1.0 when not probed).
    """

    step_cpu_s: List[float]
    step_wall_s: List[float]
    scales: List[float]
    solutions: List[Tuple[tuple, float]]
    failed: int
    error: Optional[str] = None

    @property
    def ref_cpu_s(self) -> float:
        """Summed step CPU time, in reference seconds."""
        return sum(c * s for c, s in zip(self.step_cpu_s, self.scales))


def replay(
    tracker: InfluenceTracker,
    steps: Sequence[Step],
    after_step: Optional[Callable[[int, Solution], None]] = None,
    speed: Optional[SpeedTrack] = None,
) -> Pass:
    """Replay ``steps`` serially; time each step (thread CPU and wall).

    ``after_step`` runs between steps, outside the step timers, and so
    do the reference-speed probes of ``speed`` (one every
    :data:`PROBE_EVERY_S`).  A step that raises ends the pass: it and
    every later step count as failed.
    """
    clock, cpu = time.perf_counter, time.thread_time
    step_cpu: List[float] = []
    step_wall: List[float] = []
    started_at: List[float] = []
    solutions: List[Tuple[tuple, float]] = []
    failed, error = 0, None
    if speed is not None:
        speed.take()
    for index, (t, batch) in enumerate(steps):
        wall0, cpu0 = clock(), cpu()
        try:
            solution = tracker.step(t, batch)
        except Exception as exc:  # a failed operation is data, not a crash
            failed, error = len(steps) - index, f"step t={t} raised {exc!r}"
            break
        step_cpu.append(cpu() - cpu0)
        step_wall.append(clock() - wall0)
        started_at.append(wall0)
        solutions.append((solution.nodes, solution.value))
        if after_step is not None:
            after_step(index, solution)
        if speed is not None and clock() - speed.times[-1] >= PROBE_EVERY_S:
            speed.take()
    if speed is not None:
        speed.take()
        scales = [speed.scale_at(when) for when in started_at]
    else:
        scales = [1.0] * len(started_at)
    return Pass(step_cpu, step_wall, scales, solutions, failed, error)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100] of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
