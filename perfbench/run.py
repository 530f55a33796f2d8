"""End-to-end benchmark of the influence trackers.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload hist-lbsn --seed 1 --seconds 10 --trace 0

Workloads: ``hist-lbsn`` (HISTAPPROX, closed-loop replay),
``adn-batch`` (SIEVEADN, closed-loop replay) and ``serve-sharded``
(``IngestService`` with two worker processes, open loop).  With
``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it wraps each layer's public functions, prints per-layer metrics and
writes its spans under ``perfbench/out/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
from multiprocessing import resource_tracker
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def stop_children() -> None:
    """Stop every process this run started and wait for each to end.

    The worker pools are closed by the workloads; this catches what a
    failed run left behind, then stops the shared-memory resource
    tracker, which multiprocessing otherwise leaves to exit on its own
    after this process has gone.
    """
    children = multiprocessing.active_children()
    for child in children:
        child.terminate()
    for child in children:
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    try:
        return run(parse_args(argv))
    finally:
        stop_children()


def run(args) -> int:
    if not (SRC / "repro").is_dir():
        print(f"perfbench: the program's sources ({SRC}) are missing", file=sys.stderr)
        return 2
    # The workloads cover the interpreted kernels only; pin them so a
    # machine with numba installed measures the same code.  Spawned
    # workers inherit the environment and this sys.path.
    os.environ["REPRO_KERNEL_BACKEND"] = "python"
    sys.path[:0] = [str(SRC), str(HERE)]

    from bench import run_workload
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    spans_path = (
        HERE / "out" / f"{args.workload}-seed{args.seed}.spans.jsonl"
        if args.trace
        else None
    )
    outcome = run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), spans_path
    )
    for line in outcome.report:
        print(line)
    for error in outcome.errors[:20]:
        print(f"error: {error}")
    failed_frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(
        f"{'failed_frac':<34} {failed_frac:>14.6g} ratio "
        f"({outcome.failed} of {outcome.attempted} operations)"
    )
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:<34} {value:>14.6g} {unit}")
    if spans_path is not None:
        print(f"spans written to {spans_path.relative_to(HERE.parent)}")
    print(json.dumps(outcome.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
