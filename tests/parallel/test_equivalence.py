"""Sharded-vs-serial equivalence: the tentpole acceptance bar.

For every tracker in the paper (SIEVEADN, BASICREDUCTION, HISTAPPROX) a
seeded stream is replayed twice — once on a serial oracle, once with the
sharded executor (``REPRO_TEST_WORKERS`` processes, default 2; the tier-1
CI matrix runs this suite with ``workers=2`` on Linux) — and every
per-step solution, spread value and cumulative oracle-call count must be
*bit-identical*.  ``min_batch=1`` forces even tiny batches through the
pool, so the parallel path is exercised on every sweep, not just the
large ones.

One executor (one pool, one plane) is shared across the whole module via
a fixture: the pool is the expensive part, and sharing it also pins the
plane's graph/version tracking across many graphs.
"""

import os
import random

import numpy as np
import pytest

from repro.core.basic_reduction import BasicReduction
from repro.core.hist_approx import HistApprox
from repro.core.sieve_adn import SieveADN
from repro.influence.oracle import InfluenceOracle
from repro.kernels import WeightedSumFold
from repro.parallel.executor import ShardedOracleExecutor
from repro.parallel.plane import shared_memory_available
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction
from repro.tdn.lifetimes import GeometricLifetime

WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="POSIX shared memory unavailable"
)


@pytest.fixture(scope="module")
def executor():
    pool = ShardedOracleExecutor(WORKERS, min_batch=1)
    yield pool
    pool.close()


def stream_batches(seed=7, num_nodes=36, num_steps=30, per_step=4, max_l=25):
    rng = random.Random(seed)
    policy = GeometricLifetime(0.08, max_l, seed=seed + 1)
    batches = []
    for t in range(num_steps):
        batch = []
        for _ in range(rng.randint(1, per_step)):
            u, v = rng.sample(range(num_nodes), 2)
            batch.append(policy.assign(Interaction(f"n{u}", f"n{v}", t)))
        batches.append((t, batch))
    return batches


def make_algorithm(name, graph, oracle):
    if name == "sieve-adn":
        return SieveADN(4, 0.25, graph, oracle)
    if name == "basic-reduction":
        return BasicReduction(3, 0.3, 25, graph, oracle)
    if name == "hist-approx":
        return HistApprox(3, 0.3, graph, oracle)
    raise ValueError(name)


def replay(name, batches, oracle_factory):
    graph = TDNGraph()
    oracle = oracle_factory(graph)
    algorithm = make_algorithm(name, graph, oracle)
    trace = []
    for t, batch in batches:
        graph.advance_to(t)
        for interaction in batch:
            graph.add_interaction(interaction)
        algorithm.on_batch(t, batch)
        solution = algorithm.query()
        trace.append((tuple(solution.nodes), solution.value, oracle.calls))
    return trace


@pytest.mark.parametrize("name", ["sieve-adn", "basic-reduction", "hist-approx"])
def test_tracker_bit_identical_under_sharding(name, executor):
    batches = stream_batches()
    serial_trace = replay(name, batches, lambda g: InfluenceOracle(g))
    sharded_trace = replay(
        name, batches, lambda g: InfluenceOracle(g, parallel=executor)
    )
    assert sharded_trace == serial_trace


@pytest.mark.parametrize("name", ["sieve-adn", "basic-reduction", "hist-approx"])
def test_tracker_bit_identical_under_version_memo(name, executor):
    """The historical wholesale-clear memo policy shards identically too."""
    batches = stream_batches(seed=19)
    serial_trace = replay(
        name, batches, lambda g: InfluenceOracle(g, memo_mode="version")
    )
    sharded_trace = replay(
        name,
        batches,
        lambda g: InfluenceOracle(g, memo_mode="version", parallel=executor),
    )
    assert sharded_trace == serial_trace


WEIGHT_SPECS = {
    # Dense mapping -> the weighted bit-plane path: workers fold the
    # published shared-memory weight array and return 64-wide weight sums.
    "mapping": lambda: {f"n{i}": float(1 + (i % 5)) for i in range(36)},
    # No mapping -> uniform weights ride the counted bit-plane sweep.
    "uniform": lambda: None,
    # A callable must stay in-process: workers return reachable id sets.
    "callable": lambda: (lambda node: float(1 + (int(str(node)[1:]) % 4))),
}


@pytest.mark.parametrize("spec", sorted(WEIGHT_SPECS))
def test_weighted_oracle_bit_identical_under_sharding(spec, executor):
    batches = stream_batches(seed=41)

    def run(oracle_factory):
        graph = TDNGraph()
        oracle = oracle_factory(graph)
        sieve = SieveADN(3, 0.3, graph, oracle)
        trace = []
        for t, batch in batches:
            graph.advance_to(t)
            for interaction in batch:
                graph.add_interaction(interaction)
            sieve.on_batch(t, batch)
            solution = sieve.query()
            trace.append((tuple(solution.nodes), solution.value, oracle.calls))
        return trace

    weights = WEIGHT_SPECS[spec]()
    serial_trace = run(
        lambda g: InfluenceOracle(g, semantics="weighted_sum", weights=weights)
    )
    sharded_trace = run(
        lambda g: InfluenceOracle(
            g, semantics="weighted_sum", weights=weights, parallel=executor
        )
    )
    assert sharded_trace == serial_trace
    # The parity must come from the pool actually answering, not from a
    # silent serial fallback.
    assert executor.degraded is None


@pytest.mark.parametrize("spec", sorted(WEIGHT_SPECS))
def test_weighted_spread_many_matches_spread_loop(spec, executor):
    """Batched protocol == loop of spread: values, memo and call counts.

    The candidate list deliberately exceeds one 64-set bit-plane chunk,
    so the sharded weighted path crosses plane boundaries and shard
    splits while staying bit-identical to the sequential loop.
    """
    batches = stream_batches(seed=53)
    graph = TDNGraph()
    for t, batch in batches:
        graph.advance_to(t)
        for interaction in batch:
            graph.add_interaction(interaction)
    nodes = sorted(graph.node_set(), key=repr)
    sets = [(n,) for n in nodes] + [tuple(nodes[:3])] + [(nodes[0],)]  # dup hits
    sets = sets + [(a, b) for a in nodes[:9] for b in nodes[9:18]]  # > 64 sets
    assert len(sets) > 64

    def make(**kwargs):
        return InfluenceOracle(
            graph, semantics="weighted_sum", weights=WEIGHT_SPECS[spec](), **kwargs
        )

    loop = make()
    loop_values = [loop.spread(s) for s in sets]

    for oracle in (make(), make(parallel=executor)):
        values = oracle.spread_many(sets)
        assert values == loop_values
        assert oracle.calls == loop.calls
    assert executor.degraded is None


def test_sharded_weighted_sums_are_worker_computed(executor):
    """The executor's weighted path returns the serial engine's exact
    floats while the pool is demonstrably up (64-wide weight vectors
    cross the pipe, not reachable-id sets)."""
    batches = stream_batches(seed=67)
    graph = TDNGraph()
    for t, batch in batches:
        graph.advance_to(t)
        for interaction in batch:
            graph.add_interaction(interaction)
    ids = list(range(graph.num_interned))
    weights = np.asarray([1.0 + (i % 6) * 0.25 for i in ids], dtype=np.float64)
    id_sets = [[i] for i in ids] + [ids[:4], []]
    serial_sums = graph.csr().weighted_spread_sums(id_sets, None, weights)
    sharded_sums = executor.fold_spread_sums(
        graph,
        id_sets,
        None,
        fold=WeightedSumFold(),
        weights=weights,
        weights_key="wtest",
    )
    assert sharded_sums == serial_sums
    assert executor.degraded is None and executor.pool_running

    # Releasing the key unlinks its segment, is idempotent, and the next
    # weighted request simply republishes.
    executor.release_weights("wtest")
    executor.release_weights("wtest")
    again = executor.fold_spread_sums(
        graph,
        id_sets,
        None,
        fold=WeightedSumFold(),
        weights=weights,
        weights_key="wtest",
    )
    assert again == serial_sums
    assert executor.degraded is None
    executor.release_weights("wtest")


def test_closed_weighted_oracle_releases_its_weight_segment(executor):
    """A short-lived oracle must not leak its segment into a shared,
    long-lived executor (close() and GC both release it)."""
    batches = stream_batches(seed=71)
    graph = TDNGraph()
    for t, batch in batches:
        graph.advance_to(t)
        for interaction in batch:
            graph.add_interaction(interaction)
    nodes = sorted(graph.node_set(), key=repr)
    weights = {n: float(2 + i % 3) for i, n in enumerate(nodes)}

    oracle = InfluenceOracle(
        graph, semantics="weighted_sum", weights=weights, parallel=executor
    )
    oracle.spread_many([(n,) for n in nodes])
    key = oracle._weights_key  # noqa: SLF001 - registry probe
    assert key in executor._weights  # noqa: SLF001
    oracle.close()
    assert key not in executor._weights  # noqa: SLF001
    assert executor.degraded is None  # shared pool untouched by close()

    import gc

    oracle = InfluenceOracle(
        graph, semantics="weighted_sum", weights=weights, parallel=executor
    )
    oracle.spread_many([(n,) for n in nodes])
    key = oracle._weights_key  # noqa: SLF001
    assert key in executor._weights  # noqa: SLF001
    del oracle
    gc.collect()
    assert key not in executor._weights  # noqa: SLF001

    # An oracle used again after close() republishes — and the re-armed
    # release hook must still fire on collection.  max_cache_entries=0
    # forces real evaluations, so the post-close batch must republish.
    oracle = InfluenceOracle(
        graph,
        semantics="weighted_sum",
        weights=weights,
        parallel=executor,
        max_cache_entries=0,
    )
    oracle.spread_many([(n,) for n in nodes])
    oracle.close()
    key = oracle._weights_key  # noqa: SLF001
    assert key not in executor._weights  # noqa: SLF001
    reuse_values = oracle.spread_many([(n,) for n in nodes[:12]])
    serial = InfluenceOracle(graph, semantics="weighted_sum", weights=weights)
    assert reuse_values == serial.spread_many([(n,) for n in nodes[:12]])
    assert key in executor._weights  # noqa: SLF001
    del oracle
    gc.collect()
    assert key not in executor._weights  # noqa: SLF001
