"""Round-trip tests for checkpoint/restore.

The gold standard: a run that checkpoints halfway and resumes must produce
exactly the same solutions and values as an uninterrupted run.
"""

import math
import random

import pytest

from repro.api import open_tracker
from repro.core.basic_reduction import BasicReduction
from repro.core.hist_approx import HistApprox
from repro.core.sieve_adn import SieveADN
from repro.errors import PersistenceError
from repro.influence.oracle import InfluenceOracle
from repro.persistence import (
    algorithm_from_dict,
    algorithm_to_dict,
    graph_from_dict,
    graph_to_dict,
    load_checkpoint,
    save_checkpoint,
)
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction
from repro.tdn.stream import MemoryStream


def random_events(seed, steps=12, num_nodes=8, max_lifetime=6, infinite_fraction=0.1):
    rng = random.Random(seed)
    events = []
    for t in range(steps):
        for _ in range(rng.randint(1, 3)):
            u, v = rng.randrange(num_nodes), rng.randrange(num_nodes)
            if u == v:
                continue
            if rng.random() < infinite_fraction:
                lifetime = None
            else:
                lifetime = rng.randint(1, max_lifetime)
            events.append(Interaction(f"n{u}", f"n{v}", t, lifetime))
    return events


class TestGraphRoundTrip:
    def test_alive_state_preserved(self):
        events = random_events(1)
        graph = TDNGraph()
        for t, batch in MemoryStream(events, fill_gaps=True):
            graph.advance_to(t)
            graph.add_batch(batch)
        restored = graph_from_dict(graph_to_dict(graph))
        assert restored.time == graph.time
        assert restored.num_edges == graph.num_edges
        assert restored.node_set() == graph.node_set()
        assert sorted(restored.alive_pairs()) == sorted(graph.alive_pairs())

    def test_expiries_preserved(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0, 3))
        graph.add_interaction(Interaction("a", "b", 0, 7))
        graph.add_interaction(Interaction("c", "d", 0))  # infinite
        restored = graph_from_dict(graph_to_dict(graph))
        assert restored.max_expiry("a", "b") == 7
        assert restored.max_expiry("c", "d") == math.inf
        assert restored.interaction_count("a", "b") == 2
        # Future expiries behave identically.
        graph.advance_to(3)
        restored.advance_to(3)
        assert restored.interaction_count("a", "b") == graph.interaction_count("a", "b")

    def test_unserializable_label_rejected(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction(("tuple", "label"), "b", 0, 3))
        with pytest.raises(TypeError, match="not JSON-serializable"):
            graph_to_dict(graph)


def replay_trace(algorithm, graph, batches):
    """Feed ``batches``; per step ``(nodes, value, oracle calls)``."""
    trace = []
    for t, batch in batches:
        graph.advance_to(t)
        graph.add_batch(batch)
        algorithm.on_batch(t, batch)
        solution = algorithm.query()
        trace.append((solution.nodes, solution.value, algorithm.oracle.calls))
    return trace


def grid_views(algorithm):
    """Per SIEVEADN instance, its ``items()`` walk as plain values."""
    if isinstance(algorithm, SieveADN):
        instances = [algorithm]
    elif isinstance(algorithm, BasicReduction):
        instances = [instance for _, instance in algorithm._instances]
    else:
        instances = [algorithm._instances[h] for h in algorithm.horizons()]
    return [
        [
            (threshold, list(sieve.nodes), sieve.key, sieve.cached_value)
            for threshold, sieve in instance.thresholds.items()
        ]
        for instance in instances
    ]


@pytest.mark.parametrize(
    "factory",
    [
        lambda graph: SieveADN(2, 0.1, graph),
        lambda graph: BasicReduction(2, 0.1, 6, graph),
        lambda graph: HistApprox(2, 0.1, graph),
        lambda graph: HistApprox(2, 0.1, graph, refine_head=True),
    ],
    ids=["sieve-adn", "basic-reduction", "hist-approx", "hist-refined"],
)
class TestResumeEquivalence:
    def test_resumed_run_matches_uninterrupted(self, factory, tmp_path):
        """Checkpoint halfway, restore, finish: every later step identical.

        The memo table is not checkpointed, so the restored oracle starts
        cold; the reference run drops its memo at the same point, after
        which both runs must report the same solution and spend the same
        oracle calls at every step.
        """
        probe = factory(TDNGraph())
        is_sieve = isinstance(probe, SieveADN)
        allows_infinite = isinstance(probe, (SieveADN, HistApprox))
        events = random_events(7, infinite_fraction=0.1 if allows_infinite else 0.0)
        if is_sieve:
            events = [e.with_lifetime(None) for e in events]
        batches = list(MemoryStream(events, fill_gaps=True))
        half = len(batches) // 2

        # Uninterrupted reference run, memo dropped at the checkpoint.
        graph_ref = TDNGraph()
        algo_ref = factory(graph_ref)
        replay_trace(algo_ref, graph_ref, batches[:half])
        algo_ref.oracle.invalidate()
        ref_base = algo_ref.oracle.calls
        reference = replay_trace(algo_ref, graph_ref, batches[half:])

        # Interrupted run: process half, checkpoint, restore, finish.
        graph_a = TDNGraph()
        algo_a = factory(graph_a)
        replay_trace(algo_a, graph_a, batches[:half])
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, graph_a, algo_a)
        graph_b, algo_b = load_checkpoint(path)
        resumed_base = algo_b.oracle.calls
        resumed = replay_trace(algo_b, graph_b, batches[half:])

        assert len(resumed) == len(batches) - half > 0
        assert [(n, v, c - resumed_base) for n, v, c in resumed] == [
            (n, v, c - ref_base) for n, v, c in reference
        ]
        assert resumed[-1][2] > resumed_base  # the tail spends oracle calls

    def test_restored_grids_match_the_live_ones(self, factory):
        """Every restored grid walks the same thresholds over equal sets."""
        graph = TDNGraph()
        algorithm = factory(graph)
        events = random_events(9, infinite_fraction=0.0)
        if isinstance(algorithm, SieveADN):
            events = [e.with_lifetime(None) for e in events]
        for t, batch in MemoryStream(events, fill_gaps=True):
            graph.advance_to(t)
            graph.add_batch(batch)
            algorithm.on_batch(t, batch)
        restored = algorithm_from_dict(
            algorithm_to_dict(algorithm), graph_from_dict(graph_to_dict(graph))
        )
        live = grid_views(algorithm)
        assert live and any(rows for rows in live)
        assert grid_views(restored) == live

    def test_dict_round_trip_preserves_query(self, factory, tmp_path):
        is_sieve = isinstance(factory(TDNGraph()), SieveADN)
        events = random_events(9, infinite_fraction=0.0)
        if is_sieve:
            events = [e.with_lifetime(None) for e in events]
        graph = TDNGraph()
        algorithm = factory(graph)
        for t, batch in MemoryStream(events, fill_gaps=True):
            graph.advance_to(t)
            graph.add_batch(batch)
            algorithm.on_batch(t, batch)
        restored_graph = graph_from_dict(graph_to_dict(graph))
        restored = algorithm_from_dict(algorithm_to_dict(algorithm), restored_graph)
        assert restored.query().value == algorithm.query().value
        assert restored.query().nodes == algorithm.query().nodes


class TestOracleConfigRoundTrip:
    def test_memo_mode_and_backend_survive_restore(self):
        graph = TDNGraph()
        batch = [Interaction("a", "b", 0, 9)]
        graph.add_batch(batch)
        oracle = InfluenceOracle(
            graph, backend="dict", memo_mode="version", max_cache_entries=17
        )
        sieve = SieveADN(2, 0.2, graph, oracle)
        sieve.on_batch(0, batch)
        payload = algorithm_to_dict(sieve)
        assert payload["oracle"] == {
            "backend": "dict",
            "memo_mode": "version",
            "max_cache_entries": 17,
            "workers": 1,
        }
        restored_graph = graph_from_dict(graph_to_dict(graph))
        restored = algorithm_from_dict(payload, restored_graph)
        assert restored.oracle.backend == "dict"
        assert restored.oracle.memo_mode == "version"
        assert restored.oracle.max_cache_entries == 17
        assert restored.query() == sieve.query()

    def test_missing_oracle_config_defaults(self):
        """Checkpoints predating oracle serialization restore with defaults."""
        graph = TDNGraph()
        batch = [Interaction("a", "b", 0, 9)]
        graph.add_batch(batch)
        sieve = SieveADN(2, 0.2, graph)
        sieve.on_batch(0, batch)
        payload = algorithm_to_dict(sieve)
        del payload["oracle"]
        restored = algorithm_from_dict(payload, graph_from_dict(graph_to_dict(graph)))
        assert restored.oracle.backend == "csr"
        assert restored.oracle.memo_mode == "delta"

    def test_shared_oracle_config_on_composite_algorithms(self):
        graph = TDNGraph()
        oracle = InfluenceOracle(graph, memo_mode="version")
        hist = HistApprox(2, 0.2, graph, oracle)
        batch = [Interaction("a", "b", 0, 3)]
        graph.add_batch(batch)
        hist.on_batch(0, batch)
        payload = algorithm_to_dict(hist)
        restored = algorithm_from_dict(payload, graph_from_dict(graph_to_dict(graph)))
        assert restored.oracle.memo_mode == "version"
        # Instances share the one restored oracle.
        assert all(
            inst.oracle is restored.oracle for inst in restored._instances.values()
        )


class TestWeightedRoundTrip:
    """A weighted tracker must never come back as a count tracker."""

    @staticmethod
    def weighted_tracker():
        tracker = open_tracker(
            "sieve-adn",
            k=2,
            epsilon=0.2,
            semantics="weighted_sum",
            weights={"a": 100.0},
        )
        for t in range(3):
            tracker.step(t, [("a", f"b{t}")])
        assert tracker.oracle.spread(["a"]) == 103.0
        return tracker

    def test_checkpoint_without_weights_refuses_to_restore(self, tmp_path):
        tracker = self.weighted_tracker()
        path = tmp_path / "weighted.json"
        save_checkpoint(path, tracker.graph, tracker.algorithm)
        with pytest.raises(PersistenceError, match="weights are not stored"):
            load_checkpoint(path)

    def test_resupplied_weights_restore_the_weighted_tracker(self):
        tracker = self.weighted_tracker()
        payload = algorithm_to_dict(tracker.algorithm)
        assert payload["oracle"]["semantics"] == ["weighted_sum", {}]
        restored_graph = graph_from_dict(graph_to_dict(tracker.graph))
        oracle = InfluenceOracle(
            restored_graph, semantics="weighted_sum", weights={"a": 100.0}
        )
        restored = algorithm_from_dict(payload, restored_graph, oracle)
        assert restored.oracle.spread(["a"]) == 103.0
        assert restored.query() == tracker.query()


class TestErrorHandling:
    def test_unknown_algorithm_type(self):
        with pytest.raises(ValueError, match="unknown serialized algorithm"):
            algorithm_from_dict({"type": "Mystery", "format_version": 1}, TDNGraph())

    def test_wrong_format_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 99}')
        with pytest.raises(ValueError, match="unsupported checkpoint format"):
            load_checkpoint(path)

    def test_unserializable_algorithm(self):
        from repro.baselines.random_baseline import RandomBaseline

        with pytest.raises(TypeError, match="cannot serialize"):
            algorithm_to_dict(RandomBaseline(2, TDNGraph()))
