"""Unit and behavioural tests for SIEVEADN (paper Alg. 1)."""

import random

from repro.core.sieve_adn import SieveADN
from repro.influence.oracle import InfluenceOracle
from repro.submodular.functions import SpreadFunction
from repro.submodular.greedy import brute_force_optimum
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction


def feed(graph, sieve, t, batch):
    graph.advance_to(t)
    graph.add_batch(batch)
    sieve.on_batch(t, batch)


class TestBasicBehaviour:
    def test_single_edge_selects_source(self):
        graph = TDNGraph()
        sieve = SieveADN(k=2, epsilon=0.2, graph=graph)
        feed(graph, sieve, 0, [Interaction("a", "b", 0)])
        solution = sieve.query()
        assert "a" in solution.nodes
        assert solution.value == 2.0

    def test_empty_query(self):
        graph = TDNGraph()
        sieve = SieveADN(k=2, epsilon=0.2, graph=graph)
        assert sieve.query().value == 0.0

    def test_budget_respected(self):
        graph = TDNGraph()
        sieve = SieveADN(k=2, epsilon=0.2, graph=graph)
        batch = [Interaction(f"s{i}", f"t{i}", 0) for i in range(6)]
        feed(graph, sieve, 0, batch)
        assert len(sieve.query().nodes) <= 2

    def test_revisiting_node_can_be_admitted_later(self):
        """A node rejected early must be admissible once its gain grows."""
        graph = TDNGraph()
        sieve = SieveADN(k=1, epsilon=0.1, graph=graph)
        # Step 0: big star at h0 raises Delta high; x has tiny gain.
        batch0 = [Interaction("h0", f"a{i}", 0) for i in range(8)]
        batch0 += [Interaction("x", "y0", 0)]
        feed(graph, sieve, 0, batch0)
        # Step 1: x grows a bigger star; it reappears in the node stream
        # via its new edges and must now be able to displace nothing less
        # than a competitive set.
        batch1 = [Interaction("x", f"b{i}", 1) for i in range(20)]
        feed(graph, sieve, 1, batch1)
        assert sieve.query().nodes == ("x",)

    def test_query_time_recorded(self):
        graph = TDNGraph()
        sieve = SieveADN(k=1, epsilon=0.2, graph=graph)
        feed(graph, sieve, 3, [Interaction("a", "b", 3)])
        assert sieve.query().time == 3


class TestHorizonFiltering:
    def test_edges_below_horizon_ignored(self):
        graph = TDNGraph()
        sieve = SieveADN(k=1, epsilon=0.2, graph=graph, min_expiry=5)
        batch = [
            Interaction("short", "x", 0, 2),  # expiry 2 < 5: invisible
            Interaction("long", "y", 0, 9),  # expiry 9 >= 5
        ]
        feed(graph, sieve, 0, batch)
        solution = sieve.query()
        assert solution.nodes == ("long",)
        assert solution.value == 2.0

    def test_all_edges_below_horizon_is_noop(self):
        graph = TDNGraph()
        sieve = SieveADN(k=1, epsilon=0.2, graph=graph, min_expiry=100)
        feed(graph, sieve, 0, [Interaction("a", "b", 0, 3)])
        assert sieve.query().value == 0.0


class TestApproximationGuarantee:
    def test_half_minus_eps_on_random_adns(self):
        """Theorem 2: (1/2 - eps) OPT on addition-only streams."""
        rng = random.Random(42)
        k, eps = 2, 0.1
        for _ in range(20):
            graph = TDNGraph()
            sieve = SieveADN(k=k, epsilon=eps, graph=graph)
            for t in range(8):
                batch = []
                for _ in range(rng.randint(1, 3)):
                    u, v = rng.randrange(7), rng.randrange(7)
                    if u != v:
                        batch.append(Interaction(f"n{u}", f"n{v}", t))
                feed(graph, sieve, t, batch)
                oracle = InfluenceOracle(graph)
                optimum = brute_force_optimum(
                    SpreadFunction(oracle), sorted(graph.node_set(), key=repr), k
                )
                if optimum.value > 0:
                    assert sieve.query().value >= (0.5 - eps) * optimum.value - 1e-9


class TestCopy:
    def test_copy_is_deep_for_sieve_state(self):
        graph = TDNGraph()
        sieve = SieveADN(k=2, epsilon=0.2, graph=graph)
        feed(graph, sieve, 0, [Interaction("a", "b", 0)])
        dup = sieve.copy()
        feed(graph, dup, 1, [Interaction("c", "d", 1)])
        assert "c" not in sieve.query().nodes
        assert "c" in set(dup.query().nodes) | {None}  # dup saw the new edge

    def test_copy_rehomes_horizon(self):
        graph = TDNGraph()
        sieve = SieveADN(k=1, epsilon=0.2, graph=graph, min_expiry=10)
        dup = sieve.copy(min_expiry=3)
        assert dup.min_expiry == 3
        assert sieve.min_expiry == 10

    def test_copy_shares_graph_and_oracle(self):
        graph = TDNGraph()
        sieve = SieveADN(k=1, epsilon=0.2, graph=graph)
        dup = sieve.copy()
        assert dup.graph is graph
        assert dup.oracle is sieve.oracle


class TestCachedValueReadout:
    def test_cached_value_lower_bounds_true_value(self):
        graph = TDNGraph()
        sieve = SieveADN(k=2, epsilon=0.2, graph=graph)
        feed(graph, sieve, 0, [Interaction("a", "b", 0)])
        # Grow a's spread without re-offering a to the sieve: cached value
        # goes stale but must stay a lower bound.
        graph.advance_to(1)
        graph.add_interaction(Interaction("b", "c", 1))
        assert sieve.query_value_cached() <= sieve.query_value()

    def test_cached_value_zero_before_any_processing(self):
        graph = TDNGraph()
        sieve = SieveADN(k=2, epsilon=0.2, graph=graph)
        assert sieve.query_value_cached() == 0.0


class TestProcessCandidates:
    def test_direct_candidate_feed(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0, 9))
        sieve = SieveADN(k=1, epsilon=0.2, graph=graph)
        sieve.process_candidates(["a"])
        assert sieve.query().nodes == ("a",)

    def test_empty_candidates_noop(self):
        graph = TDNGraph()
        sieve = SieveADN(k=1, epsilon=0.2, graph=graph)
        sieve.process_candidates([])
        assert sieve.query().value == 0.0


class PairwiseSieve(SieveADN):
    """Reference sieve loop: one oracle call per (threshold, candidate)."""

    def process_candidates(self, candidates):
        candidates = list(candidates)
        if not candidates:
            return
        singletons = self.oracle.spread_many(
            [(node,) for node in candidates], self.min_expiry
        )
        for singleton in singletons:
            self.thresholds.update_delta(singleton)
        for node, upper_bound in zip(candidates, singletons):
            for threshold, sieve in self.thresholds.items():
                if threshold > upper_bound:
                    break
                if len(sieve) >= self.k or node in sieve:
                    continue
                base, with_node = self.oracle.spread_many(
                    (tuple(sieve.nodes), tuple(sieve.nodes) + (node,)),
                    self.min_expiry,
                )
                sieve.cached_value = float(base)
                if with_node - base >= threshold:
                    sieve.add(node)
                    sieve.cached_value = float(with_node)


class TestRowBatching:
    def stream(self, seed=8, steps=30, num_nodes=24):
        rng = random.Random(seed)
        nodes = [f"n{i}" for i in range(num_nodes)]
        batches = []
        for t in range(steps):
            batch = []
            for _ in range(rng.randint(1, 4)):
                u, v = rng.sample(nodes, 2)
                batch.append(Interaction(u, v, t))
            batches.append((t, batch))
        return batches

    def replay(self, cls, record=None):
        graph = TDNGraph()
        oracle = InfluenceOracle(graph)
        if record is not None:
            evaluate = oracle.spread_many

            def recording(sets, min_expiry=None):
                sets = list(sets)
                record.append(sets)
                return evaluate(sets, min_expiry)

            oracle.spread_many = recording
        sieve = cls(k=3, epsilon=0.2, graph=graph, oracle=oracle)
        trace = []
        for t, batch in self.stream():
            feed(graph, sieve, t, batch)
            solution = sieve.query()
            trace.append((solution.nodes, solution.value, oracle.calls))
        return trace

    def test_rows_match_the_pairwise_loop(self):
        """Same solutions, values and oracle calls at every step."""
        assert self.replay(SieveADN) == self.replay(PairwiseSieve)

    def test_one_oracle_call_per_candidate_row(self):
        calls = []
        self.replay(SieveADN, record=calls)
        rows = [sets for sets in calls if not all(type(s) is tuple for s in sets)]
        assert rows
        for sets in rows:
            # (S_theta, S_theta + {node}) pairs, all for the same node.
            assert len(sets) % 2 == 0
            added = {
                frozenset(with_node) - frozenset(base)
                for base, with_node in zip(sets[::2], sets[1::2])
            }
            assert len(added) == 1 and len(next(iter(added))) == 1
        assert any(len(sets) > 2 for sets in rows)  # several thresholds per call
