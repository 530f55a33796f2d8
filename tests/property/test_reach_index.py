"""Property suite for the oracle's per-node reach table.

A count-semantics CSR oracle answers memo misses from per-node reach
bitsets kept next to its memo table (``MemoTable.reach``: horizon ->
interned id -> bitset).  The table is physical-only and must obey the
memo's invalidation contract exactly, so these streams hit every way the
graph can change under it — arrivals, parallel edges, expiries, clock
jumps, compactions — at three horizons (``None``, a fixed one the clock
overtakes, and one that moves with the clock) and check after every
step that

* every stored bitset equals the reference ``reachable_set`` of its node
  at its horizon, and
* every oracle value (single and batched) equals a ``backend="dict"``
  oracle's, at the same call count.

The suite runs under both memo modes, under a tiny memo capacity, with a
trimmed dirty journal (wholesale clears), and on both fill paths (scalar
walk and bit-plane sweep).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.influence.oracle import InfluenceOracle
from repro.influence.reachability import reachable_set
from repro.kernels import TraversalKernel
from repro.tdn.csr import CSRSnapshot, DeltaCSR
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction

NODES = 7

#: (memo_mode, max_cache_entries, journal cap or None, scalar pair limit)
CONFIGS = [
    ("delta", 200_000, None, 10**9),
    ("delta", 200_000, None, 0),
    ("version", 200_000, None, 10**9),
    ("delta", 3, None, 10**9),
    ("delta", 3, None, 0),
    ("delta", 200_000, 4, 10**9),
    ("version", 200_000, 4, 0),
]

ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.integers(0, NODES - 1),
            st.integers(0, NODES - 1),
            st.one_of(st.none(), st.integers(1, 8)),
        ),
        st.tuples(st.just("advance"), st.sampled_from([1, 1, 2, 3, 40])),
    ),
    min_size=1,
    max_size=40,
)


def bitset_nodes(graph, bits):
    return {
        graph.node_of_id(node_id)
        for node_id in range(bits.bit_length())
        if bits >> node_id & 1
    }


def horizons(t):
    return (None, 4.0, t + 3.0)


def probe_sets(graph):
    nodes = sorted(graph.node_set(), key=repr)
    sets = [frozenset([node]) for node in nodes[:5]]
    sets.append(frozenset(nodes[:3]))
    sets.append(frozenset(nodes[-2:]))
    sets.append(frozenset(["never-seen", *nodes[:1]]))
    return sets


def check_stream(events, memo_mode, capacity):
    graph = TDNGraph()
    graph.csr()  # engine live from the start: every delta hits the overlay
    oracle = InfluenceOracle(graph, memo_mode=memo_mode, max_cache_entries=capacity)
    reference = InfluenceOracle(
        graph, backend="dict", memo_mode=memo_mode, max_cache_entries=capacity
    )
    t = 0
    for op in events:
        if op[0] == "advance":
            t += op[1]
            graph.advance_to(t)
        else:
            _, u, v, lifetime = op
            if u == v:
                continue
            graph.add_interaction(Interaction(f"n{u}", f"n{v}", t, lifetime))
        sets = probe_sets(graph)
        for horizon in horizons(t):
            values = oracle.spread_many(sets, horizon)
            assert values == reference.spread_many(sets, horizon)
            for key in sets[:2]:
                assert oracle.spread(key, horizon) == reference.spread(key, horizon)
        assert oracle.calls == reference.calls
        for horizon, bits in oracle._memo.reach.items():
            for node_id, reach in bits.items():
                node = graph.node_of_id(node_id)
                assert bitset_nodes(graph, reach) == reachable_set(
                    graph, [node], horizon
                ), (node, horizon)


@pytest.mark.parametrize("memo_mode,capacity,journal_cap,scalar_limit", CONFIGS)
@settings(max_examples=30, deadline=None)
@given(events=ops)
def test_stored_bitsets_and_values_match_reference(
    memo_mode, capacity, journal_cap, scalar_limit, events
):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CSRSnapshot, "SCALAR_PAIR_LIMIT", scalar_limit)
        patch.setattr(DeltaCSR, "COMPACT_MIN", 3)  # compact every few deltas
        if journal_cap is not None:
            patch.setattr(TDNGraph, "DIRTY_LOG_MAX", journal_cap)
        check_stream(events, memo_mode, capacity)


def test_zero_capacity_never_builds_the_table():
    graph = TDNGraph()
    for u, v in (("a", "b"), ("b", "c"), ("x", "y")):
        graph.add_interaction(Interaction(u, v, 0, 50))
    oracle = InfluenceOracle(graph, max_cache_entries=0)
    assert oracle.spread(["a"]) == 3
    assert oracle.spread_many([("a",), ("a", "x"), ("b",)], 10.0) == [3, 5, 2]
    graph.add_interaction(Interaction("c", "d", 0, 50))
    assert oracle.spread(["a"]) == 4
    assert oracle._memo.reach == {}


def test_table_fills_once_and_evicts_only_the_cone():
    graph = TDNGraph()
    for u, v in (("a", "b"), ("b", "c"), ("x", "y")):
        graph.add_interaction(Interaction(u, v, 0, 50))
    oracle = InfluenceOracle(graph)
    assert oracle.spread_many([("a",), ("x",), ("a", "x")]) == [3, 2, 5]
    bits = oracle._memo.reach[None]
    assert set(bits) == {graph.node_id("a"), graph.node_id("x")}
    # Arrival under x: x's bitset goes, a's stays.
    graph.add_interaction(Interaction("y", "z", 0, 50))
    assert oracle.spread(["a", "x"]) == 6
    assert graph.node_id("a") in bits
    assert bitset_nodes(graph, bits[graph.node_id("x")]) == {"x", "y", "z"}


def test_passed_horizon_map_is_dropped():
    graph = TDNGraph()
    graph.add_interaction(Interaction("a", "b", 0, 50))
    oracle = InfluenceOracle(graph)
    assert oracle.spread(["a"], 10.0) == 2
    assert set(oracle._memo.reach) == {10.0}
    graph.advance_to(12)
    graph.add_interaction(Interaction("c", "d", 12, 50))
    # Past t + 1 the horizon filters nothing the clamp does not: the
    # query shares the None map and the passed map is gone.
    assert oracle.spread(["a"], 10.0) == 2  # memo hit: same key, clean cone
    assert oracle.spread(["a", "c"], 10.0) == 4
    assert set(oracle._memo.reach) == {None}


def test_failed_fill_leaves_no_unregistered_bitset(monkeypatch):
    graph = TDNGraph()
    for u, v in (("a", "b"), ("b", "c"), ("x", "y")):
        graph.add_interaction(Interaction(u, v, 0, 50))
    oracle = InfluenceOracle(graph)
    walk = TraversalKernel._walk_bits
    calls = []

    def interrupted(self, node_id, eff, bits):
        calls.append(node_id)
        if len(calls) == 2:
            raise RuntimeError("interrupted")
        return walk(self, node_id, eff, bits)

    monkeypatch.setattr(TraversalKernel, "_walk_bits", interrupted)
    with pytest.raises(RuntimeError):
        oracle.spread_many([("a",), ("x",)])
    assert oracle._memo.reach[None] == {}
    monkeypatch.setattr(TraversalKernel, "_walk_bits", walk)
    assert oracle.spread_many([("a",), ("x",)]) == [3, 2]
    graph.add_interaction(Interaction("c", "d", 0, 50))
    assert oracle.spread(["a"]) == 4  # evicted, not stale
