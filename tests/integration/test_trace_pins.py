"""Golden-trace pins: per-step tracker output must never drift.

The cross-backend equivalence suite compares the dict and CSR oracles,
but both drive the same ``SieveADN.process_candidates`` loop, so a change
to the sieve logic itself (which thresholds a candidate is offered to,
in which order sets are evaluated, how the memo is consulted) would move
both backends together and pass unnoticed.  This suite pins the exact
per-step ``(nodes, value, oracle_calls)`` trajectory of every tracker
on two seeded streams, under both memo modes, as SHA-256 digests.
Weighted spread is pinned too: SIEVEADN and HISTAPPROX on the decaying
stream under fractional mapping weights, a weight callable, and the
uniform ``default_weight`` path, all built through the public facade.

The digests were recorded before the sieve's per-candidate row batching
landed and must stay bit-identical.  To print the current digests (for
example after a deliberate change to the paper-level accounting, which
must then be argued in the change log), run::

    PYTHONPATH=src python tests/integration/test_trace_pins.py
"""

import hashlib
import random

import pytest

from repro import (
    BasicReduction,
    HistApprox,
    InfluenceOracle,
    Interaction,
    MemoryStream,
    SieveADN,
    TDNGraph,
    open_tracker,
)

K = 4
EPSILON = 0.2
MAX_LIFETIME = 12


def stream_events(kind, seed=20190408, num_nodes=40, steps=120):
    """A seeded stream: ``"decaying"`` (finite lifetimes) or ``"adn"``."""
    rng = random.Random(seed)
    events = []
    for t in range(steps):
        for _ in range(rng.randint(1, 4)):
            u, v = rng.sample(range(num_nodes), 2)
            lifetime = rng.randint(1, MAX_LIFETIME) if kind == "decaying" else None
            events.append(Interaction(f"n{u}", f"n{v}", t, lifetime))
    return events


def make_tracker(name, graph, oracle):
    if name == "sieve_adn":
        return SieveADN(K, EPSILON, graph, oracle)
    if name == "basic_reduction":
        return BasicReduction(K, EPSILON, MAX_LIFETIME, graph, oracle)
    if name == "hist_approx":
        return HistApprox(K, EPSILON, graph, oracle)
    raise AssertionError(name)


def trace_digest(tracker_name, kind, memo_mode):
    """SHA-256 over the per-step ``(nodes, value, oracle_calls)`` lines."""
    graph = TDNGraph()
    oracle = InfluenceOracle(graph, memo_mode=memo_mode)
    tracker = make_tracker(tracker_name, graph, oracle)
    digest = hashlib.sha256()
    for t, batch in MemoryStream(stream_events(kind), fill_gaps=True):
        graph.advance_to(t)
        graph.add_batch(batch)
        tracker.on_batch(t, batch)
        solution = tracker.query()
        nodes = ",".join(map(str, solution.nodes))
        line = f"{t}|{nodes}|{solution.value!r}|{oracle.calls}\n"
        digest.update(line.encode())
    return digest.hexdigest()


# (tracker, stream, memo_mode) -> digest.  BASICREDUCTION needs finite
# lifetimes no longer than L, so it is pinned on the decaying stream only.
PINS = {
    ("sieve_adn", "decaying", "delta"): (
        "910d37a4e607b2820c58fa530fdafff63610f98b52f6bb2c158f5e652ee7647c"
    ),
    ("sieve_adn", "decaying", "version"): (
        "d9d8e6ef95f6d969b0f19aad69d283f2632bed72d92b09091fddce74888ef96a"
    ),
    ("sieve_adn", "adn", "delta"): (
        "c82ffad7fff8e124541050204ccecc66fe56d048aa452d97224897515f52439b"
    ),
    ("sieve_adn", "adn", "version"): (
        "a5fb50185eb9fa239fae7458593a401103477de318280d821094538b7a61890b"
    ),
    ("basic_reduction", "decaying", "delta"): (
        "1961ce6b5dc164d41b00b3f5dd20ba9e8afe1b844d3314e6b7f81639a9446d8f"
    ),
    ("basic_reduction", "decaying", "version"): (
        "92a17ac86b158cd6dfee97317d908b2e6a4ece4352fd8727cf8108bddbb66e95"
    ),
    ("hist_approx", "decaying", "delta"): (
        "bc7a5ffc009e3a261d4bdaf95dee4a00916bd1e5381d126798792c58b4045b50"
    ),
    ("hist_approx", "decaying", "version"): (
        "ab377ba4aea206b900dc9bdc57e94f763e8f77254cf67ebbe0f39696b568f43e"
    ),
    # With infinite lifetimes HISTAPPROX keeps one instance at the infinite
    # horizon, so its trace is SIEVEADN's.
    ("hist_approx", "adn", "delta"): (
        "c82ffad7fff8e124541050204ccecc66fe56d048aa452d97224897515f52439b"
    ),
    ("hist_approx", "adn", "version"): (
        "a5fb50185eb9fa239fae7458593a401103477de318280d821094538b7a61890b"
    ),
}


#: Weightings of the weighted pins: ``(weights, default_weight)``.
WEIGHTINGS = {
    "mapping": ({f"n{i}": 0.1 + 0.35 * (i % 5) for i in range(0, 40, 2)}, 1.0),
    "callable": (lambda node: 0.25 + 0.5 * (int(node[1:]) % 3), 1.0),
    "default": (None, 0.1),
}


def weighted_trace_digest(algorithm, weighting):
    """Like :func:`trace_digest`, for a weighted-spread facade tracker."""
    weights, default_weight = WEIGHTINGS[weighting]
    tracker = open_tracker(
        algorithm,
        k=K,
        epsilon=EPSILON,
        semantics="weighted_sum",
        weights=weights,
        default_weight=default_weight,
    )
    digest = hashlib.sha256()
    for t, batch in MemoryStream(stream_events("decaying"), fill_gaps=True):
        solution = tracker.step(t, batch)
        nodes = ",".join(map(str, solution.nodes))
        line = f"{t}|{nodes}|{solution.value!r}|{tracker.oracle_calls}\n"
        digest.update(line.encode())
    return digest.hexdigest()


# (algorithm, weighting) -> digest, on the decaying stream.
WEIGHTED_PINS = {
    ("hist_approx", "callable"): (
        "3d8101a8f855ad8324ddc1c833f98f4cbe0d6c17ec9ec581bb184f341a8836a2"
    ),
    ("hist_approx", "default"): (
        "bc51d78ea5e37844804e3a9119e67bb359908adb08677a53eb1e1e558b8fa88c"
    ),
    ("hist_approx", "mapping"): (
        "e0427dc44c2245242b6ea4d770f3b8aeea43bfcf393eb414696d3820b134322a"
    ),
    ("sieve_adn", "callable"): (
        "07ad300a6f6f01eea43241183cdad9f75fc2cfa342a47915f92af80ebc52a3f5"
    ),
    ("sieve_adn", "default"): (
        "e455dd65622a33a769465c6231788a379abed4a81aadc68e25733ae38693e8fa"
    ),
    ("sieve_adn", "mapping"): (
        "8fde8b5462f372274209fe45df5e8ae256a1a7b84adc1ecd48bb54d553b0fe28"
    ),
}


@pytest.mark.parametrize("case", sorted(PINS), ids="-".join)
def test_trace_matches_pin(case):
    assert trace_digest(*case) == PINS[case]


@pytest.mark.parametrize("case", sorted(WEIGHTED_PINS), ids="-".join)
def test_weighted_trace_matches_pin(case):
    assert weighted_trace_digest(*case) == WEIGHTED_PINS[case]


if __name__ == "__main__":
    for case in sorted(PINS):
        print(f"    {case!r}: {trace_digest(*case)!r},")
    for algorithm in ("hist_approx", "sieve_adn"):
        for weighting in sorted(WEIGHTINGS):
            case = (algorithm, weighting)
            print(f"    {case!r}: {weighted_trace_digest(*case)!r},")
