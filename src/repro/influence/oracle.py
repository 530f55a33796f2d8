"""The influence oracle: counted, cached evaluations of ``f_t(S)``.

Every algorithm in the paper is measured in *oracle calls* — evaluations of
the influence spread ``f_t`` — because that evaluation (one BFS) dominates
runtime and is hardware independent.  :class:`InfluenceOracle` is the single
gateway through which all algorithms evaluate spreads:

* it counts real evaluations into a shared :class:`CallCounter`;
* it memoizes results in a delta-aware table, so repeated evaluation of the
  same set (e.g. the current sieve set ``S_theta`` while a batch of
  candidates streams past, or across batches that provably did not touch
  the set's reachable cone) costs one call, mirroring how any sensible
  implementation caches ``f(S)`` when computing marginal gains;
* it accepts a ``min_expiry`` horizon so each SIEVEADN instance evaluates on
  its own addition-only subgraph while sharing the one TDN;
* it evaluates every registered fold semantics (``semantics=``), the
  node-weighted ``weighted_sum`` included (:class:`NodeWeights`), through
  the same memo, replay protocol and executor path.

Backends
--------
Two interchangeable reachability engines sit behind the same API:

* ``"csr"`` (default): the incrementally maintained delta-CSR engine of
  :mod:`repro.tdn.csr` — an immutable base snapshot plus O(1)-per-edge
  overlay/tombstone deltas (no per-version rebuild), with every traversal
  served by the shared array-level kernel (:mod:`repro.kernels`), the
  same per-pair max-expiry horizon test.
* ``"dict"``: the reference pure-Python BFS over the graph's dict-of-dict
  adjacency (:func:`repro.influence.reachability.reachable_set`).

Dirty-cone invalidation (``memo_mode``)
---------------------------------------
The memo table survives graph version bumps.  Under the default
``memo_mode="delta"`` the oracle reads, at each sync, the graph's
dirty-source journal — the interned ids whose forward cone the structural
changes since its last sync touched (arrival sources plus dead-pair
sources; see :meth:`repro.tdn.graph.TDNGraph.dirty_source_ids_since`) —
closes it under the engine's reverse-transpose sweep
(:meth:`repro.tdn.csr.DeltaCSR.touched_cone_ids`), and evicts exactly the
memo entries whose key-set intersects that closed dirty set.  The contract
behind retaining the rest:

* an arrival ``u -> v`` can only change ``f_t(S)`` if some node of ``S``
  reaches ``u`` in the *post-batch* graph, so post-batch ancestors of
  arrival sources cover every affected key;
* an expiry can only change ``f_t(S)`` if ``S`` reached the dead pair's
  source when the entry was cached; the first dead pair along any such
  path has its source journaled and the path prefix ahead of it is still
  alive, so post-expiry ancestors of dead-pair sources cover every
  affected key (non-final parallel-edge removals never change a pair's
  maximum alive expiry — expiries drain in increasing order — and are not
  journaled);
* clock advances that expire nothing change no live-horizon value (every
  surviving pair's max expiry still clears the new ``t + 1`` floor), and
  bump no version.

Eviction preserves the table's FIFO insertion order, so cache-pressure
eviction (oldest first) behaves identically in both modes, and a retained
entry is always equal to a from-scratch evaluation (property-tested).
``memo_mode="version"`` keeps the historical wholesale-clear-per-version
behavior for equivalence testing and benchmarking.  Both memo modes
produce identical spread values and solutions; ``"delta"`` simply spends
fewer oracle calls when consecutive batches leave most cones untouched.

Batched evaluation and the reach table
--------------------------------------
On the CSR backend, :meth:`InfluenceOracle.spread_many` does not issue one
traversal per set.  It first replays the *sequential* cache protocol —
walking the batch in order, taking hits, counting one oracle call per miss,
and reserving each miss's FIFO cache slot — and then evaluates all distinct
misses together.  The *accounting* is therefore exactly what
``[self.spread(s) for s in sets]`` would produce — same values, same call
counts, same cache evictions in the same order — whatever the physics.

For the count fold the physics is the memo's **reach table**
(:meth:`MemoTable.reach_counts`): per horizon, each interned node's reach
set as an int bitset, so a miss costs the popcount of its members' OR,
and only members without a stored bitset are walked.  The table is evicted
by the same dirty cone as the memo and clears with it.  With the table off
(``max_cache_entries=0``) the misses go through
:meth:`DeltaCSR.spread_counts`, which packs up to 64 seed sets into uint64
visited-mask planes and propagates them to fixpoint in a single shared
multi-source sweep; other folds always take that sweep.

Both backends return identical values and spend identical oracle calls —
the cross-backend equivalence suite pins this on seeded streams — so the
accounting shown in the paper's figures is backend independent.  The
dirty-cone closure runs on the owning backend's own sweep (transpose CSR
for ``"csr"``, the reference dict ancestor walk for ``"dict"`` — a dict
oracle never forces a CSR engine build just to evict); both sweeps
produce the identical closure, so memo semantics are backend independent
too.

Sharded parallel evaluation (``parallel``)
------------------------------------------
``parallel`` plugs a :class:`~repro.parallel.executor.
ShardedOracleExecutor` under the CSR backend: batched miss evaluations
(single-set ones stay on the owner's reach table)
and the dirty-cone ancestor sweep are partitioned across a persistent
worker pool that maps the published shared-memory CSR plane, while every
bit of accounting (cache protocol, call counting, FIFO order) stays in
this layer — so the sharded oracle is bit-for-bit equivalent to the
serial one, merely faster on multi-core hosts.  Pass a worker count (an
executor is created and owned by this oracle; close it via
:meth:`InfluenceOracle.close`) or share one executor instance across
oracles.  The executor degrades to serial on its own (single worker,
shared memory unavailable, small batches, worker death), so ``parallel``
never changes results, only wall-clock.
"""

from __future__ import annotations

import secrets
import weakref
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.errors import ConfigError, SemanticsError
from repro.influence.reachability import ancestors, reachable_set
from repro.kernels import resolve_fold
from repro.obs import names as metric_names
from repro.obs.registry import metrics_registry
from repro.tdn.graph import TDNGraph
from repro.utils.counters import CallCounter

Node = Hashable
WeightSpec = Union[Mapping[Node, float], Callable[[Node], float]]

# Instruments bound once at import (the registry pre-registers the whole
# catalog, so these lookups cannot miss).  The oracle records into the
# process registry; worker processes run their own oracle instances over
# their own registries and ship counter deltas owner-side.
_MEMO_HITS = metrics_registry().counter(metric_names.ORACLE_MEMO_HITS_TOTAL)
_MEMO_MISSES = metrics_registry().counter(metric_names.ORACLE_MEMO_MISSES_TOTAL)
_MEMO_EVICTIONS = metrics_registry().counter(
    metric_names.ORACLE_MEMO_EVICTIONS_TOTAL
)
_CONE_SIZE = metrics_registry().histogram(metric_names.ORACLE_CONE_SIZE_NODES)
_REACH_FILLS = metrics_registry().counter(metric_names.ORACLE_REACH_FILLS_TOTAL)
_REACH_EVICTIONS = metrics_registry().counter(
    metric_names.ORACLE_REACH_EVICTIONS_TOTAL
)

#: Count-semantics cache key.  Non-count semantics append the fold's
#: hashable token as a third element, so two semantics over one graph can
#: never collide on a memo slot; the key-set nodes stay at index 1, which
#: is the only position the table's inverted index relies on.
_CacheKey = Tuple[Optional[float], FrozenSet[Node]]

#: Selectable reachability engines.
ORACLE_BACKENDS = ("csr", "dict")

#: Selectable memo invalidation policies.
MEMO_MODES = ("delta", "version")

#: In-batch placeholder for a cache slot whose value is still being
#: evaluated by the shared bit-plane sweep.  Reserving the slot up front
#: keeps FIFO insertion (and eviction) order identical to a sequential
#: evaluation of the batch.
_PENDING = object()


def replay_batch_protocol(
    memo, counter, sets, min_expiry, evaluate, zero, semantics=None
):
    """The sequential-replay cache protocol behind batched ``spread_many``.

    Walk the batch in submission order taking hits, count one oracle
    call per miss, reserve each miss's FIFO cache slot with ``_PENDING``
    (so in-batch duplicates replay as the cache hits they would
    sequentially be), then evaluate the distinct misses together through
    ``evaluate`` and fulfill the reservations.  Values, call counts and eviction order
    are exactly those of ``[spread(s) for s in sets]``.

    Every set is frozen *before* the first cache mutation (a frozenset,
    such as a sieve's key, is taken as it is): a bad input (unhashable
    member, exhausted iterator) must raise while the memo still holds no
    ``_PENDING`` reservation to leak, and reservations are likewise
    rolled back when ``evaluate`` itself raises.

    ``semantics`` is an optional hashable token appended to every cache
    key (``None`` keeps the historical two-element key), so oracles
    evaluating different fold semantics over one shared graph keep fully
    disjoint memo populations.
    """
    frozen_sets = [
        nodes if type(nodes) is frozenset else frozenset(nodes) for nodes in sets
    ]
    results: list = [None] * len(frozen_sets)
    miss_keys: list = []  # first-miss order, mirrors sequential
    miss_sets: list = []
    slot_of: dict = {}
    placements: list = []  # (result index, miss slot)
    # Hit/miss accounting is accumulated locally and flushed once after
    # the replay loop — the registry lock must not be taken per set.
    hits = 0
    misses = 0
    lookup = memo.data.get
    reserve = memo.put
    for i, key_nodes in enumerate(frozen_sets):
        if not key_nodes:
            results[i] = zero
            continue
        key = (
            (min_expiry, key_nodes)
            if semantics is None
            else (min_expiry, key_nodes, semantics)
        )
        hit = lookup(key)
        if hit is _PENDING:
            # Duplicate of an in-batch miss: a sequential run would hit
            # the (by then populated) cache entry — no call counted.
            placements.append((i, slot_of[key]))
            hits += 1
            continue
        if hit is not None:
            results[i] = hit
            hits += 1
            continue
        misses += 1
        slot = slot_of.get(key)
        if slot is None:
            slot = len(miss_keys)
            slot_of[key] = slot
            miss_keys.append(key)
            miss_sets.append(key_nodes)
        # Reserve the FIFO slot exactly where a sequential evaluation
        # would have inserted the computed value (a re-counted miss —
        # its reservation evicted mid-batch — re-inserts, as it would
        # sequentially).
        reserve(key, _PENDING)
        placements.append((i, slot))
    if hits:
        _MEMO_HITS.inc(hits)
    if misses:
        counter.increment(misses)
        _MEMO_MISSES.inc(misses)
    if miss_sets:
        try:
            values = evaluate(miss_sets, min_expiry)
        except BaseException:
            for key in miss_keys:
                if memo.get(key) is _PENDING:
                    memo.delete(key)
            raise
        for key, value in zip(miss_keys, values):
            memo.fulfill(key, value)
        for i, slot in placements:
            results[i] = values[slot]
    return results


def resolve_executor(parallel, backend: str):
    """Normalize an oracle's ``parallel`` argument.

    Returns ``(executor, owns_executor)``: ``None`` for serial operation,
    a fresh owned :class:`~repro.parallel.executor.ShardedOracleExecutor`
    for an integer worker count above 1, or the caller's shared executor
    instance (not owned — the caller closes it).  Sharding requires the
    flat-array plane, so the ``"dict"`` backend rejects it outright
    rather than silently ignoring the request.
    """
    if parallel is None:
        return None, False
    if isinstance(parallel, bool):
        raise TypeError("parallel must be None, an int worker count, or an executor")
    if backend != "csr":
        raise ConfigError(
            f"parallel evaluation requires backend='csr', got {backend!r}"
        )
    if isinstance(parallel, int):
        if parallel <= 1:
            return None, False
        # Deliberate injection seam: the oracle layer constructs its own
        # sharded executor only when asked for one by worker count; the
        # import stays lazy so serial use never touches repro.parallel.
        # repro-lint: disable-next=RPL102
        from repro.parallel.executor import ShardedOracleExecutor

        return ShardedOracleExecutor(parallel), True
    return parallel, False


class DirtyCone(NamedTuple):
    """One delta sync's dirty set: journaled seeds and their closure.

    ``seed_ids`` are the raw dirty sources read off the graph journal;
    ``cone_ids`` is their closure under the reverse-transpose ancestor
    sweep — the ids whose forward cone the deltas touched.  SIEVEADN
    reuses the closure as its changed-node set when the seeds coincide
    with the batch it is processing, so eviction and candidate derivation
    share one sweep per batch.
    """

    seed_ids: FrozenSet[int]
    cone_ids: Set[int]


class MemoTable:
    """FIFO-bounded memo table with delta-aware dirty-cone invalidation.

    One instance backs each oracle, whatever its semantics.  The table
    tracks, per key, the nodes the key mentions (an inverted index), which
    makes evicting every entry that intersects a dirty-node set
    proportional to the entries actually evicted rather than to the table
    size.

    Dicts preserve insertion order, so the first key is always the oldest
    memo; evicting it under capacity pressure keeps recent spreads hot
    instead of disabling memoization outright, and dirty-cone eviction
    (plain deletes) never reorders the survivors.  ``max_entries=0``
    disables the table entirely.

    Next to the memo sits a physical-only **reach table**
    (:meth:`reach_counts`): per horizon, interned id -> that node's reach
    set as an int bitset, so a count miss costs the popcount of its
    members' OR.  It follows the memo's rules exactly — ids in the closed
    dirty cone are evicted, it clears wherever the memo clears, it is off
    under ``max_entries=0`` — and is never counted: call accounting and
    FIFO order belong to the memo alone.
    """

    __slots__ = (
        "graph",
        "data",
        "max_entries",
        "memo_mode",
        "cone_backend",
        "executor",
        "reach",
        "_holders",
        "_index",
        "_version",
        "_cursor",
    )

    def __init__(
        self,
        graph: TDNGraph,
        max_entries: int,
        memo_mode: str,
        cone_backend: str = "csr",
    ) -> None:
        if memo_mode not in MEMO_MODES:
            raise ConfigError(
                f"memo_mode must be one of {MEMO_MODES}, got {memo_mode!r}"
            )
        if max_entries < 0:
            raise ConfigError(f"max_entries must be >= 0, got {max_entries}")
        if cone_backend not in ORACLE_BACKENDS:
            raise ConfigError(
                f"cone_backend must be one of {ORACLE_BACKENDS}, got {cone_backend!r}"
            )
        self.graph = graph
        self.data: dict = {}
        self.max_entries = max_entries
        self.memo_mode = memo_mode
        self.cone_backend = cone_backend
        self.executor = None  # optional ShardedOracleExecutor (csr cones)
        #: horizon (``None`` = ``t + 1``) -> {interned id: reach bitset}
        self.reach: Dict[Optional[float], Dict[int, int]] = {}
        self._holders: dict = {}  # id -> [horizons whose map holds its bitset]
        self._index: dict = {}  # node -> set of live keys mentioning it
        self._version = graph.version
        self._cursor = graph.dirty_cursor

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Entry maintenance
    # ------------------------------------------------------------------
    def get(self, key: _CacheKey):
        """The cached value (``None`` when absent; may be ``_PENDING``)."""
        return self.data.get(key)

    def put(self, key: _CacheKey, value) -> None:
        """Insert under FIFO capacity; overwriting never reorders."""
        if self.max_entries <= 0:
            return
        data = self.data
        if key in data:
            data[key] = value
            return
        if len(data) >= self.max_entries:
            self.delete(next(iter(data)))
        data[key] = value
        index = self._index
        for node in key[1]:
            keys = index.get(node)
            if keys is None:
                index[node] = {key}
            else:
                keys.add(key)

    def fulfill(self, key: _CacheKey, value) -> None:
        """Replace a reserved ``_PENDING`` placeholder with its value.

        No-op when the reservation was already evicted mid-batch under
        capacity pressure (a sequential run would have lost that slot the
        same way).  The slot was indexed at reservation time, so this
        write never touches FIFO order or the inverted index.
        """
        if self.data.get(key) is _PENDING:
            self.data[key] = value

    def delete(self, key: _CacheKey) -> None:
        """Drop one entry (no-op when absent), keeping the index exact."""
        if key not in self.data:
            return
        del self.data[key]
        index = self._index
        for node in key[1]:
            keys = index.get(node)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del index[node]

    def clear(self) -> None:
        self.data.clear()
        self._index.clear()
        self.reach.clear()
        self._holders.clear()

    def evict_nodes(self, dirty_nodes: Set[Node]) -> int:
        """Evict every entry whose key-set intersects ``dirty_nodes``."""
        index = self._index
        if not index or not dirty_nodes:
            return 0
        victims: Set[_CacheKey] = set()
        for node in index.keys() & dirty_nodes:
            victims.update(index[node])
        for key in victims:
            self.delete(key)
        if victims:
            _MEMO_EVICTIONS.inc(len(victims))
        return len(victims)

    # ------------------------------------------------------------------
    # Version sync
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop everything and fast-forward to the graph's current state."""
        self.clear()
        self._version = self.graph.version
        self._cursor = self.graph.dirty_cursor

    def sync(self, want_cone: bool = False) -> Optional[DirtyCone]:
        """Bring the table up to date with the graph.

        Under ``memo_mode="delta"`` this reads the dirty-source journal
        suffix since the last sync, closes it under the owning backend's
        reverse ancestor sweep, and evicts only the intersecting entries;
        the computed :class:`DirtyCone` is returned when ``want_cone`` is
        set (or when entries were at stake), so one sweep can serve both
        eviction and SIEVEADN's changed-node derivation.  Returns ``None``
        when nothing was stale, when the journal had been trimmed past the
        cursor (wholesale clear), or under ``memo_mode="version"`` (the
        historical clear-per-version policy).
        """
        graph = self.graph
        if graph.version == self._version:
            return None
        record = None
        if self.memo_mode == "delta" and (self.data or self.reach or want_cone):
            seeds = graph.dirty_source_ids_since(self._cursor)
            if seeds is None:
                self.clear()
            else:
                cone_ids = self._closed_cone(seeds) if seeds else set()
                _CONE_SIZE.observe(len(cone_ids))
                if self.data and cone_ids:
                    node_of_id = graph.node_of_id
                    self.evict_nodes({node_of_id(i) for i in cone_ids})
                if self.reach:
                    self._evict_reach(cone_ids)
                record = DirtyCone(frozenset(seeds), cone_ids)
        else:
            self.clear()
        self._version = graph.version
        self._cursor = graph.dirty_cursor
        return record

    # ------------------------------------------------------------------
    # Reach table
    # ------------------------------------------------------------------
    def reach_counts(
        self, id_sets: Sequence[Sequence[int]], min_expiry: Optional[float]
    ) -> List[int]:
        """``|R(S)|`` per interned id set, answered from reach bitsets.

        Members without a stored bitset are filled first, all of them in
        one kernel call (:meth:`repro.tdn.csr.DeltaCSR.fill_reach_bits`).
        A horizon at or below ``t + 1`` filters nothing the clamp does not,
        so it shares the ``None`` map.  Call after :meth:`sync`.
        """
        horizon = min_expiry
        if horizon is not None and horizon <= self.graph.time + 1:
            horizon = None
        bits = self.reach.get(horizon)
        if bits is None:
            bits = self.reach[horizon] = {}
        missing = [
            node_id for ids in id_sets for node_id in ids if node_id not in bits
        ]
        if missing:
            missing = list(dict.fromkeys(missing))
            try:
                self.graph.csr().fill_reach_bits(missing, horizon, bits)
            except BaseException:
                # An unregistered bitset would escape eviction.
                for node_id in missing:
                    bits.pop(node_id, None)
                raise
            holders = self._holders
            for node_id in missing:
                held = holders.get(node_id)
                if held is None:
                    holders[node_id] = [horizon]
                else:
                    held.append(horizon)
            _REACH_FILLS.inc(len(missing))
        counts = []
        for ids in id_sets:
            if len(ids) == 1:
                counts.append(bits[ids[0]].bit_count())
                continue
            union = 0
            for node_id in ids:
                union |= bits[node_id]
            counts.append(union.bit_count())
        return counts

    def _evict_reach(self, cone_ids: Set[int]) -> None:
        """Evict the dirty cone's bitsets; drop horizons ``t + 1`` passed."""
        reach = self.reach
        holders = self._holders
        evicted = 0
        for node_id in cone_ids:
            held = holders.pop(node_id, None)
            if held is not None:
                for horizon in held:
                    del reach[horizon][node_id]
                evicted += len(held)
        floor = self.graph.time + 1
        for horizon in [h for h in reach if h is not None and h <= floor]:
            bits = reach.pop(horizon)
            for node_id in bits:
                held = holders[node_id]
                held.remove(horizon)
                if not held:
                    del holders[node_id]
            evicted += len(bits)
        if evicted:
            _REACH_EVICTIONS.inc(evicted)

    def _closed_cone(self, seed_ids: Set[int]) -> Set[int]:
        """Ancestor closure of the dirty seeds, on the owning backend.

        A ``"csr"`` oracle rides the engine's transpose sweep; a
        ``"dict"`` oracle keeps its pure-dict profile by closing through
        the reference :func:`~repro.influence.reachability.ancestors`
        walk instead of forcing a CSR engine build just for eviction.
        Both sweeps produce the identical set (pinned by the equivalence
        suites), so memo semantics — and with them call counts — stay
        backend independent either way.
        """
        graph = self.graph
        if self.cone_backend == "dict":
            node_of_id = graph.node_of_id
            # sorted(): seed_ids arrives as a set; id order fixes the walk.
            seed_nodes = [node_of_id(i) for i in sorted(seed_ids)]
            node_id = graph.node_id
            return {node_id(n) for n in ancestors(graph, seed_nodes, None)}
        if self.executor is not None:
            # Shard-merged reverse sweep; identical closure (reachability
            # distributes over seed union), serial fallback inside.
            return self.executor.touched_cone_ids(graph, seed_ids)
        return graph.csr().touched_cone_ids(seed_ids)


def _release_published_weights(executor_ref, weights_key: str) -> None:
    """GC/close hook: drop one oracle's weight segment from its executor."""
    executor = executor_ref()
    if executor is not None:
        try:
            executor.release_weights(weights_key)
        except Exception:  # pragma: no cover - teardown is best effort
            pass


class NodeWeights:
    """The node weights ``w`` of a ``weighted_sum`` oracle.

    ``f_t(S)`` is the total weight of the nodes ``S`` reaches: with
    non-negative weights a weighted coverage function, so normalized,
    monotone and submodular, and every guarantee of the paper carries
    over.  ``weights`` is a mapping node -> weight, a callable, or
    ``None``; nodes a mapping does not cover (and every node under
    ``None``) weigh ``default``.

    Mapping and default weights are total and pure, so the engine folds
    them as a dense per-interned-id array (:meth:`upto`), grown lazily as
    nodes are interned — ids are append-only, so a prefix never goes
    stale.  A weight *callable* may be partial or stateful, so it is never
    pre-evaluated: it is invoked in-process, only for reached nodes, in
    ascending-id order (:meth:`reached_sum`).  Every float fold runs in
    that canonical order, which keeps values bit-identical across
    backends, batch shapes, shards and ``PYTHONHASHSEED`` values.
    """

    def __init__(
        self, graph: TDNGraph, weights: Optional[WeightSpec], default: float
    ) -> None:
        if default < 0:
            raise ConfigError(f"default_weight must be >= 0, got {default}")
        self.graph = graph
        self.default = float(default)
        #: No mapping at all: a reached set scores ``default * count``
        #: (never a dense float sum, which rounds differently).
        self.uniform = weights is None
        #: Mapping or default weights: foldable as a dense array.
        self.dense = weights is None or not callable(weights)
        self._array = np.empty(0, dtype=np.float64)
        default_value = self.default
        self._weight_of: Callable[[Node], float]
        if weights is None:
            self._weight_of = lambda node: default_value
        elif callable(weights):
            self._weight_of = weights
        else:
            mapping = dict(weights)
            for node, weight in mapping.items():
                if weight < 0:
                    raise ConfigError(
                        f"weight for {node!r} is negative ({weight}); weighted "
                        "spread requires non-negative weights to stay monotone"
                    )
            self._weight_of = lambda node: mapping.get(node, default_value)

    def checked(self, node: Node) -> float:
        """The weight of one node, refusing negative callable results."""
        weight = self._weight_of(node)
        if weight < 0:
            raise ConfigError(f"weight callable returned negative value for {node!r}")
        return weight

    def order_key(self, node: Node) -> Tuple[int, object]:
        """Total order for folding float weights over node sets.

        Interned nodes sort by id (ascending — the canonical summation
        order of :func:`repro.kernels.dense_weight_sum`), never-interned
        nodes after them by ``repr``.
        """
        interned = self.graph.node_id(node)
        if interned is None:
            return (1, repr(node))
        return (0, interned)

    def node_sum(self, nodes: Iterable[Node]) -> float:
        """Total weight of a reached node set (the dict reference fold)."""
        value = 0.0
        for node in sorted(nodes, key=self.order_key):
            value += self.checked(node)
        return value

    def split_seeds(self, key_nodes: FrozenSet[Node]) -> Tuple[List[int], float]:
        """Interned seed ids plus the weight of never-interned seeds.

        A never-interned seed has no edges and reaches only itself, so it
        contributes its own weight directly, folded in canonical order.
        """
        node_id = self.graph.node_id
        ids: List[int] = []
        value = 0.0
        for node in sorted(key_nodes, key=self.order_key):
            interned = node_id(node)
            if interned is None:
                value += self.checked(node)
            else:
                ids.append(interned)
        return ids, value

    def reached_sum(self, reached: Set[int]) -> float:
        """Total callable weight of a reached id set, in ascending-id order."""
        node_of_id = self.graph.node_of_id
        return sum(
            self.checked(node_of_id(reached_id)) for reached_id in sorted(reached)
        )

    def upto(self, count: int) -> np.ndarray:
        """The dense id-indexed weight array, extended to ``count`` entries."""
        have = self._array.shape[0]
        if have < count:
            node_of_id = self.graph.node_of_id
            fresh = np.asarray(
                [self.checked(node_of_id(i)) for i in range(have, count)],
                dtype=np.float64,
            )
            self._array = np.concatenate([self._array, fresh])
        return self._array


class InfluenceOracle:
    """Evaluates the paper's influence spread with counting and caching.

    Args:
        graph: the shared TDN the spread is computed on.
        counter: the call counter to increment on every *real* evaluation
            (cache hits are free — they would be cached in any realistic
            implementation and the paper's counts assume as much for the
            lazy-greedy baseline).
        max_cache_entries: bound on the memo table.  When the table is
            full the *oldest* entry is evicted to admit the new one
            (FIFO), so memoization keeps working through long query-heavy
            phases instead of silently shutting off.  ``0`` disables the
            memo and with it the physical reach table.
        backend: ``"csr"`` (compact flat-array engine, default) or
            ``"dict"`` (reference dict-of-dict BFS).
        memo_mode: ``"delta"`` (default) retains memo entries across graph
            versions, evicting only those whose reachable cone the changes
            touched (see the module docstring for the invalidation
            contract); ``"version"`` restores the historical wholesale
            clear on every ``graph.version`` bump.  The reach table
            follows the same policy.
        parallel: sharded evaluation over the CSR backend — ``None``
            (serial, default), a worker count (the oracle creates and
            owns a :class:`~repro.parallel.executor.ShardedOracleExecutor`;
            release it with :meth:`close`), or an executor instance to
            share across oracles.  Values, solutions and call counts are
            bit-identical to serial evaluation.
        semantics: the influence fold this oracle evaluates — a name
            from :data:`repro.kernels.FOLD_NAMES`, a ``(name, params)``
            spec, or a :class:`~repro.kernels.Fold` instance.  The
            default ``"count"`` keeps the paper's ``|R(S)|`` on its
            historical byte-identical code path; ``"hop_discount"`` and
            ``"time_decay"`` evaluate through the fold seam (CSR backend
            only) with memo keys carrying the fold token, so two
            semantics sharing one graph never share cache entries.
            ``"weighted_sum"`` scores the total weight of the reached
            nodes (see :class:`NodeWeights`) on either backend.
        weights: ``weighted_sum`` only — a mapping node -> weight, a
            callable, or ``None`` (every node weighs ``default_weight``).
            Weights must be non-negative.  Under ``parallel`` a dense
            weight array is published into shared memory once per growth
            of the interned node set and workers fold it in their
            bit-plane sweeps; a callable never crosses a process boundary
            (workers return reached id sets instead).
        default_weight: ``weighted_sum`` only — the weight of nodes
            ``weights`` does not cover (1.0 recovers ``|R(S)|`` as a
            float).

    Raises:
        ConfigError: an invalid backend, memo mode, cache bound or weight,
            or ``weights``/``default_weight`` with another semantics.
        SemanticsError: an unknown semantics, or a fold other than
            ``count``/``weighted_sum`` on the ``"dict"`` backend.
    """

    def __init__(
        self,
        graph: TDNGraph,
        counter: Optional[CallCounter] = None,
        *,
        max_cache_entries: int = 200_000,
        backend: str = "csr",
        memo_mode: str = "delta",
        parallel=None,
        semantics="count",
        weights: Optional[WeightSpec] = None,
        default_weight: float = 1.0,
    ) -> None:
        if backend not in ORACLE_BACKENDS:
            raise ConfigError(
                f"backend must be one of {ORACLE_BACKENDS}, got {backend!r}"
            )
        if max_cache_entries < 0:
            raise ConfigError(f"max_cache_entries must be >= 0, got {max_cache_entries}")
        fold = resolve_fold(semantics)
        self._weights: Optional[NodeWeights] = None
        if fold.needs_weights:
            self._weights = NodeWeights(graph, weights, default_weight)
        elif weights is not None or default_weight != 1.0:
            raise ConfigError(
                "weights are only meaningful with semantics='weighted_sum'; "
                f"got semantics={fold.name!r}"
            )
        elif fold.name != "count" and backend != "csr":
            raise SemanticsError(
                f"semantics {fold.name!r} requires backend='csr', got {backend!r}"
            )
        self.graph = graph
        self.backend = backend
        self.fold = fold
        #: None on the count path (the pre-fold two-element memo keys and
        #: int values), the fold's hashable token otherwise.
        self._semantics_token = None if fold.name == "count" else fold.token()
        self.counter = counter if counter is not None else CallCounter("oracle")
        self._executor, self._owns_executor = resolve_executor(parallel, backend)
        self._memo = MemoTable(
            graph, max_cache_entries, memo_mode, cone_backend=backend
        )
        self._memo.executor = self._executor
        # Stable per-oracle token for the executor's shared-memory weight
        # segment (the dense array is append-only, so its length is its
        # epoch — the executor republishes only when it grew).
        self._weights_key = f"w{secrets.token_hex(4)}"
        self._weights_finalizer: Optional[weakref.finalize] = None

    @property
    def semantics(self) -> str:
        """The registered name of this oracle's fold."""
        return self.fold.name

    @property
    def memo_mode(self) -> str:
        """The active memo invalidation policy (``"delta"`` | ``"version"``)."""
        return self._memo.memo_mode

    @property
    def max_cache_entries(self) -> int:
        """The memo table's FIFO capacity bound."""
        return self._memo.max_entries

    @property
    def executor(self):
        """The sharded executor behind this oracle (``None`` = serial)."""
        return self._executor

    @property
    def workers(self) -> int:
        """Configured evaluation worker count (1 = serial)."""
        return self._executor.workers if self._executor is not None else 1

    def close(self) -> None:
        """Release the worker pool if this oracle owns one (idempotent),
        and this oracle's published weight segment either way."""
        if self._weights_finalizer is not None:
            self._weights_finalizer()
        if self._owns_executor and self._executor is not None:
            self._executor.close()

    def _arm_weights_finalizer(self) -> None:
        """(Re-)register the weight-segment release hook.

        Releases this oracle's published weight segment when the oracle
        is closed or collected, so a shared long-lived executor never
        accumulates one O(V) segment per short-lived oracle.  Re-armed
        before every parallel publication because ``weakref.finalize`` is
        one-shot: an oracle used again after :meth:`close` republishes,
        and that republication must stay collectable too.  The finalizer
        holds only a weak executor reference — it must neither keep the
        pool alive nor resurrect this oracle.
        """
        finalizer = self._weights_finalizer
        if finalizer is not None and finalizer.alive:
            return
        self._weights_finalizer = weakref.finalize(
            self,
            _release_published_weights,
            weakref.ref(self._executor),
            self._weights_key,
        )

    def health_report(self) -> Optional[dict]:
        """The sharded executor's degradation/health snapshot.

        ``None`` for a serial oracle; otherwise the executor's
        :meth:`~repro.parallel.executor.ShardedOracleExecutor.
        health_report` (state, reason, restart budget, incidents, …).
        """
        if self._executor is None:
            return None
        return self._executor.health_report()

    # ------------------------------------------------------------------
    def spread(
        self, nodes: Iterable[Node], min_expiry: Optional[float] = None
    ) -> Union[int, float]:
        """Return ``f_t(S)`` under this oracle's semantics.

        For the default ``"count"`` fold this is the distinct-node count
        ``|R(S)|`` (an int, exactly as before the fold seam existed);
        other semantics score the same reached set through their fold and
        return a float.  ``f_t(empty set) = 0`` (the function is
        normalized).  The horizon ``min_expiry`` restricts traversal to
        edges expiring at or after it.
        """
        key_nodes = frozenset(nodes)
        if not key_nodes:
            return 0 if self._semantics_token is None else 0.0
        self._memo.sync()
        return self._spread_cached(key_nodes, min_expiry)

    def sync_dirty(self) -> Optional[DirtyCone]:
        """Sync the memo table now; returns the dirty cone when one ran.

        SIEVEADN calls this at the top of each batch so that memo eviction
        and its own changed-node derivation share a single ancestor sweep:
        when the returned cone's seeds coincide with the batch's sources,
        the closure *is* the changed-node set.  Returns ``None`` when the
        table was already in sync, was cleared wholesale, or runs under
        ``memo_mode="version"``.
        """
        return self._memo.sync(want_cone=True)

    def spread_many(
        self,
        sets: Sequence[Iterable[Node]],
        min_expiry: Optional[float] = None,
    ) -> List[Union[int, float]]:
        """Evaluate ``f_t`` for a whole batch of sets at one horizon.

        Semantically identical to ``[self.spread(s, min_expiry) for s in
        sets]`` — same values, same cache behavior, same call counting in
        the same order (under either memo mode; the table is synced once
        before the batch replays the sequential protocol).  On the CSR
        backend the cache protocol is replayed sequentially (hits,
        per-miss counting, FIFO slot reservation) but the distinct misses
        are then evaluated together through the engine's bit-plane
        multi-source sweep — one shared traversal per 64 sets instead of
        one BFS per set — which is what makes feeding a SIEVEADN candidate
        sweep through the oracle cheap.
        """
        self._memo.sync()
        zero = 0 if self._semantics_token is None else 0.0
        if self.backend == "dict":
            reference: List[Union[int, float]] = []
            for nodes in sets:
                key_nodes = frozenset(nodes)
                reference.append(
                    self._spread_cached(key_nodes, min_expiry) if key_nodes else zero
                )
            return reference
        return replay_batch_protocol(
            self._memo,
            self.counter,
            sets,
            min_expiry,
            self._evaluate_batch,
            zero,
            semantics=self._semantics_token,
        )

    def marginal_gain(
        self,
        base: Iterable[Node],
        candidate: Node,
        min_expiry: Optional[float] = None,
    ) -> Union[int, float]:
        """Return ``f_t(base + {candidate}) - f_t(base)``.

        The base spread is typically a cache hit (it is re-used across the
        whole candidate batch), so a marginal gain usually costs one oracle
        call, exactly as in the paper's accounting.
        """
        base_set = frozenset(base)
        with_candidate = base_set | {candidate}
        if len(with_candidate) == len(base_set):
            return 0 if self._semantics_token is None else 0.0
        return self.spread(with_candidate, min_expiry) - self.spread(
            base_set, min_expiry
        )

    # ------------------------------------------------------------------
    def _spread_cached(self, key_nodes: FrozenSet[Node], min_expiry: Optional[float]):
        token = self._semantics_token
        key = (
            (min_expiry, key_nodes)
            if token is None
            else (min_expiry, key_nodes, token)
        )
        hit = self._memo.get(key)
        if hit is not None and hit is not _PENDING:
            _MEMO_HITS.inc()
            return hit
        self.counter.increment()
        _MEMO_MISSES.inc()
        value = self._evaluate(key_nodes, min_expiry)
        self._memo.put(key, value)
        return value

    def _evaluate(self, key_nodes: FrozenSet[Node], min_expiry: Optional[float]):
        if self.backend == "dict":
            reached = reachable_set(self.graph, key_nodes, min_expiry)
            if self._weights is None:
                return len(reached)
            return self._weights.node_sum(reached)
        return self._evaluate_batch((key_nodes,), min_expiry, batch=False)[0]

    def _evaluate_batch(
        self,
        key_sets: Sequence[FrozenSet[Node]],
        min_expiry: Optional[float],
        batch: bool = True,
    ) -> List:
        """Evaluate distinct cache misses (CSR backend).

        A ``batch`` (from :meth:`spread_many`) goes to the sharded
        executor when there is one.  Otherwise count misses are answered
        from the memo's reach table, or with the table off from the
        bit-plane sweep (a batch) or one frontier walk (a single set);
        other folds take the fold sweep, ``weighted_sum`` through
        :meth:`_evaluate_weighted`.
        """
        graph = self.graph
        fold_token = self._semantics_token
        if fold_token is not None and self._weights is not None:
            return self._evaluate_weighted(key_sets, min_expiry, batch)
        values: List = [0] * len(key_sets)
        id_sets: List[List[int]] = []
        unknowns: List[int] = []
        pending: List[int] = []
        intern_ids = graph.intern_ids
        for j, key_nodes in enumerate(key_sets):
            ids, unknown = intern_ids(key_nodes)
            if ids:
                pending.append(j)
                id_sets.append(ids)
                unknowns.append(unknown)
            else:
                # Unknown (never-interned) seeds reach exactly themselves
                # with no alive in-edge: every shipped fold scores such a
                # node 1.0, added after the engine result as for counts.
                values[j] = unknown if fold_token is None else float(unknown)
        if not id_sets:
            return values
        executor = self._executor if batch else None
        if fold_token is not None:
            if executor is not None:
                counts = executor.fold_spread_sums(
                    graph, id_sets, min_expiry, fold=self.fold
                )
            else:
                counts = graph.csr().fold_spread_sums(id_sets, min_expiry, self.fold)
        elif executor is not None:
            counts = executor.spread_counts(graph, id_sets, min_expiry)
        elif self._memo.max_entries:
            counts = self._memo.reach_counts(id_sets, min_expiry)
        elif batch:
            counts = graph.csr().spread_counts(id_sets, min_expiry)
        else:
            counts = [graph.csr().reachable_count(id_sets[0], min_expiry)]
        for j, count, unknown in zip(pending, counts, unknowns):
            values[j] = count + unknown
        return values

    def _evaluate_weighted(
        self,
        key_sets: Sequence[FrozenSet[Node]],
        min_expiry: Optional[float],
        batch: bool,
    ) -> List[float]:
        """Evaluate distinct ``weighted_sum`` misses (CSR backend).

        Mapping weights fold the dense weight array into the bit-plane
        sweep (under ``parallel``, over the executor's published weight
        segment), 64 weighted evaluations per physical traversal.  Uniform
        weights ride the plain counted sweep (``default * count``), and a
        weight callable takes per-set reached id sets so it is only ever
        invoked in-process, for reached nodes.
        """
        weights = self._weights
        assert weights is not None
        values: List[float] = [0.0] * len(key_sets)
        id_sets: List[List[int]] = []
        pending: List[int] = []
        for j, key_nodes in enumerate(key_sets):
            ids, values[j] = weights.split_seeds(key_nodes)
            if ids:
                pending.append(j)
                id_sets.append(ids)
        if not id_sets:
            return values
        graph = self.graph
        executor = self._executor if batch else None
        sums: Sequence[float]
        if not weights.dense:
            if executor is not None:
                reached_sets = executor.reachable_ids_many(graph, id_sets, min_expiry)
            else:
                engine = graph.csr()
                reached_sets = [
                    engine.reachable_ids(ids, min_expiry) for ids in id_sets
                ]
            sums = [weights.reached_sum(reached) for reached in reached_sets]
        elif weights.uniform:
            if executor is not None:
                counts = executor.spread_counts(graph, id_sets, min_expiry)
            else:
                counts = graph.csr().spread_counts(id_sets, min_expiry)
            sums = [weights.default * count for count in counts]
        else:
            array = weights.upto(graph.num_interned)
            if executor is not None:
                self._arm_weights_finalizer()
                sums = executor.fold_spread_sums(
                    graph,
                    id_sets,
                    min_expiry,
                    fold=self.fold,
                    weights=array,
                    weights_key=self._weights_key,
                )
            else:
                sums = graph.csr().fold_spread_sums(
                    id_sets, min_expiry, self.fold, array
                )
        for j, value in zip(pending, sums):
            values[j] += value
        return values

    # ------------------------------------------------------------------
    @property
    def calls(self) -> int:
        """Total real evaluations so far."""
        return self.counter.total

    def invalidate(self) -> None:
        """Drop the memo table (tests use this to force recomputation)."""
        self._memo.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InfluenceOracle(backend={self.backend!r}, "
            f"semantics={self.semantics!r}, "
            f"memo_mode={self.memo_mode!r}, "
            f"calls={self.counter.total}, cached={len(self._memo)})"
        )
