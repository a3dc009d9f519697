"""The multi-layer item-based CF bolts (Figure 4 + Figure 6).

Layer 1 — :class:`UserHistoryBolt`, grouped by user id: keeps each user's
behaviour history, turns actions into rating and co-rating deltas.

Layer 2 — :class:`ItemCountBolt` (grouped by item) and
:class:`PairCountBolt` (grouped by item pair): incrementally maintain
itemCount and pairCount (Eq 6–8); the pair bolt recomputes the pair's
similarity (Eq 5) and runs the Hoeffding pruning check (Algorithm 1).

Layer 3 — :class:`SimListBolt`, grouped by item: owns each item's
similar-items list, its entry threshold, and its pruned-partner set, so
every piece of state has exactly one writing task.
"""

from __future__ import annotations

from typing import Callable

from repro.algorithms.demographic import GLOBAL_GROUP
from repro.algorithms.itemcf.history import apply_action
from repro.algorithms.itemcf.pruning import hoeffding_epsilon
from repro.algorithms.itemcf.similarity import SimilarItemsList
from repro.algorithms.ratings import ActionWeights, DEFAULT_ACTION_WEIGHTS
from repro.storm.reliability import ExactlyOnceBolt
from repro.storm.tuples import StormTuple
from repro.tdstore.client import TDStoreClient
from repro.topology.state import (
    CachedStore,
    Combiner,
    Reads,
    StateKeys,
    StoreBacked,
)
from repro.types import UserProfile
from repro.utils.clock import SECONDS_PER_HOUR

ClientFactory = Callable[[], TDStoreClient]
ProfileLookup = Callable[[str], "UserProfile | None"]


class UserHistoryBolt(StoreBacked, ExactlyOnceBolt):
    """Grouped by user: histories, rating deltas, recent-k, group deltas.

    Emits:

    * ``item_delta`` (item, delta) — grouped by item downstream.
    * ``pair_delta`` (pair_a, pair_b, item, delta) — grouped by the pair.
    * ``group_delta`` (group, item, delta) — the multi-hash hop of
      Section 5.4: demographic counting is re-keyed by group id here so a
      single downstream task owns each group's counters.

    The history update is a read-modify-write, not a delta, so beyond
    the dedup ledger it follows the commit protocol for RMW updates:
    probe the store journal (``op_seen``), compute the update on copies,
    emit the deltas, apply the idempotent side writes, and only then
    commit the new history atomically with the journal entry
    (``put_once``). A replay after a task kill wiped the ledger is
    skipped by the probe; a replay after a failure *mid-update* finds no
    journal entry, re-executes from the unchanged history and re-emits —
    the derived op ids dedup downstream any emission whose first
    delivery already got through.
    """

    def __init__(
        self,
        client_factory: ClientFactory,
        weights: ActionWeights = DEFAULT_ACTION_WEIGHTS,
        linked_time: float = 6 * SECONDS_PER_HOUR,
        recent_k: int = 10,
        group_of: Callable[[str], str] | None = None,
    ):
        super().__init__()
        self._client_factory = client_factory
        self._weights = weights
        self._linked_time = linked_time
        self._recent_k = recent_k
        self._group_of = group_of

    def declare_outputs(self, declarer):
        declarer.declare(("item", "delta"), "item_delta")
        declarer.declare(("pair_a", "pair_b", "item", "delta"), "pair_delta")
        declarer.declare(("group", "item", "delta"), "group_delta")

    def prepare(self, context, collector):
        super().prepare(context, collector)
        self._store = CachedStore(self._client_factory())

    def reads(self, tup: StormTuple) -> Reads:
        hist_key = StateKeys.history(tup["user"])
        return Reads(
            probes=((hist_key, tup.op_id),),
            owned=(hist_key, StateKeys.recent(tup["user"])),
            fresh=(StateKeys.pruned(tup["item"]),),
        )

    def process(self, tup: StormTuple):
        user, item = tup["user"], tup["item"]
        hist_key = StateKeys.history(user)
        op_id = tup.op_id
        if self._store.op_seen(hist_key, op_id):
            return
        now = tup["timestamp"]
        weight = self._weights.weight(tup["action"])
        # work on a copy: the cached history must stay at the committed
        # state until put_once lands, so a failure below leaves nothing
        # half-applied for the replay to read
        history = dict(self._store.get(hist_key, None) or {})
        # pruned sets are owned by SimListBolt tasks: read fresh (§5.2)
        pruned = self._store.get_fresh(StateKeys.pruned(item), None) or set()
        update = apply_action(
            history, item, weight, now, self._linked_time, pruned
        )
        # emissions precede the commit: a replay after a partial failure
        # recomputes the same deltas from the unchanged history, and the
        # derived op ids dedup whatever already reached downstream
        if update.rating_increased:
            self.collector.emit(
                (item, update.item_delta), stream_id="item_delta"
            )
            for other, delta in update.pair_deltas:
                first, second = (item, other) if item < other else (other, item)
                self.collector.emit(
                    (first, second, item, delta), stream_id="pair_delta"
                )
            if self._group_of is not None:
                group = self._group_of(user)
                # sorted: emission order fixes the derived op ids, and a
                # set's order changes with the process's hash seed
                for target in sorted({group, GLOBAL_GROUP}):
                    self.collector.emit(
                        (target, item, update.item_delta),
                        stream_id="group_delta",
                    )
        # idempotent under re-execution (same inputs, same result)
        self._update_recent(user, item, update.new_rating, now)
        self._store.put_once(hist_key, op_id, history)

    def _update_recent(self, user: str, item: str, rating: float, now: float):
        recent = self._store.get(StateKeys.recent(user), None) or []
        recent = [entry for entry in recent if entry[0] != item]
        recent.insert(0, (item, rating, now))
        del recent[self._recent_k :]
        self._store.put(StateKeys.recent(user), recent)


class ItemCountBolt(StoreBacked, ExactlyOnceBolt):
    """Grouped by item: maintains itemCount (Eq 6) in TDStore.

    Without ``use_combiner`` each delta is journaled under its own op
    id (:meth:`CachedStore.apply`), so it is idempotent under replay
    even when the dedup ledger did not survive a task kill; a wave's
    deltas on one item still reach the store as one write, an
    ``apply_op`` run (:func:`~repro.topology.state.fold_runs`). With
    ``use_combiner`` the deltas buffer in a combiner map and flush on
    tick — the Section 5.3 optimization carried across waves, one plain
    write per item per interval; buffered deltas rely on the ledger
    alone — a delta enters the buffer exactly once, and the buffer
    itself is checkpointed.
    """

    def __init__(self, client_factory: ClientFactory, use_combiner: bool = False):
        super().__init__()
        self._client_factory = client_factory
        self._use_combiner = use_combiner

    def prepare(self, context, collector):
        super().prepare(context, collector)
        self._store = CachedStore(self._client_factory())
        self._combiner = Combiner(self._store) if self._use_combiner else None

    def reads(self, tup: StormTuple) -> "Reads | None":
        if self._combiner is not None:
            return None
        key = StateKeys.item_count(tup["item"])
        return Reads(probes=((key, tup.op_id),), owned=(key,))

    def process(self, tup: StormTuple):
        key = StateKeys.item_count(tup["item"])
        if self._combiner is not None:
            self._combiner.add(key, tup["delta"])
        else:
            self._store.apply(key, tup.op_id, tup["delta"])

    def tick(self, now: float):
        if self._combiner is not None:
            self._combiner.flush()

    @property
    def combiner(self) -> Combiner | None:
        return self._combiner

    def snapshot_app_state(self) -> dict | None:
        if self._combiner is None:
            return None  # write-through: everything already in TDStore
        return {"combiner": self._combiner.snapshot_buffer()}

    def restore_app_state(self, state: dict):
        if self._combiner is not None:
            self._combiner.restore_buffer(state["combiner"])


class PairCountBolt(StoreBacked, ExactlyOnceBolt):
    """Grouped by (pair_a, pair_b): pairCount, similarity, pruning check.

    Emits ``sim_update`` (item, other, similarity) once per direction so
    the per-item SimListBolt tasks can refresh their lists, and ``prune``
    (item, other) when Algorithm 1's bound fires.
    """

    def __init__(
        self,
        client_factory: ClientFactory,
        pruning_delta: float | None = None,
    ):
        super().__init__()
        self._client_factory = client_factory
        self._pruning_delta = pruning_delta
        self.pair_updates = 0
        self.prunes = 0

    def declare_outputs(self, declarer):
        declarer.declare(("item", "other", "similarity"), "sim_update")
        declarer.declare(("item", "other"), "prune")

    def prepare(self, context, collector):
        super().prepare(context, collector)
        self._store = CachedStore(self._client_factory())
        self._observations: dict[tuple[str, str], int] = {}

    def snapshot_app_state(self) -> dict | None:
        # the Hoeffding observation counters (Algorithm 1's n) live only
        # in this task's memory; losing them resets pruning confidence
        return {"observations": dict(self._observations)}

    def restore_app_state(self, state: dict):
        self._observations = dict(state["observations"])

    def reads(self, tup: StormTuple) -> Reads:
        a, b = tup["pair_a"], tup["pair_b"]
        key = StateKeys.pair_count(a, b)
        fresh = (StateKeys.item_count(a), StateKeys.item_count(b))
        if self._pruning_delta is not None:
            fresh += (StateKeys.threshold(a), StateKeys.threshold(b))
        return Reads(probes=((key, tup.op_id),), owned=(key,), fresh=fresh)

    def process(self, tup: StormTuple):
        a, b, delta = tup["pair_a"], tup["pair_b"], tup["delta"]
        key = StateKeys.pair_count(a, b)
        if delta != 0.0:
            pair_count, __ = self._store.apply(key, tup.op_id, delta)
        else:
            pair_count = self._store.get(key, 0.0)
        similarity = self._similarity(a, b, pair_count)
        self.pair_updates += 1
        self.collector.emit((a, b, similarity), stream_id="sim_update")
        self.collector.emit((b, a, similarity), stream_id="sim_update")
        if self._pruning_delta is not None:
            self._maybe_prune(a, b, similarity)

    def _similarity(self, a: str, b: str, pair_count: float) -> float:
        """Equation 5 from the live counts (itemCounts owned elsewhere)."""
        if pair_count <= 0.0:
            return 0.0
        count_a = self._store.get_fresh(StateKeys.item_count(a), 0.0)
        count_b = self._store.get_fresh(StateKeys.item_count(b), 0.0)
        denominator = (count_a**0.5) * (count_b**0.5)
        if denominator <= 0.0:
            return 0.0
        return pair_count / denominator

    def _maybe_prune(self, a: str, b: str, similarity: float):
        pair = (a, b)
        n = self._observations.get(pair, 0) + 1
        self._observations[pair] = n
        threshold_a = self._store.get_fresh(StateKeys.threshold(a), 0.0)
        threshold_b = self._store.get_fresh(StateKeys.threshold(b), 0.0)
        t = min(threshold_a, threshold_b)
        if t <= 0.0:
            return
        eps = hoeffding_epsilon(n, self._pruning_delta)
        if eps < t - similarity:
            self.prunes += 1
            self._observations.pop(pair, None)
            self.collector.emit((a, b), stream_id="prune")
            self.collector.emit((b, a), stream_id="prune")


class SimListBolt(StoreBacked, ExactlyOnceBolt):
    """Grouped by item: owns simlist, threshold, and pruned set per item.

    Subscribes to both ``sim_update`` and ``prune`` streams (keyed by the
    ``item`` field in each, so one task owns all state for an item).

    Each update probes the item's list journal (``op_seen``),
    rebuilds the list from the stored payload, writes the derived state
    (threshold, pruned set — idempotent, re-executable), and commits the
    new list payload together with the journal entry (``put_once``) as
    the final step. The journal replicates with the value, so a replayed
    ``sim_update`` is a no-op even after the in-memory ledger died with
    its task — and a failure mid-update leaves no journal entry, so the
    replay re-runs the whole update instead of losing it.
    """

    def __init__(self, client_factory: ClientFactory, k: int = 20):
        super().__init__()
        self._client_factory = client_factory
        self._k = k

    def prepare(self, context, collector):
        super().prepare(context, collector)
        self._store = CachedStore(self._client_factory())

    def _load_list(self, item: str) -> SimilarItemsList:
        stored = self._store.get(StateKeys.sim_list(item), None)
        lst = SimilarItemsList(self._k)
        if stored:
            for other, sim in stored.items():
                lst.update(other, sim)
        return lst

    def _save_list(self, item: str, lst: SimilarItemsList, op_id: str):
        key = StateKeys.sim_list(item)
        payload = dict(lst.top())
        # derived state first: if the commit below never lands, the
        # replay recomputes and rewrites the same threshold
        self._store.put(StateKeys.threshold(item), lst.threshold())
        self._store.put_once(key, op_id, payload)

    def reads(self, tup: StormTuple) -> Reads:
        key = StateKeys.sim_list(tup["item"])
        owned = (key,)
        if tup.stream_id == "prune":
            owned += (StateKeys.pruned(tup["item"]),)
        return Reads(probes=((key, tup.op_id),), owned=owned)

    def process(self, tup: StormTuple):
        item, other = tup["item"], tup["other"]
        if self._store.op_seen(StateKeys.sim_list(item), tup.op_id):
            return
        if tup.stream_id == "sim_update":
            lst = self._load_list(item)
            lst.update(other, tup["similarity"])
            self._save_list(item, lst, tup.op_id)
        elif tup.stream_id == "prune":
            # copy before mutating: the cached set must stay clean if a
            # write below fails and the update re-executes
            pruned = set(self._store.get(StateKeys.pruned(item), None) or ())
            pruned.add(other)
            self._store.put(StateKeys.pruned(item), pruned)
            lst = self._load_list(item)
            lst.remove(other)
            self._save_list(item, lst, tup.op_id)
