"""Demographic group counting — the target of the multi-hash hop (§5.4).

Actions are first keyed by user (UserHistoryBolt), which resolves the
user's demographic group and re-emits the rating delta keyed by group
id; this bolt, grouped by group id, is then the *only* writer of each
group's hot-item counters — the write conflict the plain design would
have is gone without any locking.
"""

from __future__ import annotations

from typing import Callable

from repro.storm.reliability import ExactlyOnceBolt
from repro.storm.tuples import StormTuple
from repro.tdstore.client import TDStoreClient
from repro.topology.state import CachedStore, Reads, StateKeys, StoreBacked


class GroupCountBolt(StoreBacked, ExactlyOnceBolt):
    """Grouped by demographic group id: windowless hot-item counters.

    ``decay`` is applied once per elapsed ``decay_interval`` of simulated
    time, geometrically forgetting old engagement — the topology-side
    stand-in for the sliding window; ``max_items`` bounds each group's
    counter map by evicting the weakest entries. The counter map is a
    read-modify-write, so each delta probes the group key's
    journal (``op_seen``), folds into a copy, and commits the new map
    atomically with the journal entry (``put_once``) — a failure before
    the commit leaves no journal entry, so the replay redoes the whole
    fold instead of losing the delta. A wave's deltas on one group reach
    the store as one write — a ``put_once`` run of their op ids and the
    last map (:func:`~repro.topology.state.fold_runs`) — rather than a
    full map per delta.
    """

    def __init__(
        self,
        client_factory: Callable[[], TDStoreClient],
        decay: float = 0.5,
        decay_interval: float = 1800.0,
        max_items: int = 200,
    ):
        super().__init__()
        self._client_factory = client_factory
        self._decay = decay
        self._decay_interval = decay_interval
        self._max_items = max_items
        self._groups_seen: set[str] = set()
        self._last_decay: float | None = None

    def prepare(self, context, collector):
        super().prepare(context, collector)
        self._store = CachedStore(self._client_factory())

    def reads(self, tup: StormTuple) -> Reads:
        key = StateKeys.hot(tup["group"])
        return Reads(probes=((key, tup.op_id),), owned=(key,))

    def process(self, tup: StormTuple):
        group, item, delta = tup["group"], tup["item"], tup["delta"]
        key = StateKeys.hot(group)
        op_id = tup.op_id
        if self._store.op_seen(key, op_id):
            self._groups_seen.add(group)
            return
        # fold into a copy so a failed commit leaves the cache clean
        hot = dict(self._store.get(key, None) or {})
        hot[item] = hot.get(item, 0.0) + delta
        if len(hot) > self._max_items:
            ranked = sorted(hot.items(), key=lambda kv: (-kv[1], kv[0]))
            hot = dict(ranked[: self._max_items])
        self._store.put_once(key, op_id, hot)
        self._groups_seen.add(group)

    def tick(self, now: float):
        if self._last_decay is None:
            self._last_decay = now
            return
        rounds = int((now - self._last_decay) // self._decay_interval)
        if rounds <= 0:
            return
        self._last_decay += rounds * self._decay_interval
        factor = self._decay**rounds
        # sorted: a set's order changes with the process's hash seed, and
        # the store should see the same write sequence on every run
        for group in sorted(self._groups_seen):
            key = StateKeys.hot(group)
            hot = self._store.get(key, None)
            if not hot:
                continue
            decayed = {
                item: value * factor
                for item, value in hot.items()
                if value * factor > 1e-6
            }
            self._store.put(key, decayed)
