"""Content-based units: the ItemInfo statistics unit and the CB bolt.

``ItemInfo`` in Figure 6 is an algorithm-common unit holding item
content; :class:`ItemInfoBolt` ingests item-metadata events into TDStore
(metadata record plus a tag inverted index). :class:`CBProfileBolt`,
grouped by user, maintains the decayed tag-interest profiles the
recommender engine scores against.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.algorithms.ratings import ActionWeights, DEFAULT_ACTION_WEIGHTS
from repro.storm.component import Bolt
from repro.storm.reliability import ExactlyOnceBolt
from repro.storm.tuples import StormTuple
from repro.tdstore.client import TDStoreClient
from repro.topology.state import CachedStore, Reads, StateKeys, StoreBacked

ClientFactory = Callable[[], TDStoreClient]


def item_tags(meta: dict) -> tuple[str, ...]:
    """The taggable content of an item-metadata record."""
    tags = tuple(meta.get("tags", ()))
    category = meta.get("category")
    if category is not None:
        tags = tags + (f"category:{category}",)
    return tags


class ItemInfoBolt(StoreBacked, Bolt):
    """Grouped by item: stores item metadata and maintains the tag index.

    Input stream ``item_meta`` with a ``meta`` dict field carrying at
    least ``item`` plus ``tags``/``category``/``publish_time``/
    ``lifetime``/``price``.
    """

    def __init__(self, client_factory: ClientFactory):
        self._client_factory = client_factory
        self.registered = 0

    def prepare(self, context, collector):
        super().prepare(context, collector)
        self._store = CachedStore(self._client_factory())

    def reads(self, tup: StormTuple) -> Reads:
        # shared across item tasks: read fresh (tag fan-in is low, and
        # last-writer-wins suits an index that only ever grows)
        return Reads(fresh=tuple(
            StateKeys.tag_index(tag) for tag in item_tags(tup["meta"])
        ))

    def execute(self, tup: StormTuple):
        meta = tup["meta"]
        item = meta["item"]
        self._store.put(StateKeys.item_meta(item), dict(meta))
        for tag in item_tags(meta):
            # a new set: the one read may be the store's own
            index = set(self._store.get_fresh(StateKeys.tag_index(tag), None) or ())
            index.add(item)
            self._store.put(StateKeys.tag_index(tag), index)
        self.registered += 1


class CBProfileBolt(StoreBacked, ExactlyOnceBolt):
    """Grouped by user: decayed tag-interest profiles (the CBBolt).

    ``decayed + gain`` is a read-modify-write, so it follows the same
    commit protocol as :class:`UserHistoryBolt`: probe the profile key's
    journal (``op_seen``), fold into a copy, write the idempotent
    consumed set, and commit the profile last with ``put_once``.
    """

    def __init__(
        self,
        client_factory: ClientFactory,
        weights: ActionWeights = DEFAULT_ACTION_WEIGHTS,
        half_life: float = 4 * 3600.0,
    ):
        super().__init__()
        self._client_factory = client_factory
        self._weights = weights
        self._half_life = half_life

    def prepare(self, context, collector):
        super().prepare(context, collector)
        self._store = CachedStore(self._client_factory())

    def reads(self, tup: StormTuple) -> Reads:
        profile_key = StateKeys.profile(tup["user"])
        # item records are owned by ItemInfoBolt tasks: read fresh
        return Reads(probes=((profile_key, tup.op_id),),
                     owned=(profile_key, StateKeys.consumed(tup["user"])),
                     fresh=(StateKeys.item_meta(tup["item"]),))

    def process(self, tup: StormTuple):
        user, item = tup["user"], tup["item"]
        now = tup["timestamp"]
        profile_key = StateKeys.profile(user)
        if self._store.op_seen(profile_key, tup.op_id):
            return
        meta = self._store.get_fresh(StateKeys.item_meta(item), None)
        if meta is None:
            return  # unknown content: nothing to learn
        gain = self._weights.weight(tup["action"])
        # fold into a copy so a failed commit leaves the cache clean
        profile = dict(self._store.get(profile_key, None) or {})
        for tag in item_tags(meta):
            weight, since = profile.get(tag, (0.0, now))
            decayed = weight * math.pow(
                0.5, max(0.0, now - since) / self._half_life
            )
            profile[tag] = (decayed + gain, now)
        # set insertion: idempotent under re-execution
        consumed = set(self._store.get(StateKeys.consumed(user), None) or ())
        consumed.add(item)
        self._store.put(StateKeys.consumed(user), consumed)
        self._store.put_once(profile_key, tup.op_id, profile)
