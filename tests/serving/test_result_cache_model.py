"""Differential model test of ``ResultCache`` bookkeeping.

The oracle is the cache as it stood before its index became
O(entry) — every ``put``, eviction and invalidation scans every tag set
— restated to evict on invalidation. Hypothesis drives both through the
same schedule of fills (tag subsets from small pools, re-puts of
present keys), lookups, invalidations of known and unknown tags (the
same tag twice included) and clock advances past the TTL, at a capacity
small enough that evictions happen. After every step the two must have
returned the same values and report the same ``stats()``, and the real
cache's index must hold exactly the ``(tag, key)`` pairs of the present
entries.
"""

from collections import OrderedDict
from typing import Hashable

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import ConfigurationError
from repro.serving import ResultCache
from repro.serving.cache import CacheEntry, Now
from repro.utils.clock import SimClock


class ScanningResultCache:
    """The scanning ``ResultCache``, evicting on invalidation: the
    reference."""

    def __init__(
        self,
        clock_now: Now,
        ttl: float = 30.0,
        capacity: int = 10_000,
    ):
        if ttl <= 0:
            raise ConfigurationError(f"ttl must be positive: {ttl}")
        if capacity <= 0:
            raise ConfigurationError(f"capacity must be positive: {capacity}")
        self._now = clock_now
        self._ttl = ttl
        self._capacity = capacity
        self._entries: OrderedDict[Hashable, CacheEntry] = OrderedDict()
        self._by_tag: dict[tuple[str, str], set[Hashable]] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        self.fills = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> "list | None":
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if self._now() < entry.fresh_until:
            self.hits += 1
            self._entries.move_to_end(key)
            return list(entry.results)
        self.misses += 1
        return None

    def put(self, key: Hashable, results: list, tags: tuple = ()):
        self._drop(key)
        entry = CacheEntry(
            results=list(results),
            fresh_until=self._now() + self._ttl,
            tags=tuple(tags),
        )
        self._entries[key] = entry
        self._entries.move_to_end(key)
        for tag in entry.tags:
            self._by_tag.setdefault(tag, set()).add(key)
        self.fills += 1
        while len(self._entries) > self._capacity:
            evicted_key, __ = self._entries.popitem(last=False)
            self._unindex(evicted_key)
            self.evictions += 1

    def on_invalidation(self, kind: str, state_key: str):
        for key in list(self._by_tag.get((kind, state_key), ())):
            if key in self._entries:
                self._drop(key)
                self.invalidations += 1

    def hit_rate(self) -> float:
        looked = self.hits + self.misses
        return self.hits / looked if looked else 0.0

    def stats(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "entries": len(self._entries),
            "hit_rate": round(self.hit_rate(), 4),
        }

    def _drop(self, key: Hashable):
        if key in self._entries:
            self._entries.pop(key)
            self._unindex(key)

    def _unindex(self, key: Hashable):
        empty = []
        for tag, keys in self._by_tag.items():
            keys.discard(key)
            if not keys:
                empty.append(tag)
        for tag in empty:
            self._by_tag.pop(tag)


KEYS = [("cf", f"u{n}", 10) for n in range(6)]
TAGS = (
    [("user", f"u{n}") for n in range(3)]
    + [("item", f"i{n}") for n in range(4)]
    + [("group", g) for g in ("global", "male")]
)
CAPACITY = 4


def indexed_pairs(cache):
    return {(tag, key) for tag, keys in cache._by_tag.items() for key in keys}


def present_pairs(cache):
    """What the index must hold: the tags of the present entries."""
    return {
        (tag, key) for key, entry in cache._entries.items() for tag in entry.tags
    }


class ResultCacheMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.clock = SimClock()
        self.cache = ResultCache(self.clock.now, ttl=10.0, capacity=CAPACITY)
        self.oracle = ScanningResultCache(
            self.clock.now, ttl=10.0, capacity=CAPACITY
        )
        self.serial = 0

    @rule(
        key=st.sampled_from(KEYS),
        tags=st.lists(st.sampled_from(TAGS), max_size=4).map(tuple),
    )
    def put(self, key, tags):
        self.serial += 1
        results = [f"r{self.serial}"]
        self.cache.put(key, results, tags)
        self.oracle.put(key, results, tags)

    @rule(key=st.sampled_from(KEYS))
    def get(self, key):
        assert self.cache.get(key) == self.oracle.get(key)

    @rule(
        tag=st.sampled_from(TAGS + [("item", "never-cached")]),
        twice=st.booleans(),
    )
    def invalidate(self, tag, twice):
        for __ in range(2 if twice else 1):
            self.cache.on_invalidation(*tag)
            self.oracle.on_invalidation(*tag)

    @rule(seconds=st.floats(0.1, 8.0))
    def advance(self, seconds):
        self.clock.advance(seconds)

    @invariant()
    def same_observable_state(self):
        stats = self.cache.stats()
        assert stats.pop("index_tags") == len(self.cache._by_tag)
        assert stats == self.oracle.stats()
        assert self.cache.fills == self.oracle.fills
        assert len(self.cache) == len(self.oracle) <= CAPACITY
        # same LRU order, same freshness state per entry
        assert list(self.cache._entries.items()) == list(
            self.oracle._entries.items()
        )

    @invariant()
    def index_holds_exactly_the_present_entries_tags(self):
        assert indexed_pairs(self.cache) == present_pairs(self.cache)
        assert all(self.cache._by_tag.values()), "empty set left in _by_tag"


TestResultCacheModel = ResultCacheMachine.TestCase
TestResultCacheModel.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None
)
