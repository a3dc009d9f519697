"""Tiered serving caches with TTL plus stream-driven invalidation.

:class:`ResultCache` holds finished top-N answers keyed by
``(algorithm, user, n)``. Each entry carries the *tags* — ``(kind,
key)`` pairs naming the state it was computed from (the user's own
history, the sim lists of their recent items, the hot groups that fed
the complement) — and an inverted index maps tags to entries, so one
stream notification evicts exactly the answers it changed.

Invalidation evicts: the cache is a speed tier that answers fresh or
not at all (the front end keeps its own last-known-good answers for the
ladder's ``cache`` rung). The index holds exactly what an invalidation
can still change: ``(tag, key)`` is indexed iff the entry is present and
carries the tag. Every operation therefore costs the tags of the
entries it touches, never the size of the index.

:class:`HotListCache` is the hot-item tier: per-group hot lists reused
across the whole batch (they are the most shared read in the CF
complement), invalidated by ``group`` notifications.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable

from repro.errors import ConfigurationError

Now = Callable[[], float]

# groups whose hot list the hot-item tier keeps (LRU beyond it)
HOT_LIST_CAPACITY = 512


@dataclass
class CacheEntry:
    """One cached answer, its TTL and the state it was computed from."""

    results: list
    fresh_until: float
    tags: tuple[tuple[str, str], ...] = ()


class ResultCache:
    """LRU result cache: TTL freshness, evicted by stream invalidation."""

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
        """Fresh answer for ``key``; None on a miss or past its TTL."""
        entry = self._entries.get(key)
        if entry is None or self._now() >= entry.fresh_until:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return list(entry.results)

    def put(self, key: Hashable, results: list, tags: tuple = ()):
        self._drop(key)
        entry = CacheEntry(list(results), self._now() + self._ttl, tuple(tags))
        self._entries[key] = entry
        for tag in entry.tags:
            self._by_tag.setdefault(tag, set()).add(key)
        self.fills += 1
        while len(self._entries) > self._capacity:
            evicted_key, evicted = self._entries.popitem(last=False)
            self._unindex(evicted_key, evicted.tags)
            self.evictions += 1

    def on_invalidation(self, kind: str, state_key: str):
        """Stream notification: evict every entry tagged ``(kind, key)``.

        That bounds staleness to one invalidation cycle instead of a
        full TTL. The tag's key set is popped whole, so re-publishing a
        tag is one dict miss.
        """
        for key in self._by_tag.pop((kind, state_key), ()):
            self._unindex(key, self._entries.pop(key).tags)
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
            "index_tags": len(self._by_tag),
            "hit_rate": round(self.hit_rate(), 4),
        }

    def _drop(self, key: Hashable):
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._unindex(key, entry.tags)

    def _unindex(self, key: Hashable, tags: tuple):
        for tag in tags:
            keys = self._by_tag.get(tag)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._by_tag[tag]


class HotListCache:
    """Per-group hot-list tier: TTL + ``group`` stream invalidation."""

    def __init__(self, clock_now: Now, ttl: float = 60.0):
        if ttl <= 0:
            raise ConfigurationError(f"ttl must be positive: {ttl}")
        self._now = clock_now
        self._ttl = ttl
        self._entries: OrderedDict[str, tuple[float, dict]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def get(self, group: str) -> "dict | None":
        entry = self._entries.get(group)
        if entry is None or self._now() >= entry[0]:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(group)
        return entry[1]

    def put(self, group: str, hot: dict):
        self._entries[group] = (self._now() + self._ttl, dict(hot))
        self._entries.move_to_end(group)
        while len(self._entries) > HOT_LIST_CAPACITY:
            self._entries.popitem(last=False)

    def on_invalidation(self, kind: str, state_key: str):
        if kind == "group" and self._entries.pop(state_key, None) is not None:
            self.invalidations += 1

    def stats(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "entries": len(self._entries),
        }
