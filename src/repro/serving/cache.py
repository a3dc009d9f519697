"""Tiered serving caches with TTL plus stream-driven invalidation.

:class:`ResultCache` holds finished top-N answers keyed by
``(algorithm, user, n)``. Each entry carries the *tags* — ``(kind,
key)`` pairs naming the state it was computed from (the user's own
history, the sim lists of their recent items, the hot groups that fed
the complement) — and an inverted index maps tags to entries, so one
stream notification stales exactly the answers it changed.

Invalidation does not delete: it marks the entry stale. A stale entry
never serves as fresh, but the degradation ladder's ``cache`` rung may
still serve it when the live rung is down — stale-but-present beats
falling to demographics, and it is the same "last known good" contract
as :class:`~repro.engine.degraded.ServeThroughRecovery`.

The index holds only what an invalidation can still change: ``(tag,
key)`` is indexed iff the entry is present, not stale and carries the
tag. Every operation therefore costs the tags of the entries it touches,
never the size of the index.

:class:`HotListCache` is the hot-item tier: per-group hot lists reused
across the whole batch (they are the most shared read in the CF
complement), invalidated by ``group`` notifications.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable

from repro.errors import ConfigurationError

Now = Callable[[], float]


@dataclass
class CacheEntry:
    """One cached answer plus the freshness state machine around it."""

    results: list
    stored_at: float
    fresh_until: float
    tags: tuple[tuple[str, str], ...] = ()
    stale: bool = field(default=False)

    def is_fresh(self, now: float) -> bool:
        return not self.stale and now < self.fresh_until


class ResultCache:
    """LRU result cache: TTL freshness, stream invalidation, stale tier."""

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
        self.stale_hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        self.fills = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable, allow_stale: bool = False) -> "list | None":
        """Fresh answer for ``key``, or — with ``allow_stale`` — whatever
        is still present (the ladder's cache rung). None on a miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if entry.is_fresh(self._now()):
            self.hits += 1
            self._entries.move_to_end(key)
            return list(entry.results)
        if allow_stale:
            self.stale_hits += 1
            self._entries.move_to_end(key)
            return list(entry.results)
        self.misses += 1
        return None

    def put(
        self,
        key: Hashable,
        results: list,
        tags: tuple = (),
        ttl: "float | None" = None,
    ):
        now = self._now()
        self._drop(key)
        entry = CacheEntry(
            results=list(results),
            stored_at=now,
            fresh_until=now + (ttl if ttl is not None else self._ttl),
            tags=tuple(tags),
        )
        self._entries[key] = entry
        for tag in entry.tags:
            self._by_tag.setdefault(tag, set()).add(key)
        self.fills += 1
        while len(self._entries) > self._capacity:
            evicted_key, evicted = self._entries.popitem(last=False)
            self._unindex(evicted_key, evicted.tags)
            self.evictions += 1

    def on_invalidation(self, kind: str, state_key: str):
        """Stream notification: stale every entry tagged ``(kind, key)``.

        Entries stay present for the stale tier; they stop serving as
        fresh immediately, which is what bounds staleness to one
        invalidation cycle instead of a full TTL. A staled entry leaves
        the index whole, so no later notification walks it again.
        """
        for key in self._by_tag.pop((kind, state_key), ()):
            entry = self._entries[key]
            entry.stale = True
            self.invalidations += 1
            self._unindex(key, entry.tags)

    def hit_rate(self) -> float:
        looked = self.hits + self.stale_hits + self.misses
        return self.hits / looked if looked else 0.0

    def stats(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "stale_hits": self.stale_hits,
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

    def __init__(self, clock_now: Now, ttl: float = 60.0, capacity: int = 512):
        if ttl <= 0:
            raise ConfigurationError(f"ttl must be positive: {ttl}")
        if capacity <= 0:
            raise ConfigurationError(f"capacity must be positive: {capacity}")
        self._now = clock_now
        self._ttl = ttl
        self._capacity = capacity
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
        while len(self._entries) > self._capacity:
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
