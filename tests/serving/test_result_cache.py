"""Tests for the tiered result caches and stream invalidation."""

import random
from collections import OrderedDict

import pytest

from repro.errors import ConfigurationError
from repro.serving import HotListCache, InvalidationBus, ResultCache
from repro.utils.clock import SimClock


def cache_with_clock(ttl=30.0, capacity=10):
    clock = SimClock()
    return ResultCache(clock.now, ttl=ttl, capacity=capacity), clock


class TestFreshness:
    def test_fresh_hit_within_ttl(self):
        cache, clock = cache_with_clock(ttl=10.0)
        cache.put("k", ["a"], tags=(("user", "u1"),))
        assert cache.get("k") == ["a"]
        clock.advance(9.9)
        assert cache.get("k") == ["a"]
        assert cache.stats()["hits"] == 2

    def test_expired_entry_misses_until_refilled(self):
        cache, clock = cache_with_clock(ttl=10.0)
        cache.put("k", ["a"])
        clock.advance(11.0)
        assert cache.get("k") is None
        assert cache.stats()["misses"] == 1
        cache.put("k", ["b"])
        assert cache.get("k") == ["b"]

    def test_results_are_copied_not_aliased(self):
        cache, __ = cache_with_clock()
        stored = ["a", "b"]
        cache.put("k", stored)
        got = cache.get("k")
        got.append("mutated")
        assert cache.get("k") == ["a", "b"]


class TestStreamInvalidation:
    def test_invalidation_evicts_the_tagged_entries(self):
        cache, __ = cache_with_clock()
        cache.put("q1", ["a"], tags=(("user", "u1"), ("item", "i1")))
        cache.put("q2", ["b"], tags=(("user", "u2"),))
        cache.on_invalidation("item", "i1")
        assert cache.get("q1") is None
        assert len(cache) == 1  # q1 is gone, with its other tag
        assert cache.stats()["index_tags"] == 1
        assert cache.get("q2") == ["b"]  # untouched
        assert cache.stats()["invalidations"] == 1

    def test_unknown_tag_is_a_no_op(self):
        cache, __ = cache_with_clock()
        cache.put("q1", ["a"], tags=(("user", "u1"),))
        cache.on_invalidation("item", "never-seen")
        assert cache.get("q1") == ["a"]

    def test_refill_after_invalidation_serves_fresh_again(self):
        cache, __ = cache_with_clock()
        cache.put("q1", ["old"], tags=(("user", "u1"),))
        cache.on_invalidation("user", "u1")
        cache.put("q1", ["new"], tags=(("user", "u1"),))
        assert cache.get("q1") == ["new"]
        cache.on_invalidation("user", "u1")
        assert cache.get("q1") is None

    def test_bus_delivers_to_subscribed_cache(self):
        clock = SimClock()
        cache = ResultCache(clock.now)
        bus = InvalidationBus()
        bus.subscribe(cache.on_invalidation)
        cache.put("q", ["a"], tags=(("group", "male"),))
        bus.publish("group", "male")
        assert cache.get("q") is None
        assert bus.published == 1 and bus.delivered == 1
        assert bus.by_kind == {"group": 1}


class TestEviction:
    def test_lru_eviction_at_capacity(self):
        cache, __ = cache_with_clock(capacity=2)
        cache.put("a", [1], tags=(("user", "ua"),))
        cache.put("b", [2])
        cache.get("a")  # a is now most-recent
        cache.put("c", [3])
        assert cache.get("b") is None
        assert cache.get("a") == [1]
        assert cache.stats()["evictions"] == 1

    def test_evicted_entries_leave_no_tag_residue(self):
        cache, __ = cache_with_clock(capacity=1)
        cache.put("a", [1], tags=(("user", "ua"),))
        cache.put("b", [2], tags=(("user", "ua"),))
        assert len(cache) == 1
        cache.on_invalidation("user", "ua")  # must not resurrect "a"
        assert cache.get("a") is None and len(cache) == 0
        assert cache.stats()["invalidations"] == 1  # only "b" evicted

    def test_overwrite_replaces_tags(self):
        cache, __ = cache_with_clock()
        cache.put("q", ["v1"], tags=(("item", "i1"),))
        cache.put("q", ["v2"], tags=(("item", "i2"),))
        cache.on_invalidation("item", "i1")
        assert cache.get("q") == ["v2"]
        cache.on_invalidation("item", "i2")
        assert cache.get("q") is None

    def test_invalid_configuration(self):
        clock = SimClock()
        with pytest.raises(ConfigurationError):
            ResultCache(clock.now, ttl=0)
        with pytest.raises(ConfigurationError):
            ResultCache(clock.now, capacity=0)


class UnscannableIndex(dict):
    """A ``_by_tag`` that refuses every whole-index walk."""

    def _refuse(self, *args):
        raise AssertionError("ResultCache walked the whole tag index")

    items = values = keys = __iter__ = _refuse


class CountingEntries(OrderedDict):
    """An ``_entries`` that counts the entries looked up by key."""

    looked_up = 0

    def __getitem__(self, key):
        self.looked_up += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.looked_up += 1
        return super().get(key, default)

    def pop(self, key, *default):
        self.looked_up += 1
        return super().pop(key, *default)


class TestBookkeepingCost:
    """Counts, not clocks: an operation may touch the tags of the
    entries it changes and nothing else of the index."""

    USERS = 5_000

    def filled(self):
        cache, __ = cache_with_clock(capacity=self.USERS)
        for n in range(self.USERS):
            cache.put(f"q{n}", [n], tags=self.tags_of(n))
        cache._by_tag = UnscannableIndex(cache._by_tag)
        cache._entries = CountingEntries(cache._entries)
        return cache

    @staticmethod
    def tags_of(n):
        items = [("item", f"i{(n + k) % 290}") for k in range(3)]
        return (("user", f"u{n}"), *items, ("group", "global"))

    def test_refill_eviction_and_invalidation_never_scan_the_index(self):
        cache = self.filled()
        cache.put("q7", ["again"], tags=self.tags_of(7))  # refill
        cache.put("new", ["x"], tags=self.tags_of(self.USERS))  # evicts q0
        assert cache.stats()["evictions"] == 1
        assert "q0" not in cache._entries
        cache.on_invalidation("user", "u7")
        assert "q7" not in cache._entries
        assert cache.stats()["invalidations"] == 1
        assert ("user", "u0") not in cache._by_tag
        assert ("user", "u7") not in cache._by_tag

    def test_republishing_a_hot_tag_visits_no_entry(self):
        cache = self.filled()
        cache.on_invalidation("group", "global")
        assert cache.stats()["invalidations"] == self.USERS
        assert cache._entries.looked_up == self.USERS
        assert len(cache) == 0 and cache.stats()["index_tags"] == 0
        cache.on_invalidation("group", "global")
        cache.on_invalidation("item", "i3")
        assert cache._entries.looked_up == self.USERS
        assert cache.stats()["invalidations"] == self.USERS


class TestIndexIsBounded:
    def test_soak_keeps_entries_and_index_within_capacity(self):
        """ROADMAP 5(d): the serving benchmark's shape (Zipf-ish users,
        3 % stream churn) run long against a cache far smaller than the
        audience — neither the entries nor the index may outgrow what
        the present, still-fresh answers account for."""
        rng = random.Random(2015)
        capacity = 200
        cache, clock = cache_with_clock(ttl=30.0, capacity=capacity)
        users = [f"u{n}" for n in range(300)]
        weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(users))]
        items = [f"i{n}" for n in range(50)]

        def indexed():
            return sum(len(keys) for keys in cache._by_tag.values())

        def accounted():
            return sum(len(entry.tags) for entry in cache._entries.values())

        for op, user in enumerate(rng.choices(users, weights, k=20_000)):
            if rng.random() < 0.03:
                cache.on_invalidation("user", user)
            if rng.random() < 0.01:
                cache.on_invalidation("item", rng.choice(items))
            key = ("cf", user, 10)
            if cache.get(key) is None:
                deps = [("item", item) for item in rng.sample(items, 3)]
                cache.put(key, [op], (("user", user), *deps, ("group", "g")))
            clock.advance(0.01)
            if op % 50 == 0:
                assert len(cache) <= capacity
                assert indexed() <= accounted() <= 5 * capacity
                assert cache.stats()["index_tags"] <= 1 + len(items) + capacity
        assert cache.stats()["evictions"] > 0 and cache.stats()["invalidations"] > 0

        for user in users[:150]:
            cache.on_invalidation("user", user)  # evict one half ...
        for n in range(capacity):
            cache.put(("filler", n), [n])  # ... evict everything tagged
        assert len(cache) == capacity
        assert cache.stats()["index_tags"] == 0 and indexed() == 0


class TestHotListCache:
    def test_ttl_and_group_invalidation(self):
        clock = SimClock()
        cache = HotListCache(clock.now, ttl=5.0)
        cache.put("male", {"i1": 2.0})
        assert cache.get("male") == {"i1": 2.0}
        cache.on_invalidation("group", "male")
        assert cache.get("male") is None
        cache.put("male", {"i1": 3.0})
        clock.advance(6.0)
        assert cache.get("male") is None  # TTL backstop

    def test_non_group_kinds_ignored(self):
        clock = SimClock()
        cache = HotListCache(clock.now)
        cache.put("male", {"i1": 2.0})
        cache.on_invalidation("item", "male")
        assert cache.get("male") == {"i1": 2.0}
