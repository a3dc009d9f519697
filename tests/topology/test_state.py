"""Tests for the cache (§5.2) and combiner (§5.3) state helpers."""

import pytest

from repro.errors import ConfigurationError
from repro.storm.component import Bolt
from repro.storm.tuples import StormTuple
from repro.topology.state import CachedStore, Combiner, StateKeys, StoreBacked

from tests.topology.helpers import Task


class TestStateKeys:
    def test_pair_keys_canonical(self):
        assert StateKeys.pair_count("b", "a") == StateKeys.pair_count("a", "b")
        assert StateKeys.ar_pair("z", "a") == StateKeys.ar_pair("a", "z")

    def test_namespaces_disjoint(self):
        keys = {
            StateKeys.history("x"),
            StateKeys.recent("x"),
            StateKeys.item_count("x"),
            StateKeys.sim_list("x"),
            StateKeys.threshold("x"),
            StateKeys.pruned("x"),
            StateKeys.hot("x"),
            StateKeys.profile("x"),
            StateKeys.item_meta("x"),
        }
        assert len(keys) == 9


class TestCachedStore(object):
    def test_read_through_caches(self, client_factory):
        store = CachedStore(client_factory())
        store.client.put("k", 1)
        assert store.get("k") == 1
        assert store.get("k") == 1
        assert store.hits == 1
        assert store.misses == 1

    def test_write_through_visible_to_other_clients(self, client_factory):
        store = CachedStore(client_factory())
        store.put("k", 42)
        other = client_factory()
        assert store.get("k") == 42  # the writer reads its own write
        assert other.get("k") is None  # buffered until the slice commits
        store.flush()
        assert other.get("k") == 42

    def test_cached_reads_do_not_hit_tdstore(self, tdstore):
        store = CachedStore(tdstore.client())
        store.put("k", 1)
        before = sum(tdstore.read_stats().values())
        for __ in range(100):
            store.get("k")
        assert sum(tdstore.read_stats().values()) == before

    def test_get_fresh_bypasses_cache(self, client_factory):
        store = CachedStore(client_factory())
        assert store.get("k", 0) == 0  # caches the default
        client_factory().put("k", 99)  # another task writes
        assert store.get("k", 0) == 0  # stale cache, by design
        assert store.get_fresh("k", 0) == 99

    def test_incr(self, client_factory):
        store = CachedStore(client_factory())
        assert store.incr("n", 2.0) == 2.0
        assert store.incr("n", 0.5) == 2.5

    def test_invalidate(self, client_factory):
        store = CachedStore(client_factory())
        store.put("k", 1)
        store.flush()
        client_factory().put("k", 2)
        store.invalidate("k")
        assert store.get("k") == 2


class CountBolt(Bolt):
    """Owns a CachedStore the way the topology bolts do."""

    def __init__(self, client_factory):
        self._client_factory = client_factory

    def prepare(self, context, collector):
        super().prepare(context, collector)
        self._store = CachedStore(self._client_factory())

    def execute(self, tup):
        self._store.incr("n", tup["delta"])


class FlushedCountBolt(StoreBacked, CountBolt):
    pass


class TestStoreBacked:
    TUP = StormTuple((1.0,), ("delta",), "default", "src", 0)

    def test_slice_commit_ships_the_buffer(self, client_factory):
        Task(lambda: FlushedCountBolt(client_factory)).deliver(self.TUP)
        assert client_factory().get("n") == 1.0

    def test_a_store_owner_without_the_mixin_is_refused(self, client_factory):
        # the inherited no-op flush would leave every write in the buffer
        with pytest.raises(ConfigurationError, match="StoreBacked"):
            Task(lambda: CountBolt(client_factory)).deliver(self.TUP)

    def test_a_stateless_bolt_needs_no_mixin(self):
        Bolt().flush()


class TestCombiner:
    def test_merges_same_key(self, client_factory):
        store = CachedStore(client_factory())
        combiner = Combiner(store, "add")
        for __ in range(100):
            combiner.add("itemCount:hot-news", 1.0)
        assert combiner.pending() == 1
        assert combiner.merged == 99
        assert combiner.peek("itemCount:hot-news") == 100.0

    def test_flush_applies_merged_value_once(self, tdstore):
        store = CachedStore(tdstore.client())
        combiner = Combiner(store, "add")
        for __ in range(100):
            combiner.add("k", 1.0)
        writes_before = sum(tdstore.write_stats().values())
        combiner.flush()
        writes_after = sum(tdstore.write_stats().values())
        assert store.get("k") == 100.0
        # one read-modify-write instead of 100
        assert writes_after - writes_before <= 2
        assert combiner.pending() == 0

    def test_flush_accumulates_over_existing_value(self, client_factory):
        store = CachedStore(client_factory())
        store.put("k", 5.0)
        combiner = Combiner(store, "add")
        combiner.add("k", 3.0)
        combiner.flush()
        assert store.get("k") == 8.0

    def test_max_combine(self, client_factory):
        store = CachedStore(client_factory())
        combiner = Combiner(store, "max")
        combiner.add("r", 2.0)
        combiner.add("r", 5.0)
        combiner.add("r", 1.0)
        combiner.flush()
        assert store.get("r") == 5.0

    def test_unknown_op_rejected(self, client_factory):
        with pytest.raises(ConfigurationError):
            Combiner(CachedStore(client_factory()), "xor")

    def test_combiner_saves_more_under_skew(self, client_factory):
        """§5.3: 'in a temporal burst situation, the combiner's efficacy
        will be even improved' — skewed keys merge more."""
        store = CachedStore(client_factory())
        skewed = Combiner(store, "add")
        for i in range(100):
            skewed.add("hot", 1.0)  # all one key
        uniform = Combiner(store, "add")
        for i in range(100):
            uniform.add(f"cold-{i}", 1.0)
        assert skewed.merged > uniform.merged
        assert skewed.pending() < uniform.pending()
