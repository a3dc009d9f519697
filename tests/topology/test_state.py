"""Tests for the cache (§5.2) and combiner (§5.3) state helpers."""

import re

import pytest

from repro.errors import ConfigurationError, TDStoreError
from repro.storm.component import Bolt
from repro.storm.tuples import StormTuple
from repro.topology.state import (
    CachedStore,
    Combiner,
    Reads,
    StateKeys,
    StoreBacked,
)

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


class CountingClient:
    """A client that counts the read frames it is asked for."""

    def __init__(self, inner):
        self._inner = inner
        self.gathers = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def gather(self, keys, probes=()):
        self.gathers += 1
        return self._inner.gather(keys, probes)


class TestCachedStore:
    def test_read_through_caches(self, client_factory):
        client_factory().put("k", 1)
        client = CountingClient(client_factory())
        store = CachedStore(client)
        store.prefetch([Reads(owned=("k",))])
        assert store.get("k") == 1
        assert store.get("k") == 1
        # an owned key stays cached across slices: nothing left to gather
        store.flush()
        store.prefetch([Reads(owned=("k",))])
        assert client.gathers == 1

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
        store.prefetch([Reads(owned=("k",))])
        assert store.get("k", 0) == 0  # caches the absence
        client_factory().put("k", 99)  # another task writes
        store.flush()
        store.prefetch([Reads(owned=("k",), fresh=("k",))])
        assert store.get("k", 0) == 0  # stale cache, by design
        assert store.get_fresh("k", 0) == 99

    def test_incr(self, client_factory):
        store = CachedStore(client_factory())
        store.prefetch([Reads(owned=("n",))])
        assert store.incr("n", 2.0) == 2.0
        assert store.incr("n", 0.5) == 2.5

    def test_journaled_writes_answer_from_the_gathered_probe(
        self, client_factory
    ):
        client_factory().apply("c", "op-1", 1.0)
        store = CachedStore(client_factory())
        store.prefetch([
            Reads(probes=(("c", "op-1"), ("c", "op-2")), owned=("c",))
        ])
        assert store.apply("c", "op-1", 1.0) == (1.0, False)  # a replay
        assert store.apply("c", "op-2", 1.0) == (2.0, True)
        assert store.op_seen("c", "op-2")  # its own buffered write
        store.flush()
        assert client_factory().get("c") == 2.0

    @pytest.mark.parametrize(
        "read, named",
        [
            (lambda store: store.get("k"), "'k'"),
            (lambda store: store.get_fresh("k"), "'k'"),
            (lambda store: store.op_seen("k", "op"), "('k', 'op')"),
            (lambda store: store.apply("k", "op", 1.0), "('k', 'op')"),
            (lambda store: store.put_once("k", "op", 1), "('k', 'op')"),
            (lambda store: store.incr("k", 1.0), "'k'"),
        ],
        ids=["get", "get_fresh", "op_seen", "apply", "put_once", "incr"],
    )
    def test_an_undeclared_read_is_refused(self, client_factory, read, named):
        client = CountingClient(client_factory())
        store = CachedStore(client)
        with pytest.raises(ConfigurationError, match=re.escape(named)):
            read(store)
        # refused, not answered another way: the store asked nothing
        assert client.gathers == 0
        assert store.to_commit()[1] == []

    def test_an_undeclared_key_is_refused_beside_a_declared_probe(
        self, client_factory
    ):
        store = CachedStore(client_factory())
        store.prefetch([Reads(probes=(("k", "op"),))])
        with pytest.raises(ConfigurationError, match="'k'"):
            store.apply("k", "op", 1.0)


def buffered(store, *writes):
    """Buffer ``(method, key, op_id, payload)`` writes on a fresh slice."""
    store.prefetch([
        Reads(probes=((key, op_id),), owned=(key,))
        for method, key, op_id, __ in writes if op_id is not None
    ] + [Reads(owned=tuple(key for __, key, __, __ in writes))])
    for method, key, op_id, payload in writes:
        if method == "put":
            store.put(key, payload)
        elif method == "apply":
            store.apply(key, op_id, payload)
        else:
            store.put_once(key, op_id, payload)
    return store.to_commit()[1]


class TestCommitFold:
    """A slice of single-key journaled writes ships one write per key."""

    def test_a_key_ships_once_at_its_last_write(self, client_factory):
        writes = buffered(
            CachedStore(client_factory()),
            ("put_once", "hot:g0", "a@1", {"i1": 1.0}),
            ("apply", "itemCount:i1", "a@1>h", 1.0),
            ("put_once", "hot:g0", "a@2", {"i1": 2.0}),
            ("apply", "itemCount:i2", "a@2>h", 0.5),
            ("apply", "itemCount:i1", "a@3>h", 2.0),
        )
        assert writes == [
            ("put_once", ("hot:g0", ("a@1", "a@2"), {"i1": 2.0})),
            ("apply_op", ("itemCount:i2", "a@2>h", 0.5)),
            ("apply_op", ("itemCount:i1", ("a@1>h", "a@3>h"), (1.0, 2.0))),
        ]

    @pytest.mark.parametrize(
        "writes",
        [
            [
                ("put_once", "hot:g0", "a@1", {"i1": 1.0}),
                ("put", "recent:u1", None, ["i1"]),
                ("put_once", "hot:g0", "a@2", {"i1": 2.0}),
            ],
            [
                ("put_once", "hist:u1", "a@1", {"i1": 1.0}),
                ("put_once", "hot:g0", "a@1", {"i1": 1.0}),
                ("put_once", "hist:u1", "a@2", {"i1": 2.0}),
            ],
            [
                ("put_once", "vqcent:c1", "a@1#move", [0.5]),
                ("put_once", "vqassign:i1", "a@1", {"centroid": "c1"}),
                ("put_once", "vqcent:c1", "a@2#move", [0.25]),
            ],
        ],
        ids=["plain-put", "two-key-op-id", "suffixed-op-id"],
    )
    def test_any_other_slice_ships_its_buffer_unchanged(
        self, client_factory, writes
    ):
        shipped = buffered(CachedStore(client_factory()), *writes)
        assert shipped == [
            (
                {"apply": "apply_op"}.get(method, method),
                (key, payload) if op_id is None else (key, op_id, payload),
            )
            for method, key, op_id, payload in writes
        ]

    def test_a_folded_apply_is_checked_against_its_last_value(
        self, client_factory
    ):
        store = CachedStore(client_factory())
        store.prefetch([
            Reads(probes=(("n", "a@1"), ("n", "a@2")), owned=("n",))
        ])
        client_factory().put("n", 10.0)  # a second writer the cache missed
        store.apply("n", "a@1", 1.0)
        store.apply("n", "a@2", 2.0)
        with pytest.raises(TDStoreError, match="13.0 where its single writer "
                           "computed 3.0"):
            store.flush()


class CountBolt(Bolt):
    """Owns a CachedStore the way the topology bolts do."""

    def __init__(self, client_factory):
        self._client_factory = client_factory

    def prepare(self, context, collector):
        super().prepare(context, collector)
        self._store = CachedStore(self._client_factory())

    def execute(self, tup):
        self._store.put("n", tup["delta"])


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
        combiner = Combiner(store)
        for __ in range(100):
            combiner.add("itemCount:hot-news", 1.0)
        assert combiner.pending() == 1
        assert combiner.merged == 99
        assert combiner.snapshot_buffer() == {"itemCount:hot-news": 100.0}

    def test_flush_applies_merged_value_once(self, tdstore):
        store = CachedStore(tdstore.client())
        combiner = Combiner(store)
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
        combiner = Combiner(store)
        combiner.add("k", 3.0)
        combiner.flush()
        assert store.get("k") == 8.0

    def test_combiner_saves_more_under_skew(self, client_factory):
        """§5.3: 'in a temporal burst situation, the combiner's efficacy
        will be even improved' — skewed keys merge more."""
        store = CachedStore(client_factory())
        skewed = Combiner(store)
        for i in range(100):
            skewed.add("hot", 1.0)  # all one key
        uniform = Combiner(store)
        for i in range(100):
            uniform.add(f"cold-{i}", 1.0)
        assert skewed.merged > uniform.merged
        assert skewed.pending() < uniform.pending()
