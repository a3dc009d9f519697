"""Serving caches under the replay/commit protocol.

The executor publishes a wave's tags to the invalidation bus only
*after* its commit returns. These tests drive the bolts through the same
mid-flush failure + replay sequences as
``tests/topology/test_replay_commit.py`` and assert the read path never
acts on torn state: no invalidation before the commit, one per tag per
committed wave — a replay included, since the executor cannot tell a
replay whose first commit lost its ack from a duplicate — and the cache
converges to the failure-free answer once the replay commits.
"""

import pytest

from repro.engine.engine import EngineConfig, RecommenderEngine
from repro.errors import DataServerDownError
from repro.serving import InvalidationBus, ServingLayer
from repro.topology.bolts_cf import SimListBolt, UserHistoryBolt
from repro.topology.bolts_db import GroupCountBolt
from repro.topology.state import StateKeys

from tests.topology.helpers import (
    EnvelopeClient,
    FlakyClient,
    Task,
    action_tuple,
    fresh_cluster,
    group_tuple,
    sim_tuple,
)


def serve_one(layer, user, n, now):
    """One query through ``serve_many``: ``(results, tier)``."""
    return layer.serve_many([(user, n)], now)[(user, n)]


def serving_over(cluster, bus):
    clock = [0.0]
    engine = RecommenderEngine(cluster.client(), EngineConfig())
    return ServingLayer(engine, lambda: clock[0], bus=bus)


class LostAckClient(EnvelopeClient):
    """Lands the first envelope whole, then loses its ack."""

    lost = False

    def mutate(self, ops):
        results = self._inner.mutate(ops)
        if not self.lost:
            self.lost = True
            raise DataServerDownError("ack lost after the envelope landed")
        return results


def seed_sim_lists(cluster):
    client = cluster.client()
    client.put(StateKeys.sim_list("i1"), {"a": 0.9, "b": 0.8})
    client.put(StateKeys.sim_list("i2"), {"c": 0.95})


class TestCommitOrdering:
    def test_no_invalidation_before_commit_no_torn_cached_state(self):
        cluster = fresh_cluster()
        bus = InvalidationBus()
        seed_sim_lists(cluster)
        healthy = Task(
            lambda: UserHistoryBolt(client_factory=cluster.client),
            sink=bus.publish_keys,
        )
        healthy.deliver(action_tuple("u1", "i1", 0, timestamp=1.0))
        assert bus.published == 1

        layer = serving_over(cluster, bus)
        first, tier = serve_one(layer, "u1", 2, 2.0)
        assert tier == "batched_live"
        assert [r.item_id for r in first] == ["a", "b"]

        # second action fails mid-commit: the recent list already moved
        # (idempotent side write) but the history commit did not land
        flaky = FlakyClient(cluster.client(), "put_once")
        flaky_bolt = Task(
            lambda: UserHistoryBolt(client_factory=lambda: flaky),
            sink=bus.publish_keys,
        )
        tup = action_tuple("u1", "i2", 1, timestamp=3.0)
        with pytest.raises(DataServerDownError):
            flaky_bolt.deliver(tup)
        assert bus.published == 1  # nothing published before the commit
        # so the cache keeps serving the committed answer, never a torn
        # recompute over half-applied state
        again, tier = serve_one(layer, "u1", 2, 3.5)
        assert tier == "result_cache"
        assert [r.item_id for r in again] == ["a", "b"]

        # the replay commits, publishes exactly once, and the staled
        # entry recomputes from fully-committed state
        flaky_bolt.deliver(tup)
        assert bus.published == 2
        assert layer.result_cache.get(("cf", "u1", 2)) is None
        final, tier = serve_one(layer, "u1", 2, 4.0)
        assert tier == "batched_live"
        assert [r.item_id for r in final] == self._reference()

    def _reference(self):
        """The failure-free answer for the same two actions."""
        cluster = fresh_cluster()
        bus = InvalidationBus()
        seed_sim_lists(cluster)
        bolt = Task(
            lambda: UserHistoryBolt(client_factory=cluster.client),
            sink=bus.publish_keys,
        )
        bolt.deliver(action_tuple("u1", "i1", 0, timestamp=1.0))
        bolt.deliver(action_tuple("u1", "i2", 1, timestamp=3.0))
        layer = serving_over(cluster, bus)
        results, __ = serve_one(layer, "u1", 2, 4.0)
        return [r.item_id for r in results]


class TestReplayPublishesOnce:
    def test_dedup_ledger_replay_republishes_at_most_once(self):
        cluster = fresh_cluster()
        bus = InvalidationBus()
        seed_sim_lists(cluster)
        bolt = Task(
            lambda: UserHistoryBolt(client_factory=cluster.client),
            sink=bus.publish_keys,
        )
        tup = action_tuple("u1", "i1", 0, timestamp=1.0)
        bolt.deliver(tup)
        assert bus.published == 1
        layer = serving_over(cluster, bus)
        first, __ = serve_one(layer, "u1", 2, 2.0)
        bolt.deliver(tup)  # in-memory ledger catches it
        # the duplicate wave probed u1's history: its tag goes out once
        # more, and costs the cache one miss, not a wrong answer
        assert bus.published == 2
        again, tier = serve_one(layer, "u1", 2, 2.0)
        assert tier == "batched_live"
        assert again == first

    def test_store_journal_replay_republishes_at_most_once(self):
        # the task died, the ledger with it: only op_seen stops the
        # replay, which writes nothing and publishes its probe's tag once
        cluster = fresh_cluster()
        bus = InvalidationBus()
        seed_sim_lists(cluster)
        bolt = Task(
            lambda: UserHistoryBolt(client_factory=cluster.client),
            sink=bus.publish_keys,
        )
        tup = action_tuple("u1", "i1", 0, timestamp=1.0)
        bolt.deliver(tup)
        layer = serving_over(cluster, bus)
        first, __ = serve_one(layer, "u1", 2, 2.0)
        reborn = Task(
            lambda: UserHistoryBolt(client_factory=cluster.client),
            sink=bus.publish_keys,
        )
        reborn.deliver(tup, tup)
        assert bus.published == 2
        assert bus.by_kind == {"user": 2}
        again, tier = serve_one(layer, "u1", 2, 2.0)
        assert tier == "batched_live"
        assert again == first

    def test_lost_ack_replay_publishes(self):
        # the commit landed but its ack did not: the executor counts the
        # wave failed and publishes nothing, and the replay finds the op
        # journaled and writes nothing — its probe still names the key
        cluster = fresh_cluster()
        bus = InvalidationBus()
        seed_sim_lists(cluster)
        Task(
            lambda: UserHistoryBolt(client_factory=cluster.client),
            sink=bus.publish_keys,
        ).deliver(action_tuple("u1", "i1", 0, timestamp=1.0))
        layer = serving_over(cluster, bus)
        first, __ = serve_one(layer, "u1", 2, 2.0)
        assert [r.item_id for r in first] == ["a", "b"]

        lossy = LostAckClient(cluster.client())
        bolt = Task(
            lambda: UserHistoryBolt(client_factory=lambda: lossy),
            sink=bus.publish_keys,
        )
        tup = action_tuple("u1", "i2", 1, timestamp=3.0)
        with pytest.raises(DataServerDownError):
            bolt.deliver(tup)
        assert bus.published == 1  # nothing for a commit that failed
        bolt.deliver(tup)
        assert bus.published == 2

        live = layer.engine.recommend_cf("u1", 2, 4.0)
        assert [r.item_id for r in live] == ["c", "a"]
        served, tier = serve_one(layer, "u1", 2, 4.0)
        assert tier == "batched_live"
        assert [r.item_id for r in served] == ["c", "a"]

    def test_sim_list_failure_then_replay_publishes_once(self):
        cluster = fresh_cluster()
        bus = InvalidationBus()
        flaky = FlakyClient(cluster.client(), "put_once")
        bolt = Task(
            lambda: SimListBolt(client_factory=lambda: flaky, k=4),
            sink=bus.publish_keys,
        )
        tup = sim_tuple("i1", "a", 0.9, 0)
        with pytest.raises(DataServerDownError):
            bolt.deliver(tup)
        assert bus.published == 0
        bolt.deliver(tup)
        assert bus.published == 1
        assert bus.by_kind == {"item": 1}


class TestStreamStalesTheRightEntries:
    def test_sim_list_commit_stales_dependent_answers(self):
        cluster = fresh_cluster()
        bus = InvalidationBus()
        client = cluster.client()
        client.put(StateKeys.recent("u1"), [("i1", 5.0, 0.0)])
        client.put(StateKeys.history("u1"), {"i1": 5.0})
        client.put(StateKeys.sim_list("i1"), {"a": 0.9})
        layer = serving_over(cluster, bus)
        results, __ = serve_one(layer, "u1", 1, 0.0)
        assert [r.item_id for r in results] == ["a"]

        bolt = Task(
            lambda: SimListBolt(client_factory=cluster.client, k=4),
            sink=bus.publish_keys,
        )
        bolt.deliver(sim_tuple("i1", "b", 0.95, 0))
        # the answer depended on item i1's list; it staled immediately
        assert layer.result_cache.get(("cf", "u1", 1)) is None
        updated, tier = serve_one(layer, "u1", 1, 0.0)
        assert tier == "batched_live"
        assert [r.item_id for r in updated] == ["b"]

    def test_group_commit_stales_demographic_answers_and_hot_tier(self):
        cluster = fresh_cluster()
        bus = InvalidationBus()
        cluster.client().put(StateKeys.hot("global"), {"h1": 4.0})
        layer = serving_over(cluster, bus)
        results, __ = serve_one(layer, "cold-user", 1, 0.0)
        assert [r.item_id for r in results] == ["h1"]
        assert layer.hot_cache.get("global") == {"h1": 4.0}

        bolt = Task(
            lambda: GroupCountBolt(client_factory=cluster.client),
            sink=bus.publish_keys,
        )
        bolt.deliver(group_tuple("global", "h2", 9.0, 0))
        assert layer.result_cache.get(("cf", "cold-user", 1)) is None
        assert layer.hot_cache.get("global") is None
        updated, __ = serve_one(layer, "cold-user", 1, 0.0)
        assert [r.item_id for r in updated] == ["h2"]
