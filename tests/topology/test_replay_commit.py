"""Replay safety of the read-modify-write bolts.

Regression tests for the commit protocol: the stateful RMW bolts
(UserHistoryBolt, SimListBolt, GroupCountBolt) must journal an op id
*atomically with* the state it guards — never before the update. A store
failure mid-update (deadline miss, breaker, injected error) fails the
tuple; the replay must then re-execute the whole update and converge to
exactly the failure-free state. The old journal-first pattern left the
op id durably recorded with the update lost, so the replay was skipped
and the data was gone for good.
"""

import pytest

from repro.errors import DataServerDownError
from repro.storm.component import OutputCollector, TopologyContext
from repro.storm.reliability import DedupLedger
from repro.storm.streams import OutputDeclaration
from repro.storm.tuples import StormTuple
from repro.tdstore.cluster import TDStoreCluster
from repro.topology.bolts_cf import SimListBolt, UserHistoryBolt
from repro.topology.bolts_db import GroupCountBolt
from repro.topology.state import StateKeys


class FlakyClient:
    """Client proxy that raises once on the first call of one method."""

    def __init__(self, inner, fail_method):
        self._inner = inner
        self._fail_method = fail_method
        self.failed = False

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name == self._fail_method and not self.failed:
            def boom(*args, **kwargs):
                self.failed = True
                raise DataServerDownError("injected mid-update failure")

            return boom
        return attr


def prepare(bolt, name="bolt"):
    """Wire a bolt to a collector that records emissions; returns the list."""
    declaration = OutputDeclaration()
    bolt.declare_outputs(declaration)
    emitted = []
    collector = OutputCollector(
        name, 0, declaration,
        emit_fn=lambda tup, message_id: emitted.append(tup),
        ack_fn=lambda tup: None,
        fail_fn=lambda tup: None,
        clock_now=lambda: 0.0,
    )
    bolt.prepare(TopologyContext(name, 0, 1, "test"), collector)
    return emitted


def deliver(bolt, tup):
    """Execute ``tup`` the way the cluster would: input identity installed
    so emissions derive replay-stable op ids."""
    bolt.collector.set_input_context(frozenset(), tup.op_id)
    bolt.execute(tup)


def action_tuple(user, item, offset, action="click", timestamp=0.0):
    return StormTuple(
        (user, item, action, timestamp),
        ("user", "item", "action", "timestamp"),
        "default",
        "source",
        op_id=f"actions@{offset}",
    )


def sim_tuple(item, other, similarity, offset):
    return StormTuple(
        (item, other, similarity),
        ("item", "other", "similarity"),
        "sim_update",
        "pairCount",
        op_id=f"actions@{offset}>pairCount.0:0",
    )


def group_tuple(group, item, delta, offset):
    return StormTuple(
        (group, item, delta),
        ("group", "item", "delta"),
        "group_delta",
        "userHistory",
        op_id=f"actions@{offset}>userHistory.0:1",
    )


def fresh_cluster():
    return TDStoreCluster(num_data_servers=3, num_instances=8)


class TestUserHistoryReplay:
    def run_sequence(self, fail_method=None):
        cluster = fresh_cluster()
        flaky = (
            FlakyClient(cluster.client(), fail_method)
            if fail_method is not None
            else None
        )
        bolt = UserHistoryBolt(
            client_factory=lambda: flaky or cluster.client(),
            group_of=lambda user: "g1",
        )
        emitted = prepare(bolt)
        tuples = [
            action_tuple("u1", "i1", 0, timestamp=1.0),
            action_tuple("u1", "i2", 1, "purchase", timestamp=2.0),
            action_tuple("u1", "i3", 2, timestamp=3.0),
        ]
        for tup in tuples:
            if fail_method is not None and not flaky.failed:
                try:
                    deliver(bolt, tup)
                except DataServerDownError:
                    # the tuple tree fails; the spout replays it
                    deliver(bolt, tup)
            else:
                deliver(bolt, tup)
        return cluster.client(), emitted

    def reference(self):
        return self.run_sequence(fail_method=None)

    @pytest.mark.parametrize("fail_method", ["put", "put_once"])
    def test_failure_mid_update_then_replay_converges(self, fail_method):
        want_client, want_emitted = self.reference()
        got_client, got_emitted = self.run_sequence(fail_method=fail_method)
        for key in (
            StateKeys.history("u1"),
            StateKeys.recent("u1"),
        ):
            assert got_client.get(key) == want_client.get(key), key
        # replayed emissions reuse the same derived op ids, so whatever
        # already reached downstream dedups; net effect is identical
        want_ids = {(t.op_id, tuple(t.values)) for t in want_emitted}
        got_ids = {(t.op_id, tuple(t.values)) for t in got_emitted}
        assert got_ids == want_ids

    def test_failed_commit_leaves_no_journal_entry(self):
        # regression: the op id used to be journaled *before* the update
        # (run_once), so the replay was skipped and the update lost
        cluster = fresh_cluster()
        flaky = FlakyClient(cluster.client(), "put_once")
        bolt = UserHistoryBolt(client_factory=lambda: flaky)
        prepare(bolt)
        tup = action_tuple("u1", "i1", 0, timestamp=1.0)
        with pytest.raises(DataServerDownError):
            deliver(bolt, tup)
        probe = cluster.client()
        assert not probe.op_seen(StateKeys.history("u1"), "actions@0")
        assert probe.get(StateKeys.history("u1")) is None
        # the ledger is also unmarked: the replay is processed, not dropped
        deliver(bolt, tup)
        assert bolt.dedup_hits == 0
        assert probe.get(StateKeys.history("u1")) == {"i1": (2.0, 1.0)}

    def test_replay_of_committed_update_is_skipped(self):
        cluster = fresh_cluster()
        bolt = UserHistoryBolt(client_factory=cluster.client)
        emitted = prepare(bolt)
        tup = action_tuple("u1", "i1", 0, timestamp=1.0)
        deliver(bolt, tup)
        first = len(emitted)
        # the ledger catches the replay first; wipe it to exercise the
        # store-journal probe (the task-kill path)
        bolt.ledger.restore(DedupLedger().snapshot())
        deliver(bolt, tup)
        assert len(emitted) == first  # no re-emission
        history = cluster.client().get(StateKeys.history("u1"))
        assert history == {"i1": (2.0, 1.0)}


class TestSimListReplay:
    @pytest.mark.parametrize("fail_method", ["put", "put_once"])
    def test_failure_mid_update_then_replay_converges(self, fail_method):
        want = fresh_cluster()
        bolt = SimListBolt(client_factory=want.client, k=2)
        prepare(bolt)
        for index, (other, sim) in enumerate(
            [("i2", 0.5), ("i3", 0.8), ("i4", 0.6)]
        ):
            deliver(bolt, sim_tuple("i1", other, sim, index))

        got = fresh_cluster()
        flaky = FlakyClient(got.client(), fail_method)
        bolt = SimListBolt(client_factory=lambda: flaky, k=2)
        prepare(bolt)
        for index, (other, sim) in enumerate(
            [("i2", 0.5), ("i3", 0.8), ("i4", 0.6)]
        ):
            tup = sim_tuple("i1", other, sim, index)
            try:
                deliver(bolt, tup)
            except DataServerDownError:
                deliver(bolt, tup)
        for key in (StateKeys.sim_list("i1"), StateKeys.threshold("i1")):
            assert got.client().get(key) == want.client().get(key), key

    def test_prune_replay_converges(self):
        want = fresh_cluster()
        bolt = SimListBolt(client_factory=want.client, k=2)
        prepare(bolt)
        deliver(bolt, sim_tuple("i1", "i2", 0.5, 0))
        prune = StormTuple(
            ("i1", "i2"), ("item", "other"), "prune", "pairCount",
            op_id="actions@1>pairCount.0:0",
        )
        deliver(bolt, prune)

        got = fresh_cluster()
        flaky = FlakyClient(got.client(), "put_once")
        flaky.failed = True  # let the sim_update commit through
        bolt = SimListBolt(client_factory=lambda: flaky, k=2)
        prepare(bolt)
        deliver(bolt, sim_tuple("i1", "i2", 0.5, 0))
        flaky.failed = False  # arm for the prune commit
        prune = StormTuple(
            ("i1", "i2"), ("item", "other"), "prune", "pairCount",
            op_id="actions@1>pairCount.0:0",
        )
        try:
            deliver(bolt, prune)
        except DataServerDownError:
            deliver(bolt, prune)
        for key in (
            StateKeys.sim_list("i1"),
            StateKeys.threshold("i1"),
            StateKeys.pruned("i1"),
        ):
            assert got.client().get(key) == want.client().get(key), key


class TestGroupCountReplay:
    def test_failure_mid_update_then_replay_is_exact(self):
        cluster = fresh_cluster()
        flaky = FlakyClient(cluster.client(), "put_once")
        bolt = GroupCountBolt(client_factory=lambda: flaky)
        prepare(bolt)
        tup = group_tuple("g1", "i1", 2.0, 0)
        with pytest.raises(DataServerDownError):
            deliver(bolt, tup)
        assert cluster.client().get(StateKeys.hot("g1")) is None
        deliver(bolt, tup)  # the replay re-runs the whole fold
        deliver(bolt, group_tuple("g1", "i1", 1.0, 1))
        assert cluster.client().get(StateKeys.hot("g1")) == {"i1": 3.0}

    def test_committed_delta_never_double_applies(self):
        cluster = fresh_cluster()
        bolt = GroupCountBolt(client_factory=cluster.client)
        prepare(bolt)
        tup = group_tuple("g1", "i1", 2.0, 0)
        deliver(bolt, tup)
        # a replay after the in-memory ledger died with its task: the
        # store journal alone must stop the double-count
        fresh = GroupCountBolt(client_factory=cluster.client)
        prepare(fresh)
        deliver(fresh, tup)
        assert cluster.client().get(StateKeys.hot("g1")) == {"i1": 2.0}
