"""Replay safety of the read-modify-write bolts.

Regression tests for the commit protocol: the stateful RMW bolts
(UserHistoryBolt, SimListBolt, GroupCountBolt) must journal an op id
*atomically with* the state it guards — never before the update. A store
failure mid-flush (deadline miss, breaker, injected error) fails the
slice and costs the task its memory; the replay, on a fresh instance,
must then re-execute the whole update and converge to exactly the
failure-free state. The old journal-first pattern left the op id durably
recorded with the update lost, so the replay was skipped and the data
was gone for good.
"""

import pytest

from repro.errors import DataServerDownError
from repro.storm.reliability import DedupLedger
from repro.topology.bolts_cf import SimListBolt, UserHistoryBolt
from repro.topology.bolts_db import GroupCountBolt
from repro.topology.state import StateKeys

from tests.topology.helpers import (
    FlakyClient,
    Task,
    action_tuple,
    fresh_cluster,
    group_tuple,
    prune_tuple,
    sim_tuple,
)


class TestUserHistoryReplay:
    def run_sequence(self, fail_method=None):
        cluster = fresh_cluster()
        flaky = (
            FlakyClient(cluster.client(), fail_method)
            if fail_method is not None
            else None
        )
        task = Task(
            lambda: UserHistoryBolt(
                client_factory=lambda: flaky or cluster.client(),
                group_of=lambda user: "g1",
            )
        )
        tuples = [
            action_tuple("u1", "i1", 0, timestamp=1.0),
            action_tuple("u1", "i2", 1, "purchase", timestamp=2.0),
            action_tuple("u1", "i3", 2, timestamp=3.0),
        ]
        for tup in tuples:
            if fail_method is not None and not flaky.failed:
                try:
                    task.deliver(tup)
                except DataServerDownError:
                    # the tuple tree fails; the spout replays it
                    task.deliver(tup)
            else:
                task.deliver(tup)
        return cluster.client(), task.emitted

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
        task = Task(lambda: UserHistoryBolt(client_factory=lambda: flaky))
        tup = action_tuple("u1", "i1", 0, timestamp=1.0)
        with pytest.raises(DataServerDownError):
            task.deliver(tup)
        probe = cluster.client()
        assert not probe.op_seen(StateKeys.history("u1"), "actions@0")
        assert probe.get(StateKeys.history("u1")) is None
        # no ledger entry outlives the failed flush: the replay meets a
        # fresh instance and is processed, not dropped
        assert task.restarts == 1
        task.deliver(tup)
        assert task.bolt.dedup_hits == 0
        assert probe.get(StateKeys.history("u1")) == {"i1": (2.0, 1.0)}

    def test_replay_of_committed_update_is_skipped(self):
        cluster = fresh_cluster()
        task = Task(lambda: UserHistoryBolt(client_factory=cluster.client))
        tup = action_tuple("u1", "i1", 0, timestamp=1.0)
        task.deliver(tup)
        first = len(task.emitted)
        # the ledger catches the replay first; wipe it to exercise the
        # store-journal probe (the task-kill path)
        task.bolt.ledger.restore(DedupLedger().snapshot())
        task.deliver(tup)
        assert len(task.emitted) == first  # no re-emission
        history = cluster.client().get(StateKeys.history("u1"))
        assert history == {"i1": (2.0, 1.0)}


class TestSimListReplay:
    @pytest.mark.parametrize("fail_method", ["put", "put_once"])
    def test_failure_mid_update_then_replay_converges(self, fail_method):
        want = fresh_cluster()
        task = Task(lambda: SimListBolt(client_factory=want.client, k=2))
        for index, (other, sim) in enumerate(
            [("i2", 0.5), ("i3", 0.8), ("i4", 0.6)]
        ):
            task.deliver(sim_tuple("i1", other, sim, index))

        got = fresh_cluster()
        flaky = FlakyClient(got.client(), fail_method)
        task = Task(lambda: SimListBolt(client_factory=lambda: flaky, k=2))
        for index, (other, sim) in enumerate(
            [("i2", 0.5), ("i3", 0.8), ("i4", 0.6)]
        ):
            tup = sim_tuple("i1", other, sim, index)
            try:
                task.deliver(tup)
            except DataServerDownError:
                task.deliver(tup)
        for key in (StateKeys.sim_list("i1"), StateKeys.threshold("i1")):
            assert got.client().get(key) == want.client().get(key), key

    def test_prune_replay_converges(self):
        want = fresh_cluster()
        task = Task(lambda: SimListBolt(client_factory=want.client, k=2))
        task.deliver(sim_tuple("i1", "i2", 0.5, 0))
        task.deliver(prune_tuple("i1", "i2", 1))

        got = fresh_cluster()
        flaky = FlakyClient(got.client(), "put_once")
        flaky.failed = True  # let the sim_update commit through
        task = Task(lambda: SimListBolt(client_factory=lambda: flaky, k=2))
        task.deliver(sim_tuple("i1", "i2", 0.5, 0))
        flaky.failed = False  # arm for the prune commit
        try:
            task.deliver(prune_tuple("i1", "i2", 1))
        except DataServerDownError:
            task.deliver(prune_tuple("i1", "i2", 1))
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
        task = Task(lambda: GroupCountBolt(client_factory=lambda: flaky))
        tup = group_tuple("g1", "i1", 2.0, 0)
        with pytest.raises(DataServerDownError):
            task.deliver(tup)
        assert cluster.client().get(StateKeys.hot("g1")) is None
        task.deliver(tup)  # the replay re-runs the whole fold
        task.deliver(group_tuple("g1", "i1", 1.0, 1))
        assert cluster.client().get(StateKeys.hot("g1")) == {"i1": 3.0}

    def test_committed_delta_never_double_applies(self):
        cluster = fresh_cluster()
        tup = group_tuple("g1", "i1", 2.0, 0)
        Task(lambda: GroupCountBolt(client_factory=cluster.client)).deliver(tup)
        # a replay after the in-memory ledger died with its task: the
        # store journal alone must stop the double-count
        Task(lambda: GroupCountBolt(client_factory=cluster.client)).deliver(tup)
        assert cluster.client().get(StateKeys.hot("g1")) == {"i1": 2.0}
