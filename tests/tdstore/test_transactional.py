"""Tests for the transactional TDStore layer: CAS and the op journal."""

import pytest

from repro.errors import TDStoreError, VersionConflictError
from repro.tdstore.cluster import TDStoreCluster
from repro.tdstore.engines import (
    JOURNAL_LIMIT,
    LDBEngine,
    MDBEngine,
    RDBEngine,
)


class TestEngineCheckAndSet:
    def test_versions_start_at_zero_and_bump(self):
        engine = MDBEngine()
        assert engine.version("k") == 0
        assert engine.check_and_set("k", "v1", expected_version=0) == 1
        assert engine.get("k") == "v1"
        assert engine.check_and_set("k", "v2", expected_version=1) == 2
        assert engine.version("k") == 2

    def test_conflict_carries_current_version(self):
        engine = MDBEngine()
        engine.check_and_set("k", "v1", expected_version=0)
        with pytest.raises(VersionConflictError) as excinfo:
            engine.check_and_set("k", "stale", expected_version=0)
        assert excinfo.value.current == 1
        assert engine.get("k") == "v1"  # losing write left no trace

    def test_plain_put_is_version_neutral(self):
        engine = MDBEngine()
        engine.put("k", "v")
        assert engine.version("k") == 0

    def test_shared_across_engines(self):
        # implemented on the base class: every engine inherits it
        for engine in (MDBEngine(), LDBEngine(), RDBEngine()):
            assert engine.check_and_set("k", 1, expected_version=0) == 1
            with pytest.raises(VersionConflictError):
                engine.check_and_set("k", 2, expected_version=0)


class TestEngineOpJournal:
    def test_apply_op_is_idempotent(self):
        engine = MDBEngine()
        assert engine.apply_op("count", "src@0", 2.0) == (2.0, True)
        assert engine.apply_op("count", "src@0", 2.0) == (2.0, False)
        assert engine.apply_op("count", "src@1", 3.0) == (5.0, True)

    def test_record_once(self):
        engine = MDBEngine()
        assert engine.record_once("k", "src@0")
        assert not engine.record_once("k", "src@0")
        assert engine.record_once("k", "src@1")

    def test_journal_is_bounded(self):
        engine = MDBEngine()
        for i in range(JOURNAL_LIMIT * 2):
            engine.apply_op("count", f"src@{i}", 1.0)
        journal = engine.get("__ops__:count")
        assert len(journal) == JOURNAL_LIMIT
        # only the newest ids are remembered; they still dedup
        assert engine.apply_op("count", f"src@{JOURNAL_LIMIT * 2 - 1}", 1.0) == (
            float(JOURNAL_LIMIT * 2),
            False,
        )

    def test_journal_evictions_counted(self):
        # every trimmed id is a forgotten dedup decision; the counter is
        # what lets the monitor flag rewinds that could double-apply
        engine = MDBEngine()
        for i in range(JOURNAL_LIMIT):
            engine.apply_op("count", f"src@{i}", 1.0)
        assert engine.journal_evictions == 0
        engine.apply_op("count", f"src@{JOURNAL_LIMIT}", 1.0)
        assert engine.journal_evictions == 1
        engine.put_once("other", "src@0", "v")
        assert engine.journal_evictions == 1  # other key, nothing trimmed

    def test_put_once_is_idempotent(self):
        engine = MDBEngine()
        assert engine.put_once("k", "src@0", {"a": 1.0})
        assert not engine.put_once("k", "src@0", {"a": 999.0})
        assert engine.get("k") == {"a": 1.0}  # replay left no trace
        assert engine.put_once("k", "src@1", {"a": 2.0})
        assert engine.get("k") == {"a": 2.0}
        assert engine.version("k") == 2

    @pytest.mark.parametrize("make", [MDBEngine, LDBEngine, RDBEngine])
    def test_a_run_lands_as_its_ops_one_by_one(self, make):
        # a run of ids on one key: value, journal, version and eviction
        # count end exactly as the single ops applied in order, across
        # the journal's trim point
        ids = tuple(f"src@{i}" for i in range(JOURNAL_LIMIT + 7))
        deltas = tuple(0.1 * (i % 5) for i in range(len(ids)))
        one, run = make(), make()
        for op_id, delta in zip(ids, deltas):
            one.apply_op("n", op_id, delta)
            one.put_once("h", op_id, {"last": op_id})
        assert run.apply_op("n", ids, deltas) == (one.get("n"), True)
        assert run.put_once("h", ids, {"last": ids[-1]})
        assert dict(run.items()) == dict(one.items())
        assert run.journal_evictions == one.journal_evictions == 14

    def test_a_landed_run_dedups_whole(self):
        engine = MDBEngine()
        assert engine.apply_op("n", ("a", "b"), (1.0, 2.0)) == (3.0, True)
        assert engine.apply_op("n", ("a", "b"), (1.0, 2.0)) == (3.0, False)
        assert engine.version("n") == 2

    def test_a_partly_journaled_run_is_refused(self):
        engine = MDBEngine()
        engine.put_once("h", "b", "first")
        with pytest.raises(TDStoreError, match="partly journaled"):
            engine.put_once("h", ("a", "b"), "second")
        assert engine.get("h") == "first"
        assert engine.get("__ops__:h") == ["b"]

    def test_op_seen_is_a_pure_read(self):
        engine = MDBEngine()
        assert not engine.op_seen("k", "src@0")
        assert not engine.op_seen("k", "src@0")  # probing records nothing
        engine.put_once("k", "src@0", "v")
        assert engine.op_seen("k", "src@0")
        assert not engine.op_seen("k", "src@1")


class TestClientTransactions:
    def make(self):
        cluster = TDStoreCluster(num_data_servers=3, num_instances=8)
        return cluster, cluster.client()

    def test_get_versioned_default(self):
        __, client = self.make()
        assert client.get_versioned("missing", default=[]) == ([], 0)

    def test_check_and_set_roundtrip_and_conflict(self):
        __, client = self.make()
        assert client.check_and_set("simList:i1", ["a"], 0) == 1
        assert client.get_versioned("simList:i1") == (["a"], 1)
        with pytest.raises(VersionConflictError) as excinfo:
            client.check_and_set("simList:i1", ["b"], 0)
        assert excinfo.value.current == 1

    def test_apply_counters(self):
        __, client = self.make()
        client.apply("itemCount:i1", "actions@0", 1.0)
        client.apply("itemCount:i1", "actions@0", 1.0)
        client.run_once("hist:u1", "actions@1")
        client.run_once("hist:u1", "actions@1")
        assert client.ops_applied == 2
        assert client.ops_deduped == 2

    def test_replay_deduped_across_failover(self):
        # the journal replicates with the value, so a replayed op is a
        # no-op even after the host dies and the slave is promoted
        cluster, client = self.make()
        key = "itemCount:i1"
        value, applied = client.apply(key, "actions@7", 4.0)
        assert (value, applied) == (4.0, True)
        cluster.sync_replicas()
        host = cluster.config.route_table().route_for_key(key).host
        cluster.crash_data_server(host)
        value, applied = client.apply(key, "actions@7", 4.0)
        assert (value, applied) == (4.0, False)
        assert client.get(key) == 4.0

    def test_put_once_roundtrip_and_counters(self):
        __, client = self.make()
        assert client.put_once("hist:u1", "actions@0", {"i1": 1.0})
        assert not client.put_once("hist:u1", "actions@0", {"i1": 9.0})
        assert client.get("hist:u1") == {"i1": 1.0}
        assert client.ops_applied == 1
        assert client.ops_deduped == 1

    def test_op_seen_probe_then_commit(self):
        __, client = self.make()
        assert not client.op_seen("hist:u1", "actions@0")
        # the probe alone must not create the journal entry — only the
        # commit does, or a failure in between would lose the update
        assert not client.op_seen("hist:u1", "actions@0")
        client.put_once("hist:u1", "actions@0", {"i1": 1.0})
        assert client.op_seen("hist:u1", "actions@0")

    def test_put_once_deduped_across_failover(self):
        cluster, client = self.make()
        key = "hist:u1"
        assert client.put_once(key, "actions@3", {"i1": 2.0})
        cluster.sync_replicas()
        host = cluster.config.route_table().route_for_key(key).host
        cluster.crash_data_server(host)
        assert not client.put_once(key, "actions@3", {"i1": 8.0})
        assert client.get(key) == {"i1": 2.0}
        assert client.op_seen(key, "actions@3")

    def test_a_resent_folded_envelope_dedups_and_counts_ids(self):
        # one put_once run and one apply_op run: the counters count the
        # five op ids, not the two envelope entries
        cluster, client = self.make()
        envelope = [
            ("put_once", ("hot:g1", ("a", "b", "c"), {"i1": 3.0})),
            ("apply_op", ("itemCount:i1", ("a", "b"), (1.0, 2.0))),
        ]
        assert client.mutate(envelope) == [True, (3.0, True)]
        assert (client.ops_applied, client.ops_deduped) == (5, 0)
        state = cluster.snapshot_contents()
        assert client.mutate(envelope) == [False, (3.0, False)]
        assert (client.ops_applied, client.ops_deduped) == (5, 5)
        assert cluster.snapshot_contents() == state
        assert client.get_versioned("hot:g1") == ({"i1": 3.0}, 3)

    def test_a_partly_journaled_run_refuses_the_whole_envelope(self):
        cluster, client = self.make()
        client.apply("itemCount:i1", "b", 2.0)
        cluster.sync_replicas()
        state = cluster.snapshot_contents()
        with pytest.raises(TDStoreError, match="partly journaled"):
            client.mutate([
                ("put_once", ("hot:g1", ("a",), {"i1": 1.0})),
                ("apply_op", ("itemCount:i1", ("a", "b"), (1.0, 2.0))),
            ])
        # nothing of the envelope applied, the run's neighbour included,
        # and no replica was sent a record
        assert cluster.snapshot_contents() == state
        assert sum(s.pending_syncs() for s in cluster.data_servers) == 0

    def test_cluster_aggregates_journal_evictions(self):
        cluster, client = self.make()
        assert cluster.journal_evictions() == 0
        for i in range(JOURNAL_LIMIT + 5):
            client.apply("itemCount:i1", f"actions@{i}", 1.0)
        assert cluster.journal_evictions() == 5

    def test_versions_survive_failover(self):
        cluster, client = self.make()
        key = "simList:i1"
        client.check_and_set(key, ["a"], 0)
        cluster.sync_replicas()
        host = cluster.config.route_table().route_for_key(key).host
        cluster.crash_data_server(host)
        assert client.get_versioned(key) == (["a"], 1)
        assert client.check_and_set(key, ["a", "b"], 1) == 2
