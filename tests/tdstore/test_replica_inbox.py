"""A replica's inbox queues state, not history.

A slave keeps one pending sync record per key: the last put or delete
its host queued since the last idle-time sync. Applying the inbox must
leave the replica equal to its host however the writes interleave —
on the simulator, after a host process replays its log, across a
migration's catch-up, and under scrub's racing-write guard — and a write
burst leaves at most one pending record per key it touched.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TDStoreError
from repro.runtime import ProcessSubstrate
from repro.tdstore import TDStoreCluster
from repro.tdstore.engines import JOURNAL_PREFIX, VERSION_PREFIX
from repro.tdstore.scrub import ReplicaScrubber

KEYS = ("a", "b", "c", "d")
OP_IDS = tuple(f"op-{n}" for n in range(6))


def make_cluster():
    return TDStoreCluster(num_data_servers=2, num_instances=4)


def slave_of(cluster, key):
    route = cluster.config.route_table().route_for_key(key)
    return cluster.config.server(route.slave), route.instance


def pending(store) -> int:
    return sum(server.pending_syncs() for server in store.data_servers)


def assert_replicas_match(cluster):
    table = cluster.config.route_table()
    for instance in range(table.num_instances):
        route = table.route(instance)
        host = cluster.config.server(route.host).snapshot_instance(instance)
        slave = cluster.config.server(route.slave).snapshot_instance(instance)
        assert slave == host, instance


class TestOneRecordPerKey:
    def test_put_delete_put_leaves_the_last_put(self):
        cluster = make_cluster()
        client = cluster.client()
        client.put("k", 1)
        client.delete("k")
        client.put("k", 2)
        slave, instance = slave_of(cluster, "k")
        assert slave.pending_syncs(instance) == 1
        slave.apply_pending(instance)
        assert slave.engine(instance).get("k") == 2
        assert_replicas_match(cluster)

    def test_delete_put_delete_leaves_no_key(self):
        cluster = make_cluster()
        client = cluster.client()
        client.put("k", 0)
        cluster.sync_replicas()
        client.delete("k")
        client.put("k", 1)
        client.delete("k")
        slave, instance = slave_of(cluster, "k")
        assert slave.pending_syncs(instance) == 1
        slave.apply_pending(instance)
        assert not slave.engine(instance).contains("k")
        assert_replicas_match(cluster)

    def test_a_journaled_burst_leaves_value_journal_and_version_per_key(self):
        # 10,000 journaled writes to 5 keys and no idle sync: the slaves
        # hold each key's value, journal and version once, not 30,000
        # records of history
        cluster = make_cluster()
        client = cluster.client()
        for start in range(0, 10_000, 500):
            client.mutate([
                ("put_once", (f"k{n % 5}", f"op-{n}", n))
                for n in range(start, start + 500)
            ])
        assert pending(cluster) <= 15
        cluster.sync_replicas()
        assert_replicas_match(cluster)


# one client op: (method, key, argument); "sync" is an idle-time sync
ids = st.lists(st.sampled_from(OP_IDS), min_size=1, max_size=3, unique=True)
ops = st.one_of(
    st.tuples(st.just("put"), st.sampled_from(KEYS), st.integers(0, 9)),
    st.tuples(st.just("delete"), st.sampled_from(KEYS), st.none()),
    st.tuples(st.just("check_and_set"), st.sampled_from(KEYS), st.booleans()),
    st.tuples(st.just("put_once"), st.sampled_from(KEYS), ids),
    st.tuples(st.just("apply_op"), st.sampled_from(KEYS), ids),
    st.just(("sync", None, None)),
)


def run(client, method, key, arg) -> "set[str]":
    """Apply one op; returns the keys whose records it may queue."""
    if method in ("put", "delete"):
        client.mutate([(method, (key,) if arg is None else (key, arg))])
        return {key}
    if method == "check_and_set":
        version = client.get_versioned(key)[1]
        # a stale expected version is refused and queues nothing
        client.check_and_set(key, float(version), version if arg else version + 1)
        return {key, VERSION_PREFIX + key}
    # a journaled write of one id, or a folded run of several
    run_ids = arg[0] if len(arg) == 1 else tuple(arg)
    if method == "put_once":
        args = (key, run_ids, len(arg))
    else:
        args = (key, run_ids, 1.0 if len(arg) == 1 else (1.0,) * len(arg))
    client.mutate([(method, args)])
    return {key, JOURNAL_PREFIX + key, VERSION_PREFIX + key}


class TestSyncedReplicaEqualsHost:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(ops, max_size=30))
    def test_any_interleaving_syncs_to_the_host_state(self, program):
        cluster = make_cluster()
        client = cluster.client()
        written: set = set()
        for method, key, arg in program:
            if method == "sync":
                cluster.sync_replicas()
                written.clear()
                continue
            try:
                written |= run(client, method, key, arg)
            except TDStoreError:
                pass  # a stale CAS or a partly journaled run: refused whole
            assert pending(cluster) <= len(written)
        cluster.sync_replicas()
        assert pending(cluster) == 0
        assert_replicas_match(cluster)


class TestScrubGuard:
    def test_a_put_and_delete_between_the_snapshots_is_racing(self):
        # the two writes leave one pending record for the key: scrub
        # must still see the slave behind and skip, not compare
        cluster = make_cluster()
        client = cluster.client()
        for n in range(20):
            client.put(f"item:{n}", n)
        cluster.sync_replicas()
        route = cluster.config.route_table().route_for_key("item:3")
        host = cluster.config.server(route.host)
        real_snapshot = host.snapshot_instance

        def racing_snapshot(instance):
            snap = real_snapshot(instance)
            if instance == route.instance:
                client.put("item:3", "racing")
                client.delete("item:3")
            return snap

        host.snapshot_instance = racing_snapshot
        try:
            report = ReplicaScrubber(cluster).scrub()
        finally:
            host.snapshot_instance = real_snapshot
        assert report.skipped_racing == 1
        assert route.instance not in report.divergent_instances
        cluster.sync_replicas()
        final = ReplicaScrubber(cluster).scrub()
        assert final.skipped_racing == 0 and final.clean
        assert not client.contains("item:3")


class TestReplayedInbox:
    def test_a_respawned_host_rederives_an_inbox_that_scrubs_clean(self):
        # one host process holds host and slave: its log re-runs every
        # enqueue on replay, into the same keyed inbox
        with ProcessSubstrate(1, 1) as substrate:
            store = substrate.build_tdstore(2, 4)
            client = store.client()
            client.put("warm", 0)
            for n in range(30):
                client.put_once(f"k{n % 5}", f"op-{n}", n)
                client.put(f"plain{n % 3}", n)
            client.delete("plain0")
            # value, journal and version of 5 keys, 3 plain keys, "warm"
            assert pending(store) == 5 * 3 + 3 + 1
            substrate.chaos_runtime().kill_host(0)
            assert pending(store) == 5 * 3 + 3 + 1
            store.sync_replicas()
            report = store.scrub_replicas()
            assert report["divergent_buckets"] == 0 and report["clean"]
            assert client.get("k4") == 29 and client.get("plain0") is None
