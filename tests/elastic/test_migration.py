"""Unit tests for live TDStore instance migration.

The protocol under test: snapshot-copy → dual-write catch-up →
epoch-bumped cutover, with journals and versions travelling alongside
the data so exactly-once semantics survive the move, and clients
following the move through the existing ``route_epoch`` gate.
"""

import pickle

import pytest

from repro.elastic import InstanceMigrator, Migration
from repro.errors import MigrationError, MigrationInProgressError, TDStoreError
from repro.runtime import ProcessSubstrate, SimSubstrate
from repro.serving import InvalidationBus, invalidation_for_key
from repro.tdstore.cluster import TDStoreCluster
from repro.tdstore.data_server import TDStoreDataServer
from repro.tdstore.engines import MDBEngine
from repro.utils.clock import SimClock

INSTANCES = 8


def make_cluster(servers=3):
    return TDStoreCluster(num_data_servers=servers, num_instances=INSTANCES)


def keys_on_instance(cluster, instance, n=5, prefix="hist:u"):
    """Deterministic keys that hash onto ``instance``."""
    table = cluster.config.route_table()
    found = []
    i = 0
    while len(found) < n:
        key = f"{prefix}{i}"
        if table.instance_for_key(key) == instance:
            found.append(key)
        i += 1
    return found


class TestProtocolPhases:
    def test_full_move_preserves_values_and_bumps_epoch(self):
        cluster = make_cluster()
        client = cluster.client()
        for i in range(60):
            client.put(f"hist:u{i}", [i])
        target = cluster.add_data_server()
        epoch_before = cluster.config.route_epoch
        migrator = InstanceMigrator(cluster)
        record = migrator.migrate(0, target)
        assert record.state == "done"
        assert record.keys_copied > 0
        assert cluster.config.route_epoch == epoch_before + 1
        assert cluster.config.route_table().route(0).host == target
        assert all(client.get(f"hist:u{i}") == [i] for i in range(60))

    def test_dual_write_window_catches_up_at_cutover(self):
        cluster = make_cluster()
        client = cluster.client()
        target = cluster.add_data_server()
        migration = Migration(cluster.config, 0, target)
        migration.begin()
        # a write landing on the moving instance inside the window must
        # reach the target's catch-up queue, journal and version included
        keys = keys_on_instance(cluster, 0, n=3)
        for key in keys:
            client.put(key, f"in-window:{key}")
        record = migration.finish()
        assert record.records_caught_up >= len(keys)
        for key in keys:
            assert client.get(key) == f"in-window:{key}"

    def test_journal_travels_so_replays_stay_noops(self):
        cluster = make_cluster()
        client = cluster.client()
        keys = keys_on_instance(cluster, 0, n=4)
        for i, key in enumerate(keys):
            assert client.put_once(key, f"op-{key}", i)
        target = cluster.add_data_server()
        InstanceMigrator(cluster).migrate(0, target)
        # same op ids replayed against the new host: all deduplicated
        for i, key in enumerate(keys):
            assert not client.put_once(key, f"op-{key}", 999)
            assert client.get(key) == i

    def test_fenced_read_awaits_cutover_and_charges_stall(self):
        cluster = make_cluster()
        clock = SimClock()
        client = cluster.client(clock=clock)
        key = keys_on_instance(cluster, 0, n=1)[0]
        client.put(key, "v")
        target = cluster.add_data_server()
        migration = Migration(
            cluster.config, 0, target, clock_now=clock.now
        )
        migration.begin()
        migration.enter_cutover()
        before = clock.now()
        assert client.get(key) == "v"
        assert migration.state == "done"
        assert client.migration_stalls == 1
        assert client.migration_stall_seconds > 0.0
        assert clock.now() > before  # the wait is real simulated time

    def test_fence_raises_for_direct_server_access(self):
        cluster = make_cluster()
        target = cluster.add_data_server()
        migration = Migration(cluster.config, 0, target)
        migration.begin()
        migration.enter_cutover()
        source_id = migration.source_id
        with pytest.raises(MigrationInProgressError) as exc_info:
            cluster.config.server(source_id).get(0, "hist:any", None)
        assert exc_info.value.instance == 0

    def test_stepped_write_through_fence(self):
        cluster = make_cluster()
        client = cluster.client()
        key = keys_on_instance(cluster, 0, n=1)[0]
        target = cluster.add_data_server()
        migration = Migration(cluster.config, 0, target)
        migration.begin()
        migration.enter_cutover()
        client.put(key, "written-through-cutover")
        assert migration.state == "done"  # the writer completed the move
        assert cluster.config.route_table().route(0).host == target
        assert client.get(key) == "written-through-cutover"


class TestValidationAndAborts:
    def test_begin_rejects_dead_target(self):
        cluster = make_cluster(servers=4)
        cluster.crash_data_server(3)
        free = [
            s for s in range(3)
            if s not in (
                cluster.config.route_table().route(0).host,
                cluster.config.route_table().route(0).slave,
            )
        ]
        with pytest.raises(MigrationError, match="down"):
            Migration(cluster.config, 0, 3).begin()
        assert free  # sanity: the topology leaves a legal target too

    def test_begin_rejects_host_and_slave_targets(self):
        cluster = make_cluster()
        route = cluster.config.route_table().route(0)
        with pytest.raises(MigrationError, match="already hosted"):
            Migration(cluster.config, 0, route.host).begin()
        with pytest.raises(MigrationError, match="promote"):
            Migration(cluster.config, 0, route.slave).begin()

    def test_one_migration_per_instance(self):
        cluster = make_cluster()
        t1 = cluster.add_data_server()
        t2 = cluster.add_data_server()
        Migration(cluster.config, 0, t1).begin()
        with pytest.raises(MigrationError, match="in flight"):
            Migration(cluster.config, 0, t2).begin()

    def test_target_death_aborts_and_lowers_fence(self):
        cluster = make_cluster()
        client = cluster.client()
        key = keys_on_instance(cluster, 0, n=1)[0]
        client.put(key, "survives")
        target = cluster.add_data_server()
        migration = Migration(cluster.config, 0, target)
        migration.begin()
        migration.enter_cutover()
        cluster.crash_data_server(target)
        with pytest.raises(MigrationError, match="died mid-move"):
            migration.finish()
        assert migration.state == "aborted"
        assert cluster.config.migrations_aborted == 1
        # fence is down and the source still serves
        assert client.get(key) == "survives"

    def test_source_failover_aborts_in_flight_migration(self):
        cluster = make_cluster()
        client = cluster.client()
        key = keys_on_instance(cluster, 0, n=1)[0]
        client.put(key, "survives-failover")
        target = cluster.add_data_server()
        migration = Migration(cluster.config, 0, target)
        migration.begin()
        source = migration.source_id
        cluster.crash_data_server(source)
        # failover aborts the migration touching the dead source before
        # promoting slaves, so route state is fence-free afterwards
        assert client.get(key) == "survives-failover"
        assert migration.state == "aborted"
        assert cluster.config.migration_target(0) is None

    def test_await_after_abort_is_a_clean_retry(self):
        cluster = make_cluster()
        client = cluster.client()
        key = keys_on_instance(cluster, 0, n=1)[0]
        client.put(key, "v")
        target = cluster.add_data_server()
        migration = Migration(cluster.config, 0, target)
        migration.begin()
        migration.enter_cutover()
        cluster.crash_data_server(target)
        # the client hits the fence; await finds the abort and retries
        # against the (unchanged) authoritative route
        assert client.get(key) == "v"
        assert migration.state == "aborted"

    def test_abort_is_idempotent(self):
        cluster = make_cluster()
        target = cluster.add_data_server()
        migration = Migration(cluster.config, 0, target)
        migration.begin()
        migration.abort()
        migration.abort()
        assert cluster.config.migrations_aborted == 1
        with pytest.raises(MigrationError, match="aborted"):
            migration.finish()


class TestClusterExpansionAndDrain:
    def test_add_server_rejects_duplicates_and_dead(self):
        cluster = make_cluster()
        with pytest.raises(TDStoreError, match="already registered"):
            cluster.config.add_server(TDStoreDataServer(0, MDBEngine))
        dead = TDStoreDataServer(99, MDBEngine)
        dead.crash()
        with pytest.raises(TDStoreError, match="dead"):
            cluster.config.add_server(dead)

    def test_rebalance_spreads_load_onto_new_servers(self):
        cluster = make_cluster(servers=3)
        client = cluster.client()
        for i in range(80):
            client.put(f"hist:u{i}", i)
        cluster.add_data_server()
        cluster.add_data_server()
        moves = InstanceMigrator(cluster).rebalance()
        assert moves
        load = cluster.config.route_table().host_load()
        live = [s.server_id for s in cluster.config.servers() if s.alive]
        spread = [load.get(sid, 0) for sid in live]
        assert max(spread) - min(spread) <= 1
        assert all(client.get(f"hist:u{i}") == i for i in range(80))

    def test_drain_empties_server_and_keeps_data(self):
        cluster = make_cluster(servers=4)
        client = cluster.client()
        for i in range(80):
            client.put(f"hist:u{i}", i)
        records = cluster.drain_data_server(0)
        table = cluster.config.route_table()
        assert table.instances_hosted_by(0) == []
        assert table.instances_backed_by(0) == []
        assert len(records) > 0
        assert all(client.get(f"hist:u{i}") == i for i in range(80))

    def test_drain_refuses_below_replication_minimum(self):
        cluster = make_cluster(servers=3)
        cluster.crash_data_server(2)
        with pytest.raises(MigrationError, match="fewer than two"):
            cluster.drain_data_server(0)

    def test_migration_stats_surface(self):
        cluster = make_cluster()
        target = cluster.add_data_server()
        migration = Migration(cluster.config, 0, target)
        migration.begin()
        stats = cluster.migration_stats()
        assert len(stats["in_flight"]) == 1
        assert stats["in_flight"][0]["instance"] == 0
        assert stats["in_flight"][0]["state"] == "catching_up"
        migration.enter_cutover()
        migration.finish()
        stats = cluster.migration_stats()
        assert stats["completed"] == 1
        assert stats["in_flight"] == []


class TestServingInvalidation:
    def test_key_to_invalidation_mapping(self):
        assert invalidation_for_key("hist:u1") == ("user", "u1")
        assert invalidation_for_key("recent:u2") == ("user", "u2")
        assert invalidation_for_key("consumed:u3") == ("user", "u3")
        assert invalidation_for_key("simlist:i4") == ("item", "i4")
        assert invalidation_for_key("hot:news") == ("group", "news")
        assert invalidation_for_key("ctr:i5|home") == ("ctr", "i5")
        # meta keys and unknown families publish nothing
        assert invalidation_for_key("__ops__:hist:u1") is None
        assert invalidation_for_key("__ver__:hist:u1") is None
        assert invalidation_for_key("itemCount:") is None
        assert invalidation_for_key("pairCount:a|b") is None

    def test_cutover_publishes_invalidations_for_migrated_keys(self):
        cluster = make_cluster()
        client = cluster.client()
        user_keys = keys_on_instance(cluster, 0, n=3, prefix="hist:u")
        sim_keys = keys_on_instance(cluster, 0, n=2, prefix="simlist:i")
        for key in user_keys + sim_keys:
            client.put(key, "v")
        bus = InvalidationBus()
        events = []
        bus.subscribe(lambda kind, key: events.append((kind, key)))
        target = cluster.add_data_server()
        record = InstanceMigrator(cluster, bus=bus).migrate(0, target)
        assert record.invalidations_published == len(set(events))
        for key in user_keys:
            assert ("user", key.partition(":")[2]) in events
        for key in sim_keys:
            assert ("item", key.partition(":")[2]) in events


class TestMultiGetMigrationRace:
    """Satellite: a route change racing a ``multi_get`` mid-batch does
    exactly one refetch and misroutes no key."""

    def test_cutover_mid_batch_refetches_once(self):
        cluster = TDStoreCluster(num_data_servers=3, num_instances=8)
        writer = cluster.client()
        keys = [f"hist:u{i}" for i in range(64)]
        for i, key in enumerate(keys):
            writer.put(key, i)
        # fence one instance's host before the batched read
        target = cluster.add_data_server()
        migration = Migration(cluster.config, 0, target)
        migration.begin()
        migration.enter_cutover()

        reader = cluster.client()
        refreshes_before = reader.route_refreshes
        results = reader.multi_get(keys, default=None)
        # no misrouted or lost key: every value answered exactly
        assert results == {key: i for i, key in enumerate(keys)}
        assert reader.last_failed_keys == frozenset()
        # the moving shard stalled once; the refetch happened exactly once
        assert reader.migration_stalls == 1
        assert reader.route_refreshes == refreshes_before + 1
        assert migration.state == "done"

    def test_failover_mid_batch_reroutes_without_misses(self):
        cluster = TDStoreCluster(num_data_servers=4, num_instances=8)
        writer = cluster.client()
        keys = [f"hist:u{i}" for i in range(64)]
        for i, key in enumerate(keys):
            writer.put(key, i)
        cluster.sync_replicas()
        reader = cluster.client()
        reader.multi_get(keys[:4])  # warm the table
        refreshes_before = reader.route_refreshes
        cluster.crash_data_server(0)
        results = reader.multi_get(keys, default=None)
        assert results == {key: i for i, key in enumerate(keys)}
        assert reader.last_failed_keys == frozenset()
        assert reader.route_refreshes == refreshes_before + 1


@pytest.fixture(scope="module")
def sim_stack():
    substrate = SimSubstrate()
    yield substrate, substrate.build_tdstore(3, INSTANCES)


@pytest.fixture(scope="module")
def process_stack():
    # two host processes: servers 0 and 2 (and every added server) live
    # in host 0, server 1 in host 1
    with ProcessSubstrate(1, 2) as substrate:
        yield substrate, substrate.build_tdstore(3, INSTANCES)


@pytest.fixture(params=["sim", "process"])
def stack(request):
    return request.getfixturevalue(f"{request.param}_stack")


def unmoved_instance(store, hosts):
    """An instance some earlier test has not migrated yet, hosted by
    one of the original servers in ``hosts``."""
    table = store.config.route_table()
    return next(
        i for i in range(table.num_instances) if table.route(i).host in hosts
    )


def as_a_worker_holds(store):
    """The store as a bolt's client reaches it: a pickled copy of the
    process facade in a worker, the simulator's own cluster in process."""
    if isinstance(store, TDStoreCluster):
        return store
    return pickle.loads(pickle.dumps(store))


class TestNoAcknowledgedWriteLost:
    """The source host queues a window's writes at the target, so no
    client's view of the migration decides whether a write reaches it."""

    def test_a_window_write_from_another_process_lands(self, stack):
        __, store = stack
        instance = unmoved_instance(store, hosts={0, 2})
        warm, key = keys_on_instance(store, instance, n=2, prefix="other:")
        worker_store = as_a_worker_holds(store)
        writer = worker_store.client()
        writer.put(warm, "warm")
        migration = Migration(store.config, instance, store.add_data_server())
        migration.begin()
        writer.put(key, "in-window")
        migration.finish()
        assert store.client().get(key) == "in-window"
        if worker_store is not store:
            worker_store.close()

    def test_a_write_between_snapshot_and_adoption_lands(
        self, stack, monkeypatch
    ):
        __, store = stack
        instance = unmoved_instance(store, hosts={0, 2})
        warm, key = keys_on_instance(store, instance, n=2, prefix="race:")
        client = store.client()
        client.put(warm, "warm")
        target_id = store.add_data_server()
        target = store.config.server(target_id)
        adopt = target.adopt_snapshot
        written = []

        def adopt_after_a_write(*args):
            written.append(f"racing-{len(written)}")
            client.put(key, written[-1])
            return adopt(*args)

        monkeypatch.setattr(target, "adopt_snapshot", adopt_after_a_write)
        migration = Migration(store.config, instance, target_id)
        migration.begin()
        migration.finish()
        assert store.client().get(key) == written[-1]

    def test_a_key_written_twice_after_the_snapshot_ends_at_its_last_value(
        self, stack, monkeypatch
    ):
        # the catch-up queue keeps one record per key: the second write
        # replaces the first, and the target ends one key behind, not two
        __, store = stack
        instance = unmoved_instance(store, hosts={0, 2})
        warm, key = keys_on_instance(store, instance, n=2, prefix="twice:")
        client = store.client()
        client.put(warm, "warm")
        target_id = store.add_data_server()
        target = store.config.server(target_id)
        adopt = target.adopt_snapshot

        def adopt_after_two_writes(instance, data, keep_queued=False):
            if keep_queued:
                client.put(key, "first")
                client.put(key, "second")
            return adopt(instance, data, keep_queued)

        monkeypatch.setattr(target, "adopt_snapshot", adopt_after_two_writes)
        migration = Migration(store.config, instance, target_id)
        migration.begin()
        record = migration.finish()
        assert record.records_caught_up == 1
        assert target.snapshot_instance(instance)[key] == "second"
        assert store.client().get(key) == "second"

    def test_a_write_after_abort_queues_nothing_at_the_target(self, stack):
        __, store = stack
        instance = unmoved_instance(store, hosts={0, 2})
        key = keys_on_instance(store, instance, n=1, prefix="abort:")[0]
        target_id = store.add_data_server()
        migration = Migration(store.config, instance, target_id)
        migration.begin()
        migration.abort()
        target = store.config.server(target_id)
        queued = target.pending_syncs(instance)
        store.client().put(key, "after-abort")
        assert target.pending_syncs(instance) == queued
        assert store.client().get(key) == "after-abort"

    def test_the_window_survives_a_source_host_respawn(self, process_stack):
        substrate, store = process_stack
        instance = unmoved_instance(store, hosts={1})  # host process 1
        warm, key = keys_on_instance(store, instance, n=2, prefix="respawn:")
        worker_store = as_a_worker_holds(store)
        writer = worker_store.client()
        writer.put(warm, "warm")
        migration = Migration(store.config, instance, store.add_data_server())
        migration.begin()
        # the source's host dies and replays its log: the window it had
        # opened must come back with it
        substrate.chaos_runtime().kill_host(1)
        writer.put(key, "after-respawn")
        migration.finish()
        assert store.client().get(key) == "after-respawn"
        worker_store.close()
