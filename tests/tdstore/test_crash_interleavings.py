"""Crash -> recover -> apply_pending interleavings.

These tests pin down the replication state machine under awkward
orderings: promotion while sync queues are non-empty, recovery adopting
a snapshot while new syncs are still pending, and — the regression that
motivated host fencing — a client with a stale route table writing to a
crashed-and-revived server after everyone else failed over.
"""

import pytest

from repro.errors import StaleRouteError, TDStoreError
from repro.tdstore import TDStoreCluster
from repro.tdstore.data_server import TDStoreDataServer
from repro.tdstore.engines import MDBEngine


def make_cluster():
    return TDStoreCluster(num_data_servers=3, num_instances=8)


def host_of(cluster, key):
    return cluster.config.route_table().route_for_key(key).host


def slave_of(cluster, key):
    return cluster.config.route_table().route_for_key(key).slave


class TestPromotionWithPendingSyncs:
    def test_host_crash_promotes_slave_after_catchup(self):
        # the slave's inbox still holds unapplied records when the host
        # dies; promotion must apply them before serving reads
        cluster = make_cluster()
        client = cluster.client()
        for i in range(16):
            client.put(f"k{i}", i)
        victim = host_of(cluster, "k0")
        assert cluster.config.server(victim).pending_syncs() >= 0
        cluster.crash_data_server(victim)
        # no sync_replicas() ran: queues are as the writes left them
        for i in range(16):
            assert client.get(f"k{i}") == i

    def test_writes_between_crash_and_recover_survive(self):
        cluster = make_cluster()
        client = cluster.client()
        client.put("before", 1)
        victim = host_of(cluster, "before")
        cluster.crash_data_server(victim)
        client.put("before", 2)  # triggers failover, lands on new host
        client.put("during", 3)
        cluster.recover_data_server(victim)
        client.put("after", 4)
        fresh = cluster.client()
        assert fresh.get("before") == 2
        assert fresh.get("during") == 3
        assert fresh.get("after") == 4

    def test_double_replica_loss_is_reported_not_silent(self):
        cluster = make_cluster()
        client = cluster.client()
        client.put("k", 1)
        cluster.crash_data_server(host_of(cluster, "k"))
        cluster.crash_data_server(slave_of(cluster, "k"))
        with pytest.raises(TDStoreError):
            client.get("k")


class TestRecoveryAdoption:
    def test_recover_adopts_snapshot_while_new_syncs_pending(self):
        # a recovered server is re-seeded from peers whose own sync
        # queues are non-empty; the peer applies them first, so the
        # adopted snapshot is current, not stale
        cluster = make_cluster()
        client = cluster.client()
        for i in range(12):
            client.put(f"k{i}", "old")
        victim = host_of(cluster, "k0")
        cluster.crash_data_server(victim)
        for i in range(12):
            client.put(f"k{i}", "new")  # queues syncs at current slaves
        cluster.recover_data_server(victim)
        # the revived server's replicas must already hold the new values
        table = cluster.config.route_table()
        server = cluster.config.server(victim)
        for instance in range(table.num_instances):
            route = table.route(instance)
            if victim not in (route.host, route.slave):
                continue
            for key, value in server.engine(instance).snapshot().items():
                if key.startswith("k"):
                    assert value == "new", (instance, key)

    def test_replicas_converge_after_recover_and_idle_sync(self):
        cluster = make_cluster()
        client = cluster.client()
        for i in range(20):
            client.put(f"k{i}", i)
        cluster.crash_data_server(0)
        for i in range(20):
            client.put(f"k{i}", i * 10)
        cluster.recover_data_server(0)
        for i in range(20):
            client.put(f"extra{i}", i)
        cluster.sync_replicas()
        table = cluster.config.route_table()
        for instance in range(table.num_instances):
            route = table.route(instance)
            host = cluster.config.server(route.host)
            slave = cluster.config.server(route.slave)
            assert (
                host.engine(instance).snapshot()
                == slave.engine(instance).snapshot()
            ), f"instance {instance} diverged"


class TestHostFencing:
    def test_stale_client_cannot_split_brain_a_revived_server(self):
        # the regression: c1 triggers failover while c2 keeps the old
        # table; once the crashed server revives, c2's writes must not
        # land on it (it no longer hosts anything)
        cluster = make_cluster()
        c1, c2 = cluster.client(), cluster.client()
        c1.put("k", "v0")
        victim = host_of(cluster, "k")
        cluster.crash_data_server(victim)
        assert c1.get("k") == "v0"  # c1 fails over; c2's table is now stale
        cluster.recover_data_server(victim)
        c2.put("k", "v1")  # fenced at the revived server, retried
        assert c2.route_refreshes >= 1
        assert c1.get("k") == "v1"
        assert cluster.client().get("k") == "v1"
        # the revived server holds no divergent copy of the key's instance
        instance = cluster.config.route_table().route_for_key("k").instance
        revived = cluster.config.server(victim)
        if instance in revived.instances():
            assert revived.engine(instance).get("k") != "v1" or revived.hosts(
                instance
            )

    def test_stale_read_is_fenced_too(self):
        cluster = make_cluster()
        c1, c2 = cluster.client(), cluster.client()
        c1.put("k", "v0")
        victim = host_of(cluster, "k")
        cluster.crash_data_server(victim)
        c1.put("k", "v1")  # failover; new host has v1
        cluster.recover_data_server(victim)
        # without fencing this read would see the revived server's empty
        # engine and return the default
        assert c2.get("k", "MISSING") == "v1"

    def test_data_server_rejects_unhosted_operations(self):
        server = TDStoreDataServer(0, MDBEngine)
        server.ensure_instance(3)
        with pytest.raises(StaleRouteError, match="no longer hosts"):
            server.mutate([(0, 3, "put", ("k", 1), ())])
        with pytest.raises(StaleRouteError):
            server.get(3, "k")
        with pytest.raises(StaleRouteError):
            server.mutate([(0, 3, "delete", ("k",), ())])
        server.set_host_role(3, True)
        server.mutate([(0, 3, "put", ("k", 1), ())])
        assert server.get(3, "k") == 1
        server.set_host_role(3, False)
        with pytest.raises(StaleRouteError):
            server.get(3, "k")

    def test_replication_paths_are_not_fenced(self):
        # snapshot/adopt/apply are host<->slave traffic, not client
        # traffic: they must work on a server that hosts nothing
        from repro.tdstore.data_server import SyncRecord, _PUT

        server = TDStoreDataServer(0, MDBEngine)
        server.enqueue_syncs(2, [SyncRecord(_PUT, "k", 5)])
        server.apply_pending(2)
        assert server.engine(2).get("k") == 5
        assert server.snapshot_instance(2) == {"k": 5}
        server.adopt_snapshot(2, {"x": 1})
        assert server.engine(2).get("x") == 1

    def test_restart_forgets_host_roles_until_regranted(self):
        cluster = make_cluster()
        client = cluster.client()
        client.put("k", 1)
        victim = host_of(cluster, "k")
        server = cluster.config.server(victim)
        instance = cluster.config.route_table().route_for_key("k").instance
        assert server.hosts(instance)
        server.crash()
        client.get("k")  # failover moves the instance elsewhere
        server.recover()  # direct restart: no roles until the config acts
        assert not server.hosts(instance)
        cluster.config.handle_server_recovery(victim)
        # the table no longer names the victim as host, so still fenced
        assert not server.hosts(instance)
