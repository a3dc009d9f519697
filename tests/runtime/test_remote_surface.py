"""The declared remote surface: one table says what each host serves.

``wire.SURFACE`` lists, per plane, every name a remote caller may use,
with whether the host logs it, whether it may be applied only once, and
whether it is an attribute read. These tests pin the table to the code
it describes and the hosts and proxies to the table. A ``ServerHost``
runs in this process on a thread over a temporary WAL — no fork.
"""

import threading

import pytest

from repro.errors import RemoteOpError, TDStoreError
from repro.runtime.proxies import ProcessTDStore
from repro.runtime.rpc import RpcClient, dispatch_to_methods
from repro.runtime.server_host import ServerHost
from repro.runtime.wire import NOT_RESENT, SURFACE, Request
from repro.runtime.worker_host import WorkerHost
from repro.tdstore.cluster import TDStoreCluster
from repro.tdstore.config_server import ConfigServerPair
from repro.tdstore.data_server import TDStoreDataServer
from repro.tdstore.engines import MDBEngine

RECEIVERS = {
    "data": TDStoreDataServer,
    "config": ConfigServerPair,
    "cluster": TDStoreCluster,
    "host": ServerHost,
    "worker": WorkerHost,
}

PLACEMENT = {0: 0, 1: 0, 2: 0}


@pytest.fixture
def host(tmp_path):
    served = ServerHost(
        {
            "host_index": 0,
            "local_server_ids": sorted(PLACEMENT),
            "num_instances": 8,
            "placement": PLACEMENT,
            "wal_path": str(tmp_path / "host0.wal"),
            "durable": False,
        }
    )
    thread = threading.Thread(target=served.serve)
    thread.start()
    address = ("127.0.0.1", served.server.port)
    store = ProcessTDStore([address], PLACEMENT)
    try:
        yield address, store
    finally:
        store.close()
        with RpcClient(*address) as admin:
            admin.call("_shutdown")
        thread.join(timeout=5.0)
        assert not thread.is_alive()


class TestTable:
    def test_every_row_names_a_real_method_or_attribute(self):
        server = TDStoreDataServer(0, MDBEngine)
        for plane, rows in SURFACE.items():
            for name, row in rows.items():
                if row.attr:
                    assert plane == "data", name
                    assert not callable(getattr(server, name)), name
                else:
                    assert callable(getattr(RECEIVERS[plane], name)), name

    def test_logged_rows_are_the_ones_replay_reapplies(self):
        logged = {
            plane for plane, rows in SURFACE.items()
            for row in rows.values() if row.logged
        }
        assert logged == {"data", "cluster"}

    def test_a_name_that_is_not_resent_means_one_thing(self):
        for name in NOT_RESENT:
            assert sum(name in rows for rows in SURFACE.values()) == 1, name


class TestProxies:
    def test_every_name_answered_at_the_parent_still_resolves(self, host):
        __, store = host
        for name in (
            "config", "data_servers", "placement", "client",
            "set_recovery_hook", "update_address", "host_stats", "close",
            "add_data_server", "set_degradation", "clear_degradation",
            "degraded_servers", "drain_data_server", "crash_data_server",
            "recover_data_server", "scrub_replicas", "restore_contents",
        ):
            assert getattr(store, name) is not None, name
        for name in (
            "migration_stats", "scrub_stats", "sync_replicas",
            "snapshot_contents", "journal_evictions", "journal_overruns",
            "read_stats", "write_stats",
        ):
            getattr(store, name)()  # answered by host 0's facade
        with pytest.raises(AttributeError):
            store.no_such_facade_call

        config = store.config
        table = config.route_table()
        assert config.route_epoch == table.version
        assert config.migration_target(0) is None
        assert config.in_flight_migrations() == []
        assert config.await_migration(0) == 0.0
        assert config.server(0) is store.data_servers[0]

        server = store.data_servers[0]
        assert (server.alive, server.degraded, server.latency) == (
            True, False, 0.0
        )
        instance = next(
            i for i in range(table.num_instances) if table.route(i).host == 0
        )
        reads = server.reads
        assert server.get(instance, "absent", "dflt") == "dflt"
        # an attribute is fetched on every access, never cached
        assert server.reads == reads + 1
        assert "reads" not in vars(server)
        assert server.writes == 0
        assert instance in server.instances()


class TestRefusals:
    def test_the_data_plane_refuses_undeclared_names(self, host):
        address, store = host
        with RpcClient(*address) as rpc:
            for name in ("_hosted", "._hosted", "crash", "colocate"):
                with pytest.raises(TDStoreError, match="not a declared"):
                    rpc.call(name, target=("data", 0))
            with pytest.raises(TDStoreError, match="not a declared"):
                rpc.call("_sibling_rpcs")
            assert rpc.call("alive", target=("data", 0)) is True

    def test_the_worker_plane_refuses_undeclared_names(self):
        worker = WorkerHost({"worker_index": 0, "num_workers": 1})
        try:
            handle = dispatch_to_methods(lambda target: worker, SURFACE["worker"])
            refused, served = handle(
                [(0, Request("_topologies")), (0, Request("_ping"))]
            )
        finally:
            worker.server.close()
        assert isinstance(refused.error, TDStoreError)
        assert served.unwrap() == "pong"


@pytest.mark.parametrize("kind", ["frame_corrupt", "frame_drop"])
def test_a_damaged_reply_does_not_add_a_second_server(host, kind):
    # the host applies and logs the add, then its reply is corrupted or
    # lost: re-sending it would add another server
    address, store = host
    assert len(store.read_stats()) == 3
    with RpcClient(*address) as admin:
        admin.call("_chaos", kind, 1)
    with pytest.raises(RemoteOpError):
        store.add_data_server()
    assert len(store.read_stats()) == 4
