"""One frame, one WAL record, one ack per TDStore mutation.

A client mutation names its replicas; the host applies the op and queues
the sync records on every replica living in its own process in the same
dispatch. These tests pin the three consequences: the wire methods that
carry mutations are all in ``MUTATING_DATA_METHODS``, an ack lost after
the apply leaves no replica behind, and the RPC/WAL cost of a mutation
is exactly one (two across processes, however many records it syncs).
"""

import pytest

from repro.errors import DataServerDownError, TDStoreError
from repro.runtime import ProcessSubstrate
from repro.runtime.wire import MUTATING_DATA_METHODS
from repro.tdstore.cluster import TDStoreCluster
from repro.tdstore.data_server import TDStoreDataServer

from tests.chaos.helpers import SUBSTRATES  # sim, and process on one host

SERVERS, INSTANCES = 4, 8

# every mutation kind of the client API, as (name, call(client, key, n))
MUTATIONS = [
    ("put", lambda c, key, n: c.put(key, {"n": n})),
    ("delete", lambda c, key, n: c.delete(key)),
    ("check_and_set", lambda c, key, n: c.check_and_set(key, n, 0)),
    ("apply", lambda c, key, n: c.apply(key, f"op-{n}", 2.0)),
    ("put_once", lambda c, key, n: c.put_once(key, f"op-{n}", {"n": n})),
    ("run_once", lambda c, key, n: c.run_once(key, f"op-{n}")),
]


def durable_state(server):
    return {
        instance: (
            server.snapshot_instance(instance), server.pending_syncs(instance)
        )
        for instance in server.instances()
    }


class Recorder:
    """Stands in for one data server; notes every method whose call
    changed the server's engines or sync inboxes."""

    def __init__(self, server, changed: set):
        self._server = server
        self._changed = changed

    def __getattr__(self, name):
        attr = getattr(self._server, name)
        if not callable(attr):
            return attr

        def call(*args):
            before = durable_state(self._server)
            try:
                return attr(*args)
            finally:
                if durable_state(self._server) != before:
                    self._changed.add(name)

        return call


class TestMutatingMethodSet:
    def test_every_state_changing_server_call_is_in_the_set(self):
        # servers that share no process, so the client also ships the
        # batched sync itself — the whole wire surface of a mutation
        cluster = TDStoreCluster(SERVERS, INSTANCES)
        changed: set = set()
        for server in cluster.data_servers:
            server.colocate({})
            cluster.config._servers[server.server_id] = Recorder(
                server, changed
            )
        client = cluster.client()
        for n, (name, mutation) in enumerate(MUTATIONS):
            client.put(f"seed:{name}", 0)
            mutation(client, f"key:{name}", n)
            client.get(f"key:{name}")
            client.get_versioned(f"key:{name}")
            client.op_seen(f"key:{name}", f"op-{n}")
            client.multi_get([f"key:{name}", f"seed:{name}"])
        for server in cluster.config.servers():
            server.apply_pending()
            server.apply_repair(0, {"repaired": 1}, [])
            server.adopt_snapshot(0, {"adopted": 1})
            server.ensure_instance(INSTANCES)
        assert {"mutate", "enqueue_syncs"} <= changed
        # a state-changing call outside the set would skip the WAL and
        # be blindly re-sent by the transport after a corrupt reply
        assert changed <= MUTATING_DATA_METHODS

    def test_the_set_names_only_real_server_methods(self):
        for name in MUTATING_DATA_METHODS:
            assert callable(getattr(TDStoreDataServer, name)), name


def lose_next_ack(substrate, store, server_id):
    """The next mutation on ``server_id`` applies, then its ack is lost."""
    runtime = substrate.chaos_runtime()
    if runtime is not None:
        runtime.network_fault(store.placement[server_id], "frame_drop", 1)
        return
    server = store.config.server(server_id)
    real = server.mutate

    def lossy(*args):
        server.mutate = real
        real(*args)
        raise DataServerDownError("ack lost after the apply")

    server.mutate = lossy


@pytest.mark.parametrize("make_substrate", SUBSTRATES)
def test_lost_ack_leaves_no_replica_behind(make_substrate):
    with make_substrate() as substrate:
        store = substrate.build_tdstore(SERVERS, INSTANCES)
        client = store.client()

        def host(key):
            return store.config.route_table().route_for_key(key).host

        hosts = host("sim:i1"), host("count:i1")
        # a route-table download drops the client's cached migration set;
        # re-learn it now so the next frame on the wire is the mutation
        client.put("warm", 0)
        lose_next_ack(substrate, store, hosts[0])
        client.put_once("sim:i1", "op-a", {"i2": 0.5})  # retried, deduped
        lose_next_ack(substrate, store, hosts[1])
        client.apply("count:i1", "op-b", 3.0)
        assert client.ops_deduped == 2  # both first sends had applied

        store.sync_replicas()
        assert store.scrub_replicas()["divergent_buckets"] == 0
        for key, op_id, value in (
            ("sim:i1", "op-a", {"i2": 0.5}),
            ("count:i1", "op-b", 3.0),
        ):
            store.crash_data_server(host(key))
            assert client.op_seen(key, op_id)  # served by the promoted slave
            assert client.get(key) == value


def runtime_counts(store):
    """``(rpc_requests, wal_records)`` summed over the host processes."""
    stats = store.host_stats()
    return (
        sum(h["rpc_requests"] for h in stats),
        sum(h["wal"]["records"] for h in stats),
    )


class TestRpcAndWalCounts:
    N = 5

    def test_one_rpc_and_one_wal_record_per_mutation(self):
        with ProcessSubstrate(worker_procs=1, server_procs=1) as substrate:
            store = substrate.build_tdstore(SERVERS, INSTANCES)
            client = store.client()
            client.put("warm", 0)
            for name, mutation in MUTATIONS:
                rpcs, records = runtime_counts(store)
                for n in range(self.N):
                    mutation(client, f"{name}:{n}", n)
                rpcs_after, records_after = runtime_counts(store)
                # the closing stats read is itself one request
                assert rpcs_after - rpcs - 1 == self.N, name
                assert records_after - records == self.N, name
            # sent bare, a host op would skip the WAL and the replicas
            route = store.config.route_table().route_for_key("bare")
            records = runtime_counts(store)[1]
            with pytest.raises(TDStoreError, match="must travel in a mutate"):
                store.config.server(route.host).put(route.instance, "bare", 1)
            assert runtime_counts(store)[1] == records
            assert client.get("bare") is None

    def test_cross_process_replica_costs_one_batched_sync(self):
        with ProcessSubstrate(worker_procs=1, server_procs=2) as substrate:
            store = substrate.build_tdstore(SERVERS, INSTANCES)
            client = store.client()
            table, placement = store.config.route_table(), store.placement
            client.put("warm", 0)  # re-learns the migration set, as above
            # keys whose slave lives in the other host process
            keys = [
                f"k{n}" for n in range(1000)
                if placement[table.route_for_key(f"k{n}").host]
                != placement[table.route_for_key(f"k{n}").slave]
            ]
            for n, (name, mutation) in enumerate(MUTATIONS):
                rpcs, records = runtime_counts(store)
                mutation(client, keys[n], n)
                rpcs_after, records_after = runtime_counts(store)
                # mutation + one enqueue_syncs, never 1 + len(records)
                # (put_once and apply sync three); one stats read per host
                assert rpcs_after - rpcs - 2 == 2, name
                assert records_after - records == 2, name
            store.sync_replicas()
            assert store.scrub_replicas()["clean"]
