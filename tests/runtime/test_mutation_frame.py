"""One frame, one WAL record, one ack per envelope of TDStore mutations.

A client envelope is an ordered list of mutations, each naming its host
and its replicas; the host process applies the leading run it owns and
queues the sync records on every replica living in it, in the same
dispatch. A single mutation is an envelope of one. These tests pin the
consequences: the wire methods that carry mutations are all in
``MUTATING_DATA_METHODS``, an ack lost after the apply leaves no replica
behind, and the RPC/WAL cost of an envelope is exactly one per server
process it touches — however many ops, logical servers and sync records
it carries, and however many tasks of a component wave buffered them.
"""

import pytest

from repro.errors import DataServerDownError, TDStoreError
from repro.runtime import ProcessSubstrate, topology_recipe
from repro.runtime.wire import SURFACE
from repro.storm import Bolt, Spout, TopologyBuilder
from repro.storm.grouping import FieldsGrouping
from repro.tdstore.cluster import TDStoreCluster
from repro.tdstore.data_server import TDStoreDataServer
from repro.topology.state import CachedStore, Reads, StoreBacked
from repro.utils.clock import SimClock

from tests.chaos.helpers import SUBSTRATES  # sim, and process on one host

SERVERS, INSTANCES = 4, 8

# the data-plane calls a host WAL-logs
MUTATING_DATA_METHODS = {
    name for name, row in SURFACE["data"].items() if row.logged
}

# every mutation kind of the client API, as (name, call(client, key, n))
MUTATIONS = [
    ("put", lambda c, key, n: c.put(key, {"n": n})),
    ("delete", lambda c, key, n: c.delete(key)),
    ("check_and_set", lambda c, key, n: c.check_and_set(key, n, 0)),
    ("apply", lambda c, key, n: c.apply(key, f"op-{n}", 2.0)),
    ("put_once", lambda c, key, n: c.put_once(key, f"op-{n}", {"n": n})),
    ("run_once", lambda c, key, n: c.run_once(key, f"op-{n}")),
]


def envelope(keys, tag):
    """Mixed mutations, four per key, in the order a bolt would buffer
    them: side write, journaled count, journaled commit, cleanup."""
    ops = []
    for n, key in enumerate(keys):
        ops += [
            ("put", (f"side:{key}", [tag, n])),
            ("apply_op", (f"count:{key}", f"{tag}-{n}#inc", 1.5)),
            ("put_once", (key, f"{tag}-{n}", {"n": n})),
            ("delete", (f"gone:{key}",)),
        ]
    return ops


def hosts_of(table, ops):
    return {table.route_for_key(args[0]).host for __, args in ops}


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
        # servers that share no process, so every envelope stops at the
        # first replica or op that lives elsewhere and the client sends
        # the rest on — the whole wire surface of a mutation
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
        ops = envelope([f"k{n}" for n in range(8)], "env")
        assert len(hosts_of(cluster.config.route_table(), ops)) == SERVERS
        client.mutate(ops)
        client.gather(
            [args[0] for __, args in ops], [("k0", "env-0"), ("k1", "nope")]
        )
        for server in cluster.config.servers():
            server.apply_pending()
            server.apply_repair(0, {"repaired": 1}, [])
            server.adopt_snapshot(0, {"adopted": 1})
            server.ensure_instance(INSTANCES)
        # host writes and forwarded replica records both ride ``mutate``
        assert "mutate" in changed
        # a state-changing call outside the set would skip the WAL and
        # be blindly re-sent by the transport after a corrupt reply
        assert changed <= MUTATING_DATA_METHODS
        cluster.sync_replicas()
        assert cluster.scrub_replicas()["divergent_buckets"] == 0

    def test_the_set_names_only_real_server_methods(self):
        for name in MUTATING_DATA_METHODS:
            assert callable(getattr(TDStoreDataServer, name)), name


def lose_next_ack(substrate, store, server_id):
    """The next envelope sent to ``server_id`` applies, then its ack is
    lost."""
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

        def route(key):
            return store.config.route_table().route_for_key(key)

        ops = envelope([f"k{n}" for n in range(6)], "env")
        hosts = [route(key).host for key in ("sim:i1", "count:i1", "side:k0")]
        # a route-table download drops the client's cached migration set;
        # re-learn it now so the next frame on the wire is the mutation
        client.put("warm", 0)
        lose_next_ack(substrate, store, hosts[0])
        client.put_once("sim:i1", "op-a", {"i2": 0.5})  # retried, deduped
        lose_next_ack(substrate, store, hosts[1])
        client.apply("count:i1", "op-b", 3.0)
        assert client.ops_deduped == 2  # both first sends had applied

        # the same loss under a whole envelope: the retry dedups every
        # journaled op in it and rewrites the plain ones
        lose_next_ack(substrate, store, hosts[2])
        results = client.mutate(ops)
        journaled = [
            result for (method, __), result in zip(ops, results)
            if method in ("apply_op", "put_once")
        ]
        assert journaled == [(1.5, False), False] * 6
        assert client.ops_deduped == 2 + 12

        store.sync_replicas()
        assert store.scrub_replicas()["divergent_buckets"] == 0
        for n in range(6):  # every slave holds value and journal entry
            at = route(f"k{n}")
            held = store.config.server(at.slave).read_replica(
                at.instance, [f"k{n}", f"__ops__:k{n}"]
            )
            assert held == {f"k{n}": {"n": n}, f"__ops__:k{n}": [f"env-{n}"]}
        for key, op_id, value in (
            ("sim:i1", "op-a", {"i2": 0.5}),
            ("count:i1", "op-b", 3.0),
        ):
            store.crash_data_server(route(key).host)
            assert client.op_seen(key, op_id)  # served by the promoted slave
            assert client.get(key) == value


def runtime_counts(store):
    """``(rpc_requests, wal_records)`` summed over the host processes."""
    stats = store.host_stats()
    return (
        sum(h["rpc_requests"] for h in stats),
        sum(h["wal"]["records"] for h in stats),
    )


class FedSpout(Spout):
    """Emits, in one poll, the rows the test put in ``pending``."""

    def __init__(self):
        self.pending: list[int] = []

    def declare_outputs(self, declarer):
        declarer.declare(("row",))

    def next_tuple(self) -> bool:
        pending, self.pending = self.pending, []
        for row in pending:
            self.collector.emit((row,), op_id=f"fed@{row}")
        return bool(pending)


class RowBolt(StoreBacked, Bolt):
    """Per row a side write and a journaled count, reads declared."""

    def __init__(self, client_factory):
        self._client_factory = client_factory

    def prepare(self, context, collector):
        super().prepare(context, collector)
        self._store = CachedStore(self._client_factory())

    def reads(self, tup):
        key = f"count:{tup['row']}"
        return Reads(probes=((key, tup.op_id),), owned=(key,))

    def execute(self, tup):
        self._store.put(f"side:{tup['row']}", tup["row"])
        self._store.apply(f"count:{tup['row']}", tup.op_id, 1.0)


WAVE_TASKS = 4


def wave_factory():
    def factory(clock, client_factory, consumer):
        builder = TopologyBuilder("row-wave")
        builder.add_spout("source", FedSpout)
        builder.add_bolt(
            "rows", lambda: RowBolt(client_factory), WAVE_TASKS
        ).grouping("source", FieldsGrouping(["row"]))
        return builder.build()

    return factory


class TestRpcAndWalCounts:
    N = 5

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_gather_and_one_envelope_per_worker_per_wave(self, workers):
        # 32 rows over all four tasks of a component and all four
        # logical servers of one host process: per worker holding tasks
        # of the wave one read request, one write request, one log
        # record — not one of each per task
        factory = topology_recipe(
            "tests.runtime.test_mutation_frame", "wave_factory"
        )
        with ProcessSubstrate(worker_procs=workers, server_procs=1) as substrate:
            store = substrate.build_tdstore(SERVERS, INSTANCES)
            clock = SimClock()
            cluster = substrate.build_storm(clock)
            cluster.submit(factory(clock, store.client, None))
            spout = cluster.task_instance("row-wave", "source", 0)
            table = store.config.route_table()

            def burst(rows):
                assert len(
                    {table.route_for_key(f"count:{row}").host for row in rows}
                ) == SERVERS
                spout.pending = list(rows)
                cluster.reactivate_spouts("row-wave")
                cluster.run_until_idle()

            burst(range(32))  # the workers' clients learn the migration set
            rpcs, records = runtime_counts(store)
            burst(range(32, 64))
            rpcs_after, records_after = runtime_counts(store)
            executed = cluster.metrics("row-wave").tasks
            assert all(
                executed[("rows", task)].executed >= 8
                for task in range(WAVE_TASKS)
            )
            # the closing stats read is itself one request
            assert rpcs_after - rpcs - 1 == 2 * workers
            assert records_after - records == workers
            client = store.client()
            assert all(client.get(f"count:{row}") == 1.0 for row in range(64))

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
            # nor may replica records arrive outside an envelope
            with pytest.raises(TDStoreError, match="must travel in a mutate"):
                store.config.server(route.slave).enqueue_syncs(
                    route.instance, []
                )
            assert runtime_counts(store)[1] == records
            assert client.get("bare") is None

    def test_one_rpc_and_one_wal_record_per_envelope(self):
        # 32 mixed mutations over all four logical servers of one host
        # process: one request, one log record — and their reads, values
        # and probes together (or values alone, through ``multi_get``),
        # one request and no record
        with ProcessSubstrate(worker_procs=1, server_procs=1) as substrate:
            store = substrate.build_tdstore(SERVERS, INSTANCES)
            client = store.client()
            ops = envelope([f"k{n}" for n in range(8)], "env")
            assert len(hosts_of(store.config.route_table(), ops)) == SERVERS
            client.put("warm", 0)  # after the route lookup, as above
            rpcs, records = runtime_counts(store)
            results = client.mutate(ops)
            rpcs_after, records_after = runtime_counts(store)
            assert rpcs_after - rpcs - 1 == 1
            assert records_after - records == 1
            assert results == [None, (1.5, True), True, None] * 8

            rpcs, records = rpcs_after, records_after
            values, seen = client.gather(
                [args[0] for __, args in ops],
                [("k0", "env-0"), ("count:k1", "env-1#inc"), ("k2", "nope")],
            )
            rpcs_after, records_after = runtime_counts(store)
            assert rpcs_after - rpcs - 1 == 1
            assert records_after == records
            assert values["k3"] == {"n": 3} and values["count:k3"] == 1.5
            assert "gone:k3" not in values  # missing keys are left out
            assert seen == {
                ("k0", "env-0"): True,
                ("count:k1", "env-1#inc"): True,
                ("k2", "nope"): False,
            }

            # the lenient batched read travels in the same frame: all
            # four logical servers, one request (it was one per server)
            rpcs, records = rpcs_after, records_after
            got = client.multi_get([args[0] for __, args in ops], "absent")
            rpcs_after, records_after = runtime_counts(store)
            assert rpcs_after - rpcs - 1 == 1
            assert records_after == records
            assert got["k3"] == values["k3"] and got["gone:k3"] == "absent"
            store.sync_replicas()
            assert store.scrub_replicas()["clean"]

    def test_cross_process_replica_costs_one_batched_sync(self):
        with ProcessSubstrate(worker_procs=1, server_procs=2) as substrate:
            store = substrate.build_tdstore(SERVERS, INSTANCES)
            client = store.client()
            table, placement = store.config.route_table(), store.placement
            client.put("warm", 0)  # re-learns the migration set, as above

            def process_of(key, role):
                return placement[getattr(table.route_for_key(key), role)]

            # keys whose slave lives in the other host process
            keys = [
                f"k{n}" for n in range(1000)
                if process_of(f"k{n}", "host") != process_of(f"k{n}", "slave")
            ]
            for n, (name, mutation) in enumerate(MUTATIONS):
                rpcs, records = runtime_counts(store)
                mutation(client, keys[n], n)
                rpcs_after, records_after = runtime_counts(store)
                # mutation + one envelope of records, never 1 + len(records)
                # (put_once and apply sync three); one stats read per host
                assert rpcs_after - rpcs - 2 == 2, name
                assert records_after - records == 2, name

            def family_in(key, process):
                return all(
                    process_of(f"{prefix}{key}", "host") == process
                    for prefix in ("", "side:", "count:", "gone:")
                )

            # an envelope hosted entirely by process 0, over both of its
            # logical servers, every replica in process 1: still 2 + 2
            here = [key for key in keys if family_in(key, 0)][:4]
            ops = envelope(here, "env")
            assert len(hosts_of(table, ops)) == 2
            rpcs, records = runtime_counts(store)
            client.mutate(ops)
            rpcs_after, records_after = runtime_counts(store)
            assert rpcs_after - rpcs - 2 == 2
            assert records_after - records == 2

            # ops of both processes, in runs: process 0, then 1, then 0.
            # Each run is one envelope, and each envelope also carries
            # the records the one before left for its process — so the
            # cost is one per run plus one to deliver the last records,
            # not one per op
            there = [key for key in keys if family_in(key, 1)][:2]
            ops = (
                envelope(here[:2], "mix")
                + envelope(there, "mix")
                + envelope(here[2:], "mix")
            )
            rpcs, records = runtime_counts(store)
            client.mutate(ops)
            rpcs_after, records_after = runtime_counts(store)
            assert rpcs_after - rpcs - 2 == 4
            assert records_after - records == 4
            store.sync_replicas()
            assert store.scrub_replicas()["clean"]
