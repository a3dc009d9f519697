"""Picklability audit: everything the process substrate ships must
survive the ``spawn`` start method's pickler.

``spawn`` children share no memory, so worker configs, topology
recipes, RPC payloads (tuples, ops, snapshots), checkpoint manifests
and control-flow exceptions all cross process boundaries as pickles.
A type that quietly loses a field here corrupts state across the
boundary, so each round-trip asserts semantic equality, not just
"it unpickled".
"""

import io
import pickle

from multiprocessing.reduction import ForkingPickler

from repro.errors import (
    DeadlineExceededError,
    MigrationInProgressError,
    OffsetOutOfRangeError,
    StaleRouteError,
    VersionConflictError,
)
from repro.recovery.manifest import CheckpointManifest
from repro.runtime.proxies import ProcessTDStore
from repro.runtime.wire import Request, Response
from repro.storm.tuples import StormTuple
from repro.tdstore.cluster import TDStoreCluster
from repro.tdstore.data_server import SyncRecord
from repro.types import UserAction


def spawn_round_trip(obj):
    """Round-trip through the exact pickler ``spawn`` children use."""
    buffer = io.BytesIO()
    ForkingPickler(buffer, pickle.HIGHEST_PROTOCOL).dump(obj)
    return pickle.loads(buffer.getvalue())


class TestDataPlaneTypes:
    def test_storm_tuple(self):
        tup = StormTuple(
            values=("u1", "i9", 2.5),
            fields=("user", "item", "weight"),
            stream_id="weights",
            source_component="pretreatment",
            source_task=1,
            root_ids=frozenset({17}),
            op_id="pretreatment:1:42",
        )
        back = spawn_round_trip(tup)
        assert back.values == tup.values
        assert back.fields == tup.fields
        assert back.stream_id == tup.stream_id
        assert back.source_component == tup.source_component
        assert back.source_task == tup.source_task
        assert back.root_ids == tup.root_ids
        assert back.op_id == tup.op_id

    def test_user_action(self):
        action = UserAction("u1", "i2", "click", 12.5)
        back = spawn_round_trip(action)
        assert back == action

    def test_sync_record(self):
        record = SyncRecord("put", "item_count:i4", {"count": 3})
        back = spawn_round_trip(record)
        assert (back.op, back.key, back.value) == (
            record.op,
            record.key,
            record.value,
        )

    def test_mutation_frame_and_its_reply(self):
        # the one request an envelope of client mutations sends, and the
        # reply handing back what belongs to another host process: the
        # records for a replica there and the ops from the first foreign
        # one on
        records = [SyncRecord("__put__", "sim:i4", {"i7": 0.5})]
        ops = [
            (0, 3, "put_once", ("sim:i4", "op-1", {"i7": 0.5}), (1, 2)),
            (0, 5, "apply_op", ("itemCount:i4", "op-2", 2.0), (1,)),
            (1, 6, "put", ("recent:u1", [("i4", 1.0, 0.0)]), (0,)),
            (0, 3, "delete", ("pruned:i4",), (1,)),
        ]
        request = Request("mutate", (ops,), ("data", 0))
        assert spawn_round_trip(request) == request
        rest = [(2, 3, "enqueue_syncs", (records,), ())] + ops[2:]
        reply = Response(value=([True, (2.0, True)], rest))
        assert spawn_round_trip(reply).unwrap() == reply.value

    def test_read_frame_and_its_reply(self):
        # the reply hands back what belongs to another host process and
        # what this one refused, each refusal with its typed error
        reads = [
            (0, 3, ["hist:u1", "recent:u1"], [("hist:u1", "actions@7")]),
            (0, 5, ["sim:i4"], ()),
            (1, 6, ["pruned:i4"], []),
        ]
        request = Request("gather", (reads,), ("data", 0))
        assert spawn_round_trip(request) == request
        fence = MigrationInProgressError("instance 5 is mid-cutover", 5)
        reply = Response(
            value=(
                {"hist:u1": {"i4": (2.0, 1.0)}},
                {("hist:u1", "actions@7"): False},
                reads[2:],
                [(reads[1], fence)],
            )
        )
        values, seen, rest, refused = spawn_round_trip(reply).unwrap()
        assert (values, seen, rest) == reply.value[:3]
        [(read, error)] = refused
        assert read == reads[1]
        assert type(error) is MigrationInProgressError
        assert (error.args, error.instance) == (fence.args, 5)


class TestRouteTable:
    def test_route_table_survives_with_version_and_routes(self):
        cluster = TDStoreCluster(3, 8)
        cluster.crash_data_server(1)  # force a failover: version > 0
        table = cluster.config.route_table()
        back = spawn_round_trip(table)
        assert back.version == table.version
        assert back.num_instances == table.num_instances
        for instance in range(table.num_instances):
            want = table.route(instance)
            got = back.route(instance)
            assert (got.host, got.slave) == (want.host, want.slave)


class TestCheckpointManifest:
    def test_manifest_fields_survive(self):
        manifest = CheckpointManifest(
            checkpoint_id=3,
            topology="cf-stream",
            clock_time=1440.0,
            next_tick=1680.0,
            barrier_round=6,
            offsets={"source": {0: 12, 1: 9}},
            bolt_states={("itemCount", 1): {"exactly_once": {"seen": [1]}}},
            tdstore_contents={0: {"k": 1}},
            route_epoch=2,
            migrations_in_flight=(),
        )
        back = spawn_round_trip(manifest)
        for name in (
            "checkpoint_id",
            "topology",
            "clock_time",
            "next_tick",
            "barrier_round",
            "offsets",
            "bolt_states",
            "tdstore_contents",
            "route_epoch",
        ):
            assert getattr(back, name) == getattr(manifest, name), name


class TestControlFlowErrors:
    """Errors with constructor-arg state need ``__reduce__``: the default
    exception pickling re-calls ``cls(*args)`` with only the message."""

    def test_each_error_round_trips_as_itself(self):
        errors = [
            StaleRouteError("instance 5 moved"),
            MigrationInProgressError("instance 5 mid-cutover", 5),
            VersionConflictError("version moved on", 9),
            DeadlineExceededError("over budget", 1.5, 1.0),
            OffsetOutOfRangeError("offset 3 truncated", 40),
        ]
        for exc in errors:
            back = spawn_round_trip(exc)
            assert type(back) is type(exc)
            assert str(back) == str(exc)

    def test_attribute_state_is_preserved(self):
        back = spawn_round_trip(MigrationInProgressError("mid-cutover", 5))
        assert back.instance == 5
        back = spawn_round_trip(VersionConflictError("conflict", 9))
        assert back.current == 9
        back = spawn_round_trip(DeadlineExceededError("late", 1.5, 1.0))
        assert (back.elapsed, back.budget) == (1.5, 1.0)
        back = spawn_round_trip(OffsetOutOfRangeError("truncated", 40))
        assert back.earliest == 40


class TestRuntimeEnvelopes:
    def test_request_and_response(self):
        request = Request("record_once", (2, "op:1", "k", 1), ("data", 4))
        back = spawn_round_trip(request)
        assert back == request
        response = Response(value={"a": 1}, meta={"batch": 3})
        back = spawn_round_trip(response)
        assert back.value == response.value
        assert back.meta == response.meta

    def test_process_tdstore_facade_reships_as_addresses(self):
        # workers receive the facade as plain addresses; connections are
        # per-process and must not leak through the pickle
        facade = ProcessTDStore(
            [("127.0.0.1", 1234), ("127.0.0.1", 1235)], {0: 0, 1: 1, 2: 0}
        )
        back = spawn_round_trip(facade)
        assert back._addresses == facade._addresses
        assert back._placement == facade._placement
        assert back._rpcs == {}

    def test_facade_recovery_hook_does_not_leak_through_pickle(self):
        # the parent-side recovery hook closes over the supervisor; a
        # worker-side copy must come back without it, falling back to
        # plain retry backoff
        facade = ProcessTDStore([("127.0.0.1", 1234)], {0: 0})
        facade.set_recovery_hook(lambda host_index: None)
        back = spawn_round_trip(facade)
        assert back._recover_host is None


class TestChaosTypes:
    """The chaos layer's faults, schedules and reports cross the spawn
    boundary (plans ship to CI smoke runs; reports come back)."""

    def test_every_process_native_fault_kind(self):
        from repro.recovery.faults import Fault

        faults = [
            Fault(3, "host_sigkill", (1,)),
            Fault(3, "worker_sigkill", (0, 3, 8)),
            Fault(2, "conn_reset", (0, 2)),
            Fault(2, "frame_drop", (1, 1)),
            Fault(2, "frame_delay", (0, 2, 0.05)),
            Fault(2, "one_way_partition", (1, "inbound", 1)),
            Fault(4, "torn_write", (0,)),
            Fault(4, "disk_full", (1,)),
            Fault(4, "fsync_error", (0,)),
            Fault(4, "bit_flip", (1,)),
            Fault(4, "wal_corrupt", (0,)),
            Fault(5, "frame_corrupt", (1, 2)),
        ]
        for fault in faults:
            back = spawn_round_trip(fault)
            assert (back.round, back.kind, back.target) == (
                fault.round, fault.kind, fault.target,
            ), fault.kind

    def test_seeded_process_plan_round_trips(self):
        from repro.runtime.chaos import seeded_process_plan

        plan = seeded_process_plan(
            2015, horizon=10, hosts=2, workers=2,
            disk_faults=("fsync_error",),
            latency_spikes=1, tdstore_servers=[0, 1, 2],
        )
        back = spawn_round_trip(plan)
        assert [(f.round, f.kind, f.target) for f in back] == [
            (f.round, f.kind, f.target) for f in plan
        ]

    def test_mttr_sample_and_chaos_report(self):
        from repro.runtime.chaos import ChaosReport, MttrSample

        sample = spawn_round_trip(MttrSample("host_sigkill", 1, 0.042))
        assert (sample.kind, sample.target, sample.seconds) == (
            "host_sigkill", 1, 0.042,
        )
        report = ChaosReport(
            kills={"host_sigkill": 2, "worker_sigkill": 1},
            network_faults={"conn_reset": 1},
            disk_faults={"fsync_error": 1},
            mttr_count=3,
            mttr_p50=0.04,
            mttr_p99=0.09,
            mttr_max=0.09,
            serve_attempts=60,
            serve_answered=60,
            fingerprint_match=True,
            rounds=12,
        )
        back = spawn_round_trip(report)
        assert back == report
        assert back.serve_rate == 1.0
        assert back.to_dict() == report.to_dict()

    def test_midflight_trigger_and_rekeyed_plan(self):
        from repro.recovery.faults import Fault, Trigger
        from repro.runtime.chaos import rekey_plan_midflight

        trigger = spawn_round_trip(Trigger("wal_records", 40))
        assert (trigger.counter, trigger.at) == ("wal_records", 40)
        plan = [Fault(2, "host_sigkill", (1,)), Fault(5, "fsync_error", (0,))]
        entries = rekey_plan_midflight(plan, 25, seed=7)
        back = spawn_round_trip(entries)
        assert [(t, f.kind, f.target) for t, f in back] == [
            (t, f.kind, f.target) for t, f in entries
        ]


class TestRetrievalTypes:
    """Retrieval rows, ops and answers ride worker RPC payloads and
    checkpoint state; ``ColdIndexError`` crosses the serving boundary
    with its degradation ``reason`` attached."""

    def test_embedding_row_round_trips_exactly(self):
        from repro.retrieval.embedding import EmbeddingConfig, EmbeddingRow

        row = EmbeddingRow.from_value("i3", None, EmbeddingConfig(dim=8))
        back = spawn_round_trip(row)
        assert back == row
        assert back.array().tobytes() == row.array().tobytes()

    def test_centroid_snapshot_and_vq_op(self):
        from repro.retrieval.types import CentroidSnapshot, VQOp

        snap = CentroidSnapshot(
            "g0~1289721c", (0.1, -0.2, 0.3), 4.0, ("i1", "i2")
        )
        assert spawn_round_trip(snap) == snap
        op = VQOp(
            "i1", "op:7", "g0~1289721c",
            previous="g1", split_from="g0",
            merged="g1", merged_into="g0", moved_items=("i2",),
        )
        assert spawn_round_trip(op) == op

    def test_retrieval_answer(self):
        from repro.retrieval.types import RetrievalAnswer

        answer = RetrievalAnswer(
            items=("i1", "i2"), scores=(0.9, 0.4),
            probed_centroids=("g0", "g1"), candidates_seen=7,
        )
        assert spawn_round_trip(answer) == answer

    def test_cold_index_error_keeps_its_reason(self):
        from repro.errors import ColdIndexError, RetrievalError

        back = spawn_round_trip(ColdIndexError("no rows", reason="no_recent"))
        assert type(back) is ColdIndexError
        assert str(back) == "no rows"
        assert back.reason == "no_recent"
        back = spawn_round_trip(RetrievalError("index unavailable"))
        assert type(back) is RetrievalError

    def test_retrieval_configs_ship_to_workers(self):
        # topology recipes close over these configs; spawn workers
        # rebuild the bolts from the pickled recipe
        from repro.retrieval import RetrievalConfig, RetrieverConfig

        cfg = RetrievalConfig()
        back = spawn_round_trip(cfg)
        assert back.embedding == cfg.embedding
        assert back.vq == cfg.vq
        assert (back.co_window, back.co_k) == (cfg.co_window, cfg.co_k)
        assert spawn_round_trip(RetrieverConfig()) == RetrieverConfig()


class TestIntegrityTypes:
    """Corruption errors cross the RPC boundary (server -> client) and
    the spawn boundary (host process -> supervising parent); scrub
    reports come back from host 0's control plane."""

    def test_frame_corruption_error_keeps_checksums(self):
        from repro.runtime.wire import FrameCorruptionError

        back = spawn_round_trip(
            FrameCorruptionError("payload crc mismatch", 0xCAFE, 0xBEEF)
        )
        assert type(back) is FrameCorruptionError
        assert str(back) == "payload crc mismatch"
        assert (back.expected, back.actual) == (0xCAFE, 0xBEEF)

    def test_wal_error_keeps_corrupt_record_count(self):
        from repro.runtime.wal import WalError

        back = spawn_round_trip(WalError("wal corrupt mid-log", 3))
        assert type(back) is WalError
        assert str(back) == "wal corrupt mid-log"
        assert back.corrupt_records == 3

    def test_scrub_report_round_trips(self):
        from repro.tdstore.scrub import ScrubReport

        report = ScrubReport(
            instances_scanned=16,
            skipped_migrating=1,
            skipped_down=1,
            buckets_compared=224,
            divergent_buckets=2,
            keys_repaired=3,
            keys_deleted=1,
            corruptions_detected=2,
            divergent_instances=[4, 9],
        )
        back = spawn_round_trip(report)
        assert back == report
        assert back.clean is False
        assert back.to_dict() == report.to_dict()
