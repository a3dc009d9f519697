"""Explicit serde for monitoring state: SystemSnapshot and metrics.

Snapshots cross process boundaries (worker metrics shipping) and may be
persisted; both need a schema-versioned dict form that survives JSON
without silently dropping or mangling signals. Signals are JSON-native
(string keys only), so any signal round-trips unchanged, a new one
included, with no schema change.
"""

import dataclasses
import json

import pytest

from repro.monitoring import SNAPSHOT_SCHEMA_VERSION, SystemSnapshot, read_imbalance
from repro.storm.metrics import (
    METRICS_SCHEMA_VERSION,
    ClusterMetrics,
    TaskMetrics,
)


def populated_snapshot() -> SystemSnapshot:
    return SystemSnapshot(
        timestamp=1234.5,
        signals={
            "tdaccess_servers_up": 3,
            "tdaccess_servers_total": 3,
            "consumer_lag": {"source": 12},
            "tdstore_servers_up": 4,
            "tdstore_servers_total": 4,
            "tdstore_reads": {"0": 10, "1": 20},
            "tdstore_writes": {"0": 7, "1": 3},
            "replication_backlog": 2,
            "topology_executed": {"cf-stream": 215},
            "topology_restarts": {"cf-stream": 1},
            "ledger_entries": {"itemCount[0]": 8},
            "dedup_hits": {"itemCount[0]": 2},
            "watermark_rejections": {"itemCount[0]": 0},
            "acker_anomalies": {"cf-stream": 0},
            "degraded_tdstore_servers": [2],
            "breaker_states": {"tdstore": "closed"},
            "checkpoint_age": None,
            "route_epoch": 3,
            "supervisor_kills": 1,
            "supervisor_respawns": 2,
            "heartbeat_miss_streaks": {"tdstore-host-1": 2},
            "scrub_passes": 2,
            "scrub_instances_scanned": 16,
            "scrub_divergent_buckets": 1,
            "scrub_keys_repaired": 1,
            "scrub_corruptions_detected": 1,
            "vq_centroids": 5,
            "vq_indexed_items": 12,
            "vq_reassignments": 11,
            "vq_splits": 4,
            "vq_merges": 2,
            "vq_posting_p99": 3,
            "retrieval_cold_fallbacks": 1,
        },
    )


class TestSystemSnapshotSerde:
    def test_snapshot_declares_only_timestamp_and_signals(self):
        # a new signal is a collector entry, never a dataclass field
        names = [spec.name for spec in dataclasses.fields(SystemSnapshot)]
        assert names == ["timestamp", "signals"]

    def test_round_trip_is_lossless(self):
        snap = populated_snapshot()
        assert SystemSnapshot.from_dict(snap.to_dict()) == snap

    def test_round_trip_through_json(self):
        snap = populated_snapshot()
        back = SystemSnapshot.from_dict(json.loads(json.dumps(snap.to_dict())))
        assert back == snap
        assert back["tdstore_reads"] == {"0": 10, "1": 20}

    def test_a_signal_no_collector_knows_round_trips(self):
        # adding a signal is no schema change: it rides in the map as is
        snap = populated_snapshot()
        snap.signals["future_signal"] = {"shard-7": [1, 2.5, None, "x"]}
        data = json.loads(json.dumps(snap.to_dict()))
        assert data["schema_version"] == SNAPSHOT_SCHEMA_VERSION
        back = SystemSnapshot.from_dict(data)
        assert back == snap
        assert back["future_signal"] == {"shard-7": [1, 2.5, None, "x"]}

    def test_decoded_signals_are_a_copy(self):
        data = populated_snapshot().to_dict()
        back = SystemSnapshot.from_dict(data)
        back["consumer_lag"]["source"] = 0
        assert data["signals"]["consumer_lag"] == {"source": 12}

    def test_schema_version_is_embedded(self):
        data = populated_snapshot().to_dict()
        assert data["schema_version"] == SNAPSHOT_SCHEMA_VERSION

    def test_other_schema_version_is_refused(self):
        data = populated_snapshot().to_dict()
        data["schema_version"] = SNAPSHOT_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema version"):
            SystemSnapshot.from_dict(data)
        with pytest.raises(ValueError, match="schema version"):
            SystemSnapshot.from_dict({"timestamp": 0.0})

    def test_unknown_field_is_refused(self):
        # a layout change without a version bump must not silently vanish
        data = populated_snapshot().to_dict()
        data["surprise_counter"] = 7
        with pytest.raises(ValueError, match="surprise_counter"):
            SystemSnapshot.from_dict(data)

    def test_derived_metrics_survive(self):
        back = SystemSnapshot.from_dict(populated_snapshot().to_dict())
        assert sum(back["dedup_hits"].values()) == 2
        assert read_imbalance(back["tdstore_reads"]) == pytest.approx(20 / 15)


class TestClusterMetricsSerde:
    def make_metrics(self) -> ClusterMetrics:
        metrics = ClusterMetrics(
            tuples_transferred=40,
            trees_completed=12,
            trees_failed=1,
            task_restarts=2,
        )
        metrics.task("itemCount", 0).executed = 30
        metrics.task("itemCount", 1).emitted = 9
        metrics.task("simList", 0).acked = 5
        return metrics

    def test_round_trip_through_json(self):
        metrics = self.make_metrics()
        back = ClusterMetrics.from_dict(
            json.loads(json.dumps(metrics.to_dict()))
        )
        assert dict(back.tasks) == dict(metrics.tasks)
        assert back.tuples_transferred == 40
        assert back.trees_completed == 12
        assert back.trees_failed == 1
        assert back.task_restarts == 2
        assert back.total_executed() == metrics.total_executed()

    def test_task_keys_flatten_to_bracket_form(self):
        data = self.make_metrics().to_dict()
        assert data["schema_version"] == METRICS_SCHEMA_VERSION
        assert set(data["tasks"]) == {
            "itemCount[0]",
            "itemCount[1]",
            "simList[0]",
        }

    def test_component_names_containing_brackets_round_trip(self):
        metrics = ClusterMetrics()
        metrics.tasks[("odd[name]", 2)] = TaskMetrics(executed=1)
        back = ClusterMetrics.from_dict(metrics.to_dict())
        assert back.tasks[("odd[name]", 2)].executed == 1

    def test_other_schema_version_is_refused(self):
        data = self.make_metrics().to_dict()
        data["schema_version"] = 99
        with pytest.raises(ValueError, match="schema version"):
            ClusterMetrics.from_dict(data)
