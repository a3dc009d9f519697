"""Tests for the system monitor (Figure 9's Monitor box)."""

import json

import pytest

from benchmarks.e2e.load import EventTrace
from benchmarks.e2e.topology import e2e_topology
from benchmarks.e2e.workload import PRELOAD_BATCHES
from repro.engine.engine import EngineConfig, RecommenderEngine
from repro.engine.front_end import RecommenderFrontEnd
from repro.monitoring import Alert, SystemMonitor, SystemSnapshot
from repro.resilience import CircuitBreaker, LoadShedder
from repro.runtime import SimSubstrate
from repro.serving import ServingLayer
from repro.storm import GlobalGrouping, LocalCluster, TopologyBuilder
from repro.tdaccess import TDAccessCluster
from repro.tdstore import TDStoreCluster
from repro.tdstore.engines import JOURNAL_LIMIT
from repro.topology.state import StateKeys
from repro.utils.clock import SimClock

from tests.retrieval.helpers import seeded_store
from tests.storm.helpers import CountBolt, ListSpout


@pytest.fixture
def deployment():
    clock = SimClock()
    tdaccess = TDAccessCluster(clock, num_data_servers=2)
    tdaccess.create_topic("actions", 2)
    tdstore = TDStoreCluster(num_data_servers=3, num_instances=8)
    storm = LocalCluster(clock=clock)
    builder = TopologyBuilder("app")
    builder.add_spout("s", lambda: ListSpout([("a",), ("b",)], ("word",)))
    builder.add_bolt("c", CountBolt).grouping("s", GlobalGrouping())
    storm.submit(builder.build())
    storm.run_until_idle()
    monitor = SystemMonitor(clock.now, max_consumer_lag=5)
    monitor.watch("tdaccess", tdaccess)
    monitor.watch("tdstore", tdstore)
    monitor.watch("storm", storm)
    return clock, tdaccess, tdstore, storm, monitor


class TestSnapshot:
    def test_healthy_deployment_no_alerts(self, deployment):
        __, ___, ____, _____, monitor = deployment
        assert monitor.evaluate() == []

    def test_snapshot_counts_servers_and_executions(self, deployment):
        __, tdaccess, tdstore, ____, monitor = deployment
        snap = monitor.snapshot()
        assert snap["tdaccess_servers_up"] == 2
        assert snap["tdstore_servers_total"] == 3
        assert snap["topology_executed"]["app"] == 2

    def test_consumer_lag_tracked(self, deployment):
        __, tdaccess, ___, ____, monitor = deployment
        consumer = tdaccess.consumer("actions")
        monitor.watch("consumers", consumer, name="etl")
        tdaccess.producer().send_batch("actions", list(range(10)))
        snap = monitor.snapshot()
        assert snap["consumer_lag"]["etl"] == 10

    def test_collected_signals_are_json_native(self, deployment):
        # every collector returns JSON-native values (string keys only),
        # so a real snapshot survives JSON unchanged
        clock, tdaccess, tdstore, ____, monitor = deployment
        monitor.watch("consumers", tdaccess.consumer("actions"), name="etl")
        monitor.watch("breakers", CircuitBreaker(clock.now, name="s"), name="s")
        shedder = LoadShedder(clock.now, capacity=4)
        monitor.watch("shedder", shedder)
        engine = RecommenderEngine(tdstore.client())
        serving = ServingLayer(engine, clock.now)
        monitor.watch("serving", serving)
        monitor.watch("front_end", RecommenderFrontEnd(
            engine, serving=serving, shedder=shedder
        ))
        monitor.watch("supervisor", StubSupervisor())
        snap = monitor.snapshot()
        # all 62 signals but checkpoints' 2, recovery's 3, retrieval's 6
        # and the autoscaler's 3
        assert len(snap.signals) == 48
        wire = json.loads(json.dumps(snap.to_dict()))
        assert SystemSnapshot.from_dict(wire) == snap

    def test_unknown_source_kind_is_refused(self):
        # a misspelt kind would otherwise attach a source nothing collects
        with pytest.raises(ValueError, match="'frontend'"):
            SystemMonitor(lambda: 0.0).watch("frontend", object())


class TestAlerts:
    def test_tdaccess_server_down_is_critical(self, deployment):
        __, tdaccess, ___, ____, monitor = deployment
        tdaccess.crash_data_server(0)
        alerts = monitor.evaluate()
        assert any(
            a.severity == "critical" and a.component == "tdaccess"
            for a in alerts
        )

    def test_consumer_lag_warning(self, deployment):
        __, tdaccess, ___, ____, monitor = deployment
        monitor.watch("consumers", tdaccess.consumer("actions"), name="etl")
        tdaccess.producer().send_batch("actions", list(range(20)))
        alerts = monitor.evaluate()
        assert any("lag" in a.message for a in alerts)

    def test_tdstore_server_down_is_critical(self, deployment):
        __, ___, tdstore, ____, monitor = deployment
        tdstore.crash_data_server(1)
        alerts = monitor.evaluate()
        assert any(
            a.severity == "critical" and a.component == "tdstore"
            for a in alerts
        )

    def test_task_restart_warning_fires_once(self, deployment):
        __, ___, ____, storm, monitor = deployment
        monitor.snapshot()  # baseline
        storm.kill_task("app", "c", 0)
        alerts = monitor.evaluate()
        assert any("restart" in a.message for a in alerts)
        # next evaluation: no new restarts, no repeated alert
        assert not any("restart" in a.message for a in monitor.evaluate())

    def test_replication_backlog_warning(self, deployment):
        __, ___, tdstore, ____, monitor = deployment
        monitor.max_replication_backlog = 3
        client = tdstore.client()
        for index in range(10):
            client.put(f"k{index}", index)
        alerts = monitor.evaluate()
        assert any("backlog" in a.message for a in alerts)
        tdstore.sync_replicas()
        assert not any("backlog" in a.message for a in monitor.evaluate())


class TestExactlyOnceSignals:
    def test_acker_anomalies_surface_and_warn_once(self, deployment):
        __, ___, ____, storm, monitor = deployment
        monitor.snapshot()
        storm._running["app"].acker.anomalies += 2
        snap = monitor.snapshot()
        assert snap["acker_anomalies"]["app"] == 2
        alerts = [
            a for a in monitor.evaluate(snap) if "over-acked" in a.message
        ]
        assert len(alerts) == 1
        assert "2" in alerts[0].message
        # no new anomalies: the delta-based alert clears
        snap = monitor.snapshot()
        assert not [
            a for a in monitor.evaluate(snap) if "over-acked" in a.message
        ]

    def test_acker_stats_accessor(self, deployment):
        __, ___, ____, storm, _____ = deployment
        stats = storm.acker_stats("app")
        assert stats["anomalies"] == 0
        assert stats["pending"] == 0
        assert stats["completed"] >= 0

    def test_watermark_rejections_surface_and_warn(self):
        from repro.storm.reliability import ExactlyOnceBolt

        class EchoBolt(ExactlyOnceBolt):
            def process(self, tup):
                pass

        clock = SimClock()
        storm = LocalCluster(clock=clock)
        builder = TopologyBuilder("eo")
        builder.add_spout("s", lambda: ListSpout([("a",)], ("word",)))
        builder.add_bolt("c", EchoBolt).grouping("s", GlobalGrouping())
        storm.submit(builder.build())
        storm.run_until_idle()
        monitor = SystemMonitor(clock.now)
        monitor.watch("storm", storm)
        monitor.snapshot()
        bolt = storm.task_instance("eo", "c", 0)
        bolt.ledger.observe("src@10000")
        bolt.ledger.observe("src@1")  # dropped below the watermark
        snap = monitor.snapshot()
        assert sum(snap["watermark_rejections"].values()) == 1
        alerts = [
            a for a in monitor.evaluate(snap) if "watermark" in a.message
        ]
        assert len(alerts) == 1
        assert alerts[0].severity == "warning"

    def test_journal_evictions_surface_without_alerting(self, deployment):
        __, ___, tdstore, ____, monitor = deployment
        monitor.snapshot()
        client = tdstore.client()
        for i in range(JOURNAL_LIMIT + 3):
            client.apply("itemCount:i1", f"actions@{i}", 1.0)
        snap = monitor.snapshot()
        assert snap["journal_evictions"] == 3
        assert snap["journal_overruns"] == 0
        # a trimmed journal is a healthy stream's steady state
        assert not [a for a in monitor.evaluate(snap) if "journal" in a.message]

    def test_an_overlong_run_raises_the_overrun_alert(self, deployment):
        __, ___, tdstore, ____, monitor = deployment
        monitor.snapshot()
        ids = tuple(f"actions@{i}" for i in range(JOURNAL_LIMIT + 1))
        tdstore.client().put_once("hot:global", ids, {"i1": 1.0})
        snap = monitor.snapshot()
        assert snap["journal_overruns"] == 1
        alerts = [a for a in monitor.evaluate(snap) if "journal" in a.message]
        assert [(a.severity, a.component) for a in alerts] == [
            ("critical", "tdstore")
        ]
        assert "double-apply" in alerts[0].message
        # steady state: no further overruns, no alert
        snap = monitor.snapshot()
        assert not [a for a in monitor.evaluate(snap) if "journal" in a.message]

    def test_the_e2e_stream_raises_no_journal_alert(self):
        """The benchmark's stream trims journals every micro-batch (the
        cost table's ``tdstore.journal_evictions``) and overruns none."""
        with SimSubstrate() as substrate:
            clock = SimClock()
            store = seeded_store(substrate)
            cluster = substrate.build_storm(clock)
            tdaccess = TDAccessCluster(clock, num_data_servers=2)
            tdaccess.create_topic("journal", 2)
            topology = e2e_topology("journal")(
                clock, store.client, tdaccess.consumer("journal")
            )
            cluster.submit(topology)
            monitor = SystemMonitor(clock.now)
            monitor.watch("tdstore", store)
            monitor.snapshot()
            events = EventTrace(2015)
            for __ in range(PRELOAD_BATCHES):  # what the seeded state holds
                events.next_batch()
            producer = tdaccess.producer()
            evictions = []
            for __ in range(6):
                for payload in events.next_batch():
                    clock.advance_to(payload["timestamp"])
                    producer.send("journal", payload, key=payload["user"])
                cluster.reactivate_spouts(topology.name)
                cluster.run_until_idle()
                snap = monitor.snapshot()
                evictions.append(snap["journal_evictions"])
                assert snap["journal_overruns"] == 0
                assert not [
                    a for a in monitor.evaluate(snap) if "journal" in a.message
                ]
        # every micro-batch trimmed some journal
        assert 0 < evictions[0] and all(map(int.__lt__, evictions, evictions[1:]))


class TestScrubSignals:
    """Anti-entropy scrub counters flowing into the monitor."""

    def test_clean_scrub_counts_without_alerting(self, deployment):
        __, ___, tdstore, ____, monitor = deployment
        tdstore.client().put("item:1", {"count": 3})
        tdstore.scrub_replicas()
        snap = monitor.snapshot()
        assert snap["scrub_passes"] == 1
        assert snap["scrub_instances_scanned"] == 8
        assert snap["scrub_divergent_buckets"] == 0
        assert not [
            a for a in monitor.evaluate(snap) if a.message.startswith("scrub")
        ]

    def test_divergence_and_corruption_alert_on_delta(self, deployment):
        __, ___, tdstore, ____, monitor = deployment
        client = tdstore.client()
        client.put("item:1", {"count": 3})
        tdstore.sync_replicas()
        monitor.snapshot()
        # silently corrupt the slave's copy behind replication's back
        route = tdstore.config.route_table().route_for_key("item:1")
        slave = tdstore.config.server(route.slave)
        slave.engine(route.instance).put("item:1", {"count": 99})
        tdstore.scrub_replicas()
        snap = monitor.snapshot()
        assert snap["scrub_divergent_buckets"] == 1
        assert snap["scrub_keys_repaired"] == 1
        assert snap["scrub_corruptions_detected"] == 1
        alerts = [
            a for a in monitor.evaluate(snap) if a.message.startswith("scrub")
        ]
        assert {a.severity for a in alerts} == {"warning", "critical"}
        # repaired: next pass is clean, deltas are zero, alerts clear
        tdstore.scrub_replicas()
        snap = monitor.snapshot()
        assert snap["scrub_divergent_buckets"] == 1  # cumulative, unchanged
        assert not [
            a for a in monitor.evaluate(snap) if a.message.startswith("scrub")
        ]
        assert "scrub_divergent_buckets=1" in monitor.summary()


class TestRecoverySignals:
    """Checkpoint age and recovery status flowing into the monitor."""

    @staticmethod
    def _harness(**kwargs):
        from repro.recovery import RecoveryHarness
        from tests.recovery.helpers import (
            TOPIC, cf_topology_factory, make_payloads, make_tdaccess,
        )

        return RecoveryHarness(
            make_tdaccess(make_payloads(32)),
            TOPIC,
            cf_topology_factory(batch_size=4),
            **kwargs,
        )

    def test_checkpoint_signals_flow_into_snapshot(self):
        harness = self._harness(checkpoint_every_rounds=2)
        harness.start()
        assert harness.run() == "completed"
        monitor = SystemMonitor(harness.clock.now, max_checkpoint_age=1e9)
        monitor.watch("checkpoints", harness.coordinator)
        monitor.watch("recovery", harness.recovery)
        snap = monitor.snapshot()
        assert snap["checkpoints_taken"] >= 1
        assert snap["checkpoint_age"] is not None and snap["checkpoint_age"] >= 0
        assert snap["recoveries"] == 0
        assert not snap["recovery_in_progress"]
        assert not any(a.component == "recovery" for a in monitor.evaluate(snap))

    def test_stale_checkpoint_warns(self):
        harness = self._harness(checkpoint_every_rounds=2)
        harness.start()
        harness.run()
        monitor = SystemMonitor(
            lambda: harness.clock.now() + 10_000.0, max_checkpoint_age=60.0
        )
        monitor.watch("checkpoints", harness.coordinator)
        alerts = monitor.evaluate()
        assert any(
            a.component == "recovery" and "checkpoint age" in a.message
            for a in alerts
        )

    def test_never_checkpointed_warns(self):
        harness = self._harness()  # no checkpoint policy: never checkpoints
        harness.start()
        harness.run()
        monitor = SystemMonitor(
            lambda: harness.clock.now() + 10_000.0, max_checkpoint_age=60.0
        )
        monitor.watch("checkpoints", harness.coordinator)
        alerts = monitor.evaluate()
        assert any("no checkpoint has ever been taken" in a.message for a in alerts)

    def test_recovery_in_progress_warning_clears_after_replay(self):
        from repro.recovery import Fault

        harness = self._harness(checkpoint_every_rounds=2)
        harness.start(fault_plan=[Fault(4, "crash_process")])
        assert harness.run() == "crashed"
        harness.recover()
        monitor = SystemMonitor(harness.clock.now)
        monitor.watch("checkpoints", harness.coordinator)
        monitor.watch("recovery", harness.recovery)
        alerts = monitor.evaluate()
        assert any("replay in progress" in a.message for a in alerts)
        assert "recovery_in_progress=True" in monitor.summary()

        assert harness.run() == "completed"
        snap = monitor.snapshot()
        assert snap["recoveries"] == 1
        assert not snap["recovery_in_progress"]
        assert snap["last_recovery_duration"] is not None
        assert not any(
            "replay in progress" in a.message for a in monitor.evaluate(snap)
        )
        assert "recovery_in_progress=False" in monitor.summary()


class TestSummary:
    def test_summary_mentions_every_layer(self, deployment):
        __, tdaccess, ___, ____, monitor = deployment
        monitor.watch("consumers", tdaccess.consumer("actions"), name="etl")
        text = monitor.summary()
        assert "tdaccess: tdaccess_servers_up=2" in text
        assert "consumers: consumer_lag={'etl': 0}" in text
        assert "tdstore: tdstore_servers_up=3" in text
        assert "topology_executed={'app': 2}" in text


class TestResilienceSignals:
    def test_breaker_lifecycle_alerts(self, deployment):
        clock, __, ___, ____, monitor = deployment
        breaker = CircuitBreaker(
            clock.now, failure_threshold=1, recovery_time=5.0, name="tdstore"
        )
        monitor.watch("breakers", breaker, name="tdstore")
        assert monitor.evaluate() == []
        breaker.record_failure()
        alerts = monitor.evaluate()
        assert any(
            a.severity == "critical" and a.component == "resilience"
            and "open" in a.message
            for a in alerts
        )
        clock.advance(5.0)
        alerts = monitor.evaluate()
        assert any(
            a.severity == "warning" and "half-open" in a.message
            for a in alerts
        )
        assert breaker.allow()
        breaker.record_success()
        assert monitor.evaluate() == []

    def test_shed_delta_warns_then_clears(self, deployment):
        clock, __, tdstore, ____, monitor = deployment
        engine = RecommenderEngine(tdstore.client())
        shedder = LoadShedder(clock.now, capacity=1, window=1.0)
        front_end = RecommenderFrontEnd(
            engine, static_items=("s1",), shedder=shedder
        )
        monitor.watch("shedder", shedder)
        monitor.watch("front_end", front_end)
        monitor.snapshot()  # baseline
        front_end.query("u1", 1, 0.0)
        front_end.query("u1", 1, 0.0)  # second query of the window: shed
        alerts = monitor.evaluate()
        assert any(
            a.component == "resilience" and "shed" in a.message
            for a in alerts
        )
        # no new sheds since the last snapshot: the warning clears
        assert not any("shed" in a.message for a in monitor.evaluate())

    def test_below_live_serves_warn(self, deployment):
        clock, __, tdstore, ____, monitor = deployment
        breaker = CircuitBreaker(clock.now, failure_threshold=1, name="store")
        breaker.record_failure()
        engine = RecommenderEngine(tdstore.client(breaker=breaker))
        front_end = RecommenderFrontEnd(engine, static_items=("s1",))
        monitor.watch("front_end", front_end)
        monitor.snapshot()  # baseline
        front_end.query("u1", 1, 0.0)
        alerts = monitor.evaluate()
        assert any(
            a.component == "serving" and "below the live rung" in a.message
            for a in alerts
        )

    def test_degraded_servers_warn_per_layer(self, deployment):
        __, tdaccess, tdstore, ____, monitor = deployment
        tdstore.set_degradation(0, latency=0.2)
        tdaccess.set_degradation(1, error_every=2)
        alerts = monitor.evaluate()
        assert any(
            a.component == "tdstore" and "degraded" in a.message
            for a in alerts
        )
        assert any(
            a.component == "tdaccess" and "degraded" in a.message
            for a in alerts
        )
        snap = monitor.history[-1]
        assert snap["degraded_tdstore_servers"] == [0]
        assert snap["degraded_tdaccess_servers"] == [1]
        tdstore.clear_degradation(0)
        tdaccess.clear_degradation(1)
        assert monitor.evaluate() == []

    def test_summary_mentions_resilience_state(self, deployment):
        clock, __, tdstore, ____, monitor = deployment
        breaker = CircuitBreaker(clock.now, name="store")
        shedder = LoadShedder(clock.now, capacity=4)
        engine = RecommenderEngine(tdstore.client())
        front_end = RecommenderFrontEnd(engine, shedder=shedder)
        monitor.watch("breakers", breaker, name="store")
        monitor.watch("shedder", shedder)
        monitor.watch("front_end", front_end)
        front_end.query("u1", 1, 0.0)
        text = monitor.summary()
        assert "breaker_states={'store': 'closed'}" in text
        assert "shedder: shed_counts=" in text
        assert "serving_rungs={" in text


class TestServingSignals:
    """A real ServingLayer attached to the monitor: its counters become
    signals, and a downed shard fires the serving rows on their growth."""

    def test_downed_shards_fire_the_serving_rows(self):
        clock = SimClock()
        store = TDStoreCluster(num_data_servers=2, num_instances=8)
        client = store.client()
        users = [f"u{i}" for i in range(8)]
        for user in users:
            client.put(StateKeys.recent(user), [("i1", 5.0, 0.0)])
            client.put(StateKeys.history(user), {"i1": 5.0})
        client.put(StateKeys.sim_list("i1"), {"i2": 0.9, "i3": 0.8})
        store.sync_replicas()
        breaker = CircuitBreaker(clock.now, failure_threshold=1, name="store")
        engine = RecommenderEngine(store.client(breaker=breaker), EngineConfig())
        serving = ServingLayer(engine, clock.now, result_ttl=5.0)
        front_end = RecommenderFrontEnd(engine, serving=serving)
        monitor = SystemMonitor(clock.now)
        monitor.watch("serving", serving)
        monitor.watch("front_end", front_end)

        def query_all():
            clock.advance(10.0)  # past the TTL: no answer is fresh
            for user in users:
                front_end.query(user, 2, clock.now())

        query_all()  # healthy: warms the result cache
        snap = monitor.snapshot()
        assert snap["serving_tiers"]["batched_live"] == len(users)
        assert (snap["store_hedged_reads"], snap["store_degraded_keys"]) == (0, 0)
        assert monitor.evaluate(snap) == []

        # one of two servers down: no failover target, reads hedge
        store.crash_data_server(0)
        query_all()
        snap = monitor.snapshot()
        hedged = snap["store_hedged_reads"]
        assert hedged > 0 and snap["store_degraded_keys"] == 0
        assert monitor.evaluate(snap) == [Alert(
            "warning", "serving", f"{hedged} hedged replica read(s) since last "
            "snapshot (primary shard slow or down; replica data may trail "
            "replication)",
        )]

        # both down: the first batch degrades to defaults (an empty live
        # answer), the breaker opens, and the ladder serves the rest their
        # last-known-good answers on the cache rung
        store.crash_data_server(1)
        query_all()
        snap = monitor.snapshot()
        degraded, rungs = snap["store_degraded_keys"], snap["serving_rungs"]
        below = len(users)
        assert rungs["live"] == 2 * len(users) and rungs["cache"] == below - 1
        assert degraded > 0 and snap["store_hedged_reads"] == hedged
        assert monitor.evaluate(snap) == [
            Alert("warning", "serving", f"{below} query(ies) served below the "
                  "live rung since last snapshot"),
            Alert("critical", "serving", f"{degraded} key(s) served defaults "
                  "after shard failure since last snapshot (partial-batch "
                  "degradation active)"),
        ]
        assert monitor.evaluate(monitor.snapshot()) == []  # no growth, no rows


class StubSupervisor:
    """Anything with ``robustness_stats()`` qualifies — the monitor is
    duck-typed so simulator tests don't spawn real processes."""

    def __init__(self):
        self.stats = {
            "kills": 0,
            "respawns": 0,
            "heartbeat_miss_streaks": {},
        }

    def robustness_stats(self):
        return {
            "kills": self.stats["kills"],
            "respawns": self.stats["respawns"],
            "heartbeat_miss_streaks": dict(
                self.stats["heartbeat_miss_streaks"]
            ),
        }


class TestSupervisorSignals:
    def test_robustness_counters_flow_into_snapshot(self):
        supervisor = StubSupervisor()
        monitor = SystemMonitor(clock_now=lambda: 0.0)
        monitor.watch("supervisor", supervisor)
        supervisor.stats["kills"] = 1
        supervisor.stats["respawns"] = 2
        supervisor.stats["heartbeat_miss_streaks"] = {"tdstore-host-0": 2}
        snap = monitor.snapshot()
        assert snap["supervisor_kills"] == 1
        assert snap["supervisor_respawns"] == 2
        assert snap["heartbeat_miss_streaks"] == {"tdstore-host-0": 2}

    def test_hang_kill_delta_is_critical(self):
        supervisor = StubSupervisor()
        monitor = SystemMonitor(clock_now=lambda: 0.0)
        monitor.watch("supervisor", supervisor)
        assert monitor.evaluate() == []
        supervisor.stats["kills"] = 1
        alerts = monitor.evaluate()
        assert any(
            a.severity == "critical" and a.component == "runtime"
            and "force-killed 1 hung" in a.message
            for a in alerts
        )
        # delta-based: no new kills, the alert clears
        assert monitor.evaluate() == []

    def test_respawn_delta_warns_then_clears(self):
        supervisor = StubSupervisor()
        monitor = SystemMonitor(clock_now=lambda: 0.0)
        monitor.watch("supervisor", supervisor)
        monitor.snapshot()  # baseline
        supervisor.stats["respawns"] = 3
        alerts = monitor.evaluate()
        assert any(
            a.severity == "warning" and a.component == "runtime"
            and "respawned 3 child" in a.message
            for a in alerts
        )
        assert monitor.evaluate() == []

    def test_heartbeat_miss_streak_warns_at_threshold(self):
        supervisor = StubSupervisor()
        monitor = SystemMonitor(
            clock_now=lambda: 0.0, max_heartbeat_misses=3
        )
        monitor.watch("supervisor", supervisor)
        supervisor.stats["heartbeat_miss_streaks"] = {"storm-worker-1": 2}
        assert monitor.evaluate() == []  # below threshold
        supervisor.stats["heartbeat_miss_streaks"] = {"storm-worker-1": 3}
        alerts = monitor.evaluate()
        assert any(
            a.severity == "warning" and a.component == "runtime"
            and "storm-worker-1" in a.message
            and "3 consecutive" in a.message
            for a in alerts
        )

    def test_summary_mentions_supervisor(self):
        supervisor = StubSupervisor()
        monitor = SystemMonitor(clock_now=lambda: 0.0)
        monitor.watch("supervisor", supervisor)
        supervisor.stats["kills"] = 1
        supervisor.stats["respawns"] = 4
        supervisor.stats["heartbeat_miss_streaks"] = {"tdstore-host-1": 2}
        text = monitor.summary()
        assert "supervisor: supervisor_kills=1" in text
        assert "supervisor_respawns=4" in text
        assert "heartbeat_miss_streaks={'tdstore-host-1': 2}" in text
