"""Tests for the signal-driven autoscaler.

The contract under test: decisions come only from monitor snapshots,
hysteresis (sustain counts) and cooldown prevent flapping, dry-run mode
records without acting, and every decision is observable through the
monitor's own snapshot/alert surface.
"""

from repro.elastic import Autoscaler, InstanceMigrator, ThresholdHysteresisPolicy
from repro.monitoring import SystemMonitor, SystemSnapshot
from repro.tdstore.cluster import TDStoreCluster


class FakeStorm:
    """Duck-typed LocalCluster surface the autoscaler touches."""

    def __init__(self, parallelism, depths):
        self.parallelism = dict(parallelism)
        self.depths = dict(depths)
        self.rebalances = []

    def queue_depths(self, topology):
        return dict(self.depths)

    def parallelism_of(self, topology, component):
        return self.parallelism[component]

    def rebalance(self, topology, component, parallelism):
        self.rebalances.append((component, parallelism))
        self.parallelism[component] = parallelism


def make_monitor():
    return SystemMonitor(clock_now=lambda: 0.0)


def snap(t, **signals):
    return SystemSnapshot(timestamp=t, signals=signals)


def make_autoscaler(storm, policy=None, **kwargs):
    return Autoscaler(
        make_monitor(),
        storm=storm,
        topology="topo",
        components=["count"],
        policy=policy or ThresholdHysteresisPolicy(
            queue_high_per_task=10, queue_low_per_task=1,
            sustain_up=2, sustain_down=2, cooldown=60.0,
        ),
        **kwargs,
    )


class TestHysteresis:
    def test_single_pressured_snapshot_holds(self):
        storm = FakeStorm({"count": 2}, {"count": 100})
        scaler = make_autoscaler(storm)
        decisions = scaler.evaluate(snap(0.0))
        assert [d.action for d in decisions] == ["hold"]
        assert storm.rebalances == []

    def test_sustained_pressure_doubles_parallelism(self):
        storm = FakeStorm({"count": 2}, {"count": 100})
        scaler = make_autoscaler(storm)
        scaler.evaluate(snap(0.0))
        decisions = scaler.evaluate(snap(10.0))
        assert decisions[-1].action == "scale_up"
        assert decisions[-1].applied
        assert storm.rebalances == [("count", 4)]
        assert "queue depth" in decisions[-1].reason

    def test_pressure_counter_resets_between_watermarks(self):
        storm = FakeStorm({"count": 2}, {"count": 100})
        scaler = make_autoscaler(storm)
        scaler.evaluate(snap(0.0))
        storm.depths["count"] = 10  # back between the watermarks
        scaler.evaluate(snap(10.0))
        storm.depths["count"] = 100
        decisions = scaler.evaluate(snap(20.0))
        # one pressured snapshot after the reset: still holding
        assert decisions[-1].action == "hold"
        assert storm.rebalances == []

    def test_sustained_relief_halves_parallelism(self):
        storm = FakeStorm({"count": 8}, {"count": 0})
        scaler = make_autoscaler(storm)
        scaler.evaluate(snap(0.0))
        decisions = scaler.evaluate(snap(10.0))
        assert decisions[-1].action == "scale_down"
        assert decisions[-1].applied
        assert storm.rebalances == [("count", 4)]

    def test_scale_down_respects_min_parallelism(self):
        storm = FakeStorm({"count": 1}, {"count": 0})
        scaler = make_autoscaler(storm)
        scaler.evaluate(snap(0.0))
        decisions = scaler.evaluate(snap(10.0))
        # already at the floor: no decision at all (nothing to halve)
        assert all(d.action != "scale_down" for d in decisions)
        assert storm.rebalances == []

    def test_scale_up_capped_at_max_parallelism(self):
        policy = ThresholdHysteresisPolicy(
            queue_high_per_task=10, sustain_up=1, max_parallelism=4,
        )
        storm = FakeStorm({"count": 4}, {"count": 1000})
        scaler = make_autoscaler(storm, policy=policy)
        decisions = scaler.evaluate(snap(0.0))
        assert decisions[-1].action == "hold"
        assert "max parallelism" in decisions[-1].reason


class TestCooldown:
    def test_applied_action_starts_cooldown(self):
        storm = FakeStorm({"count": 2}, {"count": 100})
        scaler = make_autoscaler(storm)
        scaler.evaluate(snap(0.0))
        scaler.evaluate(snap(10.0))  # applies scale_up at t=10
        scaler.evaluate(snap(20.0))
        decisions = scaler.evaluate(snap(30.0))
        # still pressured, but inside the 60s cooldown window
        assert decisions[-1].action == "hold"
        assert "cooldown" in decisions[-1].reason
        assert storm.rebalances == [("count", 4)]

    def test_cooldown_expires(self):
        storm = FakeStorm({"count": 2}, {"count": 100})
        scaler = make_autoscaler(storm)
        scaler.evaluate(snap(0.0))
        scaler.evaluate(snap(10.0))    # scale_up 2 -> 4 at t=10
        scaler.evaluate(snap(100.0))   # pressure 1/2 (counters were reset)
        decisions = scaler.evaluate(snap(110.0))
        assert decisions[-1].action == "scale_up"
        assert storm.rebalances == [("count", 4), ("count", 8)]


class TestGlobalPressureSignals:
    def test_shed_rate_counts_as_pressure(self):
        storm = FakeStorm({"count": 2}, {"count": 6})  # 3/task: moderate
        scaler = make_autoscaler(storm)
        scaler.evaluate(snap(0.0, shed_rate=0.2))
        decisions = scaler.evaluate(snap(10.0, shed_rate=0.2))
        assert decisions[-1].action == "scale_up"
        assert "shed rate" in decisions[-1].reason

    def test_open_breaker_counts_as_pressure(self):
        storm = FakeStorm({"count": 2}, {"count": 6})
        scaler = make_autoscaler(storm)
        states = {"tdstore": "open"}
        scaler.evaluate(snap(0.0, breaker_states=states))
        decisions = scaler.evaluate(snap(10.0, breaker_states=states))
        assert decisions[-1].action == "scale_up"
        assert "breaker" in decisions[-1].reason

    def test_no_scale_down_while_global_pressure(self):
        storm = FakeStorm({"count": 8}, {"count": 0})
        scaler = make_autoscaler(storm)
        for t in range(5):
            decisions = scaler.evaluate(snap(float(t), shed_rate=0.5))
            assert all(d.action != "scale_down" for d in decisions)
        assert storm.rebalances == []


class TestDryRun:
    def test_decisions_recorded_but_not_applied(self):
        storm = FakeStorm({"count": 2}, {"count": 100})
        scaler = make_autoscaler(storm, dry_run=True)
        scaler.evaluate(snap(0.0))
        decisions = scaler.evaluate(snap(10.0))
        assert decisions[-1].action == "scale_up"
        assert not decisions[-1].applied
        assert storm.rebalances == []
        assert storm.parallelism["count"] == 2


class TestStoreExpansion:
    def test_sustained_backlog_expands_and_rebalances(self):
        tdstore = TDStoreCluster(num_data_servers=3, num_instances=12)
        client = tdstore.client()
        for i in range(40):
            client.put(f"hist:u{i}", i)
        monitor = make_monitor()
        scaler = Autoscaler(
            monitor,
            tdstore=tdstore,
            migrator=InstanceMigrator(tdstore),
            policy=ThresholdHysteresisPolicy(
                backlog_high=100, sustain_up=2, cooldown=60.0,
            ),
        )
        scaler.evaluate(snap(0.0, replication_backlog=500))
        decisions = scaler.evaluate(snap(10.0, replication_backlog=500))
        assert decisions[-1].action == "expand_store"
        assert decisions[-1].applied
        assert len(tdstore.data_servers) == 4
        assert decisions[-1].detail["migrations"] > 0
        load = tdstore.config.route_table().host_load()
        spread = [load.get(s.server_id, 0) for s in tdstore.data_servers]
        assert max(spread) - min(spread) <= 1
        assert all(client.get(f"hist:u{i}") == i for i in range(40))

    def test_read_imbalance_triggers_expansion(self):
        tdstore = TDStoreCluster(num_data_servers=3, num_instances=12)
        scaler = Autoscaler(
            make_monitor(),
            tdstore=tdstore,
            policy=ThresholdHysteresisPolicy(
                imbalance_high=2.0, sustain_up=1, cooldown=60.0,
            ),
        )
        decisions = scaler.evaluate(
            snap(0.0, tdstore_reads={"0": 1000, "1": 10, "2": 10})
        )
        assert decisions[-1].action == "expand_store"
        assert "imbalance" in decisions[-1].reason

    def test_expansion_capped_at_max_pool(self):
        tdstore = TDStoreCluster(num_data_servers=3, num_instances=12)
        scaler = Autoscaler(
            make_monitor(),
            tdstore=tdstore,
            policy=ThresholdHysteresisPolicy(
                backlog_high=100, sustain_up=1, max_store_servers=3,
            ),
        )
        decisions = scaler.evaluate(snap(0.0, replication_backlog=500))
        assert decisions[-1].action == "hold"
        assert "max pool size" in decisions[-1].reason
        assert len(tdstore.data_servers) == 3


class TestMonitorIntegration:
    def test_decisions_surface_in_snapshot_and_alerts(self):
        tdstore = TDStoreCluster(num_data_servers=3, num_instances=12)
        monitor = SystemMonitor(clock_now=lambda: 0.0)
        monitor.watch("tdstore", tdstore)
        scaler = Autoscaler(
            monitor,
            tdstore=tdstore,
            migrator=InstanceMigrator(tdstore),
            policy=ThresholdHysteresisPolicy(backlog_high=100, sustain_up=1),
        )
        baseline = monitor.snapshot()
        assert baseline["autoscaler_decisions"] == 0
        scaler.evaluate(snap(1.0, replication_backlog=500))
        after = monitor.snapshot()
        assert after["autoscaler_decisions"] == 1
        assert after["autoscaler_applied"] == 1
        assert after["autoscaler_last_action"] == "expand_store:tdstore"
        assert after["migrations_completed"] > 0
        assert after["route_epoch"] > 0
        alerts = monitor.evaluate(after)
        messages = [a.message for a in alerts if a.component == "elastic"]
        assert any("autoscaler applied" in m for m in messages)
        assert "autoscaler: autoscaler_decisions=1" in monitor.summary()

    def test_in_flight_migration_alerts(self):
        from repro.elastic import Migration

        tdstore = TDStoreCluster(num_data_servers=3, num_instances=12)
        monitor = SystemMonitor(clock_now=lambda: 0.0)
        monitor.watch("tdstore", tdstore)
        target = tdstore.add_data_server()
        migration = Migration(tdstore.config, 0, target)
        migration.begin()
        snapshot = monitor.snapshot()
        assert snapshot["migrations_in_flight"] == 1
        alerts = monitor.evaluate(snapshot)
        assert any(
            "migration(s) in flight" in a.message
            for a in alerts
            if a.component == "elastic"
        )
        migration.finish()
