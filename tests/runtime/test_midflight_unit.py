"""Unit coverage for non-quiescent chaos scheduling: the injector's
counter-keyed triggers, OnlineInvariantMonitor, and barrier-plan
re-keying — all against fake clusters/runtimes, no processes."""

import pickle

import pytest

from repro.errors import FaultPlanError
from repro.recovery.faults import (
    COUNTERS,
    MIDFLIGHT_POLL_EVERY,
    Fault,
    FaultInjector,
    Trigger,
)
from repro.runtime.chaos import OnlineInvariantMonitor, rekey_plan_midflight
from repro.runtime.rpc import RemoteOpError


class FakeCluster:
    def __init__(self):
        self.hooks = []

    def add_execute_hook(self, hook):
        self.hooks.append(hook)

    def remove_execute_hook(self, hook):
        self.hooks.remove(hook)

    def add_barrier_hook(self, hook):
        pass

    def remove_barrier_hook(self, hook):
        pass

    def execute(self, n=1, topology="app"):
        for _ in range(n):
            for hook in list(self.hooks):
                hook(topology)


class FakeRuntime:
    """Stands in for ``ChaosRuntime``: records the host kills the
    injector fires and serves the remote counters it polls."""

    def __init__(self, counter_source=None):
        self.fired = []
        self.progress = counter_source

    def kill_host(self, host_index):
        self.fired.append(kill(host_index))


def kill(host=0):
    return Fault(1, "host_sigkill", (host,))


def tuples_only():  # pragma: no cover - must not run
    raise AssertionError("polled despite tuples-only plan")


class TestTriggerValidation:
    def test_counters_are_closed_set(self):
        for counter in COUNTERS:
            Trigger(counter, 5)
        with pytest.raises(FaultPlanError):
            Trigger("wall_clock", 5)

    def test_negative_threshold_refused(self):
        with pytest.raises(FaultPlanError):
            Trigger("tuples", -1)

    def test_trigger_pickles(self):
        trigger = Trigger("wal_records", 40)
        assert pickle.loads(pickle.dumps(trigger)) == trigger


class TestMidFlightScheduler:
    def test_fires_when_tuple_counter_crosses(self):
        cluster, runtime = FakeCluster(), FakeRuntime(tuples_only)
        fault = kill()
        injector = FaultInjector(
            [(Trigger("tuples", 3), fault)], runtime=runtime
        )
        injector.attach(cluster)
        cluster.execute(2)
        assert runtime.fired == []
        assert injector.remaining == [fault]
        cluster.execute(1)
        assert runtime.fired == [fault]
        assert injector.fired_midflight == [fault]
        assert injector.exhausted
        cluster.execute(5)  # never refires
        assert runtime.fired == [fault]

    def test_simulator_fallback_degrades_remote_counters_to_tuples(self):
        cluster = FakeCluster()
        injector = FaultInjector(
            [
                (Trigger("rpcs", 2), kill(0)),
                (Trigger("wal_records", 4), kill(1)),
            ]
        )
        injector.attach(cluster)  # no runtime: nothing to poll
        cluster.execute(2)
        assert injector.fired_midflight == [kill(0)]
        cluster.execute(2)
        assert injector.fired_midflight == [kill(0), kill(1)]
        # ...and the process-native kinds are recorded, not fired
        assert injector.skipped == [kill(0), kill(1)]

    def test_remote_counter_source_is_polled_sparsely(self):
        polls = []

        def source():
            polls.append(len(polls))
            return {"rpcs": 100, "wal_records": 0}

        cluster, runtime = FakeCluster(), FakeRuntime(source)
        injector = FaultInjector(
            [(Trigger("rpcs", 50), kill())], runtime=runtime
        )
        injector.attach(cluster)
        cluster.execute(MIDFLIGHT_POLL_EVERY - 1)
        assert polls == []  # below the poll cadence
        assert runtime.fired == []
        cluster.execute(1)
        assert len(polls) == 1  # polled once, crossed, fired
        assert runtime.fired == [kill()]
        cluster.execute(MIDFLIGHT_POLL_EVERY * 3)
        assert len(polls) == 1  # nothing pending: polling stops

    def test_tuples_trigger_never_polls_remote(self):
        cluster, runtime = FakeCluster(), FakeRuntime(tuples_only)
        injector = FaultInjector(
            [(Trigger("tuples", 2), kill())], runtime=runtime
        )
        injector.attach(cluster)
        cluster.execute(8)
        assert runtime.fired == [kill()]

    def test_poll_tolerates_host_mid_respawn(self):
        calls = []

        def source():
            calls.append(True)
            if len(calls) == 1:
                raise RemoteOpError("host mid-respawn")
            return {"rpcs": 9, "wal_records": 9}

        cluster, runtime = FakeCluster(), FakeRuntime(source)
        injector = FaultInjector(
            [(Trigger("wal_records", 5), kill())], runtime=runtime
        )
        injector.attach(cluster)
        cluster.execute(MIDFLIGHT_POLL_EVERY)  # first poll raises
        assert runtime.fired == []
        cluster.execute(MIDFLIGHT_POLL_EVERY)  # second poll succeeds
        assert runtime.fired == [kill()]

    def test_flush_fires_unreached_triggers(self):
        cluster, runtime = FakeCluster(), FakeRuntime(tuples_only)
        near, far = kill(0), kill(1)
        injector = FaultInjector(
            [
                (Trigger("tuples", 1), near),
                (Trigger("tuples", 1000), far),
            ],
            runtime=runtime,
        )
        injector.attach(cluster)
        cluster.execute(3)
        assert injector.fired_midflight == [near]
        assert injector.flush() == 1
        assert injector.flushed == [far]
        assert runtime.fired == [near, far]
        assert injector.flush() == 0  # idempotent

    def test_fired_flags_survive_reattach(self):
        # the harness rebuilds its cluster after a crash; a re-attached
        # injector must not replay already-fired faults
        cluster, runtime = FakeCluster(), FakeRuntime(tuples_only)
        injector = FaultInjector(
            [(Trigger("tuples", 2), kill())], runtime=runtime
        )
        injector.attach(cluster)
        cluster.execute(2)
        assert len(runtime.fired) == 1
        rebuilt = FakeCluster()
        injector.attach(rebuilt)
        assert cluster.hooks == []  # detached from the old cluster
        rebuilt.execute(10)
        assert len(runtime.fired) == 1

    def test_detach_stops_counting(self):
        cluster, runtime = FakeCluster(), FakeRuntime(tuples_only)
        injector = FaultInjector(
            [(Trigger("tuples", 3), kill())], runtime=runtime
        )
        injector.attach(cluster)
        cluster.execute(2)
        injector.detach()
        cluster.execute(10)
        assert runtime.fired == []
        assert injector.remaining == [kill()]


class FakeRouteConfig:
    def __init__(self):
        self.version = 0

    def route_table(self):
        return self


class FakeHarness:
    def __init__(self):
        self.tdstore = type("S", (), {})()
        self.tdstore.config = FakeRouteConfig()
        self.cluster = self
        self.ledgers = {"count[0]": {"within_bound": True}}

    def exactly_once_stats(self, name):
        if self.ledgers is None:
            raise RemoteOpError("worker mid-respawn")
        return self.ledgers


class TestOnlineInvariantMonitor:
    def test_probes_on_cadence(self):
        harness, cluster = FakeHarness(), FakeCluster()
        monitor = OnlineInvariantMonitor(harness, every=4)
        monitor.attach(cluster)
        cluster.execute(11)
        assert monitor.probes == 2
        assert monitor.violations == []

    def test_route_epoch_regression_is_a_violation(self):
        harness, cluster = FakeHarness(), FakeCluster()
        monitor = OnlineInvariantMonitor(harness, every=1)
        monitor.attach(cluster)
        harness.tdstore.config.version = 5
        cluster.execute(1)
        harness.tdstore.config.version = 3  # regressed
        cluster.execute(1)
        assert any("regressed" in v for v in monitor.violations)

    def test_epoch_advance_is_not_a_violation(self):
        harness, cluster = FakeHarness(), FakeCluster()
        monitor = OnlineInvariantMonitor(harness, every=1)
        monitor.attach(cluster)
        for version in (1, 4, 4, 9):
            harness.tdstore.config.version = version
            cluster.execute(1)
        assert monitor.violations == []

    def test_out_of_bound_ledger_is_a_violation(self):
        harness, cluster = FakeHarness(), FakeCluster()
        monitor = OnlineInvariantMonitor(harness, every=1)
        monitor.attach(cluster)
        harness.ledgers["count[0]"]["within_bound"] = False
        cluster.execute(1)
        assert any("watermark" in v for v in monitor.violations)

    def test_unavailability_is_not_a_violation(self):
        harness, cluster = FakeHarness(), FakeCluster()

        def down():
            raise RemoteOpError("config host dead")

        harness.tdstore.config.route_table = down
        harness.ledgers = None  # exactly_once_stats will raise too
        monitor = OnlineInvariantMonitor(harness, every=1)
        monitor.attach(cluster)
        cluster.execute(4)
        assert monitor.probes == 4
        assert monitor.violations == []

    def test_serve_probe_accumulates(self):
        harness, cluster = FakeHarness(), FakeCluster()
        monitor = OnlineInvariantMonitor(
            harness, every=2, serve_probe=lambda: (3, 2)
        )
        monitor.attach(cluster)
        cluster.execute(4)
        assert (monitor.serve_attempts, monitor.serve_answered) == (6, 4)


class TestRekeyPlanMidflight:
    PLAN = [
        Fault(2, "host_sigkill", (1,)),
        Fault(4, "one_way_partition", (0, "inbound", 1)),
        Fault(7, "worker_sigkill", (0, 3, 8)),
    ]

    def test_deterministic_for_a_seed(self):
        a = rekey_plan_midflight(self.PLAN, 25, seed=3)
        b = rekey_plan_midflight(self.PLAN, 25, seed=3)
        assert [(t, f.kind) for t, f in a] == [(t, f.kind) for t, f in b]
        c = rekey_plan_midflight(self.PLAN, 25, seed=4)
        assert [t for t, _ in a] != [t for t, _ in c]

    def test_triggers_land_inside_their_round(self):
        for trigger, fault in rekey_plan_midflight(self.PLAN, 25, seed=1):
            assert trigger.counter == "tuples"
            lo = (fault.round - 1) * 25
            assert lo < trigger.at <= lo + 25

    def test_ordering_follows_barrier_rounds(self):
        entries = rekey_plan_midflight(self.PLAN, 25, seed=9)
        ats = [t.at for t, _ in entries]
        assert ats == sorted(ats)

    def test_zero_width_rounds_refused(self):
        with pytest.raises(FaultPlanError):
            rekey_plan_midflight(self.PLAN, 0)
