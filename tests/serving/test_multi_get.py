"""Tests for the TDStore batched read path (multi_get)."""

import pytest

from repro.errors import CircuitOpenError, DeadlineExceededError
from repro.resilience import CircuitBreaker, Deadline
from repro.tdstore import TDStoreCluster
from repro.tdstore.engines import VERSION_PREFIX
from repro.utils.clock import SimClock


def seeded(num_servers=3, num_instances=16, keys=40):
    cluster = TDStoreCluster(
        num_data_servers=num_servers, num_instances=num_instances
    )
    client = cluster.client()
    for index in range(keys):
        client.put(f"key:{index}", index)
    return cluster


class TestBatchParity:
    def test_matches_per_key_gets(self):
        cluster = seeded()
        client = cluster.client()
        keys = [f"key:{i}" for i in range(40)] + ["missing:a", "missing:b"]
        got = client.multi_get(keys, default="absent")
        assert got == {key: client.get(key, "absent") for key in keys}

    def test_empty_batch(self):
        cluster = seeded(keys=0)
        assert cluster.client().multi_get([]) == {}

    def test_one_batch_op_per_server(self):
        cluster = seeded(num_servers=3)
        client = cluster.client()
        keys = [f"key:{i}" for i in range(40)]
        client.multi_get(keys)
        # keys spread over 16 instances on all 3 hosts, which share one
        # process here: one client frame per server process, and one
        # server batch op per logical server the frame names — not one
        # per instance entry, not one per key
        assert client.batch_ops == 1
        assert client.batched_keys == len(keys)
        assert [s.batch_ops for s in cluster.data_servers] == [1, 1, 1]

    def test_versions_ride_the_same_frame(self):
        cluster = seeded(num_servers=3, keys=4)
        client = cluster.client()
        client.put_once("key:1", "op-a", "a")
        client.put_once("key:1", "op-b", "b")
        keys = [f"key:{i}" for i in range(4)]
        plain = client.multi_get(keys)
        assert client.batch_ops == 1
        got = client.multi_get(keys, versions=("key:1", "key:2", "missing"))
        assert client.batch_ops == 2  # the versions added no frame
        assert got == {
            **plain,
            VERSION_PREFIX + "key:1": 2,
            VERSION_PREFIX + "key:2": 0,
            VERSION_PREFIX + "missing": 0,
        }
        assert got[VERSION_PREFIX + "key:1"] == client.get_versioned("key:1")[1]
        assert client.multi_get([], versions=("key:1",)) == {
            VERSION_PREFIX + "key:1": 2,
        }

    def test_duplicate_keys_served_once(self):
        cluster = seeded(keys=4)
        client = cluster.client()
        got = client.multi_get(["key:1", "key:1", "key:2"])
        assert got == {"key:1": 1, "key:2": 2}


class TestEpochGatedRefresh:
    def test_steady_state_never_refetches_the_table(self):
        cluster = seeded()
        client = cluster.client()
        for index in range(30):
            client.put(f"key:{index}", index * 2)
            client.get(f"key:{index}")
        client.multi_get([f"key:{i}" for i in range(30)])
        assert client.route_refreshes == 0

    def test_epoch_change_triggers_exactly_one_refresh(self):
        cluster = seeded()
        observer = cluster.client()
        observer.get("key:0")
        assert observer.route_refreshes == 0
        # another client drives a failover, bumping the route epoch
        cluster.crash_data_server(0)
        driver = cluster.client()
        for index in range(40):
            driver.get(f"key:{index}")
        epoch_before = cluster.config.route_epoch
        assert epoch_before > 0
        # the observer sees the epoch moved and refreshes once, then
        # settles back onto the cheap scalar check
        for index in range(40):
            observer.get(f"key:{index}")
        assert observer.route_refreshes == 1

    def test_multi_get_after_epoch_change(self):
        cluster = seeded()
        observer = cluster.client()
        observer.multi_get(["key:0", "key:1"])
        cluster.crash_data_server(0)
        driver = cluster.client()
        for index in range(40):
            driver.get(f"key:{index}")
        got = observer.multi_get([f"key:{i}" for i in range(40)])
        assert got == {f"key:{i}": i for i in range(40)}
        assert observer.route_refreshes == 1


class TestPartialShardDegradation:
    def test_crashed_server_fails_over_inside_the_batch(self):
        cluster = seeded(num_servers=3)
        client = cluster.client()
        keys = [f"key:{i}" for i in range(40)]
        cluster.crash_data_server(1)
        got = client.multi_get(keys)
        assert got == {f"key:{i}": i for i in range(40)}
        assert client.degraded_keys == 0
        assert client.last_failed_keys == frozenset()

    def test_failover_impossible_hedges_to_replica(self):
        # two servers: a crash leaves too few live servers to
        # re-replicate, so failover raises and the batch must hedge
        cluster = seeded(num_servers=2, num_instances=8, keys=20)
        cluster.sync_replicas()
        client = cluster.client()
        keys = [f"key:{i}" for i in range(20)]
        cluster.crash_data_server(0)
        got = client.multi_get(keys)
        assert got == {f"key:{i}": i for i in range(20)}
        assert client.hedged_reads > 0
        assert client.degraded_keys == 0

    def test_everything_down_degrades_to_defaults_not_an_error(self):
        cluster = seeded(num_servers=2, num_instances=8, keys=10)
        client = cluster.client()
        keys = [f"key:{i}" for i in range(10)]
        cluster.crash_data_server(0)
        cluster.crash_data_server(1)
        got = client.multi_get(keys, default="fallback")
        assert got == {key: "fallback" for key in keys}
        assert client.degraded_keys == len(keys)
        assert client.last_failed_keys == frozenset(keys)

    def test_degraded_batch_records_breaker_failure(self):
        clock = SimClock()
        cluster = seeded(num_servers=2, num_instances=8, keys=10)
        breaker = CircuitBreaker(clock.now, failure_threshold=1, name="store")
        client = cluster.client(breaker=breaker)
        cluster.crash_data_server(0)
        cluster.crash_data_server(1)
        client.multi_get([f"key:{i}" for i in range(10)])
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            client.multi_get(["key:0"])

    def test_deadline_still_aborts_the_whole_batch(self):
        clock = SimClock()
        cluster = seeded(num_servers=3)
        cluster.set_degradation(0, latency=2.0)
        cluster.set_degradation(1, latency=2.0)
        cluster.set_degradation(2, latency=2.0)
        client = cluster.client(clock=clock)
        with client.deadline_scope(Deadline(clock.now, 1.0)):
            with pytest.raises(DeadlineExceededError):
                client.multi_get([f"key:{i}" for i in range(40)])
        assert client.deadline_misses == 1

    def test_injected_error_rate_is_retried_in_place(self):
        cluster = seeded(num_servers=3)
        cluster.set_degradation(0, error_every=2)
        cluster.set_degradation(1, error_every=2)
        cluster.set_degradation(2, error_every=2)
        client = cluster.client()
        keys = [f"key:{i}" for i in range(40)]
        got = client.multi_get(keys)
        # alive-but-flaky servers answer on the in-place retry or the
        # hedge; no key may be silently lost
        assert set(got) == set(keys)
