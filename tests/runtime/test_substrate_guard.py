"""Latency faults mean the same thing on both substrates: every op on
the degraded server costs the latency.

A simulator client charges it to its clock. On real processes the
server host stalls each data frame naming the server (capped at
``REAL_DELAY_CAP``), so the latency is wall time and no client charges
anything on top.
"""

import time

import pytest

from repro.errors import DataServerDownError
from repro.runtime.server_host import REAL_DELAY_CAP
from repro.runtime.substrate import ProcessSubstrate


@pytest.fixture(scope="module")
def store():
    with ProcessSubstrate(worker_procs=1, server_procs=1) as substrate:
        yield substrate.build_tdstore(2, 4)


def routed_to_host(store, instance=0):
    """``(server, key)``: instance ``instance``'s host and a key on it."""
    table = store.config.route_table()
    key = next(
        f"k{i}" for i in range(1000) if table.instance_for_key(f"k{i}") == instance
    )
    return table.route(instance).host, key


def read_seconds(client, key) -> float:
    start = time.perf_counter()
    client.get(key)
    return time.perf_counter() - start


class TestLatencyFaultGuard:
    def test_latency_degradation_stalls_reads_routed_to_the_server(self, store):
        sid, key = routed_to_host(store)
        client = store.client()
        client.put(key, "v")
        store.set_degradation(sid, latency=0.5)
        try:
            assert store.degraded_servers() == [sid]
            assert read_seconds(client, key) >= REAL_DELAY_CAP
        finally:
            store.clear_degradation(sid)

    def test_clear_degradation_ends_the_stall_and_error_faults_still_work(
        self, store
    ):
        sid, key = routed_to_host(store)
        client = store.client()
        store.set_degradation(sid, latency=0.5)
        store.clear_degradation(sid)
        assert store.degraded_servers() == []
        assert min(read_seconds(client, key) for _ in range(5)) < REAL_DELAY_CAP
        # error_every degradation is clock-free: one op in two is dropped
        store.set_degradation(sid, error_every=2)
        try:
            assert store.degraded_servers() == [sid]
            server = store.config.server(sid)
            outcomes = []
            for _ in range(2):
                try:
                    server.get(0, key)
                    outcomes.append("served")
                except DataServerDownError:
                    outcomes.append("dropped")
            assert sorted(outcomes) == ["dropped", "served"]
        finally:
            store.clear_degradation(sid)
        assert store.degraded_servers() == []

    def test_remote_data_server_advertises_zero_latency(self, store):
        # resilience budgets charge server.latency against the client's
        # clock; a remote server never advertises seconds to charge, even
        # while degraded — its host spends them
        sid, __ = routed_to_host(store)
        server = store.config.server(sid)
        assert server.latency == 0.0
        store.set_degradation(sid, latency=0.5)
        try:
            assert server.degraded
            assert server.latency == 0.0
        finally:
            store.clear_degradation(sid)
