"""TDAccess cluster facade.

Wires data servers and the master pair together and hands out producers
and consumers, so application code needs a single object (mirrors how
TencentRec treats TDAccess as one component in Figure 6).
"""

from __future__ import annotations

from repro.errors import TDAccessError
from repro.tdaccess.consumer import Consumer, ConsumerGroup, OffsetStore
from repro.tdaccess.data_server import DataServer
from repro.tdaccess.master import MasterPair
from repro.tdaccess.producer import Producer
from repro.utils.clock import SimClock


class TDAccessCluster:
    """A complete TDAccess deployment."""

    def __init__(self, clock: SimClock, num_data_servers: int = 3):
        if num_data_servers <= 0:
            raise TDAccessError(
                f"need at least one data server: {num_data_servers}"
            )
        self.clock = clock
        self.masters = MasterPair()
        self.offsets = OffsetStore()
        self.data_servers = [DataServer(i) for i in range(num_data_servers)]
        for server in self.data_servers:
            self.masters.active.register_server(server)
        self.masters.sync_standby()

    def create_topic(
        self,
        topic: str,
        num_partitions: int,
        segment_size: int = 1024,
        retention_segments: int | None = None,
    ):
        self.masters.active.create_topic(
            topic, num_partitions, segment_size, retention_segments
        )
        self.masters.sync_standby()

    def producer(self, **resilience) -> Producer:
        """A new producer; ``retry`` forwards to it."""
        return Producer(self.masters, self.clock, **resilience)

    def consumer(
        self,
        topic: str,
        partitions: list[int] | None = None,
        group_id: str | None = None,
    ) -> Consumer:
        offset_store = self.offsets if group_id is not None else None
        return Consumer(
            self.masters, topic, partitions,
            group_id=group_id, offset_store=offset_store,
        )

    def consumer_group(self, topic: str, num_consumers: int) -> ConsumerGroup:
        return ConsumerGroup(self.masters, topic, num_consumers)

    def crash_data_server(self, server_id: int):
        self._server(server_id).crash()

    def recover_data_server(self, server_id: int):
        self._server(server_id).recover()

    def _server(self, server_id: int) -> DataServer:
        for server in self.data_servers:
            if server.server_id == server_id:
                return server
        raise TDAccessError(f"unknown data server {server_id}")

    def failover_master(self):
        """Kill the active master; the standby takes over transparently."""
        self.masters.kill_active()

    # -- degradation (chaos: brownouts, latency spikes) -------------------

    def set_degradation(
        self,
        server_id: int,
        latency: float | None = None,
        error_every: int | None = None,
    ):
        self._server(server_id).set_degradation(latency, error_every)

    def clear_degradation(self, server_id: int):
        self._server(server_id).clear_degradation()

    def degraded_servers(self) -> list[int]:
        return [s.server_id for s in self.data_servers if s.degraded]

    def partition_balance(self, topic: str) -> dict[int, int]:
        """server id -> number of partitions of ``topic`` it hosts."""
        balance: dict[int, int] = {}
        for __, server_id in self.masters.active.partition_map(topic).items():
            balance[server_id] = balance.get(server_id, 0) + 1
        return balance
