"""TDAccess data servers.

Data servers host partitions, cache their message data, and serve
producers and consumers directly (the master is only consulted for
routing). Data servers do not share data with each other — the design
point the paper credits for linear scalability.
"""

from __future__ import annotations

from typing import Any

from repro.errors import PartitionUnavailableError, TDAccessError
from repro.tdaccess.log import PartitionLog
from repro.tdaccess.message import Message


class DataServer:
    """One data-server process hosting a set of partition logs."""

    def __init__(self, server_id: int):
        self.server_id = server_id
        self.alive = True
        self._logs: dict[tuple[str, int], PartitionLog] = {}
        # degradation state (chaos injection): advertised extra latency
        # per request and a deterministic request-drop cadence (brownout)
        self.latency = 0.0
        self.error_every = 0
        self._degraded_ops = 0
        self.injected_errors = 0

    def host_partition(self, log: PartitionLog):
        key = (log.topic, log.partition)
        if key in self._logs:
            raise TDAccessError(
                f"server {self.server_id} already hosts {key[0]}[{key[1]}]"
            )
        self._logs[key] = log

    def partition_count(self) -> int:
        return len(self._logs)

    def _log(self, topic: str, partition: int) -> PartitionLog:
        if not self.alive:
            raise PartitionUnavailableError(
                f"data server {self.server_id} is down"
            )
        try:
            return self._logs[(topic, partition)]
        except KeyError:
            raise PartitionUnavailableError(
                f"server {self.server_id} does not host {topic}[{partition}]"
            ) from None

    # -- degradation (brownouts) ---------------------------------------------

    def set_degradation(
        self, latency: float | None = None, error_every: int | None = None
    ):
        """Enter a degraded (browned-out) mode: advertised extra latency
        and/or dropping every ``error_every``-th request."""
        if latency is not None:
            if latency < 0:
                raise TDAccessError(f"latency must be >= 0: {latency}")
            self.latency = float(latency)
        if error_every is not None:
            if error_every < 0:
                raise TDAccessError(f"error_every must be >= 0: {error_every}")
            self.error_every = int(error_every)

    def clear_degradation(self):
        self.latency = 0.0
        self.error_every = 0

    @property
    def degraded(self) -> bool:
        return self.latency > 0.0 or self.error_every > 0

    def _check_degraded(self, topic: str, partition: int):
        if self.error_every:
            self._degraded_ops += 1
            if self._degraded_ops % self.error_every == 0:
                self.injected_errors += 1
                raise PartitionUnavailableError(
                    f"server {self.server_id} browned out "
                    f"{topic}[{partition}] (drops 1/{self.error_every} "
                    f"requests)"
                )

    def append(
        self, topic: str, partition: int, key: Any, value: Any, timestamp: float
    ) -> Message:
        log = self._log(topic, partition)
        self._check_degraded(topic, partition)
        return log.append(key, value, timestamp)

    def read(
        self, topic: str, partition: int, from_offset: int, max_messages: int
    ) -> list[Message]:
        log = self._log(topic, partition)
        self._check_degraded(topic, partition)
        return log.read(from_offset, max_messages)

    def head_offset(self, topic: str, partition: int) -> int:
        return self._log(topic, partition).next_offset

    def start_offset(self, topic: str, partition: int) -> int:
        """Oldest retained offset (retention may have truncated earlier)."""
        return self._log(topic, partition).start_offset

    def crash(self):
        """Simulate a machine failure; logs are retained (disk survives)."""
        self.alive = False

    def recover(self):
        """Bring the server back; its on-disk logs are intact."""
        self.alive = True
        self.clear_degradation()  # a restarted process is healthy again

    def __repr__(self) -> str:
        state = "up" if self.alive else "DOWN"
        return f"DataServer({self.server_id}, {state}, {len(self._logs)} partitions)"
