"""TDAccess consumers and consumer groups.

Consumers pull messages per partition and track their own offsets, so a
consumer that was absent (the paper's "temporary absence of the real-time
computation systems") resumes from where it left off, and an offline
system can replay from offset zero. A :class:`ConsumerGroup` splits a
topic's partitions across member consumers so they poll in parallel.
"""

from __future__ import annotations

from repro.errors import (
    ConsumerGroupError,
    MasterUnavailableError,
    PartitionUnavailableError,
)
from repro.tdaccess.data_server import DataServer
from repro.tdaccess.master import MasterPair
from repro.tdaccess.message import Message

_ROUTING_FAILURES = (MasterUnavailableError, PartitionUnavailableError)


class OffsetStore:
    """Server-side committed offsets, keyed by (group, topic, partition).

    Lives with the cluster, not the consumer process, so a consumer that
    crashes and restarts resumes from its last commit — the paper's
    "temporary absence of the real-time computation systems".
    """

    def __init__(self):
        self._offsets: dict[tuple[str, str, int], int] = {}

    def commit(self, group: str, topic: str, partition: int, offset: int):
        self._offsets[(group, topic, partition)] = offset

    def committed(self, group: str, topic: str, partition: int) -> int | None:
        return self._offsets.get((group, topic, partition))


class Consumer:
    """A single consumer reading an explicit set of partitions.

    With ``group_id`` and an :class:`OffsetStore`, progress can be
    committed server-side and is restored on construction.
    """

    def __init__(
        self,
        masters: MasterPair,
        topic: str,
        partitions: list[int] | None = None,
        group_id: str | None = None,
        offset_store: "OffsetStore | None" = None,
    ):
        if (group_id is None) != (offset_store is None):
            raise ConsumerGroupError(
                "group_id and offset_store must be provided together"
            )
        self._masters = masters
        self.topic = topic
        self.group_id = group_id
        self._offset_store = offset_store
        total = masters.active.num_partitions(topic)
        if partitions is None:
            partitions = list(range(total))
        bad = [p for p in partitions if p < 0 or p >= total]
        if bad:
            raise ConsumerGroupError(
                f"partitions {bad} out of range for topic {topic!r} ({total})"
            )
        self.partitions = list(partitions)
        self._offsets: dict[int, int] = {}
        for partition in partitions:
            committed = None
            if offset_store is not None and group_id is not None:
                committed = offset_store.committed(group_id, topic, partition)
            self._offsets[partition] = (
                committed if committed is not None else 0
            )
        self.received = 0
        self.poll_retries = 0

    def commit(self):
        """Persist current positions to the cluster's offset store."""
        if self._offset_store is None or self.group_id is None:
            raise ConsumerGroupError(
                "commit() needs a group_id and an offset store"
            )
        for partition, offset in self._offsets.items():
            self._offset_store.commit(
                self.group_id, self.topic, partition, offset
            )

    def position(self, partition: int) -> int:
        return self._offsets[partition]

    def positions(self) -> dict[int, int]:
        """Offset snapshot of every owned partition (checkpoint capture)."""
        return dict(self._offsets)

    def seek(self, partition: int, offset: int):
        if partition not in self._offsets:
            raise ConsumerGroupError(
                f"consumer does not own partition {partition}"
            )
        self._offsets[partition] = offset

    def seek_all(self, offsets: dict[int, int]):
        """Restore every partition position from a checkpoint snapshot."""
        for partition, offset in offsets.items():
            self.seek(partition, offset)

    def earliest(self, partition: int) -> int | None:
        """Oldest retained offset of ``partition``, or None if it is down.

        Recovery uses this to detect checkpoints whose replay range has
        been truncated by retention before replaying a single message.
        """
        if partition not in self._offsets:
            raise ConsumerGroupError(
                f"consumer does not own partition {partition}"
            )
        try:
            server = self._masters.active.route(self.topic, partition)
        except PartitionUnavailableError:
            return None
        return server.start_offset(self.topic, partition)

    def _route_with_retry(self, partition: int) -> "DataServer | None":
        """Route through the acting master, retrying once through failover.

        A first failure may be a stale master (mid-failover) or a
        just-died data server: re-querying :attr:`MasterPair.active`
        picks up the standby's mirrored placement. A second failure
        means the partition is genuinely down right now.
        """
        for attempt in range(2):
            try:
                return self._masters.active.route(self.topic, partition)
            except _ROUTING_FAILURES:
                if attempt == 0:
                    self.poll_retries += 1
        return None

    def _read_with_retry(
        self, partition: int, max_messages: int
    ) -> list[Message] | None:
        """Read a batch, re-routing and retrying once on failure (a
        browned-out server drops some requests; a retry usually lands)."""
        server = self._route_with_retry(partition)
        if server is None:
            return None
        for attempt in range(2):
            try:
                return server.read(
                    self.topic, partition, self._offsets[partition], max_messages
                )
            except PartitionUnavailableError:
                if attempt == 1:
                    return None
                self.poll_retries += 1
                server = self._route_with_retry(partition)
                if server is None:
                    return None
        return None

    def poll(self, max_per_partition: int = 256) -> list[Message]:
        """Fetch new messages from every owned, live partition.

        Dead partitions are skipped after one retried route (their
        messages are delivered after the hosting server recovers),
        matching the availability story of §3.2.
        """
        out: list[Message] = []
        for partition in self.partitions:
            batch = self._read_with_retry(partition, max_per_partition)
            if batch:
                self._offsets[partition] = batch[-1].offset + 1
                out.extend(batch)
        self.received += len(out)
        return out

    def drain(self, max_per_partition: int = 256) -> list[Message]:
        """Poll until no partition returns anything new."""
        out: list[Message] = []
        while True:
            batch = self.poll(max_per_partition)
            if not batch:
                return out
            out.extend(batch)

    def lag(self) -> int:
        """Total messages available but not yet consumed (live partitions)."""
        master = self._masters.active
        total = 0
        for partition in self.partitions:
            try:
                server = master.route(self.topic, partition)
            except PartitionUnavailableError:
                continue
            total += server.head_offset(self.topic, partition) - self._offsets[
                partition
            ]
        return total


class ConsumerGroup:
    """Splits a topic's partitions across ``num_consumers`` members."""

    def __init__(self, masters: MasterPair, topic: str, num_consumers: int):
        if num_consumers <= 0:
            raise ConsumerGroupError(
                f"need at least one consumer: {num_consumers}"
            )
        total = masters.active.num_partitions(topic)
        if num_consumers > total:
            raise ConsumerGroupError(
                f"{num_consumers} consumers for {total} partitions: "
                "some would idle"
            )
        self.members: list[Consumer] = []
        for index in range(num_consumers):
            owned = [p for p in range(total) if p % num_consumers == index]
            self.members.append(Consumer(masters, topic, owned))

    def poll_all(self, max_per_partition: int = 256) -> list[Message]:
        """Poll every member once; returns the combined batch."""
        out: list[Message] = []
        for member in self.members:
            out.extend(member.poll(max_per_partition))
        return out
