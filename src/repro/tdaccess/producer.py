"""TDAccess producers.

A producer asks the master for the partition map once per topic, then
talks to data servers directly (Figure 2's flow). Keyed messages are
hashed so one key always lands in one partition; unkeyed messages are
spread round-robin.

Because the routing master is cached per topic, a master failover makes
the cached reference a dead process; and a data server can die or brown
out between routing and the append. Rather than surface either to the
caller (and lose the write), :meth:`Producer.send` re-queries
:class:`~repro.tdaccess.master.MasterPair` for the acting master and
retries — once by default, or under a full
:class:`~repro.resilience.RetryPolicy` with backoff when one is given.
"""

from __future__ import annotations

from typing import Any

from repro.errors import MasterUnavailableError, PartitionUnavailableError
from repro.resilience.retry import RetryPolicy
from repro.tdaccess.master import MasterPair, MasterServer
from repro.tdaccess.message import Message
from repro.utils.clock import SimClock
from repro.utils.hashing import partition_for_key

_ROUTING_FAILURES = (MasterUnavailableError, PartitionUnavailableError)


class Producer:
    """Publishes messages to topics.

    Parameters
    ----------
    masters:
        The master pair answering routing queries.
    clock:
        Message timestamps; also charged with degraded servers'
        advertised latency.
    retry:
        Optional policy for retrying failed sends beyond the built-in
        single re-route; its ``sleep`` should advance this same clock so
        backoff gives crashed servers (simulated) time to recover.
    """

    def __init__(
        self,
        masters: MasterPair,
        clock: SimClock,
        retry: RetryPolicy | None = None,
    ):
        self._masters = masters
        self._clock = clock
        self._retry = retry
        self._round_robin: dict[str, int] = {}
        # the master each topic's partition count was resolved against;
        # invalidated when a send fails through it (e.g. master failover)
        self._topic_masters: dict[str, MasterServer] = {}
        self.sent = 0
        self.send_retries = 0
        self.latency_absorbed = 0.0

    def _master_for(self, topic: str) -> tuple[MasterServer, int]:
        master = self._topic_masters.get(topic)
        if master is None:
            master = self._masters.active
        num_partitions = master.num_partitions(topic)  # may raise if dead
        self._topic_masters[topic] = master
        return master, num_partitions

    def _partition_for(self, topic: str, key: Any, num_partitions: int) -> int:
        if key is not None:
            return partition_for_key(key, num_partitions)
        cursor = self._round_robin.get(topic, 0)
        self._round_robin[topic] = cursor + 1
        return cursor % num_partitions

    def _attempt_send(self, topic: str, value: Any, key: Any) -> Message:
        master, num_partitions = self._master_for(topic)
        partition = self._partition_for(topic, key, num_partitions)
        server = master.route(topic, partition)
        if server.latency > 0.0:
            self.latency_absorbed += server.latency
            self._clock.advance(server.latency)
        return server.append(topic, partition, key, value, self._clock.now())

    def send(self, topic: str, value: Any, key: Any = None) -> Message:
        """Publish ``value`` to ``topic``; returns the stored message.

        A routing or data-server failure drops the cached master for the
        topic, re-queries the pair's acting master, and retries — so a
        master failover or single browned-out server mid-produce does
        not lose the write.
        """

        def attempt() -> Message:
            return self._attempt_send(topic, value, key)

        def on_retry(*_):
            self._topic_masters.pop(topic, None)
            self.send_retries += 1

        try:
            message = attempt()
        except _ROUTING_FAILURES:
            self._topic_masters.pop(topic, None)
            self.send_retries += 1
            if self._retry is None:
                message = attempt()
            else:
                message = self._retry.run(
                    attempt,
                    retryable=_ROUTING_FAILURES,
                    on_retry=on_retry,
                )
        self.sent += 1
        return message

    def send_batch(self, topic: str, values: list[Any], key: Any = None) -> int:
        """Publish many values; returns the count stored."""
        for value in values:
            self.send(topic, value, key)
        return len(values)
