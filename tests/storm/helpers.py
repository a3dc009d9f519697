"""Reusable toy components for storm tests."""

from __future__ import annotations

from repro.storm import Bolt, Spout


class ListSpout(Spout):
    """Emits a fixed list of (field-values) tuples, one per poll.

    Row ``i`` carries the identity ``list@{i}``, like every shipped
    spout, so the rows may feed an ``ExactlyOnceBolt``.
    """

    def __init__(self, rows, fields=("word",), stream_id="default", ack_ids=False):
        self._rows = list(rows)
        self._fields = tuple(fields)
        self._stream_id = stream_id
        self._ack_ids = ack_ids
        self._cursor = 0
        self.acked: list[object] = []
        self.failed: list[object] = []

    def declare_outputs(self, declarer):
        declarer.declare(self._fields, self._stream_id)

    def next_tuple(self) -> bool:
        if self._cursor >= len(self._rows):
            return False
        row = self._rows[self._cursor]
        message_id = self._cursor if self._ack_ids else None
        self.collector.emit(
            row,
            stream_id=self._stream_id,
            message_id=message_id,
            op_id=f"list@{self._cursor}",
        )
        self._cursor += 1
        return True

    def on_ack(self, message_id):
        self.acked.append(message_id)

    def on_fail(self, message_id):
        self.failed.append(message_id)


class CountBolt(Bolt):
    """Counts occurrences of one field's values in task-local state."""

    def __init__(self, key_field="word"):
        self._key_field = key_field
        self.counts: dict[object, int] = {}

    def execute(self, tup):
        key = tup[self._key_field]
        self.counts[key] = self.counts.get(key, 0) + 1


class SplitBolt(Bolt):
    """Splits a sentence field into word tuples (classic wordcount)."""

    def declare_outputs(self, declarer):
        declarer.declare(("word",), "words")

    def execute(self, tup):
        for word in tup["sentence"].split():
            self.collector.emit((word,), stream_id="words")


class CollectBolt(Bolt):
    """Appends every received tuple's values to a task-local list."""

    def __init__(self):
        self.seen: list[tuple] = []

    def execute(self, tup):
        self.seen.append(tup.values)


class ExplodingBolt(Bolt):
    """Raises on a configurable trigger value."""

    def __init__(self, trigger, field="word"):
        self._trigger = trigger
        self._field = field

    def execute(self, tup):
        if tup[self._field] == self._trigger:
            raise ValueError(f"boom on {self._trigger!r}")
