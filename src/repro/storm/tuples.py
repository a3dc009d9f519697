"""Stream tuples.

A :class:`StormTuple` is an immutable record flowing along a stream. It
knows which component and stream produced it, which fields it carries, and
(optionally) the message id used by the acking machinery to track its
tuple tree back to the originating spout.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from repro.errors import TopologyError

Values = tuple


class StormTuple:
    """An immutable data tuple on a stream.

    Parameters
    ----------
    values:
        Field values, positionally aligned with ``fields``.
    fields:
        Field names declared by the emitting stream.
    stream_id:
        Id of the stream this tuple was emitted on.
    source_component:
        Name of the emitting component within the topology.
    source_task:
        Index of the emitting task within that component.
    root_ids:
        Ids of the spout tuple trees this tuple belongs to (for acking).
    timestamp:
        Simulated emission time in seconds.
    op_id:
        Stable identity of the operation that produced this tuple. Spout
        tuples carry ``"{source}@{offset}"``; bolt emissions derive
        ``"{parent_op}>{component}.{task}:{seq}"`` so a replayed spout
        tuple regenerates byte-identical ids all the way down its tree —
        the property dedup ledgers and the TDStore op journal rely on.
        ``None`` means the tuple has no replay-stable identity: plain
        bolts process it at-least-once, exactly-once bolts refuse it.
    """

    __slots__ = (
        "_values",
        "_fields",
        "stream_id",
        "source_component",
        "source_task",
        "root_ids",
        "timestamp",
        "op_id",
    )

    def __init__(
        self,
        values: Sequence[Any],
        fields: Sequence[str],
        stream_id: str,
        source_component: str,
        source_task: int = 0,
        root_ids: frozenset[int] = frozenset(),
        timestamp: float = 0.0,
        op_id: str | None = None,
    ):
        if len(values) != len(fields):
            raise TopologyError(
                f"tuple on stream {stream_id!r} from {source_component!r} has "
                f"{len(values)} values for {len(fields)} fields {tuple(fields)}"
            )
        self._values = tuple(values)
        self._fields = tuple(fields)
        self.stream_id = stream_id
        self.source_component = source_component
        self.source_task = source_task
        self.root_ids = root_ids
        self.timestamp = timestamp
        self.op_id = op_id

    @property
    def values(self) -> tuple:
        return self._values

    @property
    def fields(self) -> tuple[str, ...]:
        return self._fields

    def value(self, field: str) -> Any:
        """Return the value of ``field``, raising if the field is absent."""
        try:
            return self._values[self._fields.index(field)]
        except ValueError:
            raise TopologyError(
                f"field {field!r} not in tuple fields {self._fields}"
            ) from None

    def select(self, fields: Sequence[str]) -> tuple:
        """Return the values of ``fields`` in order (used by groupings)."""
        return tuple(self.value(f) for f in fields)

    def as_dict(self) -> dict[str, Any]:
        """Return a field-name -> value mapping copy of this tuple."""
        return dict(zip(self._fields, self._values))

    def __getitem__(self, field: str) -> Any:
        return self.value(field)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values))
        return (
            f"StormTuple({body}, stream={self.stream_id!r}, "
            f"source={self.source_component!r}:{self.source_task})"
        )
