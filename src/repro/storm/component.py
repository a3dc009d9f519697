"""Spout and bolt programming model.

Mirrors Storm's component API: spouts produce the input streams, bolts
consume and transform them. Components declare output streams, are
instantiated once per task, and interact with the runtime only through
the :class:`OutputCollector` handed to them at preparation time.
"""

from __future__ import annotations

from abc import ABC
from typing import Any, Callable, Iterable, Sequence

from repro.errors import ConfigurationError, TopologyError
from repro.storm.streams import DEFAULT_STREAM, OutputDeclaration
from repro.storm.tuples import StormTuple


class TopologyContext:
    """Runtime information handed to a component when it is prepared."""

    def __init__(
        self,
        component_name: str,
        task_index: int,
        num_tasks: int,
        topology_name: str,
    ):
        self.component_name = component_name
        self.task_index = task_index
        self.num_tasks = num_tasks
        self.topology_name = topology_name

    def __repr__(self) -> str:
        return (
            f"TopologyContext({self.topology_name!r}, "
            f"{self.component_name!r}[{self.task_index}/{self.num_tasks}])"
        )


class OutputCollector:
    """Emission interface given to a component task by the runtime.

    ``emit`` hands a value tuple to the cluster, which validates it against
    the declared stream schema and routes it to downstream tasks. For
    spouts, ``emit`` may carry a ``message_id`` enrolling the tuple in the
    acking machinery; for bolts, emitted tuples are anchored to the input
    tuple being executed.
    """

    def __init__(
        self,
        component_name: str,
        task_index: int,
        declaration: OutputDeclaration,
        emit_fn: Callable[[StormTuple, Any], None],
        ack_fn: Callable[[StormTuple], None],
        fail_fn: Callable[[StormTuple], None],
        clock_now: Callable[[], float],
    ):
        self._component_name = component_name
        self._task_index = task_index
        self._declaration = declaration
        self._emit_fn = emit_fn
        self._ack_fn = ack_fn
        self._fail_fn = fail_fn
        self._clock_now = clock_now
        self._anchor_roots: frozenset[int] = frozenset()
        self._input_op_id: str | None = None
        self._emit_seq = 0

    def set_input_context(self, roots: frozenset[int], op_id: str | None):
        """Install the input tuple's identity for the current execute.

        Emissions during the execute derive replay-stable op ids
        ``"{op_id}>{component}.{task}:{seq}"`` with ``seq`` counting
        emissions within this execute — so re-executing the same input
        tuple reproduces exactly the same downstream identities.
        """
        self._anchor_roots = roots
        self._input_op_id = op_id
        self._emit_seq = 0

    def emit(
        self,
        values: Sequence[Any],
        stream_id: str = DEFAULT_STREAM,
        message_id: Any = None,
        op_id: str | None = None,
    ) -> StormTuple:
        """Emit ``values`` on ``stream_id`` and return the created tuple.

        ``op_id`` gives the tuple an explicit replay-stable identity
        (spouts derive it from their source position). Bolts normally
        leave it ``None``: anchored emissions inherit a derived identity
        from the input tuple being executed.
        """
        stream = self._declaration.stream(stream_id)
        if op_id is None and self._input_op_id is not None:
            op_id = (
                f"{self._input_op_id}>"
                f"{self._component_name}.{self._task_index}:{self._emit_seq}"
            )
            self._emit_seq += 1
        tup = StormTuple(
            values,
            stream.fields,
            stream_id,
            self._component_name,
            self._task_index,
            root_ids=self._anchor_roots,
            timestamp=self._clock_now(),
            op_id=op_id,
        )
        self._emit_fn(tup, message_id)
        return tup

    def ack(self, tup: StormTuple):
        """Mark ``tup`` as fully processed by this component."""
        self._ack_fn(tup)

    def fail(self, tup: StormTuple):
        """Mark ``tup`` as failed, triggering replay from the spout."""
        self._fail_fn(tup)


class Component(ABC):
    """Shared machinery for spouts and bolts."""

    def declare_outputs(self, declarer: OutputDeclaration):
        """Declare output streams. Override in components that emit."""

    def prepare(self, context: TopologyContext, collector: OutputCollector):
        """Called once before any tuples flow. Override to set up state."""
        self.context = context
        self.collector = collector

    def cleanup(self):
        """Called when the topology is shut down."""

    # -- checkpoint protocol (repro.recovery) ------------------------------

    def snapshot_state(self) -> "dict | None":
        """Return this task's in-memory state for a checkpoint.

        Components whose state lives entirely in TDStore (rebuilt lazily
        through their caches) return ``None`` — there is nothing beyond
        the store to capture. Components with genuine process-local state
        (combiner buffers, open sessions, observation counters) return a
        picklable dict that :meth:`restore_state` can consume.
        """
        return None

    def restore_state(self, state: dict):
        """Reinstall a state dict captured by :meth:`snapshot_state`.

        Called after :meth:`prepare` on a freshly constructed instance
        during recovery; the default ignores the state, matching the
        default :meth:`snapshot_state` of ``None``.
        """


class Spout(Component):
    """A source of streams.

    Subclasses override :meth:`next_tuple` to emit zero or more tuples per
    invocation, returning ``True`` while more input may follow and
    ``False`` once the source is exhausted (an extension to Storm's API
    that lets the simulated cluster run a finite stream to completion).
    """

    def next_tuple(self) -> bool:
        """Emit pending tuples; return False when the source is exhausted."""
        return False

    def on_ack(self, message_id: Any):
        """Called when a tuple tree rooted at ``message_id`` completes."""

    def on_fail(self, message_id: Any):
        """Called when a tuple tree rooted at ``message_id`` fails."""


class Bolt(Component):
    """A stream transformer: consumes tuples, may emit new ones."""

    def execute(self, tup: StormTuple):
        """Process one input tuple."""
        raise NotImplementedError

    def tick(self, now: float):
        """Called periodically by the cluster (Storm's tick tuples).

        Components that buffer (e.g. the combiner of Section 5.3) flush
        from here.
        """

    # -- wave protocol: gather -> compute -> commit -------------------------
    #
    # The executor hands a component its input as waves — everything queued
    # for its tasks when its turn comes, on both executors — and brackets
    # each wave (and each tick) with one read and one write for all of its
    # tasks. A bolt that keeps state behind a store takes part by handing
    # its I/O over as data for :func:`gather_wave` / :func:`commit_wave`.

    def to_gather(self, tuples: "Sequence[StormTuple]") -> "tuple | None":
        """What executing ``tuples`` will read: ``(transport, keys,
        probes, fill)`` — ``transport.gather(keys, probes)`` answers
        ``(values, seen)``, ``fill(values, seen)`` takes this bolt's
        part of it — or ``None``."""
        return None

    def to_commit(self) -> "tuple | None":
        """What the bolt buffered: ``(transport, writes, settle)`` —
        ``transport.mutate(writes)`` answers a result per write,
        ``settle(results)`` takes them, ``settle(None, error)`` hears
        that the commit failed (the executor then discards this instance
        and replays what it did not commit to a fresh one) — or ``None``."""
        if hasattr(self, "_store"):
            # a bolt's ``_store`` buffers its writes until committed (see
            # ``repro.topology.state.StoreBacked``); inheriting this
            # no-op would drop them without a sound
            raise ConfigurationError(
                f"{type(self).__name__} keeps state behind a store but "
                "does not commit it; list StoreBacked before its bolt base"
            )
        return None

    def prefetch(self, tuples: "Sequence[StormTuple]"):
        """The wave of one: read ahead for this task alone."""
        gather_wave([self.to_gather(tuples)])

    def flush(self):
        """The wave of one: commit what this task alone buffered."""
        commit_wave([self.to_commit()])


def gather_wave(entries: "Iterable[tuple | None]") -> list:
    """One strict read for the :meth:`Bolt.to_gather` entries of a wave;
    returns the ``(key, op_id)`` probes it asked.

    Their keys and probes travel together through the first entry's
    transport — one factory builds a component's tasks, so their
    transports are handles to one store — and every ``fill`` sees the
    whole answer. A wave that lacks nothing sends no frame.
    """
    entries = [entry for entry in entries if entry is not None]
    keys = [key for entry in entries for key in entry[1]]
    probes = [probe for entry in entries for probe in entry[2]]
    if keys or probes:
        values, seen = entries[0][0].gather(keys, probes)
        for entry in entries:
            entry[3](values, seen)
    return probes


def commit_wave(entries: "Iterable[tuple | None]") -> list:
    """One envelope for the :meth:`Bolt.to_commit` entries of a wave;
    returns the ``(method, args)`` writes it landed.

    The writes ship in task order through the first entry's transport
    and each ``settle`` gets its own slice of the results. The wave
    commits or fails as one: whatever goes wrong — handing over, the
    envelope, one entry's check of its results — every entry taken so
    far hears ``settle(None, error)`` and the error propagates.
    """
    taken: list[tuple] = []
    try:
        for entry in entries:
            if entry is not None:
                taken.append(entry)
        writes = [write for entry in taken for write in entry[1]]
        results = taken[0][0].mutate(writes) if writes else []
        at = 0
        for __, own, settle in taken:
            settle(results[at : at + len(own)])
            at += len(own)
    except Exception as exc:
        for entry in taken:
            entry[2](None, exc)
        raise
    return writes


class FunctionBolt(Bolt):
    """Adapter turning a plain callable into a bolt, for tests and examples."""

    def __init__(
        self,
        fn: Callable[[StormTuple, OutputCollector], None],
        output_streams: Sequence[tuple[str, tuple[str, ...]]] = (),
    ):
        self._fn = fn
        self._output_streams = tuple(output_streams)

    def declare_outputs(self, declarer: OutputDeclaration):
        for stream_id, fields in self._output_streams:
            declarer.declare(fields, stream_id)

    def execute(self, tup: StormTuple):
        self._fn(tup, self.collector)


def validate_component_name(name: str):
    """Component names appear in XML configs and metrics; keep them simple."""
    if not name or not name.replace("_", "").replace("-", "").isalnum():
        raise TopologyError(f"invalid component name: {name!r}")
