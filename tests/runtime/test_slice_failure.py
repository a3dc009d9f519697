"""A refused gather or a failed commit fails its whole wave — on both
executors — publishes nothing, and the wave is retried where it failed.

The component wave (per worker process: the worker's share of it) is
the unit of store traffic, so it is the unit of failure: when the one
gather or the one commit serving its tasks raises, every tuple of it —
task 1's as much as task 0's, whose key broke it — goes back to its
task's queue, and nothing reaches the spout as failed. A failed commit
restarts every task in the wave, tuples of other waves stay acked or
queued, and the next drain re-runs the wave against the store's
journals, leaving the store as after a single delivery with every row
acked once. The process substrate settles a wave from the workers'
records, after the fact; this pins that it settles *all* of them before
the error propagates, as the simulator does, and publishes the keys of
every share (or tick) that committed, and only those.
"""

import os

import pytest

from repro.errors import DataServerDownError
from repro.monitoring import SystemMonitor
from repro.runtime import ProcessSubstrate, SimSubstrate, topology_recipe
from repro.storm import Bolt, Spout, TopologyBuilder
from repro.storm.grouping import FieldsGrouping
from repro.topology.state import CachedStore, Reads, StoreBacked
from repro.utils.clock import SimClock

ROWS = 6
TASKS = 2  # two slices in the one wave; only task 0's key breaks it


class BurstSpout(Spout):
    """Emits every row in one poll, so each component meets them as one
    wave of multi-tuple slices, and records how each tree ended."""

    def __init__(self):
        self._pending = list(range(ROWS))
        self.acked: list[int] = []
        self.failed: list[int] = []

    def declare_outputs(self, declarer):
        declarer.declare(("row",))

    def next_tuple(self) -> bool:
        pending, self._pending = self._pending, []
        for row in pending:
            self.collector.emit((row,), message_id=row, op_id=f"burst@{row}")
        return bool(pending)

    def on_ack(self, message_id):
        self.acked.append(message_id)

    def on_fail(self, message_id):
        self.failed.append(message_id)


class FlakyClient:
    """A client whose ``method`` (``gather`` or ``mutate``) — in whatever
    process it runs — raises the first time it carries ``key``, before
    anything is sent."""

    def __init__(self, inner, method, marker, key="rows:0"):
        self._inner = inner
        self._method = method
        self._marker = marker
        self._key = key

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _maybe_fail(self, method, keys):
        if (
            method == self._method
            and self._key in keys
            and not os.path.exists(self._marker)
        ):
            open(self._marker, "w").close()
            raise DataServerDownError(f"{method} lost")

    def gather(self, keys, probes=()):
        self._maybe_fail("gather", keys)
        return self._inner.gather(keys, probes)

    def mutate(self, ops):
        self._maybe_fail("mutate", [args[0] for __, args in ops])
        return self._inner.mutate(ops)


class CountBolt(StoreBacked, Bolt):
    """Counts the rows of its task under ``<prefix>:<task>`` and passes
    each on, once per stream of ``forwards``."""

    def __init__(self, make_client, prefix, forwards=()):
        self._make_client = make_client
        self._prefix = prefix
        self._forwards = forwards

    def declare_outputs(self, declarer):
        for stream in self._forwards:
            declarer.declare(("row",), stream)

    def prepare(self, context, collector):
        super().prepare(context, collector)
        self._store = CachedStore(self._make_client())
        self._key = f"{self._prefix}:{context.task_index}"

    def reads(self, tup):
        # declared, so the increments wait in the buffer for the commit
        return Reads(probes=((self._key, tup.op_id),), owned=(self._key,))

    def execute(self, tup):
        self._store.apply(self._key, tup.op_id, 1.0)
        for stream in self._forwards:
            self.collector.emit((tup["row"],), stream)


COUNTERS = ("first", "rows", "last")


def flaky_factory(method, marker):
    """source -> first -> rows, and first -> last: per pass, the waves
    run in that order, and the ``rows`` wave is the one that breaks."""

    def factory(clock, client_factory, consumer):
        def make_client():
            return FlakyClient(client_factory(), method, marker)

        def counter(name, *forwards):
            return lambda: CountBolt(make_client, name, forwards)

        by_row = FieldsGrouping(["row"])
        builder = TopologyBuilder("flaky-count")
        builder.add_spout("source", BurstSpout)
        builder.add_bolt(
            "first", counter("first", "to_rows", "to_last"), TASKS
        ).grouping("source", by_row)
        builder.add_bolt("rows", counter("rows"), TASKS).grouping(
            "first", by_row, "to_rows"
        )
        builder.add_bolt("last", counter("last"), TASKS).grouping(
            "first", by_row, "to_last"
        )
        return builder.build()

    return factory


class KeyLog:
    """A bus that keeps the keys each committed wave hands it."""

    def __init__(self):
        self.keys: list[str] = []

    def publish_keys(self, keys):
        self.keys.extend(keys)


class TickBolt(StoreBacked, Bolt):
    """Writes ``<prefix>:tick`` at every tick."""

    def __init__(self, make_client, prefix):
        self._make_client = make_client
        self._key = f"{prefix}:tick"

    def prepare(self, context, collector):
        super().prepare(context, collector)
        self._store = CachedStore(self._make_client())

    def execute(self, tup):
        pass

    def tick(self, now):
        self._store.put(self._key, now)


def ticking_factory(marker):
    """source -> early, source -> late: a tick commits early's write,
    then late's, whose commit breaks once."""

    def factory(clock, client_factory, consumer):
        def make_client():
            return FlakyClient(client_factory(), "mutate", marker, "late:tick")

        builder = TopologyBuilder("ticking")
        builder.add_spout("source", BurstSpout)
        for name in ("early", "late"):
            builder.add_bolt(
                name, lambda name=name: TickBolt(make_client, name)
            ).grouping("source", FieldsGrouping(["row"]))
        return builder.build()

    return factory


def one_worker():
    return ProcessSubstrate(worker_procs=1, server_procs=1)


def two_workers():
    return ProcessSubstrate(worker_procs=2, server_procs=1)


@pytest.mark.parametrize(
    "make_substrate, method, whole_wave",
    [
        pytest.param(SimSubstrate, "gather", True, id="sim-gather"),
        pytest.param(SimSubstrate, "mutate", True, id="sim-commit"),
        pytest.param(one_worker, "gather", True, id="process-gather"),
        pytest.param(one_worker, "mutate", True, id="process-commit"),
        # a task per worker: the other worker's share commits on its own
        pytest.param(two_workers, "mutate", False, id="process-2-commit"),
    ],
)
def test_failed_wave_fails_every_tuple_of_it(
    make_substrate, method, whole_wave, tmp_path
):
    factory = topology_recipe(
        "tests.runtime.test_slice_failure",
        "flaky_factory",
        method=method,
        marker=str(tmp_path / "failed-once"),
    )
    with make_substrate() as substrate:
        clock = SimClock()
        store = substrate.build_tdstore(2, 4)
        log = KeyLog()
        cluster = substrate.build_storm(clock, bus=log)
        cluster.submit(factory(clock, store.client, None))
        spout = cluster.task_instance("flaky-count", "source", 0)
        client = store.client()

        with pytest.raises(DataServerDownError, match=f"{method} lost"):
            cluster.run_until_idle()
        # nothing reached the spout as failed: the rows wave (task 0's
        # share of it) went back to its tasks' queues unwritten, the wave
        # before it is committed, and the wave after it still waits
        assert spout.failed == [] and spout.acked == []
        retried = cluster.metrics("flaky-count").retried_tuples
        assert cluster.queue_depths("flaky-count") == {
            "source": 0, "first": 0, "rows": retried, "last": ROWS
        }
        # the monitor reads the cluster through its public surface, so it
        # sees the same on both executors
        monitor = SystemMonitor(clock.now)
        monitor.watch("storm", cluster)
        assert monitor.snapshot()["topology_pending"] == {
            "flaky-count": ROWS + retried
        }
        assert client.get("rows:0") is None
        if whole_wave:
            assert retried == ROWS
            assert client.get("rows:1") is None
        else:
            assert client.get("rows:1") == ROWS - retried > 0
        assert client.get("first:0") + client.get("first:1") == ROWS
        assert client.get("last:0") is None and client.get("last:1") is None
        # the failed share published nothing, a sibling share that
        # committed did, and so did the wave before
        assert "rows:0" not in log.keys
        assert ("rows:1" in log.keys) is not whole_wave
        assert {"first:0", "first:1"} <= set(log.keys)
        restarts = cluster.metrics("flaky-count").task_restarts
        if method == "mutate" and isinstance(substrate, SimSubstrate):
            # both tasks lost their buffers with the envelope (a worker
            # rebuilds its own; the parent does not count those)
            assert restarts == TASKS

        cluster.run_until_idle()
        assert spout.failed == []
        assert sorted(spout.acked) == list(range(ROWS))  # each row once
        for prefix in COUNTERS:
            counts = [client.get(f"{prefix}:{task}") for task in range(TASKS)]
            assert sum(counts) == ROWS and min(counts) > 0
        assert cluster.metrics("flaky-count").task_restarts == restarts
        assert cluster.metrics("flaky-count").retried_tuples == retried
        assert {
            f"{prefix}:{task}" for prefix in COUNTERS for task in range(TASKS)
        } <= set(log.keys)


@pytest.mark.parametrize(
    "make_substrate",
    [pytest.param(SimSubstrate, id="sim"), pytest.param(one_worker, id="process")],
)
def test_failed_tick_publishes_the_ticks_before_it(make_substrate, tmp_path):
    factory = topology_recipe(
        "tests.runtime.test_slice_failure",
        "ticking_factory",
        marker=str(tmp_path / "failed-once"),
    )
    with make_substrate() as substrate:
        clock = SimClock()
        store = substrate.build_tdstore(2, 4)
        log = KeyLog()
        cluster = substrate.build_storm(clock, bus=log)
        cluster.submit(factory(clock, store.client, None))
        with pytest.raises(DataServerDownError, match="mutate lost"):
            cluster.flush_ticks()
        assert log.keys == ["early:tick"]
        cluster.flush_ticks()
        assert log.keys == ["early:tick", "early:tick", "late:tick"]
