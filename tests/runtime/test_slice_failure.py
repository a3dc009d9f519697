"""A failed flush fails its whole slice — on both executors.

The slice is the unit of store traffic, so it is the unit of failure:
when a task's commit raises, every tuple of the slice must reach its
spout as failed (storm has no message timeout to rescue a tuple that is
neither acked nor failed), the replay must meet a fresh task, and the
store must end up as after a single delivery. The process substrate
settles a slice from the worker's records, after the fact; this pins
that it settles *all* of them before the error propagates, as the
simulator does.
"""

import os

import pytest

from repro.errors import DataServerDownError
from repro.runtime import topology_recipe
from repro.storm import Bolt, Spout, TopologyBuilder
from repro.storm.grouping import FieldsGrouping
from repro.topology.state import CachedStore, Reads, StoreBacked
from repro.utils.clock import SimClock

from tests.chaos.helpers import SUBSTRATES

ROWS = 6
TASKS = 2  # two slices in the one wave; only task 0's flush breaks


class BurstSpout(Spout):
    """Emits every row in one poll, so each counting task meets its
    share as one multi-tuple slice, and re-emits what failed."""

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
        self._pending.append(message_id)


class FlakyCountBolt(StoreBacked, Bolt):
    """Counts rows in TDStore; task 0's first flush — in whatever
    process it runs — drops the buffer and raises."""

    def __init__(self, client_factory, marker):
        self._client_factory = client_factory
        self._marker = marker

    def prepare(self, context, collector):
        super().prepare(context, collector)
        self._store = CachedStore(self._client_factory())

    def _key(self):
        return f"rows:{self.context.task_index}"

    def reads(self, tup):
        # declared, so the increments wait in the buffer for the flush
        return Reads(probes=((self._key(), tup.op_id),), owned=(self._key(),))

    def execute(self, tup):
        self._store.apply(self._key(), tup.op_id, 1.0)

    def flush(self):
        if self.context.task_index == 0 and not os.path.exists(self._marker):
            open(self._marker, "w").close()
            raise DataServerDownError("flush lost")
        super().flush()


def flaky_factory(marker):
    def factory(clock, client_factory, consumer):
        builder = TopologyBuilder("flaky-count")
        builder.add_spout("source", BurstSpout)
        builder.add_bolt(
            "count", lambda: FlakyCountBolt(client_factory, marker), TASKS
        ).grouping("source", FieldsGrouping(["row"]))
        return builder.build()

    return factory


@pytest.mark.parametrize("make_substrate", SUBSTRATES)
def test_failed_flush_fails_every_tuple_of_the_slice(make_substrate, tmp_path):
    factory = topology_recipe(
        "tests.runtime.test_slice_failure",
        "flaky_factory",
        marker=str(tmp_path / "flush-failed"),
    )
    with make_substrate() as substrate:
        clock = SimClock()
        store = substrate.build_tdstore(2, 4)
        cluster = substrate.build_storm(clock)
        cluster.submit(factory(clock, store.client, None))
        spout = cluster.task_instance("flaky-count", "source", 0)

        with pytest.raises(DataServerDownError, match="flush lost"):
            cluster.run_until_idle()
        # task 0's slice failed whole, and nothing is stranded: task 1's
        # slice was committed and acked (a worker had already run it) or
        # still waits in its queue (the simulator had not reached it)
        assert len(spout.failed) > 1
        settled = len(spout.failed) + len(spout.acked)
        assert settled + cluster.pending_tuples("flaky-count") == ROWS
        failed = sorted(spout.failed)
        client = store.client()
        assert client.get("rows:0") is None
        assert client.get("rows:1", 0) == len(spout.acked)

        cluster.run_until_idle()
        assert sorted(spout.failed) == failed  # no second failure
        assert sorted(spout.acked) == list(range(ROWS))
        assert client.get("rows:0") == len(failed)
        assert client.get("rows:0") + client.get("rows:1") == ROWS
