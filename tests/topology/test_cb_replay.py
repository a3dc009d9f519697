"""Replay safety of the content-based profile bolt.

``decayed + gain`` is not idempotent: processing one action twice moves
a tag weight twice. The CB topology must therefore absorb the
at-least-once failure modes — a re-delivered offset (caught by the dedup
ledger) and a task kill that wipes that ledger while the source rewinds
(caught only by the profile key's op journal) — and finish with
profiles byte-identical to a single-delivery run.
"""

import pytest

from repro.errors import DataServerDownError
from repro.recovery import Fault, RecoveryHarness
from repro.storm.grouping import FieldsGrouping, ShuffleGrouping
from repro.storm.topology import TopologyBuilder
from repro.storm.tuples import StormTuple
from repro.topology.bolts_cb import CBProfileBolt, ItemInfoBolt
from repro.topology.bolts_common import PretreatmentBolt
from repro.topology.spouts import TDAccessSpout
from repro.topology.state import StateKeys

from tests.recovery.helpers import (
    ITEMS,
    TOPIC,
    USERS,
    make_payloads,
    make_tdaccess,
)
from tests.topology.helpers import EnvelopeClient, Task, fresh_cluster

N_MESSAGES = 32
BATCH = 4
TAGS = ("sports", "music", "film")


def cb_topology_factory(clock, client_factory, consumer):
    builder = TopologyBuilder("cb-stream")
    builder.add_spout("source", lambda: TDAccessSpout(consumer, clock, BATCH))
    builder.add_bolt("pretreatment", PretreatmentBolt, parallelism=1).grouping(
        "source", ShuffleGrouping(), "raw_action"
    )
    builder.add_bolt(
        "cbBolt", lambda: CBProfileBolt(client_factory), parallelism=2
    ).grouping("pretreatment", FieldsGrouping(["user"]), "user_action")
    return builder.build()


def run_cb(payloads, plan=None):
    harness = RecoveryHarness(
        make_tdaccess(payloads), TOPIC, cb_topology_factory
    )
    harness.start(fault_plan=plan)
    client = harness.client()
    for n, item in enumerate(ITEMS):
        client.put(
            StateKeys.item_meta(item),
            {"item": item, "tags": (TAGS[n % len(TAGS)],), "category": "c"},
        )
    assert harness.run() == "completed"
    return harness


def cb_state(harness):
    client = harness.client()
    return {
        user: (
            client.get(StateKeys.profile(user)),
            client.get(StateKeys.consumed(user)),
        )
        for user in USERS
    }


def dedup_hits(harness):
    stats = harness.cluster.exactly_once_stats(harness.topology_name)
    return sum(s["dedup_hits"] for s in stats.values())


class TestCbReplay:
    def test_redelivered_actions_do_not_move_profiles(self):
        payloads = make_payloads(N_MESSAGES)
        want = cb_state(run_cb(payloads))
        assert any(profile for profile, __ in want.values())
        harness = run_cb(
            payloads,
            [
                Fault(2, "duplicate_delivery", ("source", 2 * BATCH)),
                Fault(4, "duplicate_delivery", ("source", 3 * BATCH)),
            ],
        )
        assert harness.injector.rewinds == 2
        assert dedup_hits(harness) > 0
        assert cb_state(harness) == want

    def test_kill_that_wipes_the_ledger_plus_rewind_is_invisible(self):
        payloads = make_payloads(N_MESSAGES)
        want = cb_state(run_cb(payloads))
        for task in (0, 1):
            harness = run_cb(
                payloads,
                [Fault(3, "worker_kill_midtree", ("cbBolt", task, 2, 3 * BATCH))],
            )
            assert harness.injector.midtree_fired == 1
            assert harness.injector.rewinds >= 1
            assert cb_state(harness) == want, f"cbBolt[{task}] kill diverged"


class TagWriteRefused(EnvelopeClient):
    """Refuses one flush at its first tag-index write; the writes ahead
    of it land."""

    failed = False

    def mutate(self, ops):
        for at, (__, args) in enumerate(ops):
            if not self.failed and args[0].startswith("tagidx:"):
                self.failed = True
                if at:
                    self._inner.mutate(ops[:at])
                raise DataServerDownError("tag index write refused")
        return self._inner.mutate(ops)


def meta_tuple(item, tags, offset):
    meta = {"item": item, "tags": tags}
    return StormTuple(
        (item, meta), ("item", "meta"), "item_meta", "metaSpout",
        op_id=f"metas@{offset}",
    )


class TestItemInfo:
    def test_a_refused_tag_write_leaves_the_index_as_it_was(self):
        # the in-process store hands out the stored set itself, so an
        # index extended in place would land without its commit
        cluster = fresh_cluster()
        cluster.client().put(StateKeys.tag_index("sports"), {"n0"})
        refusing = TagWriteRefused(cluster.client())
        task = Task(lambda: ItemInfoBolt(lambda: refusing))
        with pytest.raises(DataServerDownError):
            task.deliver(meta_tuple("n1", ("sports",), 0))
        assert cluster.client().get(StateKeys.tag_index("sports")) == {"n0"}
        task.deliver(meta_tuple("n1", ("sports",), 0))
        assert cluster.client().get(StateKeys.tag_index("sports")) == {
            "n0", "n1",
        }
