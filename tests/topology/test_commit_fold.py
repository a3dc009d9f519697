"""One write per key per wave, on both substrates.

A wave of ``GroupCountBolt`` and ``ItemCountBolt`` tuples — many on the
same hot list and the same item — commits one write per key: a
``put_once`` run and an ``apply_op`` run. The state it leaves, journals
(``__ops__:``) and versions (``__ver__:``) included, equals what the
same ops leave sent one per envelope through ``TDStoreClient.mutate``,
which is what delivering the tuples one wave each does.
"""

import pytest

from repro.runtime import ProcessSubstrate, SimSubstrate
from repro.storm.tuples import StormTuple
from repro.topology.bolts_cf import ItemCountBolt
from repro.topology.bolts_db import GroupCountBolt

from tests.topology.helpers import EnvelopeClient, Task

ITEMS = ("i1", "i2", "i1", "i3", "i1", "i2", "i1", "i4")


def group_tuple(group, item, offset):
    return StormTuple(
        (group, item, 1.0 + offset % 3),
        ("group", "item", "delta"),
        "group_delta",
        "userHistory",
        op_id=f"actions@{offset}>userHistory.0:{group}",
    )


def item_tuple(item, offset):
    return StormTuple(
        (item, 0.5 + offset % 4 * 0.1),
        ("item", "delta"),
        "item_delta",
        "userHistory",
        op_id=f"actions@{offset}>userHistory.0:0",
    )


class RecordingClient(EnvelopeClient):
    def __init__(self, inner, envelopes):
        super().__init__(inner)
        self._envelopes = envelopes

    def mutate(self, ops):
        self._envelopes.append(list(ops))
        return self._inner.mutate(ops)


def run(store, waves_of_one: bool):
    """Deliver the tuples as one wave per component or one wave per
    tuple; returns ``(contents, envelopes sent)``."""
    envelopes = []

    def client():
        return RecordingClient(store.client(), envelopes)

    groups = Task(lambda: GroupCountBolt(client), "groupCount")
    items = Task(lambda: ItemCountBolt(client), "itemCount")
    group_tuples = [
        group_tuple(group, item, n)
        for n, item in enumerate(ITEMS)
        for group in ("g0", "global")
    ]
    item_tuples = [item_tuple(item, n) for n, item in enumerate(ITEMS)]
    for task, tuples in ((groups, group_tuples), (items, item_tuples)):
        if waves_of_one:
            for tup in tuples:
                task.deliver(tup)
        else:
            task.deliver(*tuples)
    return store.snapshot_contents(), envelopes


@pytest.fixture(scope="module")
def one_by_one():
    with SimSubstrate() as substrate:
        contents, envelopes = run(substrate.build_tdstore(3, 8), True)
    assert all(len(ops) == 1 for ops in envelopes)
    return contents


@pytest.mark.parametrize(
    "make", [SimSubstrate, lambda: ProcessSubstrate(server_procs=1)],
    ids=["sim", "process"],
)
def test_a_folded_wave_leaves_the_state_of_its_ops_one_by_one(
    make, one_by_one
):
    with make() as substrate:
        contents, envelopes = run(substrate.build_tdstore(3, 8), False)
    # two waves, one write per key: hot:g0, hot:global, four itemCounts
    assert [len(ops) for ops in envelopes] == [2, 4]
    runs = {args[0]: args[1] for ops in envelopes for __, args in ops}
    assert len(runs["hot:global"]) == len(ITEMS)
    assert len(runs["itemCount:i1"]) == ITEMS.count("i1")
    assert runs["itemCount:i3"] == "actions@3>userHistory.0:0"
    assert contents == one_by_one
    keys = {key for instance in contents.values() for key in instance}
    assert "__ops__:hot:global" in keys and "__ver__:itemCount:i1" in keys
    version = next(
        instance["__ver__:hot:global"] for instance in contents.values()
        if "__ver__:hot:global" in instance
    )
    assert version == len(ITEMS)
