"""A task restart must not move GroupCountBolt's decay schedule.

The hot-item lists decay once per elapsed ``decay_interval`` of stream
time. The bolt keeps that schedule (``_last_decay``, ``_groups_seen``)
in task memory, outside both TDStore and the checkpoint, so a killed
``groupCount`` task restarts it from its first tick: the next decay
lands at another time, or skips the groups the fresh task has not seen
yet, and the final lists differ from an uninterrupted run. Without
decay (``decay=1.0``) the same kills are invisible, which pins the cause
to the schedule rather than to the counters.
"""

import functools

import pytest

from repro.storm import LocalCluster
from repro.tdstore import TDStoreCluster
from repro.topology import framework
from repro.topology.bolts_db import GroupCountBolt
from repro.topology.framework import CFTopologyConfig, build_cf_topology
from repro.topology.state import StateKeys
from repro.types import UserAction
from repro.utils.clock import SimClock
from repro.utils.rng import SeedSequenceFactory

GROUPS = ("g0", "g1", "g2", "global")
KILL_ROUNDS = (50, 200, 400)


def clicks():
    """600 clicks over 20 users and 15 items, 30 s apart."""
    rng = SeedSequenceFactory(11).generator("clicks")
    return [
        UserAction(
            f"u{int(rng.integers(0, 20))}", f"i{int(rng.integers(0, 15))}",
            "click", 30.0 * (n + 1),
        )
        for n in range(600)
    ]


def hot_lists(kill_at=None):
    """The final hot lists of a CF run with three demographic groups;
    both ``groupCount`` tasks are killed at barrier round ``kill_at``."""
    clock = SimClock()
    store = TDStoreCluster(num_data_servers=3, num_instances=8)
    config = CFTopologyConfig(group_of=lambda user: f"g{int(user[1:]) % 3}")
    cluster = LocalCluster(clock=clock, tick_interval=600)
    cluster.submit(build_cf_topology("cf", clicks(), clock, store.client, config))

    def kill(barrier_round):
        if barrier_round == kill_at:
            for task in range(config.parallelism):
                cluster.kill_task("cf", "groupCount", task)

    cluster.add_barrier_hook(kill)
    cluster.run_until_idle()
    client = store.client()
    return {group: client.get(StateKeys.hot(group)) for group in GROUPS}


def test_uninterrupted_run_repeats():
    first = hot_lists()
    assert all(first.values())
    assert hot_lists() == first


def test_without_decay_a_restart_is_invisible(monkeypatch):
    monkeypatch.setattr(
        framework, "GroupCountBolt", functools.partial(GroupCountBolt, decay=1.0)
    )
    expected = hot_lists()
    for kill_at in KILL_ROUNDS:
        assert hot_lists(kill_at) == expected, kill_at


@pytest.mark.xfail(
    strict=True,
    reason="GroupCountBolt keeps its decay schedule (_last_decay, "
    "_groups_seen) in task memory, outside TDStore and the checkpoint",
)
@pytest.mark.parametrize("kill_at", KILL_ROUNDS)
def test_restart_keeps_the_decay_schedule(kill_at):
    assert hot_lists(kill_at) == hot_lists()
