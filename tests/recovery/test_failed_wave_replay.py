"""A failed wave is retried where it failed, and the store ends as if
nothing had failed.

``TDAccessSpout`` emits without a message id, so nothing is replayed
from the source: a wave whose gather or commit fails goes back, in
order, to the head of its restarted tasks' queues, and the next drain
re-runs it against the store's journals. Failing that wave's tuples
back to the spout lost those events instead: one broken ``userHistory``
commit left 26 of 30 history entries on this stream, and an
``itemCount`` sum of 64 against 60, since later events read the wrong
history.

The regression test breaks one ``userHistory`` commit on both
substrates. The sweep draws seeded failures — one
``DataServerDownError`` from a random stateful component's
``to_gather`` or ``to_commit``, at a random call — across the CF, CTR,
CB, AR and demographic recipes, and requires every key of the store,
op journals and versions included, to equal an untouched run's.
"""

import functools
import random
from pathlib import Path

import pytest

from repro.errors import DataServerDownError
from repro.runtime import ProcessSubstrate, SimSubstrate, topology_recipe
from repro.topology.framework import CFTopologyConfig, build_cf_topology
from repro.topology.state import StateKeys, StoreBacked
from repro.utils.clock import SimClock

from tests.recovery.helpers import (
    TOPIC,
    USERS,
    cf_topology_factory,
    make_payloads,
    make_tdaccess,
    state_digest,
)
from tests.runtime.test_recipe_frames import actions, ar_run, cb_run, ctr_run
from tests.runtime.test_slice_failure import FlakyClient


def flaky_cf_factory(marker):
    """The CF helper topology, whose clients fail the first commit that
    carries ``hist:u0`` unless ``marker`` exists — in whatever process
    the bolts run."""
    inner = cf_topology_factory()

    def factory(clock, client_factory, consumer):
        def make_client():
            return FlakyClient(
                client_factory(), "mutate", marker, StateKeys.history("u0")
            )

        return inner(clock, make_client, consumer)

    return factory


def run_stream(make_substrate, marker: Path) -> dict:
    """The CF topology over 40 actions; ``run_until_idle()`` is called
    again after the injected error, as a caller would."""
    tdaccess = make_tdaccess(make_payloads(40))
    factory = topology_recipe(
        "tests.recovery.test_failed_wave_replay", "flaky_cf_factory",
        marker=str(marker),
    )
    with make_substrate() as substrate:
        clock = SimClock()
        store = substrate.build_tdstore(2, 8)
        cluster = substrate.build_storm(clock)
        cluster.submit(factory(clock, store.client, tdaccess.consumer(TOPIC)))
        try:
            cluster.run_until_idle()
        except DataServerDownError:
            pass
        cluster.run_until_idle()
        assert marker.exists()
        client = store.client()
        return state_digest(client) | {
            "histories": {
                user: client.get(StateKeys.history(user), None) for user in USERS
            }
        }


@pytest.mark.parametrize(
    "make_substrate",
    [
        pytest.param(SimSubstrate, id="sim"),
        pytest.param(
            lambda: ProcessSubstrate(worker_procs=2, server_procs=1),
            id="process",
        ),
    ],
)
def test_a_failed_commit_is_replayed_to_the_untouched_state(
    make_substrate, tmp_path
):
    untouched = tmp_path / "untouched"
    untouched.touch()
    expected = run_stream(SimSubstrate, untouched)
    assert run_stream(make_substrate, tmp_path / "armed") == expected


# -- the generated sweep ------------------------------------------------------


class Strike:
    """Counts the calls of ``method`` on ``component``'s tasks and raises
    one ``DataServerDownError`` from the ``at``-th (none, with 0)."""

    def __init__(self, component: str, method: str, at: int = 0):
        self.component = component
        self.method = method
        self.at = at
        self.calls = 0

    def arm(self, topology):
        spec = topology.specs[self.component]
        make = spec.factory

        def factory():
            bolt = make()
            call = getattr(bolt, self.method)

            def struck(*args):
                self.calls += 1
                if self.calls == self.at:
                    raise DataServerDownError(f"injected {self.method} failure")
                return call(*args)

            setattr(bolt, self.method, struck)
            return bolt

        spec.factory = factory


def cf_run(pruning_delta=None):
    def recipe(client_factory):
        clock = SimClock()
        tdaccess = make_tdaccess(make_payloads(32))
        topology = cf_topology_factory(pruning_delta=pruning_delta)(
            clock, client_factory, tdaccess.consumer(TOPIC)
        )
        return clock, topology

    return recipe


def demographic_run(client_factory):
    """Long enough for the hot lists to decay, ticked every 600 s."""
    clock = SimClock()
    config = CFTopologyConfig(group_of=lambda user: f"g{int(user[1:]) % 2}")
    return clock, build_cf_topology(
        "demographic", actions(150), clock, client_factory, config
    )


RECIPES = {
    "cf": cf_run(),
    "cf-pruned": cf_run(pruning_delta=0.05),
    "ctr": ctr_run,
    "cb": cb_run,
    "ar": ar_run,
    "demographic": demographic_run,
}
TICK_INTERVAL = {"demographic": 600.0}
METHODS = ("to_gather", "to_commit")
# restarting a groupCount task loses its decay schedule (ROADMAP 13(b));
# test_group_decay pins that, and the strict xfail below keeps it seen
KNOWN_DEFECT = ("groupCount", "to_commit")


def run_recipe(name, arm) -> dict:
    """The recipe on the simulator, with ``arm(topology)`` arming its
    strikes; returns every instance's contents."""
    with SimSubstrate() as substrate:
        store = substrate.build_tdstore(2, 8)
        clock, topology = RECIPES[name](store.client)
        for strike in arm(topology):
            strike.arm(topology)
        cluster = substrate.build_storm(clock, TICK_INTERVAL.get(name))
        cluster.submit(topology)
        try:
            cluster.run_until_idle()
        except DataServerDownError:
            cluster.run_until_idle()
        return store.snapshot_contents()


@functools.cache
def untouched(name) -> "tuple[dict, dict]":
    """The recipe's contents without a failure, and how many times each
    stateful ``(component, method)`` was called."""
    strikes = []

    def count_all(topology):
        strikes.extend(
            Strike(component, method)
            for component, spec in topology.specs.items()
            if isinstance(spec.factory(), StoreBacked)
            for method in METHODS
        )
        return strikes

    contents = run_recipe(name, count_all)
    return contents, {
        (strike.component, strike.method): strike.calls for strike in strikes
    }


def draw(seed) -> "tuple[str, Strike]":
    rng = random.Random(seed)
    name = sorted(RECIPES)[seed % len(RECIPES)]
    __, calls = untouched(name)
    target = rng.choice(sorted(key for key in calls if key != KNOWN_DEFECT))
    return name, Strike(*target, at=rng.randint(1, calls[target]))


@pytest.mark.parametrize("seed", range(36))
def test_one_failed_wave_leaves_the_untouched_state(seed):
    name, strike = draw(seed)
    expected, __ = untouched(name)
    got = run_recipe(name, lambda topology: [strike])
    assert strike.calls >= strike.at, "the strike never fired"
    assert got == expected, (name, strike.component, strike.method, strike.at)


@pytest.mark.xfail(
    strict=True,
    reason="a restarted groupCount task loses its decay schedule "
    "(ROADMAP 13(b); test_group_decay)",
)
def test_a_failed_group_count_commit_leaves_the_untouched_state():
    expected, calls = untouched("demographic")
    strike = Strike(*KNOWN_DEFECT, at=calls[KNOWN_DEFECT] // 2)
    assert run_recipe("demographic", lambda topology: [strike]) == expected
