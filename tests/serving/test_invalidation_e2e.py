"""End-to-end: a cached recommendation reflects a stream update within
one invalidation cycle, on both substrates.

The acceptance scenario for the serving layer: run the full CF topology
on a Storm cluster built with the invalidation bus, cache an answer
through the serving layer, then stream new actions that change the
state it was computed from. The executor publishes the tags of each
committed wave's keys — in this process on ``SimSubstrate``, from the
worker's reply on ``ProcessSubstrate`` — so the very next query, with
no TTL wait and no manual flush, recomputes from the updated state.

One store and one cluster serve the whole module per substrate (a
process leg forks once); each test keeps to users and items of its own.
"""

import pytest

from repro.engine.engine import EngineConfig, RecommenderEngine
from repro.runtime import ProcessSubstrate, SimSubstrate, topology_recipe
from repro.serving import InvalidationBus, ServingLayer
from repro.topology.framework import CFTopologyConfig, build_cf_topology
from repro.topology.state import StateKeys
from repro.types import UserAction
from repro.utils.clock import SimClock

BIG = 10**12


def serve_one(layer, user, n, now):
    """One query through ``serve_many``: ``(results, tier)``."""
    return layer.serve_many([(user, n)], now)[(user, n)]


def one_group(user):
    return "everyone"


def cf_topology(topology, actions, grouped=False):
    """The CF topology over ``actions`` (a recipe: workers rebuild it)."""
    config = CFTopologyConfig(
        linked_time=BIG, group_of=one_group if grouped else None
    )

    def factory(clock, client_factory, consumer):
        return build_cf_topology(
            topology, actions, clock, client_factory, config
        )

    return factory


class Stack:
    """One store and one Storm cluster that publishes to one bus."""

    def __init__(self, substrate):
        self.clock = SimClock()
        self.store = substrate.build_tdstore(3, 16)
        self.bus = InvalidationBus()
        self.cluster = substrate.build_storm(self.clock, bus=self.bus)
        self.published: list = []
        self.bus.subscribe(lambda kind, key: self.published.append((kind, key)))
        self.runs = 0

    def layer(self):
        """A serving layer on the bus; its TTLs never expire, so only an
        invalidation stales an answer."""
        engine = RecommenderEngine(self.store.client(), EngineConfig())
        return ServingLayer(
            engine, self.clock.now, bus=self.bus, result_ttl=BIG, hot_ttl=BIG
        )

    def stream(self, actions, grouped=False):
        """Run one batch of actions through the full CF topology; returns
        the tags published meanwhile."""
        self.runs += 1
        name = f"cf{self.runs}"
        factory = topology_recipe(
            __name__, "cf_topology", topology=name, actions=actions,
            grouped=grouped,
        )
        start = len(self.published)
        self.cluster.submit(factory(self.clock, self.store.client, None))
        self.cluster.run_until_idle()
        self.cluster.kill_topology(name)
        return self.published[start:]


@pytest.fixture(
    scope="module",
    params=[
        pytest.param(SimSubstrate, id="sim"),
        pytest.param(lambda: ProcessSubstrate(1, 1), id="process"),
    ],
)
def stack(request):
    with request.param() as substrate:
        yield Stack(substrate)


@pytest.fixture(scope="module")
def sim_tags():
    """The tags one micro-batch publishes on a fresh simulator."""
    with SimSubstrate() as substrate:
        return Stack(substrate).stream(tagged_batch(), grouped=True)


def co_click_actions(ns, item, start, users=10):
    """``users`` users click A then ``item``; "target" clicks only A."""
    actions = []
    t = start
    for n in range(users):
        actions.append(UserAction(f"{ns}u{n}", f"{ns}A", "click", t))
        actions.append(UserAction(f"{ns}u{n}", f"{ns}{item}", "click", t + 1))
        t += 2
    actions.append(UserAction(f"{ns}target", f"{ns}A", "click", t))
    return actions


def tagged_batch():
    return co_click_actions("tags-", "B", 0.0, users=4)


class TestStreamToCacheLoop:
    def test_cached_answer_reflects_sim_list_update_next_query(self, stack):
        layer = stack.layer()
        target = "sim-target"

        # phase 1: B co-clicks with A; target's cached answer is B alone
        stack.stream(co_click_actions("sim-", "B", 0.0))
        results, tier = serve_one(layer, target, 2, stack.clock.now())
        assert tier == "batched_live"
        assert [r.item_id for r in results] == ["sim-B"]
        results, tier = serve_one(layer, target, 2, stack.clock.now())
        assert tier == "result_cache"  # cached, would serve stale forever

        # phase 2: a new co-click signal for C arrives on the stream;
        # the sim-list commits publish ("item", "sim-A") so the cached
        # answer for target (which depends on A's list) stales
        invalidations_before = layer.result_cache.stats()["invalidations"]
        stack.stream(co_click_actions("sim-", "C", 1000.0, users=30))
        assert layer.result_cache.stats()["invalidations"] > invalidations_before
        assert layer.result_cache.get(("cf", target, 2)) is None

        # the very next query — one invalidation cycle later — serves
        # the updated recommendation live, no TTL expiry involved
        results, tier = serve_one(layer, target, 2, stack.clock.now())
        assert tier == "batched_live"
        assert "sim-C" in [r.item_id for r in results]
        # and it matches a per-key read of the same state exactly
        want = layer.engine.recommend_cf(target, 2, stack.clock.now())
        assert [(r.item_id, r.score) for r in results] == [
            (r.item_id, r.score) for r in want
        ]

    def test_user_history_update_stales_that_users_answer_only(self, stack):
        layer = stack.layer()
        target = "hist-target"

        stack.stream(co_click_actions("hist-", "B", 0.0))
        serve_one(layer, target, 1, stack.clock.now())
        serve_one(layer, "hist-u0", 3, stack.clock.now())
        assert len(layer.result_cache) == 2

        # target consumes B: their own history commit stales their entry
        stack.stream([UserAction(target, "hist-B", "click", 2000.0)])
        assert layer.result_cache.get(("cf", target, 1)) is None
        results, tier = serve_one(layer, target, 1, stack.clock.now())
        assert tier == "batched_live"
        assert all(r.item_id != "hist-B" for r in results)  # consumed now

    def test_group_commit_drops_the_hot_list(self, stack):
        stack.store.client().put(StateKeys.hot("global"), {"hot-h1": 4.0})
        layer = stack.layer()
        # a user with no history is answered from the global hot list
        serve_one(layer, "hot-cold", 3, stack.clock.now())
        assert layer.hot_cache.get("global") is not None

        stack.stream(
            [UserAction("hot-u", "hot-X", "click", stack.clock.now())],
            grouped=True,
        )
        assert layer.hot_cache.get("global") is None
        assert layer.result_cache.get(("cf", "hot-cold", 3)) is None
        results, tier = serve_one(layer, "hot-cold", 3, stack.clock.now())
        assert tier == "batched_live"
        want = layer.engine.recommend_cf("hot-cold", 3, stack.clock.now())
        assert [r.item_id for r in results] == [r.item_id for r in want]

    def test_one_micro_batch_publishes_the_same_tags(self, stack, sim_tags):
        tags = stack.stream(tagged_batch(), grouped=True)
        assert set(tags) == set(sim_tags)
        assert {kind for kind, __ in tags} == {"user", "item", "group"}
