"""The ISSUE acceptance scenario: serving 100% of queries through chaos.

A latency spike across the TDStore pool, one data server crashed, and
the active TDAccess master killed — all at once — while the front end
keeps answering every query within a bounded deadline. The rung
histogram proves the ladder engaged (not just that live survived), and
the store breaker's transition log proves it re-closed after recovery.
"""

from repro.engine.engine import EngineConfig, RecommenderEngine
from repro.recovery import Fault, FaultInjector
from repro.resilience import CircuitBreaker, LoadShedder, RetryPolicy
from repro.tdaccess.cluster import TDAccessCluster
from repro.tdstore.cluster import TDStoreCluster
from repro.topology.state import StateKeys
from repro.utils.clock import SimClock

from repro.engine.front_end import RecommenderFrontEnd

TOPIC = "user_actions"
USERS = ["u0", "u1", "u2", "u3"]
DEADLINE = 0.5
# the spike exceeds the whole per-query budget, so every op against a
# spiked server blows the deadline — consecutive failures that open the
# store breaker (a milder spike lets early ops through, and the breaker
# correctly stays closed on a mixed success/failure stream)
SPIKE = 0.6
ROUNDS = 8


def seed_state(store: TDStoreCluster):
    """Directly write the CF + demographic state the engine reads."""
    client = store.client()
    for i, user in enumerate(USERS):
        liked = f"i{i}"
        client.put(StateKeys.recent(user), [(liked, 5.0, 0.0)])
        client.put(StateKeys.history(user), {liked: 5.0})
        client.put(
            StateKeys.sim_list(liked),
            {f"i{i}-a": 0.9, f"i{i}-b": 0.8},
        )
    client.put(StateKeys.hot("global"), {"h1": 5.0, "h2": 3.0})


def build_front_end(store, access, clock):
    breaker = CircuitBreaker(
        clock.now, failure_threshold=3, recovery_time=2.0, name="tdstore"
    )
    client = store.client(
        clock=clock,
        breaker=breaker,
        retry=RetryPolicy(max_attempts=2, base_delay=0.01, sleep=clock.advance),
    )
    engine = RecommenderEngine(client, EngineConfig())
    producer = access.producer(
        retry=RetryPolicy(max_attempts=3, base_delay=0.01, sleep=clock.advance)
    )
    front_end = RecommenderFrontEnd(
        engine,
        algorithm="cf",
        feedback_producer=producer,
        feedback_topic=TOPIC,
        static_items=("s1", "s2"),
        deadline_budget=DEADLINE,
        clock=clock,
    )
    return front_end, client, breaker, producer


def chaos_plan(store_servers):
    plan = [Fault(2, "crash_tdstore", (1,)),
            Fault(3, "failover_tdaccess_master")]
    for server in store_servers:
        plan.append(Fault(2, "latency_spike", ("tdstore", server, SPIKE)))
        plan.append(Fault(5, "clear_degradation", ("tdstore", server)))
    plan.append(Fault(5, "recover_tdstore", (1,)))
    return plan


class TestChaosServing:
    def test_every_query_served_within_bounds(self):
        clock = SimClock()
        store = TDStoreCluster(num_data_servers=4, num_instances=16)
        access = TDAccessCluster(clock, num_data_servers=2)
        access.create_topic(TOPIC, 3)
        seed_state(store)
        front_end, client, breaker, producer = build_front_end(
            store, access, clock
        )
        injector = FaultInjector(
            chaos_plan(range(4)), tdstore=store, tdaccess=access
        )

        worst_elapsed = 0.0
        for barrier_round in range(1, ROUNDS + 1):
            injector.on_barrier(barrier_round)
            for user in USERS:
                started = clock.now()
                results = front_end.query(user, 2, clock.now())
                worst_elapsed = max(worst_elapsed, clock.now() - started)
                # the whole point: chaos never leaves a query unanswered
                assert results, (
                    f"round {barrier_round}: no answer for {user}"
                )
            clock.advance(1.0)

        log = front_end.log
        assert injector.exhausted
        assert log.queries == ROUNDS * len(USERS)
        assert log.served == log.queries
        assert log.empty == 0
        assert sum(log.rungs.values()) == log.queries

        # bounded latency: a query may overshoot its budget by at most
        # the one degraded op that blew it (plus retry backoff)
        assert worst_elapsed < DEADLINE + SPIKE + 0.1

        # the ladder engaged: live before/after the storm, degraded inside
        assert log.rungs["live"] > 0
        assert log.rungs.get("cache", 0) > 0
        assert log.degraded_fraction() > 0.0

        # the breaker opened under the spike and re-closed after recovery
        assert client.deadline_misses > 0
        assert client.breaker_rejections > 0
        assert breaker.state == "closed"
        edges = [(t.from_state, t.to_state) for t in breaker.transitions]
        assert ("closed", "open") in edges
        assert ("open", "half_open") in edges
        assert ("half_open", "closed") in edges

        # the master failover was absorbed by the feedback producer
        assert access.masters.failovers == 1
        assert producer.send_retries >= 1
        assert log.feedback_failures == 0

        # no impression was lost across the failover
        consumer = access.consumer(TOPIC)
        assert len(consumer.poll(10_000)) == producer.sent

    def test_overload_is_shed_to_the_static_rung(self):
        clock = SimClock()
        store = TDStoreCluster(num_data_servers=4, num_instances=16)
        seed_state(store)
        client = store.client(clock=clock)
        engine = RecommenderEngine(client, EngineConfig())
        shedder = LoadShedder(clock.now, capacity=4, window=1.0)
        front_end = RecommenderFrontEnd(
            engine,
            static_items=("s1", "s2"),
            shedder=shedder,
            deadline_budget=DEADLINE,
            clock=clock,
        )
        for _ in range(10):
            results = front_end.query("u0", 2, clock.now(), priority="low")
            assert results  # shed queries still get the static answer
        log = front_end.log
        assert log.shed == 8  # low priority: 50% of a 4-slot window
        assert log.rungs["static"] == 8
        assert log.rungs["live"] == 2
        assert shedder.total_shed() == 8
