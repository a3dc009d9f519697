"""Unit tests for the front end's serving degradation ladder."""

import pytest

from repro.engine.degraded import ServeThroughRecovery
from repro.engine.engine import EngineConfig, RecommenderEngine
from repro.errors import EvaluationError
from repro.resilience import CircuitBreaker, LoadShedder
from repro.tdstore.cluster import TDStoreCluster
from repro.topology.state import StateKeys
from repro.utils.clock import SimClock

from repro.engine.front_end import (
    QUERY_LOG_RECENT,
    RUNGS,
    RecommenderFrontEnd,
)

USER = "u1"


def seeded_store() -> TDStoreCluster:
    store = TDStoreCluster(num_data_servers=2, num_instances=8)
    client = store.client()
    client.put(StateKeys.recent(USER), [("i1", 5.0, 0.0)])
    client.put(StateKeys.history(USER), {"i1": 5.0})
    client.put(StateKeys.sim_list("i1"), {"i2": 0.9, "i3": 0.8})
    client.put(StateKeys.hot("global"), {"h1": 4.0, "h2": 2.0})
    return store


def open_breaker(clock: SimClock) -> CircuitBreaker:
    breaker = CircuitBreaker(clock.now, failure_threshold=1, name="store")
    breaker.record_failure()
    assert breaker.state == "open"
    return breaker


class TestLadderRungs:
    def test_healthy_serves_live(self):
        store = seeded_store()
        engine = RecommenderEngine(store.client(), EngineConfig())
        front_end = RecommenderFrontEnd(engine)
        results = front_end.query(USER, 2, 0.0)
        assert [r.item_id for r in results] == ["i2", "i3"]
        assert front_end.log.rungs == {"live": 1}
        assert list(front_end.log.rung_history) == ["live"]

    def test_live_failure_serves_last_known_good(self):
        clock = SimClock()
        store = seeded_store()
        breaker = CircuitBreaker(clock.now, failure_threshold=1, name="store")
        client = store.client(breaker=breaker)
        engine = RecommenderEngine(client, EngineConfig())
        degraded = ServeThroughRecovery(engine, in_recovery=lambda: False)
        front_end = RecommenderFrontEnd(engine, degraded=degraded)
        warm = front_end.query(USER, 2, 0.0)  # live; fills the cache
        breaker.record_failure()
        stale = front_end.query(USER, 2, 1.0)
        assert [r.item_id for r in stale] == [r.item_id for r in warm]
        assert front_end.log.rungs == {"live": 1, "cache": 1}
        assert front_end.log.degraded_fraction() == pytest.approx(0.5)

    def test_cache_miss_falls_to_demographic(self):
        clock = SimClock()
        store = seeded_store()
        engine = RecommenderEngine(store.client(), EngineConfig())
        broken = RecommenderEngine(
            store.client(breaker=open_breaker(clock)), EngineConfig()
        )
        degraded = ServeThroughRecovery(broken, in_recovery=lambda: False)
        front_end = RecommenderFrontEnd(broken, degraded=degraded)
        # warm the demographic fallback through the healthy engine first
        front_end._hot_fallback = engine.hot_items_for(USER, 2, 0.0)
        results = front_end.query("ghost-user", 2, 0.0)
        assert [r.item_id for r in results] == ["h1", "h2"]
        assert front_end.log.rungs == {"demographic": 1}

    def test_everything_down_serves_static(self):
        clock = SimClock()
        store = seeded_store()
        engine = RecommenderEngine(
            store.client(breaker=open_breaker(clock)), EngineConfig()
        )
        front_end = RecommenderFrontEnd(engine, static_items=("s1", "s2", "s3"))
        results = front_end.query(USER, 2, 0.0)
        assert [r.item_id for r in results] == ["s1", "s2"]
        assert all(r.source == "static" for r in results)
        assert front_end.log.rungs == {"static": 1}

    def test_recovery_window_serves_from_cache(self):
        store = seeded_store()
        engine = RecommenderEngine(store.client(), EngineConfig())
        recovering = {"now": False}
        degraded = ServeThroughRecovery(
            engine, in_recovery=lambda: recovering["now"]
        )
        front_end = RecommenderFrontEnd(engine, degraded=degraded)
        front_end.query(USER, 2, 0.0)
        recovering["now"] = True
        results = front_end.query(USER, 2, 1.0)
        assert results
        assert front_end.log.rungs == {"live": 1, "cache": 1}

    def test_rung_names_are_the_public_ladder(self):
        assert RUNGS == ("live", "cache", "demographic", "static")


class TestAdmissionAndAccounting:
    def test_shed_query_answers_static_without_dependencies(self):
        clock = SimClock()
        store = seeded_store()
        engine = RecommenderEngine(store.client(), EngineConfig())
        shedder = LoadShedder(clock.now, capacity=1, window=1.0)
        front_end = RecommenderFrontEnd(
            engine, static_items=("s1",), shedder=shedder
        )
        front_end.query(USER, 1, 0.0)
        shed = front_end.query(USER, 1, 0.0)
        assert [r.item_id for r in shed] == ["s1"]
        assert front_end.log.shed == 1
        assert front_end.log.rungs == {"live": 1, "static": 1}

    def test_deadline_budget_requires_clock(self):
        store = seeded_store()
        engine = RecommenderEngine(store.client(), EngineConfig())
        with pytest.raises(EvaluationError):
            RecommenderFrontEnd(engine, deadline_budget=0.5)

    def test_empty_rung_counts_sum_to_queries(self):
        store = seeded_store()
        engine = RecommenderEngine(store.client(), EngineConfig())
        front_end = RecommenderFrontEnd(engine)
        front_end.query(USER, 2, 0.0)
        front_end.query("nobody", 2, 0.0)  # hot complement still answers
        log = front_end.log
        assert sum(log.rungs.values()) == log.queries == 2

    def test_per_query_history_is_bounded(self):
        store = seeded_store()
        engine = RecommenderEngine(store.client(), EngineConfig())
        front_end = RecommenderFrontEnd(engine)
        for __ in range(QUERY_LOG_RECENT + 5):
            front_end.query(USER, 2, 0.0)
        log = front_end.log
        assert log.queries == log.rungs["live"] == QUERY_LOG_RECENT + 5
        assert len(log.rung_history) == QUERY_LOG_RECENT
        assert len(log.displayed) == QUERY_LOG_RECENT
        log.displayed.clear()
        log.rung_history.clear()
        assert not log.displayed and not log.rung_history
