"""Cache x degradation-ladder interaction (front end + serving layer).

The ladder's contract with the serving caches: fresh hits are "live",
an expired, invalidated or evicted result-cache entry never serves,
and when the live rung fails the front end's last-known-good answer
serves on the "cache" rung — not spuriously demographics.
"""

import pytest

from repro.engine.engine import EngineConfig, RecommenderEngine
from repro.engine.front_end import RecommenderFrontEnd
from repro.errors import EvaluationError
from repro.monitoring import Alert, SystemMonitor
from repro.resilience import CircuitBreaker, LoadShedder
from repro.serving import InvalidationBus, ServingLayer
from repro.tdstore import TDStoreCluster
from repro.topology.state import StateKeys
from repro.utils.clock import SimClock

USER = "u1"


def seeded_store() -> TDStoreCluster:
    store = TDStoreCluster(num_data_servers=2, num_instances=8)
    client = store.client()
    client.put(StateKeys.recent(USER), [("i1", 5.0, 0.0)])
    client.put(StateKeys.history(USER), {"i1": 5.0})
    client.put(StateKeys.sim_list("i1"), {"i2": 0.9, "i3": 0.8})
    client.put(StateKeys.hot("global"), {"h1": 4.0, "h2": 2.0})
    return store


def stack(store, clock, breaker=None, capacity=100, shedder=None,
          static=(), result_ttl=30.0, display_filter=None):
    """Front end + serving layer + bus over one store client."""
    client = store.client(breaker=breaker)
    engine = RecommenderEngine(client, EngineConfig())
    bus = InvalidationBus()
    serving = ServingLayer(
        engine, clock.now, bus=bus, cache_capacity=capacity,
        result_ttl=result_ttl,
    )
    front_end = RecommenderFrontEnd(
        engine,
        display_filter=display_filter,
        serving=serving,
        shedder=shedder,
        static_items=static,
    )
    return front_end, serving, bus, client


class TestRungAttribution:
    def test_fresh_cache_hit_counts_as_live(self):
        store = seeded_store()
        clock = SimClock()
        front_end, serving, __, __c = stack(store, clock)
        first = front_end.query(USER, 2, 0.0)
        second = front_end.query(USER, 2, 0.0)
        assert [r.item_id for r in first] == [r.item_id for r in second]
        assert front_end.log.rungs == {"live": 2}
        assert serving.tier_serves["result_cache"] == 1
        assert list(front_end.log.rung_history) == ["live", "live"]

    def test_breaker_open_serves_expired_entry_on_cache_rung(self):
        store = seeded_store()
        clock = SimClock()
        breaker = CircuitBreaker(clock.now, failure_threshold=1, name="store")
        front_end, serving, __, __c = stack(
            store, clock, breaker=breaker, result_ttl=5.0
        )
        warm = front_end.query(USER, 2, 0.0)
        breaker.record_failure()
        assert breaker.state == "open"
        # past the TTL the entry no longer answers fresh, so the live
        # rung reaches the store, trips the open breaker, and the ladder
        # steps down onto the last-known-good answer
        clock.advance(10.0)
        served = front_end.query(USER, 2, 10.0)
        assert [r.item_id for r in served] == [r.item_id for r in warm]
        assert front_end.log.rungs == {"live": 1, "cache": 1}
        assert serving.tier_serves == {"result_cache": 0, "batched_live": 1}
        assert breaker.state == "open"

    def test_stale_invalidated_entry_still_serves_under_failure(self):
        store = seeded_store()
        clock = SimClock()
        breaker = CircuitBreaker(clock.now, failure_threshold=1, name="store")
        front_end, serving, bus, __c = stack(store, clock, breaker=breaker)
        warm = front_end.query(USER, 2, 0.0)
        bus.publish("user", USER)  # stream evicted the cached answer
        assert len(serving.result_cache) == 0
        breaker.record_failure()
        served = front_end.query(USER, 2, 1.0)
        assert [r.item_id for r in served] == [r.item_id for r in warm]
        assert front_end.log.rungs == {"live": 1, "cache": 1}

    def test_staled_entry_recomputes_live_when_healthy(self):
        store = seeded_store()
        clock = SimClock()
        front_end, serving, bus, __c = stack(store, clock)
        front_end.query(USER, 2, 0.0)
        bus.publish("user", USER)
        front_end.query(USER, 2, 1.0)
        # healthy store: an invalidated entry is recomputed live
        assert front_end.log.rungs == {"live": 2}
        assert serving.tier_serves == {"result_cache": 0, "batched_live": 2}


class TestEvictionStorms:
    def test_evicted_entry_falls_back_to_last_known_good_not_demographic(self):
        store = seeded_store()
        clock = SimClock()
        breaker = CircuitBreaker(clock.now, failure_threshold=1, name="store")
        front_end, serving, __, __c = stack(
            store, clock, breaker=breaker, capacity=2
        )
        warm = front_end.query(USER, 2, 0.0)
        # an eviction storm pushes the user's entry out of the result cache
        for index in range(5):
            front_end.query(f"storm-user-{index}", 2, 0.0)
        assert ("cf", USER, 4) not in serving.result_cache._entries
        breaker.record_failure()
        served = front_end.query(USER, 2, 1.0)
        assert [r.item_id for r in served] == [r.item_id for r in warm]
        assert front_end.log.rungs.get("demographic", 0) == 0
        assert front_end.log.rungs["cache"] == 1

    def test_without_any_cached_copy_demographic_is_correct(self):
        store = seeded_store()
        clock = SimClock()
        breaker = CircuitBreaker(clock.now, failure_threshold=1, name="store")
        front_end, serving, __, __c = stack(
            store, clock, breaker=breaker, capacity=2
        )
        healthy_engine = RecommenderEngine(store.client(), EngineConfig())
        front_end._hot_fallback = healthy_engine.hot_items_for(USER, 2, 0.0)
        breaker.record_failure()
        served = front_end.query("never-seen", 2, 0.0)
        assert [r.item_id for r in served] == ["h1", "h2"]
        assert front_end.log.rungs == {"demographic": 1}


class TestQueryBatch:
    def test_batch_serves_live_and_records_rungs(self):
        store = seeded_store()
        clock = SimClock()
        front_end, serving, __, __c = stack(store, clock)
        answers = front_end.query_batch([(USER, 2), ("other", 2)], 0.0)
        assert set(answers) == {(USER, 2), ("other", 2)}
        assert [r.item_id for r in answers[(USER, 2)]] == ["i2", "i3"]
        assert front_end.log.rungs["live"] == 2
        assert serving.coalescer.batches >= 1

    def test_batch_failure_degrades_per_query(self):
        store = seeded_store()
        clock = SimClock()
        breaker = CircuitBreaker(clock.now, failure_threshold=1, name="store")
        front_end, serving, __, __c = stack(
            store, clock, breaker=breaker, static=("s1",)
        )
        front_end.query_batch([(USER, 2)], 0.0)  # warm
        breaker.record_failure()
        answers = front_end.query_batch([(USER, 2), ("stranger", 2)], 1.0)
        assert answers[(USER, 2)]  # last-known-good, cache rung
        assert [r.item_id for r in answers[("stranger", 2)]] == ["s1"]
        assert front_end.log.rungs["cache"] == 1
        assert front_end.log.rungs["static"] == 1

    def test_shedding_applies_per_batched_query(self):
        store = seeded_store()
        clock = SimClock()
        shedder = LoadShedder(clock.now, capacity=1, window=1.0)
        front_end, __, __b, __c = stack(
            store, clock, shedder=shedder, static=("s1",)
        )
        answers = front_end.query_batch([(USER, 2), ("u2", 2)], 0.0)
        assert front_end.log.shed == 1
        assert sorted(front_end.log.rungs.items()) == [
            ("live", 1), ("static", 1)
        ]
        assert len(answers) == 2

    def test_query_batch_reads_the_engine_without_serving(self):
        store = seeded_store()
        engine = RecommenderEngine(store.client(), EngineConfig())
        front_end = RecommenderFrontEnd(engine)
        answers = front_end.query_batch([(USER, 2), (USER, 2), ("u2", 1)], 0.0)
        assert [r.item_id for r in answers[(USER, 2)]] == ["i2", "i3"]
        # the engine's CF answer for a user without history is the hot
        # complement, still on the live rung
        assert [r.item_id for r in answers[("u2", 1)]] == ["h1"]
        assert front_end.log.rungs == {"live": 2}

    def test_serving_layer_requires_cf(self):
        store = seeded_store()
        clock = SimClock()
        engine = RecommenderEngine(store.client(), EngineConfig())
        serving = ServingLayer(engine, clock.now)
        with pytest.raises(EvaluationError):
            RecommenderFrontEnd(engine, algorithm="cb", serving=serving)


class TestOneLadder:
    def test_filtered_out_live_answer_is_not_a_cache_serve(self):
        """A healthy batch whose live answer the display filter empties
        steps straight to demographic (then static): no stale serve is
        counted, no "live rung failing" alert fires, and ``query`` and
        ``query_batch`` agree."""
        hidden = {"i2", "i3", "h1", "h2"}
        answers = []
        for serve in ("query", "query_batch"):
            clock = SimClock()
            front_end, serving, __, __c = stack(
                seeded_store(), clock,
                display_filter=lambda r: r.item_id not in hidden,
            )
            monitor = SystemMonitor(clock.now)
            monitor.watch("serving", serving)
            monitor.watch("front_end", front_end)
            monitor.snapshot()
            if serve == "query":
                answers.append(front_end.query(USER, 2, 0.0))
            else:
                answers.append(front_end.query_batch([(USER, 2)], 0.0)[(USER, 2)])
            assert front_end.log.rungs == {"static": 1}
            assert monitor.evaluate(monitor.snapshot()) == [Alert(
                "warning", "serving",
                "1 query(ies) served below the live rung since last snapshot",
            )]
        assert answers == [[], []]
