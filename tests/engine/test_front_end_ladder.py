"""Unit tests for the front end's serving degradation ladder.

``TestLadderRungs`` runs every rung on a front end without a serving
layer, and ``TestLadderRungsServed`` reruns each case with a
``ServingLayer`` as the live rung. In every state ``query(u, n)`` must
be ``query_batch([(u, n)])[(u, n)]``: same answer, same rung, same
``QueryLog``.
"""

import pytest

from repro.engine.engine import EngineConfig, RecommenderEngine
from repro.errors import EvaluationError
from repro.resilience import CircuitBreaker, LoadShedder
from repro.serving import InvalidationBus, ServingLayer
from repro.tdstore.cluster import TDStoreCluster
from repro.topology.state import StateKeys
from repro.utils.clock import SimClock

from repro.engine import front_end as front_end_module
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


def log_view(log) -> tuple:
    return (
        log.queries, log.served, log.empty, log.shed, dict(log.rungs),
        log.vq_fallbacks, list(log.displayed), list(log.rung_history),
    )


class TestLadderRungs:
    SERVED = False  # is the live rung a ServingLayer's serve_many?

    def front_end(self, client, **options) -> RecommenderFrontEnd:
        """A CF front end over ``client``; ``self.bus`` evicts the
        serving layer's cached answers (a no-op without one)."""
        engine = RecommenderEngine(client, EngineConfig())
        self.bus = InvalidationBus()
        serving = (
            ServingLayer(engine, SimClock().now, bus=self.bus)
            if self.SERVED else None
        )
        return RecommenderFrontEnd(engine, serving=serving, **options)

    def batch_of_one(self, build, user=USER, n=2, now=1.0):
        """``query(user, n)`` on one front end from ``build()``, checked
        against ``query_batch([(user, n)])`` on a second one built the
        same way. Returns the answer and the first front end."""
        one, batch = build(), build()
        answer = one.query(user, n, now)
        assert batch.query_batch([(user, n)], now) == {(user, n): answer}
        assert log_view(batch.log) == log_view(one.log)
        return answer, one

    def test_healthy_serves_live(self):
        results, front_end = self.batch_of_one(
            lambda: self.front_end(seeded_store().client())
        )
        assert [r.item_id for r in results] == ["i2", "i3"]
        assert front_end.log.rungs == {"live": 1}
        assert list(front_end.log.rung_history) == ["live"]

    def broken_after_warm(self, user):
        """The store breaker opens after ``user``'s warm live query, and
        the cached answer is evicted, so the live rung raises."""
        clock = SimClock()
        breaker = CircuitBreaker(clock.now, failure_threshold=1, name="store")
        front_end = self.front_end(seeded_store().client(breaker=breaker))
        front_end._hot_fallback = [("h1", 4.0), ("h2", 2.0)]
        front_end.query(user, 2, 0.0)
        breaker.record_failure()
        self.bus.publish("user", user)
        return front_end

    def test_live_failure_serves_last_known_good(self):
        stale, front_end = self.batch_of_one(
            lambda: self.broken_after_warm(USER)
        )
        assert [r.item_id for r in stale] == ["i2", "i3"]
        assert front_end.log.rungs == {"live": 1, "cache": 1}
        assert front_end.log.degraded_fraction() == pytest.approx(0.5)

    def test_cache_miss_falls_to_demographic(self):
        results, front_end = self.batch_of_one(
            lambda: self.broken_after_warm(USER), user="ghost-user"
        )
        assert [r.item_id for r in results] == ["h1", "h2"]
        assert front_end.log.rungs == {"live": 1, "demographic": 1}

    def test_everything_down_serves_static(self):
        def build():
            client = seeded_store().client(breaker=open_breaker(SimClock()))
            return self.front_end(client, static_items=("s1", "s2", "s3"))

        results, front_end = self.batch_of_one(build)
        assert [r.item_id for r in results] == ["s1", "s2"]
        assert all(r.source == "static" for r in results)
        assert front_end.log.rungs == {"static": 1}

    def recovering_after_warm(self):
        recovering = {"now": False}
        front_end = self.front_end(
            seeded_store().client(), in_recovery=lambda: recovering["now"]
        )
        front_end.query(USER, 2, 0.0)
        recovering["now"] = True
        return front_end

    def test_recovery_window_serves_from_cache(self):
        results, front_end = self.batch_of_one(self.recovering_after_warm)
        assert [r.item_id for r in results] == ["i2", "i3"]
        assert front_end.log.rungs == {"live": 1, "cache": 1}

    def test_recovery_window_without_an_answer_falls_to_demographic(self):
        results, front_end = self.batch_of_one(
            self.recovering_after_warm, user="ghost-user"
        )
        assert [r.item_id for r in results] == ["h1", "h2"]
        assert front_end.log.rungs == {"live": 1, "demographic": 1}

    def test_shed_query_serves_static(self):
        def build():
            shedder = LoadShedder(SimClock().now, capacity=1, window=1.0)
            front_end = self.front_end(
                seeded_store().client(), static_items=("s1",), shedder=shedder
            )
            front_end.query(USER, 1, 0.0)
            return front_end

        results, front_end = self.batch_of_one(build, n=1)
        assert [r.item_id for r in results] == ["s1"]
        assert front_end.log.shed == 1
        assert front_end.log.rungs == {"live": 1, "static": 1}

    def test_rung_names_are_the_public_ladder(self):
        assert RUNGS == ("live", "cache", "demographic", "static")


class TestLadderRungsServed(TestLadderRungs):
    SERVED = True


class TestLastKnownGood:
    def test_vq_answer_from_the_cf_fallback_serves_on_the_cache_rung(self):
        """The last-known-good answer is filed under the user, whichever
        engine call produced it: a VQ query answered by CF inside the
        live rung is the one the cache rung serves once the store goes."""
        clock = SimClock()
        breaker = CircuitBreaker(clock.now, failure_threshold=1, name="store")
        engine = RecommenderEngine(
            seeded_store().client(breaker=breaker), EngineConfig()
        )
        front_end = RecommenderFrontEnd(
            engine, algorithm="vq", static_items=("s1", "s2")
        )
        live = front_end.query(USER, 2, 0.0)
        assert [r.item_id for r in live] == ["i2", "i3"]
        assert front_end.log.vq_fallback_reasons == {"unembedded_user": 1}
        breaker.record_failure()
        served = front_end.query(USER, 2, 1.0)
        assert served == live
        assert front_end.log.rungs == {"live": 1, "cache": 1}

    def test_last_known_good_is_bounded(self, monkeypatch):
        monkeypatch.setattr(front_end_module, "LAST_KNOWN_GOOD", 2)
        front_end = RecommenderFrontEnd(
            RecommenderEngine(seeded_store().client(), EngineConfig())
        )
        for user in (USER, "u2", "u3"):
            front_end.query(user, 2, 0.0)
        assert list(front_end._last_known_good) == ["u2", "u3"]


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
