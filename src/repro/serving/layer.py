"""The serving layer: coalesced, batched, cached query execution.

``ServingLayer`` is what the front end's ``live`` rung routes through
(:meth:`ServingLayer.serve_many` over a whole query batch):

* a fresh :class:`~repro.serving.cache.ResultCache` hit answers without
  touching the store (tier ``result_cache``);
* misses coalesce through the :class:`~repro.serving.coalescer.QueryCoalescer`
  and execute as one shared fan-out over the engine's batched CF reads
  (tier ``batched_live``), which cost three
  :meth:`~repro.tdstore.client.TDStoreClient.multi_get` calls per
  micro-batch instead of ``2 + R + G`` point reads per query;
* the hot-list tier (:class:`~repro.serving.cache.HotListCache`) feeds
  the demographic complement across batches;
* every answer lands back in the result cache tagged with the state it
  was computed from, and the
  :class:`~repro.serving.invalidation.InvalidationBus` evicts those
  entries the moment the stream commits a change to that state.

Store and resilience failures propagate: the front end's ladder, not
this layer, decides what to serve when the live rung fails.
"""

from __future__ import annotations

from typing import Callable

from repro.engine.engine import CFAnswer, RecommenderEngine
from repro.serving.cache import HotListCache, ResultCache
from repro.serving.coalescer import QueryCoalescer
from repro.serving.invalidation import InvalidationBus
from repro.types import Recommendation


class ServingLayer:
    """Batched + cached serving pipeline over a :class:`RecommenderEngine`.

    Parameters
    ----------
    engine:
        The query engine; its store client provides the batched reads.
    clock_now:
        Clock source for cache TTLs (share it with the store's clock).
    bus:
        When given, the layer subscribes its caches to the stream's
        invalidation notifications.
    result_ttl / hot_ttl:
        Freshness windows; stream invalidation usually fires first, the
        TTL is the backstop for state with no publisher.
    max_batch:
        Micro-batch bound for the coalescer.
    """

    def __init__(
        self,
        engine: RecommenderEngine,
        clock_now: Callable[[], float],
        *,
        bus: InvalidationBus | None = None,
        result_ttl: float = 30.0,
        hot_ttl: float = 60.0,
        cache_capacity: int = 10_000,
        max_batch: int = 64,
    ):
        self._engine = engine
        self.result_cache = ResultCache(
            clock_now, ttl=result_ttl, capacity=cache_capacity
        )
        self.hot_cache = HotListCache(clock_now, ttl=hot_ttl)
        self.coalescer = QueryCoalescer(max_batch=max_batch)
        if bus is not None:
            bus.subscribe(self._on_invalidation)
        self.tier_serves: dict[str, int] = {
            "result_cache": 0,
            "batched_live": 0,
        }

    @property
    def engine(self) -> RecommenderEngine:
        return self._engine

    def _on_invalidation(self, kind: str, key: str):
        self.result_cache.on_invalidation(kind, key)
        self.hot_cache.on_invalidation(kind, key)

    # -- serving -----------------------------------------------------------

    def serve_many(
        self, queries, now: float
    ) -> dict[tuple[str, int], tuple[list[Recommendation], str]]:
        """Serve concurrent queries as coalesced, cached micro-batches.

        ``queries`` is an iterable of ``(user_id, n)``; duplicates
        coalesce onto one computation. Returns every requested query
        (deduplicated) mapped to ``(results, tier)``.
        """
        for user_id, n in queries:
            self.coalescer.submit(user_id, n)
        out: dict[tuple[str, int], tuple[list[Recommendation], str]] = {}
        while self.coalescer.pending():
            batch = self.coalescer.drain()
            misses: list[tuple[str, int]] = []
            for request in batch:
                cached = self.result_cache.get(("cf", *request))
                if cached is not None:
                    self.tier_serves["result_cache"] += 1
                    out[request] = (cached, "result_cache")
                else:
                    misses.append(request)
            if misses:
                out.update(self._execute_batch(misses, now))
        return out

    # -- execution ---------------------------------------------------------

    def _execute_batch(
        self, misses: list[tuple[str, int]], now: float
    ) -> dict[tuple[str, int], tuple[list[Recommendation], str]]:
        """One shared fan-out for every missed request, grouped by n."""
        by_n: dict[int, list[str]] = {}
        for user_id, n in misses:
            by_n.setdefault(n, []).append(user_id)
        out: dict[tuple[str, int], tuple[list[Recommendation], str]] = {}
        for n, users in by_n.items():
            hot_lists = self._known_hot_lists(users)
            known_groups = set(hot_lists)
            answers = self._engine.recommend_cf_batch(
                users, n, now, hot_lists=hot_lists
            )
            for group, hot in hot_lists.items():
                if group not in known_groups:
                    self.hot_cache.put(group, hot)
            for user_id, answer in answers.items():
                self._fill_caches(user_id, n, answer)
                self.tier_serves["batched_live"] += 1
                out[(user_id, n)] = (answer.results, "batched_live")
        return out

    def _known_hot_lists(self, users: list[str]) -> dict[str, dict]:
        known: dict[str, dict] = {}
        for user_id in users:
            for group in self._engine._groups_for(user_id):
                if group not in known:
                    hot = self.hot_cache.get(group)
                    if hot is not None:
                        known[group] = hot
        return known

    def _fill_caches(self, user_id: str, n: int, answer: CFAnswer):
        tags = (
            ("user", user_id),
            *(("item", item) for item in answer.dep_items),
            *(("group", group) for group in answer.dep_groups),
        )
        self.result_cache.put(("cf", user_id, n), answer.results, tags)

    # -- observability -----------------------------------------------------

    def stats(self) -> dict[str, object]:
        """One flat dict for the monitor and the benchmark report."""
        store = self._engine.store
        return {
            "tier_serves": dict(self.tier_serves),
            "result_cache": self.result_cache.stats(),
            "hot_cache": self.hot_cache.stats(),
            "coalescer": self.coalescer.stats(),
            "batch_ops": getattr(store, "batch_ops", 0),
            "batched_keys": getattr(store, "batched_keys", 0),
            "hedged_reads": getattr(store, "hedged_reads", 0),
            "degraded_keys": getattr(store, "degraded_keys", 0),
        }
