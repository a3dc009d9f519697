"""Serve-through-recovery degradation for the recommender engine.

While recovery replays the log, TDStore holds checkpoint-old state that
is converging but not yet caught up. Rather than serve those half-replayed
answers (or nothing), :class:`ServeThroughRecovery` keeps a bounded cache
of the last answer served to each user and falls back to it for the
duration of the recovery window — the classic "stale but sane"
degradation mode of serving systems. Queries outside a recovery window
pass straight through to the live engine and refresh the cache.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

from repro.engine.engine import RecommenderEngine
from repro.types import Recommendation

InRecovery = Callable[[], bool]

CACHE_SIZE = 10_000


class ServeThroughRecovery:
    """Wraps a :class:`RecommenderEngine` with a last-known-good cache.

    Parameters
    ----------
    engine:
        The live engine; swap in the rebuilt one after recovery with
        :meth:`attach_engine`.
    in_recovery:
        Predicate consulted per query — typically
        ``lambda: manager.in_progress`` for a
        :class:`~repro.recovery.RecoveryManager`.

    At most :data:`CACHE_SIZE` (algorithm, user) answers are retained,
    evicted least-recently-used.
    """

    def __init__(
        self,
        engine: RecommenderEngine,
        in_recovery: InRecovery,
    ):
        self._engine = engine
        self._in_recovery = in_recovery
        self._cache: OrderedDict[tuple[str, str], list[Recommendation]] = (
            OrderedDict()
        )
        self.live_serves = 0
        self.degraded_serves = 0
        self.degraded_misses = 0

    def attach_engine(self, engine: RecommenderEngine):
        """Point at the engine of a rebuilt deployment (cache survives)."""
        self._engine = engine

    @property
    def engine(self) -> RecommenderEngine:
        return self._engine

    def in_recovery(self) -> bool:
        """Is the wrapped engine currently serving through a recovery?"""
        return self._in_recovery()

    def cached(self, algorithm: str, user_id: str) -> "list[Recommendation] | None":
        """Last-known-good answer for ``(algorithm, user)``, or None.

        The degradation ladder peeks here directly when the live rung
        fails for reasons other than recovery (deadline blown, breaker
        open, store down)."""
        key = (algorithm, user_id)
        cached = self._cache.get(key)
        if cached is None:
            return None
        self._cache.move_to_end(key)
        return list(cached)

    def remember(self, algorithm: str, user_id: str, results: list[Recommendation]):
        """Refresh the last-known-good answer from an external live serve
        (the serving layer's batched path answers without going through
        :meth:`recommend_cf`, but its answers are just as good here)."""
        key = (algorithm, user_id)
        self._cache[key] = list(results)
        self._cache.move_to_end(key)
        while len(self._cache) > CACHE_SIZE:
            self._cache.popitem(last=False)

    def recommend_cf(
        self, user_id: str, n: int, now: float
    ) -> list[Recommendation]:
        return self._serve("cf", self._engine.recommend_cf, user_id, n, now)

    def recommend_cb(
        self, user_id: str, n: int, now: float
    ) -> list[Recommendation]:
        return self._serve("cb", self._engine.recommend_cb, user_id, n, now)

    def recommend_vq(
        self, user_id: str, n: int, now: float
    ) -> list[Recommendation]:
        return self._serve("vq", self._engine.recommend_vq, user_id, n, now)

    def _serve(self, algorithm, live, user_id, n, now) -> list[Recommendation]:
        key = (algorithm, user_id)
        if self._in_recovery():
            self.degraded_serves += 1
            cached = self._cache.get(key)
            if cached is None:
                # no last-known-good answer: empty beats half-replayed
                self.degraded_misses += 1
                return []
            self._cache.move_to_end(key)
            return cached[:n]
        results = live(user_id, n, now)
        self.live_serves += 1
        self._cache[key] = list(results)
        self._cache.move_to_end(key)
        while len(self._cache) > CACHE_SIZE:
            self._cache.popitem(last=False)
        return results
