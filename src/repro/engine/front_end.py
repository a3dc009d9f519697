"""The recommender front end (Figure 9), with a degradation ladder.

Interacts with "users": accepts queries, delegates to the engine,
applies application display filters, and records what was shown so the
feedback loop (impressions back into TDAccess) closes.

Serving under failure follows a **degradation ladder** instead of
failing hard. Each query steps down until a rung answers:

1. **live** — the engine's CF/CB answer from live TDStore state, under
   the query's deadline and the store client's circuit breaker;
2. **cache** — the :class:`~repro.engine.degraded.ServeThroughRecovery`
   last-known-good answer for this user (also used while a recovery
   replay is in progress);
3. **demographic** — the §4.2 hot-items complement for the user's
   group, falling back to the front end's own last fetched hot list
   when the store is unreachable;
4. **static** — a configured static top-N that needs no dependency at
   all, so the ladder always terminates with an answer.

Overload is handled before the ladder: a
:class:`~repro.resilience.LoadShedder` can shed low-priority queries,
which are answered straight from the static rung. The rung that served
every query is recorded in :class:`QueryLog` — the rung histogram is a
first-class health signal.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from repro.engine.degraded import ServeThroughRecovery
from repro.engine.engine import RecommenderEngine
from repro.errors import (
    ColdIndexError,
    EvaluationError,
    ResilienceError,
    TDAccessError,
    TDStoreError,
)
from repro.resilience.deadline import Deadline
from repro.resilience.shedder import LoadShedder
from repro.tdaccess.producer import Producer
from repro.types import Recommendation
from repro.utils.clock import SimClock

if TYPE_CHECKING:
    from repro.serving.layer import ServingLayer

RUNGS = ("live", "cache", "demographic", "static")

# failures that push a query down one rung instead of surfacing
_RUNG_FAILURES = (ResilienceError, TDStoreError)

# per-query records QueryLog retains (newest last); the counters beside
# them cover the whole run, so a long-lived front end stays bounded
QUERY_LOG_RECENT = 1024


@dataclass
class QueryLog:
    """What the front end served, for monitoring and evaluation."""

    queries: int = 0
    served: int = 0
    empty: int = 0
    shed: int = 0
    feedback_failures: int = 0
    # vq queries answered by CF inside the live rung (cold index or
    # browned-out store) — the retrieval cold-start health signal
    vq_fallbacks: int = 0
    # the same, by cause: a ColdIndexError's reason ("no_recent",
    # "unembedded_user", "empty_index", ...) or a store failure's class
    vq_fallback_reasons: dict[str, int] = field(default_factory=dict)
    rungs: dict[str, int] = field(default_factory=dict)
    displayed: deque[tuple[str, tuple[str, ...]]] = field(
        default_factory=lambda: deque(maxlen=QUERY_LOG_RECENT)
    )
    rung_history: deque[str] = field(
        default_factory=lambda: deque(maxlen=QUERY_LOG_RECENT)
    )

    def record_rung(self, rung: str):
        self.rungs[rung] = self.rungs.get(rung, 0) + 1
        self.rung_history.append(rung)

    def degraded_fraction(self) -> float:
        """Fraction of queries served below the live rung."""
        total = sum(self.rungs.values())
        if total == 0:
            return 0.0
        return 1.0 - self.rungs.get("live", 0) / total


class RecommenderFrontEnd:
    """Query preprocessing + result display + feedback capture.

    Resilience parameters are all optional; without them the front end
    serves exactly as before (live engine only). With them, every query
    runs under the ladder.

    Parameters
    ----------
    degraded:
        Last-known-good cache wrapper; when given, live serves refresh
        it and the cache rung reads from it.
    static_items:
        Ordered static top-N fallback (e.g. yesterday's offline global
        top list). Non-empty static items guarantee every query is
        answered.
    shedder:
        Admission control; shed queries are answered from the static
        rung without touching any dependency.
    deadline_budget:
        Per-query time budget in seconds (requires ``clock``); the
        budget is scoped onto the engine's store client so every nested
        state read observes it.
    clock:
        Clock shared with the store client charging degraded-server
        latency.
    serving:
        A :class:`~repro.serving.layer.ServingLayer` (CF only). When
        given, the live rung serves through its result cache and
        batched reads instead of per-key engine reads, the cache rung
        prefers its stale-but-present answers over the last-known-good
        cache, and :meth:`query_batch` serves concurrent queries as one
        coalesced fan-out.
    """

    def __init__(
        self,
        engine: RecommenderEngine,
        algorithm: str = "cf",
        display_filter: Callable[[Recommendation], bool] | None = None,
        feedback_producer: Producer | None = None,
        feedback_topic: str = "user_actions",
        *,
        degraded: ServeThroughRecovery | None = None,
        static_items: Sequence[str] = (),
        shedder: LoadShedder | None = None,
        deadline_budget: float | None = None,
        clock: SimClock | None = None,
        serving: "ServingLayer | None" = None,
    ):
        known = ("cf", "cb", "vq")
        if algorithm not in known:
            raise EvaluationError(
                f"front end algorithm must be one of {known}: {algorithm!r}"
            )
        if deadline_budget is not None and clock is None:
            raise EvaluationError(
                "deadline_budget needs a clock to measure against"
            )
        if serving is not None and algorithm != "cf":
            raise EvaluationError(
                f"the serving layer only batches 'cf': {algorithm!r}"
            )
        self._engine = engine
        self._algorithm = algorithm
        self._display_filter = display_filter
        self._producer = feedback_producer
        self._topic = feedback_topic
        self._degraded = degraded
        self._static_items = tuple(static_items)
        self._shedder = shedder
        self._deadline_budget = deadline_budget
        self._clock = clock
        self._serving = serving
        # last successfully fetched hot list: the demographic rung's own
        # fallback when the store cannot even serve hot items
        self._hot_fallback: list[tuple[str, float]] = []
        self.log = QueryLog()

    # -- the ladder --------------------------------------------------------

    def query(
        self, user_id: str, n: int, now: float, priority: str = "normal"
    ) -> list[Recommendation]:
        """Serve a top-N query, filtered for display, degrading by rungs."""
        self.log.queries += 1
        if self._shedder is not None and not self._shedder.try_admit(priority):
            self.log.shed += 1
            results = self._static(n)
            return self._finish(user_id, results, "static", now)
        deadline = self._make_deadline()
        results, rung = self._climb(user_id, n, now, deadline)
        return self._finish(user_id, results, rung, now)

    def query_batch(
        self,
        queries: Sequence[tuple[str, int]],
        now: float,
        priority: str = "normal",
    ) -> dict[tuple[str, int], list[Recommendation]]:
        """Serve concurrent queries as one coalesced fan-out.

        ``queries`` is a sequence of ``(user_id, n)``; duplicates
        coalesce onto one answer. Requires a serving layer. Admission
        control still applies per query; admitted queries share one
        deadline and one batched store fan-out, and if the live rung
        fails for the batch, each query walks the lower rungs
        individually — one slow shard degrades its keys, not every
        query.
        """
        if self._serving is None:
            raise EvaluationError("query_batch needs a serving layer")
        requests = list(dict.fromkeys(queries))
        out: dict[tuple[str, int], list[Recommendation]] = {}
        admitted: list[tuple[str, int]] = []
        for user_id, n in requests:
            self.log.queries += 1
            if self._shedder is not None and not self._shedder.try_admit(
                priority
            ):
                self.log.shed += 1
                out[(user_id, n)] = self._finish(
                    user_id, self._static(n), "static", now
                )
            else:
                admitted.append((user_id, n))
        if not admitted:
            return out
        deadline = self._make_deadline()
        if self._degraded is not None and self._degraded.in_recovery():
            # same contract as query(): never batch-read half-replayed
            # state — each query takes the ladder's recovery path
            for user_id, n in admitted:
                results, rung = self._climb(user_id, n, now, deadline)
                out[(user_id, n)] = self._finish(user_id, results, rung, now)
            return out
        try:
            answers = self._scoped(
                lambda: self._serving.serve_many(
                    [(user_id, n * 2) for user_id, n in admitted], now
                ),
                deadline,
            )
        except _RUNG_FAILURES:
            answers = None
        for user_id, n in admitted:
            if answers is not None:
                served, __tier = answers[(user_id, n * 2)]
                if self._degraded is not None:
                    self._degraded.remember(self._algorithm, user_id, served)
                results = self._filtered(served, n)
                if results:
                    out[(user_id, n)] = self._finish(
                        user_id, results, "live", now
                    )
                    continue
            results, rung = self._descend(user_id, n, now, deadline)
            out[(user_id, n)] = self._finish(user_id, results, rung, now)
        return out

    def _descend(
        self, user_id: str, n: int, now: float, deadline: Deadline | None
    ) -> tuple[list[Recommendation], str]:
        """Rungs 2–4 for one query whose live rung already failed."""
        results = self._filtered(self._stale_cached(user_id, n), n)
        if results:
            return results, "cache"
        hot = self._hot_items(user_id, n, now, deadline)
        results = self._filtered(
            [Recommendation(item, score, source="db") for item, score in hot], n
        )
        if results:
            return results, "demographic"
        return self._static(n), "static"

    def _make_deadline(self) -> Deadline | None:
        if self._deadline_budget is None or self._clock is None:
            return None
        return Deadline(self._clock.now, self._deadline_budget)

    def _scoped(self, fn: Callable[[], list], deadline: Deadline | None) -> list:
        """Run ``fn`` with the query deadline ambient on the store client."""
        store = getattr(self._engine, "store", None)
        if deadline is None or store is None or not hasattr(
            store, "deadline_scope"
        ):
            return fn()
        with store.deadline_scope(deadline):
            return fn()

    def _climb(
        self, user_id: str, n: int, now: float, deadline: Deadline | None
    ) -> tuple[list[Recommendation], str]:
        # rung 1: live engine state (through the cache wrapper so the
        # last-known-good answer stays fresh)
        if self._degraded is not None and self._degraded.in_recovery():
            results = self._degraded.cached(self._algorithm, user_id) or []
            results = self._filtered(results, n)
            if results:
                return results, "cache"
        else:
            try:
                results = self._filtered(
                    self._scoped(lambda: self._live(user_id, n * 2, now), deadline),
                    n,
                )
                if results:
                    return results, "live"
            except _RUNG_FAILURES:
                # rung 2: stale-but-present serving cache, then the
                # last-known-good cache
                results = self._filtered(self._stale_cached(user_id, n), n)
                if results:
                    return results, "cache"
        # rung 3: demographic hot items (§4.2), at worst from the front
        # end's own last fetched copy
        hot = self._hot_items(user_id, n, now, deadline)
        results = self._filtered(
            [Recommendation(item, score, source="db") for item, score in hot], n
        )
        if results:
            return results, "demographic"
        # rung 4: static top-N — no dependencies, cannot fail
        return self._static(n), "static"

    def _live(self, user_id: str, n: int, now: float) -> list[Recommendation]:
        if self._serving is not None:
            results, __tier = self._serving.serve(user_id, n, now)
            if self._degraded is not None:
                # the batched path bypasses the wrapper; keep the
                # last-known-good cache fresh by hand
                self._degraded.remember(self._algorithm, user_id, results)
            return results
        target = self._degraded if self._degraded is not None else self._engine
        if self._algorithm == "cf":
            return target.recommend_cf(user_id, n, now)
        if self._algorithm == "vq":
            # retrieval's own degradation step, still inside the live
            # rung: a cold index (or a store failure on the VQ read
            # path) answers from CF instead of dropping a rung — the
            # ladder below only engages if CF fails too
            try:
                return target.recommend_vq(user_id, n, now)
            except (ColdIndexError, *_RUNG_FAILURES) as exc:
                reason = (
                    exc.reason if isinstance(exc, ColdIndexError)
                    else type(exc).__name__
                )
                reasons = self.log.vq_fallback_reasons
                reasons[reason] = reasons.get(reason, 0) + 1
                self.log.vq_fallbacks += 1
                return target.recommend_cf(user_id, n, now)
        return target.recommend_cb(user_id, n, now)

    def _stale_cached(self, user_id: str, n: int) -> list[Recommendation]:
        """The cache rung's sources, in preference order: the serving
        layer's stale-but-present result, then the last-known-good
        answer."""
        if self._serving is not None:
            cached = self._serving.serve_stale(user_id, n * 2)
            if cached:
                return cached
        if self._degraded is not None:
            cached = self._degraded.cached(self._algorithm, user_id)
            if cached:
                return cached
        return []

    def _hot_items(
        self, user_id: str, n: int, now: float, deadline: Deadline | None
    ) -> list[tuple[str, float]]:
        try:
            hot = self._scoped(
                lambda: self._engine.hot_items_for(user_id, n, now), deadline
            )
        except _RUNG_FAILURES:
            return self._hot_fallback[:n]
        if hot:
            self._hot_fallback = list(hot)
        return hot

    def _static(self, n: int) -> list[Recommendation]:
        return [
            Recommendation(item, 0.0, source="static")
            for item in self._static_items[:n]
        ]

    def _filtered(
        self, results: list[Recommendation], n: int
    ) -> list[Recommendation]:
        if self._display_filter is not None:
            results = [r for r in results if self._display_filter(r)]
        return results[:n]

    def _finish(
        self,
        user_id: str,
        results: list[Recommendation],
        rung: str,
        now: float,
    ) -> list[Recommendation]:
        self.log.record_rung(rung)
        if results:
            self.log.served += 1
            self.log.displayed.append(
                (user_id, tuple(r.item_id for r in results))
            )
            self._record_impressions(user_id, results, now)
        else:
            self.log.empty += 1
        return results

    def _record_impressions(
        self, user_id: str, results: list[Recommendation], now: float
    ):
        if self._producer is None:
            return
        for rec in results:
            try:
                self._producer.send(
                    self._topic,
                    {
                        "user": user_id,
                        "item": rec.item_id,
                        "action": "impression",
                        "timestamp": now,
                    },
                    key=user_id,
                )
            except TDAccessError:
                # feedback is best-effort: losing an impression must not
                # fail the serve
                self.log.feedback_failures += 1
