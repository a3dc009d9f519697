"""The recommender front end (Figure 9), with a degradation ladder.

Interacts with "users": accepts queries, delegates to the engine,
applies application display filters, and records what was shown so the
feedback loop (impressions back into TDAccess) closes.

Serving under failure follows one **degradation ladder** instead of
failing hard; :meth:`RecommenderFrontEnd.query` is a batch of one. Each
query steps down until a rung answers:

1. **live** — the engine's CF/CB answer from live TDStore state, under
   the query's deadline and the store client's circuit breaker;
2. **cache** — the user's last-known-good answer: the last unfiltered
   live answer this front end got for them, whichever engine call (or
   serving tier) produced it. Reached only when the live read failed or
   a recovery replay is in progress — a live answer the display filter
   empties goes straight on to demographic;
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

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

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

# users whose last live answer the cache rung keeps
LAST_KNOWN_GOOD = 10_000


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
    in_recovery:
        Predicate consulted per batch (e.g. ``lambda:
        manager.in_progress``); while it holds the live rung is skipped,
        so half-replayed state is never served.
    static_items:
        Ordered static top-N fallback (e.g. yesterday's offline global
        top list). Non-empty static items guarantee every query is
        answered.
    shedder:
        Admission control; shed queries are answered from the static
        rung without touching any dependency.
    deadline_budget:
        Per-batch time budget in seconds (requires ``clock``); the
        budget is scoped onto the engine's store client so every nested
        state read observes it.
    clock:
        Clock shared with the store client charging degraded-server
        latency.
    serving:
        A :class:`~repro.serving.layer.ServingLayer` (CF only). When
        given, the live rung is one ``serve_many`` over the whole batch
        (result cache + coalesced batched reads) instead of per-key
        engine reads.
    """

    def __init__(
        self,
        engine: RecommenderEngine,
        algorithm: str = "cf",
        display_filter: Callable[[Recommendation], bool] | None = None,
        feedback_producer: Producer | None = None,
        feedback_topic: str = "user_actions",
        *,
        in_recovery: Callable[[], bool] | None = None,
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
        self._in_recovery = in_recovery
        self._static_items = tuple(static_items)
        self._shedder = shedder
        self._deadline_budget = deadline_budget
        self._clock = clock
        self._serving = serving
        # the cache rung: each user's last unfiltered live answer, the
        # least recently answered user dropped first
        self._last_known_good: OrderedDict[str, list] = OrderedDict()
        # last successfully fetched hot list: the demographic rung's own
        # fallback when the store cannot even serve hot items
        self._hot_fallback: list[tuple[str, float]] = []
        self.log = QueryLog()

    # -- the ladder --------------------------------------------------------

    def query(
        self, user_id: str, n: int, now: float, priority: str = "normal"
    ) -> list[Recommendation]:
        """Serve a top-N query, filtered for display: a batch of one."""
        return self.query_batch([(user_id, n)], now, priority)[(user_id, n)]

    def query_batch(
        self,
        queries: Sequence[tuple[str, int]],
        now: float,
        priority: str = "normal",
    ) -> dict[tuple[str, int], list[Recommendation]]:
        """Serve concurrent queries, each down the ladder.

        ``queries`` is a sequence of ``(user_id, n)``; duplicates
        coalesce onto one answer. Admission control applies per query;
        admitted queries share one deadline and one live read (one
        batched fan-out behind a serving layer), and each query whose
        live read failed walks the lower rungs on its own — one slow
        shard degrades its keys, not every query.
        """
        out: dict[tuple[str, int], list[Recommendation]] = {}
        admitted: list[tuple[str, int]] = []
        for user_id, n in dict.fromkeys(queries):
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
        recovering = self._in_recovery is not None and self._in_recovery()
        live = {} if recovering else self._live(admitted, now, deadline)
        for user_id, n in admitted:
            # rung 1: live; rung 2: only when live failed or is skipped
            answer = live.get((user_id, n * 2))
            if answer is not None:
                results, rung = self._filtered(answer, n), "live"
            else:
                cached = self._last_known_good.get(user_id, [])
                results, rung = self._filtered(cached, n), "cache"
            if not results:
                # rung 3: demographic hot items (§4.2), at worst from the
                # front end's own last fetched copy
                hot = self._hot_items(user_id, n, now, deadline)
                results, rung = self._filtered(
                    [Recommendation(i, s, source="db") for i, s in hot], n
                ), "demographic"
            if not results:
                # rung 4: static top-N — no dependencies, cannot fail
                results, rung = self._static(n), "static"
            out[(user_id, n)] = self._finish(user_id, results, rung, now)
        return out

    def _make_deadline(self) -> Deadline | None:
        if self._deadline_budget is None or self._clock is None:
            return None
        return Deadline(self._clock.now, self._deadline_budget)

    def _scoped(self, fn: Callable[[], Any], deadline: Deadline | None) -> Any:
        """Run ``fn`` with the query deadline ambient on the store client."""
        store = getattr(self._engine, "store", None)
        scope = getattr(store, "deadline_scope", None)
        if deadline is None or scope is None:
            return fn()
        with scope(deadline):
            return fn()

    def _live(
        self,
        admitted: list[tuple[str, int]],
        now: float,
        deadline: Deadline | None,
    ) -> dict[tuple[str, int], list[Recommendation]]:
        """The live rung's unfiltered answers by ``(user, 2n)`` — twice
        the depth, so the display filter has slack; a request whose read
        failed is absent. Every answer becomes its user's last-known-good
        one."""
        requests = [(user_id, n * 2) for user_id, n in admitted]
        answers: dict[tuple[str, int], list[Recommendation]] = {}
        if self._serving is not None:
            try:
                served = self._scoped(
                    lambda: self._serving.serve_many(requests, now), deadline
                )
            except _RUNG_FAILURES:
                served = {}
            answers = {key: results for key, (results, __) in served.items()}
        else:
            for user_id, n in requests:
                try:
                    answers[(user_id, n)] = self._scoped(
                        lambda: self._recommend(user_id, n, now), deadline
                    )
                except _RUNG_FAILURES:
                    pass
        last_known_good = self._last_known_good
        for (user_id, __), results in answers.items():
            last_known_good[user_id] = results
            last_known_good.move_to_end(user_id)
        while len(last_known_good) > LAST_KNOWN_GOOD:
            last_known_good.popitem(last=False)
        return answers

    def _recommend(self, user_id: str, n: int, now: float) -> list[Recommendation]:
        engine = self._engine
        if self._algorithm == "cf":
            return engine.recommend_cf(user_id, n, now)
        if self._algorithm == "cb":
            return engine.recommend_cb(user_id, n, now)
        # retrieval's own degradation step, inside the live rung: a cold
        # index (or a store failure on the VQ read path) answers from CF;
        # the ladder below engages only if CF fails too
        try:
            return engine.recommend_vq(user_id, n, now)
        except (ColdIndexError, *_RUNG_FAILURES) as exc:
            reason = (
                exc.reason if isinstance(exc, ColdIndexError)
                else type(exc).__name__
            )
            reasons = self.log.vq_fallback_reasons
            reasons[reason] = reasons.get(reason, 0) + 1
            self.log.vq_fallbacks += 1
            return engine.recommend_cf(user_id, n, now)

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
