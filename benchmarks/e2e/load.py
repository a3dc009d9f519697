"""The seeded load generator: the action stream and the query mix.

The program under test sees only what this module generates.

**Action stream.** Users are Zipf(0.8) over 200, items Zipf(1.1) over
300, actions click/browse/read/purchase at 60/25/10/5 %, one action every
300 s of event time (so the CF bolts' 6-hour linked time spans 72 events,
three micro-batches, and the three warm-up micro-batches reach the steady
state). Each micro-batch of 24 takes one draw from each of 24
equal-probability strata of every distribution, so all micro-batches have
the same popularity profile.

The stream of popularity *ranks* is fixed by ``TRACE_SEED``; ``--seed``
decides which user and item ids hold which rank (and so which task,
TDAccess partition and TDStore instance every key lands on), the query
order and the cache-churn coin flips. The ranks are not re-drawn per seed
because a pipeline tuple tree costs one to forty bolt executions
depending on the acting user's history: over the ~20 micro-batches a
process-substrate window holds, independently drawn streams differ by
10-25 % in work (measured, cv of 6-batch sums), which would drown a 10 %
bound. With the ranks fixed every seed does the same amount of pipeline
work on different keys.

**Query mix.** CF windows of 8 Zipf(1.1) users, each query's user staled
with probability 0.03 before its window (as ``bench_serving.py`` does);
VQ queries for single Zipf(1.1) users. All drawn from ``--seed``, over the
same moving popularity ranking as the actions.
"""

from __future__ import annotations

import numpy as np

NUM_USERS = 2000
NUM_ITEMS = 300
BATCH = 24
STEP_SECONDS = 100.0
ACTIONS = ("click", "browse", "read", "purchase")
ACTION_SHARES = (0.60, 0.25, 0.10, 0.05)
TRACE_SEED = 2015

TOP_N = 10
WINDOW = 8
CHURN = 0.03


def zipf_cdf(n: int, s: float) -> np.ndarray:
    weights = np.arange(1, n + 1, dtype=np.float64) ** -s
    return np.cumsum(weights / weights.sum())


def _stratified(rng, cdf: np.ndarray, n: int) -> np.ndarray:
    """One draw from each of ``n`` equal-probability strata, shuffled."""
    ranks = np.searchsorted(cdf, (np.arange(n) + rng.random(n)) / n)
    rng.shuffle(ranks)
    return np.minimum(ranks, len(cdf) - 1)


class EventTrace:
    """Micro-batches of raw action payloads, in stream order.

    The user holding popularity rank ``r`` during micro-batch ``b`` is
    ``users[(r + b) % NUM_USERS]``: activity moves through the fixed
    population one rank per micro-batch, so no user's history swallows
    the catalog however far a fast run gets, while within the 3-batch
    linked time a user's rank, and so the work an action costs, hardly
    moves.
    """

    def __init__(self, seed: int):
        labels = np.random.default_rng([seed, 1])
        self.users = [f"u{i}" for i in labels.permutation(NUM_USERS)]
        self.items = [f"i{i}" for i in labels.permutation(NUM_ITEMS)]
        self._ranks = np.random.default_rng(TRACE_SEED)
        self._user_cdf = zipf_cdf(NUM_USERS, 0.8)
        self._item_cdf = zipf_cdf(NUM_ITEMS, 1.1)
        self._action_cdf = np.cumsum(ACTION_SHARES)
        self.position = 0  # index of the next micro-batch

    def next_batch(self) -> "list[dict]":
        index = self.position
        self.position += 1
        users = _stratified(self._ranks, self._user_cdf, BATCH)
        items = _stratified(self._ranks, self._item_cdf, BATCH)
        actions = _stratified(self._ranks, self._action_cdf, BATCH)
        return [
            {
                "user": self.users[(users[k] + index) % NUM_USERS],
                "item": self.items[items[k]],
                "action": ACTIONS[actions[k]],
                "timestamp": (index * BATCH + k + 1) * STEP_SECONDS,
            }
            for k in range(BATCH)
        ]


class QueryStream:
    """CF windows (with the users to stale before each) and VQ users.

    Query popularity follows the action stream's: at micro-batch ``b``
    rank ``r`` is the same user for both, so the users asking for
    recommendations are the ones acting, not the cold majority.
    """

    def __init__(self, seed: int, users: "list[str]"):
        self._rng = np.random.default_rng([seed, 2])
        self._users = users
        self._cdf = zipf_cdf(len(users), 1.1)

    def _draw(self, shape, position: int):
        count = len(self._users)
        ranks = np.minimum(
            np.searchsorted(self._cdf, self._rng.random(shape)), count - 1
        )
        return ((ranks + position) % count).tolist()

    def cf_windows(self, count: int, position: int):
        """``count`` pairs ``(window, stale_users)`` at stream position
        ``position``; a window is a list of ``(user, TOP_N)`` queries."""
        users = self._users
        rows = self._draw((count, WINDOW), position)
        stale = (self._rng.random((count, WINDOW)) < CHURN).tolist()
        return [
            (
                [(users[u], TOP_N) for u in row],
                [users[u] for u, flip in zip(row, flips) if flip],
            )
            for row, flips in zip(rows, stale)
        ]

    def vq_users(self, count: int, position: int) -> "list[str]":
        return [self._users[u] for u in self._draw(count, position)]
