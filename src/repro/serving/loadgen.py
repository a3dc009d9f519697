"""Closed-loop load generation for the serving benchmark.

A closed loop issues the next query only after the previous one
answers, so measured queries/sec is *sustained* throughput — the
server is never allowed to queue its way to a flattering number — and
every latency sample is a real response time, not a submission
timestamp. User choice is Zipf-distributed: real query traffic
concentrates on hot users, which is exactly the regime where the
result cache and the coalescer earn their keep, and a uniform draw
would understate both.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

# Zipf exponent over the shuffled user popularity ranks: the classic
# few-hot-users / long-tail shape
ZIPF_S = 1.1


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 on no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


@dataclass
class LoadReport:
    """Result of one closed-loop run."""

    queries: int
    duration: float
    latencies: list[float] = field(repr=False, default_factory=list)
    tier_counts: dict[str, int] = field(default_factory=dict)

    @property
    def qps(self) -> float:
        return self.queries / self.duration if self.duration > 0 else 0.0

    @property
    def p50(self) -> float:
        return percentile(self.latencies, 0.50)

    @property
    def p99(self) -> float:
        return percentile(self.latencies, 0.99)

    def summary(self) -> dict[str, object]:
        return {
            "queries": self.queries,
            "duration_s": round(self.duration, 4),
            "qps": round(self.qps, 1),
            "p50_ms": round(self.p50 * 1e3, 4),
            "p99_ms": round(self.p99 * 1e3, 4),
            "tiers": dict(self.tier_counts),
        }


class ClosedLoopLoadGenerator:
    """Drives a serving callable with a Zipf(:data:`ZIPF_S`)-skewed
    stream over the ``users`` population."""

    def __init__(self, users: list[str], n: int = 10, seed: int = 0):
        self._users = list(users)
        self._n = n
        self._rng = random.Random(seed)
        ranked = list(self._users)
        self._rng.shuffle(ranked)
        weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(ranked))]
        self._ranked = ranked
        self._weights = weights

    def next_user(self) -> str:
        return self._rng.choices(self._ranked, weights=self._weights, k=1)[0]

    def query_stream(self, num_queries: int) -> list[tuple[str, int]]:
        return [(self.next_user(), self._n) for __ in range(num_queries)]

    def run_batched(
        self, serve_many, num_queries: int, batch_size: int
    ) -> LoadReport:
        """Closed loop over concurrent windows of ``batch_size`` queries.

        Models ``batch_size`` clients whose requests are in flight
        together; the whole window's wall time is charged to *every*
        query in it — honest accounting, since a client in the window
        waits for the shared fan-out to finish.
        """
        stream = self.query_stream(num_queries)
        latencies: list[float] = []
        tiers: dict[str, int] = {}
        started = time.perf_counter()
        for at in range(0, len(stream), batch_size):
            window = stream[at : at + batch_size]
            t0 = time.perf_counter()
            answers = serve_many(window)
            elapsed = time.perf_counter() - t0
            for request in window:
                latencies.append(elapsed)
                __, tier = answers[request]
                tiers[tier] = tiers.get(tier, 0) + 1
        duration = time.perf_counter() - started
        return LoadReport(
            queries=len(stream),
            duration=duration,
            latencies=latencies,
            tier_counts=tiers,
        )
