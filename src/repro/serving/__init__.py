"""High-throughput serving layer (`repro.serving`).

Turns the one-request-one-key front end into a batched, cached,
admission-aware query pipeline, the shape of the batch-query serving
architectures in arXiv:2409.00400 (coalesce + batch by shard) and
arXiv:1709.05278 (tiered read path with stream-driven freshness):

* :class:`QueryCoalescer` — dedupes identical in-flight queries and
  micro-batches concurrent ones into shared multi-get fan-outs;
* :class:`ResultCache` / :class:`HotListCache` — the tiered result
  caches, TTL-bounded and *invalidated by the stream* through an
  :class:`InvalidationBus`: hand it to the Storm cluster
  (``substrate.build_storm(clock, bus=bus)``) and every committed
  component wave publishes the tags :func:`invalidation_for_key` gives
  the keys it wrote or probed, on either substrate;
* :class:`ServingLayer` — wires coalescer, caches and the engine's
  batched CF reads behind one ``serve_many`` API, the front end's
  ``live`` rung;
* :class:`ClosedLoopLoadGenerator` — the closed-loop driver the serving
  benchmark uses to measure sustained queries/sec and tail latency.
"""

from repro.serving.cache import HotListCache, ResultCache
from repro.serving.coalescer import QueryCoalescer
from repro.serving.invalidation import InvalidationBus, invalidation_for_key
from repro.serving.layer import ServingLayer
from repro.serving.loadgen import ClosedLoopLoadGenerator, LoadReport

__all__ = [
    "ClosedLoopLoadGenerator",
    "HotListCache",
    "InvalidationBus",
    "LoadReport",
    "QueryCoalescer",
    "ResultCache",
    "ServingLayer",
    "invalidation_for_key",
]
