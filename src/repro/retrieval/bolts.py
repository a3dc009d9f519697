"""Exactly-once Storm bolts for the retrieval pipeline.

Dataflow, hanging off the same ``user_action`` stream the CF layers
consume:

* :class:`EmbeddingPairBolt` (grouped by user) — keeps a small
  per-user co-click window and emits an ``emb_pair`` per co-occurrence,
  in both directions so both rows learn.
* :class:`EmbeddingUpdateBolt` (grouped by item) — owns the
  collisionless ``emb:{item}`` row; applies the SGD step and emits the
  *new* row downstream as ``emb_row``.
* :class:`VQAssignBolt` (parallelism **1** — the index's single-writer
  contract) — folds each row into the streaming VQ index.

All three follow the CF bolts' RMW commit protocol: probe the primary
key's op journal, compute on copies, emit before committing, commit
last with ``put_once``. Replayed tuples are skipped by the probe;
re-executions over partial state recompute identical results (see
``repro.retrieval.vq`` for the index's own idempotence argument).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.algorithms.ratings import ActionWeights, DEFAULT_ACTION_WEIGHTS
from repro.errors import ConfigurationError
from repro.retrieval.embedding import EmbeddingConfig, EmbeddingRow, updated_row
from repro.retrieval.keys import RetrievalKeys as K
from repro.retrieval.vq import StreamingVQIndex, VQConfig
from repro.storm.reliability import ExactlyOnceBolt
from repro.storm.tuples import StormTuple
from repro.tdstore.client import TDStoreClient
from repro.topology.state import CachedStore, Reads, StoreBacked

ClientFactory = Callable[[], TDStoreClient]


@dataclass
class RetrievalConfig:
    """Topology-level knobs for the retrieval bolts.

    ``parallelism`` covers the keyed pair/update layers only; the
    assign layer is pinned to 1 by the index's single-writer contract
    regardless of this value.
    """

    embedding: EmbeddingConfig = field(default_factory=EmbeddingConfig)
    vq: VQConfig = field(default_factory=VQConfig)
    co_window: float = 3600.0
    co_k: int = 4
    parallelism: int = 2


class EmbeddingPairBolt(StoreBacked, ExactlyOnceBolt):
    """Grouped by user: turns the action stream into co-click pairs.

    The window (``embrecent:{user}``) is deliberately separate from the
    CF recent-k list: this bolt commits it under its *own* op journal,
    so retrieval riding along never perturbs the CF bolts' journaled
    state or their chaos fingerprints.
    """

    def __init__(
        self,
        client_factory: ClientFactory,
        weights: ActionWeights = DEFAULT_ACTION_WEIGHTS,
        co_window: float = 3600.0,
        co_k: int = 4,
    ):
        super().__init__()
        self._client_factory = client_factory
        self._weights = weights
        self._co_window = co_window
        self._co_k = co_k

    def declare_outputs(self, declarer):
        declarer.declare(("item", "context", "weight"), "emb_pair")

    def prepare(self, context, collector):
        super().prepare(context, collector)
        self._store = CachedStore(self._client_factory())

    def reads(self, tup: StormTuple) -> Reads:
        key = K.co_window(tup["user"])
        return Reads(probes=((key, tup.op_id),), owned=(key,))

    def process(self, tup: StormTuple):
        user, item, now = tup["user"], tup["item"], tup["timestamp"]
        key = K.co_window(user)
        op_id = tup.op_id
        if self._store.op_seen(key, op_id):
            return
        window = list(self._store.get(key, None) or [])
        weight = self._weights.weight(tup["action"])
        if weight > 0.0:
            # emit first (derived op ids dedup downstream), commit last
            for other, ts in window:
                if other == item or now - ts > self._co_window:
                    continue
                self.collector.emit((item, other, weight), stream_id="emb_pair")
                self.collector.emit((other, item, weight), stream_id="emb_pair")
            window = [(o, t) for o, t in window if o != item]
            window.insert(0, (item, now))
            del window[self._co_k :]
        self._store.put_once(key, op_id, window)


class EmbeddingUpdateBolt(StoreBacked, ExactlyOnceBolt):
    """Grouped by item: the collisionless embedding row's single writer.

    The updated row is emitted *before* the commit: a mid-update
    failure re-executes from the committed row and recomputes the same
    floats (the update is a pure function of row + tuple), while a
    replay after the commit is skipped by the probe — downstream
    already has the row from the first delivery.
    """

    def __init__(
        self,
        client_factory: ClientFactory,
        config: EmbeddingConfig | None = None,
    ):
        super().__init__()
        self._client_factory = client_factory
        self._config = config if config is not None else EmbeddingConfig()
        self.rows_updated = 0

    def declare_outputs(self, declarer):
        declarer.declare(("item", "vec"), "emb_row")

    def prepare(self, context, collector):
        super().prepare(context, collector)
        self._store = CachedStore(self._client_factory())

    def reads(self, tup: StormTuple) -> Reads:
        key = K.embedding(tup["item"])
        return Reads(probes=((key, tup.op_id),), owned=(key,))

    def process(self, tup: StormTuple):
        item = tup["item"]
        key = K.embedding(item)
        op_id = tup.op_id
        if self._store.op_seen(key, op_id):
            return
        row = EmbeddingRow.from_value(
            item, self._store.get(key, None), self._config
        )
        row = updated_row(row, tup["context"], tup["weight"], self._config)
        self.collector.emit((item, row.vec), stream_id="emb_row")
        self._store.put_once(key, op_id, row.to_value())
        self.rows_updated += 1


class VQAssignBolt(StoreBacked, ExactlyOnceBolt):
    """The VQ index's single writer — must run with parallelism 1.

    All idempotence lives in :meth:`StreamingVQIndex.observe`; the bolt
    just feeds it the tuple-derived op id so a replayed row is skipped
    by the assignment-key probe even after this task's in-memory ledger
    died with it.
    """

    def __init__(
        self,
        client_factory: ClientFactory,
        config: VQConfig | None = None,
    ):
        super().__init__()
        self._client_factory = client_factory
        self._config = config if config is not None else VQConfig()

    def prepare(self, context, collector):
        super().prepare(context, collector)
        if context.num_tasks != 1:
            raise ConfigurationError(
                "VQAssignBolt is the index's single writer and must run "
                f"with parallelism 1, got {context.num_tasks} tasks"
            )
        self._store = CachedStore(self._client_factory())
        self._index = StreamingVQIndex(self._store, self._config)

    @property
    def index(self) -> StreamingVQIndex:
        return self._index

    def reads(self, tup: StormTuple) -> Reads:
        return self._index.reads(tup["item"], tup.op_id)

    def process(self, tup: StormTuple):
        self._index.observe(tup["item"], list(tup["vec"]), tup.op_id)
