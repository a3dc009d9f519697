"""Shared fixtures for the retrieval suite.

``retrieval_topology_factory`` is the harness/chaos entry point: the
full CF pipeline with the embedding/VQ bolts riding the same
pretreatment stream, importable by spawn workers through
``topology_recipe``. ``vq_digest`` is the byte-identity fingerprint the
chaos suite compares across substrates — raw floats, no rounding.
"""

from __future__ import annotations

import contextlib
import functools
import json

from repro.retrieval import RetrievalConfig, EmbeddingConfig, VQConfig
from repro.retrieval.keys import RetrievalKeys as K
from repro.runtime.rpc import RpcClient
from repro.storm.grouping import FieldsGrouping, ShuffleGrouping
from repro.storm.topology import TopologyBuilder
from repro.topology.bolts_cf import (
    ItemCountBolt,
    PairCountBolt,
    SimListBolt,
    UserHistoryBolt,
)
from repro.topology.bolts_common import PretreatmentBolt
from repro.topology.framework import add_retrieval_bolts
from repro.topology.spouts import TDAccessSpout
from repro.topology.state import StateKeys

from tests.recovery.helpers import ITEMS, USERS  # noqa: F401  (re-export)

# small index so 48 messages over 8 items exercise split *and* merge
TEST_RETRIEVAL = RetrievalConfig(
    embedding=EmbeddingConfig(dim=8),
    vq=VQConfig(
        dim=8,
        seed_centroids=2,
        max_centroids=6,
        split_threshold=3.0,
        merge_floor=1.0,
    ),
    co_window=3600.0,
    co_k=4,
)


def retrieval_topology_factory(batch_size: int = 4, parallelism: int = 2):
    """CF + retrieval topology for the recovery/chaos harness."""

    def factory(clock, client_factory, consumer):
        builder = TopologyBuilder("cf-retrieval-stream")
        builder.add_spout(
            "source", lambda: TDAccessSpout(consumer, clock, batch_size)
        )
        builder.add_bolt(
            "pretreatment", PretreatmentBolt, parallelism=1
        ).grouping("source", ShuffleGrouping(), "raw_action")
        builder.add_bolt(
            "userHistory",
            lambda: UserHistoryBolt(client_factory),
            parallelism=parallelism,
        ).grouping("pretreatment", FieldsGrouping(["user"]), "user_action")
        builder.add_bolt(
            "itemCount",
            lambda: ItemCountBolt(client_factory),
            parallelism=parallelism,
        ).grouping("userHistory", FieldsGrouping(["item"]), "item_delta")
        builder.add_bolt(
            "pairCount",
            lambda: PairCountBolt(client_factory),
            parallelism=parallelism,
        ).grouping(
            "userHistory", FieldsGrouping(["pair_a", "pair_b"]), "pair_delta"
        )
        builder.add_bolt(
            "simList",
            lambda: SimListBolt(client_factory),
            parallelism=parallelism,
        ).grouping(
            "pairCount", FieldsGrouping(["item"]), "sim_update"
        ).grouping("pairCount", FieldsGrouping(["item"]), "prune")
        add_retrieval_bolts(
            builder, "pretreatment", client_factory, TEST_RETRIEVAL
        )
        return builder.build()

    return factory


def vq_digest(client, items=ITEMS, users=USERS) -> bytes:
    """Canonical serialization of every retrieval key: embedding rows,
    co-click windows, centroid set/vectors/counts, posting lists,
    assignments, and the journaled stat counters. Exact floats — the
    cross-substrate contract is byte identity, not tolerance."""
    meta = client.get(K.meta(), None) or {}
    state = {
        "meta": sorted(meta),
        "centroids": {
            cid: client.get(K.centroid(cid), None) for cid in sorted(meta)
        },
        "counts": {
            cid: client.get(K.count(cid), 0.0) for cid in sorted(meta)
        },
        "postings": {
            cid: sorted(client.get(K.posting(cid), None) or {})
            for cid in sorted(meta)
        },
        "assignments": {
            item: client.get(K.assignment(item), None) for item in items
        },
        "rows": {item: client.get(K.embedding(item), None) for item in items},
        "windows": {user: client.get(K.co_window(user), None) for user in users},
        "stats": {
            name: client.get(K.stat(name), 0.0)
            for name in ("indexed", "reassignments", "splits", "merges")
        },
    }
    return json.dumps(state, sort_keys=True).encode()


@functools.lru_cache(maxsize=None)
def seeded_index(seed: int = 2015):
    """The state the end-to-end benchmark serves from: CF state and VQ
    index built from 960 events through the real bolts.

    Returns ``(snapshot, users, cold_user)``: the ``restore_contents``
    image (16 instances — treat it as read-only, it is shared), every
    user who acted, and one who never did.
    """
    from benchmarks.e2e.load import EventTrace
    from benchmarks.e2e.workload import build_seed_state

    events = EventTrace(seed)
    snapshot, __ = build_seed_state(events)
    stored = {key for contents in snapshot.values() for key in contents}
    acted = [u for u in events.users if StateKeys.recent(u) in stored]
    cold = next(u for u in events.users if StateKeys.recent(u) not in stored)
    return snapshot, acted, cold


def seeded_store(substrate):
    """A 4-server, 16-instance TDStore on ``substrate`` (the shape the
    snapshot restores into) holding the seeded index."""
    store = substrate.build_tdstore(4, 16)
    store.restore_contents(seeded_index()[0])
    return store


@contextlib.contextmanager
def sent_requests(monkeypatch):
    """Record the method of every RPC request this process sends."""
    sent: list = []
    call_raw = RpcClient.call_raw

    def recording(self, request):
        sent.append(request.method)
        return call_raw(self, request)

    with monkeypatch.context() as patch:
        patch.setattr(RpcClient, "call_raw", recording)
        yield sent
