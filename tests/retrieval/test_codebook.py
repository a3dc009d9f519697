"""The retriever's client-side codebook, keyed by the index's version.

Every observe that changes the codebook — a centroid move, a split, a
merge — advances the write version of ``vq:meta``, and a retriever that
cached the codebook at the old version must then serve exactly what a
fresh one does. A codebook read through a hedged or degraded hop is
used for its query and not kept; an index that never published a
version is never cached.
"""

import numpy as np
import pytest

from benchmarks.e2e.topology import retrieval_config
from repro.errors import ColdIndexError
from repro.retrieval.keys import RetrievalKeys as K
from repro.retrieval.retriever import RetrieverConfig, VQRetriever
from repro.retrieval.vq import StreamingVQIndex
from repro.runtime import SimSubstrate
from repro.tdstore import TDStoreCluster
from repro.topology.state import CachedStore, StateKeys

from tests.retrieval.helpers import seeded_index, seeded_store

TOP_N = 10
VQ = retrieval_config().vq
CFG = RetrieverConfig(probe_width=8)


@pytest.fixture
def client():
    with SimSubstrate() as substrate:
        yield seeded_store(substrate).client()


def meta_version(client) -> int:
    return client.get_versioned(K.meta())[1]


def observe(client, item, vec, op_id):
    """One observe by the index's single writer, committed."""
    store = CachedStore(client)
    op = StreamingVQIndex(store, VQ).observe(item, vec, op_id)
    store.flush()
    return op


def answers(retriever, users) -> dict:
    out = {}
    for user in users:
        try:
            out[user] = retriever.recommend(user, TOP_N, 0.0)
        except ColdIndexError as exc:
            out[user] = exc.reason
    return out


def warmed(client) -> VQRetriever:
    retriever = VQRetriever(client, CFG)
    answers(retriever, seeded_index()[1][:1])
    assert retriever.codebook.version == meta_version(client)
    return retriever


def assert_serves_like_a_fresh_retriever(client, retriever, version):
    users = seeded_index()[1][:40]
    assert answers(retriever, users) == answers(VQRetriever(client, CFG), users)
    book = retriever.codebook
    assert book.version == version == meta_version(client)
    assert list(book.cids) == sorted(client.get(K.meta()))
    stored = client.multi_get([K.centroid(cid) for cid in book.ids])
    assert book.matrix.tolist() == [stored[K.centroid(c)] for c in book.ids]


class TestVersionedCodebook:
    def test_a_move_publishes_a_version(self, client):
        retriever = warmed(client)
        before = meta_version(client)
        cid = sorted(client.get(K.meta()))[0]
        item = sorted(client.get(K.posting(cid)))[0]
        vec = list(client.get(K.centroid(cid)))
        vec[0] += 0.01
        op = observe(client, item, vec, "move@1")
        assert (op.previous, op.assigned, op.split_from) == (cid, cid, None)
        assert_serves_like_a_fresh_retriever(client, retriever, before + 1)

    def test_a_split_publishes_a_version(self, client):
        retriever = warmed(client)
        before = meta_version(client)
        cid = sorted(client.get(K.meta()))[0]
        vec = list(client.get(K.centroid(cid)))
        for n in range(int(VQ.split_threshold) + 1):
            op = observe(client, f"new{n}", vec, f"split@{n}")
            if op.split_from is not None:
                break
        assert op.split_from == cid
        assert_serves_like_a_fresh_retriever(client, retriever, before + n + 1)
        assert op.assigned in retriever.codebook.ids

    def test_a_merge_publishes_a_version(self, client):
        retriever = warmed(client)
        before = meta_version(client)
        meta = sorted(client.get(K.meta()))
        dying = min(meta, key=lambda cid: len(client.get(K.posting(cid))))
        away = list(client.get(K.centroid(next(c for c in meta if c != dying))))
        for n, item in enumerate(sorted(client.get(K.posting(dying)))):
            op = observe(client, item, away, f"merge@{n}")
            if op.merged is not None:
                break
        assert op.merged == dying
        assert_serves_like_a_fresh_retriever(client, retriever, before + n + 1)
        assert dying not in retriever.codebook.cids

    def test_a_replayed_op_publishes_nothing(self, client):
        item = sorted(client.get(K.posting(sorted(client.get(K.meta()))[0])))[0]
        observe(client, item, [1.0] * VQ.dim, "move@1")
        after = meta_version(client)
        assert observe(client, item, [1.0] * VQ.dim, "move@1").deduped
        assert meta_version(client) == after


class LossyClient:
    """A client proxy whose hop reading centroid vectors comes back
    hedged (a replica answered) or with a key degraded."""

    def __init__(self, inner, loss: str):
        self._inner = inner
        self._loss = loss
        self.hedged_reads = 0
        self.last_failed_keys = frozenset()

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def multi_get(self, keys, default=None, *, versions=()):
        keys = list(keys)
        got = self._inner.multi_get(keys, default, versions=versions)
        self.last_failed_keys = self._inner.last_failed_keys
        lost = [key for key in keys if key.startswith("vqcent:")]
        if lost and self._loss == "hedged":
            self.hedged_reads += 1
        elif lost:
            self.last_failed_keys = frozenset(lost[-1:])
        return got


class TestFill:
    @pytest.mark.parametrize("loss", ["hedged", "degraded"])
    def test_a_lossy_codebook_read_is_not_kept(self, client, loss):
        users = seeded_index()[1][:3]
        lossy = LossyClient(client, loss)
        retriever = VQRetriever(lossy, CFG)
        assert answers(retriever, users) == answers(VQRetriever(client, CFG), users)
        assert retriever.codebook is None

    def test_an_unversioned_index_is_not_kept(self):
        # seeded by bootstrap alone: plain puts, no published version
        cluster = TDStoreCluster(num_data_servers=2, num_instances=8)
        store = CachedStore(cluster.client())
        StreamingVQIndex(store, VQ).bootstrap()
        store.flush()
        client = cluster.client()
        client.put(K.embedding("i0"), {"vec": list(np.ones(VQ.dim))})
        client.put(StateKeys.recent("u0"), [("i0", 1.0, 0.0)])
        retriever = VQRetriever(client, CFG)
        assert retriever.recommend("u0", TOP_N, 0.0) == []
        assert meta_version(client) == 0
        assert retriever.codebook is None
