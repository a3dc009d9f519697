"""Unit tests for the VQ read path: probe, re-rank, degradation."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ColdIndexError, ConfigurationError
from repro.retrieval.embedding import EmbeddingConfig, EmbeddingRow, updated_row
from repro.retrieval.keys import RetrievalKeys as K
from repro.retrieval.retriever import (
    RetrieverConfig,
    VQIndexProbe,
    VQRetriever,
    brute_force_rank,
)
from repro.retrieval.vq import StreamingVQIndex, VQConfig
from repro.tdstore import TDStoreCluster
from repro.topology.state import CachedStore, StateKeys

ECFG = EmbeddingConfig(dim=8)
VCFG = VQConfig(
    dim=8, seed_centroids=2, max_centroids=8, min_centroids=2,
    split_threshold=4.0, merge_floor=1.0,
)

# three context groups of eight items each — co-click pull clusters them
GROUPS = {"a": 3, "b": 3, "c": 2}
ITEMS = [f"{g}{i}" for g, n in GROUPS.items() for i in range(8)]


def built_store():
    """A store with learned rows for 24 items and a built VQ index."""
    cluster = TDStoreCluster(num_data_servers=2, num_instances=8)
    client = cluster.client()
    store = CachedStore(cluster.client())
    index = StreamingVQIndex(store, VCFG)
    for item in ITEMS:
        row = EmbeddingRow.from_value(item, None, ECFG)
        for __ in range(10):
            row = updated_row(row, f"ctx-{item[0]}", 1.0, ECFG)
        client.put(K.embedding(item), row.to_value())
        index.observe(item, list(row.vec), f"build@{item}")
    store.flush()
    return cluster, client


class TestQueryVector:
    def test_mean_of_recent_rows_normalized(self):
        cluster, client = built_store()
        client.put(
            StateKeys.recent("u1"), [("a0", 5.0, 0.0), ("a1", 3.0, 10.0)]
        )
        q = VQRetriever(client).query_vector("u1")
        assert float(np.linalg.norm(q)) == pytest.approx(1.0)
        # a-group query points at the a-context anchor's direction
        a_row = np.asarray(client.get(K.embedding("a0"))["vec"])
        c_row = np.asarray(client.get(K.embedding("c0"))["vec"])
        assert float(np.dot(q, a_row)) > float(np.dot(q, c_row))

    def test_no_recent_items_is_cold(self):
        cluster, client = built_store()
        with pytest.raises(ColdIndexError) as err:
            VQRetriever(client).query_vector("ghost")
        assert err.value.reason == "no_recent"

    def test_recent_without_rows_is_cold(self):
        cluster = TDStoreCluster(num_data_servers=2, num_instances=8)
        client = cluster.client()
        client.put(StateKeys.recent("u1"), [("never-embedded", 5.0, 0.0)])
        with pytest.raises(ColdIndexError) as err:
            VQRetriever(client).query_vector("u1")
        assert err.value.reason == "unembedded_user"


class TestRetrieve:
    def test_full_probe_equals_brute_force(self):
        cluster, client = built_store()
        retriever = VQRetriever(client, RetrieverConfig(probe_width=10**6))
        q = np.asarray(client.get(K.embedding("b0"))["vec"], dtype=np.float64)
        answer = retriever.retrieve(q, 10)
        assert list(answer.items) == brute_force_rank(client, q, ITEMS, 10)

    def test_recall_grows_with_probe_width(self):
        cluster, client = built_store()
        q = np.asarray(client.get(K.embedding("a0"))["vec"], dtype=np.float64)
        want = set(brute_force_rank(client, q, ITEMS, 8))

        def recall(width):
            retriever = VQRetriever(client, RetrieverConfig(probe_width=width))
            got = set(retriever.retrieve(q, 8).items)
            return len(got & want) / len(want)

        recalls = [recall(w) for w in (1, 2, 4, 10**6)]
        assert recalls == sorted(recalls)  # wider probe never loses recall
        assert recalls[0] > 0.0
        assert recalls[-1] == 1.0  # full probe + re-rank is exact

    def test_empty_index_is_cold(self):
        cluster = TDStoreCluster(num_data_servers=2, num_instances=8)
        retriever = VQRetriever(cluster.client())
        with pytest.raises(ColdIndexError):
            retriever.retrieve(np.ones(8) / np.sqrt(8.0), 5)
        assert retriever.stats.cold_misses == 1

    def test_exclude_drops_candidates(self):
        cluster, client = built_store()
        retriever = VQRetriever(client, RetrieverConfig(probe_width=10**6))
        q = np.asarray(client.get(K.embedding("a0"))["vec"], dtype=np.float64)
        full = retriever.retrieve(q, 5)
        cut = retriever.retrieve(q, 5, exclude={full.items[0]})
        assert full.items[0] not in cut.items

    def test_stats_account_probes_and_candidates(self):
        cluster, client = built_store()
        retriever = VQRetriever(client, RetrieverConfig(probe_width=2))
        q = np.asarray(client.get(K.embedding("a0"))["vec"], dtype=np.float64)
        answer = retriever.retrieve(q, 5)
        assert retriever.stats.queries == 1
        assert retriever.stats.probes == len(answer.probed_centroids) <= 2
        assert retriever.stats.candidates_scored >= len(answer.items)

    def test_stats_stay_counters_over_many_queries(self):
        # a retriever lives as long as its engine: nothing in its stats
        # may grow per query
        cluster, client = built_store()
        retriever = VQRetriever(client, RetrieverConfig(probe_width=2))
        q = np.asarray(client.get(K.embedding("a0"))["vec"], dtype=np.float64)
        for __ in range(2_000):
            retriever.retrieve(q, 5)
        assert retriever.stats.queries == 2_000
        assert all(
            type(getattr(retriever.stats, f.name)) is int
            for f in dataclasses.fields(retriever.stats)
        )


class TestRecommend:
    def test_consumed_items_are_excluded(self):
        cluster, client = built_store()
        client.put(StateKeys.recent("u1"), [("a0", 5.0, 0.0)])
        client.put(StateKeys.history("u1"), {"a0": 5.0, "a1": 3.0})
        recs = VQRetriever(
            client, RetrieverConfig(probe_width=10**6)
        ).recommend("u1", 10, 0.0)
        items = [r.item_id for r in recs]
        assert recs and "a0" not in items and "a1" not in items
        assert all(r.source == "vq" for r in recs)

    def test_scores_descend(self):
        cluster, client = built_store()
        client.put(StateKeys.recent("u1"), [("b0", 5.0, 0.0)])
        recs = VQRetriever(client).recommend("u1", 10, 0.0)
        scores = [r.score for r in recs]
        assert scores == sorted(scores, reverse=True)


class TestProbeStats:
    def test_index_health_figures(self):
        cluster, client = built_store()
        stats = VQIndexProbe(client).stats()
        assert stats["centroids"] >= 2
        assert stats["indexed_items"] == len(ITEMS)
        assert stats["splits"] > 0
        assert stats["posting_p99"] > 0

    def test_empty_store_reads_as_zeroes(self):
        cluster = TDStoreCluster(num_data_servers=2, num_instances=8)
        stats = VQIndexProbe(cluster.client()).stats()
        assert stats == {
            "centroids": 0, "indexed_items": 0, "reassignments": 0,
            "splits": 0, "merges": 0, "posting_p99": 0,
        }


class TestValidation:
    def test_rejects_bad_probe_width(self):
        with pytest.raises(ConfigurationError):
            RetrieverConfig(probe_width=0)
