"""The VQ read path in exact numbers: the answers and the round trips.

``VQRetriever`` reads in dependency order — four batched hops, each one
read frame per server process — and scores with one row-wise C call per
stage. Neither may change an answer: a reference retriever that reads
one key at a time and takes one ``np.dot`` per row (the algorithm as it
stood before the hops were merged) must agree with it bit for bit, for
every user of the index the end-to-end benchmark serves from, on both
substrates. The round trips are pinned as request counts.
"""

import functools

import numpy as np
import pytest

from repro.engine.engine import EngineConfig, RecommenderEngine
from repro.engine.front_end import RecommenderFrontEnd
from repro.errors import ColdIndexError, DataServerDownError
from repro.retrieval.keys import RetrievalKeys as K
from repro.retrieval.retriever import RetrieverConfig, VQIndexProbe, VQRetriever
from repro.retrieval.types import RetrievalAnswer
from repro.runtime import ProcessSubstrate, SimSubstrate
from repro.tdstore.engines import VERSION_PREFIX
from repro.topology.state import StateKeys
from repro.utils import hashing

from tests.retrieval.helpers import seeded_index, seeded_store, sent_requests

TOP_N = 10
WIDTHS = (1, 4, 8)


def reference_answer(get, cfg: RetrieverConfig, user: str, n: int):
    """Per-key oracle: the reason the user is cold, or the answer with
    the query vector and consumed set it was computed from."""
    recent = get(StateKeys.recent(user)) or []
    rows = [get(K.embedding(item)) for item, __, __t in recent[: cfg.recent_k]]
    if not rows:
        return "no_recent"
    vecs = [np.asarray(row["vec"], dtype=np.float64) for row in rows if row]
    if not vecs:
        return "unembedded_user"
    mean = np.mean(vecs, axis=0)
    query = mean / float(np.linalg.norm(mean))
    exclude = set(get(StateKeys.history(user)) or {})
    ranked = sorted(
        (-float(np.dot(query, np.asarray(vec, dtype=np.float64))), cid)
        for cid in sorted(get(K.meta()) or {})
        if (vec := get(K.centroid(cid))) is not None
    )
    probed = [cid for __, cid in ranked[: cfg.probe_width]]
    candidates = sorted(
        {
            item
            for cid in probed
            for item in (get(K.posting(cid)) or {})
            if item not in exclude
        }
    )
    top = sorted(
        (-float(np.dot(query, np.asarray(row["vec"], dtype=np.float64))), item)
        for item in candidates
        if (row := get(K.embedding(item))) is not None
    )[:n]
    answer = RetrievalAnswer(
        items=tuple(item for __, item in top),
        scores=tuple(-score for score, __ in top),
        probed_centroids=tuple(probed),
        candidates_seen=len(candidates),
    )
    return answer, query, exclude


def assert_serves(retriever: VQRetriever, user: str, n: int, want):
    """``retriever`` agrees with the oracle through both entry points."""
    if isinstance(want, str):
        with pytest.raises(ColdIndexError) as cold:
            retriever.recommend(user, n, 0.0)
        assert cold.value.reason == want
        return
    answer, query, exclude = want
    served = retriever.recommend(user, n, 0.0)
    assert [(r.item_id, r.score, r.source) for r in served] == [
        (item, score, "vq") for item, score in zip(answer.items, answer.scores)
    ]
    assert retriever.retrieve(query, n, exclude) == answer


def served_items(want) -> tuple:
    return () if isinstance(want, str) else want[0].items


def read_log(client, monkeypatch) -> list:
    """Record every key ``client.multi_get`` reads from here on, a
    version read as ``__ver__:<key>``."""
    keys: list = []
    multi_get = client.multi_get

    def logged(batch, default=None, *, versions=()):
        batch = list(batch)
        keys.extend(batch)
        keys.extend(VERSION_PREFIX + key for key in versions)
        return multi_get(batch, default, versions=versions)

    monkeypatch.setattr(client, "multi_get", logged)
    return keys


def centroid_reads(keys) -> list:
    return [key for key in keys if key.startswith("vqcent:")]


@pytest.fixture(scope="module")
def sim_store():
    with SimSubstrate() as substrate:
        yield seeded_store(substrate)


@pytest.fixture(scope="module")
def process_store():
    with ProcessSubstrate(worker_procs=1, server_procs=1) as substrate:
        yield seeded_store(substrate)


@pytest.fixture(scope="module")
def reference(sim_store):
    """``(user, probe_width) -> oracle answer`` over the seeded index."""
    __, users, cold = seeded_index()
    # the state is frozen, so each key is fetched once for all users
    get = functools.lru_cache(maxsize=None)(sim_store.client().get)
    answers = {
        (user, width): reference_answer(
            get, RetrieverConfig(probe_width=width), user, TOP_N
        )
        for user in users + [cold]
        for width in WIDTHS
    }
    assert sum(1 for a in answers.values() if served_items(a)) > 900
    assert answers[cold, 8] == "no_recent"
    return answers


class TestAnswerParity:
    def assert_parity(self, client, reference):
        for (user, width), want in reference.items():
            retriever = VQRetriever(client, RetrieverConfig(probe_width=width))
            assert_serves(retriever, user, TOP_N, want)

    def test_sim_serves_the_per_key_answers(self, sim_store, reference):
        self.assert_parity(sim_store.client(), reference)

    def test_process_serves_the_per_key_answers(self, process_store, reference):
        self.assert_parity(process_store.client(), reference)

    def test_a_warm_codebook_serves_the_per_key_answers(
        self, sim_store, reference, monkeypatch
    ):
        # one retriever per width for every user: after its first query
        # the codebook is warm, and no later query reads a centroid
        client = sim_store.client()
        retrievers = {
            width: VQRetriever(client, RetrieverConfig(probe_width=width))
            for width in WIDTHS
        }
        for retriever in retrievers.values():
            retriever.retrieve(np.ones(16) / 4.0, TOP_N)
            assert retriever.codebook is not None
        keys = read_log(client, monkeypatch)
        for (user, width), want in reference.items():
            assert_serves(retrievers[width], user, TOP_N, want)
        assert centroid_reads(keys) == []


class TestRoundTrips:
    """Exact request counts with all four logical servers in one host
    process; before the hops were merged a warm query cost ~14."""

    def test_a_query_is_four_read_frames(
        self, process_store, reference, monkeypatch
    ):
        __, users, cold = seeded_index()
        warm = next(user for user in users if served_items(reference[user, 8]))
        client = process_store.client()
        cfg = RetrieverConfig(probe_width=8)
        retriever = VQRetriever(client, cfg)
        client.get("warm-up")  # connection and route table are in place
        for codebook in ("cold", "warm"):
            with sent_requests(monkeypatch) as sent:
                served = retriever.recommend(warm, TOP_N, 0.0)
            assert sent == ["gather"] * 4, codebook
            assert tuple(r.item_id for r in served) == served_items(
                reference[warm, 8]
            )
        query = retriever.query_vector(warm)
        with sent_requests(monkeypatch) as sent:
            VQRetriever(client, cfg).retrieve(query, TOP_N)
        assert sent == ["gather"] * 4  # meta, centroids, postings, rows
        with sent_requests(monkeypatch) as sent:
            retriever.retrieve(query, TOP_N)
        assert sent == ["gather"] * 3  # the codebook stands in for hop 2
        with sent_requests(monkeypatch) as sent:
            with pytest.raises(ColdIndexError):
                retriever.recommend(cold, TOP_N, 0.0)
        assert sent == ["gather"]

    def test_a_warm_query_reads_no_centroid(
        self, sim_store, reference, monkeypatch
    ):
        __, users, __ = seeded_index()
        warm = next(user for user in users if served_items(reference[user, 8]))
        client = sim_store.client()
        retriever = VQRetriever(client, RetrieverConfig(probe_width=8))
        keys = read_log(client, monkeypatch)
        retriever.recommend(warm, TOP_N, 0.0)
        assert len(centroid_reads(keys)) == 41  # every live centroid
        cold_keys = len(keys)
        keys.clear()
        retriever.recommend(warm, TOP_N, 0.0)
        assert centroid_reads(keys) == []
        assert (cold_keys, len(keys)) == (79, 38)


class TestIndexProbe:
    def test_index_stats_are_two_read_frames(self, process_store, monkeypatch):
        client = process_store.client()
        client.get("warm-up")
        with sent_requests(monkeypatch) as sent:
            stats = VQIndexProbe(client).stats()
        assert sent == ["gather"] * 2  # meta, then postings and counters
        meta = sorted(client.get(K.meta()))
        sizes = sorted(len(client.get(K.posting(cid))) for cid in meta)
        assert stats == {
            "centroids": len(meta),
            "posting_p99": sizes[int(len(sizes) * 0.99)],
            **{
                key: int(client.get(K.stat(name), 0.0))
                for key, name in (
                    ("indexed_items", "indexed"),
                    ("reassignments", "reassignments"),
                    ("splits", "splits"),
                    ("merges", "merges"),
                )
            },
        }
        assert (stats["centroids"], stats["posting_p99"]) == (41, 7)


class TestKeyPlacementCost:
    """Placing a key costs one digest per process: a warm query routes
    every key it reads from the memo under ``stable_hash``."""

    def test_warm_queries_compute_no_digest(self, sim_store, monkeypatch):
        __, users, __ = seeded_index()
        client = sim_store.client()
        retriever = VQRetriever(client, RetrieverConfig(probe_width=8))
        engine = RecommenderEngine(client, EngineConfig())
        window = users[:24]
        digests: list = []
        digest = hashing._digest

        def counting(key):
            digests.append(key)
            return digest(key)

        monkeypatch.setattr(hashing, "_digest", counting)
        hashing._memo.clear()  # no wholesale clear can fall inside the passes
        for attempt in ("cold", "warm"):
            digests.clear()
            served = retriever.recommend(users[0], TOP_N, 0.0)
            engine.recommend_cf_batch(window, TOP_N, 0.0)
            if attempt == "cold":
                assert served and len(digests) > len(window)
        assert digests == []


class TestDegradedUserKeys:
    def test_unreachable_history_is_not_an_empty_history(self, reference):
        # host and slave of the user's history shard are down while the
        # recent items and the index root still answer: a lenient read
        # would hand back "no history" and the vq rung would serve items
        # the user already consumed
        users = seeded_index()[1]
        with SimSubstrate() as substrate:
            store = seeded_store(substrate)
            table = store.config.route_table()

            def replicas(key):
                route = table.route_for_key(key)
                return {route.host, route.slave}

            user, down = next(
                (user, replicas(StateKeys.history(user)))
                for user in users
                if served_items(reference[user, 8])
                and table.route_for_key(StateKeys.recent(user)).host
                not in replicas(StateKeys.history(user))
                and table.route_for_key(K.meta()).host
                not in replicas(StateKeys.history(user))
            )
            consumed = set(store.client().get(StateKeys.history(user)))
            for server_id in down:
                store.crash_data_server(server_id)
            client = store.client()
            with pytest.raises(DataServerDownError, match="hist:"):
                VQRetriever(client).recommend(user, TOP_N, 0.0)
            front = RecommenderFrontEnd(
                RecommenderEngine(client, EngineConfig(vq=RetrieverConfig())),
                algorithm="vq",
                static_items=sorted(consumed),
            )
            results = front.query(user, TOP_N, 0.0)
        assert front.log.vq_fallbacks == 1
        assert front.log.vq_fallback_reasons == {"DataServerDownError": 1}
        assert not [r for r in results if r.source == "vq"]

    def test_fallbacks_are_counted_by_reason(self, sim_store, reference):
        __, users, cold = seeded_index()
        unembedded = next(
            user for user in users if reference[user, 8] == "unembedded_user"
        )
        served = next(user for user in users if served_items(reference[user, 8]))
        client = sim_store.client()
        front = RecommenderFrontEnd(
            RecommenderEngine(client, EngineConfig(vq=RetrieverConfig())),
            algorithm="vq",
        )
        for user in (cold, unembedded, cold, served):
            front.query(user, TOP_N, 0.0)
        assert front.log.vq_fallback_reasons == {
            "no_recent": 2, "unembedded_user": 1,
        }
        assert front.log.vq_fallbacks == 3
