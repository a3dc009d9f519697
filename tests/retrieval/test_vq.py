"""Unit tests for the streaming VQ index.

The crash-replay class is the heart: every ``observe`` is a multi-key
op, so we cut it off after every possible write prefix, re-execute it
the way a redelivered tuple would, and demand the final state be
byte-identical to a run that never crashed. That is the single-writer +
derived-op-id protocol's whole promise, checked exhaustively at the
unit level (the chaos suite re-checks it end-to-end across substrates).
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.retrieval.embedding import seed_vector
from repro.retrieval.keys import RetrievalKeys as K
from repro.retrieval.vq import (
    StreamingVQIndex,
    VQConfig,
    centroid_snapshots,
    index_integrity,
    sibling_id,
)
from repro.tdstore import TDStoreCluster
from repro.topology.state import CachedStore

from tests.topology.helpers import EnvelopeClient

CFG = VQConfig(
    dim=4,
    seed_centroids=2,
    max_centroids=8,
    min_centroids=2,
    split_threshold=3.0,
    merge_floor=1.0,
)

ITEMS = [f"x{i}" for i in range(12)]


class CommittedIndex(StreamingVQIndex):
    """An index whose every op is its own slice: ``observe`` commits
    what it buffered, as the executor does after the bolt returns."""

    def observe(self, item, vec, op_id, weight=1.0):
        try:
            return super().observe(item, vec, op_id, weight)
        finally:
            self.commit()

    def commit(self):
        self._store.flush()


def make_index(config=CFG):
    cluster = TDStoreCluster(num_data_servers=2, num_instances=8)
    store = CachedStore(cluster.client())
    return cluster, CommittedIndex(store, config)


def op_stream(rounds=3):
    """Deterministic (item, vector, op_id) stream that exercises
    assignment, reassignment, split, and merge against ``CFG``."""
    ops = []
    for r in range(rounds):
        for i, item in enumerate(ITEMS):
            vec = seed_vector(f"v{(i + r) % 3}:{r}", CFG.dim, "vqtest")
            ops.append((item, [float(x) for x in vec], f"op{r}:{item}"))
    return ops


def digest(client, items=ITEMS) -> bytes:
    meta = client.get(K.meta(), None) or {}
    state = {
        "meta": sorted(meta),
        "centroids": {c: client.get(K.centroid(c), None) for c in sorted(meta)},
        "counts": {c: client.get(K.count(c), 0.0) for c in sorted(meta)},
        "postings": {
            c: sorted(client.get(K.posting(c), None) or {}) for c in sorted(meta)
        },
        "assignments": {i: client.get(K.assignment(i), None) for i in items},
        "stats": {
            name: client.get(K.stat(name), 0.0)
            for name in ("indexed", "reassignments", "splits", "merges")
        },
    }
    return json.dumps(state, sort_keys=True).encode()


class TestBootstrap:
    def test_seeds_the_configured_centroids(self):
        cluster, index = make_index()
        meta = index.bootstrap()
        index.commit()
        assert sorted(meta) == ["g0", "g1"]
        snaps = centroid_snapshots(cluster.client())
        assert all(len(s.vec) == CFG.dim and s.count == 0.0 for s in snaps)

    def test_bootstrap_is_idempotent(self):
        cluster, index = make_index()
        index.bootstrap()
        index.commit()
        before = digest(cluster.client())
        index.bootstrap()
        index.commit()
        assert digest(cluster.client()) == before


class TestObserve:
    def test_assignment_posting_and_count_agree(self):
        cluster, index = make_index()
        for item, vec, op in op_stream(rounds=1):
            index.observe(item, vec, op)
        report = index_integrity(cluster.client(), ITEMS)
        assert report["assigned_items"] == len(ITEMS)
        assert report["problems"] == []

    def test_stream_exercises_splits_and_merges(self):
        cluster, index = make_index()
        for item, vec, op in op_stream():
            index.observe(item, vec, op)
        client = cluster.client()
        assert client.get(K.stat("splits"), 0.0) > 0
        assert client.get(K.stat("merges"), 0.0) > 0
        assert client.get(K.stat("reassignments"), 0.0) > 0
        assert client.get(K.stat("indexed"), 0.0) == len(ITEMS)
        assert index_integrity(client, ITEMS)["problems"] == []

    def test_chosen_centroid_moves_toward_the_vector(self):
        cluster, index = make_index()
        vec = [1.0, 0.0, 0.0, 0.0]
        op = index.observe("x0", vec, "op-a")
        moved = cluster.client().get(K.centroid(op.assigned), None)
        seeded = seed_vector("cent:0", CFG.dim, CFG.seed_salt)
        base = cluster.client().get(K.centroid("g0"), None)
        # whichever centroid won, its vector is lr-interpolated, not raw
        assert moved != list(seeded) and moved != vec
        assert base is not None

    def test_split_spawns_sibling_at_incoming_vector(self):
        cluster, index = make_index()
        client = cluster.client()
        vec = [1.0, 0.0, 0.0, 0.0]
        ops = [
            index.observe(f"x{i}", vec, f"op{i}")
            for i in range(int(CFG.split_threshold) + 1)
        ]
        split_ops = [o for o in ops if o.split_from is not None]
        assert split_ops, "crowding one centroid must trigger a split"
        first = split_ops[0]
        assert first.assigned == sibling_id(first.split_from, first.op_id)
        assert client.get(K.centroid(first.assigned), None) == vec


class TestDedup:
    def test_replayed_op_is_skipped_exactly(self):
        cluster, index = make_index()
        ops = op_stream()
        for item, vec, op in ops:
            index.observe(item, vec, op)
        before = digest(cluster.client())
        for item, vec, op in ops:
            result = index.observe(item, vec, op)
            assert result.deduped
        assert index.dedup_skips == len(ops)
        assert digest(cluster.client()) == before


class _Crash(Exception):
    pass


class FlakyClient(EnvelopeClient):
    """A client that dies ``budget`` writes into the flushes it carries
    — the unit-level stand-in for losing the store between the
    envelopes of one commit, at every op boundary."""

    def __init__(self, inner, budget):
        super().__init__(inner)
        self.budget = budget

    def mutate(self, ops):
        if len(ops) > self.budget:
            if self.budget:
                self._inner.mutate(ops[: self.budget])
            self.budget = 0
            raise _Crash()
        self.budget -= len(ops)
        return self._inner.mutate(ops)


class TestCrashReplay:
    """Cut every op at every write prefix, then re-execute."""

    def run_chaotic(self):
        cluster = TDStoreCluster(num_data_servers=2, num_instances=8)
        crashes = 0
        for item, vec, op in op_stream():
            budget = 0
            while True:
                # fresh store per attempt: a restarted worker has no cache
                flaky = FlakyClient(cluster.client(), budget)
                index = CommittedIndex(CachedStore(flaky), CFG)
                try:
                    index.observe(item, vec, op)
                except _Crash:
                    crashes += 1
                    budget += 1
                    continue
                break
            # and one full replay of the now-committed op
            replay = CommittedIndex(CachedStore(cluster.client()), CFG)
            assert replay.observe(item, vec, op).deduped
        return cluster, crashes

    def test_every_write_prefix_replays_to_identical_state(self):
        clean_cluster, clean_index = make_index()
        for item, vec, op in op_stream():
            clean_index.observe(item, vec, op)
        chaos_cluster, crashes = self.run_chaotic()
        assert crashes > 100  # every op died at every prefix length
        assert digest(chaos_cluster.client()) == digest(clean_cluster.client())
        assert index_integrity(chaos_cluster.client(), ITEMS)["problems"] == []
        # the codebook version: one bump per op, cut before or after it
        versions = [
            cluster.client().get_versioned(K.meta())
            for cluster in (chaos_cluster, clean_cluster)
        ]
        assert versions[0] == versions[1]
        assert versions[0][1] == len(op_stream())


class TestValidation:
    def test_rejects_seed_below_min(self):
        with pytest.raises(ConfigurationError):
            VQConfig(seed_centroids=1, min_centroids=2)

    def test_rejects_max_below_seed(self):
        with pytest.raises(ConfigurationError):
            VQConfig(seed_centroids=4, max_centroids=2)

    def test_rejects_inverted_thresholds(self):
        with pytest.raises(ConfigurationError):
            VQConfig(split_threshold=1.0, merge_floor=2.0)
