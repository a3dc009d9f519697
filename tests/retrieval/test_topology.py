"""Integration: retrieval bolts in the CF topology, front-end serving,
and the monitoring surface — the subsystem end to end in the sim."""

import numpy as np
import pytest

from repro.engine.engine import EngineConfig, RecommenderEngine
from repro.engine.front_end import RecommenderFrontEnd
from repro.errors import ConfigurationError, EvaluationError
from repro.monitoring import SystemMonitor
from repro.retrieval import (
    EmbeddingConfig,
    RetrievalConfig,
    RetrieverConfig,
    VQConfig,
    VQIndexProbe,
)
from repro.retrieval.keys import RetrievalKeys as K
from repro.retrieval.vq import index_integrity
from repro.storm import LocalCluster
from repro.topology.framework import (
    CFTopologyConfig,
    build_cf_topology,
    unit_registry,
)
from repro.types import UserAction

RCFG = RetrievalConfig(
    embedding=EmbeddingConfig(dim=8),
    vq=VQConfig(
        dim=8, seed_centroids=2, max_centroids=8,
        split_threshold=3.0, merge_floor=1.0,
    ),
)


def clustered_actions(n_users=9, n_events=220, seed=5):
    """Users confined to one of three item groups — co-clicks stay
    within a group, so embeddings (and the index) separate them."""
    rng = np.random.default_rng(seed)
    actions, t = [], 0.0
    for e in range(n_events):
        u = int(rng.integers(n_users))
        group = u % 3
        item = f"g{group}i{int(rng.integers(4))}"
        actions.append(UserAction(f"u{u}", item, "click", t))
        t += 10.0
    return actions


def run_retrieval_topology(clock, client_factory, actions):
    config = CFTopologyConfig(
        linked_time=10**12, parallelism=2, retrieval=RCFG
    )
    topo = build_cf_topology("cf-vq", actions, clock, client_factory, config)
    cluster = LocalCluster(clock=clock)
    cluster.submit(topo)
    cluster.run_until_idle()
    return cluster


ALL_ITEMS = [f"g{g}i{i}" for g in range(3) for i in range(4)]


class TestTopologyIntegration:
    def test_stream_builds_a_consistent_index(self, clock, client_factory):
        run_retrieval_topology(clock, client_factory, clustered_actions())
        client = client_factory()
        report = index_integrity(client, ALL_ITEMS)
        assert report["assigned_items"] > 0
        assert report["problems"] == []
        stats = VQIndexProbe(client).stats()
        assert stats["centroids"] >= 2
        assert stats["indexed_items"] == report["assigned_items"]

    def test_rows_learn_group_structure(self, clock, client_factory):
        run_retrieval_topology(clock, client_factory, clustered_actions())
        client = client_factory()
        rows = {
            item: client.get(K.embedding(item), None) for item in ALL_ITEMS
        }
        learned = {i: r for i, r in rows.items() if r and r["updates"] > 0}
        assert len(learned) >= 6
        same, cross = [], []
        for a, ra in learned.items():
            for b, rb in learned.items():
                if a >= b:
                    continue
                dot = float(
                    np.dot(np.asarray(ra["vec"]), np.asarray(rb["vec"]))
                )
                (same if a[1] == b[1] else cross).append(dot)
        assert np.mean(same) > np.mean(cross)

    def test_registry_knows_the_retrieval_units(self, clock, client_factory):
        registry = unit_registry(clock, client_factory)
        for unit in ("EmbeddingPair", "EmbeddingUpdate", "VQAssign"):
            assert registry[unit]() is not None

    def test_assign_layer_rejects_parallelism_above_one(self, client_factory):
        from repro.retrieval.bolts import VQAssignBolt
        from repro.storm.component import (
            OutputCollector,
            OutputDeclaration,
            TopologyContext,
        )

        bolt = VQAssignBolt(client_factory, config=RCFG.vq)
        collector = OutputCollector(
            "vqAssign", 0, OutputDeclaration(),
            lambda tup, anchor: None, lambda tup: None, lambda tup: None,
            lambda: 0.0,
        )
        with pytest.raises(ConfigurationError):
            bolt.prepare(TopologyContext("vqAssign", 0, 2, "cf-vq"), collector)


class TestFrontEndServing:
    def serving_stack(self, clock, client_factory, actions):
        run_retrieval_topology(clock, client_factory, actions)
        engine = RecommenderEngine(
            client_factory(),
            EngineConfig(vq=RetrieverConfig(probe_width=8)),
        )
        return engine, RecommenderFrontEnd(engine, algorithm="vq")

    def test_vq_front_end_serves_live(self, clock, client_factory):
        engine, front_end = self.serving_stack(
            clock, client_factory, clustered_actions()
        )
        # pick a user the stream actually touched
        results = front_end.query("u3", 3, 10**6)
        assert results
        assert front_end.log.rungs == {"live": 1}
        assert all(r.source == "vq" for r in results)

    def test_cold_index_falls_back_to_cf_inside_live(
        self, clock, client_factory, monkeypatch
    ):
        from repro.errors import ColdIndexError

        engine, front_end = self.serving_stack(
            clock, client_factory, clustered_actions()
        )

        def cold(user_id, n, now):
            raise ColdIndexError("index not warm yet")

        monkeypatch.setattr(engine, "recommend_vq", cold)
        # a user with one consumed item: CF still has unconsumed
        # neighbours to serve from that item's similarity list
        from repro.topology.state import StateKeys

        client = client_factory()
        client.put(StateKeys.recent("probe-user"), [("g0i0", 5.0, 2000.0)])
        client.put(StateKeys.history("probe-user"), {"g0i0": 5.0})
        results = front_end.query("probe-user", 3, 10**6)
        assert results  # CF answered inside the live rung
        assert front_end.log.vq_fallbacks == 1
        assert front_end.log.rungs == {"live": 1}
        assert all(r.source != "vq" for r in results)

    def test_unseen_user_counts_a_fallback(self, clock, client_factory):
        engine, front_end = self.serving_stack(
            clock, client_factory, clustered_actions()
        )
        front_end.query("never-seen-user", 3, 10**6)
        assert front_end.log.vq_fallbacks == 1

    def test_unknown_algorithm_rejected(self, client_factory):
        engine = RecommenderEngine(client_factory(), EngineConfig())
        with pytest.raises(EvaluationError):
            RecommenderFrontEnd(engine, algorithm="ann")


class TestMonitoringSurface:
    def test_snapshot_carries_index_health(self, clock, client_factory):
        run_retrieval_topology(clock, client_factory, clustered_actions())
        client = client_factory()
        engine = RecommenderEngine(
            client, EngineConfig(vq=RetrieverConfig(probe_width=8))
        )
        front_end = RecommenderFrontEnd(engine, algorithm="vq")
        front_end.query("never-seen-user", 3, 10**6)
        monitor = SystemMonitor(clock.now)
        monitor.watch("front_end", front_end)
        monitor.watch("retrieval", VQIndexProbe(client))
        snap = monitor.snapshot()
        assert snap["vq_centroids"] >= 2
        assert snap["vq_indexed_items"] > 0
        assert snap["retrieval_cold_fallbacks"] == 1
        assert "retrieval: vq_centroids=" in monitor.summary()

    def test_cold_fallback_delta_alerts(self, clock, client_factory):
        run_retrieval_topology(clock, client_factory, clustered_actions())
        client = client_factory()
        engine = RecommenderEngine(
            client, EngineConfig(vq=RetrieverConfig())
        )
        front_end = RecommenderFrontEnd(engine, algorithm="vq")
        monitor = SystemMonitor(clock.now)
        monitor.watch("front_end", front_end)
        monitor.watch("retrieval", VQIndexProbe(client))
        monitor.evaluate(monitor.snapshot())
        front_end.query("never-seen-user", 3, 10**6)
        alerts = monitor.evaluate(monitor.snapshot())
        assert any(
            a.component == "retrieval" and "fell back" in a.message
            for a in alerts
        )

    def test_posting_p99_threshold_alerts(self, clock, client_factory):
        run_retrieval_topology(clock, client_factory, clustered_actions())
        client = client_factory()
        monitor = SystemMonitor(clock.now, max_posting_p99=1)
        monitor.watch("retrieval", VQIndexProbe(client))
        alerts = monitor.evaluate(monitor.snapshot())
        assert any(
            a.component == "retrieval" and "posting-list p99" in a.message
            for a in alerts
        )
