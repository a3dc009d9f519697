"""Runtime rebalancing: the Section 7 future work applied live.

Task counts are changed on a running CF topology mid-stream — the move
`repro.elastic.autoscaler` makes from monitoring signals; because every
piece of algorithm state lives in TDStore, the rebalanced run must
produce exactly the same counts as an untouched one.
"""

import numpy as np
import pytest

from repro.algorithms.itemcf import PracticalItemCF
from repro.errors import ClusterStateError
from repro.storm import LocalCluster
from repro.tdstore import TDStoreCluster
from repro.topology import StateKeys
from repro.topology.framework import CFTopologyConfig, build_cf_topology
from repro.types import UserAction
from repro.utils.clock import SimClock

BIG = 10**12


def random_actions(seed=23, n_events=160):
    rng = np.random.default_rng(seed)
    kinds = ["browse", "click", "purchase"]
    return [
        UserAction(
            f"u{rng.integers(10)}",
            f"i{rng.integers(8)}",
            kinds[rng.integers(3)],
            float(index),
        )
        for index in range(n_events)
    ]


class TestRebalance:
    def run_with_rebalance(self, actions, rebalance_to=None):
        clock = SimClock()
        store = TDStoreCluster(num_data_servers=3, num_instances=16)
        topo = build_cf_topology(
            "cf", actions, clock, store.client,
            CFTopologyConfig(linked_time=BIG, parallelism=2),
        )
        cluster = LocalCluster(clock=clock)
        cluster.submit(topo)
        if rebalance_to is not None:
            for __ in range(60):
                cluster.step()
            for component in ("userHistory", "itemCount", "pairCount",
                              "simList"):
                cluster.rebalance("cf", component, rebalance_to)
        cluster.run_until_idle()
        return store, cluster

    def test_results_unchanged_after_live_rebalance(self):
        actions = random_actions()
        baseline, __ = self.run_with_rebalance(list(actions))
        rebalanced, cluster = self.run_with_rebalance(list(actions),
                                                      rebalance_to=5)
        assert cluster._running["cf"].topology.specs[
            "pairCount"
        ].parallelism == 5
        base_client = baseline.client()
        new_client = rebalanced.client()
        reference = PracticalItemCF(linked_time=BIG)
        reference.observe_many(actions)
        for item in reference.table.known_items():
            expected = reference.table.item_count(item)
            assert base_client.get(StateKeys.item_count(item), 0.0) == expected
            assert new_client.get(StateKeys.item_count(item), 0.0) == expected

    def test_scale_down_also_safe(self):
        actions = random_actions(seed=29)
        store, __ = self.run_with_rebalance(list(actions), rebalance_to=1)
        reference = PracticalItemCF(linked_time=BIG)
        reference.observe_many(actions)
        client = store.client()
        for item in reference.table.known_items():
            assert client.get(StateKeys.item_count(item), 0.0) == (
                reference.table.item_count(item)
            )

    def test_spout_rebalance_rejected(self):
        actions = random_actions()
        clock = SimClock()
        store = TDStoreCluster(num_data_servers=2, num_instances=8)
        topo = build_cf_topology(
            "cf", actions, clock, store.client,
            CFTopologyConfig(linked_time=BIG),
        )
        cluster = LocalCluster(clock=clock)
        cluster.submit(topo)
        with pytest.raises(ClusterStateError, match="spout"):
            cluster.rebalance("cf", "spout", 3)

    def test_plan_feeds_rebalance(self):
        """A whole per-component plan, every layer resized, applied live."""
        actions = random_actions(seed=31)
        plan = {"userHistory": 3, "itemCount": 3, "pairCount": 6, "simList": 6}
        clock = SimClock()
        store = TDStoreCluster(num_data_servers=3, num_instances=16)
        topo = build_cf_topology(
            "cf", actions, clock, store.client,
            CFTopologyConfig(linked_time=BIG, parallelism=1),
        )
        cluster = LocalCluster(clock=clock)
        cluster.submit(topo)
        for __ in range(40):
            cluster.step()
        for component, parallelism in plan.items():
            cluster.rebalance("cf", component, parallelism)
        cluster.run_until_idle()
        reference = PracticalItemCF(linked_time=BIG)
        reference.observe_many(actions)
        client = store.client()
        for item in reference.table.known_items():
            assert client.get(StateKeys.item_count(item), 0.0) == (
                reference.table.item_count(item)
            )
