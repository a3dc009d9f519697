"""Ablation: the combiner under hot-item skew (Section 5.3).

The paper: a hot item funnels a flood of identical-key updates to one
worker; buffering them in a combiner map and flushing per interval
collapses the TDStore write storm, and "in a temporal burst situation,
the combiner's efficacy will be even improved". We replay a Zipf-skewed
item-delta stream through ItemCountBolt with and without the combiner
and count TDStore writes; then the same stream with a hotter skew.
"""

import numpy as np
import pytest

from repro.storm import FieldsGrouping, LocalCluster, TopologyBuilder
from repro.tdstore import TDStoreCluster
from repro.topology import ItemCountBolt, StateKeys
from repro.topology.spouts import ActionSpout
from repro.topology.bolts_cf import UserHistoryBolt
from repro.types import UserAction
from repro.utils.clock import SimClock

from benchmarks.conftest import report


def zipf_actions(num_events=3000, num_items=200, exponent=1.2, seed=3):
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, num_items + 1, dtype=float)
    weights = ranks**-exponent
    weights /= weights.sum()
    actions = []
    for index in range(num_events):
        item = int(rng.choice(num_items, p=weights))
        actions.append(
            UserAction(f"u{index % 300}", f"item-{item}", "click",
                       float(index))
        )
    return actions


def run_item_counting(actions, use_combiner, parallelism=2):
    clock = SimClock()
    store = TDStoreCluster(num_data_servers=2, num_instances=8)
    builder = TopologyBuilder("counting")
    builder.add_spout("spout", lambda: ActionSpout(list(actions), clock))
    builder.add_bolt(
        "userHistory", lambda: UserHistoryBolt(store.client), parallelism
    ).grouping("spout", FieldsGrouping(["user"]), "user_action")
    builder.add_bolt(
        "itemCount",
        lambda: ItemCountBolt(store.client, use_combiner=use_combiner),
        parallelism,
    ).grouping("userHistory", FieldsGrouping(["item"]), "item_delta")
    cluster = LocalCluster(clock=clock, tick_interval=60.0)
    metrics = cluster.submit(builder.build())
    cluster.run_until_idle()
    deltas = metrics.component_executed("itemCount")
    if use_combiner:
        count_writes = 0
        for index in range(parallelism):
            bolt = cluster.task_instance("counting", "itemCount", index)
            count_writes += bolt.combiner.flushed_keys
    else:
        count_writes = deltas  # one read-modify-write per delta
    hottest = store.client().get(StateKeys.item_count("item-0"), 0.0)
    return deltas, count_writes, hottest


@pytest.fixture(scope="module")
def combiner_results():
    actions = zipf_actions()
    deltas, exact_writes, exact_hot = run_item_counting(actions, False)
    __, combined_writes, combined_hot = run_item_counting(actions, True)
    burst = zipf_actions(exponent=2.5)
    burst_deltas, burst_exact, ___ = run_item_counting(burst, False)
    ____, burst_combined, _____ = run_item_counting(burst, True)
    return {
        "deltas": deltas,
        "exact": (exact_writes, exact_hot),
        "combined": (combined_writes, combined_hot),
        "burst_saving": 1 - burst_combined / burst_exact,
        "normal_saving": 1 - combined_writes / exact_writes,
    }


def test_combiner_reduces_writes(combiner_results, benchmark):
    exact_writes, exact_hot = combiner_results["exact"]
    combined_writes, combined_hot = combiner_results["combined"]
    report(
        "ablation_combiner",
        "\n".join(
            [
                "Ablation: combiner under hot-item skew (Section 5.3)",
                f"itemCount deltas:                  "
                f"{combiner_results['deltas']}",
                f"itemCount writes, no combiner:     {exact_writes}",
                f"itemCount writes, with combiner:   {combined_writes}"
                f"  ({combiner_results['normal_saving']:.0%} saved)",
                f"hottest itemCount identical:       "
                f"{exact_hot == combined_hot} ({exact_hot})",
                f"write saving at burst skew (zipf 2.5): "
                f"{combiner_results['burst_saving']:.0%} "
                f"(vs {combiner_results['normal_saving']:.0%} at zipf 1.2)",
            ]
        ),
    )
    assert combined_writes < exact_writes
    assert exact_hot == combined_hot  # the optimization is lossless
    # the paper: combining helps *more* when traffic is burstier
    assert combiner_results["burst_saving"] > combiner_results["normal_saving"]

    # timing: one combiner-buffered count update
    from repro.topology.state import CachedStore, Combiner

    store = TDStoreCluster(num_data_servers=2, num_instances=8)
    combiner = Combiner(CachedStore(store.client()))
    benchmark(combiner.add, "itemCount:hot", 1.0)
