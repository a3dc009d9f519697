"""Cross-cutting coverage for smaller public APIs."""

import pytest

from repro import PracticalItemCF, UserAction
from repro.monitoring import read_imbalance
from repro.storm import LocalCluster, topology_from_xml
from repro.tdaccess import TDAccessCluster
from repro.utils.clock import SimClock

from tests.storm.helpers import CollectBolt, ListSpout


class TestConsumerSeek:
    def test_seek_rewinds_partition(self):
        cluster = TDAccessCluster(SimClock(), num_data_servers=2)
        cluster.create_topic("t", 1)
        cluster.producer().send_batch("t", [1, 2, 3])
        consumer = cluster.consumer("t")
        consumer.drain()
        consumer.seek(0, 1)
        assert [m.value for m in consumer.drain()] == [2, 3]

    def test_seek_unowned_partition_rejected(self):
        from repro.errors import ConsumerGroupError

        cluster = TDAccessCluster(SimClock(), num_data_servers=2)
        cluster.create_topic("t", 2)
        consumer = cluster.consumer("t", partitions=[0])
        with pytest.raises(ConsumerGroupError):
            consumer.seek(1, 0)


class TestXmlVariants:
    def test_all_grouping_and_direct_bolt_elements(self):
        xml = """
        <topology name="broadcast">
          <spout name="spout" class="Spout"/>
          <bolt name="fan" class="Collect" parallelism="3">
            <grouping type="all">
              <stream_id>words</stream_id>
            </grouping>
          </bolt>
        </topology>
        """
        registry = {
            "Spout": lambda: ListSpout([("x",), ("y",)], ("word",), "words"),
            "Collect": CollectBolt,
        }
        topo = topology_from_xml(xml, registry)
        cluster = LocalCluster()
        cluster.submit(topo)
        cluster.run_until_idle()
        for index in range(3):
            bolt = cluster.task_instance("broadcast", "fan", index)
            assert bolt.seen == [("x",), ("y",)]  # replicated to all tasks


class TestPracticalCFAccessors:
    def test_observe_many_and_accessors(self):
        cf = PracticalItemCF(linked_time=10**9)
        cf.observe_many(
            [
                UserAction("u", "A", "browse", 0.0),
                UserAction("u", "A", "purchase", 1.0),
                UserAction("u", "B", "click", 2.0),
            ]
        )
        assert cf.rating("u", "A") == 5.0
        assert cf.rating("u", "missing") == 0.0
        assert cf.user_history("u") == {"A": 5.0, "B": 2.0}
        assert cf.user_history("ghost") == {}


class TestSnapshotMath:
    def test_read_imbalance_even(self):
        reads = {"0": 10, "1": 10, "2": 10}
        assert read_imbalance(reads) == pytest.approx(1.0)

    def test_read_imbalance_skewed(self):
        reads = {"0": 30, "1": 0, "2": 0}
        assert read_imbalance(reads) == pytest.approx(3.0)

    def test_read_imbalance_empty(self):
        assert read_imbalance({}) == 1.0
