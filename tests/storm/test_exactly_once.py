"""Tests for the exactly-once layer: dedup ledgers and ExactlyOnceBolt."""

import pytest

from repro.errors import ConfigurationError, DataServerDownError
from repro.storm import GlobalGrouping, LocalCluster, TopologyBuilder
from repro.storm.component import Spout
from repro.storm.reliability import DedupLedger, ExactlyOnceBolt
from repro.storm.tuples import StormTuple


def make_tuple(value, op_id):
    return StormTuple((value,), ("value",), "default", "test", op_id=op_id)


class TestDedupLedger:
    def test_first_seen_then_duplicate(self):
        ledger = DedupLedger()
        assert ledger.observe("actions@0")
        assert not ledger.observe("actions@0")
        assert ledger.first_seen == 1
        assert ledger.duplicates == 1

    def test_derived_suffixes_are_distinct_identities(self):
        ledger = DedupLedger()
        assert ledger.observe("actions@5>history.0:0")
        assert ledger.observe("actions@5>history.0:1")
        assert not ledger.observe("actions@5>history.0:0")
        assert ledger.first_seen == 2
        assert ledger.duplicates == 1

    def test_sources_are_independent(self):
        ledger = DedupLedger()
        assert ledger.observe("topic/0@3")
        assert ledger.observe("topic/1@3")
        assert not ledger.observe("topic/0@3")

    def test_watermark_bounds_memory(self):
        ledger = DedupLedger(retain_depth=4)
        for offset in range(100):
            assert ledger.observe(f"src@{offset}")
            assert ledger.within_bound()
        assert ledger.offsets_retained() <= 4

    def test_below_watermark_treated_as_duplicate(self):
        # an offset the watermark has passed can only be a replay, even
        # if this task never saw its first delivery (e.g. after a rewind
        # deeper than the in-flight window would ever be)
        ledger = DedupLedger(retain_depth=4)
        ledger.observe("src@100")
        assert not ledger.observe("src@1")
        assert ledger.duplicates == 1

    def test_out_of_order_within_window_still_first_seen(self):
        ledger = DedupLedger(retain_depth=8)
        assert ledger.observe("src@10")
        assert ledger.observe("src@7")  # above watermark 10-8=2
        assert not ledger.observe("src@7")

    def test_unparseable_ids_tracked_verbatim(self):
        ledger = DedupLedger()
        assert ledger.observe("hand-crafted")
        assert not ledger.observe("hand-crafted")
        assert ledger.observe("no-offset@abc")
        assert not ledger.observe("no-offset@abc")
        assert ledger.entries() == 2

    def test_invalid_retain_depth(self):
        with pytest.raises(ConfigurationError, match="retain_depth"):
            DedupLedger(retain_depth=0)

    def test_snapshot_restore_preserves_decisions(self):
        ledger = DedupLedger(retain_depth=16)
        for op_id in ("a@1", "a@2>x.0:0", "b@9", "oddball"):
            ledger.observe(op_id)
        restored = DedupLedger()
        restored.restore(ledger.snapshot())
        # every id the original saw is a duplicate to the restored copy
        for op_id in ("a@1", "a@2>x.0:0", "b@9", "oddball"):
            assert not restored.observe(op_id)
        assert restored.observe("a@3")
        assert restored.stats()["retain_depth"] == 16

    def test_stats_shape(self):
        ledger = DedupLedger()
        ledger.observe("s@0")
        ledger.observe("s@0")
        stats = ledger.stats()
        assert stats["sources"] == 1
        assert stats["first_seen"] == 1
        assert stats["duplicates"] == 1
        assert stats["within_bound"] is True
        assert stats["watermark_rejections"] == 0

    def test_seen_is_not_a_commit(self):
        # the two-phase protocol: seen() must not record, so a failure
        # between check and commit leaves the replay processable
        ledger = DedupLedger()
        assert not ledger.seen("src@0")
        assert not ledger.seen("src@0")
        ledger.commit("src@0")
        assert ledger.seen("src@0")
        assert ledger.first_seen == 1

    def test_watermark_rejections_counted_separately(self):
        # a drop decided solely by the watermark could be a late first
        # delivery, not a replay — it must be distinguishable in metrics
        ledger = DedupLedger(retain_depth=4)
        ledger.observe("src@100")
        assert not ledger.observe("src@1")  # below watermark 96
        assert ledger.watermark_rejections == 1
        assert ledger.duplicates == 1
        ledger.observe("src@100")  # exact-detail duplicate, not watermark
        assert ledger.watermark_rejections == 1
        assert ledger.duplicates == 2

    def test_watermark_rejections_survive_snapshot(self):
        ledger = DedupLedger(retain_depth=4)
        ledger.observe("src@100")
        ledger.observe("src@1")
        restored = DedupLedger()
        restored.restore(ledger.snapshot())
        assert restored.watermark_rejections == 1


class CountingBolt(ExactlyOnceBolt):
    def __init__(self):
        super().__init__()
        self.counts: dict[object, int] = {}

    def process(self, tup):
        value = tup["value"]
        self.counts[value] = self.counts.get(value, 0) + 1


class TestExactlyOnceBolt:
    def test_duplicate_op_ids_dropped_before_state(self):
        bolt = CountingBolt()
        bolt.execute(make_tuple("a", "src@0"))
        bolt.execute(make_tuple("a", "src@0"))
        bolt.execute(make_tuple("a", "src@1"))
        assert bolt.counts == {"a": 2}
        assert bolt.dedup_hits == 1

    def test_unidentified_tuple_is_refused(self):
        bolt = CountingBolt()
        with pytest.raises(ConfigurationError, match="without an op id"):
            bolt.execute(make_tuple("a", None))
        assert bolt.counts == {}
        assert bolt.ledger.first_seen == 0

    def test_snapshot_state_shape(self):
        bolt = CountingBolt()
        assert bolt.snapshot_state() is None  # nothing seen: nothing to save
        bolt.execute(make_tuple("a", "src@0"))
        state = bolt.snapshot_state()
        assert set(state) == {"exactly_once", "app"}
        restored = CountingBolt()
        restored.restore_state(state)
        restored.execute(make_tuple("a", "src@0"))
        assert restored.counts == {}
        assert restored.dedup_hits == 1

    def test_ledger_stats_include_dedup_hits(self):
        bolt = CountingBolt()
        bolt.execute(make_tuple("a", "src@0"))
        bolt.execute(make_tuple("a", "src@0"))
        assert bolt.ledger_stats()["dedup_hits"] == 1

    def test_failed_process_leaves_ledger_unmarked(self):
        # regression: the ledger used to be marked *before* process(),
        # so an exception plus a replay lost the update permanently
        # (exactly-once silently degraded to at-most-once)
        class FlakyBolt(CountingBolt):
            def __init__(self):
                super().__init__()
                self.boom = True

            def process(self, tup):
                if self.boom:
                    self.boom = False
                    raise DataServerDownError("store hiccup mid-process")
                super().process(tup)

        bolt = FlakyBolt()
        with pytest.raises(DataServerDownError):
            bolt.execute(make_tuple("a", "src@0"))
        assert bolt.counts == {}
        # the spout replays the failed tuple: it must be processed, not
        # swallowed as a duplicate
        bolt.execute(make_tuple("a", "src@0"))
        assert bolt.counts == {"a": 1}
        assert bolt.dedup_hits == 0
        # a genuine second delivery still dedups
        bolt.execute(make_tuple("a", "src@0"))
        assert bolt.counts == {"a": 1}
        assert bolt.dedup_hits == 1


class DuplicatingSpout(Spout):
    """Emits every row twice with the same op id — a replaying source."""

    def __init__(self, rows):
        self._rows = list(rows)
        self._cursor = 0

    def declare_outputs(self, declarer):
        declarer.declare(("value",))

    def next_tuple(self):
        if self._cursor >= len(self._rows):
            return False
        row = self._rows[self._cursor]
        op_id = f"dup@{self._cursor}"
        self.collector.emit(row, op_id=op_id)
        self.collector.emit(row, op_id=op_id)
        self._cursor += 1
        return True


class ForwardBolt(ExactlyOnceBolt):
    def declare_outputs(self, declarer):
        declarer.declare(("value",))

    def process(self, tup):
        self.collector.emit((tup["value"],))


class CollectBolt(ExactlyOnceBolt):
    def __init__(self):
        super().__init__()
        self.seen = []

    def process(self, tup):
        self.seen.append(tup["value"])


class TestTopologyDedup:
    def run_chain(self, rows):
        builder = TopologyBuilder("dedup")
        builder.add_spout("spout", lambda: DuplicatingSpout(rows))
        builder.add_bolt("forward", ForwardBolt).grouping(
            "spout", GlobalGrouping()
        )
        builder.add_bolt("collect", CollectBolt).grouping(
            "forward", GlobalGrouping()
        )
        cluster = LocalCluster()
        cluster.submit(builder.build())
        cluster.run_until_idle()
        return cluster

    def test_replays_suppressed_at_first_identified_bolt(self):
        rows = [("a",), ("b",), ("c",)]
        cluster = self.run_chain(rows)
        forward = cluster.task_instance("dedup", "forward", 0)
        collect = cluster.task_instance("dedup", "collect", 0)
        # each row was delivered twice; the first bolt dropped the replica
        # before emitting, so downstream never saw a duplicate at all
        assert forward.dedup_hits == 3
        assert collect.seen == ["a", "b", "c"]
        assert collect.dedup_hits == 0

    def test_cluster_exposes_exactly_once_stats(self):
        cluster = self.run_chain([("a",), ("b",)])
        stats = cluster.exactly_once_stats("dedup")
        assert set(stats) == {"forward[0]", "collect[0]"}
        assert stats["forward[0]"]["dedup_hits"] == 2
        assert all(s["within_bound"] for s in stats.values())
