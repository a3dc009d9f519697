"""Tests for the CTR (Figure 7), CB, and AR topologies plus Pretreatment."""

import random

import pytest

from repro.storm import LocalCluster, topology_from_xml
from repro.tdaccess import TDAccessCluster
from repro.tdstore import TDStoreCluster
from repro.topology import StateKeys
from repro.topology.bolts_cb import ItemInfoBolt
from repro.topology.framework import (
    build_ar_topology,
    build_cb_topology,
    build_ctr_topology,
    unit_registry,
)
from repro.topology.spouts import TDAccessSpout
from repro.types import UserAction, UserProfile
from repro.utils.clock import SimClock

PROFILES = {
    "m1": UserProfile("m1", gender="male", age=25, region="beijing"),
    "f1": UserProfile("f1", gender="female", age=25, region="beijing"),
}


def make_tdaccess(clock, payloads):
    access = TDAccessCluster(clock, num_data_servers=2)
    access.create_topic("ads", 2)
    producer = access.producer()
    for payload in payloads:
        key = payload.get("user") if isinstance(payload, dict) else None
        producer.send("ads", payload, key=key)
    return access


class TestCtrTopology:
    def payloads(self):
        rows = []
        for n in range(60):
            rows.append({"user": "m1", "item": "ad1", "action": "impression",
                         "timestamp": float(n)})
            rows.append({"user": "f1", "item": "ad1", "action": "impression",
                         "timestamp": float(n)})
        for n in range(30):
            rows.append({"user": "m1", "item": "ad1", "action": "click",
                         "timestamp": 60.0 + n})
        # some garbage the pretreatment must drop
        rows.append({"user": "m1", "action": "click", "timestamp": 99.0})
        rows.append({"user": "m1", "item": "ad1", "action": "explode",
                     "timestamp": 99.0})
        rows.append("not-a-dict")
        return rows

    def test_figure7_pipeline_end_to_end(self, clock, tdstore, client_factory):
        access = make_tdaccess(clock, self.payloads())
        topo = build_ctr_topology(
            "ctr-app",
            lambda: TDAccessSpout(access.consumer("ads"), clock),
            client_factory,
            PROFILES.get,
        )
        cluster = LocalCluster(clock=clock)
        cluster.submit(topo)
        cluster.run_until_idle()
        client = client_factory()
        male_key = "region=beijing&gender=male&age=age25-34"
        female_key = "region=beijing&gender=female&age=age25-34"
        assert client.get(StateKeys.impressions("ad1", male_key)) == 60.0
        assert client.get(StateKeys.clicks("ad1", male_key)) == 30.0
        male_ctr = client.get(StateKeys.ctr("ad1", male_key))
        female_ctr = client.get(StateKeys.ctr("ad1", female_key))
        assert male_ctr > 5 * female_ctr
        # the introduction's query: situational CTR differs by demographics
        stored = client.get(StateKeys.result("ctr", f"ad1|{male_key}"))
        assert stored["ctr"] == pytest.approx(male_ctr)

    def test_windowed_ctr_forgets_old_sessions(self, clock, tdstore,
                                               client_factory):
        """The introduction's query: CTR over the last W sessions only."""
        rows = []
        # session 0 (t in [0, 10)): terrible CTR
        for n in range(50):
            rows.append({"user": "m1", "item": "ad1", "action": "impression",
                         "timestamp": 0.5})
        # session 5 (t in [50, 60)): great CTR
        for n in range(20):
            rows.append({"user": "m1", "item": "ad1", "action": "impression",
                         "timestamp": 55.0})
        for n in range(10):
            rows.append({"user": "m1", "item": "ad1", "action": "click",
                         "timestamp": 55.0})
        access = make_tdaccess(clock, rows)
        topo = build_ctr_topology(
            "ctr-win",
            lambda: TDAccessSpout(access.consumer("ads"), clock),
            client_factory,
            PROFILES.get,
            session_seconds=10.0,
            window_sessions=2,  # "the last twenty seconds"
        )
        cluster = LocalCluster(clock=clock)
        cluster.submit(topo)
        cluster.run_until_idle()
        client = client_factory()
        # the stored CTR reflects only sessions 4-5: 20 impressions,
        # 10 clicks, smoothed by the Beta prior
        ctr = client.get(StateKeys.ctr("ad1", "any"))
        expected = (10 + 0.02 * 20.0) / (20 + 20.0)
        assert ctr == pytest.approx(expected)

    def test_pretreatment_drops_garbage(self, clock, tdstore, client_factory):
        access = make_tdaccess(clock, self.payloads())
        topo = build_ctr_topology(
            "ctr-app",
            lambda: TDAccessSpout(access.consumer("ads"), clock),
            client_factory,
            PROFILES.get,
        )
        cluster = LocalCluster(clock=clock)
        cluster.submit(topo)
        cluster.run_until_idle()
        dropped = 0
        for index in range(2):
            bolt = cluster.task_instance("ctr-app", "pretreatment", index)
            dropped += bolt.dropped
        assert dropped == 3


class TestCbTopology:
    def test_profiles_built_from_stream(self, clock, tdstore, client_factory):
        metas = [
            {"item": "n1", "tags": ("sports", "football"), "category": "news",
             "publish_time": 0.0, "lifetime": None},
            {"item": "n2", "tags": ("sports", "tennis"), "category": "news",
             "publish_time": 0.0, "lifetime": None},
        ]
        actions = [UserAction("u1", "n1", "click", 10.0)]
        topo = build_cb_topology(
            "cb-app", actions, metas, clock, client_factory
        )
        cluster = LocalCluster(clock=clock)
        cluster.submit(topo)
        cluster.run_until_idle()
        client = client_factory()
        profile = client.get(StateKeys.profile("u1"))
        assert profile["sports"][0] > 0
        index = client.get(StateKeys.tag_index("sports"))
        assert index == {"n1", "n2"}
        assert client.get(StateKeys.consumed("u1")) == {"n1"}

    def test_meta_spout_ids_are_stable_across_rebuilds(
        self, client_factory, monkeypatch
    ):
        metas = [{"item": "n1", "tags": ("a",)}, {"item": "n2", "tags": ("b",)}]
        seen = []
        execute = ItemInfoBolt.execute

        def recording(bolt, tup):
            seen.append((tup["item"], tup.op_id))
            execute(bolt, tup)

        monkeypatch.setattr(ItemInfoBolt, "execute", recording)
        for __ in range(2):  # a rebuilt deployment re-emits the same ids
            clock = SimClock()
            cluster = LocalCluster(clock=clock)
            cluster.submit(
                build_cb_topology("cb-app", [], metas, clock, client_factory)
            )
            cluster.run_until_idle()
        assert sorted(seen) == [
            ("n1", "metas@0"), ("n1", "metas@0"),
            ("n2", "metas@1"), ("n2", "metas@1"),
        ]


class TestArTopology:
    def test_supports_counted(self, clock, tdstore, client_factory):
        actions = [
            UserAction("u1", "A", "click", 0.0),
            UserAction("u1", "B", "click", 10.0),
            UserAction("u2", "A", "click", 0.0),
            UserAction("u2", "B", "click", 5.0),
            UserAction("u3", "A", "click", 0.0),
        ]
        topo = build_ar_topology(
            "ar-app", actions, clock, client_factory, session_gap=100.0
        )
        cluster = LocalCluster(clock=clock)
        cluster.submit(topo)
        cluster.run_until_idle()
        client = client_factory()
        assert client.get(StateKeys.ar_item("A")) == 3.0
        assert client.get(StateKeys.ar_pair("A", "B")) == 2.0
        assert client.get(StateKeys.ar_partners("A")) == {"B"}

    @pytest.mark.parametrize(
        "parallelism, seed", [(4, 2), (4, 5), (4, 8), (2, 2), (2, 8), (2, 10)]
    )
    def test_partner_index_keeps_every_partner(self, parallelism, seed):
        # pairs (A, B) and (A, C) land on different tasks; when both
        # extended A's partner set in one wave, the last writer won
        rng = random.Random(seed)
        items = [f"i{n}" for n in range(12)]
        actions, partners = [], {}
        for user in range(20):
            session = rng.sample(items, 4)
            for k, item in enumerate(session):
                actions.append(
                    UserAction(f"u{user}", item, "click", 4.0 * user + k)
                )
                partners.setdefault(item, set()).update(set(session) - {item})
        clock, tdstore = SimClock(), TDStoreCluster(3, 16)
        cluster = LocalCluster(clock=clock)
        cluster.submit(
            build_ar_topology(
                "ar-app", actions, clock, tdstore.client, parallelism=parallelism
            )
        )
        cluster.run_until_idle()
        client = tdstore.client()
        assert {
            item: client.get(StateKeys.ar_partners(item)) for item in partners
        } == partners


class TestXmlUnitRegistry:
    CF_XML = """
    <topology name="cf-from-xml">
      <spout name="spout" class="ActionSpout"/>
      <bolts>
        <bolt name="userHistory" class="UserHistory">
          <grouping type="field">
            <fields>user</fields>
            <stream_id>user_action</stream_id>
          </grouping>
        </bolt>
        <bolt name="itemCount" class="ItemCount">
          <grouping type="field">
            <fields>item</fields>
            <stream_id>item_delta</stream_id>
            <source>userHistory</source>
          </grouping>
        </bolt>
        <bolt name="pairCount" class="PairCount">
          <grouping type="field">
            <fields>pair_a, pair_b</fields>
            <stream_id>pair_delta</stream_id>
            <source>userHistory</source>
          </grouping>
        </bolt>
        <bolt name="simList" class="SimList">
          <grouping type="field">
            <fields>item</fields>
            <stream_id>sim_update</stream_id>
            <source>pairCount</source>
          </grouping>
          <grouping type="field">
            <fields>item</fields>
            <stream_id>prune</stream_id>
            <source>pairCount</source>
          </grouping>
        </bolt>
      </bolts>
    </topology>
    """

    def test_cf_topology_from_xml_runs(self, clock, tdstore, client_factory):
        actions = [
            UserAction("u1", "A", "click", 0.0),
            UserAction("u1", "B", "click", 1.0),
            UserAction("u2", "A", "click", 2.0),
            UserAction("u2", "B", "click", 3.0),
        ]
        registry = unit_registry(clock, client_factory, actions=actions)
        topo = topology_from_xml(self.CF_XML, registry)
        cluster = LocalCluster(clock=clock)
        cluster.submit(topo)
        cluster.run_until_idle()
        client = client_factory()
        assert client.get(StateKeys.item_count("A")) == 4.0
        assert client.get(StateKeys.pair_count("A", "B")) == 4.0
        sim_list = client.get(StateKeys.sim_list("A"))
        assert sim_list["B"] == pytest.approx(1.0)
