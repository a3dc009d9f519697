"""Topology assembly for TencentRec applications (Figures 6 and 7).

``build_cf_topology`` wires the full multi-layer CF pipeline (with the
demographic side-channel); ``build_ctr_topology`` reproduces the
situational-CTR example of Figure 7. ``unit_registry`` exposes the same
units by their class names for the XML configuration path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from repro.algorithms.ratings import ActionWeights, DEFAULT_ACTION_WEIGHTS
from repro.storm.grouping import FieldsGrouping, ShuffleGrouping
from repro.storm.topology import Topology, TopologyBuilder
from repro.tdstore.client import TDStoreClient
from repro.topology.bolts_ar import ARCountBolt, ARSessionBolt
from repro.topology.bolts_cb import CBProfileBolt, ItemInfoBolt
from repro.topology.bolts_cf import (
    ItemCountBolt,
    PairCountBolt,
    SimListBolt,
    UserHistoryBolt,
)
from repro.topology.bolts_common import PretreatmentBolt, ResultStorageBolt
from repro.topology.bolts_ctr import CtrBolt, CtrStoreBolt
from repro.topology.bolts_db import GroupCountBolt
from repro.topology.spouts import ActionSpout, TDAccessSpout
from repro.types import UserAction, UserProfile
from repro.utils.clock import SECONDS_PER_HOUR, SimClock

if TYPE_CHECKING:
    from repro.retrieval.bolts import RetrievalConfig

ClientFactory = Callable[[], TDStoreClient]
ProfileLookup = Callable[[str], "UserProfile | None"]

CTR_ACTION_WEIGHTS = ActionWeights.of(impression=0.1, click=2.0)


@dataclass
class CFTopologyConfig:
    """Tuning knobs for the CF topology.

    ``parallelism`` applies to the keyed layers; correctness never
    depends on it (fields grouping pins each key to one task), only
    throughput does — the paper's scalability claim, which the
    throughput bench exercises by sweeping this value.

    ``retrieval`` rides the embedding/VQ pipeline alongside the CF
    layers off the same ``user_action`` stream; ``None`` (the default)
    builds the classic CF-only topology.
    """

    weights: ActionWeights = DEFAULT_ACTION_WEIGHTS
    k: int = 20
    linked_time: float = 6 * SECONDS_PER_HOUR
    recent_k: int = 10
    pruning_delta: float | None = None
    use_combiner: bool = False
    parallelism: int = 2
    group_of: Callable[[str], str] | None = None
    retrieval: "RetrievalConfig | None" = None


def build_cf_topology(
    name: str,
    actions: Iterable[UserAction],
    clock: SimClock,
    client_factory: ClientFactory,
    config: CFTopologyConfig | None = None,
) -> Topology:
    """The multi-layer item-based CF topology of Figure 4 / Figure 6."""
    cfg = config if config is not None else CFTopologyConfig()
    builder = TopologyBuilder(name)
    builder.add_spout("spout", lambda: ActionSpout(actions, clock))
    builder.add_bolt(
        "userHistory",
        lambda: UserHistoryBolt(
            client_factory,
            weights=cfg.weights,
            linked_time=cfg.linked_time,
            recent_k=cfg.recent_k,
            group_of=cfg.group_of,
        ),
        parallelism=cfg.parallelism,
    ).grouping("spout", FieldsGrouping(["user"]), "user_action")
    # registration order matters for exactness: itemCount tasks drain
    # before pairCount tasks each round, so Eq 5 sees fresh itemCounts
    builder.add_bolt(
        "itemCount",
        lambda: ItemCountBolt(client_factory, use_combiner=cfg.use_combiner),
        parallelism=cfg.parallelism,
    ).grouping("userHistory", FieldsGrouping(["item"]), "item_delta")
    builder.add_bolt(
        "pairCount",
        lambda: PairCountBolt(client_factory, pruning_delta=cfg.pruning_delta),
        parallelism=cfg.parallelism,
    ).grouping(
        "userHistory", FieldsGrouping(["pair_a", "pair_b"]), "pair_delta"
    )
    builder.add_bolt(
        "simList",
        lambda: SimListBolt(client_factory, k=cfg.k),
        parallelism=cfg.parallelism,
    ).grouping("pairCount", FieldsGrouping(["item"]), "sim_update").grouping(
        "pairCount", FieldsGrouping(["item"]), "prune"
    )
    if cfg.group_of is not None:
        builder.add_bolt(
            "groupCount",
            lambda: GroupCountBolt(client_factory),
            parallelism=cfg.parallelism,
        ).grouping("userHistory", FieldsGrouping(["group"]), "group_delta")
    if cfg.retrieval is not None:
        add_retrieval_bolts(builder, "spout", client_factory, cfg.retrieval)
    return builder.build()


def add_retrieval_bolts(
    builder: TopologyBuilder,
    action_source: str,
    client_factory: ClientFactory,
    config: "RetrievalConfig | None" = None,
    weights: ActionWeights = DEFAULT_ACTION_WEIGHTS,
):
    """Attach the embedding/VQ pipeline to an existing builder.

    ``action_source`` is any component emitting a ``user_action``
    stream (the spout here, the pretreatment bolt in the harness
    factories). Registered after the CF layers so adding retrieval
    never shifts their drain order — existing CF state stays
    byte-identical with retrieval on or off.
    """
    # imported here: retrieval sits above the topology state layer, so
    # a module-level import would be circular through the package root
    from repro.retrieval.bolts import (
        EmbeddingPairBolt,
        EmbeddingUpdateBolt,
        RetrievalConfig,
        VQAssignBolt,
    )

    rcfg = config if config is not None else RetrievalConfig()
    builder.add_bolt(
        "embPair",
        lambda: EmbeddingPairBolt(
            client_factory,
            weights=weights,
            co_window=rcfg.co_window,
            co_k=rcfg.co_k,
        ),
        parallelism=rcfg.parallelism,
    ).grouping(action_source, FieldsGrouping(["user"]), "user_action")
    builder.add_bolt(
        "embUpdate",
        lambda: EmbeddingUpdateBolt(client_factory, config=rcfg.embedding),
        parallelism=rcfg.parallelism,
    ).grouping("embPair", FieldsGrouping(["item"]), "emb_pair")
    # parallelism 1: the VQ index's single-writer contract
    builder.add_bolt(
        "vqAssign",
        lambda: VQAssignBolt(client_factory, config=rcfg.vq),
        parallelism=1,
    ).grouping("embUpdate", FieldsGrouping(["item"]), "emb_row")
    return builder


def build_ctr_topology(
    name: str,
    raw_source: Callable[[], TDAccessSpout | ActionSpout],
    client_factory: ClientFactory,
    profiles: ProfileLookup,
    parallelism: int = 2,
    session_seconds: float | None = None,
    window_sessions: int | None = None,
) -> Topology:
    """The Figure 7 topology: spout -> pretreatment -> ctrStore -> ctrBolt
    -> resultStorage.

    With ``session_seconds``/``window_sessions``, CTR values are computed
    over a sliding window (the introduction's last-ten-seconds query);
    otherwise over the topic's lifetime.
    """
    builder = TopologyBuilder(name)
    builder.add_spout("spout", raw_source)
    builder.add_bolt(
        "pretreatment",
        lambda: PretreatmentBolt(weights=CTR_ACTION_WEIGHTS),
        parallelism=parallelism,
    ).grouping("spout", ShuffleGrouping(), "raw_action")
    builder.add_bolt(
        "ctrStore",
        lambda: CtrStoreBolt(
            client_factory, profiles,
            session_seconds=session_seconds,
            window_sessions=window_sessions,
        ),
        parallelism=parallelism,
    ).grouping("pretreatment", FieldsGrouping(["item"]), "user_action")
    builder.add_bolt(
        "ctrBolt",
        lambda: CtrBolt(client_factory, window_sessions=window_sessions),
        parallelism=parallelism,
    ).grouping("ctrStore", FieldsGrouping(["item"]), "ctr_update")
    builder.add_bolt(
        "resultStorage",
        lambda: ResultStorageBolt(
            client_factory,
            kind="ctr",
            key_fields=("item", "situation"),
            value_fields=("ctr",),
        ),
        parallelism=1,
    ).grouping("ctrBolt", FieldsGrouping(["item"]), "ctr_value")
    return builder.build()


def build_cb_topology(
    name: str,
    actions: Iterable[UserAction],
    item_metas: Iterable[dict],
    clock: SimClock,
    client_factory: ClientFactory,
    weights: ActionWeights = DEFAULT_ACTION_WEIGHTS,
    half_life: float = 4 * 3600.0,
    parallelism: int = 2,
) -> Topology:
    """Item-info ingestion plus CB profile maintenance."""
    from repro.storm.component import Spout

    metas = list(item_metas)

    class MetaSpout(Spout):
        def __init__(self):
            self._cursor = 0

        def declare_outputs(self, declarer):
            declarer.declare(("item", "meta"), "item_meta")

        def next_tuple(self) -> bool:
            if self._cursor >= len(metas):
                return False
            meta = metas[self._cursor]
            self.collector.emit(
                (meta["item"], meta),
                stream_id="item_meta",
                op_id=f"metas@{self._cursor}",
            )
            self._cursor += 1
            return True

    builder = TopologyBuilder(name)
    builder.add_spout("metaSpout", MetaSpout)
    builder.add_spout("spout", lambda: ActionSpout(actions, clock))
    builder.add_bolt(
        "itemInfo", lambda: ItemInfoBolt(client_factory), parallelism=parallelism
    ).grouping("metaSpout", FieldsGrouping(["item"]), "item_meta")
    builder.add_bolt(
        "cbBolt",
        lambda: CBProfileBolt(client_factory, weights=weights, half_life=half_life),
        parallelism=parallelism,
    ).grouping("spout", FieldsGrouping(["user"]), "user_action")
    return builder.build()


def build_ar_topology(
    name: str,
    actions: Iterable[UserAction],
    clock: SimClock,
    client_factory: ClientFactory,
    session_gap: float = 1800.0,
    parallelism: int = 2,
) -> Topology:
    """Session mining into AR support counters."""
    builder = TopologyBuilder(name)
    builder.add_spout("spout", lambda: ActionSpout(actions, clock))
    builder.add_bolt(
        "arSession",
        lambda: ARSessionBolt(session_gap=session_gap),
        parallelism=parallelism,
    ).grouping("spout", FieldsGrouping(["user"]), "user_action")
    builder.add_bolt(
        "arCount", lambda: ARCountBolt(client_factory), parallelism=parallelism
    ).grouping("arSession", FieldsGrouping(["item"]), "ar_item").grouping(
        "arSession", FieldsGrouping(["pair_a", "pair_b"]), "ar_pair"
    ).grouping("arSession", FieldsGrouping(["item"]), "ar_partner")
    return builder.build()


def unit_registry(
    clock: SimClock,
    client_factory: ClientFactory,
    actions: Iterable[UserAction] = (),
    profiles: ProfileLookup = lambda user: None,
    config: CFTopologyConfig | None = None,
) -> dict[str, Callable[[], object]]:
    """Component classes by name, for the XML topology path (Figure 7)."""
    cfg = config if config is not None else CFTopologyConfig()
    return {
        "ActionSpout": lambda: ActionSpout(actions, clock),
        "Pretreatment": lambda: PretreatmentBolt(cfg.weights),
        "UserHistory": lambda: UserHistoryBolt(
            client_factory,
            weights=cfg.weights,
            linked_time=cfg.linked_time,
            recent_k=cfg.recent_k,
            group_of=cfg.group_of,
        ),
        "ItemCount": lambda: ItemCountBolt(
            client_factory, use_combiner=cfg.use_combiner
        ),
        "PairCount": lambda: PairCountBolt(
            client_factory, pruning_delta=cfg.pruning_delta
        ),
        "SimList": lambda: SimListBolt(client_factory, k=cfg.k),
        "GroupCount": lambda: GroupCountBolt(client_factory),
        "ItemInfo": lambda: ItemInfoBolt(client_factory),
        "CBBolt": lambda: CBProfileBolt(client_factory, weights=cfg.weights),
        "ARSession": lambda: ARSessionBolt(),
        "ARCount": lambda: ARCountBolt(client_factory),
        "CtrStore": lambda: CtrStoreBolt(client_factory, profiles),
        "CtrBolt": lambda: CtrBolt(client_factory),
        "EmbeddingPair": lambda: _retrieval().EmbeddingPairBolt(
            client_factory, weights=cfg.weights
        ),
        "EmbeddingUpdate": lambda: _retrieval().EmbeddingUpdateBolt(
            client_factory
        ),
        "VQAssign": lambda: _retrieval().VQAssignBolt(client_factory),
    }


def _retrieval():
    """Late import of the retrieval bolts (see add_retrieval_bolts)."""
    import repro.retrieval.bolts as bolts

    return bolts
