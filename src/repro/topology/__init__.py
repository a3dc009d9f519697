"""The TencentRec topology layer (Section 5, Figures 4, 6 and 7).

Assembles the recommendation algorithms into Storm topologies backed by
TDStore: a preprocessing layer (Pretreatment), an algorithm layer split
into data statistics (UserHistory, ItemCount, PairCount, group counts,
CTR stores) and algorithm computation (CF similarity + lists, CB
profiles, AR rules, CTR prediction), and a storage layer (Filter,
ResultStorage). Includes the production optimizations: the fine-grained
cache of Section 5.2, the combiner of Section 5.3 and the multi-hash
regrouping of Section 5.4.
"""

from repro.topology.state import CachedStore, Combiner, StateKeys
from repro.topology.spouts import ActionSpout, TDAccessSpout
from repro.topology.bolts_common import PretreatmentBolt, ResultStorageBolt, FilterBolt
from repro.topology.bolts_cf import (
    UserHistoryBolt,
    ItemCountBolt,
    PairCountBolt,
    SimListBolt,
)
from repro.topology.bolts_db import GroupCountBolt
from repro.topology.bolts_cb import ItemInfoBolt, CBProfileBolt
from repro.topology.bolts_ar import ARSessionBolt, ARCountBolt
from repro.topology.bolts_ctr import CtrStoreBolt, CtrBolt
from repro.topology.framework import (
    CFTopologyConfig,
    build_cf_topology,
    build_ctr_topology,
    unit_registry,
)

__all__ = [
    "CachedStore",
    "Combiner",
    "StateKeys",
    "ActionSpout",
    "TDAccessSpout",
    "PretreatmentBolt",
    "ResultStorageBolt",
    "FilterBolt",
    "UserHistoryBolt",
    "ItemCountBolt",
    "PairCountBolt",
    "SimListBolt",
    "GroupCountBolt",
    "ItemInfoBolt",
    "CBProfileBolt",
    "ARSessionBolt",
    "ARCountBolt",
    "CtrStoreBolt",
    "CtrBolt",
    "CFTopologyConfig",
    "build_cf_topology",
    "build_ctr_topology",
    "unit_registry",
]
