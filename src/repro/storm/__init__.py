"""A deterministic, in-process reproduction of the Storm programming model.

TencentRec (SIGMOD 2015, Section 3.1 and Figure 1) runs on Apache Storm.
This subpackage implements the parts of Storm the paper's algorithms rely
on — spouts, bolts, stream groupings, topologies, acking, and a simulated
Nimbus/Supervisor/worker cluster — as a single-process discrete-event
system. Grouping semantics (one task owns all tuples for a key) are
preserved exactly; that is the property the paper's incremental counting
depends on.
"""

from repro.storm.tuples import StormTuple, Values
from repro.storm.streams import StreamDef, DEFAULT_STREAM
from repro.storm.grouping import (
    Grouping,
    FieldsGrouping,
    ShuffleGrouping,
    GlobalGrouping,
    AllGrouping,
)
from repro.storm.component import Spout, Bolt, OutputCollector, TopologyContext
from repro.storm.topology import TopologyBuilder, Topology
from repro.storm.cluster import LocalCluster
from repro.storm.metrics import ClusterMetrics
from repro.storm.reliability import DedupLedger, ExactlyOnceBolt
from repro.storm.xml_config import topology_from_xml

__all__ = [
    "StormTuple",
    "Values",
    "StreamDef",
    "DEFAULT_STREAM",
    "Grouping",
    "FieldsGrouping",
    "ShuffleGrouping",
    "GlobalGrouping",
    "AllGrouping",
    "Spout",
    "Bolt",
    "OutputCollector",
    "TopologyContext",
    "TopologyBuilder",
    "Topology",
    "LocalCluster",
    "ClusterMetrics",
    "DedupLedger",
    "ExactlyOnceBolt",
    "topology_from_xml",
]
