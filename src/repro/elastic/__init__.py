"""Elastic scaling (repro.elastic).

TencentRec's TDStore hashes keys onto data instances behind a
config-server route table (§3.3), and the paper names automatic
parallelism adjustment as its key future work (§7). This package adds
the two halves of that story on top of the existing route-epoch,
put_once, and monitoring machinery:

* :mod:`repro.elastic.migration` — live instance migration: move a data
  instance to a new host via snapshot-copy → dual-write catch-up →
  epoch-bumped cutover, preserving op journals and versions so
  exactly-once semantics survive the move. :class:`InstanceMigrator`
  drives single moves, load-balancing rebalances after cluster
  expansion, and whole-server drains.
* :mod:`repro.elastic.autoscaler` — a signal-driven
  :class:`Autoscaler` reading :class:`~repro.monitoring.SystemMonitor`
  snapshots (queue depth, shed rate, breaker state, replication
  backlog) and issuing ``LocalCluster.rebalance`` and TDStore
  expansion/drain decisions through a pluggable policy
  (:class:`ThresholdHysteresisPolicy`), with a dry-run mode.
"""

from repro.elastic.migration import (
    InstanceMigrator,
    Migration,
    MigrationRecord,
)
from repro.elastic.autoscaler import (
    Autoscaler,
    ScalingDecision,
    ThresholdHysteresisPolicy,
)

__all__ = [
    "InstanceMigrator",
    "Migration",
    "MigrationRecord",
    "Autoscaler",
    "ScalingDecision",
    "ThresholdHysteresisPolicy",
]
