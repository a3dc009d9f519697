"""Coordinated checkpoint/recovery for the TencentRec reproduction.

The paper's availability story (Sections 3.2–3.3) leans on three pieces:
TDAccess retains the raw streams on disk, TDStore replicates state, and
Storm restarts failed workers. What production systems add on top — and
what this package reproduces — is the coordination: periodic consistent
checkpoints of the whole deployment (bolt state + TDStore contents +
consumer offsets), recovery that restores the newest checkpoint and
replays the log suffix so incremental counts rebuild exactly, and a
fault-injection harness to prove it under scripted or seeded chaos.
"""

from repro.recovery.coordinator import CheckpointCoordinator
from repro.recovery.faults import (
    BROWNOUT_ERROR_EVERY,
    BROWNOUT_LATENCY,
    CONSUMER_NAME,
    FAULT_KINDS,
    LAYERS,
    Fault,
    FaultInjector,
    FaultPlan,
    Trigger,
    seeded_plan,
)
from repro.recovery.harness import RecoveryHarness
from repro.recovery.manifest import (
    MANIFEST_FORMAT_VERSION,
    CheckpointManifest,
    CheckpointStore,
)
from repro.recovery.recovery import RecoveryManager, RecoveryReport

__all__ = [
    "BROWNOUT_ERROR_EVERY",
    "BROWNOUT_LATENCY",
    "CONSUMER_NAME",
    "FAULT_KINDS",
    "LAYERS",
    "MANIFEST_FORMAT_VERSION",
    "CheckpointCoordinator",
    "CheckpointManifest",
    "CheckpointStore",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "RecoveryHarness",
    "RecoveryManager",
    "RecoveryReport",
    "Trigger",
    "seeded_plan",
]
