"""Signal-driven autoscaling (the paper's §7 future work, made concrete).

TencentRec names "adjust the parallelism of each component automatically
according to real-time data rates" as key future work. This module closes
the loop on top of the machinery the repo already has:

* the :class:`~repro.monitoring.SystemMonitor` supplies the signals
  (queue depth per component, shed rate, breaker states, replication
  backlog, read imbalance),
* ``LocalCluster.rebalance`` applies parallelism changes live (pending
  tuples re-route through the groupings; TDStore-backed state survives),
* :class:`~repro.elastic.migration.InstanceMigrator` expands / drains
  the TDStore pool under live traffic.

The :class:`Autoscaler` itself is a thin deterministic loop: snapshot →
policy → apply → record. All judgement lives in the pluggable policy;
the default :class:`ThresholdHysteresisPolicy` uses high/low watermarks
with sustain counts (hysteresis) and a cooldown so one noisy snapshot
never triggers a resize, and flapping between sizes is impossible by
construction. ``dry_run=True`` records every decision without applying
it — the mode an operator runs first in production.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import ClusterStateError, TDStoreError
from repro.monitoring import read_imbalance

if TYPE_CHECKING:
    from repro.elastic.migration import InstanceMigrator
    from repro.monitoring import SystemMonitor, SystemSnapshot
    from repro.storm.cluster import LocalCluster
    from repro.tdstore.cluster import TDStoreCluster

# decision actions, in the order an overloaded system escalates
ACTIONS = (
    "scale_up",        # double a component's parallelism
    "scale_down",      # halve a component's parallelism
    "expand_store",    # add a TDStore data server + rebalance instances
    "drain_store",     # migrate a TDStore server empty (shrink prep)
    "hold",            # pressure seen but sustain/cooldown not met
)

# shed rate above which every watched component counts as pressured
SHED_RATE_HIGH = 0.05
# parallelism floor of a scale_down
MIN_PARALLELISM = 1


@dataclass
class ScalingDecision:
    """One autoscaler verdict, applied or not."""

    at: float
    action: str
    target: str            # component name or "tdstore"
    reason: str            # the signal that tripped (human-readable)
    detail: dict[str, Any] = field(default_factory=dict)
    applied: bool = False

    def as_dict(self) -> dict[str, Any]:
        return {
            "at": self.at,
            "action": self.action,
            "target": self.target,
            "reason": self.reason,
            "detail": dict(self.detail),
            "applied": self.applied,
        }


@dataclass
class _Proposal:
    """What a policy asks for (before cooldown/apply bookkeeping)."""

    action: str
    target: str
    reason: str
    detail: dict[str, Any] = field(default_factory=dict)


class ThresholdHysteresisPolicy:
    """Watermark policy with sustain counts and per-target cooldown.

    Parallelism: a component whose queued tuples per task stay above
    ``queue_high_per_task`` for ``sustain_up`` consecutive snapshots is
    doubled (capped at ``max_parallelism``); below ``queue_low_per_task``
    for ``sustain_down`` snapshots it is halved (floored at
    :data:`MIN_PARALLELISM`). Shed rate above :data:`SHED_RATE_HIGH` or
    an open breaker count as pressure on every watched component — load
    shedding means the whole pipeline is saturated, not one stage. An
    absent signal (its source is not attached to the monitor) reads as
    no pressure.

    Store: replication backlog above ``backlog_high`` or read imbalance
    above ``imbalance_high``, sustained, proposes ``expand_store``.

    Cooldown: after any applied action on a target, that target is
    ignored for ``cooldown`` seconds of snapshot time — a rebalance
    needs time to show up in the signals before being judged again.
    """

    def __init__(
        self,
        queue_high_per_task: float = 32.0,
        queue_low_per_task: float = 2.0,
        backlog_high: int = 5_000,
        imbalance_high: float = 3.0,
        sustain_up: int = 2,
        sustain_down: int = 3,
        cooldown: float = 60.0,
        max_parallelism: int = 64,
        max_store_servers: int = 16,
    ):
        if sustain_up < 1 or sustain_down < 1:
            raise ValueError("sustain counts must be >= 1")
        if max_parallelism < MIN_PARALLELISM:
            raise ValueError(f"need max_parallelism >= {MIN_PARALLELISM}")
        self.queue_high_per_task = queue_high_per_task
        self.queue_low_per_task = queue_low_per_task
        self.backlog_high = backlog_high
        self.imbalance_high = imbalance_high
        self.sustain_up = sustain_up
        self.sustain_down = sustain_down
        self.cooldown = cooldown
        self.max_parallelism = max_parallelism
        self.max_store_servers = max_store_servers
        # consecutive-snapshot pressure/relief counters, per target
        self._pressure: dict[str, int] = {}
        self._relief: dict[str, int] = {}
        self._store_pressure = 0

    # -- signal classification ------------------------------------------------

    def _global_pressure(self, snap: "SystemSnapshot") -> str | None:
        """A saturation signal that is not attributable to one component."""
        shed_rate = snap.signals.get("shed_rate", 0.0)
        if shed_rate > SHED_RATE_HIGH:
            return f"shed rate {shed_rate:.1%} above {SHED_RATE_HIGH:.1%}"
        open_breakers = [
            name
            for name, state in snap.signals.get("breaker_states", {}).items()
            if state == "open"
        ]
        if open_breakers:
            return f"circuit breaker(s) open: {sorted(open_breakers)}"
        return None

    def propose(
        self,
        snap: "SystemSnapshot",
        queue_depths: dict[str, int],
        parallelism: dict[str, int],
        store_servers_up: int,
    ) -> list[_Proposal]:
        """Classify this snapshot; return the actions it justifies."""
        proposals: list[_Proposal] = []
        global_reason = self._global_pressure(snap)
        for component in sorted(parallelism):
            tasks = max(1, parallelism[component])
            per_task = queue_depths.get(component, 0) / tasks
            if per_task >= self.queue_high_per_task or (
                global_reason is not None and per_task > self.queue_low_per_task
            ):
                self._pressure[component] = (
                    self._pressure.get(component, 0) + 1
                )
                self._relief[component] = 0
                reason = (
                    f"queue depth {per_task:.1f}/task above "
                    f"{self.queue_high_per_task:.0f}"
                    if per_task >= self.queue_high_per_task
                    else global_reason
                )
                if self._pressure[component] >= self.sustain_up:
                    new = min(tasks * 2, self.max_parallelism)
                    if new > tasks:
                        proposals.append(
                            _Proposal(
                                "scale_up",
                                component,
                                reason,
                                {"from": tasks, "to": new,
                                 "per_task_depth": per_task},
                            )
                        )
                    else:
                        proposals.append(
                            _Proposal(
                                "hold",
                                component,
                                f"{reason}; already at max parallelism "
                                f"{self.max_parallelism}",
                                {"parallelism": tasks},
                            )
                        )
                else:
                    proposals.append(
                        _Proposal(
                            "hold",
                            component,
                            f"{reason}; sustaining "
                            f"({self._pressure[component]}/{self.sustain_up})",
                            {"per_task_depth": per_task},
                        )
                    )
            elif per_task <= self.queue_low_per_task and global_reason is None:
                self._relief[component] = self._relief.get(component, 0) + 1
                self._pressure[component] = 0
                if (
                    self._relief[component] >= self.sustain_down
                    and tasks > MIN_PARALLELISM
                ):
                    new = max(tasks // 2, MIN_PARALLELISM)
                    proposals.append(
                        _Proposal(
                            "scale_down",
                            component,
                            f"queue depth {per_task:.1f}/task below "
                            f"{self.queue_low_per_task:.0f} for "
                            f"{self._relief[component]} snapshot(s)",
                            {"from": tasks, "to": new,
                             "per_task_depth": per_task},
                        )
                    )
            else:
                # between the watermarks: decay both counters
                self._pressure[component] = 0
                self._relief[component] = 0
        # store expansion: backlog or imbalance sustained
        imbalance = read_imbalance(snap.signals.get("tdstore_reads", {}))
        backlog = snap.signals.get("replication_backlog", 0)
        store_reason = None
        if backlog > self.backlog_high:
            store_reason = (
                f"replication backlog {backlog} above {self.backlog_high}"
            )
        elif imbalance > self.imbalance_high:
            store_reason = (
                f"read imbalance {imbalance:.1f}x above "
                f"{self.imbalance_high:.1f}x"
            )
        if store_reason is not None:
            self._store_pressure += 1
            if self._store_pressure >= self.sustain_up:
                if store_servers_up < self.max_store_servers:
                    proposals.append(
                        _Proposal(
                            "expand_store",
                            "tdstore",
                            store_reason,
                            {"servers": store_servers_up},
                        )
                    )
                else:
                    proposals.append(
                        _Proposal(
                            "hold",
                            "tdstore",
                            f"{store_reason}; already at max pool size "
                            f"{self.max_store_servers}",
                            {"servers": store_servers_up},
                        )
                    )
            else:
                proposals.append(
                    _Proposal(
                        "hold",
                        "tdstore",
                        f"{store_reason}; sustaining "
                        f"({self._store_pressure}/{self.sustain_up})",
                        {"servers": store_servers_up},
                    )
                )
        else:
            self._store_pressure = 0
        return proposals

    def reset(self, target: str):
        """Forget accumulated pressure after an applied action."""
        if target == "tdstore":
            self._store_pressure = 0
        else:
            self._pressure[target] = 0
            self._relief[target] = 0


class Autoscaler:
    """Snapshot → policy → apply loop over a running deployment.

    Parameters
    ----------
    monitor:
        Signal source. Each :meth:`evaluate` takes a fresh snapshot
        unless one is passed in.
    storm, topology, components:
        Where parallelism changes land. ``components`` whitelists the
        bolts the autoscaler may resize (never spouts — the cluster
        refuses those anyway).
    tdstore, migrator:
        Where store expansion lands. ``expand`` = ``add_data_server()``
        followed by ``migrator.rebalance()`` so the new server actually
        takes load.
    policy:
        Defaults to :class:`ThresholdHysteresisPolicy`.
    dry_run:
        Record decisions with ``applied=False`` instead of acting.
    """

    def __init__(
        self,
        monitor: "SystemMonitor",
        storm: "LocalCluster | None" = None,
        topology: str | None = None,
        components: list[str] | None = None,
        tdstore: "TDStoreCluster | None" = None,
        migrator: "InstanceMigrator | None" = None,
        policy: ThresholdHysteresisPolicy | None = None,
        dry_run: bool = False,
    ):
        self._monitor = monitor
        self._storm = storm
        self._topology = topology
        self._components = list(components) if components else []
        self._tdstore = tdstore
        self._migrator = migrator
        self.policy = policy if policy is not None else (
            ThresholdHysteresisPolicy()
        )
        self.dry_run = dry_run
        self.decisions: list[ScalingDecision] = []
        self._last_applied: dict[str, float] = {}  # target -> snapshot time
        monitor.watch("autoscaler", self)

    # -- introspection (consumed by SystemMonitor.snapshot) -------------------

    @property
    def last_action(self) -> str | None:
        for decision in reversed(self.decisions):
            if decision.action != "hold":
                return f"{decision.action}:{decision.target}"
        return None

    def decisions_applied(self) -> int:
        return sum(1 for d in self.decisions if d.applied)

    # -- the loop -------------------------------------------------------------

    def evaluate(self, snap: "SystemSnapshot | None" = None) -> list[ScalingDecision]:
        """One control iteration; returns the decisions it recorded."""
        if snap is None:
            snap = self._monitor.snapshot()
        queue_depths: dict[str, int] = {}
        parallelism: dict[str, int] = {}
        if self._storm is not None and self._topology is not None:
            depths = self._storm.queue_depths(self._topology)
            for component in self._components:
                queue_depths[component] = depths.get(component, 0)
                parallelism[component] = self._storm.parallelism_of(
                    self._topology, component
                )
        store_up = 0
        if self._tdstore is not None:
            store_up = sum(
                1 for s in self._tdstore.data_servers if s.alive
            )
        proposals = self.policy.propose(
            snap, queue_depths, parallelism, store_up
        )
        recorded: list[ScalingDecision] = []
        for proposal in proposals:
            decision = ScalingDecision(
                at=snap.timestamp,
                action=proposal.action,
                target=proposal.target,
                reason=proposal.reason,
                detail=proposal.detail,
            )
            if proposal.action != "hold" and self._in_cooldown(
                proposal.target, snap.timestamp
            ):
                decision.action = "hold"
                decision.reason = (
                    f"{proposal.reason}; in cooldown after "
                    f"{proposal.action} at "
                    f"t={self._last_applied[proposal.target]:.0f}s"
                )
            elif proposal.action != "hold" and not self.dry_run:
                decision.applied = self._apply(proposal)
                if decision.applied:
                    self._last_applied[proposal.target] = snap.timestamp
                    self.policy.reset(proposal.target)
            self.decisions.append(decision)
            recorded.append(decision)
        return recorded

    def _in_cooldown(self, target: str, now: float) -> bool:
        last = self._last_applied.get(target)
        return last is not None and (now - last) < self.policy.cooldown

    def _apply(self, proposal: _Proposal) -> bool:
        try:
            if proposal.action in ("scale_up", "scale_down"):
                if self._storm is None or self._topology is None:
                    return False
                self._storm.rebalance(
                    self._topology, proposal.target, proposal.detail["to"]
                )
                return True
            if proposal.action == "expand_store":
                if self._tdstore is None:
                    return False
                server_id = self._tdstore.add_data_server()
                proposal.detail["new_server"] = server_id
                if self._migrator is not None:
                    moves = self._migrator.rebalance()
                    proposal.detail["migrations"] = len(moves)
                return True
            if proposal.action == "drain_store":
                if self._tdstore is None:
                    return False
                moves = self._tdstore.drain_data_server(
                    proposal.detail["server_id"]
                )
                proposal.detail["migrations"] = len(moves)
                return True
        except (ClusterStateError, TDStoreError) as exc:
            # a racing failover/rebalance invalidated the plan; record,
            # don't crash the control loop
            proposal.detail["error"] = str(exc)
            return False
        return False
