"""System monitoring (the "Monitor" box of Figure 9).

Aggregates health and load signals from every layer — TDAccess consumer
lag and server liveness, TDStore read/write balance and replication
backlog, Storm task metrics — into one snapshot, and evaluates alert
rules against it. The deployment section's operational story (hundreds
of machines, failures are routine) is only credible with this kind of
overview.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Callable

from repro.storm.cluster import LocalCluster
from repro.tdaccess.cluster import TDAccessCluster
from repro.tdaccess.consumer import Consumer
from repro.tdstore.cluster import TDStoreCluster

if TYPE_CHECKING:
    from repro.elastic.autoscaler import Autoscaler
    from repro.engine.front_end import RecommenderFrontEnd
    from repro.recovery.coordinator import CheckpointCoordinator
    from repro.recovery.recovery import RecoveryManager
    from repro.resilience.breaker import CircuitBreaker
    from repro.resilience.shedder import LoadShedder
    from repro.serving.layer import ServingLayer


@dataclass
class Alert:
    """One fired alert rule."""

    severity: str  # "warning" | "critical"
    component: str
    message: str


# bump when a snapshot field is added/renamed; from_dict refuses other
# versions rather than silently dropping signals
SNAPSHOT_SCHEMA_VERSION = 4


@dataclass
class SystemSnapshot:
    """Point-in-time view of the whole deployment."""

    timestamp: float
    tdaccess_servers_up: int = 0
    tdaccess_servers_total: int = 0
    consumer_lag: dict[str, int] = field(default_factory=dict)
    tdstore_servers_up: int = 0
    tdstore_servers_total: int = 0
    tdstore_reads: dict[int, int] = field(default_factory=dict)
    tdstore_writes: dict[int, int] = field(default_factory=dict)
    replication_backlog: int = 0
    topology_executed: dict[str, int] = field(default_factory=dict)
    topology_restarts: dict[str, int] = field(default_factory=dict)
    checkpoints_taken: int = 0
    checkpoint_age: float | None = None
    recoveries: int = 0
    recovery_in_progress: bool = False
    last_recovery_duration: float | None = None
    # resilience layer
    breaker_states: dict[str, str] = field(default_factory=dict)
    breaker_rejections: dict[str, int] = field(default_factory=dict)
    shed_counts: dict[str, int] = field(default_factory=dict)
    shed_rate: float = 0.0
    serving_rungs: dict[str, int] = field(default_factory=dict)
    queries_shed: int = 0
    degraded_tdstore_servers: list[int] = field(default_factory=list)
    degraded_tdaccess_servers: list[int] = field(default_factory=list)
    # exactly-once layer: per "task" (e.g. "itemCount[0]") ledger stats
    ledger_entries: dict[str, int] = field(default_factory=dict)
    dedup_hits: dict[str, int] = field(default_factory=dict)
    ledgers_over_bound: list[str] = field(default_factory=list)
    # drops decided solely by the ledger watermark: a late *first*
    # delivery below the watermark is lost indistinguishably from a
    # replay, so these are tracked apart from ordinary dedup hits
    watermark_rejections: dict[str, int] = field(default_factory=dict)
    # over-acked tuple trees absorbed per topology (possible double-ack bug)
    acker_anomalies: dict[str, int] = field(default_factory=dict)
    # op-journal ids trimmed out across the TDStore pool: a rewind deep
    # enough to re-deliver one would double-apply
    journal_evictions: int = 0
    # serving layer: cached/batched query pipeline
    serving_tiers: dict[str, int] = field(default_factory=dict)
    serving_stale_serves: int = 0
    result_cache_hit_rate: float = 0.0
    result_cache_invalidations: int = 0
    result_cache_evictions: int = 0
    coalescer_mean_batch: float = 0.0
    store_batch_ops: int = 0
    store_hedged_reads: int = 0
    store_degraded_keys: int = 0
    # elastic layer: live migrations + autoscaler
    topology_pending: dict[str, int] = field(default_factory=dict)
    route_epoch: int = 0
    migrations_completed: int = 0
    migrations_aborted: int = 0
    migrations_in_flight: int = 0
    autoscaler_decisions: int = 0
    autoscaler_applied: int = 0
    autoscaler_last_action: str | None = None
    # process substrate: supervisor robustness counters (forced kills of
    # hung children, respawns after crashes, consecutive heartbeat
    # misses per child) — zero/empty on the simulator
    supervisor_kills: int = 0
    supervisor_respawns: int = 0
    heartbeat_miss_streaks: dict[str, int] = field(default_factory=dict)
    # anti-entropy scrub (repro.tdstore.scrub): accumulated counters
    # across every pass on the watched facade. Divergence and silent
    # corruption alert on their delta — each is state the checksummed
    # WAL/RPC paths could not have caught in flight.
    scrub_passes: int = 0
    scrub_instances_scanned: int = 0
    scrub_divergent_buckets: int = 0
    scrub_keys_repaired: int = 0
    scrub_keys_deleted: int = 0
    scrub_corruptions_detected: int = 0
    # retrieval (schema v4): streaming-VQ index structure and churn.
    # Stats counters are journal-exact (chaos replays do not inflate
    # them); p99 is recomputed from the live posting lists each
    # snapshot. Cold fallbacks count vq queries the front end answered
    # from CF inside the live rung.
    vq_centroids: int = 0
    vq_indexed_items: int = 0
    vq_reassignments: int = 0
    vq_splits: int = 0
    vq_merges: int = 0
    vq_posting_p99: int = 0
    retrieval_cold_fallbacks: int = 0

    # dict-valued fields keyed by server id; JSON forces str keys, so
    # to_dict/from_dict convert explicitly instead of relying on json
    _INT_KEYED = ("tdstore_reads", "tdstore_writes")

    def to_dict(self) -> dict:
        """JSON-safe form, e.g. for shipping snapshots across processes
        or persisting monitoring history."""
        out: dict = {"schema_version": SNAPSHOT_SCHEMA_VERSION}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name in self._INT_KEYED:
                value = {str(k): v for k, v in value.items()}
            elif isinstance(value, dict):
                value = dict(value)
            elif isinstance(value, list):
                value = list(value)
            out[spec.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SystemSnapshot":
        version = data.get("schema_version")
        if version != SNAPSHOT_SCHEMA_VERSION:
            raise ValueError(
                f"snapshot schema version {version!r} is not "
                f"{SNAPSHOT_SCHEMA_VERSION}; refusing a lossy decode"
            )
        known = {spec.name for spec in fields(cls)}
        unknown = sorted(set(data) - known - {"schema_version"})
        if unknown:
            raise ValueError(
                f"snapshot carries unknown field(s) {unknown}; schema "
                "version was not bumped with the field change"
            )
        kwargs = {}
        for spec in fields(cls):
            if spec.name not in data:
                continue
            value = data[spec.name]
            if spec.name in cls._INT_KEYED:
                value = {int(k): v for k, v in value.items()}
            kwargs[spec.name] = value
        return cls(**kwargs)

    def total_dedup_hits(self) -> int:
        """Replayed tuples suppressed so far — each one is a counter
        corruption that the dedup ledger averted."""
        return sum(self.dedup_hits.values())

    def total_watermark_rejections(self) -> int:
        return sum(self.watermark_rejections.values())

    def read_imbalance(self) -> float:
        """Max/mean read ratio across TDStore servers (1.0 = perfectly
        even; the fine-grained backup of §3.3 should keep this low)."""
        values = [v for v in self.tdstore_reads.values() if v >= 0]
        total = sum(values)
        if not values or total == 0:
            return 1.0
        mean = total / len(values)
        return max(values) / mean


class SystemMonitor:
    """Collects snapshots and evaluates alert rules."""

    def __init__(
        self,
        clock_now: Callable[[], float],
        tdaccess: TDAccessCluster | None = None,
        tdstore: TDStoreCluster | None = None,
        storm: LocalCluster | None = None,
        coordinator: "CheckpointCoordinator | None" = None,
        recovery: "RecoveryManager | None" = None,
        max_consumer_lag: int = 10_000,
        max_replication_backlog: int = 10_000,
        max_read_imbalance: float = 3.0,
        max_checkpoint_age: float | None = None,
        max_heartbeat_misses: int = 3,
        max_posting_p99: int = 10_000,
        max_reassignment_burst: int = 1_000,
    ):
        self._now = clock_now
        self._tdaccess = tdaccess
        self._tdstore = tdstore
        self._storm = storm
        self._coordinator = coordinator
        self._recovery = recovery
        self._consumers: dict[str, Consumer] = {}
        self._breakers: dict[str, "CircuitBreaker"] = {}
        self._shedder: "LoadShedder | None" = None
        self._front_end: "RecommenderFrontEnd | None" = None
        self._serving: "ServingLayer | None" = None
        self._autoscaler: "Autoscaler | None" = None
        self._supervisor = None
        self.max_consumer_lag = max_consumer_lag
        self.max_replication_backlog = max_replication_backlog
        self.max_read_imbalance = max_read_imbalance
        self.max_checkpoint_age = max_checkpoint_age
        self.max_heartbeat_misses = max_heartbeat_misses
        self.max_posting_p99 = max_posting_p99
        self.max_reassignment_burst = max_reassignment_burst
        self._retrieval_probe = None
        self.history: list[SystemSnapshot] = []

    def watch_consumer(self, name: str, consumer: Consumer):
        self._consumers[name] = consumer

    def watch_breaker(self, name: str, breaker: "CircuitBreaker"):
        self._breakers[name] = breaker

    def watch_shedder(self, shedder: "LoadShedder"):
        self._shedder = shedder

    def watch_front_end(self, front_end: "RecommenderFrontEnd"):
        self._front_end = front_end

    def watch_serving(self, serving: "ServingLayer"):
        self._serving = serving

    def watch_retrieval(self, probe):
        """Surface streaming-VQ index health as monitoring signals.

        ``probe`` is anything with a ``stats()`` returning the
        :class:`~repro.retrieval.VQIndexProbe` shape (centroids,
        indexed_items, reassignments, splits, merges, posting_p99).
        """
        self._retrieval_probe = probe

    def watch_autoscaler(self, autoscaler: "Autoscaler"):
        """Surface the autoscaler's decisions as monitoring signals.

        The autoscaler registers itself at construction, closing the
        loop: its inputs are snapshots, and its outputs show up in the
        next snapshot (and alert on their delta).
        """
        self._autoscaler = autoscaler

    def watch_supervisor(self, supervisor):
        """Surface a :class:`~repro.runtime.supervisor.ProcessSupervisor`'s
        robustness counters — forced kills of hung children, respawns,
        heartbeat-miss streaks — as monitoring signals. Only meaningful
        on the process substrate; any object with ``robustness_stats()``
        qualifies."""
        self._supervisor = supervisor

    def watch_recovery(
        self,
        coordinator: "CheckpointCoordinator | None" = None,
        recovery: "RecoveryManager | None" = None,
    ):
        """(Re)wire the checkpoint/recovery signal sources; recovery
        rebuilds the coordinator, so the monitor must be repointable."""
        if coordinator is not None:
            self._coordinator = coordinator
        if recovery is not None:
            self._recovery = recovery

    # -- collection ---------------------------------------------------------

    def snapshot(self) -> SystemSnapshot:
        snap = SystemSnapshot(timestamp=self._now())
        if self._tdaccess is not None:
            servers = self._tdaccess.data_servers
            snap.tdaccess_servers_total = len(servers)
            snap.tdaccess_servers_up = sum(1 for s in servers if s.alive)
        for name, consumer in self._consumers.items():
            snap.consumer_lag[name] = consumer.lag()
        if self._tdstore is not None:
            servers = self._tdstore.data_servers
            snap.tdstore_servers_total = len(servers)
            snap.tdstore_servers_up = sum(1 for s in servers if s.alive)
            snap.tdstore_reads = self._tdstore.read_stats()
            snap.tdstore_writes = self._tdstore.write_stats()
            snap.replication_backlog = sum(
                s.pending_syncs() for s in servers if s.alive
            )
            snap.journal_evictions = self._tdstore.journal_evictions()
            if hasattr(self._tdstore, "migration_stats"):
                stats = self._tdstore.migration_stats()
                snap.route_epoch = stats["route_epoch"]
                snap.migrations_completed = stats["completed"]
                snap.migrations_aborted = stats["aborted"]
                snap.migrations_in_flight = len(stats["in_flight"])
            if hasattr(self._tdstore, "scrub_stats"):
                stats = self._tdstore.scrub_stats()
                snap.scrub_passes = stats["scrub_passes"]
                snap.scrub_instances_scanned = stats["instances_scanned"]
                snap.scrub_divergent_buckets = stats["divergent_buckets"]
                snap.scrub_keys_repaired = stats["keys_repaired"]
                snap.scrub_keys_deleted = stats["keys_deleted"]
                snap.scrub_corruptions_detected = stats[
                    "corruptions_detected"
                ]
        if self._storm is not None:
            for name, run in self._storm._running.items():
                snap.topology_pending[name] = run.pending_tuples()
                snap.topology_executed[name] = run.metrics.total_executed()
                snap.topology_restarts[name] = run.metrics.task_restarts
                snap.acker_anomalies[name] = run.acker.anomalies
                for task, stats in self._storm.exactly_once_stats(name).items():
                    snap.ledger_entries[task] = stats["entries"]
                    snap.dedup_hits[task] = stats["dedup_hits"]
                    snap.watermark_rejections[task] = stats.get(
                        "watermark_rejections", 0
                    )
                    if not stats["within_bound"]:
                        snap.ledgers_over_bound.append(task)
        if self._coordinator is not None:
            snap.checkpoints_taken = self._coordinator.checkpoints_taken
            snap.checkpoint_age = self._coordinator.checkpoint_age(
                snap.timestamp
            )
        if self._recovery is not None:
            snap.recoveries = self._recovery.recoveries
            snap.recovery_in_progress = self._recovery.in_progress
            snap.last_recovery_duration = self._recovery.last_recovery_duration
        for name, breaker in self._breakers.items():
            snap.breaker_states[name] = breaker.state
            snap.breaker_rejections[name] = breaker.rejections
        if self._shedder is not None:
            snap.shed_counts = dict(self._shedder.shed)
            snap.shed_rate = self._shedder.shed_rate()
        if self._front_end is not None:
            snap.serving_rungs = dict(self._front_end.log.rungs)
            snap.queries_shed = self._front_end.log.shed
            snap.retrieval_cold_fallbacks = self._front_end.log.vq_fallbacks
        if self._retrieval_probe is not None:
            stats = self._retrieval_probe.stats()
            snap.vq_centroids = stats["centroids"]
            snap.vq_indexed_items = stats["indexed_items"]
            snap.vq_reassignments = stats["reassignments"]
            snap.vq_splits = stats["splits"]
            snap.vq_merges = stats["merges"]
            snap.vq_posting_p99 = stats["posting_p99"]
        if self._serving is not None:
            stats = self._serving.stats()
            snap.serving_tiers = dict(stats["tier_serves"])
            snap.serving_stale_serves = stats["stale_serves"]
            snap.result_cache_hit_rate = self._serving.result_cache.hit_rate()
            snap.result_cache_invalidations = stats["result_cache"][
                "invalidations"
            ]
            snap.result_cache_evictions = stats["result_cache"]["evictions"]
            snap.coalescer_mean_batch = self._serving.coalescer.mean_batch_size()
            snap.store_batch_ops = stats["batch_ops"]
            snap.store_hedged_reads = stats["hedged_reads"]
            snap.store_degraded_keys = stats["degraded_keys"]
        if self._autoscaler is not None:
            snap.autoscaler_decisions = len(self._autoscaler.decisions)
            snap.autoscaler_applied = self._autoscaler.decisions_applied()
            snap.autoscaler_last_action = self._autoscaler.last_action
        if self._supervisor is not None:
            stats = self._supervisor.robustness_stats()
            snap.supervisor_kills = stats["kills"]
            snap.supervisor_respawns = stats["respawns"]
            snap.heartbeat_miss_streaks = dict(
                stats["heartbeat_miss_streaks"]
            )
        if self._tdstore is not None and hasattr(
            self._tdstore, "degraded_servers"
        ):
            snap.degraded_tdstore_servers = self._tdstore.degraded_servers()
        if self._tdaccess is not None and hasattr(
            self._tdaccess, "degraded_servers"
        ):
            snap.degraded_tdaccess_servers = self._tdaccess.degraded_servers()
        self.history.append(snap)
        return snap

    # -- alerting -------------------------------------------------------------

    def evaluate(self, snap: SystemSnapshot | None = None) -> list[Alert]:
        if snap is None:
            snap = self.snapshot()
        alerts: list[Alert] = []
        if snap.tdaccess_servers_up < snap.tdaccess_servers_total:
            down = snap.tdaccess_servers_total - snap.tdaccess_servers_up
            alerts.append(
                Alert("critical", "tdaccess", f"{down} data server(s) down")
            )
        for name, lag in snap.consumer_lag.items():
            if lag > self.max_consumer_lag:
                alerts.append(
                    Alert(
                        "warning", "tdaccess",
                        f"consumer {name!r} lag {lag} exceeds "
                        f"{self.max_consumer_lag}",
                    )
                )
        if snap.tdstore_servers_up < snap.tdstore_servers_total:
            down = snap.tdstore_servers_total - snap.tdstore_servers_up
            alerts.append(
                Alert("critical", "tdstore", f"{down} data server(s) down")
            )
        if snap.replication_backlog > self.max_replication_backlog:
            alerts.append(
                Alert(
                    "warning", "tdstore",
                    f"replication backlog {snap.replication_backlog} "
                    f"exceeds {self.max_replication_backlog}",
                )
            )
        imbalance = snap.read_imbalance()
        if imbalance > self.max_read_imbalance:
            alerts.append(
                Alert(
                    "warning", "tdstore",
                    f"read imbalance {imbalance:.1f}x exceeds "
                    f"{self.max_read_imbalance:.1f}x",
                )
            )
        if self.max_checkpoint_age is not None and self._coordinator is not None:
            if snap.checkpoint_age is None:
                if snap.timestamp > self.max_checkpoint_age:
                    alerts.append(
                        Alert(
                            "warning", "recovery",
                            "no checkpoint has ever been taken",
                        )
                    )
            elif snap.checkpoint_age > self.max_checkpoint_age:
                alerts.append(
                    Alert(
                        "warning", "recovery",
                        f"checkpoint age {snap.checkpoint_age:.0f}s exceeds "
                        f"{self.max_checkpoint_age:.0f}s",
                    )
                )
        if snap.recovery_in_progress:
            alerts.append(
                Alert(
                    "warning", "recovery",
                    "recovery replay in progress: serving degraded",
                )
            )
        for name, restarts in snap.topology_restarts.items():
            previous = self._previous_restarts(name)
            if restarts > previous:
                alerts.append(
                    Alert(
                        "warning", "storm",
                        f"topology {name!r} had "
                        f"{restarts - previous} task restart(s)",
                    )
                )
        for task in snap.ledgers_over_bound:
            alerts.append(
                Alert(
                    "critical", "storm",
                    f"dedup ledger of {task} exceeds its watermark bound: "
                    "memory no longer O(in-flight)",
                )
            )
        dedup_delta = snap.total_dedup_hits() - self._previous_dedup_hits()
        if dedup_delta > 0:
            alerts.append(
                Alert(
                    "warning", "storm",
                    f"{dedup_delta} replayed tuple(s) suppressed since last "
                    "snapshot (counter corruption averted; check source "
                    "replays)",
                )
            )
        watermark_delta = (
            snap.total_watermark_rejections()
            - self._previous_watermark_rejections()
        )
        if watermark_delta > 0:
            alerts.append(
                Alert(
                    "warning", "storm",
                    f"{watermark_delta} delivery(ies) dropped below the "
                    "ledger watermark since last snapshot (a late first "
                    "delivery would be lost the same way; check "
                    "retain_depth against stream skew)",
                )
            )
        for name, anomalies in snap.acker_anomalies.items():
            previous = self._previous_acker_anomalies(name)
            if anomalies > previous:
                alerts.append(
                    Alert(
                        "warning", "storm",
                        f"topology {name!r} absorbed "
                        f"{anomalies - previous} over-acked tuple tree(s) "
                        "(possible double-ack bug in a bolt)",
                    )
                )
        eviction_delta = snap.journal_evictions - self._previous_field(
            "journal_evictions"
        )
        if eviction_delta > 0:
            alerts.append(
                Alert(
                    "warning", "tdstore",
                    f"{eviction_delta} op-journal id(s) trimmed since last "
                    "snapshot; a rewind re-delivering them would "
                    "double-apply (check JOURNAL_LIMIT against per-key op "
                    "rates)",
                )
            )
        divergence_delta = snap.scrub_divergent_buckets - self._previous_field(
            "scrub_divergent_buckets"
        )
        if divergence_delta > 0:
            alerts.append(
                Alert(
                    "warning", "tdstore",
                    f"scrub found and repaired {divergence_delta} divergent "
                    "replica bucket(s) since last snapshot (replication "
                    "drift; read-repair converged the pair)",
                )
            )
        scrub_corruption_delta = (
            snap.scrub_corruptions_detected
            - self._previous_field("scrub_corruptions_detected")
        )
        if scrub_corruption_delta > 0:
            alerts.append(
                Alert(
                    "critical", "tdstore",
                    f"scrub detected {scrub_corruption_delta} silently "
                    "corrupted key(s) since last snapshot (value differed "
                    "between replicas; repaired from the host copy — check "
                    "for memory faults or repair-path bugs)",
                )
            )
        for name, state in snap.breaker_states.items():
            if state == "open":
                alerts.append(
                    Alert(
                        "critical", "resilience",
                        f"circuit breaker {name!r} is open: dependency "
                        "unhealthy, callers failing fast",
                    )
                )
            elif state == "half_open":
                alerts.append(
                    Alert(
                        "warning", "resilience",
                        f"circuit breaker {name!r} is half-open: probing "
                        "recovery",
                    )
                )
        shed_delta = snap.queries_shed - self._previous_field("queries_shed")
        if shed_delta > 0:
            alerts.append(
                Alert(
                    "warning", "resilience",
                    f"{shed_delta} query(ies) shed since last snapshot "
                    f"(total shed rate {snap.shed_rate:.1%})",
                )
            )
        degraded_delta = self._degraded_serves(snap) - self._degraded_serves(
            self._previous_snapshot()
        )
        if degraded_delta > 0:
            alerts.append(
                Alert(
                    "warning", "serving",
                    f"{degraded_delta} query(ies) served below the live "
                    "rung since last snapshot",
                )
            )
        hedged_delta = snap.store_hedged_reads - self._previous_field(
            "store_hedged_reads"
        )
        if hedged_delta > 0:
            alerts.append(
                Alert(
                    "warning", "serving",
                    f"{hedged_delta} hedged replica read(s) since last "
                    "snapshot (primary shard slow or down; replica data "
                    "may trail replication)",
                )
            )
        shard_degraded_delta = snap.store_degraded_keys - self._previous_field(
            "store_degraded_keys"
        )
        if shard_degraded_delta > 0:
            alerts.append(
                Alert(
                    "critical", "serving",
                    f"{shard_degraded_delta} key(s) served defaults after "
                    "shard failure since last snapshot (partial-batch "
                    "degradation active)",
                )
            )
        stale_delta = snap.serving_stale_serves - self._previous_field(
            "serving_stale_serves"
        )
        if stale_delta > 0:
            alerts.append(
                Alert(
                    "warning", "serving",
                    f"{stale_delta} stale cached answer(s) served since "
                    "last snapshot (live rung failing; staleness bounded "
                    "by the invalidation stream)",
                )
            )
        if snap.migrations_in_flight > 0:
            alerts.append(
                Alert(
                    "warning", "elastic",
                    f"{snap.migrations_in_flight} live migration(s) in "
                    "flight: dual-write window open, cutover pending",
                )
            )
        aborted_delta = snap.migrations_aborted - self._previous_field(
            "migrations_aborted"
        )
        if aborted_delta > 0:
            alerts.append(
                Alert(
                    "warning", "elastic",
                    f"{aborted_delta} live migration(s) aborted since last "
                    "snapshot (target died or failover raced the cutover)",
                )
            )
        applied_delta = snap.autoscaler_applied - self._previous_field(
            "autoscaler_applied"
        )
        if applied_delta > 0:
            alerts.append(
                Alert(
                    "warning", "elastic",
                    f"autoscaler applied {applied_delta} scaling action(s) "
                    f"since last snapshot (last: "
                    f"{snap.autoscaler_last_action})",
                )
            )
        kills_delta = snap.supervisor_kills - self._previous_field(
            "supervisor_kills"
        )
        if kills_delta > 0:
            alerts.append(
                Alert(
                    "critical", "runtime",
                    f"supervisor force-killed {kills_delta} hung "
                    "child process(es) since last snapshot",
                )
            )
        respawn_delta = snap.supervisor_respawns - self._previous_field(
            "supervisor_respawns"
        )
        if respawn_delta > 0:
            alerts.append(
                Alert(
                    "warning", "runtime",
                    f"supervisor respawned {respawn_delta} child "
                    "process(es) since last snapshot (crash recovery "
                    "re-driven: WAL replay / topology reload)",
                )
            )
        for name, streak in sorted(snap.heartbeat_miss_streaks.items()):
            if streak >= self.max_heartbeat_misses:
                alerts.append(
                    Alert(
                        "warning", "runtime",
                        f"child {name!r} missed {streak} consecutive "
                        f"heartbeat(s); hang-kill fires past the "
                        "supervisor's deadline",
                    )
                )
        churn_delta = snap.vq_reassignments - self._previous_field(
            "vq_reassignments"
        )
        if churn_delta > self.max_reassignment_burst:
            alerts.append(
                Alert(
                    "warning", "retrieval",
                    f"{churn_delta} VQ reassignment(s) since last snapshot "
                    f"exceeds {self.max_reassignment_burst} (assignment "
                    "churn: embeddings drifting faster than the index "
                    "settles)",
                )
            )
        if snap.vq_posting_p99 > self.max_posting_p99:
            alerts.append(
                Alert(
                    "warning", "retrieval",
                    f"posting-list p99 {snap.vq_posting_p99} exceeds "
                    f"{self.max_posting_p99} (split threshold too high for "
                    "the catalog; probe fan-out is degrading to a scan)",
                )
            )
        cold_delta = snap.retrieval_cold_fallbacks - self._previous_field(
            "retrieval_cold_fallbacks"
        )
        if cold_delta > 0:
            alerts.append(
                Alert(
                    "warning", "retrieval",
                    f"{cold_delta} vq query(ies) fell back to CF since last "
                    "snapshot (index cold or store browned out on the VQ "
                    "read path)",
                )
            )
        for layer, degraded in (
            ("tdstore", snap.degraded_tdstore_servers),
            ("tdaccess", snap.degraded_tdaccess_servers),
        ):
            if degraded:
                alerts.append(
                    Alert(
                        "warning", layer,
                        f"server(s) {degraded} degraded (latency spike or "
                        "brownout)",
                    )
                )
        return alerts

    def _previous_snapshot(self) -> SystemSnapshot | None:
        return self.history[-2] if len(self.history) >= 2 else None

    def _previous_restarts(self, name: str) -> int:
        for snap in reversed(self.history[:-1]):
            if name in snap.topology_restarts:
                return snap.topology_restarts[name]
        return 0

    def _previous_dedup_hits(self) -> int:
        previous = self._previous_snapshot()
        return previous.total_dedup_hits() if previous is not None else 0

    def _previous_watermark_rejections(self) -> int:
        previous = self._previous_snapshot()
        return (
            previous.total_watermark_rejections()
            if previous is not None
            else 0
        )

    def _previous_acker_anomalies(self, name: str) -> int:
        for snap in reversed(self.history[:-1]):
            if name in snap.acker_anomalies:
                return snap.acker_anomalies[name]
        return 0

    def _previous_field(self, name: str) -> int:
        previous = self._previous_snapshot()
        return getattr(previous, name) if previous is not None else 0

    @staticmethod
    def _degraded_serves(snap: SystemSnapshot | None) -> int:
        if snap is None:
            return 0
        return sum(
            count
            for rung, count in snap.serving_rungs.items()
            if rung != "live"
        )

    def summary(self) -> str:
        """Human-readable one-page overview of the latest snapshot."""
        if not self.history:
            self.snapshot()
        snap = self.history[-1]
        lines = [f"system snapshot @ t={snap.timestamp:.0f}s"]
        lines.append(
            f"  tdaccess: {snap.tdaccess_servers_up}/"
            f"{snap.tdaccess_servers_total} servers up"
        )
        for name, lag in sorted(snap.consumer_lag.items()):
            lines.append(f"    consumer {name}: lag {lag}")
        lines.append(
            f"  tdstore:  {snap.tdstore_servers_up}/"
            f"{snap.tdstore_servers_total} servers up, "
            f"replication backlog {snap.replication_backlog}, "
            f"read imbalance {snap.read_imbalance():.2f}x"
        )
        for name, executed in sorted(snap.topology_executed.items()):
            lines.append(
                f"  topology {name}: {executed} executions, "
                f"{snap.topology_restarts.get(name, 0)} restarts"
            )
        if snap.ledger_entries:
            lines.append(
                f"  exactly-once: {sum(snap.ledger_entries.values())} ledger "
                f"entrie(s) across {len(snap.ledger_entries)} task(s), "
                f"{snap.total_dedup_hits()} replay(s) suppressed, "
                f"{snap.total_watermark_rejections()} watermark "
                f"rejection(s), {len(snap.ledgers_over_bound)} over bound, "
                f"{snap.journal_evictions} journal eviction(s)"
            )
        anomalies = sum(snap.acker_anomalies.values())
        if anomalies:
            lines.append(
                f"  acking: {anomalies} over-acked tree(s) absorbed"
            )
        if self._coordinator is not None or self._recovery is not None:
            age = (
                "never"
                if snap.checkpoint_age is None
                else f"{snap.checkpoint_age:.0f}s ago"
            )
            status = "replaying" if snap.recovery_in_progress else "steady"
            lines.append(
                f"  recovery: {snap.checkpoints_taken} checkpoint(s), "
                f"last {age}, {snap.recoveries} recoveries, {status}"
            )
        for name in sorted(snap.breaker_states):
            lines.append(
                f"  breaker {name}: {snap.breaker_states[name]}, "
                f"{snap.breaker_rejections.get(name, 0)} rejection(s)"
            )
        if self._shedder is not None:
            sheds = ", ".join(
                f"{priority}={count}"
                for priority, count in sorted(snap.shed_counts.items())
            )
            lines.append(
                f"  shedder: rate {snap.shed_rate:.1%} ({sheds})"
            )
        if self._front_end is not None and snap.serving_rungs:
            rungs = ", ".join(
                f"{rung}={count}"
                for rung, count in sorted(snap.serving_rungs.items())
            )
            lines.append(f"  serving rungs: {rungs}")
        if self._serving is not None:
            tiers = ", ".join(
                f"{tier}={count}"
                for tier, count in sorted(snap.serving_tiers.items())
            )
            lines.append(
                f"  serving: {tiers}, cache hit rate "
                f"{snap.result_cache_hit_rate:.1%}, "
                f"{snap.result_cache_invalidations} invalidation(s), "
                f"mean batch {snap.coalescer_mean_batch:.1f}, "
                f"{snap.store_batch_ops} batch op(s), "
                f"{snap.store_hedged_reads} hedged read(s), "
                f"{snap.store_degraded_keys} degraded key(s)"
            )
        if snap.scrub_passes:
            lines.append(
                f"  scrub: {snap.scrub_passes} pass(es), "
                f"{snap.scrub_instances_scanned} instance(s) scanned, "
                f"{snap.scrub_divergent_buckets} divergent bucket(s), "
                f"{snap.scrub_keys_repaired} key(s) repaired, "
                f"{snap.scrub_keys_deleted} deleted, "
                f"{snap.scrub_corruptions_detected} silent corruption(s)"
            )
        if snap.vq_centroids:
            lines.append(
                f"  retrieval: {snap.vq_centroids} centroid(s), "
                f"{snap.vq_indexed_items} item(s) indexed, "
                f"{snap.vq_reassignments} reassignment(s), "
                f"{snap.vq_splits} split(s), {snap.vq_merges} merge(s), "
                f"posting p99 {snap.vq_posting_p99}, "
                f"{snap.retrieval_cold_fallbacks} cold fallback(s)"
            )
        if snap.migrations_completed or snap.migrations_in_flight:
            lines.append(
                f"  elastic: route epoch {snap.route_epoch}, "
                f"{snap.migrations_completed} migration(s) completed, "
                f"{snap.migrations_aborted} aborted, "
                f"{snap.migrations_in_flight} in flight"
            )
        if self._autoscaler is not None:
            last = snap.autoscaler_last_action or "none"
            lines.append(
                f"  autoscaler: {snap.autoscaler_decisions} decision(s), "
                f"{snap.autoscaler_applied} applied, last action {last}"
            )
        if self._supervisor is not None:
            streaks = (
                ", ".join(
                    f"{name}={streak}"
                    for name, streak in sorted(
                        snap.heartbeat_miss_streaks.items()
                    )
                )
                or "none"
            )
            lines.append(
                f"  supervisor: {snap.supervisor_kills} hang kill(s), "
                f"{snap.supervisor_respawns} respawn(s), "
                f"miss streaks: {streaks}"
            )
        return "\n".join(lines)
