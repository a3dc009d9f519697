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
from itertools import groupby
from operator import attrgetter, eq, ge, gt, itemgetter
from typing import TYPE_CHECKING, Any, Callable

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


# AlertRule comparators: GREW tests how much a counter grew since the
# delta base, the other three test the snapshot's own value
GREW, ABOVE, AT_LEAST, EQUALS = "grew", "above", "at_least", "equals"
_COMPARE = {GREW: gt, ABOVE: gt, AT_LEAST: ge, EQUALS: eq}


@dataclass(frozen=True)
class AlertRule:
    """One row of :data:`ALERT_RULES`: ``metric`` is a snapshot field
    name or a function of the snapshot. A dict is tested key by key (a
    list as its members, each ``True``) unless ``summed`` adds it up.
    ``threshold`` is a literal or, except for EQUALS, the name of a
    ``max_*`` monitor attribute read at evaluation time (``None`` there
    turns the row off). ``message`` is formatted with ``key``, ``value``
    (for GREW, the growth), ``limit`` and ``snap``. Adjacent rows over
    one metric report key by key; ``when`` gates a row on monitor state
    that the snapshot does not carry."""

    metric: str | Callable[[SystemSnapshot], Any]
    test: str
    threshold: Any
    severity: str  # "warning" | "critical"
    component: str
    message: str
    summed: bool = False
    when: Callable[["SystemMonitor"], bool] | None = None

    def read(self, snap: SystemSnapshot) -> Any:
        if isinstance(self.metric, str):
            return getattr(snap, self.metric)
        return self.metric(snap)


def _checkpointing(monitor: "SystemMonitor") -> bool:
    return monitor._coordinator is not None


ALERT_RULES: tuple[AlertRule, ...] = (
    AlertRule(lambda s: s.tdaccess_servers_total - s.tdaccess_servers_up,
              ABOVE, 0, "critical", "tdaccess", "{value} data server(s) down"),
    AlertRule("consumer_lag", ABOVE, "max_consumer_lag", "warning", "tdaccess",
              "consumer {key!r} lag {value} exceeds {limit}"),
    AlertRule(lambda s: s.tdstore_servers_total - s.tdstore_servers_up,
              ABOVE, 0, "critical", "tdstore", "{value} data server(s) down"),
    AlertRule("replication_backlog", ABOVE, "max_replication_backlog",
              "warning", "tdstore",
              "replication backlog {value} exceeds {limit}"),
    AlertRule(SystemSnapshot.read_imbalance, ABOVE, "max_read_imbalance",
              "warning", "tdstore",
              "read imbalance {value:.1f}x exceeds {limit:.1f}x"),
    AlertRule(lambda s: s.timestamp if s.checkpoint_age is None else None,
              ABOVE, "max_checkpoint_age", "warning", "recovery",
              "no checkpoint has ever been taken", when=_checkpointing),
    AlertRule("checkpoint_age", ABOVE, "max_checkpoint_age", "warning",
              "recovery", "checkpoint age {value:.0f}s exceeds {limit:.0f}s",
              when=_checkpointing),
    AlertRule("recovery_in_progress", EQUALS, True, "warning", "recovery",
              "recovery replay in progress: serving degraded"),
    AlertRule("topology_restarts", GREW, 0, "warning", "storm",
              "topology {key!r} had {value} task restart(s)"),
    AlertRule("ledgers_over_bound", EQUALS, True, "critical", "storm",
              "dedup ledger of {key} exceeds its watermark bound: memory no "
              "longer O(in-flight)"),
    AlertRule("dedup_hits", GREW, 0, "warning", "storm",
              "{value} replayed tuple(s) suppressed since last snapshot "
              "(counter corruption averted; check source replays)",
              summed=True),
    AlertRule("watermark_rejections", GREW, 0, "warning", "storm",
              "{value} delivery(ies) dropped below the ledger watermark since "
              "last snapshot (a late first delivery would be lost the same "
              "way; check retain_depth against stream skew)", summed=True),
    AlertRule("acker_anomalies", GREW, 0, "warning", "storm",
              "topology {key!r} absorbed {value} over-acked tuple tree(s) "
              "(possible double-ack bug in a bolt)"),
    AlertRule("journal_evictions", GREW, 0, "warning", "tdstore",
              "{value} op-journal id(s) trimmed since last snapshot; a rewind "
              "re-delivering them would double-apply (check JOURNAL_LIMIT "
              "against per-key op rates)"),
    AlertRule("scrub_divergent_buckets", GREW, 0, "warning", "tdstore",
              "scrub found and repaired {value} divergent replica bucket(s) "
              "since last snapshot (replication drift; read-repair converged "
              "the pair)"),
    AlertRule("scrub_corruptions_detected", GREW, 0, "critical", "tdstore",
              "scrub detected {value} silently corrupted key(s) since last "
              "snapshot (value differed between replicas; repaired from the "
              "host copy — check for memory faults or repair-path bugs)"),
    AlertRule("breaker_states", EQUALS, "open", "critical", "resilience",
              "circuit breaker {key!r} is open: dependency unhealthy, callers "
              "failing fast"),
    AlertRule("breaker_states", EQUALS, "half_open", "warning", "resilience",
              "circuit breaker {key!r} is half-open: probing recovery"),
    AlertRule("queries_shed", GREW, 0, "warning", "resilience",
              "{value} query(ies) shed since last snapshot (total shed rate "
              "{snap.shed_rate:.1%})"),
    AlertRule(lambda s: {rung: count for rung, count in s.serving_rungs.items()
                         if rung != "live"},
              GREW, 0, "warning", "serving", "{value} query(ies) served below "
              "the live rung since last snapshot", summed=True),
    AlertRule("store_hedged_reads", GREW, 0, "warning", "serving",
              "{value} hedged replica read(s) since last snapshot (primary "
              "shard slow or down; replica data may trail replication)"),
    AlertRule("store_degraded_keys", GREW, 0, "critical", "serving",
              "{value} key(s) served defaults after shard failure since last "
              "snapshot (partial-batch degradation active)"),
    AlertRule("serving_stale_serves", GREW, 0, "warning", "serving",
              "{value} stale cached answer(s) served since last snapshot (live "
              "rung failing; staleness bounded by the invalidation stream)"),
    AlertRule("migrations_in_flight", ABOVE, 0, "warning", "elastic",
              "{value} live migration(s) in flight: dual-write window open, "
              "cutover pending"),
    AlertRule("migrations_aborted", GREW, 0, "warning", "elastic",
              "{value} live migration(s) aborted since last snapshot (target "
              "died or failover raced the cutover)"),
    AlertRule("autoscaler_applied", GREW, 0, "warning", "elastic",
              "autoscaler applied {value} scaling action(s) since last "
              "snapshot (last: {snap.autoscaler_last_action})"),
    AlertRule("supervisor_kills", GREW, 0, "critical", "runtime",
              "supervisor force-killed {value} hung child process(es) since "
              "last snapshot"),
    AlertRule("supervisor_respawns", GREW, 0, "warning", "runtime",
              "supervisor respawned {value} child process(es) since last "
              "snapshot (crash recovery re-driven: WAL replay / topology "
              "reload)"),
    AlertRule(lambda s: dict(sorted(s.heartbeat_miss_streaks.items())),
              AT_LEAST, "max_heartbeat_misses", "warning", "runtime",
              "child {key!r} missed {value} consecutive heartbeat(s); "
              "hang-kill fires past the supervisor's deadline"),
    AlertRule("vq_reassignments", GREW, "max_reassignment_burst", "warning",
              "retrieval", "{value} VQ reassignment(s) since last snapshot "
              "exceeds {limit} (assignment churn: embeddings drifting faster "
              "than the index settles)"),
    AlertRule("vq_posting_p99", ABOVE, "max_posting_p99", "warning",
              "retrieval", "posting-list p99 {value} exceeds {limit} (split "
              "threshold too high for the catalog; probe fan-out is degrading "
              "to a scan)"),
    AlertRule("retrieval_cold_fallbacks", GREW, 0, "warning", "retrieval",
              "{value} vq query(ies) fell back to CF since last snapshot "
              "(index cold or store browned out on the VQ read path)"),
    AlertRule(lambda s: len(s.degraded_tdstore_servers), ABOVE, 0, "warning",
              "tdstore", "server(s) {snap.degraded_tdstore_servers} degraded "
              "(latency spike or brownout)"),
    AlertRule(lambda s: len(s.degraded_tdaccess_servers), ABOVE, 0, "warning",
              "tdaccess", "server(s) {snap.degraded_tdaccess_servers} degraded "
              "(latency spike or brownout)"),
)


def _keyed(value: Any) -> list[tuple[Any, Any]]:
    """A metric as (key, value) pairs: a dict's items, a list's members
    each ``True``, or a scalar under the key ``None``."""
    if isinstance(value, dict):
        return list(value.items())
    if isinstance(value, list):
        return [(key, True) for key in value]
    return [(None, value)]


def _growth(current: Any, previous: Any) -> Any:
    """How much a counter (or each counter of a dict) grew since
    ``previous``. A counter below its previous value was reset (a killed
    task's bolt restarts from zero), so all of its value is new."""
    if isinstance(current, dict):
        return {
            key: _growth(count, previous.get(key, 0))
            for key, count in current.items()
        }
    return current - previous if current >= previous else current


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
            stats = self._tdstore.migration_stats()
            snap.route_epoch = stats["route_epoch"]
            snap.migrations_completed = stats["completed"]
            snap.migrations_aborted = stats["aborted"]
            snap.migrations_in_flight = len(stats["in_flight"])
            stats = self._tdstore.scrub_stats()
            snap.scrub_passes = stats["scrub_passes"]
            snap.scrub_instances_scanned = stats["instances_scanned"]
            snap.scrub_divergent_buckets = stats["divergent_buckets"]
            snap.scrub_keys_repaired = stats["keys_repaired"]
            snap.scrub_keys_deleted = stats["keys_deleted"]
            snap.scrub_corruptions_detected = stats["corruptions_detected"]
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
        if self._tdstore is not None:
            snap.degraded_tdstore_servers = self._tdstore.degraded_servers()
        if self._tdaccess is not None:
            snap.degraded_tdaccess_servers = self._tdaccess.degraded_servers()
        self.history.append(snap)
        return snap

    # -- alerting -------------------------------------------------------------

    def evaluate(self, snap: SystemSnapshot | None = None) -> list[Alert]:
        """Run :data:`ALERT_RULES` against ``snap`` (a fresh snapshot by
        default); GREW rows measure growth since :meth:`_base`."""
        if snap is None:
            snap = self.snapshot()
        base = self._base(snap)
        alerts: list[Alert] = []
        for _, rules in groupby(ALERT_RULES, attrgetter("metric")):
            fired = []
            for rule in rules:
                limit = rule.threshold
                if rule.test != EQUALS and isinstance(limit, str):
                    limit = getattr(self, limit)
                if limit is None or (rule.when and not rule.when(self)):
                    continue
                value = rule.read(snap)
                if rule.test == GREW:
                    value = _growth(value, rule.read(base))
                if rule.summed:
                    value = sum(value.values())
                for position, (key, level) in enumerate(_keyed(value)):
                    if level is None or not _COMPARE[rule.test](level, limit):
                        continue
                    text = rule.message.format(
                        key=key, value=level, limit=limit, snap=snap
                    )
                    alert = Alert(rule.severity, rule.component, text)
                    fired.append((position, alert))
            alerts += [alert for _, alert in sorted(fired, key=itemgetter(0))]
        return alerts

    def _base(self, snap: SystemSnapshot) -> SystemSnapshot:
        """The snapshot taken just before ``snap`` (the latest one if
        ``snap`` is not in the history; an empty one if none is). Found
        by identity: a snapshot the :class:`Autoscaler` takes in between
        never becomes the base."""
        history = self.history
        index = next(
            (i for i in range(len(history) - 1, -1, -1) if history[i] is snap),
            len(history),
        )
        return history[index - 1] if index else SystemSnapshot(timestamp=0.0)

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
