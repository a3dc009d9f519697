"""System monitoring (the "Monitor" box of Figure 9).

A snapshot is a timestamp plus an open map of named, JSON-native signals: the
union of what :data:`COLLECTORS` (one ``source, now -> {signal: value}`` per
kind of source) return for the attached sources. :data:`ALERT_RULES` rows read
signals by name, and an absent one (its source is not attached) fires none, so
a new signal is one collector line (plus, optionally, a rule row).
"""

from __future__ import annotations

import copy
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter, eq, ge, gt, itemgetter
from typing import Any, Callable

# bumped when the layout changes, not when a signal is added
SNAPSHOT_SCHEMA_VERSION = 5


@dataclass
class Alert:
    """One fired alert rule."""

    severity: str  # "warning" | "critical"
    component: str
    message: str


@dataclass
class SystemSnapshot:
    """Point-in-time view of the whole deployment: signal name → value."""

    timestamp: float
    signals: dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, name: str) -> Any:
        return self.signals[name]

    def to_dict(self) -> dict:
        """JSON-safe form, for shipping across processes or persisting."""
        return {"schema_version": SNAPSHOT_SCHEMA_VERSION, **copy.deepcopy(vars(self))}

    @classmethod
    def from_dict(cls, data: dict) -> "SystemSnapshot":
        version = data.get("schema_version")
        unknown = sorted(set(data) - {"schema_version", "timestamp", "signals"})
        if version != SNAPSHOT_SCHEMA_VERSION or unknown:
            raise ValueError(f"snapshot schema version {version!r} (reader: "
                             f"{SNAPSHOT_SCHEMA_VERSION}), unknown key(s) {unknown}")
        return cls(data["timestamp"], copy.deepcopy(data["signals"]))


def read_imbalance(reads: dict[str, int]) -> float:
    """Max/mean read ratio across TDStore servers (1.0 = perfectly even)."""
    values = [v for v in reads.values() if v >= 0]
    return max(values) / (sum(values) / len(values)) if sum(values) else 1.0


def _servers(layer: str, cluster) -> dict[str, Any]:
    servers = cluster.data_servers
    return {
        f"{layer}_servers_up": sum(1 for s in servers if s.alive),
        f"{layer}_servers_total": len(servers),
        f"degraded_{layer}_servers": cluster.degraded_servers(),
    }


def _tdstore(store, now: float) -> dict[str, Any]:
    migrations, scrub = store.migration_stats(), store.scrub_stats()
    alive = [s for s in store.data_servers if s.alive]
    return {
        **_servers("tdstore", store),
        # JSON keys are strings: server ids read "0", "1", ...
        "tdstore_reads": {str(k): v for k, v in store.read_stats().items()},
        "tdstore_writes": {str(k): v for k, v in store.write_stats().items()},
        "replication_backlog": sum(s.pending_syncs() for s in alive),
        "journal_evictions": store.journal_evictions(),
        "journal_overruns": store.journal_overruns(),
        "route_epoch": migrations["route_epoch"],
        "migrations_completed": migrations["completed"],
        "migrations_aborted": migrations["aborted"],
        "migrations_in_flight": len(migrations["in_flight"]),
        # scrub_passes, scrub_instances_scanned, scrub_divergent_buckets,
        # scrub_keys_repaired, scrub_keys_deleted, scrub_corruptions_detected
        **{"scrub_" + k.removeprefix("scrub_"): v for k, v in scrub.items()},
    }


def _storm(cluster, now: float) -> dict[str, Any]:
    names = cluster.topology_names()
    ledgers = {t: s for n in names for t, s in cluster.exactly_once_stats(n).items()}
    return {
        "topology_pending": {n: cluster.pending_tuples(n) for n in names},
        "topology_executed": {n: cluster.metrics(n).total_executed() for n in names},
        "topology_restarts": {n: cluster.metrics(n).task_restarts for n in names},
        "acker_anomalies": {n: cluster.acker_stats(n)["anomalies"] for n in names},
        "ledger_entries": {t: s["entries"] for t, s in ledgers.items()},
        "dedup_hits": {t: s["dedup_hits"] for t, s in ledgers.items()},
        "watermark_rejections": {
            t: s["watermark_rejections"] for t, s in ledgers.items()
        },
        "ledgers_over_bound": [t for t, s in ledgers.items() if not s["within_bound"]],
    }


def _serving(layer, now: float) -> dict[str, Any]:
    stats = layer.stats()
    return {
        "serving_tiers": dict(stats["tier_serves"]),
        "result_cache_hit_rate": layer.result_cache.hit_rate(),
        "result_cache_invalidations": stats["result_cache"]["invalidations"],
        "result_cache_evictions": stats["result_cache"]["evictions"],
        "coalescer_mean_batch": layer.coalescer.mean_batch_size(),
        "store_batch_ops": stats["batch_ops"],
        "store_hedged_reads": stats["hedged_reads"],
        "store_degraded_keys": stats["degraded_keys"],
    }


def _supervisor(supervisor, now: float) -> dict[str, Any]:
    stats = supervisor.robustness_stats()  # a ProcessSupervisor's shape
    return {
        "supervisor_kills": stats["kills"],
        "supervisor_respawns": stats["respawns"],
        "heartbeat_miss_streaks": dict(stats["heartbeat_miss_streaks"]),
    }


# kind -> collector, in summary order; "consumers" and "breakers" are
# name -> source dicts, every other kind is one source
COLLECTORS: dict[str, Callable[[Any, float], dict[str, Any]]] = {
    "tdaccess": lambda cluster, now: _servers("tdaccess", cluster),
    "consumers": lambda consumers, now: {
        "consumer_lag": {name: c.lag() for name, c in consumers.items()},
    },
    "tdstore": _tdstore,
    "storm": _storm,
    "checkpoints": lambda coordinator, now: {
        "checkpoints_taken": coordinator.checkpoints_taken,
        "checkpoint_age": coordinator.checkpoint_age(now),
    },
    "recovery": lambda recovery, now: {
        "recoveries": recovery.recoveries,
        "recovery_in_progress": recovery.in_progress,
        "last_recovery_duration": recovery.last_recovery_duration,
    },
    "breakers": lambda breakers, now: {
        "breaker_states": {name: b.state for name, b in breakers.items()},
        "breaker_rejections": {name: b.rejections for name, b in breakers.items()},
    },
    "shedder": lambda shedder, now: {
        "shed_counts": dict(shedder.shed),
        "shed_rate": shedder.shed_rate(),
    },
    "front_end": lambda front_end, now: {
        "serving_rungs": dict(front_end.log.rungs),
        "queries_shed": front_end.log.shed,
        "retrieval_cold_fallbacks": front_end.log.vq_fallbacks,
    },
    # a VQIndexProbe: vq_centroids, vq_indexed_items, vq_reassignments,
    # vq_splits, vq_merges, vq_posting_p99
    "retrieval": lambda probe, now: {f"vq_{k}": v for k, v in probe.stats().items()},
    "serving": _serving,
    "autoscaler": lambda autoscaler, now: {
        "autoscaler_decisions": len(autoscaler.decisions),
        "autoscaler_applied": autoscaler.decisions_applied(),
        "autoscaler_last_action": autoscaler.last_action,
    },
    "supervisor": _supervisor,
}


# GREW tests a counter's growth since the delta base, the others the value
GREW, ABOVE, AT_LEAST, EQUALS = "grew", "above", "at_least", "equals"
_COMPARE = {GREW: gt, ABOVE: gt, AT_LEAST: ge, EQUALS: eq}


@dataclass(frozen=True)
class AlertRule:
    """One row of :data:`ALERT_RULES`. ``metric``: a signal name or a function of
    the snapshot (absent: no alert); a dict is tested key by key, a list member by
    member, unless ``summed``. ``threshold``: a literal or a ``max_*`` monitor
    attribute name. ``message`` formats ``key``, ``value`` (for GREW, the growth),
    ``limit`` and ``snap`` (the signals; an absent one reads 0)."""

    metric: str | Callable[[SystemSnapshot], Any]
    test: str
    threshold: Any
    severity: str  # "warning" | "critical"
    component: str
    message: str
    summed: bool = False

    def read(self, snap: SystemSnapshot) -> Any:
        try:
            return self.metric(snap) if callable(self.metric) else snap[self.metric]
        except KeyError:  # a signal of a source that is not attached
            return None


ALERT_RULES: tuple[AlertRule, ...] = (
    AlertRule(lambda s: s["tdaccess_servers_total"] - s["tdaccess_servers_up"],
              ABOVE, 0, "critical", "tdaccess", "{value} data server(s) down"),
    AlertRule("consumer_lag", ABOVE, "max_consumer_lag", "warning", "tdaccess",
              "consumer {key!r} lag {value} exceeds {limit}"),
    AlertRule(lambda s: s["tdstore_servers_total"] - s["tdstore_servers_up"],
              ABOVE, 0, "critical", "tdstore", "{value} data server(s) down"),
    AlertRule("replication_backlog", ABOVE, "max_replication_backlog", "warning",
              "tdstore", "replication backlog {value} exceeds {limit}"),
    AlertRule(lambda s: read_imbalance(s["tdstore_reads"]), ABOVE, "max_read_imbalance",
              "warning", "tdstore", "read imbalance {value:.1f}x exceeds {limit:.1f}x"),
    AlertRule(lambda s: s.timestamp if s["checkpoint_age"] is None else None, ABOVE,
              "max_checkpoint_age", "warning", "recovery",
              "no checkpoint has ever been taken"),
    AlertRule("checkpoint_age", ABOVE, "max_checkpoint_age", "warning", "recovery",
              "checkpoint age {value:.0f}s exceeds {limit:.0f}s"),
    AlertRule("recovery_in_progress", EQUALS, True, "warning", "recovery",
              "recovery replay in progress: serving degraded"),
    AlertRule("topology_restarts", GREW, 0, "warning", "storm",
              "topology {key!r} had {value} task restart(s)"),
    AlertRule("ledgers_over_bound", EQUALS, True, "critical", "storm",
              "dedup ledger of {key} exceeds its watermark bound: memory no "
              "longer O(in-flight)"),
    AlertRule("dedup_hits", GREW, 0, "warning", "storm", "{value} replayed tuple(s) "
              "suppressed since last snapshot (counter corruption averted; check "
              "source replays)", summed=True),
    AlertRule("watermark_rejections", GREW, 0, "warning", "storm", "{value} "
              "delivery(ies) dropped below the ledger watermark since last snapshot "
              "(a late first delivery would be lost the same way; check "
              "retain_depth against stream skew)", summed=True),
    AlertRule("acker_anomalies", GREW, 0, "warning", "storm", "topology {key!r} "
              "absorbed {value} over-acked tuple tree(s) (possible double-ack bug "
              "in a bolt)"),
    AlertRule("journal_overruns", GREW, 0, "critical", "tdstore", "{value} "
              "journaled run(s) longer than JOURNAL_LIMIT since last snapshot; a "
              "retried wave re-sending one would double-apply it"),
    AlertRule("scrub_divergent_buckets", GREW, 0, "warning", "tdstore", "scrub found "
              "and repaired {value} divergent replica bucket(s) since last snapshot "
              "(replication drift; read-repair converged the pair)"),
    AlertRule("scrub_corruptions_detected", GREW, 0, "critical", "tdstore", "scrub "
              "detected {value} silently corrupted key(s) since last snapshot (value "
              "differed between replicas; repaired from the host copy — check for "
              "memory faults or repair-path bugs)"),
    AlertRule("breaker_states", EQUALS, "open", "critical", "resilience", "circuit "
              "breaker {key!r} is open: dependency unhealthy, callers failing fast"),
    AlertRule("breaker_states", EQUALS, "half_open", "warning", "resilience",
              "circuit breaker {key!r} is half-open: probing recovery"),
    AlertRule("queries_shed", GREW, 0, "warning", "resilience", "{value} query(ies) "
              "shed since last snapshot (total shed rate {snap[shed_rate]:.1%})"),
    AlertRule(lambda s: {r: n for r, n in s["serving_rungs"].items() if r != "live"},
              GREW, 0, "warning", "serving", "{value} query(ies) served below the "
              "live rung since last snapshot", summed=True),
    AlertRule("store_hedged_reads", GREW, 0, "warning", "serving", "{value} hedged "
              "replica read(s) since last snapshot (primary shard slow or down; "
              "replica data may trail replication)"),
    AlertRule("store_degraded_keys", GREW, 0, "critical", "serving", "{value} key(s) "
              "served defaults after shard failure since last snapshot "
              "(partial-batch degradation active)"),
    AlertRule("migrations_in_flight", ABOVE, 0, "warning", "elastic", "{value} live "
              "migration(s) in flight: dual-write window open, cutover pending"),
    AlertRule("migrations_aborted", GREW, 0, "warning", "elastic", "{value} live "
              "migration(s) aborted since last snapshot (target died or failover "
              "raced the cutover)"),
    AlertRule("autoscaler_applied", GREW, 0, "warning", "elastic", "autoscaler "
              "applied {value} scaling action(s) since last snapshot (last: "
              "{snap[autoscaler_last_action]})"),
    AlertRule("supervisor_kills", GREW, 0, "critical", "runtime", "supervisor "
              "force-killed {value} hung child process(es) since last snapshot"),
    AlertRule("supervisor_respawns", GREW, 0, "warning", "runtime", "supervisor "
              "respawned {value} child process(es) since last snapshot (crash "
              "recovery re-driven: WAL replay / topology reload)"),
    AlertRule(lambda s: dict(sorted(s["heartbeat_miss_streaks"].items())), AT_LEAST,
              "max_heartbeat_misses", "warning", "runtime", "child {key!r} missed "
              "{value} consecutive heartbeat(s); hang-kill fires past the "
              "supervisor's deadline"),
    AlertRule("vq_reassignments", GREW, "max_reassignment_burst", "warning",
              "retrieval", "{value} VQ reassignment(s) since last snapshot exceeds "
              "{limit} (assignment churn: embeddings drifting faster than the index "
              "settles)"),
    AlertRule("vq_posting_p99", ABOVE, "max_posting_p99", "warning", "retrieval",
              "posting-list p99 {value} exceeds {limit} (split threshold too high "
              "for the catalog; probe fan-out is degrading to a scan)"),
    AlertRule("retrieval_cold_fallbacks", GREW, 0, "warning", "retrieval", "{value} "
              "vq query(ies) fell back to CF since last snapshot (index cold or "
              "store browned out on the VQ read path)"),
    AlertRule(lambda s: len(s["degraded_tdstore_servers"]), ABOVE, 0, "warning",
              "tdstore", "server(s) {snap[degraded_tdstore_servers]} degraded "
              "(latency spike or brownout)"),
    AlertRule(lambda s: len(s["degraded_tdaccess_servers"]), ABOVE, 0, "warning",
              "tdaccess", "server(s) {snap[degraded_tdaccess_servers]} degraded "
              "(latency spike or brownout)"),
)


def _growth(current: Any, previous: Any) -> Any:
    """Growth since ``previous``, per counter; a smaller one was reset: all new."""
    if isinstance(current, dict):
        return {k: _growth(n, (previous or {}).get(k, 0)) for k, n in current.items()}
    previous = previous or 0
    return current - previous if current >= previous else current


class SystemMonitor:
    """Snapshots the attached sources and evaluates the alert rules."""

    def __init__(
        self,
        clock_now: Callable[[], float],
        max_consumer_lag: int = 10_000,
        max_replication_backlog: int = 10_000,
        max_read_imbalance: float = 3.0,
        max_checkpoint_age: float | None = None,
        max_heartbeat_misses: int = 3,
        max_posting_p99: int = 10_000,
        max_reassignment_burst: int = 1_000,
    ):
        self._now = clock_now
        self._sources: dict[str, Any] = {}  # COLLECTORS kind -> source
        self.max_consumer_lag = max_consumer_lag
        self.max_replication_backlog = max_replication_backlog
        self.max_read_imbalance = max_read_imbalance
        self.max_checkpoint_age = max_checkpoint_age
        self.max_heartbeat_misses = max_heartbeat_misses
        self.max_posting_p99 = max_posting_p99
        self.max_reassignment_burst = max_reassignment_burst
        self.history: list[SystemSnapshot] = []

    def watch(self, kind: str, source: Any, name: str | None = None):
        """Attach (or repoint) the :data:`COLLECTORS` entry ``kind``; the
        "consumers" and "breakers" kinds hold one source per ``name``."""
        if kind not in COLLECTORS:
            raise ValueError(f"no collector for source kind {kind!r}")
        if name is not None:
            source = {**self._sources.get(kind, {}), name: source}
        self._sources[kind] = source

    def _collect(self, now: float) -> list[tuple[str, dict[str, Any]]]:
        return [(kind, collect(self._sources[kind], now))
                for kind, collect in COLLECTORS.items() if kind in self._sources]

    def snapshot(self) -> SystemSnapshot:
        now = self._now()
        signals = {k: v for _, s in self._collect(now) for k, v in s.items()}
        self.history.append(snap := SystemSnapshot(now, signals))
        return snap

    def summary(self) -> str:
        """One line per attached source: its signals as collected now."""
        now = self._now()
        lines = [f"system snapshot @ t={now:.0f}s"]
        for kind, signals in self._collect(now):
            values = (f"{k}={round(v, 3) if isinstance(v, float) else v}"
                      for k, v in signals.items())
            lines.append(f"  {kind}: " + ", ".join(values))
        return "\n".join(lines)

    def evaluate(self, snap: SystemSnapshot | None = None) -> list[Alert]:
        """Run :data:`ALERT_RULES` against ``snap`` (default: a fresh one)."""
        snap = self.snapshot() if snap is None else snap
        base = self._base(snap)
        signals = defaultdict(int, snap.signals)
        alerts: list[Alert] = []
        for _, rules in groupby(ALERT_RULES, attrgetter("metric")):
            fired = []
            for rule in rules:
                limit = rule.threshold
                if rule.test != EQUALS and isinstance(limit, str):
                    limit = getattr(self, limit)
                value = rule.read(snap)
                if limit is None or value is None:
                    continue
                if rule.test == GREW:
                    value = _growth(value, rule.read(base))
                if rule.summed:
                    value = sum(value.values())
                levels = ([(k, True) for k in value] if isinstance(value, list) else
                          value.items() if isinstance(value, dict) else [(None, value)])
                for position, (key, level) in enumerate(levels):
                    if level is not None and _COMPARE[rule.test](level, limit):
                        text = rule.message.format(key=key, value=level, limit=limit,
                                                   snap=signals)
                        alert = Alert(rule.severity, rule.component, text)
                        fired.append((position, alert))
            alerts += [alert for _, alert in sorted(fired, key=itemgetter(0))]
        return alerts

    def _base(self, snap: SystemSnapshot) -> SystemSnapshot:
        """The delta base: the snapshot just before ``snap`` by identity (so never
        one the :class:`Autoscaler` took in between), else the latest, else none."""
        at = [i for i, taken in enumerate(self.history) if taken is snap]
        index = at[-1] if at else len(self.history)
        return self.history[index - 1] if index else SystemSnapshot(0.0)
