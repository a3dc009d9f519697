"""Alert rules as one table: ``repro.monitoring.ALERT_RULES``.

The reference is the monitor's ``evaluate`` as it stood before the
table, a hand-written if-ladder with its own "previous snapshot"
helpers, copied verbatim into ``LadderMonitor``. It reads the typed
snapshot of that time (schema v4), copied verbatim into ``V4Snapshot``;
the table reads the same state as a signal map (``as_signals``).
Hypothesis drives both through the same snapshot histories under
varying thresholds and requires equal alert lists: same messages,
severities, components and order. The ladder's helpers and the table's
delta base agree only on histories whose counters never go down and
whose dict keys, once seen, stay, so those are the histories generated.
Two tests pin the cases where the ladder was wrong: a counter reset by
a task restart, and a delta base displaced by a snapshot someone else
took.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import monitoring
from repro.elastic import Autoscaler
from repro.monitoring import ALERT_RULES, Alert, SystemMonitor, SystemSnapshot
from repro.storm import GlobalGrouping, LocalCluster, TopologyBuilder
from repro.storm.reliability import ExactlyOnceBolt
from repro.storm.tuples import StormTuple
from repro.utils.clock import SimClock

from tests.storm.helpers import CountBolt, ListSpout


@dataclass
class V4Snapshot:
    """The typed ``SystemSnapshot`` the ladder was written against
    (schema v4), fields and derived metrics verbatim."""

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
    # journaled runs longer than JOURNAL_LIMIT across the TDStore pool: a
    # retried wave re-sending one would double-apply it
    journal_overruns: int = 0
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


def as_signals(old: V4Snapshot, watching_checkpoints: bool) -> SystemSnapshot:
    """``old`` as the table's signal map: every field a signal, server ids
    as JSON strings, and no checkpoint signals without a coordinator."""
    signals = {f.name: getattr(old, f.name) for f in fields(old)}
    del signals["timestamp"]
    for name in ("tdstore_reads", "tdstore_writes"):
        signals[name] = {str(k): v for k, v in signals[name].items()}
    if not watching_checkpoints:
        del signals["checkpoints_taken"], signals["checkpoint_age"]
    return SystemSnapshot(old.timestamp, signals)


class LadderMonitor(SystemMonitor):
    """``SystemMonitor.evaluate`` and its helpers before the rule table,
    verbatim: the reference. ``_coordinator`` is the checkpoint source
    the pre-table monitor held."""

    def __init__(self, clock_now, coordinator=None):
        super().__init__(clock_now)
        self._coordinator = coordinator

    def evaluate(self, snap: V4Snapshot | None = None) -> list[Alert]:
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
        overrun_delta = snap.journal_overruns - self._previous_field(
            "journal_overruns"
        )
        if overrun_delta > 0:
            alerts.append(
                Alert(
                    "critical", "tdstore",
                    f"{overrun_delta} journaled run(s) longer than "
                    "JOURNAL_LIMIT since last snapshot; a retried wave "
                    "re-sending one would double-apply it",
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

    def _previous_snapshot(self) -> V4Snapshot | None:
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
    def _degraded_serves(snap: V4Snapshot | None) -> int:
        if snap is None:
            return 0
        return sum(
            count
            for rung, count in snap.serving_rungs.items()
            if rung != "live"
        )



# -- the differential test ---------------------------------------------------

TASKS = ("itemCount[0]", "pairCount[1]", "simList[0]")
TOPOLOGIES = ("app", "cf")
RUNGS = ("live", "cache", "demographic", "static")
NAMES = ("etl", "store", "worker-1")  # consumers, breakers, children
COUNTERS = (
    "journal_overruns", "scrub_divergent_buckets",
    "scrub_corruptions_detected", "queries_shed", "store_hedged_reads",
    "store_degraded_keys", "migrations_aborted",
    "autoscaler_applied", "supervisor_kills", "supervisor_respawns",
    "vq_reassignments", "retrieval_cold_fallbacks",
)
KEYED_COUNTERS = {
    "topology_restarts": TOPOLOGIES,
    "acker_anomalies": TOPOLOGIES,
    "dedup_hits": TASKS,
    "watermark_rejections": TASKS,
    "serving_rungs": RUNGS,
}

small = st.integers(0, 12)
growth = st.integers(0, 3)
counter_growth = st.dictionaries(st.sampled_from(COUNTERS), growth)
keyed_growth = {
    name: st.dictionaries(st.sampled_from(keys), growth)
    for name, keys in KEYED_COUNTERS.items()
}
levels = st.fixed_dictionaries({
    "timestamp": st.floats(0.0, 120.0),
    "tdaccess_servers_up": st.integers(0, 3),
    "tdaccess_servers_total": st.integers(0, 3),
    "consumer_lag": st.dictionaries(st.sampled_from(NAMES), small),
    "tdstore_servers_up": st.integers(0, 3),
    "tdstore_servers_total": st.integers(0, 3),
    "tdstore_reads": st.dictionaries(st.integers(0, 3), small),
    "replication_backlog": small,
    "checkpoint_age": st.none() | st.floats(0.0, 120.0),
    "recovery_in_progress": st.booleans(),
    "ledgers_over_bound": st.lists(st.sampled_from(TASKS), max_size=3),
    "breaker_states": st.dictionaries(
        st.sampled_from(NAMES), st.sampled_from(("closed", "open", "half_open"))
    ),
    "shed_rate": st.floats(0.0, 1.0),
    "migrations_in_flight": st.integers(0, 2),
    "autoscaler_last_action": st.none() | st.just("expand_store:tdstore"),
    "heartbeat_miss_streaks": st.dictionaries(
        st.sampled_from(NAMES), st.integers(0, 5)
    ),
    "vq_posting_p99": small,
    "degraded_tdstore_servers": st.lists(st.integers(0, 2), unique=True),
    "degraded_tdaccess_servers": st.lists(st.integers(0, 2), unique=True),
})
thresholds = st.fixed_dictionaries({
    "max_consumer_lag": st.integers(0, 10),
    "max_replication_backlog": st.integers(0, 10),
    "max_read_imbalance": st.floats(1.0, 3.0),
    "max_checkpoint_age": st.none() | st.floats(0.0, 100.0),
    "max_heartbeat_misses": st.integers(1, 4),
    "max_posting_p99": st.integers(0, 10),
    "max_reassignment_burst": st.integers(0, 4),
})


@st.composite
def histories(draw):
    """1–3 (snapshot, thresholds) steps. Counters never go down and a
    counter dict's key never disappears; levels and thresholds move
    freely from step to step."""
    counters = dict.fromkeys(COUNTERS, 0)
    keyed = {name: {} for name in KEYED_COUNTERS}
    steps = []
    for _ in range(draw(st.integers(1, 3))):
        for name, count in draw(counter_growth).items():
            counters[name] += count
        for name, counts in keyed.items():
            for key, count in draw(keyed_growth[name]).items():
                counts[key] = counts.get(key, 0) + count
        snap = V4Snapshot(
            **draw(levels),
            **counters,
            **{name: dict(values) for name, values in keyed.items()},
        )
        steps.append((snap, draw(thresholds)))
    return steps


@settings(max_examples=80, deadline=None)
@given(history=histories(), watching_checkpoints=st.booleans())
def test_table_matches_the_ladder(history, watching_checkpoints):
    table = SystemMonitor(lambda: 0.0)
    ladder = LadderMonitor(
        lambda: 0.0, coordinator=object() if watching_checkpoints else None
    )
    for old, limits in history:
        new = as_signals(old, watching_checkpoints)
        for monitor, snap in ((table, new), (ladder, old)):
            for name, limit in limits.items():
                setattr(monitor, name, limit)
            monitor.history.append(snap)
        assert table.evaluate(new) == ladder.evaluate(old)


# -- no dead rows -------------------------------------------------------------

# the signals that fire each ALERT_RULES row, in table order, against a
# first snapshot at t=61s under default thresholds (checkpoint age 60s)
FIRES_ALONE = [
    {"tdaccess_servers_total": 1, "tdaccess_servers_up": 0},
    {"consumer_lag": {"etl": 10_001}},
    {"tdstore_servers_total": 1, "tdstore_servers_up": 0},
    {"replication_backlog": 10_001},
    {"tdstore_reads": {"0": 10, "1": 0, "2": 0, "3": 0}},
    {"checkpoint_age": None},
    {"checkpoint_age": 61.0},
    {"recovery_in_progress": True},
    {"topology_restarts": {"app": 1}},
    {"ledgers_over_bound": ["c[0]"]},
    {"dedup_hits": {"c[0]": 1}},
    {"watermark_rejections": {"c[0]": 1}},
    {"acker_anomalies": {"app": 1}},
    {"journal_overruns": 1},
    {"scrub_divergent_buckets": 1},
    {"scrub_corruptions_detected": 1},
    {"breaker_states": {"store": "open"}},
    {"breaker_states": {"store": "half_open"}},
    {"queries_shed": 1},
    {"serving_rungs": {"live": 4, "static": 1}},
    {"store_hedged_reads": 1},
    {"store_degraded_keys": 1},
    {"migrations_in_flight": 1},
    {"migrations_aborted": 1},
    {"autoscaler_applied": 1},
    {"supervisor_kills": 1},
    {"supervisor_respawns": 1},
    {"heartbeat_miss_streaks": {"worker-1": 3}},
    {"vq_reassignments": 1_001},
    {"vq_posting_p99": 10_001},
    {"retrieval_cold_fallbacks": 1},
    {"degraded_tdstore_servers": [0]},
    {"degraded_tdaccess_servers": [1]},
]


def test_every_row_fires_alone(monkeypatch):
    assert len(FIRES_ALONE) == len(ALERT_RULES)

    def evaluate(signals):
        monitor = SystemMonitor(lambda: 0.0, max_checkpoint_age=60.0)
        return monitor.evaluate(SystemSnapshot(61.0, signals))

    assert evaluate({}) == []
    for index, (rule, signals) in enumerate(zip(ALERT_RULES, FIRES_ALONE)):
        [alert] = evaluate(signals)
        assert (alert.severity, alert.component) == (
            rule.severity, rule.component,
        ), signals
        others = ALERT_RULES[:index] + ALERT_RULES[index + 1:]
        with monkeypatch.context() as patch:
            patch.setattr(monitoring, "ALERT_RULES", others)
            assert evaluate(signals) == [], signals


def test_a_row_without_its_signals_is_silent():
    """An absent signal (its source is not attached) fires no row, even
    beside every other row's firing signals."""
    monitor = SystemMonitor(lambda: 0.0, max_checkpoint_age=60.0)
    everything = {k: v for signals in FIRES_ALONE for k, v in signals.items()}
    for signals in FIRES_ALONE:
        [alert] = monitor.evaluate(SystemSnapshot(61.0, signals))
        rest = {k: v for k, v in everything.items() if k not in signals}
        assert alert not in monitor.evaluate(SystemSnapshot(61.0, rest)), signals


# -- the two delta bugs the ladder hid -----------------------------------------


class EchoBolt(ExactlyOnceBolt):
    def process(self, tup):
        pass


def deliver_twice(bolt, count):
    """``count`` tuples, each delivered twice: ``count`` suppressed
    replays."""
    for index in range(count):
        tup = StormTuple(("a",), ("word",), "default", "s", op_id=f"s@{index}")
        bolt.execute(tup)
        bolt.execute(tup)


def test_task_restart_does_not_cancel_dedup_hits_elsewhere():
    clock = SimClock()
    storm = LocalCluster(clock=clock)
    builder = TopologyBuilder("eo")
    builder.add_spout("s", lambda: ListSpout([("a",)], ("word",)))
    builder.add_bolt("c", EchoBolt, parallelism=2).grouping(
        "s", GlobalGrouping()
    )
    storm.submit(builder.build())
    storm.run_until_idle()
    monitor = SystemMonitor(clock.now)
    monitor.watch("storm", storm)
    deliver_twice(storm.task_instance("eo", "c", 0), 5)
    assert monitor.snapshot()["dedup_hits"] == {"c[0]": 5, "c[1]": 0}
    storm.kill_task("eo", "c", 0)  # the fresh bolt counts from zero
    deliver_twice(storm.task_instance("eo", "c", 1), 3)
    snap = monitor.snapshot()
    assert snap["dedup_hits"] == {"c[0]": 0, "c[1]": 3}  # the sum went 5 -> 3
    assert Alert(
        "warning", "storm",
        "3 replayed tuple(s) suppressed since last snapshot (counter "
        "corruption averted; check source replays)",
    ) in monitor.evaluate(snap)


def test_delta_base_is_the_snapshot_before_the_evaluated_one():
    clock = SimClock()
    storm = LocalCluster(clock=clock)
    builder = TopologyBuilder("app")
    builder.add_spout("s", lambda: ListSpout([("a",)], ("word",)))
    builder.add_bolt("c", CountBolt).grouping("s", GlobalGrouping())
    storm.submit(builder.build())
    storm.run_until_idle()
    monitor = SystemMonitor(clock.now)
    monitor.watch("storm", storm)
    scaler = Autoscaler(monitor)  # shares the monitor's history
    monitor.snapshot()
    storm.kill_task("app", "c", 0)
    snap = monitor.snapshot()
    scaler.evaluate()  # appends its own snapshot after ``snap``
    restarts = [
        Alert("warning", "storm", "topology 'app' had 1 task restart(s)")
    ]
    assert monitor.evaluate(snap) == restarts
    # a snapshot the monitor never took is compared with the latest one
    built = SystemSnapshot(timestamp=0.0, signals={"topology_restarts": {"app": 2}})
    assert monitor.evaluate(built) == restarts

