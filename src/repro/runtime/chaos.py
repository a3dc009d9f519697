"""Process-native chaos: real SIGKILL, network, and disk faults.

This is the layer ROADMAP item 1 called for: the full chaos vocabulary
running against *real* OS processes instead of the simulator's modeled
failures. Three pieces:

- :class:`ChaosRuntime` — the adapter a :class:`FaultInjector` fires
  process-native faults through. It SIGKILLs supervised hosts and
  workers, arms network-fault windows on the hosts' RPC transports
  (``_chaos`` admin op -> ``RpcServer.fault_hook``), and arms one-shot
  WAL disk faults (``_wal_fault`` -> ``DiskFaultShim``). Every
  host-level fault is driven to recovery *synchronously at the barrier*
  (kill -> respawn -> WAL replay -> serving probe) and timed into an
  MTTR sample.
- :class:`ChaosOrchestrator` — drives a ``RecoveryHarness`` under a
  seeded, barrier-keyed plan (never wall clock: a plan replays
  identically at any machine speed), probing front-end serve rate at
  every barrier and distilling the run into a :class:`ChaosReport`
  whose invariants the acceptance suites assert: zero lost keys, 100%
  serve rate, final state byte-identical to a fault-free reference.
- :func:`seeded_process_plan` — deterministic generator for plans
  mixing SIGKILLs, partitions, resets, delayed/dropped frames, disk
  faults, and (real-delay) latency spikes.

Why the faults converge: every mutating TDStore op is op-journaled
(``put_once``/``apply_op`` dedup) or last-write-wins, acks are withheld
until the WAL's ``fsync`` covers them, and the client proxies retry
transport failures against stable ports. A killed host replays exactly
the acknowledged prefix; a swallowed ack is re-sent and deduped; a
fail-stopped WAL host loses only un-acked writes — which is correct.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import FaultPlanError, RemoteOpError
from repro.recovery.faults import (
    Fault,
    NETWORK_FAULT_KINDS,
    WAL_CORRUPTION_KINDS,
    WAL_FAULT_KINDS,
)
from repro.runtime.rpc import RpcClient
from repro.runtime.wire import CORRUPTION_STATS
from repro.utils.rng import SeedSequenceFactory

# width (in disturbed request frames) of a one_way_partition window;
# kept under the proxies' transport-retry budget so the partition is
# absorbable by design — the proof is convergence, not outage
PARTITION_WIDTH = 2


@dataclass(frozen=True)
class MttrSample:
    """One SIGKILL (or disk-fault fail-stop) -> recovered-and-serving
    measurement: the time from the kill to the respawned host having
    replayed its WAL and answered a data-plane probe."""

    kind: str
    target: int
    seconds: float


@dataclass
class ChaosReport:
    """What a chaos run actually did, and whether it converged."""

    kills: dict = field(default_factory=dict)
    network_faults: dict = field(default_factory=dict)
    disk_faults: dict = field(default_factory=dict)
    mttr_count: int = 0
    mttr_p50: "float | None" = None
    mttr_p99: "float | None" = None
    mttr_max: "float | None" = None
    lost_keys: int = 0
    serve_attempts: int = 0
    serve_answered: int = 0
    fingerprint_match: "bool | None" = None
    skipped_faults: int = 0
    injected_faults: int = 0
    rounds: int = 0
    crashes: int = 0
    corruptions_injected: int = 0
    corruptions_detected: int = 0
    midflight_fired: int = 0
    flushed_faults: int = 0
    online_probes: int = 0
    invariant_violations: "list[str]" = field(default_factory=list)

    @property
    def serve_rate(self) -> float:
        if self.serve_attempts == 0:
            return 1.0
        return self.serve_answered / self.serve_attempts

    def to_dict(self) -> dict:
        return {
            "kills": dict(self.kills),
            "network_faults": dict(self.network_faults),
            "disk_faults": dict(self.disk_faults),
            "mttr": {
                "count": self.mttr_count,
                "p50": self.mttr_p50,
                "p99": self.mttr_p99,
                "max": self.mttr_max,
            },
            "lost_keys": self.lost_keys,
            "serve_attempts": self.serve_attempts,
            "serve_answered": self.serve_answered,
            "serve_rate": self.serve_rate,
            "fingerprint_match": self.fingerprint_match,
            "skipped_faults": self.skipped_faults,
            "injected_faults": self.injected_faults,
            "rounds": self.rounds,
            "crashes": self.crashes,
            "corruptions_injected": self.corruptions_injected,
            "corruptions_detected": self.corruptions_detected,
            "midflight_fired": self.midflight_fired,
            "flushed_faults": self.flushed_faults,
            "online_probes": self.online_probes,
            "invariant_violations": list(self.invariant_violations),
        }


def percentile(values: "list[float]", q: float) -> "float | None":
    """Nearest-rank percentile; None on an empty sample."""
    if not values:
        return None
    ordered = sorted(values)
    rank = round(q / 100.0 * (len(ordered) - 1))
    return ordered[int(min(len(ordered) - 1, max(0, rank)))]


def lost_keys(reference_state: dict, observed_state: dict) -> int:
    """Keys present in a reference state digest but absent after chaos.

    Both arguments are nested section -> {key: value} digests (see
    ``tests.recovery.helpers.state_digest``). Byte-identity is the
    stronger check; this one localizes a divergence to dropped keys.
    """
    lost = 0
    for section, ref in reference_state.items():
        if not isinstance(ref, dict):
            continue
        got = observed_state.get(section)
        got = got if isinstance(got, dict) else {}
        lost += sum(1 for key in ref if key not in got)
    return lost


class ChaosRuntime:
    """Process-native fault adapter bound to one ``ProcessSubstrate``.

    The :class:`FaultInjector` calls :meth:`fire` (and
    :meth:`kill_worker` for armed mid-drain SIGKILLs) from barrier
    hooks — quiescent points with no execution waves in flight, which
    is what lets a host be killed, respawned, and WAL-replayed
    synchronously without racing the worker pool.
    """

    def __init__(self, substrate):
        self._substrate = substrate
        self.kills: dict[str, int] = {}
        self.network_faults: dict[str, int] = {}
        self.disk_faults: dict[str, int] = {}
        self.mttr_samples: list[MttrSample] = []
        self.corruptions_injected = 0
        # CORRUPTION_STATS is process-global; snapshot it so accounting
        # reports only detections that happened under *this* runtime
        self._parent_crc_baseline = CORRUPTION_STATS["frames_detected"]

    # -- dispatch ---------------------------------------------------------

    def fire(self, fault: Fault) -> None:
        kind = fault.kind
        if kind == "host_sigkill":
            self.kill_host(fault.target[0])
        elif kind in ("conn_reset", "frame_drop", "frame_corrupt"):
            self.network_fault(fault.target[0], kind, fault.target[1])
        elif kind == "frame_delay":
            host_index, count, seconds = fault.target
            self.network_fault(host_index, "frame_delay", count, seconds)
        elif kind == "one_way_partition":
            host_index, direction, count = fault.target
            # inbound: requests die before dispatch (connection reset);
            # outbound: requests apply but their acks never come back
            mapped = "conn_reset" if direction == "inbound" else "frame_drop"
            self.network_fault(
                host_index, mapped, count * PARTITION_WIDTH,
                record_as=f"partition_{direction}",
            )
        elif kind in WAL_CORRUPTION_KINDS:
            self.corrupt_wal(fault.target[0], kind)
        elif kind in WAL_FAULT_KINDS:
            self.disk_fault(fault.target[0], kind)
        else:
            raise FaultPlanError(
                f"chaos runtime cannot fire fault kind {kind!r}"
            )

    # -- SIGKILL ----------------------------------------------------------

    def kill_host(self, host_index: int) -> MttrSample:
        """``kill -9`` a server host, respawn it, replay its WAL, and
        verify it serves again; the whole span is one MTTR sample."""
        from repro.runtime.substrate import SERVER_HOST_PREFIX

        name = f"{SERVER_HOST_PREFIX}{host_index}"
        supervisor = self._substrate.supervisor
        managed = supervisor.get(name)
        start = time.monotonic()
        self._sigkill(managed)
        # restart hooks repoint the facade and drive _replay_wal; the
        # respawn rebinds the same port, so worker-held proxies survive
        supervisor.restart(name)
        self._probe_serving(host_index)
        sample = MttrSample(
            "host_sigkill", host_index, time.monotonic() - start
        )
        self.mttr_samples.append(sample)
        self.kills["host_sigkill"] = self.kills.get("host_sigkill", 0) + 1
        return sample

    def kill_worker(self, worker_index: int) -> None:
        """SIGKILL a storm worker mid-drain. Recovery is deliberately
        *lazy*: the parent's next dispatch finds the corpse and drives
        respawn + topology reload + re-dispatch — the exactly-once
        layer absorbs the re-executed tuples."""
        from repro.runtime.substrate import WORKER_PREFIX

        name = f"{WORKER_PREFIX}{worker_index}"
        managed = self._substrate.supervisor.get(name)
        self._sigkill(managed)
        self.kills["worker_sigkill"] = (
            self.kills.get("worker_sigkill", 0) + 1
        )

    def _sigkill(self, managed) -> None:
        if managed.alive and managed.pid is not None:
            os.kill(managed.pid, signal.SIGKILL)
        managed.process.join(timeout=10.0)

    # -- network ----------------------------------------------------------

    def network_fault(
        self,
        host_index: int,
        kind: str,
        count: int,
        seconds: float = 0.0,
        *,
        record_as: "str | None" = None,
    ) -> None:
        """Arm a window of ``count`` transport faults on one host."""
        rpc = self._host_rpc(host_index)
        try:
            rpc.call("_chaos", kind, count, seconds)
        finally:
            rpc.close()
        label = record_as or kind
        self.network_faults[label] = (
            self.network_faults.get(label, 0) + count
        )

    # -- disk -------------------------------------------------------------

    def disk_fault(self, host_index: int, kind: str) -> MttrSample:
        """Arm a one-shot WAL fault, trigger it, and recover the host.

        The trigger is a probe mutation that will never be acknowledged:
        the host fail-stops on the poisoned append (``torn_write`` /
        ``disk_full``) or commit (``fsync_error``), so the probe's
        transport error *is* the fault firing. Losing an un-acked write
        is correct; WAL replay restores exactly the acknowledged prefix.
        """
        from repro.runtime.substrate import SERVER_HOST_PREFIX

        name = f"{SERVER_HOST_PREFIX}{host_index}"
        supervisor = self._substrate.supervisor
        managed = supervisor.get(name)
        server_id = self._local_server(host_index)
        if server_id is None:
            raise FaultPlanError(
                f"host {host_index} owns no data server to poison"
            )
        arm = RpcClient(*managed.address)
        try:
            arm.call("_wal_fault", kind)
        finally:
            arm.close()
        instance = self._hosted_instance(server_id)
        start = time.monotonic()
        trigger = RpcClient(*managed.address, timeout=10.0)
        try:
            probe = ("__chaos_probe__", f"{kind}@{host_index}")
            trigger.call(
                "mutate",
                [(server_id, instance, "put", probe, ())],
                target=("data", server_id),
            )
        except RemoteOpError:
            pass  # expected: the host died before (or instead of) acking
        finally:
            trigger.close()
        managed.process.join(timeout=10.0)
        supervisor.restart(name)
        self._probe_serving(host_index)
        sample = MttrSample(kind, host_index, time.monotonic() - start)
        self.mttr_samples.append(sample)
        self.disk_faults[kind] = self.disk_faults.get(kind, 0) + 1
        return sample

    def corrupt_wal(self, host_index: int, kind: str) -> None:
        """Arm a *silent* WAL corruption and trigger it with a probe
        mutation that IS acknowledged.

        Unlike the loud disk faults, nothing fail-stops here: the
        damaged record sits in the log, invisible, until the host's
        next respawn CRC-scans it during replay — at which point the
        substrate quarantines the log and re-seeds the host's state
        from its live replica. The plan must therefore kill this host
        *later* for the corruption to be detected (and the acceptance
        accounting to reconcile injected == detected).
        """
        from repro.runtime.substrate import SERVER_HOST_PREFIX

        managed = self._substrate.supervisor.get(
            f"{SERVER_HOST_PREFIX}{host_index}"
        )
        server_id = self._local_server(host_index)
        if server_id is None:
            raise FaultPlanError(
                f"host {host_index} owns no data server to corrupt"
            )
        arm = RpcClient(*managed.address)
        try:
            arm.call("_wal_fault", kind)
        finally:
            arm.close()
        instance = self._hosted_instance(server_id)
        trigger = RpcClient(*managed.address, timeout=10.0)
        try:
            # the append is poisoned but the op acks normally — silence
            # is the property under test
            probe = ("__chaos_probe__", f"{kind}@{host_index}")
            trigger.call(
                "mutate",
                [(server_id, instance, "put", probe, ())],
                target=("data", server_id),
            )
        finally:
            trigger.close()
        self.disk_faults[kind] = self.disk_faults.get(kind, 0) + 1
        self.corruptions_injected += 1

    # -- plumbing ---------------------------------------------------------

    def _host_rpc(self, host_index: int) -> RpcClient:
        from repro.runtime.substrate import SERVER_HOST_PREFIX

        managed = self._substrate.supervisor.get(
            f"{SERVER_HOST_PREFIX}{host_index}"
        )
        return RpcClient(*managed.address)

    def _hosted_instance(self, server_id: int) -> int:
        """An instance the server currently hosts — a probe mutation
        against it exercises the real acceptance path end to end."""
        table = self._substrate.facade.config.route_table()
        for instance in range(table.num_instances):
            if table.route(instance).host == server_id:
                return instance
        raise FaultPlanError(
            f"data server {server_id} hosts no instance to probe"
        )

    def _local_server(self, host_index: int) -> "int | None":
        facade = self._substrate.facade
        if facade is None:
            return None
        for sid, host in sorted(facade.placement.items()):
            if host == host_index:
                return sid
        return None

    def _probe_serving(self, host_index: int) -> None:
        """The recovered host must answer both the admin plane and a
        data-plane read before the MTTR clock stops."""
        rpc = self._host_rpc(host_index)
        try:
            rpc.call("_ping")
            server_id = self._local_server(host_index)
            if server_id is not None:
                rpc.call(".alive", target=("data", server_id))
        finally:
            rpc.close()

    def stats(self) -> dict:
        durations = [s.seconds for s in self.mttr_samples]
        return {
            "kills": dict(self.kills),
            "network_faults": dict(self.network_faults),
            "disk_faults": dict(self.disk_faults),
            "mttr_count": len(durations),
            "mttr_p50": percentile(durations, 50),
            "mttr_p99": percentile(durations, 99),
            "mttr_max": max(durations) if durations else None,
        }

    def corruption_accounting(self, cluster=None) -> dict:
        """Reconcile corruption injected vs detected, cluster-wide.

        Injected: silent WAL corruptions armed by this runtime plus
        response frames the hosts' RPC servers actually damaged
        (``corrupt_response`` fires at send time, so the host's own
        tally is authoritative even when a window partially drains).

        Detected: CRC failures everywhere a frame is decoded — the
        parent process (client proxies), each host and worker process
        (their ``_stats`` carry ``frame_corruptions_detected``), and
        WAL replay scans (counted parent-side by the substrate when a
        respawn surfaces :class:`~repro.runtime.wal.WalError`, so a
        host that dies of its own scan does not double-report).
        """
        injected = self.corruptions_injected
        detected = max(
            0, CORRUPTION_STATS["frames_detected"] - self._parent_crc_baseline
        )
        detected += getattr(self._substrate, "wal_corruptions_detected", 0)
        facade = getattr(self._substrate, "facade", None)
        if facade is not None:
            for stats in facade.host_stats():
                chaos = stats.get("chaos") or {}
                injected += (chaos.get("injected") or {}).get(
                    "corrupt_response", 0
                )
                detected += stats.get("frame_corruptions_detected", 0)
        if cluster is not None and hasattr(cluster, "worker_stats"):
            for stats in cluster.worker_stats():
                detected += stats.get("frame_corruptions_detected", 0)
        return {"injected": injected, "detected": detected}


MIDFLIGHT_COUNTERS = ("tuples", "rpcs", "wal_records")

# poll remote counters (host RPC/WAL tallies) every N executions — a
# counter RPC per tuple would dominate the run without adding precision
MIDFLIGHT_POLL_EVERY = 4


@dataclass(frozen=True)
class MidFlightTrigger:
    """Fire a fault when a progress counter crosses ``at``.

    ``counter`` is one of :data:`MIDFLIGHT_COUNTERS`:

    - ``"tuples"`` — bolt executions observed parent-side;
    - ``"rpcs"`` — RPC requests served across the TDStore hosts;
    - ``"wal_records"`` — WAL records appended across the hosts.

    All three are monotone progress measures, never wall clock, so a
    seeded mid-flight schedule replays at any machine speed. On the
    simulator substrate (no host processes, so no remote counters) the
    remote counters degrade to the tuple counter — the plan still
    replays completely, with the process-native kinds recorded skipped.
    """

    counter: str
    at: int

    def __post_init__(self):
        if self.counter not in MIDFLIGHT_COUNTERS:
            raise FaultPlanError(
                f"unknown mid-flight counter {self.counter!r}; "
                f"expected one of {MIDFLIGHT_COUNTERS}"
            )
        if self.at < 0:
            raise FaultPlanError(
                f"mid-flight threshold must be >= 0, got {self.at}"
            )


class _MidFlightEntry:
    __slots__ = ("trigger", "fault", "fired")

    def __init__(self, trigger: MidFlightTrigger, fault: Fault):
        self.trigger = trigger
        self.fault = fault
        self.fired = False


class MidFlightScheduler:
    """Non-quiescent fault scheduling: faults land *mid-wave*.

    Barrier hooks fire at quiescent points — every queue drained, no
    tuple trees open. That is exactly when real failures do **not**
    happen. This scheduler keys faults to execute hooks instead: a
    SIGKILL, partition, or silent corruption fires while tuple trees
    are open, acks are pending, and the WAL group-committer holds dirty
    records.

    Execute hooks run parent-side between worker dispatches, so firing
    a fault here is race-free with the RPC plumbing while still landing
    mid-wave from the system's point of view: workers hold queued
    tuples, un-acked writes, and open ledgers when the fault lands.

    ``flush()`` fires whatever the stream was too short to reach — a
    plan always completes, so cross-substrate runs stay comparable.
    """

    def __init__(
        self, entries: "list[tuple[MidFlightTrigger, Fault]]"
    ):
        self._entries = [_MidFlightEntry(t, f) for t, f in entries]
        self._injector = None
        self._counter_source: "Callable[[], dict] | None" = None
        self._attached_to = None
        self._tuples = 0
        self._since_poll = 0
        self._remote: dict = {"rpcs": 0, "wal_records": 0}
        self.fired_midflight: "list[Fault]" = []
        self.flushed: "list[Fault]" = []

    # -- wiring -----------------------------------------------------------

    def attach(self, cluster, injector, counter_source=None) -> None:
        """Hook into ``cluster``'s execute stream, firing through
        ``injector``. ``counter_source`` (process substrate only) is a
        zero-arg callable returning ``{"rpcs": int, "wal_records": int}``
        summed across hosts; None degrades remote triggers to tuples."""
        self.detach()
        self._injector = injector
        self._counter_source = counter_source
        cluster.add_execute_hook(self._on_execute)
        self._attached_to = cluster

    def detach(self) -> None:
        if self._attached_to is not None:
            self._attached_to.remove_execute_hook(self._on_execute)
            self._attached_to = None

    def pending(self) -> int:
        return sum(1 for entry in self._entries if not entry.fired)

    # -- the non-quiescent trigger path -----------------------------------

    def _on_execute(self, topology_name: str) -> None:
        self._tuples += 1
        if self.pending() == 0:
            return
        if self._counter_source is not None and self._remote_pending():
            self._since_poll += 1
            if self._since_poll >= MIDFLIGHT_POLL_EVERY:
                self._since_poll = 0
                try:
                    polled = self._counter_source()
                except RemoteOpError:
                    polled = None  # a host is mid-respawn; poll next time
                if polled is not None:
                    self._remote.update(polled)
        self._fire_due(self._counters(), self.fired_midflight)

    def _remote_pending(self) -> bool:
        return any(
            not entry.fired and entry.trigger.counter != "tuples"
            for entry in self._entries
        )

    def _counters(self) -> dict:
        if self._counter_source is None:
            # simulator fallback: every counter is tuple progress
            return {
                "tuples": self._tuples,
                "rpcs": self._tuples,
                "wal_records": self._tuples,
            }
        counters = dict(self._remote)
        counters["tuples"] = self._tuples
        return counters

    def _fire_due(self, counters: dict, record_into: "list[Fault]") -> None:
        for entry in self._entries:
            if entry.fired:
                continue
            if counters.get(entry.trigger.counter, 0) >= entry.trigger.at:
                entry.fired = True
                record_into.append(entry.fault)
                if self._injector is not None:
                    self._injector.fire_now(entry.fault)

    def flush(self) -> int:
        """Fire every remaining trigger at quiescence (stream ended
        before its counter crossed the threshold). Returns the count."""
        remaining = [e for e in self._entries if not e.fired]
        for entry in remaining:
            entry.fired = True
            self.flushed.append(entry.fault)
            if self._injector is not None:
                self._injector.fire_now(entry.fault)
        return len(remaining)


class OnlineInvariantMonitor:
    """Invariant probes that run *concurrently with* execution.

    The acceptance suites check invariants after the run; this monitor
    checks them while faults are landing — every ``every`` executions:

    - **route-epoch monotonicity**: the config server's route-table
      version must never regress (a regressed epoch would let stale
      routes win fencing races);
    - **ledger watermark sanity**: every task ledger reports
      ``within_bound`` (the dedup window never silently under-covers
      the retained offsets);
    - **serve probe** (optional): front-end reads answered under fire.

    Probes that cannot reach a component mid-failover are not
    violations — unavailability windows are the chaos being injected;
    only *wrong answers* (regressed epoch, out-of-bound ledger) are.
    """

    def __init__(
        self,
        harness,
        *,
        every: int = 16,
        serve_probe: "Callable[[], tuple[int, int]] | None" = None,
    ):
        self.harness = harness
        self.every = max(1, every)
        self.serve_probe = serve_probe
        self.probes = 0
        self.violations: "list[str]" = []
        self.serve_attempts = 0
        self.serve_answered = 0
        self._executions = 0
        self._last_epoch: "int | None" = None
        self._attached_to = None

    def attach(self, cluster) -> None:
        self.detach()
        cluster.add_execute_hook(self._on_execute)
        self._attached_to = cluster

    def detach(self) -> None:
        if self._attached_to is not None:
            self._attached_to.remove_execute_hook(self._on_execute)
            self._attached_to = None

    def _on_execute(self, topology_name: str) -> None:
        self._executions += 1
        if self._executions % self.every == 0:
            self.probe(topology_name)

    def probe(self, topology_name: "str | None" = None) -> None:
        self.probes += 1
        self._probe_route_epoch()
        self._probe_ledgers(topology_name)
        if self.serve_probe is not None:
            attempts, answered = self.serve_probe()
            self.serve_attempts += attempts
            self.serve_answered += answered

    def _probe_route_epoch(self) -> None:
        try:
            version = self.harness.tdstore.config.route_table().version
        except Exception:
            return  # config server mid-failover: unavailability, not error
        if self._last_epoch is not None and version < self._last_epoch:
            self.violations.append(
                f"route epoch regressed: {self._last_epoch} -> {version}"
            )
        if self._last_epoch is None or version > self._last_epoch:
            self._last_epoch = version

    def _probe_ledgers(self, topology_name: "str | None") -> None:
        if topology_name is None:
            return
        try:
            stats = self.harness.cluster.exactly_once_stats(topology_name)
        except Exception:
            return  # a worker is mid-respawn: probe again next window
        for task, ledger in stats.items():
            if ledger.get("within_bound") is False:
                self.violations.append(
                    f"ledger watermark out of bound at {task}"
                )


def rekey_plan_midflight(
    plan: "list[Fault]",
    tuples_per_round: int,
    seed: int = 0,
) -> "list[tuple[MidFlightTrigger, Fault]]":
    """Convert a barrier-keyed plan into mid-flight tuple triggers.

    A fault at barrier round ``r`` becomes a trigger at
    ``(r - 1) * tuples_per_round + offset`` tuples, with a seeded
    offset inside the round — the fault that used to fire *after* the
    round's wave drains now fires somewhere *inside* it. Deterministic
    for a given (plan, tuples_per_round, seed).
    """
    if tuples_per_round < 1:
        raise FaultPlanError(
            f"tuples_per_round must be >= 1, got {tuples_per_round}"
        )
    rng = SeedSequenceFactory(seed).generator("midflight-rekey")
    entries: "list[tuple[MidFlightTrigger, Fault]]" = []
    for fault in sorted(plan, key=lambda f: f.round):
        offset = int(rng.integers(1, max(2, tuples_per_round)))
        at = max(1, (fault.round - 1) * tuples_per_round + offset)
        entries.append((MidFlightTrigger("tuples", at), fault))
    return entries


class ChaosOrchestrator:
    """Barrier-keyed chaos driver over a :class:`RecoveryHarness`.

    Fault timelines are keyed to progress barriers, never wall clock —
    the same seeded plan fires at the same logical points on any
    machine and either substrate. ``serve_probe`` (optional) runs at
    every barrier and returns ``(attempts, answered)`` for the
    front-end serve-rate invariant.
    """

    def __init__(
        self,
        harness,
        plan: "list[Fault]",
        *,
        serve_probe: "Callable[[], tuple[int, int]] | None" = None,
        scheduler: "MidFlightScheduler | None" = None,
        monitor: "OnlineInvariantMonitor | None" = None,
    ):
        self.harness = harness
        self.plan = list(plan)
        self.serve_probe = serve_probe
        self.scheduler = scheduler
        self.monitor = monitor
        self.serve_attempts = 0
        self.serve_answered = 0
        self.rounds = 0
        self.crashes = 0

    def _on_barrier(self, barrier_round: int) -> None:
        self.rounds = max(self.rounds, barrier_round)
        if self.serve_probe is not None:
            attempts, answered = self.serve_probe()
            self.serve_attempts += attempts
            self.serve_answered += answered

    def _hook_storm(self) -> None:
        self.harness.cluster.add_barrier_hook(self._on_barrier)
        if self.scheduler is not None:
            # fired flags persist across re-attach: a crash/rebuild never
            # re-fires an already-landed mid-flight fault
            self.scheduler.attach(
                self.harness.cluster,
                self.harness.injector,
                self._counter_source(),
            )
        if self.monitor is not None:
            self.monitor.attach(self.harness.cluster)

    def _counter_source(self) -> "Callable[[], dict] | None":
        """Cluster-wide RPC/WAL progress reader for mid-flight triggers;
        None on the simulator substrate (no host processes to poll)."""
        facade = getattr(self.harness.substrate, "facade", None)
        if facade is None or not hasattr(facade, "host_stats"):
            return None

        def read() -> dict:
            rpcs = 0
            wal_records = 0
            for stats in facade.host_stats():
                rpcs += stats.get("rpc_requests", 0)
                wal_records += (stats.get("wal") or {}).get("records", 0)
            return {"rpcs": rpcs, "wal_records": wal_records}

        return read

    def run(self, *, max_crashes: int = 8) -> str:
        """Start the harness under the plan and drive it to completion,
        re-hooking the rebuilt storm cluster after each crash."""
        self.harness.start(self.plan)
        self._hook_storm()
        while True:
            status = self.harness.run()
            if status != "crashed":
                if self.scheduler is not None:
                    self.scheduler.flush()
                return status
            self.crashes += 1
            if self.crashes > max_crashes:
                raise FaultPlanError(
                    f"chaos run exceeded {max_crashes} crash recoveries"
                )
            self.harness.recover()
            self._hook_storm()

    def report(
        self,
        *,
        fingerprint: "tuple | None" = None,
        reference: "tuple | None" = None,
    ) -> ChaosReport:
        """Distill the run. ``fingerprint``/``reference`` are
        ``(recommendations_bytes, state_digest)`` pairs; when both are
        given the report carries byte-identity and lost-key results."""
        runtime = self.harness.substrate.chaos_runtime()
        stats = runtime.stats() if runtime is not None else {}
        injector = self.harness.injector
        report = ChaosReport(
            kills=stats.get("kills", {}),
            network_faults=stats.get("network_faults", {}),
            disk_faults=stats.get("disk_faults", {}),
            mttr_count=stats.get("mttr_count", 0),
            mttr_p50=stats.get("mttr_p50"),
            mttr_p99=stats.get("mttr_p99"),
            mttr_max=stats.get("mttr_max"),
            serve_attempts=self.serve_attempts,
            serve_answered=self.serve_answered,
            skipped_faults=len(injector.skipped) if injector else 0,
            injected_faults=len(injector.injected) if injector else 0,
            rounds=self.rounds,
            crashes=self.crashes,
        )
        if runtime is not None:
            # armed mid-drain worker SIGKILLs fire through the injector
            report.kills.setdefault("worker_sigkill", 0)
            accounting = runtime.corruption_accounting(
                cluster=self.harness.cluster
            )
            report.corruptions_injected = accounting["injected"]
            report.corruptions_detected = accounting["detected"]
        if self.scheduler is not None:
            report.midflight_fired = len(self.scheduler.fired_midflight)
            report.flushed_faults = len(self.scheduler.flushed)
        if self.monitor is not None:
            report.online_probes = self.monitor.probes
            report.invariant_violations = list(self.monitor.violations)
            report.serve_attempts += self.monitor.serve_attempts
            report.serve_answered += self.monitor.serve_answered
        if fingerprint is not None and reference is not None:
            report.fingerprint_match = fingerprint == reference
            report.lost_keys = lost_keys(reference[1], fingerprint[1])
        return report


def seeded_process_plan(
    seed: int,
    *,
    horizon: int,
    hosts: int,
    workers: int,
    host_kills: int = 1,
    worker_kills: int = 1,
    partitions: int = 1,
    conn_resets: int = 1,
    frame_drops: int = 1,
    frame_delays: int = 1,
    delay_seconds: float = 0.02,
    disk_faults: "tuple[str, ...]" = (),
    latency_spikes: int = 0,
    spike_seconds: float = 0.05,
    tdstore_servers: "list[int] | None" = None,
    sigkill_after: int = 3,
    rewind_depth: int = 6,
) -> "list[Fault]":
    """Deterministic process-native chaos plan.

    Host SIGKILLs and disk faults start at round 2 (some acknowledged
    state must exist for WAL replay to prove anything); network-fault
    windows stay narrow enough for the transport-retry budget to
    absorb, because the invariant under test is convergence.
    """
    if horizon < 4:
        raise FaultPlanError(
            f"horizon too short to schedule faults: {horizon}"
        )
    rng = SeedSequenceFactory(seed).generator("process-fault-plan")
    plan: list[Fault] = []

    def _round(lo: int, hi: int) -> int:
        return int(rng.integers(lo, max(lo + 1, hi)))

    def _host() -> int:
        return int(rng.integers(0, hosts))

    for _ in range(host_kills):
        plan.append(Fault(_round(2, horizon), "host_sigkill", (_host(),)))
    for _ in range(worker_kills):
        plan.append(
            Fault(
                _round(2, horizon),
                "worker_sigkill",
                (int(rng.integers(0, workers)), sigkill_after, rewind_depth),
            )
        )
    for _ in range(partitions):
        direction = "inbound" if int(rng.integers(0, 2)) == 0 else "outbound"
        plan.append(
            Fault(
                _round(1, horizon),
                "one_way_partition",
                (_host(), direction, 1),
            )
        )
    for _ in range(conn_resets):
        plan.append(Fault(_round(1, horizon), "conn_reset", (_host(), 1)))
    for _ in range(frame_drops):
        plan.append(Fault(_round(1, horizon), "frame_drop", (_host(), 1)))
    for _ in range(frame_delays):
        plan.append(
            Fault(
                _round(1, horizon),
                "frame_delay",
                (_host(), 2, delay_seconds),
            )
        )
    for kind in disk_faults:
        if kind not in WAL_FAULT_KINDS:
            raise FaultPlanError(f"unknown disk fault kind {kind!r}")
        plan.append(Fault(_round(2, horizon), kind, (_host(),)))
    if tdstore_servers:
        for _ in range(latency_spikes):
            server = tdstore_servers[
                int(rng.integers(0, len(tdstore_servers)))
            ]
            start = _round(1, horizon - 2)
            plan.append(
                Fault(
                    start, "latency_spike", ("tdstore", server, spike_seconds)
                )
            )
            plan.append(
                Fault(
                    start + _round(1, 3),
                    "clear_degradation",
                    ("tdstore", server),
                )
            )
    return sorted(plan, key=lambda fault: fault.round)


__all__ = [
    "ChaosOrchestrator",
    "ChaosReport",
    "ChaosRuntime",
    "MidFlightScheduler",
    "MidFlightTrigger",
    "MttrSample",
    "OnlineInvariantMonitor",
    "lost_keys",
    "percentile",
    "rekey_plan_midflight",
    "seeded_process_plan",
    "MIDFLIGHT_COUNTERS",
    "PARTITION_WIDTH",
    "NETWORK_FAULT_KINDS",
    "WAL_CORRUPTION_KINDS",
    "WAL_FAULT_KINDS",
]
