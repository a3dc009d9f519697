"""Process-native chaos: real SIGKILL, network, and disk faults.

The fault vocabulary, the trigger list and the loop that fires it live
in :mod:`repro.recovery.faults`; the crash -> recover -> re-attach loop
lives in :class:`~repro.recovery.harness.RecoveryHarness`. This module
adds what only exists when there is an OS underneath:

- :class:`ChaosRuntime` — the methods the process-native rows of the
  fault table fire through. It SIGKILLs supervised hosts and workers,
  arms network-fault windows on the hosts' RPC transports (``_chaos``
  admin op -> ``RpcServer.fault_hook``), and arms one-shot WAL disk
  faults (``_wal_fault`` -> ``DiskFaultShim``). Every host-level fault
  is driven to recovery *synchronously where it fires* (kill -> respawn
  -> WAL replay -> serving probe) and timed into an MTTR sample. It
  also reads the hosts' RPC / WAL tallies for remote-keyed triggers.
- :class:`ChaosOrchestrator` — a serve probe and a report around one
  harness run: it probes front-end serve rate at every barrier and
  distils the run into a :class:`ChaosReport` whose invariants the
  acceptance suites assert: zero lost keys, 100% serve rate, final
  state byte-identical to a fault-free reference.
- :class:`OnlineInvariantMonitor` — invariant probes that run
  concurrently with execution, while the faults are landing.
- :func:`seeded_process_plan` — deterministic generator for plans
  mixing SIGKILLs, partitions, resets, delayed/dropped frames, disk
  faults, and (real-delay) latency spikes; :func:`rekey_plan_midflight`
  moves any barrier-keyed plan onto mid-wave ``tuples`` triggers.

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
from dataclasses import asdict, dataclass, field
from typing import Callable

from repro.errors import FaultPlanError, RemoteOpError
from repro.recovery.faults import (
    Fault,
    FaultPlan,
    Trigger,
    WAL_CORRUPTION_KINDS,
    WAL_FAULT_KINDS,
)
from repro.runtime.rpc import RpcClient
from repro.runtime.substrate import SERVER_HOST_PREFIX, WORKER_PREFIX
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
        flat = asdict(self)
        mttr = {
            name: flat.pop(f"mttr_{name}")
            for name in ("count", "p50", "p99", "max")
        }
        return {**flat, "mttr": mttr, "serve_rate": self.serve_rate}


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
    """Process-native fault methods bound to one ``ProcessSubstrate``.

    The process-native rows of the fault table
    (:data:`repro.recovery.faults.FAULT_KINDS`) fire through these
    methods, from the :class:`FaultInjector`'s barrier hook or execute
    hook. Both run parent-side between worker dispatches, which is what
    lets a host be killed, respawned, and WAL-replayed synchronously
    without racing the worker pool.
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

    # -- SIGKILL ----------------------------------------------------------

    def kill_host(self, host_index: int) -> MttrSample:
        """``kill -9`` a server host, respawn it, replay its WAL, and
        verify it serves again; the whole span is one MTTR sample."""
        start = time.monotonic()
        self._sigkill(self._host(host_index))
        sample = self._recovered(host_index, "host_sigkill", start)
        self.kills["host_sigkill"] = self.kills.get("host_sigkill", 0) + 1
        return sample

    def kill_worker(self, worker_index: int) -> None:
        """SIGKILL a storm worker mid-drain. Recovery is deliberately
        *lazy*: the parent's next dispatch finds the corpse and drives
        respawn + topology reload + re-dispatch — the exactly-once
        layer absorbs the re-executed tuples."""
        self._sigkill(
            self._substrate.supervisor.get(f"{WORKER_PREFIX}{worker_index}")
        )
        self.kills["worker_sigkill"] = (
            self.kills.get("worker_sigkill", 0) + 1
        )

    def _sigkill(self, managed) -> None:
        if managed.alive and managed.pid is not None:
            os.kill(managed.pid, signal.SIGKILL)
        managed.process.join(timeout=10.0)

    def _recovered(self, host_index: int, kind: str, start: float) -> MttrSample:
        """Respawn a dead host and stop the MTTR clock once it answers."""
        # restart hooks repoint the facade and drive _replay_wal; the
        # respawn rebinds the same port, so worker-held proxies survive
        self._substrate.supervisor.restart(self._host(host_index).name)
        self._probe_serving(host_index)
        sample = MttrSample(kind, host_index, time.monotonic() - start)
        self.mttr_samples.append(sample)
        return sample

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
        with RpcClient(*self._host(host_index).address) as rpc:
            rpc.call("_chaos", kind, count, seconds)
        label = record_as or kind
        self.network_faults[label] = (
            self.network_faults.get(label, 0) + count
        )

    def partition(self, host_index: int, direction: str, count: int) -> None:
        """A one-way partition of ``count`` windows. Inbound: requests
        die before dispatch (connection reset); outbound: requests apply
        but their acks never come back."""
        self.network_fault(
            host_index,
            "conn_reset" if direction == "inbound" else "frame_drop",
            count * PARTITION_WIDTH,
            record_as=f"partition_{direction}",
        )

    # -- disk -------------------------------------------------------------

    def disk_fault(self, host_index: int, kind: str) -> "MttrSample | None":
        """Arm a one-shot WAL fault and trigger it with a probe mutation.

        Loud kinds (``torn_write`` / ``disk_full`` / ``fsync_error``):
        the probe will never be acknowledged — the host fail-stops on
        the poisoned append or commit, so the probe's transport error
        *is* the fault firing. Losing an un-acked write is correct; WAL
        replay restores exactly the acknowledged prefix, and the respawn
        is timed into an MTTR sample.

        Silent kinds (``bit_flip`` / ``wal_corrupt``): the append is
        poisoned but the probe IS acknowledged — silence is the property
        under test. The damaged record sits in the log, invisible, until
        the host's next respawn CRC-scans it during replay — at which
        point the substrate quarantines the log and re-seeds the host's
        state from its live replica. The plan must therefore kill this
        host *later* for the corruption to be detected (and the
        acceptance accounting to reconcile injected == detected).
        """
        silent = kind in WAL_CORRUPTION_KINDS
        managed = self._host(host_index)
        server_id = self._local_server(host_index)
        if server_id is None:
            raise FaultPlanError(
                f"host {host_index} owns no data server to poison"
            )
        with RpcClient(*managed.address) as arm:
            arm.call("_wal_fault", kind)
        # an instance the server hosts: the probe mutation exercises
        # the real acceptance path end to end
        instance = self._hosted_instance(server_id)
        start = time.monotonic()
        probe = ("__chaos_probe__", f"{kind}@{host_index}")
        try:
            with RpcClient(*managed.address, timeout=10.0) as trigger:
                trigger.call(
                    "mutate",
                    [(server_id, instance, "put", probe, ())],
                    target=("data", server_id),
                )
        except RemoteOpError:
            if silent:
                raise
            # expected: the host died before (or instead of) acking
        self.disk_faults[kind] = self.disk_faults.get(kind, 0) + 1
        if silent:
            self.corruptions_injected += 1
            return None
        managed.process.join(timeout=10.0)
        return self._recovered(host_index, kind, start)

    # -- plumbing ---------------------------------------------------------

    def _host(self, host_index: int):
        return self._substrate.supervisor.get(
            f"{SERVER_HOST_PREFIX}{host_index}"
        )

    def _hosted_instance(self, server_id: int) -> int:
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
        with RpcClient(*self._host(host_index).address) as rpc:
            rpc.call("_ping")
            server_id = self._local_server(host_index)
            if server_id is not None:
                rpc.call("alive", target=("data", server_id))

    def progress(self) -> dict:
        """Cluster-wide RPC / WAL progress, summed across the hosts:
        what the injector polls for ``rpcs`` / ``wal_records`` triggers."""
        rpcs = 0
        wal_records = 0
        for stats in self._substrate.facade.host_stats():
            rpcs += stats.get("rpc_requests", 0)
            wal_records += (stats.get("wal") or {}).get("records", 0)
        return {"rpcs": rpcs, "wal_records": wal_records}

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
) -> "list[tuple[Trigger, Fault]]":
    """Move a barrier-keyed plan onto mid-wave ``tuples`` triggers.

    A fault at barrier round ``r`` becomes a trigger at
    ``(r - 1) * tuples_per_round + offset`` tuples, with a seeded
    offset inside the round — the fault that used to fire *after* the
    round's wave drains now fires somewhere *inside* it, while tuple
    trees are open and the WAL group-committer holds dirty records.
    Deterministic for a given (plan, tuples_per_round, seed).
    """
    if tuples_per_round < 1:
        raise FaultPlanError(
            f"tuples_per_round must be >= 1, got {tuples_per_round}"
        )
    rng = SeedSequenceFactory(seed).generator("midflight-rekey")
    entries: "list[tuple[Trigger, Fault]]" = []
    for fault in sorted(plan, key=lambda f: f.round):
        offset = int(rng.integers(1, max(2, tuples_per_round)))
        at = max(1, (fault.round - 1) * tuples_per_round + offset)
        entries.append((Trigger("tuples", at), fault))
    return entries


class ChaosOrchestrator:
    """A serve probe and a report around one chaos run of a harness.

    The plan — bare ``Fault``s, ``(Trigger, Fault)`` entries, or both —
    goes to the harness's :class:`FaultInjector`; crashes are recovered
    by the harness's own loop, which re-attaches everything registered
    with it (this probe and ``monitor`` included) to each rebuilt
    cluster. Fault timelines are keyed to progress counters, never wall
    clock — the same seeded plan fires at the same logical points on
    any machine and either substrate. ``serve_probe`` (optional) runs
    at every barrier and returns ``(attempts, answered)`` for the
    front-end serve-rate invariant.
    """

    def __init__(
        self,
        harness,
        plan: FaultPlan,
        *,
        serve_probe: "Callable[[], tuple[int, int]] | None" = None,
        monitor: "OnlineInvariantMonitor | None" = None,
    ):
        self.harness = harness
        self.plan = list(plan)
        self.serve_probe = serve_probe
        self.monitor = monitor
        self.serve_attempts = 0
        self.serve_answered = 0
        self.rounds = 0
        self._attached_to = None
        harness.register(self)
        if monitor is not None:
            harness.register(monitor)

    def attach(self, cluster) -> None:
        self.detach()
        cluster.add_barrier_hook(self._on_barrier)
        self._attached_to = cluster

    def detach(self) -> None:
        if self._attached_to is not None:
            self._attached_to.remove_barrier_hook(self._on_barrier)
            self._attached_to = None

    def _on_barrier(self, barrier_round: int) -> None:
        self.rounds = max(self.rounds, barrier_round)
        if self.serve_probe is not None:
            attempts, answered = self.serve_probe()
            self.serve_attempts += attempts
            self.serve_answered += answered

    def run(self, *, max_crashes: int = 8) -> str:
        """Start the harness under the plan, let it run to completion
        through whatever crashes the plan holds, then flush what the
        stream was too short to reach."""
        self.harness.start(self.plan)
        self.harness.run_to_completion(max_crashes)
        self.harness.injector.flush()
        return "completed"

    def report(
        self,
        *,
        fingerprint: "tuple | None" = None,
        reference: "tuple | None" = None,
    ) -> ChaosReport:
        """Distill the run :meth:`run` made. ``fingerprint``/``reference`` are
        ``(recommendations_bytes, state_digest)`` pairs; when both are
        given the report carries byte-identity and lost-key results."""
        runtime = self.harness.substrate.chaos_runtime()
        injector = self.harness.injector
        report = ChaosReport(
            **(runtime.stats() if runtime is not None else {}),
            serve_attempts=self.serve_attempts,
            serve_answered=self.serve_answered,
            skipped_faults=len(injector.skipped),
            injected_faults=len(injector.injected),
            midflight_fired=len(injector.fired_midflight),
            flushed_faults=len(injector.flushed),
            rounds=self.rounds,
            crashes=self.harness.crashes,
        )
        if runtime is not None:
            # armed mid-drain worker SIGKILLs fire through the injector
            report.kills.setdefault("worker_sigkill", 0)
            accounting = runtime.corruption_accounting(
                cluster=self.harness.cluster
            )
            report.corruptions_injected = accounting["injected"]
            report.corruptions_detected = accounting["detected"]
        if self.monitor is not None:
            report.online_probes = self.monitor.probes
            report.invariant_violations = list(self.monitor.violations)
            report.serve_attempts += self.monitor.serve_attempts
            report.serve_answered += self.monitor.serve_answered
        if fingerprint is not None and reference is not None:
            report.fingerprint_match = fingerprint == reference
            report.lost_keys = lost_keys(reference[1], fingerprint[1])
        return report


# what a seeded plan's delayed frames and (real-delay) latency spikes
# stall for: long against a loopback RPC, short against a test run
DELAY_SECONDS = 0.02
SPIKE_SECONDS = 0.05


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
    disk_faults: "tuple[str, ...]" = (),
    latency_spikes: int = 0,
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
                (_host(), 2, DELAY_SECONDS),
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
                    start, "latency_spike", ("tdstore", server, SPIKE_SECONDS)
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
