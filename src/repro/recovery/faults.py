"""The fault vocabulary, its triggers, and the one loop that fires them.

Three things live here, and nothing else in ``src/`` repeats them:

- **The kind table** (:data:`FAULT_KINDS`): one :class:`FaultKind` row
  per fault kind — name, target schema, fire function, process-native
  flag. :class:`Fault` validation, dispatch on both substrates, the
  simulator's ``skipped`` rule and the exported kind sets are all read
  off the rows; adding a kind is adding a row.
- **The trigger list**: a plan is a list of ``(Trigger, Fault)`` — fire
  this fault when that progress counter (barrier rounds, bolt
  executions, host RPCs, WAL records; never wall clock) reaches this
  threshold. A bare :class:`Fault` is sugar for a ``rounds`` trigger at
  ``fault.round``.
- **The firing loop** (:class:`FaultInjector`): the only object that
  puts a fault-firing hook on a cluster. Its barrier hook and its
  execute hook feed one loop that fires every entry that has come due.

Faults cover every layer of the deployment — Storm task kills, TDStore
and TDAccess server crashes/recoveries, master failovers, grey-failure
degradations, at-least-once replays, real SIGKILL / network / disk
faults on the process substrate — plus ``crash_process``, which raises
:class:`~repro.errors.SimulatedCrash` to model the whole computation
process dying (taking Storm task state and the memory-based TDStore
with it; only the TDAccess logs and the checkpoint store survive).
Plans are scripted, or generated deterministically from a seed with
:func:`seeded_plan` (and ``repro.runtime.chaos.seeded_process_plan``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.errors import FaultPlanError, RemoteOpError, SimulatedCrash
from repro.faultkinds import DISK_FAULT_KINDS, SILENT_CORRUPTION_KINDS
from repro.utils.rng import SeedSequenceFactory

if TYPE_CHECKING:
    from repro.storm.cluster import LocalCluster
    from repro.tdaccess.cluster import TDAccessCluster
    from repro.tdaccess.consumer import Consumer
    from repro.tdstore.cluster import TDStoreCluster

PARTITION_DIRECTIONS = frozenset({"inbound", "outbound"})

# layers the degradation faults can target
LAYERS = frozenset({"tdstore", "tdaccess"})

# a brownout models an overloaded-but-alive server: it answers slowly
# and drops a deterministic fraction of requests
BROWNOUT_LATENCY = 0.1
BROWNOUT_ERROR_EVERY = 2

COUNTERS = ("rounds", "tuples", "rpcs", "wal_records")

# poll remote counters (host RPC/WAL tallies) every N executions — a
# counter RPC per tuple would dominate the run without adding precision
MIDFLIGHT_POLL_EVERY = 4


# -- the kind table ---------------------------------------------------------


@dataclass(frozen=True)
class FaultKind:
    """One row of the fault vocabulary.

    ``target`` is the schema of ``Fault.target``: one ``(label, check)``
    field per position. ``fire(injector, fault)`` makes the fault happen
    against whatever the injector is wired to. ``native`` marks kinds
    that only exist on real OS processes: with no chaos runtime wired
    (the simulator) the injector records them in ``skipped`` instead of
    firing — the convergence proof compares a process run under these
    faults against a fault-free reference, so a sim run of the same plan
    legitimately reduces to the fault-free case. ``strike`` is the
    second phase of a mid-drain kill: ``fire`` only arms a ``tuples``
    trigger ``after_executions`` ahead, and ``strike`` runs when it
    comes due.
    """

    name: str
    target: tuple
    fire: Callable
    native: bool = False
    strike: "Callable | None" = None

    def check(self, target: tuple):
        if len(target) != len(self.target) or not all(
            ok(value) for (__, ok), value in zip(self.target, target)
        ):
            labels = ", ".join(label for label, __ in self.target)
            raise FaultPlanError(
                f"{self.name} target must be ({labels}): {target}"
            )


def _int_from(lowest: int):
    return lambda value: isinstance(value, int) and value >= lowest


def _anything(value) -> bool:
    return True


# target fields: the label is what a refused plan is told it needed
COMPONENT = ("component", _anything)
TASK = ("task_index", _anything)
SERVER = ("server_id", _anything)
LAYER = ("layer in {'tdstore', 'tdaccess'}", LAYERS.__contains__)
HOST = ("host_index >= 0", _int_from(0))
WORKER = ("worker_index >= 0", _int_from(0))
COUNT = ("count >= 1", _int_from(1))
AFTER = ("after_executions >= 1", _int_from(1))
REWIND = ("rewind >= 1", _int_from(1))
DIRECTION = (
    "direction in {'inbound', 'outbound'}", PARTITION_DIRECTIONS.__contains__,
)
DELAY = (
    "seconds > 0",
    lambda value: isinstance(value, (int, float)) and value > 0,
)


def _crash_process(inj, fault):
    raise SimulatedCrash("fault plan crashed the computation process")


def _arm_strike(inj, fault):
    inj._arm(fault, after=fault.target[-2])


def _strike_task(inj, fault):
    # the kill: the task's in-memory state (dedup ledger included) is
    # gone; its queued tuples survive to the fresh instance
    component, task_index, __, rewind = fault.target
    inj._storm.kill_task(inj._topology, component, task_index)
    inj.midtree_fired += 1
    inj._rewind_all(rewind)


def _strike_worker(inj, fault):
    # SIGKILL the whole worker process mid-drain; the parent's next
    # dispatch to it finds the corpse and drives respawn + reload +
    # re-dispatch
    worker_index, __, rewind = fault.target
    inj._runtime.kill_worker(worker_index)
    inj.sigkills_fired += 1
    inj._rewind_all(rewind)


def _network_window(inj, fault):
    host_index, *window = fault.target  # (count,) or (count, seconds)
    inj._runtime.network_fault(host_index, fault.kind, *window)


# a row's fire function takes (injector, fault); targets are validated
# before anything fires, so ``*f.target`` is the schema's fields in order
_ROWS = [
    FaultKind("kill_task", (COMPONENT, TASK),
              lambda inj, f: inj._storm.kill_task(inj._topology, *f.target)),
    FaultKind("crash_tdstore", (SERVER,),
              lambda inj, f: inj._tdstore.crash_data_server(*f.target)),
    FaultKind("recover_tdstore", (SERVER,),
              lambda inj, f: inj._tdstore.recover_data_server(*f.target)),
    FaultKind("crash_tdaccess_server", (SERVER,),
              lambda inj, f: inj._tdaccess.crash_data_server(*f.target)),
    FaultKind("recover_tdaccess_server", (SERVER,),
              lambda inj, f: inj._tdaccess.recover_data_server(*f.target)),
    FaultKind("failover_tdaccess_master", (),
              lambda inj, f: inj._tdaccess.failover_master()),
    FaultKind("crash_process", (), _crash_process),
    # degradation faults: the server stays up but misbehaves
    FaultKind("latency_spike", (LAYER, SERVER, ("seconds", _anything)),
              lambda inj, f: inj._slow_down(*f.target)),
    FaultKind("error_rate", (LAYER, SERVER, ("every_n", _anything)),
              lambda inj, f: inj._layer(f.target[0]).set_degradation(
                  f.target[1], error_every=f.target[2])),
    FaultKind("brownout", (LAYER, SERVER),
              lambda inj, f: inj._slow_down(
                  *f.target, BROWNOUT_LATENCY, BROWNOUT_ERROR_EVERY)),
    FaultKind("clear_degradation", (LAYER, SERVER),
              lambda inj, f: inj._layer(f.target[0]).clear_degradation(
                  f.target[1])),
    # replay faults: at-least-once delivery showing its teeth
    FaultKind("duplicate_delivery", (("consumer_name", _anything), REWIND),
              lambda inj, f: inj._rewind_consumer(*f.target)),
    FaultKind("worker_kill_midtree", (COMPONENT, TASK, AFTER, REWIND),
              _arm_strike, strike=_strike_task),
    # process-native kinds, fired through the substrate's chaos runtime
    FaultKind("host_sigkill", (HOST,),
              lambda inj, f: inj._runtime.kill_host(*f.target), native=True),
    FaultKind("worker_sigkill", (WORKER, AFTER, REWIND),
              _arm_strike, native=True, strike=_strike_worker),
]
_NETWORK_ROWS = [
    FaultKind("conn_reset", (HOST, COUNT), _network_window, native=True),
    FaultKind("frame_drop", (HOST, COUNT), _network_window, native=True),
    FaultKind("frame_corrupt", (HOST, COUNT), _network_window, native=True),
    FaultKind("frame_delay", (HOST, COUNT, DELAY), _network_window,
              native=True),
    FaultKind("one_way_partition", (HOST, DIRECTION, COUNT),
              lambda inj, f: inj._runtime.partition(*f.target), native=True),
]
_WAL_ROWS = [
    # whatever the host's disk shim can arm
    FaultKind(name, (HOST,),
              lambda inj, f: inj._runtime.disk_fault(f.target[0], f.kind),
              native=True)
    for name in sorted(DISK_FAULT_KINDS)
]
_ROWS += _NETWORK_ROWS + _WAL_ROWS

FAULT_KINDS: "dict[str, FaultKind]" = {row.name: row for row in _ROWS}

KINDS = frozenset(FAULT_KINDS)
PROCESS_KINDS = frozenset(row.name for row in _ROWS if row.native)
NETWORK_FAULT_KINDS = frozenset(row.name for row in _NETWORK_ROWS)
# the WAL rows are built from the disk shim's own sets, so these *are*
# those sets. Silent-corruption kinds: the faulted call succeeds — the
# mutation is acked — and only checksum verification can tell.
WAL_FAULT_KINDS = DISK_FAULT_KINDS
WAL_CORRUPTION_KINDS = SILENT_CORRUPTION_KINDS


@dataclass(frozen=True)
class Fault:
    """One scheduled fault.

    ``round`` is the barrier round at (or after) which the fault fires
    when the plan lists it bare; paired with an explicit
    :class:`Trigger` it is ignored. ``target`` depends on the kind (the
    schema is the kind's :data:`FAULT_KINDS` row): ``(component,
    task_index)`` for ``kill_task``, ``(server_id,)`` for the
    TDStore/TDAccess server kinds, and empty for master failover and
    process crash. The degradation kinds target a layer: ``(layer,
    server_id, seconds)`` for ``latency_spike``, ``(layer, server_id,
    every_n)`` for ``error_rate``, and ``(layer, server_id)`` for
    ``brownout`` and ``clear_degradation``, with ``layer`` one of
    ``tdstore`` / ``tdaccess``.

    The replay kinds: ``duplicate_delivery`` targets
    ``(consumer_name, rewind)`` — the named source consumer seeks back
    ``rewind`` offsets per partition, so the spout re-delivers messages
    whose trees already completed. ``worker_kill_midtree`` targets
    ``(component, task_index, after_executions, rewind)`` — firing it
    arms a ``tuples`` trigger ``after_executions`` bolt executions
    ahead; when that comes due *mid-drain* the task is killed (losing
    its in-memory dedup ledger) and every wired consumer rewinds, the
    worst replay case the store-side op journal exists for.

    The process-native kinds (fired through the substrate's chaos
    runtime; recorded as skipped on the simulator): ``host_sigkill``
    targets ``(host_index,)`` — ``kill -9`` of a TDStore server host,
    respawned with WAL replay. ``worker_sigkill`` targets
    ``(worker_index, after_executions, rewind)`` — armed like a
    mid-tree kill, but the SIGKILL takes a whole worker process
    mid-drain. ``conn_reset`` / ``frame_drop`` target
    ``(host_index, count)``; ``frame_delay`` targets
    ``(host_index, count, seconds)``; ``one_way_partition`` targets
    ``(host_index, direction, count)`` with ``direction`` ``inbound``
    (requests die before dispatch) or ``outbound`` (acks die after
    apply). The WAL disk kinds ``torn_write`` / ``disk_full`` /
    ``fsync_error`` target ``(host_index,)`` and fail-stop the host on
    its next logged mutation.

    The silent-corruption kinds: ``bit_flip`` / ``wal_corrupt`` target
    ``(host_index,)`` — the host's next logged mutation is acked but
    written damaged; detection happens at the next WAL replay, whose
    CRC check quarantines the log and re-seeds the host's servers from
    replicas. ``frame_corrupt`` targets ``(host_index, count)`` — the
    host's next ``count`` non-admin RPC replies go out with a flipped
    payload bit, which the caller's frame CRC must catch.
    """

    round: int
    kind: str
    target: tuple = ()

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{sorted(KINDS)}"
            )
        if self.round < 1:
            raise FaultPlanError(
                f"fault rounds start at 1 (first barrier): {self.round}"
            )
        FAULT_KINDS[self.kind].check(self.target)


@dataclass(frozen=True)
class Trigger:
    """Fire a fault when a progress counter reaches ``at``.

    ``counter`` is one of :data:`COUNTERS`:

    - ``"rounds"`` — the barrier round the cluster reports: a quiescent
      point, every queue drained. Round numbering restarts with a
      rebuilt cluster, so after a crash the rest of the plan fires at
      the recovered deployment's own rounds;
    - ``"tuples"`` — bolt executions observed parent-side;
    - ``"rpcs"`` — RPC requests served across the TDStore hosts;
    - ``"wal_records"`` — WAL records appended across the hosts.

    The last three cross their thresholds *mid-wave* — tuple trees
    open, acks pending, dirty records in the group-committer — and are
    cumulative over the whole run, rebuilds included. On the simulator
    (no host processes, so no remote counters) ``rpcs`` and
    ``wal_records`` degrade to the tuple counter — the plan still
    replays completely, with the process-native kinds recorded skipped.
    """

    counter: str
    at: int

    def __post_init__(self):
        if self.counter not in COUNTERS:
            raise FaultPlanError(
                f"unknown trigger counter {self.counter!r}; "
                f"expected one of {COUNTERS}"
            )
        if self.at < 0:
            raise FaultPlanError(
                f"trigger threshold must be >= 0, got {self.at}"
            )


# a plan: what to fire, and when. A bare ``Fault`` stands for
# ``(Trigger("rounds", fault.round), fault)``.
FaultPlan = list[Fault | tuple[Trigger, Fault]]


@dataclass
class _Pending:
    trigger: Trigger
    fault: Fault
    # the armed second phase of a mid-drain kill, aimed at one deployment
    strike: bool = False


class FaultInjector:
    """Fires a plan of ``(Trigger, Fault)`` against a live deployment.

    :meth:`attach` puts one barrier hook and one execute hook on the
    cluster; both feed the same loop, which fires every pending entry
    whose counter has reached its threshold.

    Every fired fault is appended to :attr:`injected` (and to
    :attr:`skipped` when it is process-native and no chaos runtime is
    wired), so tests and the harness can assert what actually happened;
    entries that fired from the execute hook — mid-wave — are also in
    :attr:`fired_midflight`, and those :meth:`flush` had to fire in
    :attr:`flushed`. What has fired, and the cumulative ``tuples`` /
    ``rpcs`` / ``wal_records`` progress, survive a detach/re-attach,
    which is how a plan keeps going across a process crash and
    recovery: faults already fired are not replayed against the
    recovered deployment. Armed mid-drain kills do not survive it —
    they die with the deployment they aimed at.
    """

    def __init__(
        self,
        plan: FaultPlan,
        *,
        storm: "LocalCluster | None" = None,
        topology: str | None = None,
        tdstore: "TDStoreCluster | None" = None,
        tdaccess: "TDAccessCluster | None" = None,
        consumers: "dict[str, Consumer] | None" = None,
        runtime=None,
    ):
        entries = [
            _Pending(Trigger("rounds", item.round), item)
            if isinstance(item, Fault)
            else _Pending(*item)
            for item in plan
        ]
        # threshold order, plan order on ties
        self._pending = sorted(entries, key=lambda entry: entry.trigger.at)
        self._progress = {"tuples": 0, "rpcs": 0, "wal_records": 0}
        self._since_poll = 0
        self.injected: list[Fault] = []
        self.skipped: list[Fault] = []
        self.fired_midflight: list[Fault] = []
        self.flushed: list[Fault] = []
        self._storm = storm
        self._topology = topology
        self._tdstore = tdstore
        self._tdaccess = tdaccess
        self._consumers = consumers
        self._runtime = runtime
        self._attached_to: "LocalCluster | None" = None
        self.midtree_fired = 0
        self.sigkills_fired = 0
        self.rewinds = 0

    # -- wiring -----------------------------------------------------------

    def rewire(self, *, topology, tdstore, tdaccess, consumers, runtime):
        """Point the injector at a rebuilt deployment after recovery
        (:meth:`attach` brings the rebuilt Storm cluster)."""
        self._topology = topology
        self._tdstore = tdstore
        self._tdaccess = tdaccess
        self._consumers = consumers
        self._runtime = runtime

    def attach(self, cluster: "LocalCluster"):
        self.detach()
        self._storm = cluster
        cluster.add_barrier_hook(self.on_barrier)
        cluster.add_execute_hook(self.on_execute)
        self._attached_to = cluster

    def detach(self):
        if self._attached_to is not None:
            self._attached_to.remove_barrier_hook(self.on_barrier)
            self._attached_to.remove_execute_hook(self.on_execute)
            self._attached_to = None
        self._pending = [e for e in self._pending if not e.strike]

    # -- the firing loop --------------------------------------------------

    @property
    def remaining(self) -> list[Fault]:
        return [entry.fault for entry in self._pending if not entry.strike]

    @property
    def exhausted(self) -> bool:
        return not self.remaining

    def on_barrier(self, barrier_round: int):
        self._fire_due({"rounds": barrier_round})

    def on_execute(self, topology_name: str):
        progress = self._progress
        progress["tuples"] += 1
        if not self._pending:
            return
        if self._runtime is None:
            # simulator: no hosts to poll, every counter is tuple progress
            progress["rpcs"] = progress["wal_records"] = progress["tuples"]
        elif any(e.trigger.counter in ("rpcs", "wal_records")
                 for e in self._pending):
            self._since_poll += 1
            if self._since_poll >= MIDFLIGHT_POLL_EVERY:
                self._since_poll = 0
                try:
                    progress.update(self._runtime.progress())
                except RemoteOpError:
                    pass  # a host is mid-respawn; poll next time
        self._fire_due(progress, self.fired_midflight)

    def flush(self) -> int:
        """Fire, at quiescence, every entry the stream was too short to
        reach — a plan always completes, so cross-substrate runs stay
        comparable. Returns how many it had to fire."""
        unreached = [entry for entry in self._pending if not entry.strike]
        self._consume(unreached, self.flushed)
        return len(unreached)

    def _fire_due(self, progress: dict, record_into: "list | None" = None):
        due = [
            entry for entry in self._pending
            if progress.get(entry.trigger.counter, -1) >= entry.trigger.at
        ]
        self._consume(due, record_into)

    def _consume(self, entries: "list[_Pending]", record_into):
        for entry in entries:
            # spent before it fires: a fault that crashes the process
            # is not replayed against the recovered deployment
            self._pending.remove(entry)
            if entry.strike:
                FAULT_KINDS[entry.fault.kind].strike(self, entry.fault)
                continue
            if record_into is not None:
                record_into.append(entry.fault)
            self.fire(entry.fault)

    def fire(self, fault: Fault):
        """Fire one fault now, whatever its ``round`` says."""
        self.injected.append(fault)
        kind = FAULT_KINDS[fault.kind]
        if kind.native and self._runtime is None:
            self.skipped.append(fault)
        else:
            kind.fire(self, fault)

    # -- what the fire functions reach for --------------------------------

    def _arm(self, fault: Fault, after: int):
        at = self._progress["tuples"] + after
        self._pending.append(
            _Pending(Trigger("tuples", at), fault, strike=True)
        )

    def _rewind_all(self, rewind: int):
        # the replay half of a mid-drain kill: every wired source
        # consumer rewinds, so already-processed offsets are re-delivered
        # into the half finished drain
        for consumer_name in self._consumers or {}:
            self._rewind_consumer(consumer_name, rewind)

    def _rewind_consumer(self, consumer_name: str, rewind: int):
        consumer = (self._consumers or {}).get(consumer_name)
        if consumer is None:
            raise FaultPlanError(
                f"fault rewinds consumer {consumer_name!r} but the injector "
                "has no such consumer wired"
            )
        for partition, position in sorted(consumer.positions().items()):
            consumer.seek(partition, max(0, position - rewind))
        self.rewinds += 1
        if self._storm is not None and self._topology is not None:
            # spouts that had reported exhaustion have input again
            self._storm.reactivate_spouts(self._topology)

    def _layer(self, layer: str):
        cluster = self._tdstore if layer == "tdstore" else self._tdaccess
        if cluster is None:
            raise FaultPlanError(
                f"fault targets the {layer} layer but the injector has no "
                f"{layer} cluster wired"
            )
        return cluster

    def _slow_down(self, layer, server_id, seconds, error_every=None):
        # every op on the server costs ``seconds``: charged to the
        # clock in process, a real (capped) stall at a server host
        self._layer(layer).set_degradation(
            server_id, latency=seconds, error_every=error_every
        )


# -- seeded plans -----------------------------------------------------------

# the source consumer the harness wires (and seeded rewinds name)
CONSUMER_NAME = "source"
# what a seeded latency spike charges per op, and how many executions a
# seeded mid-tree kill lets the drain run before it strikes
SPIKE_SECONDS = 0.25
MIDTREE_AFTER = 3


def seeded_plan(
    seed: int,
    *,
    horizon: int,
    kill_components: list[tuple[str, int]] | None = None,
    tdstore_servers: list[int] | None = None,
    tdaccess_servers: list[int] | None = None,
    task_kills: int = 2,
    tdstore_crashes: int = 1,
    master_failovers: int = 0,
    process_crashes: int = 1,
    latency_spikes: int = 0,
    error_rates: int = 0,
    error_every: int = 3,
    brownouts: int = 0,
    duplicate_deliveries: int = 0,
    midtree_kills: int = 0,
    rewind_depth: int = 8,
) -> list[Fault]:
    """Generate a deterministic fault plan from ``seed``.

    ``horizon`` is the number of barrier rounds the run is expected to
    last; faults are scheduled inside it. ``kill_components`` lists
    ``(component, parallelism)`` choices for task kills. Server crashes
    are paired with a recovery a few rounds later so at most one replica
    of anything is down at a time. Process crashes are placed in the
    second half of the horizon so checkpoints exist to recover from.

    Degradation faults ride the same seed: ``latency_spikes`` and
    ``error_rates`` pick TDStore servers, ``brownouts`` pick TDAccess
    servers, and each is paired with a ``clear_degradation`` a few
    rounds later so the plan proves recovery (breakers re-closing, the
    ladder climbing back up) and not just survival.
    """
    if horizon < 4:
        raise FaultPlanError(f"horizon too short to schedule faults: {horizon}")
    rng = SeedSequenceFactory(seed).generator("fault-plan")
    plan: list[Fault] = []

    def _round(lo: int, hi: int) -> int:
        return int(rng.integers(lo, max(lo + 1, hi)))

    if kill_components:
        for _ in range(task_kills):
            component, parallelism = kill_components[
                int(rng.integers(0, len(kill_components)))
            ]
            task_index = int(rng.integers(0, parallelism))
            plan.append(
                Fault(_round(1, horizon), "kill_task", (component, task_index))
            )
    if tdstore_servers:
        for _ in range(tdstore_crashes):
            server = tdstore_servers[int(rng.integers(0, len(tdstore_servers)))]
            crash_at = _round(1, horizon - 2)
            plan.append(Fault(crash_at, "crash_tdstore", (server,)))
            plan.append(
                Fault(
                    crash_at + _round(1, 3), "recover_tdstore", (server,)
                )
            )

    def _degradation_pair(kind: str, layer: str, servers: list[int], extra: tuple):
        server = servers[int(rng.integers(0, len(servers)))]
        start = _round(1, horizon - 2)
        plan.append(Fault(start, kind, (layer, server) + extra))
        plan.append(
            Fault(
                start + _round(1, 3), "clear_degradation", (layer, server)
            )
        )

    if tdstore_servers:
        for _ in range(latency_spikes):
            _degradation_pair(
                "latency_spike", "tdstore", tdstore_servers, (SPIKE_SECONDS,)
            )
        for _ in range(error_rates):
            _degradation_pair(
                "error_rate", "tdstore", tdstore_servers, (error_every,)
            )
    if tdaccess_servers:
        for _ in range(brownouts):
            _degradation_pair("brownout", "tdaccess", tdaccess_servers, ())
    for _ in range(master_failovers):
        plan.append(Fault(_round(1, horizon), "failover_tdaccess_master"))
    for _ in range(duplicate_deliveries):
        plan.append(
            Fault(
                _round(1, horizon),
                "duplicate_delivery",
                (CONSUMER_NAME, rewind_depth),
            )
        )
    if kill_components:
        for _ in range(midtree_kills):
            component, parallelism = kill_components[
                int(rng.integers(0, len(kill_components)))
            ]
            task_index = int(rng.integers(0, parallelism))
            plan.append(
                Fault(
                    _round(1, horizon),
                    "worker_kill_midtree",
                    (component, task_index, MIDTREE_AFTER, rewind_depth),
                )
            )
    for _ in range(process_crashes):
        plan.append(Fault(_round(horizon // 2, horizon), "crash_process"))
    return sorted(plan, key=lambda fault: fault.round)
