"""End-to-end crash/recovery harness.

Wires the full TencentRec stack the way Figure 6 does — TDAccess topic in
front, a Storm topology computing, TDStore holding state — then runs it
under checkpointing and fault injection. A ``crash_process`` fault kills
the whole computation layer: the Storm tasks and the memory-based
TDStore are discarded, exactly the state a process crash would lose,
while the TDAccess cluster (disk-backed logs) and the checkpoint store
survive. :meth:`recover` rebuilds a fresh stack, restores the latest
checkpoint into it, and resuming the run replays the log suffix.

This is the only crash -> ``recover()`` -> re-attach loop in the
codebase. Anything that hooks the Storm cluster — the fault-firing loop
(:class:`FaultInjector`), an online invariant monitor, a chaos
orchestrator's serve probe — registers with the harness once
(:meth:`RecoveryHarness.register`) and is attached to every deployment
the harness builds and detached from every one it loses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import RecoveryError, SimulatedCrash
from repro.recovery.coordinator import CheckpointCoordinator
from repro.recovery.faults import CONSUMER_NAME, FaultInjector, FaultPlan
from repro.recovery.manifest import CheckpointStore
from repro.recovery.recovery import RecoveryManager, RecoveryReport
from repro.runtime.substrate import SimSubstrate, Substrate
from repro.storm.cluster import LocalCluster
from repro.storm.topology import Topology
from repro.tdaccess.cluster import TDAccessCluster
from repro.tdaccess.consumer import Consumer
from repro.tdstore.client import TDStoreClient
from repro.tdstore.cluster import TDStoreCluster
from repro.utils.clock import SimClock

# TopologyFactory(clock, client_factory, consumer) -> Topology
TopologyFactory = Callable[
    [SimClock, Callable[[], TDStoreClient], Consumer], Topology
]


@dataclass
class _Stack:
    """One computation deployment: everything a process crash destroys."""

    clock: SimClock
    tdstore: TDStoreCluster
    consumer: Consumer
    topology: Topology
    cluster: LocalCluster
    coordinator: CheckpointCoordinator


class RecoveryHarness:
    """Runs a topology over a TDAccess topic with checkpoints and faults.

    Parameters
    ----------
    tdaccess:
        The (crash-surviving) TDAccess cluster holding the source topic.
    topic:
        Topic the topology consumes.
    topology_factory:
        Builds the topology for a given deployment; called once per
        (re)build with ``(clock, client_factory, consumer)``. It must be
        deterministic: recovery rebuilds the same shape.
    num_tdstore_servers / num_tdstore_instances:
        Shape of the (crash-losing, memory-based) TDStore deployment.
    tick_interval:
        Forwarded to :class:`LocalCluster` (combiner flush cadence).
    checkpoint_every_rounds / checkpoint_interval_seconds:
        Checkpoint policy, forwarded to :class:`CheckpointCoordinator`.
    store:
        Checkpoint destination; defaults to a fresh in-memory store.
    allow_truncated_replay:
        Forwarded to :class:`RecoveryManager`.
    substrate:
        Where the stack executes: :class:`SimSubstrate` (default, the
        in-process simulator) or a
        :class:`~repro.runtime.substrate.ProcessSubstrate` deploying
        TDStore server hosts and Storm workers as real OS processes.
        On the process substrate the topology factory must carry a
        recipe (build it with
        :func:`repro.runtime.recipes.topology_recipe`).
    """

    def __init__(
        self,
        tdaccess: TDAccessCluster,
        topic: str,
        topology_factory: TopologyFactory,
        *,
        num_tdstore_servers: int = 3,
        num_tdstore_instances: int = 16,
        tick_interval: float | None = None,
        checkpoint_every_rounds: int | None = None,
        checkpoint_interval_seconds: float | None = None,
        store: CheckpointStore | None = None,
        allow_truncated_replay: bool = False,
        substrate: Substrate | None = None,
    ):
        self._tdaccess = tdaccess
        self.substrate = substrate if substrate is not None else SimSubstrate()
        self._topic = topic
        self._topology_factory = topology_factory
        self._num_tdstore_servers = num_tdstore_servers
        self._num_tdstore_instances = num_tdstore_instances
        self._tick_interval = tick_interval
        self._every_rounds = checkpoint_every_rounds
        self._interval_seconds = checkpoint_interval_seconds
        self.store = store if store is not None else CheckpointStore()
        self.recovery = RecoveryManager(
            self.store, allow_truncated_replay=allow_truncated_replay
        )
        self.injector: FaultInjector | None = None
        self._registered: list = []
        self.crashes = 0
        self.checkpoints_taken = 0
        self._stack: _Stack | None = None

    # -- deployment lifecycle --------------------------------------------

    def start(self, fault_plan: FaultPlan | None = None):
        """Build the initial deployment, optionally under a fault plan."""
        if fault_plan is not None:
            self.injector = FaultInjector(fault_plan, tdaccess=self._tdaccess)
        self._stack = self._build_stack()

    def register(self, hooked):
        """Attach ``hooked`` (anything with ``attach(cluster)`` /
        ``detach()``) to every deployment built from here on: after the
        checkpoint coordinator and the fault injector, in registration
        order."""
        self._registered.append(hooked)

    def _hooked(self) -> list:
        injector = [self.injector] if self.injector is not None else []
        return injector + self._registered

    def _build_stack(self) -> _Stack:
        clock = SimClock()
        tdstore = self.substrate.build_tdstore(
            self._num_tdstore_servers, self._num_tdstore_instances
        )
        consumer = self._tdaccess.consumer(self._topic)
        topology = self._topology_factory(clock, tdstore.client, consumer)
        cluster = self.substrate.build_storm(
            clock, tick_interval=self._tick_interval
        )
        cluster.submit(topology)
        coordinator = CheckpointCoordinator(
            self.store,
            cluster,
            topology.name,
            tdstore,
            {CONSUMER_NAME: consumer},
            clock,
            every_rounds=self._every_rounds,
            interval_seconds=self._interval_seconds,
        )
        coordinator.attach()
        if self.injector is not None:
            self.injector.rewire(
                topology=topology.name,
                tdstore=tdstore,
                tdaccess=self._tdaccess,
                consumers={CONSUMER_NAME: consumer},
                runtime=self.substrate.chaos_runtime(),
            )
        for hooked in self._hooked():
            hooked.attach(cluster)
        return _Stack(clock, tdstore, consumer, topology, cluster, coordinator)

    def _require_stack(self) -> _Stack:
        if self._stack is None:
            raise RecoveryError(
                "no deployment; call start() (or recover() after a crash)"
            )
        return self._stack

    # -- running ----------------------------------------------------------

    def run(self) -> str:
        """Run until the stream is exhausted or a process crash fires.

        Returns ``"completed"`` or ``"crashed"``. After a crash the old
        deployment is gone; call :meth:`recover` to rebuild.
        """
        stack = self._require_stack()
        try:
            stack.cluster.run_until_idle()
        except SimulatedCrash:
            self.crashes += 1
            self.checkpoints_taken += stack.coordinator.checkpoints_taken
            self._stack = None  # computation layer is dead
            for hooked in self._hooked():
                hooked.detach()
            return "crashed"
        if self.recovery.in_progress:
            self.recovery.replay_complete(stack.clock.now())
        return "completed"

    def recover(self) -> RecoveryReport | None:
        """Rebuild a fresh deployment and restore the latest checkpoint.

        With no checkpoint yet (crash before the first barrier), the
        rebuilt deployment simply starts cold from offset zero — the log
        itself is the recovery mechanism — and None is returned.
        """
        stack = self._build_stack()
        self._stack = stack
        if len(self.store) == 0:
            return None
        return self.recovery.restore_latest(
            cluster=stack.cluster,
            topology=stack.topology.name,
            tdstore=stack.tdstore,
            consumers={CONSUMER_NAME: stack.consumer},
            clock=stack.clock,
        )

    def run_to_completion(self, max_crashes: int = 8) -> dict:
        """Run, recovering through crashes, until the stream completes."""
        if self._stack is None:
            self.start()
        reports: list[RecoveryReport | None] = []
        while True:
            status = self.run()
            if status == "completed":
                break
            if self.crashes > max_crashes:
                raise RecoveryError(
                    f"gave up after {self.crashes} crashes (max {max_crashes})"
                )
            reports.append(self.recover())
        stack = self._require_stack()
        return {
            "crashes": self.crashes,
            "recoveries": self.recovery.recoveries,
            "checkpoints": self.checkpoints_taken
            + stack.coordinator.checkpoints_taken,
            "reports": reports,
            "clock_time": stack.clock.now(),
        }

    # -- live deployment access ------------------------------------------

    @property
    def clock(self) -> SimClock:
        return self._require_stack().clock

    @property
    def cluster(self) -> LocalCluster:
        return self._require_stack().cluster

    @property
    def tdstore(self) -> TDStoreCluster:
        return self._require_stack().tdstore

    @property
    def tdaccess(self) -> TDAccessCluster:
        return self._tdaccess

    @property
    def consumer(self) -> Consumer:
        return self._require_stack().consumer

    @property
    def coordinator(self) -> CheckpointCoordinator:
        return self._require_stack().coordinator

    @property
    def topology_name(self) -> str:
        return self._require_stack().topology.name

    def client(self) -> TDStoreClient:
        return self._require_stack().tdstore.client()
