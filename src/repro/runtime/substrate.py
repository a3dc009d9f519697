"""Substrates: where a stack's TDStore and Storm actually execute.

Everything above this module — topologies, route tables, resilience
policies, checkpointing, the serving layer, the recovery harness — is
substrate-blind: it asks a :class:`Substrate` for a TDStore cluster and
a Storm cluster and drives the same duck types either way.

:class:`SimSubstrate` builds the deterministic in-process simulator and
stays the default for tests. :class:`ProcessSubstrate` deploys the same
logical layout onto real OS processes: TDStore server hosts with
group-commit WALs, and a pool of Storm worker processes executing bolt
tasks. Both are constructor-switchable wherever a stack is built.

Deployment layout on the process substrate::

    parent (spouts, routing, ackers, checkpoints, monitor)
      |- tdstore-host-0   control plane + its share of logical servers
      |- tdstore-host-i   logical servers where id % server_procs == i
      |- storm-worker-j   bolt tasks where task_owner(...) == j

Each ``build_tdstore`` starts a fresh *generation* — new WAL files, so
a rebuilt stack starts empty exactly like a fresh ``TDStoreCluster``
and checkpoint recovery owns repopulating it. Restarting a crashed
server host (same generation) replays its WAL instead.
"""

from __future__ import annotations

import atexit
import os
import shutil
import tempfile

from repro.errors import ConfigurationError
from repro.runtime.process_cluster import ProcessCluster
from repro.runtime.proxies import ProcessTDStore
from repro.runtime.rpc import RpcClient
from repro.runtime.server_host import server_host_main
from repro.runtime.supervisor import ManagedProcess, ProcessSupervisor
from repro.runtime.wal import WalError
from repro.runtime.worker_host import worker_host_main

SERVER_HOST_PREFIX = "tdstore-host-"
WORKER_PREFIX = "storm-worker-"


def install_parent_signal_handlers():
    """Make SIGTERM tear the whole process tree down cleanly.

    Ctrl-C already raises ``KeyboardInterrupt``, which unwinds through
    ``atexit`` where every :class:`ProcessSubstrate` registered its
    :meth:`~ProcessSubstrate.teardown`; SIGTERM's default action skips
    ``atexit``, leaving children to die ungracefully as daemons. This
    converts it to ``SystemExit`` so graceful shutdown (WAL flush and
    close in each child) runs on both signals. Call it once from the
    driving script's entrypoint.
    """
    import signal

    def _exit(signum, frame):
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, _exit)


class Substrate:
    """Factory for the execution layer of one stack."""

    name = "substrate"

    def build_tdstore(self, num_servers: int, num_instances: int):
        raise NotImplementedError

    def build_storm(self, clock, tick_interval: "float | None" = None, bus=None):
        raise NotImplementedError

    def teardown(self):
        """Release whatever :meth:`build_\\*` allocated. Idempotent."""

    def chaos_runtime(self):
        """The process-native fault adapter, or ``None`` when this
        substrate cannot express real SIGKILL/network/disk faults (the
        injector records such faults as skipped instead)."""
        return None

    def __enter__(self) -> "Substrate":
        return self

    def __exit__(self, *exc_info):
        self.teardown()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SimSubstrate(Substrate):
    """The deterministic in-process simulator (the default)."""

    name = "sim"

    def build_tdstore(self, num_servers: int, num_instances: int):
        from repro.tdstore.cluster import TDStoreCluster

        return TDStoreCluster(num_servers, num_instances)

    def build_storm(self, clock, tick_interval: "float | None" = None, bus=None):
        from repro.storm.cluster import LocalCluster

        return LocalCluster(clock=clock, tick_interval=tick_interval, bus=bus)


class ProcessSubstrate(Substrate):
    """Real OS processes behind the same duck types.

    Parameters
    ----------
    worker_procs:
        Storm worker processes executing bolt tasks.
    server_procs:
        TDStore host processes the logical servers are spread over.
    durable:
        fsync WAL appends before acking mutations.
    max_group_wait:
        Ceiling for the server hosts' adaptive group-commit delay
        (seconds); see ``GroupCommitter``.
    commit_floor:
        Modeled minimum WAL commit-barrier latency (seconds); 0.0
        (the default) measures the raw device. See ``GroupCommitWal``.
    wal_dir:
        Where WAL files live; a temp directory by default.
    """

    name = "process"

    def __init__(
        self,
        worker_procs: int = 2,
        server_procs: int = 1,
        *,
        durable: bool = True,
        wal_dir: "str | None" = None,
        spawn_timeout: float = 60.0,
        max_group_wait: float = 0.002,
        commit_floor: float = 0.0,
        hang_deadline: float = 30.0,
    ):
        if worker_procs < 1:
            raise ConfigurationError("worker_procs must be >= 1")
        if server_procs < 1:
            raise ConfigurationError("server_procs must be >= 1")
        self.worker_procs = worker_procs
        self.server_procs = server_procs
        self.durable = durable
        self.max_group_wait = max_group_wait
        self.commit_floor = commit_floor
        self.hang_deadline = hang_deadline
        self._spawn_timeout = spawn_timeout
        self._wal_dir = wal_dir
        self._owns_wal_dir = False
        self._supervisor: ProcessSupervisor | None = None
        self._facade: ProcessTDStore | None = None
        self._cluster: ProcessCluster | None = None
        self._tdstore_spec: "tuple[list, dict] | None" = None
        self._generation = 0
        self._chaos_runtime = None
        # acknowledged-but-damaged WAL records caught by replay CRC scans
        # (counted here, parent-side, exactly once per record — the host
        # that found them excludes the scan from its own _stats)
        self.wal_corruptions_detected = 0

    @property
    def supervisor(self) -> ProcessSupervisor:
        if self._supervisor is None:
            self._supervisor = ProcessSupervisor(
                spawn_timeout=self._spawn_timeout,
                hang_deadline=self.hang_deadline,
            )
            self._supervisor.add_restart_hook(self._on_restart)
            atexit.register(self.teardown)
        return self._supervisor

    @property
    def facade(self) -> "ProcessTDStore | None":
        return self._facade

    def _ensure_wal_dir(self) -> str:
        if self._wal_dir is None:
            self._wal_dir = tempfile.mkdtemp(prefix="repro-wal-")
            self._owns_wal_dir = True
        else:
            os.makedirs(self._wal_dir, exist_ok=True)
        return self._wal_dir

    # -- deployment -------------------------------------------------------

    def build_tdstore(self, num_servers: int, num_instances: int) -> ProcessTDStore:
        """Deploy a fresh generation of server host processes.

        Hosts 1..P-1 come up first (pure data plane); host 0 last, with
        their addresses, because its control plane provisions instances
        across every host during startup.
        """
        supervisor = self.supervisor
        self._stop_prefixed(SERVER_HOST_PREFIX)
        if self._facade is not None:
            self._facade.close()
        self._generation += 1
        wal_dir = self._ensure_wal_dir()
        placement = {
            sid: sid % self.server_procs for sid in range(num_servers)
        }
        addresses: list = [None] * self.server_procs
        for host_index in range(1, self.server_procs):
            managed = supervisor.spawn(
                f"{SERVER_HOST_PREFIX}{host_index}",
                server_host_main,
                self._host_config(host_index, placement, num_instances, wal_dir),
            )
            addresses[host_index] = managed.address
            # pin the bound port into the respawn config: a restarted
            # host rebinds the same address, so worker-held proxies and
            # host 0's sibling connections survive the crash
            managed.config["port"] = managed.port
        config = self._host_config(0, placement, num_instances, wal_dir)
        config["sibling_addresses"] = {
            i: addresses[i] for i in range(1, self.server_procs)
        }
        managed = supervisor.spawn(
            f"{SERVER_HOST_PREFIX}0", server_host_main, config
        )
        addresses[0] = managed.address
        managed.config["port"] = managed.port
        self._facade = ProcessTDStore(addresses, placement)
        self._facade.set_recovery_hook(self._recover_host)
        self._tdstore_spec = (addresses, placement)
        return self._facade

    def _recover_host(self, host_index: int):
        """Parent-side transport-retry hook: respawn a dead host (WAL
        replay rides the restart hook) before the proxy retries."""
        if self._supervisor is not None:
            self._supervisor.ensure_alive(f"{SERVER_HOST_PREFIX}{host_index}")

    def _host_config(
        self, host_index: int, placement: dict, num_instances: int, wal_dir: str
    ) -> dict:
        return {
            "host_index": host_index,
            "local_server_ids": sorted(
                sid for sid, host in placement.items() if host == host_index
            ),
            "num_instances": num_instances,
            "placement": placement,
            "wal_path": os.path.join(
                wal_dir, f"host{host_index}-gen{self._generation}.wal"
            ),
            "durable": self.durable,
            "max_group_wait": self.max_group_wait,
            "commit_floor": self.commit_floor,
        }

    def build_storm(
        self, clock, tick_interval: "float | None" = None, bus=None
    ) -> ProcessCluster:
        if self._tdstore_spec is None:
            raise ConfigurationError(
                "build_tdstore must run before build_storm: workers need "
                "the server host addresses"
            )
        supervisor = self.supervisor
        if self._cluster is not None:
            self._cluster.close()
            self._cluster = None
        self._stop_prefixed(WORKER_PREFIX)
        workers = [
            supervisor.spawn(
                f"{WORKER_PREFIX}{index}",
                worker_host_main,
                {"worker_index": index, "num_workers": self.worker_procs},
            )
            for index in range(self.worker_procs)
        ]
        self._cluster = ProcessCluster(
            clock=clock,
            workers=workers,
            supervisor=supervisor,
            tdstore_spec=self._tdstore_spec,
            tick_interval=tick_interval,
            bus=bus,
        )
        return self._cluster

    def _stop_prefixed(self, prefix: str):
        supervisor = self.supervisor
        for name in supervisor.names():
            if name.startswith(prefix):
                supervisor.stop(name)

    # -- crash recovery ---------------------------------------------------

    def _on_restart(self, managed: ManagedProcess):
        """Re-drive recovery after the supervisor respawned a child.

        Server hosts replay their WAL onto freshly provisioned servers;
        workers get their topologies reloaded (fresh bolt instances —
        crash semantics — with re-executed tuples absorbed by the
        exactly-once layer).
        """
        if managed.name.startswith(SERVER_HOST_PREFIX):
            host_index = int(managed.name[len(SERVER_HOST_PREFIX) :])
            if self._facade is not None:
                self._facade.update_address(host_index, managed.address)
            corruption: "WalError | None" = None
            replayer = RpcClient(*managed.address)
            try:
                try:
                    replayer.call("_replay_wal")
                except WalError as exc:
                    # the CRC scan found acknowledged-but-damaged records:
                    # detection-before-serving worked. Set the log aside
                    # (forensics) and fall through to re-seeding the
                    # host's replicas from their live peers below.
                    corruption = exc
                    self.wal_corruptions_detected += max(
                        1, exc.corrupt_records
                    )
                    replayer.call("_quarantine_wal")
            finally:
                replayer.close()
            if host_index == 0 and corruption is not None:
                # host 0's WAL also rebuilds control-plane state
                # (checkpoint restores, elastic expansion); there is no
                # replica to repair that from — surface the fail-stop
                raise corruption
            if host_index != 0 and self._facade is not None:
                # roles are control-plane state, not WAL state: the config
                # pair provisions the reborn host's servers as at boot
                placement = sorted(self._facade.placement.items())
                owned = [sid for sid, at in placement if at == host_index]
                self._facade.config.provision(owned)
                if corruption is not None:
                    # wipe the partial replay and re-seed every logical
                    # server this process owns from its live replicas;
                    # adopt_snapshot is a mutating op, so the re-seed
                    # repopulates the fresh post-quarantine log
                    for sid in owned:
                        self._facade.recover_data_server(sid)
        elif managed.name.startswith(WORKER_PREFIX):
            if self._cluster is not None:
                self._cluster.on_worker_restarted(
                    int(managed.name[len(WORKER_PREFIX) :])
                )

    # -- chaos ------------------------------------------------------------

    def chaos_runtime(self):
        """Process-native fault adapter bound to this substrate. One per
        substrate: its MTTR samples and kill counters span rebuilds."""
        if self._chaos_runtime is None:
            from repro.runtime.chaos import ChaosRuntime

            self._chaos_runtime = ChaosRuntime(self)
        return self._chaos_runtime

    # -- teardown ---------------------------------------------------------

    def teardown(self):
        if self._cluster is not None:
            self._cluster.close()
            self._cluster = None
        if self._facade is not None:
            self._facade.close()
            self._facade = None
        self._tdstore_spec = None
        if self._supervisor is not None:
            supervisor, self._supervisor = self._supervisor, None
            supervisor.shutdown()
        if self._owns_wal_dir and self._wal_dir is not None:
            # children are down and their WALs closed; a temp dir this
            # substrate created is now garbage (a fresh build starts a
            # new generation anyway). User-supplied dirs are kept.
            shutil.rmtree(self._wal_dir, ignore_errors=True)
            self._wal_dir = None
            self._owns_wal_dir = False

    def __repr__(self) -> str:
        return (
            f"ProcessSubstrate(workers={self.worker_procs}, "
            f"servers={self.server_procs}, durable={self.durable})"
        )
