"""TDStore cluster facade."""

from __future__ import annotations

import copy
from typing import Any, Callable

from repro.errors import TDStoreError
from repro.tdstore.client import TDStoreClient
from repro.tdstore.config_server import ConfigServerPair
from repro.tdstore.data_server import TDStoreDataServer
from repro.tdstore.engines import MDBEngine, StorageEngine


class TDStoreCluster:
    """A complete TDStore deployment: config pair + data servers.

    Parameters
    ----------
    num_data_servers:
        Size of the data-server pool (>= 2, replication needs a slave).
    num_instances:
        Number of data instances (key buckets) spread over the pool.
    engine_factory:
        Builds the per-instance storage engine; defaults to MDB, the
        memory engine the paper leads with.
    """

    def __init__(
        self,
        num_data_servers: int = 4,
        num_instances: int = 64,
        engine_factory: Callable[[], StorageEngine] = MDBEngine,
    ):
        self._engine_factory = engine_factory
        self.data_servers = [
            TDStoreDataServer(i, engine_factory) for i in range(num_data_servers)
        ]
        # one process holds the whole pool: a host write queues its sync
        # records on the replicas itself (TDStoreDataServer.mutate)
        self._colocated: dict[int, TDStoreDataServer] = {}
        for server in self.data_servers:
            server.colocate(self._colocated)
        self.config = ConfigServerPair(self.data_servers, num_instances)

    # -- elastic scaling ---------------------------------------------------

    def add_data_server(self) -> int:
        """Expand the pool by one empty server; returns its id.

        The new server serves nothing until an
        :class:`~repro.elastic.migration.InstanceMigrator` moves
        instances onto it (or a failover picks it as a slave).
        """
        server_id = max(s.server_id for s in self.data_servers) + 1
        server = TDStoreDataServer(server_id, self._engine_factory)
        self.config.add_server(server)
        server.colocate(self._colocated)
        self.data_servers.append(server)
        return server_id

    def drain_data_server(self, server_id: int, exclude: tuple = ()) -> list:
        """Live-migrate every role off ``server_id`` (decommission prep)."""
        return self.config.drain_server(server_id, exclude=exclude)

    def migration_stats(self) -> dict[str, Any]:
        return {
            "completed": self.config.migrations_completed,
            "aborted": self.config.migrations_aborted,
            "in_flight": self.config.in_flight_migrations(),
            "route_epoch": self.config.route_epoch,
        }

    def client(self, **resilience: Any) -> TDStoreClient:
        """A new client; keyword args (clock, breaker, retry,
        deadline_budget) are forwarded to it."""
        return TDStoreClient(self.config, **resilience)

    def crash_data_server(self, server_id: int):
        self.config.server(server_id).crash()

    def recover_data_server(self, server_id: int):
        """Restart a server and resync its replicas from live peers."""
        self.config.server(server_id).recover()
        self.config.handle_server_recovery(server_id)

    # -- degradation (chaos: latency spikes, error rates, brownouts) ------

    def set_degradation(
        self,
        server_id: int,
        latency: float | None = None,
        error_every: int | None = None,
    ):
        self.config.server(server_id).set_degradation(latency, error_every)

    def clear_degradation(self, server_id: int):
        self.config.server(server_id).clear_degradation()

    def degraded_servers(self) -> list[int]:
        return [s.server_id for s in self.data_servers if s.degraded]

    def sync_replicas(self):
        """Let every slave apply its pending queue (the idle-time sync)."""
        for server in self.data_servers:
            if server.alive:
                server.apply_pending()

    # -- anti-entropy (repro.tdstore.scrub) -------------------------------

    # lazy: subclasses building their server list without this __init__
    # (the hosted control plane) still get working scrub accounting
    _scrub_totals: "dict[str, int] | None" = None

    def scrub_replicas(self, buckets: "int | None" = None) -> dict[str, Any]:
        """Run one anti-entropy pass: compare every instance's host and
        slave by per-bucket content digest and repair divergent buckets
        from the authoritative host copy. Returns the pass report dict
        (picklable, so the hosted control plane serves it over RPC)."""
        from repro.tdstore.scrub import SCRUB_BUCKETS, ReplicaScrubber

        scrubber = ReplicaScrubber(
            self, buckets=buckets if buckets else SCRUB_BUCKETS
        )
        report = scrubber.scrub().to_dict()
        totals = self._scrub_totals
        if totals is None:
            totals = self._scrub_totals = {"scrub_passes": 0}
        totals["scrub_passes"] += 1
        for field in (
            "instances_scanned",
            "divergent_buckets",
            "keys_repaired",
            "keys_deleted",
            "corruptions_detected",
        ):
            totals[field] = totals.get(field, 0) + report[field]
        return report

    def scrub_stats(self) -> dict[str, int]:
        """Accumulated scrub counters across every pass on this facade."""
        totals = self._scrub_totals
        if totals is None:
            return {
                "scrub_passes": 0,
                "instances_scanned": 0,
                "divergent_buckets": 0,
                "keys_repaired": 0,
                "keys_deleted": 0,
                "corruptions_detected": 0,
            }
        return dict(totals)

    # -- checkpoint integration (repro.recovery) -------------------------

    def snapshot_contents(self) -> dict[int, dict[str, Any]]:
        """Capture every data instance's full contents.

        The host copy of each instance is authoritative (slaves lag by
        their sync queue); when the host is down and failover has not run
        yet, the slave catches up its pending queue first so no
        acknowledged write is missing from the checkpoint.
        """
        table = self.config.route_table()
        contents: dict[int, dict[str, Any]] = {}
        for instance in range(table.num_instances):
            route = table.route(instance)
            source = self.config.server(route.host)
            if not source.alive:
                source = self.config.server(route.slave)
                if not source.alive:
                    raise TDStoreError(
                        f"instance {instance}: host and slave both down; "
                        "cannot checkpoint"
                    )
                source.apply_pending(instance)
            contents[instance] = source.snapshot_instance(instance)
        return contents

    def restore_contents(self, contents: dict[int, dict[str, Any]]):
        """Adopt checkpointed instance contents onto host and slave.

        Each live replica adopts its own deep copy so the restored pair
        does not share mutable values — replication divergence stays
        observable after recovery exactly as it was before.

        Roles are reasserted to match the table the restore is advertised
        under: a control-plane rebirth (config host respawned after a
        crash) resets the route table while surviving data servers keep
        their evolved ``_hosted`` sets, so the restore is the point where
        routing and acceptance re-converge. Servers no longer named by an
        instance's route are fenced so stale-routed clients cannot write
        into an orphaned replica.
        """
        table = self.config.route_table()
        for instance, data in contents.items():
            route = table.route(instance)
            for server in self.data_servers:
                if not server.alive:
                    continue
                if server.server_id == route.host:
                    server.set_host_role(instance, True)
                    server.adopt_snapshot(instance, copy.deepcopy(data))
                elif server.server_id == route.slave:
                    server.set_host_role(instance, False)
                    server.adopt_snapshot(instance, copy.deepcopy(data))
                elif server.hosts(instance):
                    server.set_host_role(instance, False)

    def journal_evictions(self) -> int:
        """Total op-journal ids trimmed out across the pool.

        Each trimmed id is a dedup decision forgotten: a rewind deep
        enough to re-deliver it would double-apply. A healthy stream
        trims all the time, so the monitor shows it without alerting.
        """
        return sum(s.journal_evictions() for s in self.data_servers)

    def journal_overruns(self) -> int:
        """Total journaled runs longer than ``JOURNAL_LIMIT`` across the
        pool: the one re-delivery the system makes by itself, a retried
        wave, would re-send such a run with its head already trimmed and
        double-apply it. The monitor alerts on a positive delta.
        """
        return sum(s.journal_overruns() for s in self.data_servers)

    def read_stats(self) -> dict[int, int]:
        """server id -> reads served; shows load spread across the pool."""
        return {s.server_id: s.reads for s in self.data_servers}

    def write_stats(self) -> dict[int, int]:
        return {s.server_id: s.writes for s in self.data_servers}
