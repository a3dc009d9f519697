"""TDStore config servers.

A host config server and a backup config server manage the route table
and track data-server liveness (Figure 3). Clients fetch the route table
once and refresh it when the version changes; synchronization between
data servers happens without much config-server involvement — the config
pair only rewrites routes on failover.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import MigrationError, RouteError, TDStoreError
from repro.tdstore.data_server import TDStoreDataServer
from repro.tdstore.route_table import RouteTable

if TYPE_CHECKING:
    from repro.elastic.migration import Migration


class ConfigServerPair:
    """Host + backup config servers, kept trivially in sync."""

    def __init__(self, servers: list[TDStoreDataServer], num_instances: int):
        if len(servers) < 2:
            raise TDStoreError("TDStore needs at least two data servers")
        self._servers = {s.server_id: s for s in servers}
        self._table = RouteTable.balanced(
            num_instances, sorted(self._servers)
        )
        self.host_alive = True
        self.failovers = 0
        # elastic scaling: live migrations registered by their Migration
        # object while in flight (fence waits, failover aborts, cutover
        # handoff); the dual-write itself is the source server's state
        self._migrations: dict[int, "Migration"] = {}
        self.migrations_completed = 0
        self.migrations_aborted = 0
        self.provision(self._servers)

    def provision(self, server_ids):
        """Grant ``server_ids`` their route-table roles: the host role,
        or an empty replica for a slave. Boot passes every server; a
        respawned host process (roles are not in its WAL) its own."""
        wanted = set(server_ids)
        for instance in range(self._table.num_instances):
            route = self._table.route(instance)
            if route.host in wanted:
                self._servers[route.host].set_host_role(instance, True)
            if route.slave in wanted:
                self._servers[route.slave].ensure_instance(instance)

    # -- queries -------------------------------------------------------------

    def route_table(self) -> RouteTable:
        """What a client downloads before talking to data servers."""
        return self._table

    @property
    def route_epoch(self) -> int:
        """Monotonic version of the current route table.

        Clients poll this cheap scalar per operation and re-download the
        full table only when it moved (a failover bumped it) — the
        route-table fetch is off the per-op hot path.
        """
        return self._table.version

    def server(self, server_id: int) -> TDStoreDataServer:
        try:
            return self._servers[server_id]
        except KeyError:
            raise TDStoreError(f"unknown data server {server_id}") from None

    def servers(self) -> list[TDStoreDataServer]:
        return [self._servers[sid] for sid in sorted(self._servers)]

    # -- elastic scaling ------------------------------------------------------

    def add_server(self, server: TDStoreDataServer):
        """Register a new (empty) data server with the pool.

        The new server hosts nothing until the
        :class:`~repro.elastic.migration.InstanceMigrator` moves data
        instances onto it — expansion is routing-neutral by itself, so
        clients holding the old table stay correct.
        """
        if server.server_id in self._servers:
            raise TDStoreError(
                f"data server id {server.server_id} already registered"
            )
        if not server.alive:
            raise TDStoreError(
                f"refusing to register dead data server {server.server_id}"
            )
        self._servers[server.server_id] = server

    def drain_server(self, server_id: int, exclude: tuple = ()) -> list:
        """Move every role off ``server_id`` so it can be decommissioned.

        Hosted instances are live-migrated to the least-loaded remaining
        servers (full snapshot-copy → dual-write → cutover protocol);
        backed-up instances get a new slave seeded from their host.
        ``exclude`` bars further servers from receiving the load (for
        multi-server decommissions). Returns the completed
        :class:`MigrationRecord` list.
        """
        from repro.elastic.migration import InstanceMigrator

        return InstanceMigrator(self).drain(server_id, exclude=exclude)

    def install_table(self, table: RouteTable):
        """Install a derived route table (epoch must move forward)."""
        if table.version <= self._table.version:
            raise RouteError(
                f"route table version must advance: {table.version} <= "
                f"{self._table.version}"
            )
        if table.num_instances != self._table.num_instances:
            raise RouteError(
                "route table must cover the same instances: "
                f"{table.num_instances} != {self._table.num_instances}"
            )
        self._table = table

    # -- live migration registry ---------------------------------------------

    def register_migration(self, migration: "Migration"):
        """A migration entered its dual-write window for one instance."""
        if migration.instance in self._migrations:
            raise MigrationError(
                f"instance {migration.instance} already has a migration "
                "in flight"
            )
        self._migrations[migration.instance] = migration

    def register_remote_migration(self, instance: int, target_id: int):
        """Register a dual-write window driven from another process.

        A :class:`~repro.elastic.migration.Migration` holds live server
        handles (socket-backed proxies on the process substrate), so the
        object itself cannot cross an RPC boundary. The remote migrator
        ships just ``(instance, target_id)`` and this config pair builds
        its own surrogate against the hosted cluster — fence-waiters
        (:meth:`await_migration`) and failover aborts then act on local
        server handles with full fidelity, while the remote driver keeps
        stepping its copy of the protocol over RPC.
        """
        from repro.elastic.migration import Migration

        migration = Migration(self, instance, target_id)
        # the remote driver already ran begin(): snapshot copied, window open
        migration.record.state = "catching_up"
        self.register_migration(migration)

    def unregister_migration(self, instance: int, completed: bool = True):
        if self._migrations.pop(instance, None) is not None:
            if completed:
                self.migrations_completed += 1
            else:
                self.migrations_aborted += 1

    def migration_target(self, instance: int) -> int | None:
        """Dual-write destination for ``instance``, if one is in flight."""
        migration = self._migrations.get(instance)
        return migration.target_id if migration is not None else None

    def await_migration(self, instance: int) -> float:
        """Block (simulated) until ``instance``'s cutover completes.

        A client that hit the :class:`~repro.errors.MigrationInProgressError`
        fence calls this; completing the migration is what "waiting for
        the new host" collapses to in a discrete-event world. Returns the
        stall the client must charge to its clock.
        """
        migration = self._migrations.get(instance)
        if migration is None:
            return 0.0  # cutover finished between the fence and the wait
        try:
            migration.finish()
        except MigrationError:
            # the move aborted (target died / failover raced); the fence
            # is down and the current table is authoritative — retry
            return 0.0
        return migration.stall_seconds

    def in_flight_migrations(self) -> list[dict]:
        """Manifest/monitoring view of every migration in flight."""
        return [
            self._migrations[instance].record.as_dict()
            for instance in sorted(self._migrations)
        ]

    # -- failover -------------------------------------------------------------

    def handle_server_failure(self, failed_id: int):
        """Promote slaves for every instance the failed server hosted.

        The promoted slave applies its pending sync queue first so no
        acknowledged write is lost; a new slave is chosen among the
        remaining live servers and bootstrapped with a snapshot.
        """
        failed = self.server(failed_id)
        if failed.alive:
            raise TDStoreError(
                f"server {failed_id} is alive; refusing failover"
            )
        live = [s for s in self.servers() if s.alive]
        if len(live) < 2:
            raise TDStoreError("not enough live servers to re-replicate")
        # migrations whose source or target just died cannot complete;
        # abort them so failover sees a clean (fence-free) route state
        for instance in sorted(self._migrations):
            migration = self._migrations[instance]
            if failed_id in (migration.source_id, migration.target_id):
                migration.abort()
        table = self._table
        for instance in table.instances_hosted_by(failed_id):
            route = table.route(instance)
            promoted = self.server(route.slave)
            if not promoted.alive:
                raise TDStoreError(
                    f"instance {instance}: host and slave both down; data lost"
                )
            promoted.apply_pending(instance)
            new_slave = self._pick_new_slave(route.slave, live)
            snapshot = promoted.snapshot_instance(instance)
            self.server(new_slave).adopt_snapshot(instance, snapshot)
            table = table.promote_slave(instance, new_slave)
            # fencing handoff: the promoted slave now owns the instance;
            # the crashed server must not serve it if it ever revives
            promoted.set_host_role(instance, True)
            failed.set_host_role(instance, False)
        # instances where the failed server was the *slave* need a new slave
        for instance in table.instances_backed_by(failed_id):
            route = table.route(instance)
            if route.host == failed_id:
                continue
            host = self.server(route.host)
            if not host.alive:
                continue
            new_slave = self._pick_new_slave(route.host, live)
            snapshot = host.snapshot_instance(instance)
            self.server(new_slave).adopt_snapshot(instance, snapshot)
            table = table.with_slave(instance, new_slave)
        self._table = table
        self.failovers += 1

    def handle_server_recovery(self, server_id: int):
        """Resynchronize a restarted server's replicas.

        TDStore is memory-based: a restarted process has empty engines,
        but the route table may still name it host or slave for some
        instances. Each such instance is re-seeded from its other
        (live) participant before the server serves traffic again.
        """
        server = self.server(server_id)
        if not server.alive:
            raise TDStoreError(
                f"server {server_id} is down; recover it first"
            )
        table = self._table
        for instance in range(table.num_instances):
            route = table.route(instance)
            if server_id == route.host:
                peer = self.server(route.slave)
                # restart cleared the roles; re-grant what the current
                # table still assigns to this server
                server.set_host_role(instance, True)
            elif server_id == route.slave:
                peer = self.server(route.host)
            else:
                continue
            if not peer.alive:
                continue  # both copies were lost; nothing to restore from
            peer.apply_pending(instance)
            server.adopt_snapshot(instance, peer.snapshot_instance(instance))

    def _pick_new_slave(self, host_id: int, live: list[TDStoreDataServer]) -> int:
        candidates = [s for s in live if s.server_id != host_id]
        if not candidates:
            raise RouteError("no live server available as new slave")
        # least-loaded (fewest hosted instances) keeps the balance property
        load = self._table.host_load()
        return min(
            candidates, key=lambda s: (load.get(s.server_id, 0), s.server_id)
        ).server_id

    def kill_host_config(self):
        """Host config server dies; the backup answers queries seamlessly."""
        if not self.host_alive:
            raise TDStoreError("host config server already down")
        self.host_alive = False
