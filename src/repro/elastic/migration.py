"""Live TDStore instance migration.

Moving a data instance to a new host without stopping traffic is the
storage half of elasticity: expansion adds empty servers, and only
migration gives them load. The protocol is the classic three-phase move,
expressed over the simulation's primitives:

1. **snapshot copy** (``begin``) — the target gets an empty replica,
   the source opens the dual-write window, and only then does the
   target adopt a snapshot of the instance's engine. Engine snapshots
   include the ``__ops__:`` op journals and ``__ver__:`` versions, so
   every dedup decision and CAS version travels with the data and
   ``put_once`` replays stay no-ops after the move.
2. **dual-write catch-up** — in the window the source host queues the
   full-value sync records of every write on the instance at the
   target as well as the slave; the target's inbox keeps each key's
   last one, applied over the copy at cutover. Reads stay at the source.
3. **epoch-bumped cutover** (``enter_cutover`` → ``finish``) — the
   source raises a migration fence (its fencing check answers
   :class:`~repro.errors.MigrationInProgressError` instead of serving),
   the target drains its catch-up queue, and the config pair installs a
   route table derived with :meth:`~repro.tdstore.route_table.RouteTable.with_host`
   — one epoch bump that clients pick up through the existing
   ``route_epoch`` gate. A client that hits the fence awaits the
   cutover and retries only the moving shard.

After cutover the migrator publishes serving-layer invalidations for
the migrated keys (mapped by
:func:`~repro.serving.invalidation.invalidation_for_key`), so cached
answers computed against the old placement are staled rather than
trusted blindly across the move.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.errors import MigrationError
from repro.tdstore.config_server import ConfigServerPair

if TYPE_CHECKING:
    from repro.serving.invalidation import InvalidationBus

# simulated cost of the cutover window: one route-install round trip
# plus the per-record catch-up drain at the target
CUTOVER_FIXED_SECONDS = 0.002
CUTOVER_PER_RECORD_SECONDS = 0.0002

STATES = ("pending", "catching_up", "cutover", "done", "aborted")


@dataclass
class MigrationRecord:
    """Observable state of one migration (monitoring + manifests)."""

    instance: int
    source: int
    target: int
    state: str = "pending"
    keys_copied: int = 0
    records_caught_up: int = 0
    invalidations_published: int = 0
    started_at: "float | None" = None
    finished_at: "float | None" = None
    stall_seconds: float = 0.0

    def as_dict(self) -> dict:
        return {
            "instance": self.instance,
            "source": self.source,
            "target": self.target,
            "state": self.state,
            "keys_copied": self.keys_copied,
            "records_caught_up": self.records_caught_up,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }


class Migration:
    """One live instance move, driven phase by phase.

    Use :class:`InstanceMigrator` for the one-shot form; the stepped
    form (``begin`` → ``enter_cutover`` → ``finish``) exists so tests
    and benchmarks can hold the cutover window open and measure what
    clients experience inside it.
    """

    def __init__(
        self,
        config: ConfigServerPair,
        instance: int,
        target_id: int,
        clock_now: "Callable[[], float] | None" = None,
        bus: "InvalidationBus | None" = None,
    ):
        self._config = config
        self.instance = instance
        self.target_id = target_id
        self._now = clock_now
        self._bus = bus
        self._on_settled: "Callable[[MigrationRecord], None] | None" = None
        route = config.route_table().route(instance)
        self.source_id = route.host
        self.record = MigrationRecord(
            instance=instance, source=self.source_id, target=target_id
        )

    @property
    def state(self) -> str:
        return self.record.state

    @property
    def stall_seconds(self) -> float:
        return self.record.stall_seconds

    def _time(self) -> "float | None":
        return self._now() if self._now is not None else None

    # -- phase 1: snapshot copy + dual-write registration -----------------

    def begin(self):
        """Open the dual-write window and copy the instance to the target."""
        if self.state != "pending":
            raise MigrationError(
                f"instance {self.instance}: begin() in state {self.state!r}"
            )
        if self._config.migration_target(self.instance) is not None:
            raise MigrationError(
                f"instance {self.instance} already has a migration in flight"
            )
        route = self._config.route_table().route(self.instance)
        if route.host != self.source_id:
            raise MigrationError(
                f"instance {self.instance} moved hosts ({self.source_id} -> "
                f"{route.host}) since this migration was planned"
            )
        target = self._config.server(self.target_id)
        if not target.alive:
            raise MigrationError(
                f"migration target server {self.target_id} is down"
            )
        if self.target_id == route.host:
            raise MigrationError(
                f"instance {self.instance} is already hosted by server "
                f"{self.target_id}"
            )
        if self.target_id == route.slave:
            raise MigrationError(
                f"server {self.target_id} is instance {self.instance}'s "
                "slave; promote it instead of migrating onto it"
            )
        source = self._config.server(self.source_id)
        # the window opens before the snapshot, so no write can fall
        # between the two: it is in the copy, in the queue, or both
        target.adopt_snapshot(self.instance, {})
        source.set_catch_up_target(self.instance, self.target_id)
        snapshot = source.snapshot_instance(self.instance)
        # each replica owns its values: post-cutover writes at the target
        # must not reach back into the (still replica-holding) source
        target.adopt_snapshot(self.instance, copy.deepcopy(snapshot), True)
        self.record.keys_copied = len(snapshot)
        self.record.started_at = self._time()
        self.record.state = "catching_up"
        self._config.register_migration(self)

    # -- phase 3: cutover --------------------------------------------------

    def enter_cutover(self):
        """Fence the source: traffic now waits for :meth:`finish`."""
        if self.state != "catching_up":
            raise MigrationError(
                f"instance {self.instance}: enter_cutover() in state "
                f"{self.state!r}"
            )
        self._config.server(self.source_id).set_migration_fence(
            self.instance, True
        )
        self.record.state = "cutover"

    def finish(self) -> MigrationRecord:
        """Drain the catch-up queue, move the host role, bump the epoch."""
        if self.state == "done":
            return self.record  # idempotent: a racing await already won
        if self.state == "aborted":
            raise MigrationError(
                f"instance {self.instance}: migration was aborted"
            )
        if self.state == "catching_up":
            self.enter_cutover()
        if self.state != "cutover":
            raise MigrationError(
                f"instance {self.instance}: finish() in state {self.state!r}"
            )
        target = self._config.server(self.target_id)
        if not target.alive:
            self.abort()
            raise MigrationError(
                f"migration target server {self.target_id} died mid-move; "
                "migration aborted"
            )
        caught_up = target.pending_syncs(self.instance)
        target.apply_pending(self.instance)
        self.record.records_caught_up = caught_up

        table = self._config.route_table()
        route = table.route(self.instance)
        if route.host != self.source_id:
            # a failover raced us and moved the instance already; the
            # snapshot at the target is now of unknown lineage — abort
            self.abort()
            raise MigrationError(
                f"instance {self.instance} failed over to server "
                f"{route.host} mid-migration; migration aborted"
            )
        # keep the slave unless a failover made the target the slave
        new_slave = self.source_id if route.slave == self.target_id else None
        self._config.install_table(
            table.with_host(self.instance, self.target_id, new_slave)
        )
        target.set_host_role(self.instance, True)
        source = self._config.server(self.source_id)
        source.set_host_role(self.instance, False)
        source.set_catch_up_target(self.instance, None)
        source.set_migration_fence(self.instance, False)

        self.record.stall_seconds = (
            CUTOVER_FIXED_SECONDS + CUTOVER_PER_RECORD_SECONDS * caught_up
        )
        self.record.finished_at = self._time()
        self.record.state = "done"
        self._config.unregister_migration(self.instance, True)
        self._publish_invalidations(target)
        self._settle()
        return self.record

    def abort(self):
        """Back out: lower the fence, close the dual-write window."""
        if self.state in ("done", "aborted"):
            return
        source = self._config.server(self.source_id)
        if source.alive:
            source.set_catch_up_target(self.instance, None)
            source.set_migration_fence(self.instance, False)
        self._config.unregister_migration(self.instance, False)
        self.record.state = "aborted"
        self._settle()

    # -- post-cutover serving invalidation --------------------------------

    def _publish_invalidations(self, target):
        if self._bus is not None:
            self.record.invalidations_published = self._bus.publish_keys(
                target.engine(self.instance).snapshot()
            )

    def _settle(self):
        if self._on_settled is not None:
            self._on_settled(self.record)
            self._on_settled = None


class InstanceMigrator:
    """Drives live migrations against one TDStore deployment.

    Parameters
    ----------
    store:
        A :class:`~repro.tdstore.cluster.TDStoreCluster` or its
        :class:`~repro.tdstore.config_server.ConfigServerPair`.
    clock_now:
        Optional clock for migration timestamps.
    bus:
        Optional :class:`~repro.serving.invalidation.InvalidationBus`;
        when given, cached results depending on migrated keys are evicted
        at cutover.
    """

    def __init__(
        self,
        store,
        clock_now: "Callable[[], float] | None" = None,
        bus: "InvalidationBus | None" = None,
    ):
        self._config: ConfigServerPair = getattr(store, "config", store)
        self._now = clock_now
        self._bus = bus
        self.migrations: list[MigrationRecord] = []

    def begin(self, instance: int, target_id: int) -> Migration:
        """Start a stepped migration (snapshot copy + dual-write)."""
        migration = Migration(
            self._config, instance, target_id,
            clock_now=self._now, bus=self._bus,
        )
        migration._on_settled = self.migrations.append
        migration.begin()
        return migration

    def migrate(self, instance: int, target_id: int) -> MigrationRecord:
        """Move ``instance`` to ``target_id``, start to finish."""
        migration = self.begin(instance, target_id)
        migration.enter_cutover()
        return migration.finish()

    # -- load balancing ----------------------------------------------------

    def plan_rebalance(self) -> list[tuple[int, int]]:
        """Moves ``(instance, target_server)`` that even out host load.

        Greedy: repeatedly shift one instance from the most- to the
        least-loaded live server until the spread is <= 1 (or no legal
        move remains — a move may not target the instance's own slave).
        """
        table = self._config.route_table()
        live = [s.server_id for s in self._config.servers() if s.alive]
        if len(live) < 2:
            return []
        load = {sid: 0 for sid in live}
        for sid, count in table.host_load().items():
            if sid in load:
                load[sid] = count
        hosted = {sid: list(table.instances_hosted_by(sid)) for sid in live}
        moves: list[tuple[int, int]] = []
        while True:
            most = max(live, key=lambda s: (load[s], s))
            least = min(live, key=lambda s: (load[s], s))
            if load[most] - load[least] <= 1:
                break
            candidates = [
                i for i in hosted[most] if table.route(i).slave != least
            ]
            if not candidates:
                break
            instance = candidates[0]
            hosted[most].remove(instance)
            hosted[least].append(instance)
            load[most] -= 1
            load[least] += 1
            moves.append((instance, least))
        return moves

    def rebalance(self) -> list[MigrationRecord]:
        """Plan and run every move; the usual step after expansion."""
        return [
            self.migrate(instance, target)
            for instance, target in self.plan_rebalance()
        ]

    # -- decommissioning ---------------------------------------------------

    def drain(
        self, server_id: int, exclude: "tuple[int, ...]" = ()
    ) -> list[MigrationRecord]:
        """Live-migrate every role off ``server_id``.

        Hosted instances move to the least-loaded remaining live servers
        through the full migration protocol; instances it backed up get
        a fresh slave seeded from their host. The server stays alive and
        registered (so in-flight clients can still be answered by
        fences) but owns nothing afterwards. ``exclude`` removes further
        servers from the target pool — a multi-server decommission must
        not shuffle load between the servers it is emptying.
        """
        config = self._config
        server = config.server(server_id)
        if not server.alive:
            raise MigrationError(
                f"server {server_id} is down; use failover, not drain"
            )
        barred = {server_id, *exclude}
        others = [
            s for s in config.servers()
            if s.alive and s.server_id not in barred
        ]
        if len(others) < 2:
            raise MigrationError(
                "draining would leave fewer than two live servers"
            )
        records: list[MigrationRecord] = []
        for instance in config.route_table().instances_hosted_by(server_id):
            table = config.route_table()
            route = table.route(instance)
            load = table.host_load()
            target = min(
                (s for s in others if s.server_id != route.slave),
                key=lambda s: (load.get(s.server_id, 0), s.server_id),
            ).server_id
            records.append(self.migrate(instance, target))
        for instance in config.route_table().instances_backed_by(server_id):
            table = config.route_table()
            route = table.route(instance)
            host = config.server(route.host)
            load = table.host_load()
            new_slave = min(
                (s for s in others if s.server_id != route.host),
                key=lambda s: (load.get(s.server_id, 0), s.server_id),
            ).server_id
            host.apply_pending(instance)
            snapshot = host.engine(instance).snapshot()
            config.server(new_slave).adopt_snapshot(
                instance, copy.deepcopy(snapshot)
            )
            config.install_table(table.with_slave(instance, new_slave))
        return records
