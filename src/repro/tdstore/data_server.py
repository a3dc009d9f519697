"""TDStore data servers.

A data server holds one engine per data instance it participates in
(whether as host or slave). Host writes are applied locally and queued
for the slave in the same call (:meth:`TDStoreDataServer.mutate`); the
slave applies queued records "when idle" — we expose that as an explicit
:meth:`apply_pending` the cluster calls during idle periods and,
crucially, before a slave is promoted.

A slave queues state, not history: its inbox keeps each key's last
record (a put or a delete) in first-queued order, so a burst of writes
costs it at most one pending record per key it touched. Every record is
a whole put or delete of its key, so applying the inbox leaves the
replica where applying every superseded record in order would have.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import (
    DataServerDownError,
    MigrationInProgressError,
    StaleRouteError,
    TDStoreError,
)
from repro.tdstore.engines import JOURNAL_PREFIX, VERSION_PREFIX, StorageEngine

_DELETE = "__delete__"
_PUT = "__put__"
_ABSENT = object()


@dataclass
class SyncRecord:
    """One replicated mutation: operation, key, and value (for puts)."""

    op: str
    key: str
    value: Any = None


# The host operations a client mutation may name (see
# ``TDStoreDataServer.mutate``). Each applies one op to the instance's
# engine and returns ``(result, sync_records)``: the records reproduce
# the op (value plus version/journal meta keys) so the slave converges
# to the same transactional state — which is what makes a replayed
# ``apply`` a no-op even after a host→slave failover.


def _journaled(engine: StorageEngine, key: str) -> "list[SyncRecord]":
    """Value, journal and version of ``key``, as they stand after a
    journaled write landed."""
    return [
        SyncRecord(_PUT, key, engine.get(key)),
        SyncRecord(_PUT, JOURNAL_PREFIX + key, engine.get(JOURNAL_PREFIX + key)),
        SyncRecord(_PUT, VERSION_PREFIX + key, engine.version(key)),
    ]


def _put(engine: StorageEngine, key: str, value: Any):
    engine.put(key, value)
    return None, [SyncRecord(_PUT, key, value)]


def _delete(engine: StorageEngine, key: str):
    engine.delete(key)
    return None, [SyncRecord(_DELETE, key)]


def _check_and_set(engine: StorageEngine, key: str, value: Any, expected: int):
    new_version = engine.check_and_set(key, value, expected)
    return new_version, [
        SyncRecord(_PUT, key, value),
        SyncRecord(_PUT, VERSION_PREFIX + key, new_version),
    ]


def _apply_op(engine: StorageEngine, key: str, op_id: str, delta: float):
    value, applied = engine.apply_op(key, op_id, delta)
    return (value, applied), (_journaled(engine, key) if applied else [])


def _put_once(engine: StorageEngine, key: str, op_id: str, value: Any):
    """Atomic journaled write: value, journal and version land together."""
    applied = engine.put_once(key, op_id, value)
    return applied, (_journaled(engine, key) if applied else [])


def _record_once(engine: StorageEngine, key: str, op_id: str):
    if not engine.record_once(key, op_id):
        return False, []
    return True, [
        SyncRecord(_PUT, JOURNAL_PREFIX + key, engine.get(JOURNAL_PREFIX + key))
    ]


# the journaled writes, whose op id may be a run (see ``StorageEngine``)
JOURNALED = ("apply_op", "put_once")

HOST_MUTATIONS = {
    "put": _put,
    "delete": _delete,
    "check_and_set": _check_and_set,
    "apply_op": _apply_op,
    "put_once": _put_once,
    "record_once": _record_once,
}

# the replica-side op of an envelope: records a host in another process
# produced, forwarded by the client (see ``TDStoreDataServer.mutate``)
ENQUEUE_SYNCS = "enqueue_syncs"


class TDStoreDataServer:
    """One TDStore data-server process."""

    def __init__(self, server_id: int, engine_factory: Callable[[], StorageEngine]):
        self.server_id = server_id
        self.alive = True
        self._engine_factory = engine_factory
        self._engines: dict[int, StorageEngine] = {}
        # replication inbox per instance this server backs up: key -> its
        # last record since the last sync, in first-queued order
        self._sync_inbox: dict[int, dict[str, SyncRecord]] = {}
        # instances this server currently *hosts* (fencing: client traffic
        # for any other instance means the client's route table is stale)
        self._hosted: set[int] = set()
        # instances mid-cutover to a new host: still owned here, but the
        # migration fence bounces traffic so no write can land after the
        # catch-up queue was drained at the target
        self._migrating_out: set[int] = set()
        # instances migrating off this server -> catch-up target, where
        # every host write is queued too until cutover or abort
        self._catch_up: dict[int, int] = {}
        # servers living in the same process (id -> server), this one
        # included: the replicas a host write can queue records on itself
        self._colocated: dict[int, TDStoreDataServer] = {server_id: self}
        self.reads = 0
        self.writes = 0
        self.batch_ops = 0
        self.replica_reads = 0
        self.syncs_applied = 0
        self.repairs_applied = 0
        # degradation state (chaos injection): extra seconds a client
        # should charge per operation, and a deterministic error cadence
        self.latency = 0.0
        self.error_every = 0
        self._degraded_ops = 0
        self.injected_errors = 0

    def colocate(self, peers: "dict[int, TDStoreDataServer]"):
        """Join ``peers``, the id -> server map of one process.

        The map is shared, not copied, so a server created later (elastic
        expansion) becomes visible to every earlier one by joining.
        """
        peers[self.server_id] = self
        self._colocated = peers

    # -- instance management ------------------------------------------------

    def ensure_instance(self, instance: int) -> StorageEngine:
        engine = self._engines.get(instance)
        if engine is None:
            engine = self._engine_factory()
            self._engines[instance] = engine
            self._sync_inbox.setdefault(instance, {})
        return engine

    def engine(self, instance: int) -> StorageEngine:
        self._check_alive()
        try:
            return self._engines[instance]
        except KeyError:
            raise TDStoreError(
                f"server {self.server_id} has no instance {instance}"
            ) from None

    def instances(self) -> list[int]:
        return sorted(self._engines)

    def set_host_role(self, instance: int, hosting: bool):
        """Config server grants/revokes the host role for ``instance``."""
        self.ensure_instance(instance)
        if hosting:
            self._hosted.add(instance)
        else:
            self._hosted.discard(instance)

    def hosts(self, instance: int) -> bool:
        return instance in self._hosted

    def _check_alive(self):
        if not self.alive:
            raise DataServerDownError(f"data server {self.server_id} is down")

    def _check_host(self, instance: int):
        if instance in self._migrating_out:
            raise MigrationInProgressError(
                f"instance {instance} is mid-cutover off server "
                f"{self.server_id}; await the migration and retry",
                instance=instance,
            )
        if instance not in self._hosted:
            raise StaleRouteError(
                f"server {self.server_id} no longer hosts instance "
                f"{instance}; refresh the route table"
            )

    def _admit(self, instance: int, cadence_checked: set) -> StorageEngine:
        """The engine of ``instance``, once this server may serve client
        traffic for it: alive, holding it, hosting it, not fenced — and
        past the degradation cadence, which one frame meets once per
        server (``cadence_checked``)."""
        engine = self.engine(instance)
        self._check_host(instance)
        if self.server_id not in cadence_checked:
            cadence_checked.add(self.server_id)
            self._check_degraded()
        return engine

    def set_migration_fence(self, instance: int, fenced: bool):
        """Raise/lower the cutover fence for one migrating instance."""
        if fenced:
            self._migrating_out.add(instance)
        else:
            self._migrating_out.discard(instance)

    def set_catch_up_target(self, instance: int, target: "int | None"):
        """Open (``target`` a server id) or close (``None``) the
        dual-write window of a live migration of ``instance``."""
        if target is None:
            self._catch_up.pop(instance, None)
        else:
            self._catch_up[instance] = target

    # -- degradation (latency spikes, error rates, brownouts) -----------------

    def set_degradation(
        self, latency: float | None = None, error_every: int | None = None
    ):
        """Enter a degraded mode: per-op added latency and/or a
        deterministic failure cadence (every ``error_every``-th op).
        Every op costs ``latency``: an in-process client charges it to
        its clock, a server host stalls the frame (capped)."""
        if latency is not None:
            if latency < 0:
                raise TDStoreError(f"latency must be >= 0: {latency}")
            self.latency = float(latency)
        if error_every is not None:
            if error_every < 0:
                raise TDStoreError(f"error_every must be >= 0: {error_every}")
            self.error_every = int(error_every)

    def clear_degradation(self):
        self.latency = 0.0
        self.error_every = 0

    @property
    def degraded(self) -> bool:
        return self.latency > 0.0 or self.error_every > 0

    def _check_degraded(self):
        if self.error_every:
            self._degraded_ops += 1
            if self._degraded_ops % self.error_every == 0:
                self.injected_errors += 1
                raise DataServerDownError(
                    f"data server {self.server_id} dropped the request "
                    f"(injected error rate 1/{self.error_every})"
                )

    # -- host-side operations -----------------------------------------------

    def get(self, instance: int, key: str, default: Any = None) -> Any:
        engine = self.engine(instance)
        self._check_host(instance)
        self._check_degraded()
        value = engine.get(key, default)
        self.reads += 1
        return value

    def gather(self, reads: list) -> "tuple[dict, dict, list, list]":
        """One read frame: values and replay probes together.

        ``reads`` is a list of ``(server_id, instance, keys, probes)``
        with ``probes`` a list of ``(key, op_id)``; it may name any
        servers of this process — this is one request on the wire, so a
        100-key batch over four colocated servers is one trip. Returns
        ``(values, seen, rest, refused)``: ``values`` holds only the
        keys that exist (no default is invented for a missing one),
        ``seen`` maps each probe to whether its op id is journaled
        against its key, ``rest`` is the entries that belong to another
        process, for the client to send there, and ``refused`` pairs
        each entry this process owns but may not serve with its error.

        Nothing is raised for a refusal, because the two callers differ
        on what it means (:meth:`TDStoreClient.gather` raises the first,
        :meth:`TDStoreClient.multi_get` degrades that entry alone). The
        host fence is enforced per instance, so a stale route on one
        shard can leak no data from an instance this server no longer
        owns; a downed server, or one whose degradation cadence — met
        once per server per frame, the batching win — drops the frame,
        refuses its every entry.
        """
        peers = self._colocated
        values: dict[str, Any] = {}
        seen: dict[tuple[str, str], bool] = {}
        rest, refused = [], []
        cadence_checked: set = set()
        down: dict[int, DataServerDownError] = {}
        for read in reads:
            server_id, instance, keys, probes = read
            server = peers.get(server_id)
            if server is None:
                rest.append(read)
                continue
            error = down.get(server_id)
            if error is None:
                try:
                    engine = server._admit(instance, cadence_checked)
                except DataServerDownError as exc:
                    error = down[server_id] = exc
                except (StaleRouteError, MigrationInProgressError) as exc:
                    error = exc
            if error is not None:
                refused.append((read, error))
                continue
            for key in keys:
                value = engine.get(key, _ABSENT)
                if value is not _ABSENT:
                    values[key] = value
            for probe in probes:
                seen[probe] = engine.op_seen(*probe)
            server.reads += len(keys) + len(probes)
        for server_id in cadence_checked - down.keys():
            peers[server_id].batch_ops += 1
        return values, seen, rest, refused

    def read_replica(
        self, instance: int, keys: list[str], default: Any = None
    ) -> dict[str, Any]:
        """Hedged read from whatever copy of ``instance`` this server holds.

        No host-fencing check: the caller knowingly accepts a replica
        that may lag the host by its un-applied sync queue. Used by the
        client when the host shard is unreachable and failover cannot
        run — stale-but-served beats failing the whole query.
        """
        self._check_alive()
        engine = self._engines.get(instance)
        if engine is None:
            raise TDStoreError(
                f"server {self.server_id} holds no replica of instance "
                f"{instance}"
            )
        self._check_degraded()
        self.reads += len(keys)
        self.replica_reads += 1
        return engine.multi_get(keys, default)

    def mutate(self, ops: list) -> "tuple[list, list]":
        """One envelope of client mutations, replica sync included.

        ``ops`` is an ordered list of ``(server_id, instance, method,
        args, replicas)``: ``method`` one of :data:`HOST_MUTATIONS`
        applied at the instance's host ``server_id``, whose sync records
        are queued on every server of ``replicas`` (the instance's
        slave) and on the host's catch-up target while the instance is
        migrating. The ops may name any servers of this process; a
        single mutation is an envelope of one.

        The envelope covers the leading run of ops whose server lives in
        this process. Liveness, host role, migration fence, the
        degradation cadence (once per server) and the journal of every
        multi-id ``put_once`` / ``apply_op`` (all of its ids seen or
        none) are checked for the whole run *before* anything is
        applied, so a refused envelope mutates nothing and the caller
        can re-route and re-send it; then the run is applied in order.
        Returns ``(results, rest)``: one result per
        applied host op, and what is left for the client to send on —
        first the sync records of replicas owned by another process (as
        :data:`ENQUEUE_SYNCS` ops, one per replica and instance), then
        the ops from the first one that belongs elsewhere. Cutting at
        that op rather than skipping past it keeps the order the caller
        wrote: whatever fails later, a prefix landed.

        A downed replica rejects its records and is skipped, the
        decision a liveness pre-check would make. Because apply and
        enqueue are one call, a retry that dedups after a lost ack
        leaves no replica behind, and one log record of this call
        replays both effects.
        """
        peers = self._colocated
        run = 0
        cadence_checked = set()
        for server_id, instance, method, args, __ in ops:
            server = peers.get(server_id)
            if server is None:
                break
            run += 1
            if method == ENQUEUE_SYNCS:
                continue
            if method not in HOST_MUTATIONS:
                raise TDStoreError(f"{method!r} is not a host mutation")
            if method == "check_and_set" and len(ops) > 1:
                # the one op that can fail while applying: alone, its
                # failure leaves nothing half done
                raise TDStoreError(
                    "check_and_set cannot share an envelope with other ops"
                )
            engine = server._admit(instance, cadence_checked)
            if method in JOURNALED and isinstance(args[1], tuple):
                # a run fails while applying if partly journaled: refuse
                # it here, with nothing of the envelope applied
                engine.check_run(args[0], args[1])
        results = []
        forwards = None
        for server_id, instance, method, args, replicas in ops[:run]:
            if method == ENQUEUE_SYNCS:
                records = args[0]
                replicas = (server_id,)
            else:
                server = peers[server_id]
                result, records = HOST_MUTATIONS[method](
                    server._engines[instance], *args
                )
                server.writes += 1
                results.append(result)
                if not records:
                    continue
                if server._catch_up:
                    target = server._catch_up.get(instance)
                    if target is not None and target not in replicas:
                        replicas = (*replicas, target)
            for replica in replicas:
                peer = peers.get(replica)
                if peer is None:
                    if forwards is None:
                        forwards = {}
                    forwards.setdefault((replica, instance), []).extend(records)
                    continue
                try:
                    peer.enqueue_syncs(instance, records)
                except DataServerDownError:
                    pass
        if forwards is None:
            return results, ops[run:]
        rest = [
            (replica, instance, ENQUEUE_SYNCS, (records,), ())
            for (replica, instance), records in forwards.items()
        ]
        rest.extend(ops[run:])
        return results, rest

    def get_versioned(
        self, instance: int, key: str, default: Any = None
    ) -> tuple[Any, int]:
        engine = self.engine(instance)
        self._check_host(instance)
        self._check_degraded()
        self.reads += 1
        return engine.get(key, default), engine.version(key)

    def journal_evictions(self) -> int:
        """Op-journal ids trimmed across this server's engines (monitoring)."""
        return sum(e.journal_evictions for e in self._engines.values())

    def journal_overruns(self) -> int:
        """Journaled runs longer than the journal, across this server's
        engines (monitoring)."""
        return sum(e.journal_overruns for e in self._engines.values())

    # -- slave-side replication ----------------------------------------------

    def enqueue_syncs(self, instance: int, records: list[SyncRecord]):
        """Host notified us of an update; apply later, when idle.

        Each record replaces whatever is pending for its key, so the
        inbox holds one record per key written since the last sync.
        A downed replica rejects records — the replicator treats the
        rejection as "skip this replica", the same outcome as checking
        liveness first but without a separate round trip.
        """
        self._check_alive()
        self.ensure_instance(instance)
        inbox = self._sync_inbox[instance]
        for record in records:
            inbox[record.key] = record

    def pending_syncs(self, instance: int | None = None) -> int:
        """Keys this replica is behind its host on (of one instance, or
        of all of them)."""
        if instance is not None:
            return len(self._sync_inbox.get(instance, ()))
        return sum(len(q) for q in self._sync_inbox.values())

    def apply_pending(self, instance: int | None = None):
        """Apply and empty the inbox (the slave updating "when idle"):
        each pending key gets its last queued put or delete."""
        self._check_alive()
        targets = [instance] if instance is not None else list(self._sync_inbox)
        for target in targets:
            inbox = self._sync_inbox.get(target)
            if not inbox:
                continue
            engine = self.ensure_instance(target)
            for key in list(inbox):
                record = inbox.pop(key)
                if record.op == _PUT:
                    engine.put(record.key, record.value)
                elif record.op == _DELETE:
                    engine.delete(record.key)
                else:
                    raise TDStoreError(f"unknown sync op {record.op!r}")
                self.syncs_applied += 1

    def snapshot_instance(self, instance: int) -> dict[str, Any]:
        """Full contents of one instance (checkpoint / replica bootstrap)."""
        self._check_alive()
        return self.engine(instance).snapshot()

    def adopt_snapshot(
        self, instance: int, data: dict[str, Any], keep_queued: bool = False
    ):
        """Bootstrap a replica of ``instance`` from a full snapshot.

        Queued sync records predate the snapshot and are dropped —
        except at a migration target (``keep_queued``), whose queue was
        emptied before the window opened and the snapshot taken after.
        """
        engine = self.ensure_instance(instance)
        engine.restore(data)
        if not keep_queued:
            self._sync_inbox[instance] = {}

    def apply_repair(
        self, instance: int, puts: dict[str, Any], deletes: "list[str]"
    ) -> dict:
        """Anti-entropy read-repair: overwrite divergent keys with the
        authoritative host copy.

        Alive-guarded but *not* host-fenced — repair targets the
        replica, which by definition does not host the instance.
        Values arrive from the host's engine snapshot, so the
        ``__ver__:``/``__ops__:`` meta keys ride along with their data
        keys and ``put_once``/``apply_op`` dedup survives the repair.
        """
        self._check_alive()
        engine = self.ensure_instance(instance)
        for key, value in puts.items():
            engine.put(key, value)
        removed = 0
        for key in deletes:
            removed += 1 if engine.delete(key) else 0
        self.repairs_applied += len(puts) + len(deletes)
        return {"puts": len(puts), "deletes": len(deletes), "removed": removed}

    # -- failure model --------------------------------------------------------

    def crash(self):
        self.alive = False

    def recover(self):
        """Process restarts: in-memory engines are empty again.

        (Engines with real persistence, like FDB, keep their data because
        the factory points at the same directory.)

        Host roles are forgotten too — the config server re-grants them
        from the current route table, which may have moved every instance
        elsewhere while this server was down. Until then the fencing
        check bounces any client still routing traffic here.
        """
        self.alive = True
        self._engines = {
            instance: self._engine_factory() for instance in self._engines
        }
        self._sync_inbox = {instance: {} for instance in self._sync_inbox}
        self._hosted = set()
        self._migrating_out = set()  # any fence died with the old process
        self._catch_up = {}  # and any dual-write window
        self.clear_degradation()  # a restarted process is healthy again

    def __repr__(self) -> str:
        state = "up" if self.alive else "DOWN"
        return (
            f"TDStoreDataServer({self.server_id}, {state}, "
            f"{len(self._engines)} instances)"
        )
