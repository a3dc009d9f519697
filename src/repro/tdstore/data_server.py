"""TDStore data servers.

A data server holds one engine per data instance it participates in
(whether as host or slave). Host writes are applied locally and queued
for the slave in the same call (:meth:`TDStoreDataServer.mutate`); the
slave applies queued records "when idle" — we expose that as an explicit
:meth:`apply_pending` the cluster calls during idle periods and,
crucially, before a slave is promoted.
"""

from __future__ import annotations

from collections import deque
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

# the host operations a client mutation may name (see ``mutate``); each
# returns ``(result, sync_records)``
HOST_MUTATIONS = frozenset(
    {"put", "delete", "check_and_set", "apply_op", "put_once", "record_once"}
)


@dataclass
class SyncRecord:
    """One replicated mutation: operation, key, and value (for puts)."""

    op: str
    key: str
    value: Any = None


class TDStoreDataServer:
    """One TDStore data-server process."""

    def __init__(self, server_id: int, engine_factory: Callable[[], StorageEngine]):
        self.server_id = server_id
        self.alive = True
        self._engine_factory = engine_factory
        self._engines: dict[int, StorageEngine] = {}
        # replication inbox per instance this server backs up
        self._sync_inbox: dict[int, deque[SyncRecord]] = {}
        # instances this server currently *hosts* (fencing: client traffic
        # for any other instance means the client's route table is stale)
        self._hosted: set[int] = set()
        # instances mid-cutover to a new host: still owned here, but the
        # migration fence bounces traffic so no write can land after the
        # catch-up queue was drained at the target
        self._migrating_out: set[int] = set()
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
            self._sync_inbox.setdefault(instance, deque())
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

    def set_migration_fence(self, instance: int, fenced: bool):
        """Raise/lower the cutover fence for one migrating instance."""
        if fenced:
            self._migrating_out.add(instance)
        else:
            self._migrating_out.discard(instance)

    # -- degradation (latency spikes, error rates, brownouts) -----------------

    def set_degradation(
        self, latency: float | None = None, error_every: int | None = None
    ):
        """Enter a degraded mode: per-op added latency and/or a
        deterministic failure cadence (every ``error_every``-th op)."""
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

    def multi_get(
        self, batches: dict[int, list[str]], default: Any = None
    ) -> dict[str, Any]:
        """One batch read covering every ``instance -> keys`` group.

        This is one request on the wire: liveness and the degradation
        cadence are checked once for the whole op (which is the batching
        win — a 100-key batch is one error opportunity, not 100), while
        host fencing is still enforced per instance so a stale route on
        any shard fails the batch before data from a non-owned instance
        can leak into the result.
        """
        self._check_alive()
        engines = {}
        for instance in batches:
            engines[instance] = self.engine(instance)
            self._check_host(instance)
        self._check_degraded()
        results: dict[str, Any] = {}
        for instance, keys in batches.items():
            results.update(engines[instance].multi_get(keys, default))
            self.reads += len(keys)
        self.batch_ops += 1
        return results

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

    def mutate(
        self, instance: int, method: str, args: tuple, replicas: tuple
    ) -> "tuple[Any, list[SyncRecord], list[int]]":
        """One client mutation, replica sync included.

        Applies ``method(instance, *args)`` — one of
        :data:`HOST_MUTATIONS` — and queues the sync records it produced
        on every server of ``replicas`` (the instance's slave, plus the
        dual-write target of an in-flight migration) that lives in this
        process. A downed replica rejects the records and is skipped,
        the decision a liveness pre-check would make. Returns
        ``(result, records, elsewhere)``: ``elsewhere`` lists the
        replicas owned by another process, and ``records`` is what the
        caller must ship to each of them with :meth:`enqueue_syncs`
        (empty when there is nothing to ship).

        Because the apply and the enqueue are one call, a retry that
        dedups after a lost ack leaves no replica behind, and one log
        record of this call replays both effects.
        """
        if method not in HOST_MUTATIONS:
            raise TDStoreError(f"{method!r} is not a host mutation")
        result, records = getattr(self, method)(instance, *args)
        elsewhere: list[int] = []
        if records:
            for replica in replicas:
                peer = self._colocated.get(replica)
                if peer is None:
                    elsewhere.append(replica)
                    continue
                try:
                    peer.enqueue_syncs(instance, records)
                except DataServerDownError:
                    pass
        return result, (records if elsewhere else []), elsewhere

    # Each host mutation returns its result and the *list* of sync
    # records that reproduce it (value plus version/journal meta keys)
    # so the slave converges to the same transactional state — which is
    # what makes a replayed ``apply`` a no-op even after a host→slave
    # failover.

    def put(
        self, instance: int, key: str, value: Any
    ) -> tuple[None, list[SyncRecord]]:
        engine = self.engine(instance)
        self._check_host(instance)
        self._check_degraded()
        engine.put(key, value)
        self.writes += 1
        return None, [SyncRecord(_PUT, key, value)]

    def delete(self, instance: int, key: str) -> tuple[None, list[SyncRecord]]:
        engine = self.engine(instance)
        self._check_host(instance)
        self._check_degraded()
        engine.delete(key)
        self.writes += 1
        return None, [SyncRecord(_DELETE, key)]

    # -- transactional host operations --------------------------------------

    def get_versioned(
        self, instance: int, key: str, default: Any = None
    ) -> tuple[Any, int]:
        engine = self.engine(instance)
        self._check_host(instance)
        self._check_degraded()
        self.reads += 1
        return engine.get(key, default), engine.version(key)

    def check_and_set(
        self, instance: int, key: str, value: Any, expected_version: int
    ) -> tuple[int, list[SyncRecord]]:
        engine = self.engine(instance)
        self._check_host(instance)
        self._check_degraded()
        new_version = engine.check_and_set(key, value, expected_version)
        self.writes += 1
        return new_version, [
            SyncRecord(_PUT, key, value),
            SyncRecord(_PUT, VERSION_PREFIX + key, new_version),
        ]

    def apply_op(
        self, instance: int, key: str, op_id: str, delta: float
    ) -> tuple[tuple[float, bool], list[SyncRecord]]:
        engine = self.engine(instance)
        self._check_host(instance)
        self._check_degraded()
        value, applied = engine.apply_op(key, op_id, delta)
        self.writes += 1
        if not applied:
            return (value, False), []
        return (value, True), [
            SyncRecord(_PUT, key, value),
            SyncRecord(_PUT, JOURNAL_PREFIX + key,
                       engine.get(JOURNAL_PREFIX + key)),
            SyncRecord(_PUT, VERSION_PREFIX + key, engine.version(key)),
        ]

    def put_once(
        self, instance: int, key: str, op_id: str, value: Any
    ) -> tuple[bool, list[SyncRecord]]:
        """Atomic journaled write: value, journal and version land together.

        The degradation/liveness checks run before the engine is touched,
        so a failed request mutates nothing — the caller can replay the
        whole update and this commit stays all-or-nothing.
        """
        engine = self.engine(instance)
        self._check_host(instance)
        self._check_degraded()
        applied = engine.put_once(key, op_id, value)
        self.writes += 1
        if not applied:
            return False, []
        return True, [
            SyncRecord(_PUT, key, value),
            SyncRecord(_PUT, JOURNAL_PREFIX + key,
                       engine.get(JOURNAL_PREFIX + key)),
            SyncRecord(_PUT, VERSION_PREFIX + key, engine.version(key)),
        ]

    def op_seen(self, instance: int, key: str, op_id: str) -> bool:
        engine = self.engine(instance)
        self._check_host(instance)
        self._check_degraded()
        self.reads += 1
        return engine.op_seen(key, op_id)

    def journal_evictions(self) -> int:
        """Op-journal ids trimmed across this server's engines (monitoring)."""
        return sum(e.journal_evictions for e in self._engines.values())

    def record_once(
        self, instance: int, key: str, op_id: str
    ) -> tuple[bool, list[SyncRecord]]:
        engine = self.engine(instance)
        self._check_host(instance)
        self._check_degraded()
        recorded = engine.record_once(key, op_id)
        self.writes += 1
        if not recorded:
            return False, []
        return True, [
            SyncRecord(_PUT, JOURNAL_PREFIX + key,
                       engine.get(JOURNAL_PREFIX + key)),
        ]

    # -- slave-side replication ----------------------------------------------

    def enqueue_syncs(self, instance: int, records: list[SyncRecord]):
        """Host notified us of an update; apply later, when idle.

        A downed replica rejects records — the replicator treats the
        rejection as "skip this replica", the same outcome as checking
        liveness first but without a separate round trip.
        """
        self._check_alive()
        self.ensure_instance(instance)
        self._sync_inbox[instance].extend(records)

    def pending_syncs(self, instance: int | None = None) -> int:
        if instance is not None:
            return len(self._sync_inbox.get(instance, ()))
        return sum(len(q) for q in self._sync_inbox.values())

    def apply_pending(self, instance: int | None = None):
        """Apply queued sync records (the slave updating "when idle")."""
        self._check_alive()
        targets = [instance] if instance is not None else list(self._sync_inbox)
        for target in targets:
            queue = self._sync_inbox.get(target)
            if not queue:
                continue
            engine = self.ensure_instance(target)
            while queue:
                record = queue.popleft()
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

    def adopt_snapshot(self, instance: int, data: dict[str, Any]):
        """Bootstrap a fresh replica of ``instance`` from a full snapshot."""
        engine = self.ensure_instance(instance)
        engine.restore(data)
        self._sync_inbox[instance] = deque()

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
        self._sync_inbox = {instance: deque() for instance in self._sync_inbox}
        self._hosted = set()
        self._migrating_out = set()  # any fence died with the old process
        self.clear_degradation()  # a restarted process is healthy again

    def __repr__(self) -> str:
        state = "up" if self.alive else "DOWN"
        return (
            f"TDStoreDataServer({self.server_id}, {state}, "
            f"{len(self._engines)} instances)"
        )
