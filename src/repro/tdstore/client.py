"""TDStore client API.

A client first queries the config server for the route table, then talks
directly to data servers (Section 3.3). Mutations are applied at the
host, which queues them to the slave in the same request. On a
data-server failure the client asks the config pair to fail over,
refreshes its route table, and retries — invisible to the caller.

The client is also where the resilience layer meets storage: every
operation can run under a propagated :class:`~repro.resilience.Deadline`
(ambient scopes nest, so an engine query's budget bounds every store
read it fans out into), behind a :class:`~repro.resilience.CircuitBreaker`
shared by all operations of this client, and through a
:class:`~repro.resilience.RetryPolicy` that absorbs transient injected
errors. Degraded servers advertise per-op latency which the client
charges against its clock, so latency spikes consume real (simulated)
time that deadlines observe.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable

from repro.errors import (
    CircuitOpenError,
    DataServerDownError,
    DeadlineExceededError,
    MigrationInProgressError,
    RetryBudgetExhaustedError,
    StaleRouteError,
    TDStoreError,
)
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.deadline import Deadline
from repro.resilience.retry import RetryPolicy
from repro.tdstore.config_server import ConfigServerPair
from repro.tdstore.engines import VERSION_PREFIX
from repro.utils.clock import SimClock

# failures the breaker counts against the dependency's health
_DEPENDENCY_FAILURES = (
    DataServerDownError,
    StaleRouteError,
    RetryBudgetExhaustedError,
)


class TDStoreClient:
    """Application-facing handle to a TDStore cluster.

    Parameters
    ----------
    config:
        The config-server pair to route through.
    clock:
        When given, server-advertised degradation latency is charged
        here per operation, which is what makes latency spikes visible
        to deadlines.
    breaker:
        Optional circuit breaker guarding every operation of this
        client; open means :class:`~repro.errors.CircuitOpenError`
        without touching a server.
    retry:
        Optional policy retrying transient per-op failures (injected
        error rates, crash/failover races) beyond the single built-in
        failover attempt.
    deadline_budget:
        When set, every operation outside an explicit
        :meth:`deadline_scope` gets a fresh deadline of this many
        seconds.
    """

    def __init__(
        self,
        config: ConfigServerPair,
        *,
        clock: SimClock | None = None,
        breaker: CircuitBreaker | None = None,
        retry: RetryPolicy | None = None,
        deadline_budget: float | None = None,
    ):
        self._config = config
        self._table = config.route_table()
        self._clock = clock
        self._breaker = breaker
        self._retry = retry
        self._deadline_budget = deadline_budget
        self._deadline_stack: list[Deadline] = []
        self.route_refreshes = 0
        self.breaker_rejections = 0
        self.deadline_misses = 0
        self.latency_absorbed = 0.0
        self.ops_applied = 0
        self.ops_deduped = 0
        # batched read path (serving layer)
        self.batch_ops = 0
        self.batched_keys = 0
        self.hedged_reads = 0
        self.degraded_keys = 0
        self.last_failed_keys: frozenset[str] = frozenset()
        # elastic scaling: cutover fences this client waited out
        self.migration_stalls = 0
        self.migration_stall_seconds = 0.0

    # -- deadline propagation ----------------------------------------------

    @contextmanager
    def deadline_scope(self, deadline: Deadline):
        """Make ``deadline`` ambient for every nested operation.

        Scopes nest: an inner scope created with
        :meth:`Deadline.child` cannot outlive the outer one.
        """
        self._deadline_stack.append(deadline)
        try:
            yield deadline
        finally:
            self._deadline_stack.pop()

    def _current_deadline(self) -> Deadline | None:
        if self._deadline_stack:
            return self._deadline_stack[-1]
        if self._deadline_budget is not None and self._clock is not None:
            return Deadline(self._clock.now, self._deadline_budget)
        return None

    @contextmanager
    def _op_scope(self):
        """One deadline shared by a compound op (incr/update = get+put)."""
        deadline = self._current_deadline()
        if deadline is None or self._deadline_stack:
            yield  # ambient scope (or none) already covers the compound op
        else:
            with self.deadline_scope(deadline):
                yield

    # -- core operation path -----------------------------------------------

    def _refresh_table(self):
        self._table = self._config.route_table()
        self.route_refreshes += 1

    def _maybe_refresh(self):
        """Re-download the route table only when its epoch moved.

        Route tables are immutable — every failover installs a *new*
        table with a bumped version — so an equal epoch guarantees the
        cached copy is byte-identical to the authoritative one. The
        per-op cost collapses to one integer compare; the full fetch
        happens only on an epoch change or a ``StaleRouteError`` fence.
        """
        if self._config.route_epoch != self._table.version:
            self._refresh_table()

    def _charge_latency(self, server_id: int, deadline: Deadline | None):
        """Spend the degraded server's advertised per-op latency."""
        latency = self._config.server(server_id).latency
        if latency > 0.0:
            self.latency_absorbed += latency
            if self._clock is not None:
                self._clock.advance(latency)
        if deadline is not None:
            deadline.check(f"tdstore op on server {server_id}")

    def _await_migration(self, instance: int, deadline: Deadline | None):
        """Wait out a cutover fence for one instance, then refresh routes.

        The stall (catch-up drain + route install at the config pair) is
        charged to the clock so deadlines — and the bench's cutover-stall
        p99 — observe it.
        """
        stall = self._config.await_migration(instance)
        self.migration_stalls += 1
        self.migration_stall_seconds += stall
        if stall > 0.0 and self._clock is not None:
            self._clock.advance(stall)
        if deadline is not None:
            deadline.check(f"awaiting cutover of instance {instance}")
        self._refresh_table()

    def _attempt(
        self, operation: Callable[[Callable], Any], deadline: Deadline | None
    ) -> Any:
        """Run ``operation(route_of)`` with one failover retry.

        ``route_of(key)`` hands the operation the key's current route,
        charging each host it names for the first time its advertised
        latency; the retry after a refresh re-routes through it, so an
        operation is written once against whatever table is current.
        """
        self._maybe_refresh()
        charged: set[int] = set()

        def route_of(key: str):
            route = self._table.route_for_key(key)
            if route.host not in charged:
                charged.add(route.host)
                self._charge_latency(route.host, deadline)
            return route

        try:
            return operation(route_of)
        except MigrationInProgressError as exc:
            # the instance is mid-cutover to a new host: wait it out and
            # retry against the post-cutover route — no failover, and no
            # table-refresh loop (our table was already current)
            self._await_migration(exc.instance, deadline)
        except StaleRouteError:
            # fenced: another client already failed this instance over
            # (or the server restarted and lost the host role) — the
            # route table moved on without us
            self._refresh_table()
        except DataServerDownError:
            # a server that answered with an error but is not down (an
            # injected error rate, or it recovered under us) has nothing
            # to fail over: the retry below runs in place
            down = [
                host for host in sorted(charged)
                if not self._config.server(host).alive
            ]
            for host in down:
                self._config.handle_server_failure(host)
            if down:
                self._refresh_table()
        charged.clear()
        return operation(route_of)

    def _with_failover(
        self, key: str, operation: Callable[[Callable], Any]
    ) -> Any:
        """Run ``operation(route_of)`` under the full resilience stack:
        breaker gate, deadline, retry, failover. ``key`` names the
        operation in errors (the first key of a multi-key one)."""
        if self._breaker is not None and not self._breaker.allow():
            self.breaker_rejections += 1
            raise CircuitOpenError(
                f"circuit breaker {self._breaker.name!r} is open; "
                f"tdstore op for key {key!r} rejected"
            )
        deadline = self._current_deadline()
        try:
            if deadline is not None:
                deadline.check(f"tdstore op for key {key!r}")
            if self._retry is not None:
                result = self._retry.run(
                    lambda: self._attempt(operation, deadline),
                    retryable=(DataServerDownError, StaleRouteError),
                    deadline=deadline,
                )
            else:
                result = self._attempt(operation, deadline)
        except DeadlineExceededError:
            self.deadline_misses += 1
            if self._breaker is not None:
                self._breaker.record_failure()
            raise
        except _DEPENDENCY_FAILURES:
            if self._breaker is not None:
                self._breaker.record_failure()
            raise
        if self._breaker is not None:
            self._breaker.record_success()
        return result

    # -- public API ------------------------------------------------------------

    def get(self, key: str, default: Any = None) -> Any:
        def op(route_of):
            route = route_of(key)
            return self._config.server(route.host).get(
                route.instance, key, default
            )

        return self._with_failover(key, op)

    def gather(self, keys, probes=()) -> "tuple[dict[str, Any], dict]":
        """Strict batched read of values and replay probes: one request
        per server process.

        Returns ``(values, seen)``: ``values`` holds the keys of
        ``keys`` that exist (a missing key is simply absent — no default
        stands in for it), ``seen`` maps every ``(key, op_id)`` of
        ``probes`` to whether the op id is journaled against the key.
        It travels in the same read frame as :meth:`multi_get`
        (:meth:`_read_frame`) under the other failure policy: nothing
        degrades. Whatever a server refuses is raised, and a shard that
        stays unreachable after the failover retry fails the call,
        because the caller is about to compute writes from what it read.
        """
        if not keys and not probes:
            return {}, {}

        def op(route_of):
            reads: dict[int, tuple] = {}

            def read_at(key):
                route = route_of(key)
                read = reads.get(route.instance)
                if read is None:
                    read = reads[route.instance] = (
                        route.host, route.instance, [], [],
                    )
                return read

            for key in keys:
                read_at(key)[2].append(key)
            for probe in probes:
                read_at(probe[0])[3].append(probe)
            values, seen, refused = self._read_frame(list(reads.values()))
            if refused:
                raise refused[0][1]
            return values, seen

        return self._with_failover(keys[0] if keys else probes[0][0], op)

    def _read_frame(self, reads: list) -> "tuple[dict, dict, list]":
        """Send one read frame round the server processes it names.

        ``reads`` is a list of ``(host, instance, keys, probes)``. Each
        process answers every entry it owns — for however many logical
        servers — and hands back the rest, so the frame costs one
        request per server *process*. Returns ``(values, seen,
        refused)``, ``refused`` pairing each entry a server would not
        serve with its error (see :meth:`TDStoreDataServer.gather`).
        """
        server = self._config.server
        self.batch_ops += 1
        values, seen, reads, refused = server(reads[0][0]).gather(reads)
        while reads:
            self.batch_ops += 1
            more, more_seen, reads, bad = server(reads[0][0]).gather(reads)
            values.update(more)
            seen.update(more_seen)
            refused.extend(bad)
        return values, seen, refused

    def multi_get(
        self, keys, default: Any = None, *, versions=()
    ) -> dict[str, Any]:
        """Batched read: every key answered in one pass over the shards.

        Keys are grouped by instance from **one** route-table snapshot
        (one epoch check) and travel in **one** read frame
        (:meth:`_read_frame`, shared with :meth:`gather`): one request
        per server process, one batch op per logical server it names —
        the per-key route lookup, breaker gate and failover bookkeeping
        of :meth:`get` are paid once per batch instead of once per key.

        The failure policy is the lenient one, on purpose: the entries a
        server refuses get one failover/re-route attempt of their own
        (the healthy servers' answers already stand and are not read
        again), and a shard that stays unreachable **degrades only its
        own keys** — first hedging to any live replica
        (stale-but-served), then falling back to ``default`` — rather
        than failing the whole query. The degraded keys are reported in
        :attr:`last_failed_keys`; the breaker records a failure for the
        batch when any key degraded to ``default``. A blown
        :class:`~repro.resilience.Deadline` still aborts the whole
        batch — time is a query-level budget, not a shard-level one.

        ``versions`` names keys whose write version to read in the same
        frame: each comes back under ``VERSION_PREFIX + key`` (0 when
        the key was never version-written or its read degraded). A
        version lives in its key's instance, so it is routed by the key
        and costs no extra request.
        """
        keys = list(keys)
        self.last_failed_keys = frozenset()
        if not keys and not versions:
            return {}
        if self._breaker is not None and not self._breaker.allow():
            self.breaker_rejections += 1
            raise CircuitOpenError(
                f"circuit breaker {self._breaker.name!r} is open; "
                f"tdstore multi_get of {len(keys)} keys rejected"
            )
        deadline = self._current_deadline()
        try:
            if deadline is not None:
                deadline.check(f"tdstore multi_get of {len(keys)} keys")
            self._maybe_refresh()  # the one route snapshot for this batch
            instance_for_key = self._table.instance_for_key
            batches: dict[int, list[str]] = {}
            for key in keys:
                batches.setdefault(instance_for_key(key), []).append(key)
            for key in versions:
                batches.setdefault(instance_for_key(key), []).append(
                    VERSION_PREFIX + key
                )
            found, refused = self._batch_read(batches.items(), deadline)
            by_host: dict[int, list] = {}
            for entry in refused:
                by_host.setdefault(entry[0][0], []).append(entry)
            failed: list[str] = []
            for host in sorted(by_host):
                failed += self._serve_refused(
                    host, by_host[host], default, deadline, found
                )
        except DeadlineExceededError:
            self.deadline_misses += 1
            if self._breaker is not None:
                self._breaker.record_failure()
            raise
        self.batched_keys += len(keys) + len(versions)
        if failed:
            self.degraded_keys += len(failed)
            self.last_failed_keys = frozenset(failed)
            if self._breaker is not None:
                self._breaker.record_failure()
        elif self._breaker is not None:
            self._breaker.record_success()
        # a key no server held (or that degraded) reads as the default
        got = {key: found.get(key, default) for key in keys}
        for key in versions:
            got[VERSION_PREFIX + key] = found.get(VERSION_PREFIX + key, 0)
        return got

    def _batch_read(
        self, batches, deadline: Deadline | None
    ) -> "tuple[dict[str, Any], list]":
        """Read ``(instance, keys)`` batches from their instances'
        current hosts in one frame, the degraded latency of every host
        it names charged once. Returns the values found and the entries
        a server refused, each with its error."""
        route = self._table.route
        reads = [
            (route(instance).host, instance, keys, ())
            for instance, keys in batches
        ]
        for host in sorted({read[0] for read in reads}):
            self._charge_latency(host, deadline)
        values, __, refused = self._read_frame(reads)
        return values, refused

    def _retry_refused(
        self, refused: list, deadline: Deadline | None, found: dict
    ) -> list:
        """Re-send refused entries to their instances' current hosts;
        what is answered lands in ``found``, the rest comes back."""
        got, refused = self._batch_read(
            [read[1:3] for read, __ in refused], deadline
        )
        found.update(got)
        return refused

    def _serve_refused(
        self,
        host: int,
        refused: list,
        default: Any,
        deadline: Deadline | None,
        found: dict,
    ) -> list[str]:
        """Second chances for the entries ``host`` refused in a batch.

        One failover/re-route attempt, then hedged replica reads; values
        land in ``found`` and the keys that stay unanswered are returned
        — shard failures degrade instead of propagating (Deadline misses
        excepted).
        """
        error = refused[0][1]
        if isinstance(error, DataServerDownError):
            if self._config.server(host).alive:
                # injected error rate or recovered under us: one retry in
                # place, mirroring the per-key path
                refused = self._retry_refused(refused, deadline, found)
                if not refused:
                    return []
                error = refused[0][1]
            else:
                try:
                    self._config.handle_server_failure(host)
                except TDStoreError:
                    # failover impossible right now (not enough live
                    # servers); hedged replica reads below still answer
                    pass
        if isinstance(error, MigrationInProgressError):
            # only this shard is moving: wait out the cutover (which
            # refreshes the table) and retry just these entries
            self._await_migration(error.instance, deadline)
        # a StaleRouteError fence means a failover moved routes under us:
        # the epoch check picks up the new table
        self._maybe_refresh()
        refused = self._retry_refused(refused, deadline, found)
        moving = next(
            (
                exc for __, exc in refused
                if isinstance(exc, MigrationInProgressError)
            ),
            None,
        )
        if moving is not None:
            # a cutover raced the re-route: wait it out, then one final
            # pass on post-cutover routes before degrading
            self._await_migration(moving.instance, deadline)
            refused = self._retry_refused(refused, deadline, found)
        # what stays refused is degraded: hedge each instance to any live
        # replica; keys with no replica fall to the default
        failed: list[str] = []
        for (at, instance, keys, __), __ in refused:
            got = self._hedge(instance, keys, default, deadline, at)
            if got is None:
                failed.extend(keys)
            else:
                found.update(got)
        return failed

    def _hedge(
        self,
        instance: int,
        keys: list[str],
        default: Any,
        deadline: Deadline | None,
        exclude: int,
    ) -> "dict[str, Any] | None":
        """Read ``instance`` from any live replica other than ``exclude``."""
        route = self._table.route(instance)
        for candidate in (route.slave, route.host):
            if candidate == exclude:
                continue
            server = self._config.server(candidate)
            if not server.alive:
                continue
            try:
                self._charge_latency(candidate, deadline)
                got = server.read_replica(instance, keys, default)
            except DeadlineExceededError:
                raise
            except TDStoreError:
                continue
            self.hedged_reads += 1
            return got
        return None

    def mutate(self, ops: list) -> list:
        """Ship ordered mutations in as few envelopes as placement allows.

        ``ops`` is a list of ``(method, args)`` with ``method`` one of
        :data:`~repro.tdstore.data_server.HOST_MUTATIONS` and
        ``args[0]`` the key; returns one result per op. Every op is
        routed to its instance's host and names the replica to queue
        the resulting records on, the instance's slave, from the
        epoch-checked cached table (identical to the authoritative one
        whenever the epochs match). A live migration's catch-up target
        is the host's to add: the client names none. A ``put_once`` or
        ``apply_op`` whose op id is a tuple is a run of ids on one key
        with one result; ``ops_applied`` / ``ops_deduped`` count its ids.

        The whole list goes to the first op's host, which applies the
        leading run of ops its process owns — one request, one log
        record, one ``fsync`` — and hands back what belongs to another
        process: the records for replicas living there, and the ops from
        the first foreign one on. Those travel in the next envelope, so
        ops land in the order given and a failure leaves a prefix. On one
        host process any list is one envelope.

        An envelope the host refuses (stale route, cutover fence, downed
        server) has applied nothing; it is re-routed and re-sent like a
        single op. Results of envelopes that already landed are kept, so
        a retry continues where the failure struck.
        """
        if not ops:
            return []
        results: list = []
        syncs: list = []  # forwarded records, already addressed

        def op(route_of):
            nonlocal syncs
            while syncs or len(results) < len(ops):
                wire = list(syncs)
                for at in range(len(results), len(ops)):
                    method, args = ops[at]
                    route = route_of(args[0])
                    wire.append((
                        route.host, route.instance, method, args,
                        (route.slave,),
                    ))
                done, rest = self._config.server(wire[0][0]).mutate(wire)
                results.extend(done)
                # rest = records to forward, then the ops not yet applied
                # (re-routed above from ``ops``, so only the former stay)
                syncs = rest[: len(rest) - (len(ops) - len(results))]

        self._with_failover(ops[0][1][0], op)
        for (method, args), result in zip(ops, results):
            if method == "apply_op":
                applied = result[1]
            elif method in ("put_once", "record_once"):
                applied = result
            else:
                continue
            # a run of ids lands or dedups whole; count its ids
            ids = len(args[1]) if isinstance(args[1], tuple) else 1
            if applied:
                self.ops_applied += ids
            else:
                self.ops_deduped += ids
        return results

    def _mutate(self, method: str, *args: Any) -> Any:
        """One mutation: the list form with one element."""
        return self.mutate([(method, args)])[0]

    def put(self, key: str, value: Any):
        return self._mutate("put", key, value)

    def delete(self, key: str):
        return self._mutate("delete", key)

    # -- transactional API (exactly-once support) ---------------------------

    def get_versioned(self, key: str, default: Any = None) -> tuple[Any, int]:
        """Return ``(value, version)``; version 0 means never CAS-written."""
        def op(route_of):
            route = route_of(key)
            return self._config.server(route.host).get_versioned(
                route.instance, key, default
            )

        return self._with_failover(key, op)

    def check_and_set(self, key: str, value: Any, expected_version: int) -> int:
        """Conditional write: succeed only at ``expected_version``.

        Returns the new version. On a lost race
        :class:`~repro.errors.VersionConflictError` propagates (it is not
        a transport failure, so no failover/retry is spent on it); the
        caller re-reads with :meth:`get_versioned` and retries.
        """
        return self._mutate("check_and_set", key, value, expected_version)

    def apply(self, key: str, op_id: str, delta: float = 1.0) -> tuple[float, bool]:
        """Idempotent increment: ``op_id`` lands on ``key`` at most once.

        Returns ``(value, applied)``. Safe to replay — including across a
        host→slave failover, because the op journal replicates with the
        value — and safe to retry after an ambiguous transport failure.
        """
        return self._mutate("apply_op", key, op_id, delta)

    def put_once(self, key: str, op_id: str, value: Any) -> bool:
        """Idempotent full-value write: ``op_id`` lands on ``key`` at most once.

        The commit point for read-modify-write updates: compute the new
        value (and emit any derived work) first, then call this *last* —
        the value and the journal entry commit atomically at the host, so
        a failure anywhere earlier leaves no journal entry and the
        replayed op re-executes the whole update. Returns False on a
        replay, leaving the stored value untouched.
        """
        return self._mutate("put_once", key, op_id, value)

    def op_seen(self, key: str, op_id: str) -> bool:
        """True when ``op_id`` was already committed against ``key``.

        The replay probe paired with :meth:`put_once`: a pure read, so
        probing never creates the journal entry — only a successful
        commit does. It travels as the single probe of a :meth:`gather`.
        """
        return self.gather((), [(key, op_id)])[1][key, op_id]

    def run_once(self, key: str, op_id: str) -> bool:
        """Journal ``op_id`` against ``key``; True the first time only.

        Durably journals *before* the caller mutates anything, so a
        failure mid-update makes the replay skip the lost work —
        read-modify-write callers should use :meth:`op_seen` +
        :meth:`put_once` instead and commit last.
        """
        return self._mutate("record_once", key, op_id)

    def incr(self, key: str, delta: float = 1.0) -> float:
        """Atomic-within-the-simulation numeric increment; returns new value."""
        with self._op_scope():
            value = self.get(key, 0.0) + delta
            self.put(key, value)
            return value

    def update(self, key: str, fn: Callable[[Any], Any], default: Any = None) -> Any:
        """Read-modify-write helper; returns the stored result."""
        with self._op_scope():
            value = fn(self.get(key, default))
            self.put(key, value)
            return value

    def contains(self, key: str) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel
