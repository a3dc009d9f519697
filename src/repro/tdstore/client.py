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
from repro.resilience.retry import RetryBudget, RetryPolicy
from repro.tdstore.config_server import ConfigServerPair
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
    retry_budget:
        Optional per-client cap on the retry ratio.
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
        retry_budget: RetryBudget | None = None,
        deadline_budget: float | None = None,
    ):
        self._config = config
        self._table = config.route_table()
        self._clock = clock
        self._breaker = breaker
        self._retry = retry
        self._retry_budget = retry_budget
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
        self, key: str, operation: Callable[[int, int], Any],
        deadline: Deadline | None,
    ) -> Any:
        """Run ``operation(host, instance)`` with one failover retry."""
        self._maybe_refresh()
        route = self._table.route_for_key(key)
        self._charge_latency(route.host, deadline)
        try:
            return operation(route.host, route.instance)
        except MigrationInProgressError as exc:
            # the instance is mid-cutover to a new host: wait it out and
            # retry against the post-cutover route — no failover, and no
            # table-refresh loop (our table was already current)
            self._await_migration(exc.instance, deadline)
            route = self._table.route_for_key(key)
            self._charge_latency(route.host, deadline)
            return operation(route.host, route.instance)
        except StaleRouteError:
            # fenced: another client already failed this instance over
            # (or the server restarted and lost the host role) — the
            # route table moved on without us
            self._refresh_table()
            route = self._table.route_for_key(key)
            self._charge_latency(route.host, deadline)
            return operation(route.host, route.instance)
        except DataServerDownError:
            if self._config.server(route.host).alive:
                # the server answered with an error but is not down (an
                # injected error rate, or it recovered under us): there
                # is nothing to fail over, so retry in place
                self._charge_latency(route.host, deadline)
                return operation(route.host, route.instance)
            self._config.handle_server_failure(route.host)
            self._refresh_table()
            route = self._table.route_for_key(key)
            self._charge_latency(route.host, deadline)
            return operation(route.host, route.instance)

    def _with_failover(self, key: str, operation: Callable[[int, int], Any]) -> Any:
        """Run ``operation(host_server_id, instance)`` under the full
        resilience stack: breaker gate, deadline, retry, failover."""
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
                    lambda: self._attempt(key, operation, deadline),
                    retryable=(DataServerDownError, StaleRouteError),
                    deadline=deadline,
                    budget=self._retry_budget,
                )
            else:
                result = self._attempt(key, operation, deadline)
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
        def op(server_id: int, instance: int):
            return self._config.server(server_id).get(instance, key, default)

        return self._with_failover(key, op)

    def multi_get(self, keys, default: Any = None) -> dict[str, Any]:
        """Batched read: every key answered in one pass over the shards.

        Keys are grouped by host server from **one** route-table snapshot
        (one epoch check) and each server gets **one** batch op covering
        all of its instances — the per-key route lookup, breaker gate and
        failover bookkeeping of :meth:`get` are paid once per server
        instead of once per key.

        Failure semantics differ from the per-key path on purpose: a
        shard that stays unreachable after one failover/re-route attempt
        **degrades only its own keys** — first hedging to any live
        replica (stale-but-served), then falling back to ``default`` —
        rather than failing the whole query. The degraded keys are
        reported in :attr:`last_failed_keys`; the breaker records a
        failure for the batch when any key degraded to ``default``. A
        blown :class:`~repro.resilience.Deadline` still aborts the whole
        batch — time is a query-level budget, not a shard-level one.
        """
        keys = list(keys)
        self.last_failed_keys = frozenset()
        if not keys:
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
            by_host: dict[int, dict[int, list[str]]] = {}
            for key in keys:
                route = self._table.route_for_key(key)
                by_host.setdefault(route.host, {}).setdefault(
                    route.instance, []
                ).append(key)
            results: dict[str, Any] = {}
            failed: list[str] = []
            for host in sorted(by_host):
                got, bad = self._serve_batch(
                    host, by_host[host], default, deadline
                )
                results.update(got)
                failed.extend(bad)
        except DeadlineExceededError:
            self.deadline_misses += 1
            if self._breaker is not None:
                self._breaker.record_failure()
            raise
        self.batched_keys += len(keys)
        if failed:
            self.degraded_keys += len(failed)
            self.last_failed_keys = frozenset(failed)
            for key in failed:
                results[key] = default
            if self._breaker is not None:
                self._breaker.record_failure()
        elif self._breaker is not None:
            self._breaker.record_success()
        return results

    def _batch_op(
        self,
        host: int,
        batches: dict[int, list[str]],
        default: Any,
        deadline: Deadline | None,
    ) -> dict[str, Any]:
        """One per-server batch op; degraded latency charged once."""
        self._charge_latency(host, deadline)
        self.batch_ops += 1
        return self._config.server(host).multi_get(batches, default)

    def _serve_batch(
        self,
        host: int,
        batches: dict[int, list[str]],
        default: Any,
        deadline: Deadline | None,
    ) -> tuple[dict[str, Any], list[str]]:
        """Serve one server's batch with one failover/re-route attempt.

        Returns ``(results, degraded_keys)`` — shard failures degrade to
        hedged replica reads and then to the caller's default instead of
        propagating (Deadline misses excepted).
        """
        try:
            return self._batch_op(host, batches, default, deadline), []
        except MigrationInProgressError as exc:
            # only this server's shard is moving: wait out the cutover
            # (which refreshes the table) and retry just these batches —
            # results from the other servers in the query already stand
            self._await_migration(exc.instance, deadline)
        except StaleRouteError:
            # fenced: a failover moved routes under us — epoch check
            # below picks up the new table
            pass
        except DataServerDownError:
            server = self._config.server(host)
            if server.alive:
                # injected error rate or recovered under us: one retry in
                # place, mirroring the per-key path
                try:
                    return self._batch_op(host, batches, default, deadline), []
                except MigrationInProgressError as exc:
                    self._await_migration(exc.instance, deadline)
                except (DataServerDownError, StaleRouteError):
                    pass
            else:
                try:
                    self._config.handle_server_failure(host)
                except TDStoreError:
                    # failover impossible right now (not enough live
                    # servers); hedged replica reads below still answer
                    pass
        self._maybe_refresh()
        # regroup this server's instances onto their current hosts
        regrouped: dict[int, dict[int, list[str]]] = {}
        for instance, instance_keys in batches.items():
            route = self._table.route(instance)
            regrouped.setdefault(route.host, {})[instance] = instance_keys
        results: dict[str, Any] = {}
        failed: list[str] = []
        for new_host in sorted(regrouped):
            got, bad = self._serve_regrouped(
                new_host, regrouped[new_host], default, deadline
            )
            results.update(got)
            failed.extend(bad)
        return results, failed

    def _serve_regrouped(
        self,
        host: int,
        batches: dict[int, list[str]],
        default: Any,
        deadline: Deadline | None,
    ) -> tuple[dict[str, Any], list[str]]:
        """Second-chance batch against current routes, then degrade."""
        try:
            return self._batch_op(host, batches, default, deadline), []
        except MigrationInProgressError as exc:
            # a cutover raced the re-route: wait it out, then one final
            # per-instance pass on post-cutover routes before degrading
            self._await_migration(exc.instance, deadline)
            results: dict[str, Any] = {}
            failed: list[str] = []
            for instance, instance_keys in batches.items():
                route = self._table.route(instance)
                try:
                    results.update(
                        self._batch_op(
                            route.host, {instance: instance_keys},
                            default, deadline,
                        )
                    )
                except (
                    DataServerDownError,
                    StaleRouteError,
                    MigrationInProgressError,
                ):
                    got, bad = self._hedge_batches(
                        {instance: instance_keys}, default, deadline,
                        route.host,
                    )
                    results.update(got)
                    failed.extend(bad)
            return results, failed
        except (DataServerDownError, StaleRouteError):
            # this shard stays degraded: hedge each instance to any
            # live replica; keys with no replica fall to the default
            return self._hedge_batches(batches, default, deadline, host)

    def _hedge_batches(
        self,
        batches: dict[int, list[str]],
        default: Any,
        deadline: Deadline | None,
        exclude: int,
    ) -> tuple[dict[str, Any], list[str]]:
        results: dict[str, Any] = {}
        failed: list[str] = []
        for instance, instance_keys in batches.items():
            got = self._hedge(instance, instance_keys, default, deadline, exclude)
            if got is None:
                failed.extend(instance_keys)
            else:
                results.update(got)
        return results, failed

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

    def _mutate(self, key: str, method: str, *args: Any) -> Any:
        """One host mutation, replica sync riding the same request.

        The request names the replicas to queue the resulting records
        on — the instance's slave, and during a live migration the
        catch-up target, which receives every record written after its
        snapshot copy so the cutover only has to drain that queue
        (journals and versions ride along in the same records). Both
        come from client-side state: the epoch-checked cached table is
        identical to the authoritative one whenever the epochs match.
        The host queues the records on every replica living in its own
        process; only for replicas owned by another process do the
        records come back, to be shipped in one batch per replica.
        """
        def op(server_id: int, instance: int):
            slave = self._table.route(instance).slave
            target = self._config.migration_target(instance)
            replicas = (
                (slave,) if target is None or target == slave
                else (slave, target)
            )
            result, records, elsewhere = self._config.server(server_id).mutate(
                instance, method, args, replicas
            )
            for replica in elsewhere:
                try:
                    self._config.server(replica).enqueue_syncs(instance, records)
                except DataServerDownError:
                    pass  # a downed replica is skipped, as at the host
            return result

        return self._with_failover(key, op)

    def _tally_once(self, applied: bool) -> bool:
        """Count a journaled op as landed or deduped."""
        if applied:
            self.ops_applied += 1
        else:
            self.ops_deduped += 1
        return applied

    def put(self, key: str, value: Any):
        return self._mutate(key, "put", key, value)

    def delete(self, key: str):
        return self._mutate(key, "delete", key)

    # -- transactional API (exactly-once support) ---------------------------

    def get_versioned(self, key: str, default: Any = None) -> tuple[Any, int]:
        """Return ``(value, version)``; version 0 means never CAS-written."""
        def op(server_id: int, instance: int):
            return self._config.server(server_id).get_versioned(
                instance, key, default
            )

        return self._with_failover(key, op)

    def check_and_set(self, key: str, value: Any, expected_version: int) -> int:
        """Conditional write: succeed only at ``expected_version``.

        Returns the new version. On a lost race
        :class:`~repro.errors.VersionConflictError` propagates (it is not
        a transport failure, so no failover/retry is spent on it); the
        caller re-reads with :meth:`get_versioned` and retries.
        """
        return self._mutate(key, "check_and_set", key, value, expected_version)

    def apply(self, key: str, op_id: str, delta: float = 1.0) -> tuple[float, bool]:
        """Idempotent increment: ``op_id`` lands on ``key`` at most once.

        Returns ``(value, applied)``. Safe to replay — including across a
        host→slave failover, because the op journal replicates with the
        value — and safe to retry after an ambiguous transport failure.
        """
        value, applied = self._mutate(key, "apply_op", key, op_id, delta)
        return value, self._tally_once(applied)

    def put_once(self, key: str, op_id: str, value: Any) -> bool:
        """Idempotent full-value write: ``op_id`` lands on ``key`` at most once.

        The commit point for read-modify-write updates: compute the new
        value (and emit any derived work) first, then call this *last* —
        the value and the journal entry commit atomically at the host, so
        a failure anywhere earlier leaves no journal entry and the
        replayed op re-executes the whole update. Returns False on a
        replay, leaving the stored value untouched.
        """
        return self._tally_once(
            self._mutate(key, "put_once", key, op_id, value)
        )

    def op_seen(self, key: str, op_id: str) -> bool:
        """True when ``op_id`` was already committed against ``key``.

        The replay probe paired with :meth:`put_once`: a pure read, so
        probing never creates the journal entry — only a successful
        commit does.
        """
        def op(server_id: int, instance: int):
            return self._config.server(server_id).op_seen(instance, key, op_id)

        return self._with_failover(key, op)

    def run_once(self, key: str, op_id: str) -> bool:
        """Journal ``op_id`` against ``key``; True the first time only.

        Durably journals *before* the caller mutates anything, so a
        failure mid-update makes the replay skip the lost work —
        read-modify-write callers should use :meth:`op_seen` +
        :meth:`put_once` instead and commit last.
        """
        return self._tally_once(self._mutate(key, "record_once", key, op_id))

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
