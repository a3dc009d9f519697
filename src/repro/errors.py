"""Exception hierarchy for the TencentRec reproduction.

Every subsystem raises exceptions derived from :class:`ReproError` so callers
can catch library failures without swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A component was configured with invalid or inconsistent parameters."""


class TopologyError(ReproError):
    """A Storm topology was built or wired incorrectly."""


class TopologyValidationError(TopologyError):
    """A topology failed validation (missing components, bad groupings)."""


class ClusterError(ReproError):
    """A simulated cluster operation failed."""


class ClusterStateError(ClusterError):
    """The cluster was asked to do something invalid in its current state."""


class ResilienceError(ReproError):
    """Base error for the resilience layer (deadlines, breakers, shedding)."""


class DeadlineExceededError(ResilienceError):
    """An operation ran out of its propagated time budget.

    Carries ``elapsed`` and ``budget`` so callers can log how far over
    the line the operation was when it was cut off.
    """

    def __init__(self, message: str, elapsed: float, budget: float):
        super().__init__(message)
        self.elapsed = elapsed
        self.budget = budget

    def __reduce__(self):
        return (type(self), (self.args[0], self.elapsed, self.budget))


class CircuitOpenError(ResilienceError):
    """A circuit breaker is open: the call was rejected without being tried.

    Fast failure is the point — callers should take their degraded path
    immediately instead of queueing behind a dependency that is known to
    be unhealthy.
    """


class RetryBudgetExhaustedError(ResilienceError):
    """A caller's retry budget is spent; the failure surfaces un-retried.

    Prevents retry storms: when a dependency is broadly unhealthy,
    per-caller budgets stop every caller from multiplying the load.
    """


class OverloadError(ResilienceError):
    """The load shedder rejected admission for this priority class."""


class TDAccessError(ReproError):
    """Base error for the TDAccess publish/subscribe layer."""


class MasterUnavailableError(TDAccessError):
    """The addressed master server is dead; re-query the pair for the
    acting master and retry."""


class UnknownTopicError(TDAccessError):
    """A producer or consumer referenced a topic that does not exist."""


class PartitionUnavailableError(TDAccessError):
    """No live data server currently hosts the requested partition."""


class ConsumerGroupError(TDAccessError):
    """Consumer-group bookkeeping was violated (duplicate ids, bad offsets)."""


class OffsetOutOfRangeError(TDAccessError):
    """A read referenced an offset already truncated by log retention.

    Carries ``earliest``, the oldest offset still retained, so callers
    (replay, recovery) can decide whether to reseek or abort.
    """

    def __init__(self, message: str, earliest: int):
        super().__init__(message)
        self.earliest = earliest

    def __reduce__(self):
        return (type(self), (self.args[0], self.earliest))


class TDStoreError(ReproError):
    """Base error for the TDStore distributed key-value store."""


class RouteError(TDStoreError):
    """The route table does not cover the requested key or instance."""


class EngineError(TDStoreError):
    """A storage engine failed an operation."""


class DataServerDownError(TDStoreError):
    """The addressed data server is not alive and no failover was possible."""


class StaleRouteError(TDStoreError):
    """The addressed server no longer hosts the instance (stale route table).

    Raised by the host-fencing check: after a failover moves an instance,
    a client still holding the old route table must refresh and retry
    rather than split-brain the instance between old and new hosts.
    """


class MigrationError(TDStoreError):
    """A live instance migration was requested or driven incorrectly."""


class MigrationInProgressError(TDStoreError):
    """The addressed instance is mid-cutover to a new host.

    Raised by the migration fence on the old host during the brief
    cutover window. Deliberately *not* a :class:`StaleRouteError`: the
    client's route table is current — the route itself is moving — so
    the right response is to await the cutover for this one instance
    and retry only the affected keys, not to re-download the table in a
    loop. Carries ``instance`` so the client can wait on the right
    migration.
    """

    def __init__(self, message: str, instance: int):
        super().__init__(message)
        self.instance = instance

    def __reduce__(self):
        return (type(self), (self.args[0], self.instance))


class VersionConflictError(TDStoreError):
    """A conditional write lost the race: the key's version moved on.

    Carries the version the store holds now, so the caller can re-read,
    re-apply its update, and retry the ``check_and_set``.
    """

    def __init__(self, message: str, current: int):
        super().__init__(message)
        self.current = current

    def __reduce__(self):
        return (type(self), (self.args[0], self.current))


class AlgorithmError(ReproError):
    """A recommendation algorithm was misused or given invalid input."""


class UnknownActionError(AlgorithmError):
    """An action type has no configured implicit-feedback weight."""


class RetrievalError(AlgorithmError):
    """Base error for the embedding/VQ retrieval subsystem."""


class ColdIndexError(RetrievalError):
    """The VQ index cannot answer yet (no centroids, or the query user
    has no embedded recent items).

    Carries ``reason`` so the front end's fallback counter can tell a
    genuinely empty index apart from a user the index has not seen —
    both degrade to CF, but they are different operational signals.
    """

    def __init__(self, message: str, reason: str = "empty_index"):
        super().__init__(message)
        self.reason = reason

    def __reduce__(self):
        return (type(self), (self.args[0], self.reason))


class SimulationError(ReproError):
    """The synthetic workload generator hit an invalid configuration."""


class EvaluationError(ReproError):
    """An experiment harness was configured or run incorrectly."""


class RecoveryError(ReproError):
    """Coordinated checkpoint/restore could not produce a consistent state."""


class CheckpointError(RecoveryError):
    """A checkpoint manifest is missing, malformed, or failed verification."""


class FaultPlanError(RecoveryError):
    """A fault-injection plan is malformed (unknown kind, bad round)."""


class RuntimeSubstrateError(ReproError):
    """Base error for the multi-process execution substrate."""


class RemoteOpError(RuntimeSubstrateError):
    """A remote operation failed with an exception that cannot round-trip.

    Carries the remote traceback text so the failure is debuggable from
    the calling process.
    """


class WorkerCrashError(RuntimeSubstrateError):
    """A worker process died (or was killed) while holding dispatched work."""


class SimulatedCrash(ReproError):
    """Raised by the fault injector to model a whole-process crash.

    Not an error in the library itself: harnesses catch it at the top of
    the run loop and hand control to the recovery path.
    """
