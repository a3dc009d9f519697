"""Wire protocol: checksummed length-prefixed frames of pickled envelopes.

A frame is an 8-byte big-endian header — payload length followed by the
CRC-32 (IEEE 802.3, ``zlib.crc32``) of the payload — and then that many
bytes of pickle (protocol 5). Requests name a method and carry positional
args; responses either carry a value or a real exception object.
TDStore's control-flow errors — :class:`~repro.errors.StaleRouteError`,
:class:`~repro.errors.MigrationInProgressError`,
:class:`~repro.errors.VersionConflictError`, ... — round-trip as
themselves (their ``__reduce__`` preserves constructor args), so the
client-side failover/fencing logic cannot tell a remote server from a
local object. Exceptions that fail to pickle degrade to
:class:`~repro.errors.RemoteOpError` carrying the remote traceback.

The checksum turns silent corruption into a typed failure: a frame
whose payload does not match its CRC raises
:class:`FrameCorruptionError` instead of unpickling garbage into state.
The same frame format is the WAL record format
(:mod:`repro.runtime.wal` appends ``encode_frame`` output verbatim), so
one integrity check covers both the wire and the log.

:data:`SURFACE` is the other half of the protocol: the one table of
what each host serves, which calls it logs, and which no caller may
re-send; :func:`invoke` is the one lookup both hosts dispatch through.
"""

from __future__ import annotations

import pickle
import struct
import traceback
from dataclasses import dataclass, field
from typing import Any
from zlib import crc32

from repro.errors import RemoteOpError, TDStoreError

HEADER = struct.Struct(">II")
HEADER_SIZE = HEADER.size

# a frame above this size is a protocol error, not a big payload: the
# decoder refuses it instead of trying to allocate garbage lengths read
# from a desynchronized stream
MAX_FRAME_BYTES = 256 * 1024 * 1024

PICKLE_PROTOCOL = 5


@dataclass(frozen=True)
class Row:
    """How a host serves one name of the remote surface."""

    logged: bool = False  # the host WAL-appends the call
    once: bool = False  # applying it twice is wrong: nothing re-sends it
    attr: bool = False  # an attribute read, not a call


CALL, ATTR, LOGGED = Row(), Row(attr=True), Row(logged=True)

# Everything a remote caller may ask of a host, by plane. A server host
# maps a request's target to its plane — None: "host", "cluster",
# "config", ("data", server_id): "data" — and a worker host serves the
# "worker" plane; both refuse any name their plane does not declare.
SURFACE: "dict[str, dict[str, Row]]" = {
    # TDStoreDataServer: what clients call directly (§3.3), and what
    # host 0's control plane, scrubber and migrator ask of servers that
    # live in other processes
    "data": {
        **dict.fromkeys(("alive", "degraded", "reads", "writes"), ATTR),
        **dict.fromkeys(
            ("mutate", "apply_pending", "apply_repair", "adopt_snapshot",
             "ensure_instance", "set_catch_up_target"), LOGGED,
        ),
        **dict.fromkeys(
            ("gather", "get", "get_versioned", "read_replica", "engine",
             "hosts", "instances", "pending_syncs", "snapshot_instance",
             "journal_evictions", "journal_overruns", "set_host_role",
             "set_migration_fence", "set_degradation", "clear_degradation",
             "recover"), CALL,
        ),
    },
    # ConfigServerPair on host 0
    "config": dict.fromkeys(
        ("route_table", "migration_target", "await_migration", "in_flight_migrations",
         "install_table", "register_remote_migration", "unregister_migration",
         "handle_server_failure", "servers", "provision"), CALL,
    ),
    # the TDStoreCluster facade on host 0; a logged call rebuilds
    # data-plane state, so replay re-applies it after a crash
    "cluster": {
        "add_data_server": Row(logged=True, once=True),
        "restore_contents": LOGGED,
        **dict.fromkeys(
            ("snapshot_contents", "sync_replicas", "scrub_replicas", "scrub_stats",
             "drain_data_server", "migration_stats", "crash_data_server",
             "recover_data_server", "set_degradation", "clear_degradation",
             "degraded_servers", "journal_evictions", "journal_overruns",
             "read_stats", "write_stats"),
            CALL,
        ),
    },
    # ServerHost itself: supervision, WAL recovery and chaos control
    "host": dict.fromkeys(
        ("_ping", "_stats", "_shutdown", "_replay_wal", "_quarantine_wal", "_chaos",
         "_wal_fault"), CALL,
    ),
    # WorkerHost: the parent's half of bolt execution, and supervision
    "worker": dict.fromkeys(
        ("load_topology", "unload_topology", "execute_batch", "tick_all", "reset_task",
         "reset_component", "snapshot_tasks", "restore_tasks", "ledger_stats",
         "_ping", "_sleep", "_stats", "_shutdown"), CALL,
    ),
}

# names whose first send may have applied when its reply was lost or
# damaged: the transport re-sends neither kind, the proxies' transport
# retry only a logged one (it is op-journaled or last-write-wins, so a
# second application converges)
_ROWS = [(name, row) for rows in SURFACE.values() for name, row in rows.items()]
ONCE = frozenset(name for name, row in _ROWS if row.once)
NOT_RESENT = frozenset(name for name, row in _ROWS if row.once or row.logged)


def invoke(rows: "dict[str, Row]", receiver: Any, request: "Request"):
    """``(row, value)`` of serving ``request`` on ``receiver``.

    The one place a request-supplied name reaches ``getattr``: a name
    ``rows`` does not declare is refused, an ``attr`` row is read, any
    other is called with the request's args.
    """
    row = rows.get(request.method)
    if row is None:
        raise TDStoreError(f"{request.method!r} is not a declared remote call")
    value = getattr(receiver, request.method)
    return row, (value if row.attr else value(*request.args))


# process-wide tally of corrupt frames caught by CRC verification, keyed
# for merging into ``_stats``-style dicts. Every process (parent, worker
# host, server host) accumulates its own; chaos accounting sums them.
CORRUPTION_STATS = {"frames_detected": 0}


@dataclass
class Request:
    """One remote invocation: ``method(*args)`` plus routing hints.

    ``target`` addresses a logical object behind the endpoint (a data
    server id, a ``(topology, component, task)`` triple, ...); ``None``
    addresses the endpoint itself.
    """

    method: str
    args: tuple = ()
    target: Any = None


@dataclass
class Response:
    """The reply to one :class:`Request`."""

    value: Any = None
    error: BaseException | None = None
    meta: dict = field(default_factory=dict)

    def unwrap(self) -> Any:
        if self.error is not None:
            raise self.error
        return self.value


class FrameError(RemoteOpError):
    """The byte stream does not parse as frames (desync or corruption)."""


class FrameCorruptionError(FrameError):
    """A complete frame failed its CRC-32 check.

    The payload was delivered whole but its bytes do not match the
    checksum stamped at encode time — a flipped bit on the wire or on
    disk, not a short read. Connections drop and reconnect on it; WAL
    replay converts it to a fail-stop :class:`~repro.runtime.wal.WalError`.
    """

    def __init__(self, message: str, expected: int = 0, actual: int = 0):
        super().__init__(message)
        self.expected = expected
        self.actual = actual

    def __reduce__(self):
        return (type(self), (self.args[0], self.expected, self.actual))


def encode_frame(obj: Any) -> bytes:
    """Serialize ``obj`` into one wire frame (header + pickle)."""
    payload = pickle.dumps(obj, PICKLE_PROTOCOL)
    return HEADER.pack(len(payload), crc32(payload)) + payload


def corrupt_frame(frame: bytes, run: int = 1) -> bytes:
    """Deterministically damage an encoded frame's *payload* (chaos/test
    helper): ``run == 1`` flips a single bit at the body midpoint,
    ``run > 1`` clobbers that many bytes. The header is left intact so
    framing survives and only CRC verification can tell.
    """
    body = len(frame) - HEADER_SIZE
    if body <= 0:
        return frame
    offset = HEADER_SIZE + body // 2
    damaged = bytearray(frame)
    if run <= 1:
        damaged[offset] ^= 0x01
    else:
        for i in range(min(run, len(frame) - offset)):
            damaged[offset + i] ^= 0xFF
    return bytes(damaged)


def sanitize_exception(exc: BaseException) -> BaseException:
    """Return ``exc`` if it survives a pickle round-trip, else flatten it.

    Anything unpicklable (or whose unpickle would fail because the
    constructor signature diverged from ``args``) becomes a
    :class:`~repro.errors.RemoteOpError` with the remote traceback baked
    into the message, so the failure stays debuggable from the caller.
    """
    try:
        return pickle.loads(pickle.dumps(exc, PICKLE_PROTOCOL))
    except Exception:
        detail = "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        )
        return RemoteOpError(
            f"remote operation failed with unpicklable "
            f"{type(exc).__name__}: {exc}\n--- remote traceback ---\n{detail}"
        )


def encode_error(exc: BaseException) -> Response:
    """Build an error response whose exception survives the wire."""
    return Response(error=sanitize_exception(exc))


class StreamDecoder:
    """Incremental frame decoder over a byte stream.

    Feed it whatever ``recv`` returned; it yields every complete decoded
    object and buffers the tail of a partial frame for the next feed. A
    complete frame whose payload fails its CRC raises
    :class:`FrameCorruptionError` — the corrupt frame is consumed from
    the buffer first, so a caller scanning a log can keep feeding to
    count further damage, while an RPC client simply drops the
    connection.
    """

    def __init__(self):
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[Any]:
        self._buf += data
        out: list[Any] = []
        while len(self._buf) >= HEADER_SIZE:
            length, expected = HEADER.unpack_from(self._buf)
            if length > MAX_FRAME_BYTES:
                raise FrameError(
                    f"frame length {length} exceeds the {MAX_FRAME_BYTES} "
                    "byte limit; stream is desynchronized"
                )
            if len(self._buf) < HEADER_SIZE + length:
                break
            payload = bytes(self._buf[HEADER_SIZE : HEADER_SIZE + length])
            del self._buf[: HEADER_SIZE + length]
            actual = crc32(payload)
            if actual != expected:
                CORRUPTION_STATS["frames_detected"] += 1
                raise FrameCorruptionError(
                    f"frame payload of {length} bytes fails CRC-32: "
                    f"expected {expected:#010x}, got {actual:#010x}",
                    expected,
                    actual,
                )
            out.append(pickle.loads(payload))
        return out

    def pending_bytes(self) -> int:
        return len(self._buf)
