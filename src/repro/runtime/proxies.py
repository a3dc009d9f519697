"""Client-side duck types for remote TDStore servers.

The resilience stack in :mod:`repro.tdstore.client` was written against
in-process ``TDStoreDataServer`` / ``ConfigServerPair`` objects. These
proxies satisfy the same surface over RPC, so ``TDStoreClient`` — route
caching, failover, migration fencing, breakers, deadlines — runs
unmodified against real server processes. The error types it dispatches
on (``StaleRouteError``, ``MigrationInProgressError``, ...) round-trip
through the wire layer as themselves.

The proxies forward and the hosts decide: where a migrating instance's
writes are queued, how long a degraded server stalls and which roles a
respawned server gets are settled by the host owning that state, so
every client copy, in any process, sees the same answer.

Two reads are deliberately *not* RPCs because they sit on the client's
per-operation hot path:

- ``RemoteConfigServer.route_epoch`` is a cached value, refreshed on
  every ``route_table()`` download. A stale cache is safe: the host
  fence turns a stale route into ``StaleRouteError``, which makes the
  client refresh — the same protocol that protects in-process clients.
- ``RemoteDataServer.latency`` is always ``0.0``. A degraded server's
  host stalls the frames that name it, so the latency is real elapsed
  time, not a number for the client to charge against a clock.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.errors import RemoteOpError
from repro.runtime.rpc import RpcClient
from repro.runtime.wire import ONCE, SURFACE
from repro.utils.clock import WallClock

# transport-level retry: a RemoteOpError means the TCP connection died
# (host killed, connection reset, ack swallowed) — the client has
# already closed the socket, so a fresh call reconnects. Every mutating
# op is either op-journaled (put_once/apply_op dedup) or last-write-wins,
# so re-sending an op whose ack was lost after the apply is convergent;
# this is what makes conn_reset / frame_drop / host_sigkill faults
# absorbable below the resilience stack. A ``once`` row is the
# exception: it surfaces the error instead.
TRANSPORT_RETRIES = 3
TRANSPORT_BACKOFF = 0.05


def _retrying(
    rpc: RpcClient,
    method: str,
    args: tuple,
    target: Any,
    recover: "Callable[[], None] | None",
) -> Any:
    retries = 0 if method in ONCE else TRANSPORT_RETRIES
    attempt = 0
    while True:
        try:
            return rpc.call(method, *args, target=target)
        except RemoteOpError:
            attempt += 1
            if attempt > retries:
                raise
            if recover is not None:
                # parent-side: ask the supervisor to respawn the host
                # (no-op when it is alive and the fault was transient)
                try:
                    recover()
                except Exception:
                    pass
            else:
                # worker-side: the parent restarts hosts at barriers on
                # stable ports; a short pause outlives a reset window
                time.sleep(TRANSPORT_BACKOFF * attempt)


def _forwarded(proxy, plane: str, name: str) -> Any:
    """``name`` on a proxy of one plane: an ``attr`` row is fetched on
    every access, anything else becomes a forwarder to ``proxy._call``
    (cached; positional args only — a request has no keywords)."""
    if name.startswith("_"):
        raise AttributeError(name)
    row = SURFACE[plane].get(name)
    if row is not None and row.attr:
        return proxy._call(name)
    call = proxy._call

    def forward(*args: Any):
        return call(name, *args)

    forward.__name__ = name
    proxy.__dict__[name] = forward
    return forward


class RemoteDataServer:
    """Proxy for one logical ``TDStoreDataServer`` behind an RPC endpoint.

    Names forward over the shared per-host connection as the ``data``
    plane's rows say; the host refuses what the plane does not declare.
    """

    # the host stalls a degraded server's frames; nothing to charge
    latency = 0.0

    def __init__(
        self,
        rpc: RpcClient,
        server_id: int,
        *,
        recover: "Callable[[], None] | None" = None,
    ):
        self._rpc = rpc
        self.server_id = server_id
        self._target = ("data", server_id)
        self._recover = recover

    def _call(self, method: str, *args: Any) -> Any:
        return _retrying(self._rpc, method, args, self._target, self._recover)

    def __getattr__(self, name: str):
        return _forwarded(self, "data", name)

    def __repr__(self) -> str:
        return f"RemoteDataServer(id={self.server_id}, via={self._rpc!r})"


class RemoteConfigServer:
    """Proxy for the ``ConfigServerPair`` living on server host 0.

    ``server(id)`` hands back :class:`RemoteDataServer` proxies wired to
    whichever host process owns that logical server, so the client's
    failover path (`config.server(host).alive`, `handle_server_failure`)
    crosses process boundaries transparently.
    """

    def __init__(
        self,
        rpc: RpcClient,
        data_server_resolver: Callable[[int], RemoteDataServer],
        *,
        recover: "Callable[[], None] | None" = None,
    ):
        self._rpc = rpc
        self._resolve = data_server_resolver
        self._route_epoch: int = -1
        self._recover = recover

    def _call(self, method: str, *args: Any) -> Any:
        return _retrying(self._rpc, method, args, "config", self._recover)

    @property
    def route_epoch(self) -> int:
        # cached, refreshed by route_table(); staleness is fenced by
        # StaleRouteError exactly as for in-process clients
        return self._route_epoch

    def route_table(self):
        table = self._call("route_table")
        self._route_epoch = table.version
        return table

    def server(self, server_id: int) -> RemoteDataServer:
        return self._resolve(server_id)

    def register_migration(self, migration: Any) -> None:
        """Register a live move with the control-plane host: a
        ``Migration`` holds socket-backed proxies, so only ``(instance,
        target)`` travels and the hosted config pair builds its own
        (``ConfigServerPair.register_remote_migration``)."""
        self._call(
            "register_remote_migration", migration.instance,
            migration.target_id,
        )

    def __getattr__(self, name: str):
        return _forwarded(self, "config", name)


class ProcessTDStore:
    """Parent-side facade over the server host processes.

    Duck-types :class:`repro.tdstore.cluster.TDStoreCluster` — the
    recovery harness, checkpoint coordinator, fault injector and system
    monitor drive it exactly as they drive the in-process cluster.
    Facade-level operations — the ``cluster`` plane's rows — forward to
    the real ``TDStoreCluster`` living in server host 0; per-server data
    operations go straight to the owning host process.

    Constructed from plain addresses so it can be pickled into worker
    processes (connections open lazily, per process).
    """

    def __init__(
        self,
        addresses: "list[tuple[str, int]]",
        placement: "dict[int, int]",
    ):
        self._addresses = list(addresses)
        self._placement = dict(placement)
        self._rpcs: dict[int, RpcClient] = {}
        self._servers: dict[int, RemoteDataServer] = {}
        self._config: RemoteConfigServer | None = None
        # parent-side only: asks the supervisor to respawn a dead host
        # before a transport retry. Not pickled into workers — their
        # copies fall back to backoff-and-retry against stable ports.
        self._recover_host: "Callable[[int], None] | None" = None

    def __getstate__(self):
        return {"addresses": self._addresses, "placement": self._placement}

    def __setstate__(self, state):
        self.__init__(state["addresses"], state["placement"])

    def set_recovery_hook(self, hook: "Callable[[int], None] | None"):
        self._recover_host = hook
        # proxies cache their recover callback at construction; rebuild
        self._servers.clear()
        self._config = None

    # -- wiring -----------------------------------------------------------

    def _host_rpc(self, host_index: int) -> RpcClient:
        rpc = self._rpcs.get(host_index)
        if rpc is None:
            host, port = self._addresses[host_index]
            rpc = self._rpcs[host_index] = RpcClient(host, port)
        return rpc

    def _data_server(self, server_id: int) -> RemoteDataServer:
        proxy = self._servers.get(server_id)
        if proxy is None:
            host_index = self._placement.get(server_id)
            if host_index is None:
                # servers created at runtime (elastic expansion) are
                # always hosted by process 0; learn the placement lazily
                # so worker-side copies pickled before the expansion
                # still route to them
                host_index = 0
                self._placement[server_id] = 0
            proxy = RemoteDataServer(
                self._host_rpc(host_index),
                server_id,
                recover=self._recover_callback(host_index),
            )
            self._servers[server_id] = proxy
        return proxy

    def _recover_callback(
        self, host_index: int
    ) -> "Callable[[], None] | None":
        # bound at proxy construction; set_recovery_hook rebuilds proxies
        if self._recover_host is None:
            return None
        hook = self._recover_host
        return lambda: hook(host_index)

    @property
    def config(self) -> RemoteConfigServer:
        if self._config is None:
            self._config = RemoteConfigServer(
                self._host_rpc(0),
                self._data_server,
                recover=self._recover_callback(0),
            )
        return self._config

    @property
    def data_servers(self) -> "list[RemoteDataServer]":
        return [self._data_server(sid) for sid in sorted(self._placement)]

    def client(self, **resilience: Any):
        """A resilient client whose time-based policies charge wall time.

        Unlike the simulator's sequential op stream — where the client's
        single built-in in-place retry always lands on the next beat of
        a deterministic error cadence — real clients interleave at the
        server, so that retry can collide with another client's op and
        hit the cadence again. A small bounded retry with real backoff
        restores the sim-equivalent contract that transient injected
        errors are invisible to callers.
        """
        from repro.resilience.retry import RetryPolicy
        from repro.tdstore.client import TDStoreClient

        resilience.setdefault("clock", WallClock())
        resilience.setdefault(
            "retry",
            RetryPolicy(
                max_attempts=4,
                base_delay=0.005,
                max_delay=0.05,
                sleep=time.sleep,
            ),
        )
        return TDStoreClient(self.config, **resilience)

    # -- facade operations (forwarded to the cluster on host 0) ----------

    def _call(self, method: str, *args: Any) -> Any:
        return _retrying(
            self._host_rpc(0), method, args, "cluster",
            self._recover_callback(0),
        )

    def __getattr__(self, name: str):
        if name not in SURFACE["cluster"]:
            raise AttributeError(name)
        return _forwarded(self, "cluster", name)

    @property
    def placement(self) -> "dict[int, int]":
        """Logical server id -> owning host index (copy)."""
        return dict(self._placement)

    def add_data_server(self) -> int:
        server_id = self._call("add_data_server")
        # servers created at runtime are hosted by process 0
        self._placement[server_id] = 0
        return server_id

    def set_degradation(
        self,
        server_id: int,
        latency: float | None = None,
        error_every: int | None = None,
    ):
        # a request carries positional args only
        return self._call("set_degradation", server_id, latency, error_every)

    # -- runtime-only surface --------------------------------------------

    def update_address(self, host_index: int, address: "tuple[str, int]"):
        """Repoint one host after the supervisor respawned it."""
        self._addresses[host_index] = tuple(address)
        stale = self._rpcs.pop(host_index, None)
        if stale is not None:
            stale.close()
        for sid, host in self._placement.items():
            if host == host_index:
                self._servers.pop(sid, None)
        if host_index == 0:
            self._config = None

    def host_stats(self) -> "list[dict]":
        """Per-host-process runtime counters (RPC batches, WAL commits)."""
        return [
            self._host_rpc(i).call("_stats")
            for i in range(len(self._addresses))
        ]

    def close(self):
        for rpc in self._rpcs.values():
            rpc.close()
        self._rpcs.clear()
        self._servers.clear()
        self._config = None
