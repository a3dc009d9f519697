"""Process supervision: spawn, heartbeat, kill-hung, restart, reap.

All child processes — TDStore server hosts and Storm workers — are
spawned through one supervisor with the ``spawn`` start method (no
inherited locks or sockets; everything a child needs must pickle, which
the pickling regression tests pin down). Each child performs a startup
handshake over a pipe, reporting the port its RPC endpoint bound, and
is monitored afterwards by RPC heartbeats: a child that stops answering
within the hang deadline is killed and, if restart hooks are installed,
respawned with its original entrypoint and config so the owning layer
can re-drive recovery (WAL replay for server hosts, topology reload for
workers).

Children are daemonic, so even an abrupt parent death cannot leave
orphans; ordinary teardown goes through graceful shutdown (an RPC that
lets the child flush and close its WAL) with terminate/kill escalation.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Callable

from repro.errors import RuntimeSubstrateError
from repro.runtime.rpc import RpcClient

# seconds each stage of ProcessSupervisor.stop waits for a child to exit
GRACEFUL_TIMEOUT = 5.0


class SupervisorError(RuntimeSubstrateError):
    """A child process could not be spawned, contacted, or stopped."""


class ManagedProcess:
    """One supervised child: its process handle, address, and liveness."""

    def __init__(
        self,
        name: str,
        entrypoint: Callable,
        config: dict,
        process,
        port: int,
    ):
        self.name = name
        self.entrypoint = entrypoint
        self.config = config
        self.process = process
        self.host = "127.0.0.1"
        self.port = port
        self.restarts = 0
        self.last_heartbeat = time.monotonic()

    @property
    def address(self) -> "tuple[str, int]":
        return (self.host, self.port)

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    @property
    def pid(self) -> "int | None":
        return self.process.pid

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return (
            f"ManagedProcess({self.name!r}, pid={self.pid}, "
            f"port={self.port}, {state})"
        )


class ProcessSupervisor:
    """Owns the process tree for one substrate deployment."""

    def __init__(
        self, *, spawn_timeout: float = 60.0, hang_deadline: float = 30.0
    ):
        self._ctx = multiprocessing.get_context("spawn")
        self._spawn_timeout = spawn_timeout
        self.hang_deadline = hang_deadline
        self._procs: dict[str, ManagedProcess] = {}
        self._ever_spawned: set[str] = set()
        self._restart_hooks: list[Callable[[ManagedProcess], None]] = []
        # robustness counters surfaced through SystemMonitor
        self.kills = 0
        self.respawns = 0
        self.heartbeat_miss_streaks: dict[str, int] = {}

    # -- spawning ---------------------------------------------------------

    def spawn(self, name: str, entrypoint: Callable, config: dict) -> ManagedProcess:
        """Start a child and wait for its ``("ready", port)`` handshake."""
        if name in self._procs and self._procs[name].alive:
            raise SupervisorError(f"process {name!r} is already running")
        managed = ManagedProcess(
            name, entrypoint, dict(config), *self._launch(name, entrypoint, config)
        )
        self._procs[name] = managed
        self._ever_spawned.add(name)
        return managed

    def _launch(self, name: str, entrypoint: Callable, config: dict):
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=entrypoint, args=(child_conn, config), name=name, daemon=True
        )
        process.start()
        child_conn.close()
        try:
            if not parent_conn.poll(self._spawn_timeout):
                raise SupervisorError(
                    f"process {name!r} did not hand-shake within "
                    f"{self._spawn_timeout}s"
                )
            status, payload = parent_conn.recv()
        except (EOFError, OSError) as exc:
            process.join(timeout=1.0)
            raise SupervisorError(
                f"process {name!r} died during startup: {exc}"
            ) from exc
        finally:
            parent_conn.close()
        if status != "ready":
            process.join(timeout=5.0)
            raise SupervisorError(f"process {name!r} failed to start: {payload}")
        return process, payload

    # -- liveness ---------------------------------------------------------

    def get(self, name: str) -> ManagedProcess:
        managed = self._procs.get(name)
        if managed is None:
            raise SupervisorError(f"unknown process {name!r}")
        return managed

    def names(self) -> "list[str]":
        return sorted(self._procs)

    def ping(self, name: str, timeout: float = 2.0) -> bool:
        """One heartbeat: connect, ``_ping``, update ``last_heartbeat``."""
        managed = self.get(name)
        if not managed.alive:
            return False
        probe = RpcClient(managed.host, managed.port, timeout=timeout)
        try:
            ok = probe.call("_ping") == "pong"
        except Exception:
            ok = False
        finally:
            probe.close()
        if ok:
            managed.last_heartbeat = time.monotonic()
            self.heartbeat_miss_streaks.pop(name, None)
        else:
            self.heartbeat_miss_streaks[name] = (
                self.heartbeat_miss_streaks.get(name, 0) + 1
            )
        return ok

    def heartbeat(self, timeout: float = 2.0) -> "dict[str, bool]":
        """Sweep every child; returns name -> responded."""
        return {name: self.ping(name, timeout) for name in self.names()}

    def kill_hung(
        self,
        deadline: float | None = None,
        *,
        ping_timeout: float = 1.0,
        restart: bool = True,
    ) -> "list[str]":
        """Kill children silent for longer than ``deadline`` seconds.

        A child busy with a long batch is given the benefit of the
        doubt until its silence exceeds the deadline (defaulting to the
        supervisor's configured ``hang_deadline``); past it the process
        is forcibly killed (it is, by assumption, wedged and cannot
        shut down gracefully) and restarted unless told not to.
        """
        if deadline is None:
            deadline = self.hang_deadline
        killed = []
        for name in self.names():
            managed = self.get(name)
            if self.ping(name, ping_timeout):
                continue
            if time.monotonic() - managed.last_heartbeat < deadline:
                continue
            killed.append(name)
            self.kills += 1
            self._force_kill(managed)
            if restart:
                self.restart(name)
        return killed

    # -- restart ----------------------------------------------------------

    def add_restart_hook(self, hook: Callable[[ManagedProcess], None]):
        """Called with the fresh :class:`ManagedProcess` after a respawn."""
        self._restart_hooks.append(hook)

    def restart(self, name: str) -> ManagedProcess:
        """Respawn a child with its original entrypoint and config.

        In-memory state is gone — exactly a crash — and the restart
        hooks are where the owning layer re-drives its recovery path.
        """
        managed = self.get(name)
        if managed.alive:
            self._force_kill(managed)
        process, port = self._launch(name, managed.entrypoint, managed.config)
        managed.process = process
        managed.port = port
        managed.restarts += 1
        managed.last_heartbeat = time.monotonic()
        self.respawns += 1
        self.heartbeat_miss_streaks.pop(name, None)
        for hook in list(self._restart_hooks):
            hook(managed)
        return managed

    def ensure_alive(self, name: str) -> ManagedProcess:
        """Restart ``name`` if its process has died; returns the handle."""
        managed = self.get(name)
        if not managed.alive:
            return self.restart(name)
        return managed

    def robustness_stats(self) -> dict:
        """Counters the monitoring layer snapshots: forced kills,
        respawns, and per-child consecutive heartbeat misses."""
        return {
            "kills": self.kills,
            "respawns": self.respawns,
            "heartbeat_miss_streaks": dict(self.heartbeat_miss_streaks),
        }

    # -- teardown ---------------------------------------------------------

    def _force_kill(self, managed: ManagedProcess):
        if managed.process.is_alive():
            managed.process.kill()
        managed.process.join(timeout=10.0)

    def stop(self, name: str):
        """Stop one child: graceful RPC, then terminate, then kill (each
        stage waits up to :data:`GRACEFUL_TIMEOUT` seconds)."""
        managed = self.get(name)
        if managed.alive:
            shutdown = RpcClient(managed.host, managed.port, timeout=GRACEFUL_TIMEOUT)
            try:
                shutdown.call("_shutdown")
            except Exception:
                pass
            finally:
                shutdown.close()
            managed.process.join(timeout=GRACEFUL_TIMEOUT)
            if managed.process.is_alive():
                managed.process.terminate()
                managed.process.join(timeout=GRACEFUL_TIMEOUT)
            if managed.process.is_alive():
                managed.process.kill()
                managed.process.join(timeout=10.0)
        del self._procs[name]

    def shutdown(self):
        """Stop every child and reap; the tree must be empty afterwards."""
        for name in self.names():
            self.stop(name)
        self.reap()

    def reap(self) -> "list[str]":
        """Join any dead-but-unjoined children; returns lingering names.

        ``multiprocessing.active_children`` both reports and joins
        finished children, so calling this after shutdown asserts the
        no-orphan invariant the lifecycle tests pin down.
        """
        return sorted(
            child.name
            for child in multiprocessing.active_children()
            if child.name in self._ever_spawned
        )

    def __enter__(self) -> "ProcessSupervisor":
        return self

    def __exit__(self, *exc_info):
        self.shutdown()
