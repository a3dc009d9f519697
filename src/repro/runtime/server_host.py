"""The TDStore server host process.

One host process serves a framed RPC endpoint fronting:

- its share of the logical ``TDStoreDataServer`` objects (data plane),
- on host 0 only: the real ``ConfigServerPair`` and a real
  ``TDStoreCluster`` facade (control plane), wired over internal
  proxies to data servers living in sibling host processes.

Logical servers are deliberately decoupled from processes: the route
table still spreads instances over N logical servers with host/slave
replication and failover, while the process count is an independent
deployment knob.

Durability: every successful mutating data-plane operation is appended
to the host's :class:`~repro.runtime.wal.GroupCommitWal` and its ack is
withheld until a ``fsync`` covers the record. The flush runs on a
dedicated :class:`GroupCommitter` thread: the serve loop applies
mutations and appends log records at full speed while the committer
coalesces every batch that queued up during the previous ``fsync`` into
one flush, then sends all of their acks. ``fsync`` releases the GIL, so
with concurrent workers the host overlaps disk waits with request
processing and the per-ack fsync cost drops toward ``1/K`` for a
group of ``K`` — this is where the parallel benchmark's scaling comes
from. After a respawn the parent triggers ``_replay_wal`` to rebuild
data-plane state from the log — a live migration's dual-write window
included, as opening and closing it are logged calls — and then has
host 0's config pair ``provision`` the reborn host's servers: routes,
roles and failover history are control-plane state, absent from the
log; checkpoint recovery, not the WAL, restores post-failover layouts.

An envelope of client mutations is one such operation
(``TDStoreDataServer.mutate``): every host write of the envelope and the
sync records they queue on the replicas living in this process are one
request, one log record and one ack, and replaying the record re-derives
all of it. Hosts never call each other on the data plane — two
single-threaded serve loops waiting on each other's acks would deadlock
— so records for a replica owned by another process (the slave, or a
migration's catch-up target, which the host adds itself), and ops whose
host lives there, go back to the client, which sends them on in its next
envelope.

A degraded local server's ``latency`` is real time: a data frame naming
it waits that long (capped) before it is served.
"""

from __future__ import annotations

import os
import queue
import signal
import sys
import threading
import time

from repro.errors import TDStoreError
from repro.faultkinds import NETWORK_WINDOW_KINDS
from repro.runtime.proxies import RemoteDataServer
from repro.runtime.rpc import RpcClient, RpcServer
from repro.runtime.wal import GroupCommitWal, WalError, replay
from repro.runtime.wire import (
    CORRUPTION_STATS,
    SURFACE,
    Request,
    Response,
    encode_error,
    encode_frame,
    invoke,
)

# cap on the real stall a degraded server's latency costs one frame:
# 30-100x a loopback RPC, so a degraded server is unmistakably slow, yet
# a whole degraded wave (hundreds of stalled ops) costs a test run well
# under a second and supervisor pings and client timeouts survive it
REAL_DELAY_CAP = 0.01

# fail-stop exit code for a host whose WAL cannot promise durability;
# distinct from clean exits so the supervisor's restart bookkeeping and
# the chaos report can tell the two apart
WAL_FAIL_STOP_EXIT = 70

# what ``RpcServer`` does to a request frame for each armed window kind;
# ``frame_delay`` carries its seconds and is built at the hook
WINDOW_ACTIONS = {
    "conn_reset": "reset",
    "frame_drop": "drop_response",
    "frame_corrupt": "corrupt_response",
}

from repro.tdstore.cluster import TDStoreCluster
from repro.tdstore.config_server import ConfigServerPair
from repro.tdstore.data_server import (
    ENQUEUE_SYNCS,
    HOST_MUTATIONS,
    TDStoreDataServer,
)
from repro.tdstore.engines import MDBEngine


class HostedCluster(TDStoreCluster):
    """A ``TDStoreCluster`` over a pre-built (possibly mixed) server list.

    Entries are local ``TDStoreDataServer`` objects for servers this
    process owns and :class:`RemoteDataServer` proxies for servers owned
    by sibling host processes; every facade and config-server code path
    works on both through the shared duck type. ``colocated`` is the
    host's map of the local ones, which a server created at runtime
    (elastic expansion) joins — so the host serves its data RPCs and
    WAL-logs its mutations like any provisioned local.
    """

    def __init__(
        self, servers: list, num_instances: int, engine_factory, colocated: dict
    ):
        self._engine_factory = engine_factory
        self._colocated = colocated
        self.data_servers = list(servers)
        self.config = ConfigServerPair(self.data_servers, num_instances)


class GroupCommitter(threading.Thread):
    """Background thread that turns queued batches into group commits.

    The serve loop submits ``(mutating_conns, [(conn_id, payload)])``
    groups in completion order; this thread drains everything queued,
    issues *one* ``wal.commit()`` covering all of it, then sends the
    acks in submission order. Because the serve loop appends a record
    before submitting its group, and ``commit`` covers everything
    appended before it is called, every ack sent here is backed by a
    flush — the durability contract is identical to an inline fsync,
    minus the serve loop stalling on it.

    Eager flushing de-synchronizes concurrent writers: flush a one-op
    group the instant it arrives and the pool settles into alternating
    small commits instead of sharing one. So before flushing, the
    thread waits — bounded by an adaptive budget — until as many
    distinct connections have a write pending as the last flush
    covered (the adaptive-delay idea behind PostgreSQL's
    ``commit_delay``/``commit_siblings``). A lone writer sets the
    target to one and never waits; N lockstep writers converge on one
    ``fsync`` per N acks. The target decays by one per flush, so a
    writer going idle costs a few bounded waits, not a stall; and the
    wait budget itself halves every time a wait times out and regrows
    (up to ``max_group_wait``) when waits pay off, so a workload whose
    writers straggle slower than any useful window stops waiting for
    them at all.

    Only the replies of connections that sent a mutation in the batch
    flow through the queue — all of that connection's replies, so its
    FIFO order holds. :meth:`ServerHost.handle_batch` sends every other
    reply (reads, control-plane ops) inline, without waiting for a
    flush. A cycle with no mutations skips both the wait and the flush.
    """

    def __init__(
        self, wal: GroupCommitWal, send, *, max_group_wait: float = 0.002
    ):
        super().__init__(name="group-committer", daemon=True)
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._wal = wal
        self._send = send
        self._max_group_wait = max_group_wait
        self._wait_budget = max_group_wait
        self._target_conns = 0
        self.flushes = 0
        self.groups_flushed = 0
        self.waits = 0
        self.wait_timeouts = 0
        self.waited_seconds = 0.0
        self.error: BaseException | None = None

    def submit(self, mutating_conns: frozenset, replies: list) -> None:
        if self.error is not None:
            raise WalError(f"group committer died: {self.error!r}")
        self._queue.put((mutating_conns, replies))

    def close(self) -> None:
        """Flush whatever is queued, send its acks, and stop."""
        self._queue.put(None)
        self.join(timeout=30.0)

    def run(self) -> None:
        try:
            while self._run_once():
                pass
        except WalError as exc:
            # a commit barrier that fails must not ack — and every ack
            # in the queue is waiting on exactly that barrier. Fail-stop
            # the whole host: the supervisor respawns it and WAL replay
            # restores the acknowledged prefix.
            print(f"group committer fail-stop: {exc}", file=sys.stderr)
            sys.stderr.flush()
            os._exit(WAL_FAIL_STOP_EXIT)
        except BaseException as exc:  # surface on the next submit()
            self.error = exc

    def _run_once(self) -> bool:
        groups = [self._queue.get()]
        keep_going, deadline = True, None
        while True:
            while True:  # coalesce everything already waiting
                try:
                    groups.append(self._queue.get_nowait())
                except queue.Empty:
                    break
            if groups[-1] is None:
                keep_going = False
            pending_conns: set = set()
            mutating_conns: set = set()
            for group in groups:
                if group is None:
                    continue
                mutating_conns.update(group[0])
                pending_conns.update(cid for cid, _ in group[1])
            if (
                not keep_going
                or not mutating_conns
                or len(pending_conns) >= self._target_conns
            ):
                if deadline is not None or self._target_conns <= 1:
                    # a wait that reached its target (or needed none)
                    # earns a bigger budget next time
                    self._wait_budget = min(
                        self._max_group_wait, self._wait_budget * 1.5
                    )
                break
            if deadline is None:
                deadline = time.monotonic() + self._wait_budget
                self.waits += 1
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                # waiting did not pay; stop betting so much on it (the
                # floor keeps probing so a lockstep phase can re-grow it)
                self.waited_seconds += self._wait_budget
                self._wait_budget = max(
                    self._max_group_wait / 8, self._wait_budget * 0.5
                )
                self.wait_timeouts += 1
                break
            try:
                groups.append(self._queue.get(timeout=remaining))
            except queue.Empty:
                continue
        if mutating_conns:
            self._wal.commit()
            self.flushes += 1
            self.groups_flushed += sum(1 for g in groups if g is not None)
            # jump up to the observed concurrency, decay down slowly so
            # one quiet cycle doesn't collapse the pool out of lockstep
            self._target_conns = max(
                len(mutating_conns), self._target_conns - 1
            )
        for group in groups:
            if group is None:
                continue
            for conn_id, payload in group[1]:
                self._send(conn_id, payload)
        return keep_going

    def stats(self) -> dict:
        return {
            "flushes": self.flushes,
            "groups_flushed": self.groups_flushed,
            "avg_groups_per_flush": (
                self.groups_flushed / self.flushes if self.flushes else 0.0
            ),
            "waits": self.waits,
            "wait_timeouts": self.wait_timeouts,
            "waited_seconds": self.waited_seconds,
            "target_conns": self._target_conns,
        }


class ServerHost:
    """Request dispatcher and WAL bookkeeper for one host process."""

    def __init__(self, config: dict):
        self.host_index: int = config["host_index"]
        self.local_ids: list[int] = list(config["local_server_ids"])
        self.num_instances: int = config["num_instances"]
        self.locals: dict[int, TDStoreDataServer] = {}
        for sid in self.local_ids:
            TDStoreDataServer(sid, MDBEngine).colocate(self.locals)
        self.wal = GroupCommitWal(
            config["wal_path"],
            durable=config.get("durable", True),
            commit_floor=config.get("commit_floor", 0.0),
        )
        self._max_group_wait = config.get("max_group_wait", 0.002)
        # chaos state: armed network-fault windows (counts of non-admin
        # request frames to disturb)
        self._net: dict[str, int] = dict.fromkeys(NETWORK_WINDOW_KINDS, 0)
        self._net_delay_seconds = 0.0
        # CRC failures found by this host's own WAL replay scan; the
        # parent counts those from the surfaced WalError, so _stats
        # subtracts them to report RPC-frame detections without overlap
        self.wal_scan_corruptions = 0
        self.cluster: TDStoreCluster | None = None
        self._sibling_rpcs: dict[int, RpcClient] = {}
        if self.host_index == 0:
            servers = []
            placement: dict[int, int] = config["placement"]
            siblings: dict[int, tuple] = config.get("sibling_addresses", {})
            for sid in sorted(placement):
                if sid in self.locals:
                    servers.append(self.locals[sid])
                else:
                    host, port = siblings[placement[sid]]
                    rpc = self._sibling_rpcs.get(placement[sid])
                    if rpc is None:
                        rpc = RpcClient(host, port)
                        self._sibling_rpcs[placement[sid]] = rpc
                    servers.append(RemoteDataServer(rpc, sid))
            self.cluster = HostedCluster(
                servers, self.num_instances, MDBEngine, self.locals
            )
        # a respawn reuses the port recorded by the parent after the
        # first spawn, so worker-held addresses survive host restarts
        self.server = RpcServer(self.handle_batch, port=config.get("port", 0))
        self.committer = GroupCommitter(
            self.wal,
            self.server.send_payload,
            max_group_wait=self._max_group_wait,
        )
        self.committer.start()
        self.started_at = time.time()

    # -- dispatch ---------------------------------------------------------

    def _receiver(self, target):
        """The plane of :data:`~repro.runtime.wire.SURFACE` that
        ``target`` addresses here, and the object serving it."""
        if target is None:
            return "host", self
        if target in ("cluster", "config"):
            if self.cluster is None:
                raise TDStoreError(
                    f"host {self.host_index} does not run the control plane"
                )
            return target, (
                self.cluster if target == "cluster" else self.cluster.config
            )
        if isinstance(target, tuple) and target[0] == "data":
            server = self.locals.get(target[1])
            if server is None:
                raise TDStoreError(
                    f"host {self.host_index} does not own data server "
                    f"{target[1]}"
                )
            return "data", server
        raise TDStoreError(f"unroutable rpc target {target!r}")

    def handle_batch(self, batch) -> None:
        """Apply every request in the batch, then route the acks.

        The serve loop never blocks on ``fsync``: mutations are applied
        and appended to the WAL here, but their acks travel through the
        :class:`GroupCommitter`, which coalesces every batch queued
        while the previous flush was in flight into one commit. Acks
        are sent only after that commit, so an acknowledged write is
        always on disk.

        Reads (and control-plane ops) are acked inline instead — a
        blocking client has one request in flight, so per-connection
        ordering cannot be violated, and making a read wait out a
        stranger's ``fsync`` would stall the whole worker pipeline
        between writes. Returning ``None`` tells the transport we own
        the replies.
        """
        mutating_conns = set()
        replies = []
        slow = any(server.latency for server in self.locals.values())
        for conn_id, request in batch:
            target = request.target
            try:
                plane, receiver = self._receiver(target)
                method = request.method
                if slow and plane == "data":
                    time.sleep(self._stall(request))
                if plane == "data" and (
                    method in HOST_MUTATIONS or method == ENQUEUE_SYNCS
                ):
                    # declared nowhere: unlogged (and, for a host op,
                    # replica-blind) on its own; only ``mutate`` may name it
                    raise TDStoreError(f"{method!r} must travel in a mutate")
                row, value = invoke(SURFACE[plane], receiver, request)
                if row.logged:
                    # data records, and cluster calls that rebuild data-
                    # plane state, which replay re-applies via the facade
                    owner = target[1] if plane == "data" else "__cluster__"
                    self._wal_append((owner, method, request.args))
                    mutating_conns.add(conn_id)
                response = Response(value=value)
            except Exception as exc:
                response = encode_error(exc)
            try:
                payload = encode_frame(response)
            except Exception as exc:
                payload = encode_frame(encode_error(exc))
            replies.append((conn_id, payload))
        deferred = [r for r in replies if r[0] in mutating_conns]
        for conn_id, payload in replies:
            if conn_id not in mutating_conns:
                self.server.send_payload(conn_id, payload)
        if deferred or mutating_conns:
            self.committer.submit(frozenset(mutating_conns), deferred)
        return None

    def _stall(self, request: Request) -> float:
        """What a data frame waits: the largest latency among the local
        servers it names, capped at :data:`REAL_DELAY_CAP`."""
        named = {request.target[1]}
        if request.method in ("mutate", "gather"):
            named.update(entry[0] for entry in request.args[0])
        local = self.locals
        slowest = max(local[sid].latency for sid in named if sid in local)
        return min(REAL_DELAY_CAP, slowest)

    def _wal_append(self, record) -> None:
        try:
            self.wal.append(record)
        except WalError as exc:
            # the op was applied in memory but its log record is not on
            # disk and never will be: acking would lie, continuing would
            # let unlogged state diverge from what replay can rebuild.
            # Fail-stop; losing the un-acked op is correct.
            print(
                f"server host {self.host_index} fail-stop: {exc}",
                file=sys.stderr,
            )
            sys.stderr.flush()
            os._exit(WAL_FAIL_STOP_EXIT)

    # -- chaos seam (armed by the parent-side ChaosRuntime) ---------------

    def _rpc_fault_hook(self, conn_id: int, request: Request):
        if request.target is None:
            return None  # the host plane stays fault-free
        for kind in NETWORK_WINDOW_KINDS:  # reset > drop > corrupt > delay
            if self._net[kind] > 0:
                self._net[kind] -= 1
                if kind == "frame_delay":
                    return ("delay", self._net_delay_seconds)
                return WINDOW_ACTIONS[kind]
        return None

    def _chaos(self, kind: str, count: int = 1, seconds: float = 0.0) -> dict:
        """Arm a window of ``count`` network faults on this host's RPC
        transport; one armed fault disturbs one request frame outside
        the host plane."""
        if kind == "clear":
            self._net = dict.fromkeys(NETWORK_WINDOW_KINDS, 0)
        elif kind in self._net:
            self._net[kind] += int(count)
            if kind == "frame_delay":
                self._net_delay_seconds = float(seconds)
        else:
            raise TDStoreError(f"unknown network fault kind {kind!r}")
        self.server.fault_hook = self._rpc_fault_hook
        return self._chaos_stats()

    def _chaos_stats(self) -> dict:
        return {
            "armed": dict(self._net),
            "injected": dict(self.server.faults_injected),
            "wal_faults_fired": dict(self.wal.io.fired),
        }

    def _wal_fault(self, kind: str) -> list:
        """Arm a one-shot disk fault on the WAL's IO shim."""
        self.wal.io.arm(kind)
        return self.wal.io.armed()

    # -- admin ops (target=None) -----------------------------------------

    def _ping(self) -> str:
        return "pong"

    def _stats(self) -> dict:
        return {
            "pid": os.getpid(),
            "host_index": self.host_index,
            "local_servers": sorted(self.locals),
            "rpc_batches": self.server.batches,
            "rpc_requests": self.server.requests,
            "wal": self.wal.stats(),
            "committer": self.committer.stats(),
            "chaos": self._chaos_stats(),
            # RPC-frame CRC failures this process caught; WAL replay-scan
            # detections are excluded (the parent counts those from the
            # surfaced WalError, so the cluster-wide sum stays exact)
            "frame_corruptions_detected": (
                CORRUPTION_STATS["frames_detected"] - self.wal_scan_corruptions
            ),
            "wal_scan_corruptions": self.wal_scan_corruptions,
            "uptime": time.time() - self.started_at,
        }

    def _replay_wal(self) -> int:
        """Rebuild local data-plane state from the log (post-provisioning).

        Only ops acknowledged before the crash are on disk; re-applying
        them in order onto freshly provisioned servers reproduces the
        exact acknowledged engine state. ``ensure_instance`` guards replay
        of ops against instances whose roles were provisioned differently.

        Replica *inboxes* are re-derived, not restored: a ``mutate``
        record re-runs its enqueue against the respawned process, where
        every server is alive (``crash()`` is not logged). A co-located
        replica that was logically down when the write landed skipped
        those records then and is queued them now, so its inbox can hold
        more keys after replay than before the crash. That only moves the
        replica closer to its host (scrub would have repaired the gap).
        """

        def apply(record):
            server_id, method, args = record
            if server_id == "__cluster__":
                # control-plane rebuild (checkpoint restore, elastic
                # expansion) re-applied through the cluster facade;
                # writes to sibling-owned servers forward over their
                # proxies as usual
                if self.cluster is not None:
                    invoke(SURFACE["cluster"], self.cluster, Request(method, args))
                return
            server = self.locals.get(server_id)
            if server is None:
                return
            if method != "mutate":
                if args and isinstance(args[0], int):
                    server.ensure_instance(args[0])
                invoke(SURFACE["data"], server, Request(method, args))
                return
            # a failover may have promoted an instance onto its server
            # after provisioning's balanced layout; the envelope was
            # acknowledged at log time, so lift the route fence for the
            # re-apply only — stale-route protection for live clients
            # must survive recovery, and the true post-crash layout
            # comes from checkpoint restore
            granted = []
            for peer_id, instance, op, __, __ in args[0]:
                peer = self.locals.get(peer_id)
                if peer is None:
                    break  # the envelope ended where another process began
                peer.ensure_instance(instance)
                if op != ENQUEUE_SYNCS and not peer.hosts(instance):
                    peer.set_host_role(instance, True)
                    granted.append((peer, instance))
            try:
                server.mutate(*args)
            finally:
                for peer, instance in granted:
                    peer.set_host_role(instance, False)

        # replay from a read handle; new appends continue on the live fd
        try:
            return replay(self.wal.path, apply)
        except WalError as exc:
            # detection-before-serving: the scan found acknowledged
            # records whose CRC no longer matches. Surface the typed
            # error to the parent (which quarantines the log and
            # re-seeds this host from its replica) — and remember the
            # count so _stats does not double-report these detections
            self.wal_scan_corruptions += exc.corrupt_records
            raise

    def _quarantine_wal(self) -> str:
        """Set the damaged log aside and reopen a fresh one in place.

        Called by the parent after :meth:`_replay_wal` surfaces mid-log
        corruption. The damaged file is preserved (``<path>.corrupt``)
        for forensics; the re-seed that follows repopulates the fresh
        log through the normal mutating-op path, so durability holds
        again once repair completes.
        """
        return self.wal.quarantine()

    def _shutdown(self) -> str:
        self.server.stop()
        return "stopping"

    # -- lifecycle --------------------------------------------------------

    def serve(self):
        try:
            # the committer must flush its queue while connections are
            # still open — the final _shutdown ack travels through it
            self.server.serve_forever(on_exit=self.committer.close)
        finally:
            self.wal.close()
            for rpc in self._sibling_rpcs.values():
                rpc.close()


def server_host_main(conn, config: dict):
    """Process entrypoint (module-level: ``spawn`` re-imports it)."""
    _install_signal_handlers()
    try:
        host = ServerHost(config)
    except Exception as exc:
        conn.send(("error", repr(exc)))
        conn.close()
        raise
    conn.send(("ready", host.server.port))
    conn.close()
    host.serve()


def _install_signal_handlers():
    # SIGTERM/SIGINT exit the process cleanly (finally blocks run, the
    # WAL is committed and closed) instead of dying mid-write
    def _exit(signum, frame):
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, _exit)
    signal.signal(signal.SIGINT, _exit)
