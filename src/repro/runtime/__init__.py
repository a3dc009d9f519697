"""repro.runtime — the multi-process execution substrate.

Everywhere else in this codebase "a TDStore data server" or "a Storm
worker" is a Python object inside one simulated process. This package
makes them real: TDStore servers become OS processes serving a
length-prefixed framed RPC protocol over TCP sockets, Storm bolts
execute inside a supervised worker-process pool fed over the same
transport, and durability is a group-committed write-ahead log that is
``fsync``\\ ed before a mutation is acknowledged.

The deterministic simulator remains the default test substrate; both
live behind the :class:`Substrate` interface so existing topologies,
route tables, resilience policies and the serving layer run unmodified
on either — substrate choice is a constructor switch, not a code fork.

Layering (stdlib only — ``socket`` / ``selectors`` / ``multiprocessing``):

====================  ====================================================
``wire``              frame codec + request/response envelopes; TDStore
                      errors round-trip as real exception objects
``rpc``               blocking client / selectors server with batched
                      dispatch (the group-commit window)
``wal``               group-committed write-ahead log (one fsync per
                      ready batch, replayed on restart)
``server_host``       the TDStore server process: logical data servers +
                      the config pair behind one RPC endpoint
``worker_host``       the Storm worker process: executes bolt tasks and
                      records their emissions for parent-side replay
``proxies``           client-side duck types of ``TDStoreDataServer`` /
                      ``ConfigServerPair`` / ``TDStoreCluster``
``supervisor``        spawn/heartbeat/kill-hung/restart/reap for the
                      process tree
``process_cluster``   ``LocalCluster`` subclass dispatching bolt
                      execution to the worker pool
``substrate``         ``SimSubstrate`` / ``ProcessSubstrate``
``chaos``             process-native fault methods (SIGKILL, network,
                      disk) behind ``repro.recovery.faults``' table +
                      serve-probe/report orchestration and MTTR
====================  ====================================================
"""

from repro.errors import (
    RemoteOpError,
    RuntimeSubstrateError,
    WorkerCrashError,
)
from repro.runtime.chaos import (
    ChaosOrchestrator,
    ChaosReport,
    ChaosRuntime,
    MttrSample,
    seeded_process_plan,
)
from repro.runtime.process_cluster import ProcessCluster
from repro.runtime.proxies import (
    ProcessTDStore,
    RemoteConfigServer,
    RemoteDataServer,
)
from repro.runtime.recipes import topology_recipe
from repro.runtime.rpc import RpcClient, RpcServer
from repro.runtime.substrate import ProcessSubstrate, SimSubstrate, Substrate
from repro.runtime.supervisor import ManagedProcess, ProcessSupervisor
from repro.runtime.wal import DiskFaultShim, GroupCommitWal
from repro.runtime.wire import Request, Response, StreamDecoder, encode_frame

__all__ = [
    "ChaosOrchestrator",
    "ChaosReport",
    "ChaosRuntime",
    "DiskFaultShim",
    "GroupCommitWal",
    "ManagedProcess",
    "MttrSample",
    "ProcessCluster",
    "ProcessSubstrate",
    "ProcessSupervisor",
    "ProcessTDStore",
    "RemoteConfigServer",
    "RemoteDataServer",
    "RemoteOpError",
    "Request",
    "Response",
    "RpcClient",
    "RpcServer",
    "RuntimeSubstrateError",
    "SimSubstrate",
    "StreamDecoder",
    "Substrate",
    "WorkerCrashError",
    "encode_frame",
    "seeded_process_plan",
    "topology_recipe",
]
