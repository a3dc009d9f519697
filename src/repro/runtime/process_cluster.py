"""``ProcessCluster``: a ``LocalCluster`` whose bolts run in worker
processes.

The parent keeps everything that makes the simulator deterministic —
spout polling, stream routing, groupings, the acker, metrics, queues,
the component-wave drain, settling, barrier/execute hooks — and
replaces only the innermost step: instead of gathering, executing and
committing a wave on local instances, it dispatches every task's slice
to its pinned worker process (one RPC per worker, all in flight at
once), where each worker runs its share as one wave of its own — one
gather, one commit — and then replays the recorded emissions through
its own collectors in a fixed order.

Execution within a wave is genuinely concurrent across workers; the
parent-side replay is deterministic. Fields groupings pin each key's
tuples to one task, and tasks are pinned to workers, so cross-worker
TDStore effects within a wave are on disjoint keys (or commutative
increments) — the invariant that keeps final state reproducible, and
the same one that lets a worker merge its tasks' store traffic.

A worker that dies mid-wave is respawned by the supervisor, its
topologies reloaded, and its share of the wave re-dispatched: the bolts
restart fresh (exactly ``kill_task`` semantics) and the re-executed
tuples fall on the dedup ledgers and op journals that already make
at-least-once delivery exact. A share whose gather or commit fails
reports its error with its records, and the parent queues the share's
tuples again, as the simulator does for a failed wave.
"""

from __future__ import annotations

from typing import Any

from repro.errors import (
    ClusterStateError,
    ConfigurationError,
    RemoteOpError,
    WorkerCrashError,
)
from repro.runtime.recipes import task_owner
from repro.runtime.rpc import RpcClient
from repro.runtime.supervisor import ManagedProcess, ProcessSupervisor
from repro.runtime.wire import Request
from repro.storm.cluster import LocalCluster, _RunningTopology, _Task
from repro.storm.component import Bolt
from repro.storm.topology import Topology
from repro.storm.tuples import StormTuple


class ProcessCluster(LocalCluster):
    """Drop-in ``LocalCluster`` executing bolt tasks in worker processes.

    Parameters beyond ``LocalCluster``'s:

    workers:
        The supervised worker processes, in worker-index order.
    supervisor:
        Owns the worker tree; used to respawn crashed workers.
    tdstore_spec:
        ``(addresses, placement)`` of the TDStore server hosts, shipped
        to workers so their bolts build remote clients.
    bus:
        As ``LocalCluster``'s; each worker returns the keys its share
        committed with the records, and this process publishes them.
    """

    def __init__(
        self,
        *,
        clock,
        workers: "list[ManagedProcess]",
        supervisor: ProcessSupervisor,
        tdstore_spec: "tuple[list, dict]",
        tick_interval: "float | None" = None,
        bus=None,
    ):
        super().__init__(clock=clock, tick_interval=tick_interval, bus=bus)
        if not workers:
            raise ConfigurationError("ProcessCluster needs >= 1 worker process")
        self._workers = list(workers)
        self._supervisor = supervisor
        self._tdstore_spec = tdstore_spec
        self._rpcs: dict[int, RpcClient] = {}
        self._recipes: dict[str, Any] = {}
        # the trailing ``publish`` argument of wave and tick requests:
        # none without a bus, so their frames stay as they were
        self._publishing = () if bus is None else (True,)
        self.waves_dispatched = 0
        self.worker_recoveries = 0

    # -- worker plumbing --------------------------------------------------

    @property
    def num_workers(self) -> int:
        return len(self._workers)

    def _worker_rpc(self, index: int) -> RpcClient:
        rpc = self._rpcs.get(index)
        if rpc is None or not rpc.connected:
            managed = self._workers[index]
            rpc = self._rpcs[index] = RpcClient(managed.host, managed.port)
        return rpc

    def _worker_call(self, index: int, method: str, *args: Any) -> Any:
        try:
            return self._worker_rpc(index).call(method, *args)
        except RemoteOpError:
            self._recover_worker(index)
            return self._worker_rpc(index).call(method, *args)

    def _recover_worker(self, index: int):
        """Respawn a dead worker and reload its topologies.

        The respawned process starts every owned bolt fresh — the same
        contract as ``kill_task`` for each of them — so recovery leans
        on the exactly-once layer, not on salvaging lost memory.
        """
        managed = self._workers[index]
        self._drop_rpc(index)
        self._supervisor.restart(managed.name)
        self.worker_recoveries += 1
        self._reload_worker(index)

    def on_worker_restarted(self, index: int):
        """Substrate hook: the supervisor respawned this worker on its
        own initiative (``kill_hung``); reconnect and reload."""
        self._drop_rpc(index)
        self._reload_worker(index)

    def _drop_rpc(self, index: int):
        rpc = self._rpcs.pop(index, None)
        if rpc is not None:
            rpc.close()

    def _reload_worker(self, index: int):
        rpc = self._worker_rpc(index)
        addresses, placement = self._tdstore_spec
        for name, recipe in self._recipes.items():
            rpc.call("load_topology", name, recipe, addresses, placement)
            run = self._running.get(name)
            if run is not None:
                for (component, task_index), task in run.tasks.items():
                    if isinstance(task.instance, Bolt) and (
                        task_owner(component, task_index, self.num_workers)
                        == index
                    ):
                        run.metrics.task_restarts += 1

    # -- topology lifecycle -----------------------------------------------

    def submit(self, topology: Topology):
        if topology.name in self._running:
            raise ClusterStateError(
                f"topology {topology.name!r} already submitted"
            )
        recipe = getattr(topology, "recipe", None)
        if recipe is None:
            raise ConfigurationError(
                f"topology {topology.name!r} carries no recipe; build it "
                "through repro.runtime.topology_recipe(...) so worker "
                "processes can reconstruct it"
            )
        addresses, placement = self._tdstore_spec
        for index in range(self.num_workers):
            self._worker_call(
                index, "load_topology", topology.name, recipe, addresses, placement
            )
        self._recipes[topology.name] = recipe
        return super().submit(topology)

    def kill_topology(self, topology_name: str):
        super().kill_topology(topology_name)
        self._recipes.pop(topology_name, None)
        for index in range(self.num_workers):
            try:
                self._worker_call(index, "unload_topology", topology_name)
            except RemoteOpError:
                pass

    # -- execution: the wave runs in the workers ---------------------------

    def _execute_wave(self, run: _RunningTopology, wave) -> "list[list]":
        """Run the wave on the worker pool — each worker gathers,
        executes and commits its share as one wave of its own — and
        feed the recorded emissions through the parent's collectors,
        slice by slice in task order, with ``bolt.execute`` replaced by
        the record; each slice's wave error is its worker share's."""
        self.waves_dispatched += 1
        results = self._dispatch(run.topology.name, wave)
        outcomes = []
        for task, tuples in wave:
            records, wave_error = results[(task.component_name, task.task_index)]
            errors = []
            for tup, (events, error) in zip(tuples, records):
                task.collector.set_input_context(tup.root_ids, tup.op_id)
                try:
                    self._replay_events(task, tup, events)
                finally:
                    task.collector.set_input_context(frozenset(), None)
                errors.append(error)
            outcomes.append((errors, wave_error))
        return outcomes

    def _dispatch(self, topology_name: str, wave):
        """Execute the wave on the worker pool; one in-flight RPC each.

        Returns ``{(component, task_index): ([per-tuple (events, error)],
        share_error)}``. Worker death is handled per worker: respawn,
        reload, re-dispatch its share.
        """
        per_worker: dict[int, list] = {}
        for task, tuples in wave:
            key = (task.component_name, task.task_index)
            index = task_owner(*key, self.num_workers)
            per_worker.setdefault(index, []).append((*key, tuples))
        head, publishing = (topology_name, self.clock.now()), self._publishing
        requests = [
            (index, Request("execute_batch", (*head, batches, *publishing)))
            for index, batches in sorted(per_worker.items())
        ]
        results: dict = {}
        in_flight = []
        for index, request in requests:
            try:
                self._worker_rpc(index).send_request(request)
                in_flight.append((index, request))
            except RemoteOpError:
                self._redispatch(index, request, results)
        for index, request in in_flight:
            try:
                reply = self._worker_rpc(index).recv_response().unwrap()
            except RemoteOpError:
                self._redispatch(index, request, results)
            else:
                self._collect(reply, results)
        return results

    def _redispatch(self, index, request, results):
        self._recover_worker(index)
        try:
            reply = self._worker_rpc(index).call_raw(request).unwrap()
        except RemoteOpError:
            raise WorkerCrashError(
                f"worker {self._workers[index].name!r} died twice on one "
                "wave; giving up"
            )
        self._collect(reply, results)

    def _collect(self, reply, results):
        """File one worker's wave reply under its tasks, with the share's
        error, once the keys its share committed are published (per
        share: a sibling's failed commit does not hold them back)."""
        records, error, *keys = reply
        if keys:
            self._publish(keys[0])
        for key, record in records.items():
            results[key] = (record, error)

    def _share(self, reply):
        """One worker's tick reply, once the keys its ticks committed are
        published — and a tick's failure raised after them."""
        if self._publish is None:
            return reply
        records, keys, *failed = reply
        self._publish(keys)
        if failed:
            raise failed[0]
        return records

    @staticmethod
    def _replay_events(task: _Task, tup: StormTuple, events):
        for event in events:
            kind = event[0]
            if kind == "emit":
                _, stream_id, values, op_id = event
                task.collector.emit(values, stream_id=stream_id, op_id=op_id)
            elif kind == "ack":
                task.collector.ack(tup)
            elif kind == "fail":
                task.collector.fail(tup)
            else:
                raise ClusterStateError(f"unknown replayed event {kind!r}")

    # -- ticks -------------------------------------------------------------

    def _tick_all(self, now: float):
        # collect from every worker first, then replay in the simulator's
        # task order so downstream queue order matches it exactly
        for run in self._running.values():
            merged: dict = {}
            for index in range(self.num_workers):
                for component, task_index, events in self._share(
                    self._worker_call(
                        index, "tick_all", run.topology.name, now,
                        *self._publishing,
                    )
                ):
                    merged[(component, task_index)] = events
            for key in list(run.tasks):
                events = merged.get(key)
                task = run.tasks.get(key)
                if not events or task is None:
                    continue
                task.collector.set_input_context(frozenset(), None)
                self._replay_events(task, None, events)

    # -- task control -------------------------------------------------------

    def kill_task(self, topology_name: str, component: str, task_index: int):
        super().kill_task(topology_name, component, task_index)
        run = self._running[topology_name]
        if isinstance(run.tasks[(component, task_index)].instance, Bolt):
            index = task_owner(component, task_index, self.num_workers)
            self._worker_call(index, "reset_task", topology_name, component, task_index)

    def rebalance(self, topology_name: str, component: str, parallelism: int):
        super().rebalance(topology_name, component, parallelism)
        run = self._running[topology_name]
        if not run.topology.specs[component].is_spout:
            for index in range(self.num_workers):
                self._worker_call(
                    index, "reset_component", topology_name, component, parallelism
                )

    # -- checkpoint integration ---------------------------------------------

    def capture_component_states(self, topology_name: str):
        """Merge parent-held spout states with worker-held bolt states."""
        run = self._running.get(topology_name)
        if run is None:
            raise ClusterStateError(f"unknown topology {topology_name!r}")
        states: dict = {}
        for key, task in run.tasks.items():
            if isinstance(task.instance, Bolt):
                continue  # the parent instance is a shadow; ask the worker
            state = task.instance.snapshot_state()
            if state is not None:
                states[key] = state
        for index in range(self.num_workers):
            states.update(self._worker_call(index, "snapshot_tasks", topology_name))
        return states

    def restore_component_states(self, topology_name: str, states):
        run = self._running.get(topology_name)
        if run is None:
            raise ClusterStateError(f"unknown topology {topology_name!r}")
        local: dict = {}
        per_worker: dict[int, dict] = {}
        for key, state in states.items():
            task = run.tasks.get(key)
            if task is None:
                raise ClusterStateError(
                    f"checkpoint names task {key[0]!r}[{key[1]}] which does "
                    f"not exist in {topology_name!r}; recovery requires the "
                    "same topology shape"
                )
            if isinstance(task.instance, Bolt):
                index = task_owner(key[0], key[1], self.num_workers)
                per_worker.setdefault(index, {})[key] = state
            else:
                local[key] = state
        super().restore_component_states(topology_name, local)
        for index, worker_states in per_worker.items():
            self._worker_call(index, "restore_tasks", topology_name, worker_states)

    def exactly_once_stats(self, topology_name: str) -> "dict[str, dict]":
        """Ledger stats shipped back from every worker, in task order."""
        run = self._running.get(topology_name)
        if run is None:
            raise ClusterStateError(f"unknown topology {topology_name!r}")
        merged: dict = {}
        for index in range(self.num_workers):
            merged.update(self._worker_call(index, "ledger_stats", topology_name))
        return {
            f"{name}[{task_index}]": merged[(name, task_index)]
            for name, task_index in sorted(merged)
        }

    # -- monitoring ----------------------------------------------------------

    def worker_stats(self) -> "list[dict]":
        """Per-worker runtime counters for cross-process monitoring."""
        return [
            self._worker_call(index, "_stats")
            for index in range(self.num_workers)
        ]

    def close(self):
        for rpc in self._rpcs.values():
            rpc.close()
        self._rpcs.clear()
