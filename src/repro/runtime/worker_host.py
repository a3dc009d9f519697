"""The Storm worker process.

Holds the live bolt instances for its share of a topology's tasks and
executes batches of tuples the parent dispatches over RPC. Everything
*around* execution stays in the parent — routing, grouping, acking,
metrics, checkpoint policy — so the worker's job is exactly a real
Storm executor's: run ``bolt.execute`` against local state and report
what the bolt emitted. A dispatch is this worker's share of one
component wave, and it runs as the simulator runs a whole one
(:func:`~repro.storm.cluster.execute_wave`): one gather for every task
in it, their tuples, one commit — so the share is the unit of store
traffic and of failure.

Emissions are captured by a *recording* ``OutputCollector``: the same
collector class the simulator uses (so op-id derivation, emit sequence
numbers and timestamps are identical by construction), but with sink
callbacks that append events to a per-tuple record instead of routing.
The parent replays each record through its own collectors, which is
where ack trees grow, metrics increment, and downstream queues fill.

Bolts talk to TDStore through the same remote proxies the parent uses;
their resilient clients charge deadlines and retry budgets against a
:class:`~repro.utils.clock.WallClock`, while the worker's event-time
``SimClock`` is advanced to the parent's clock on every dispatch.
"""

from __future__ import annotations

import os
import signal
import time

from repro.errors import ClusterStateError
from repro.runtime.proxies import ProcessTDStore
from repro.runtime.recipes import build_factory, task_owner
from repro.runtime.rpc import RpcServer, dispatch_to_methods
from repro.runtime.wire import CORRUPTION_STATS, SURFACE, sanitize_exception
from repro.storm.cluster import execute_one, execute_wave, tick_wave
from repro.storm.component import OutputCollector, TopologyContext
from repro.storm.tuples import StormTuple
from repro.utils.clock import SimClock


class _WorkerTask:
    """One live bolt instance plus its recording collector."""

    def __init__(self, component: str, task_index: int, instance, collector):
        self.component = component
        self.task_index = task_index
        self.instance = instance
        self.collector = collector
        self.events: "list[tuple] | None" = None


class _WorkerTopology:
    """Worker-side state for one loaded topology."""

    def __init__(self, name: str, topology, clock, store: ProcessTDStore):
        self.name = name
        self.topology = topology
        self.clock = clock
        self.store = store
        self.tasks: dict[tuple[str, int], _WorkerTask] = {}
        self.parallelism: dict[str, int] = {
            name: spec.parallelism for name, spec in topology.specs.items()
        }


class WorkerHost:
    """Request dispatcher for one worker process."""

    def __init__(self, config: dict):
        self.worker_index: int = config["worker_index"]
        self.num_workers: int = config["num_workers"]
        self._topologies: dict[str, _WorkerTopology] = {}
        self.server = RpcServer(
            dispatch_to_methods(lambda target: self, SURFACE["worker"])
        )
        self.executed = 0
        self.ticks = 0
        self.started_at = time.time()

    # -- topology lifecycle ----------------------------------------------

    def load_topology(
        self,
        name: str,
        recipe,
        tdstore_addresses,
        tdstore_placement,
    ) -> "list[tuple[str, int]]":
        """(Re)build this worker's task instances from a recipe.

        Returns the owned task keys, mostly as a handshake the parent
        can log. Loading is idempotent-by-replacement: a reload after a
        worker restart starts every instance fresh (kill semantics).
        """
        clock = SimClock()
        store = ProcessTDStore(tdstore_addresses, tdstore_placement)
        factory = build_factory(recipe)
        topology = factory(clock, store.client, None)
        if topology.name != name:
            raise ClusterStateError(
                f"recipe built topology {topology.name!r}, expected {name!r}"
            )
        entry = _WorkerTopology(name, topology, clock, store)
        self._topologies[name] = entry
        for spec_name, spec in topology.specs.items():
            if spec.is_spout:
                continue  # spouts poll sources; they live in the parent
            for index in range(spec.parallelism):
                if task_owner(spec_name, index, self.num_workers) == self.worker_index:
                    self._build_task(entry, spec_name, index)
        return sorted(entry.tasks)

    def unload_topology(self, name: str):
        entry = self._topologies.pop(name, None)
        if entry is not None:
            entry.store.close()

    def _entry(self, name: str) -> _WorkerTopology:
        entry = self._topologies.get(name)
        if entry is None:
            raise ClusterStateError(
                f"worker {self.worker_index} has no topology {name!r}; "
                "was load_topology shipped?"
            )
        return entry

    def _build_task(
        self, entry: _WorkerTopology, component: str, task_index: int
    ) -> _WorkerTask:
        spec = entry.topology.specs[component]
        instance = spec.factory()
        task = _WorkerTask(component, task_index, instance, None)

        def record(kind, *payload):
            if task.events is None:
                raise ClusterStateError(
                    f"{component}[{task_index}] emitted outside execute/tick"
                )
            task.events.append((kind, *payload))

        def emit_fn(tup: StormTuple, message_id):
            record("emit", tup.stream_id, tup.values, tup.op_id)

        def ack_fn(tup: StormTuple):
            record("ack")

        def fail_fn(tup: StormTuple):
            record("fail")

        task.collector = OutputCollector(
            component,
            task_index,
            spec.declaration,
            emit_fn,
            ack_fn,
            fail_fn,
            entry.clock.now,
        )
        context = TopologyContext(
            component,
            task_index,
            entry.parallelism[component],
            entry.topology.name,
        )
        instance.prepare(context, task.collector)
        entry.tasks[(component, task_index)] = task
        return task

    # -- execution --------------------------------------------------------

    def execute_batch(
        self, name: str, now: float, batches, publish: bool = False
    ):
        """Run this worker's share of a component wave — one gather, one
        commit for all of it (:func:`~repro.storm.cluster.execute_wave`)
        — and return ``(records, error)``.

        ``batches`` is ``[(component, task_index, [StormTuple...]), ...]``;
        ``records`` maps ``(component, task_index)`` to one ``(events,
        error)`` record per tuple, with the tuple's own error, and
        ``error`` is the share's wave error — the parent replays the
        events through its own collectors and settles each tuple by the
        two, so parent-side control flow is byte-for-byte the
        simulator's. With ``publish`` (the parent has an invalidation
        bus) the result is ``(records, error, keys)``: the keys the
        share's commit wrote or probed, none if it failed.
        """
        entry = self._entry(name)
        entry.clock.advance_to(now)
        slices = [
            (
                entry.tasks.get((component, task_index))
                or self._build_task(entry, component, task_index),
                tuples,
            )
            for component, task_index, tuples in batches
        ]
        recorded: dict[int, list] = {}  # id(tuple) -> what it emitted

        def execute(task: _WorkerTask, tup: StormTuple):
            task.events = recorded[id(tup)] = []
            try:
                return execute_one(task, tup)
            finally:
                task.events = None
                self.executed += 1

        committed: list = []
        outcomes, error = execute_wave(
            slices, self._rebuilder(entry), execute,
            committed.extend if publish else None,
        )
        records = {
            (task.component, task.task_index): [
                (
                    # nothing, for a tuple a refused gather left unexecuted
                    recorded.get(id(tup), ()),
                    None if own is None else sanitize_exception(own),
                )
                for tup, own in zip(tuples, errors)
            ]
            for (task, tuples), errors in zip(slices, outcomes)
        }
        if error is not None:
            error = sanitize_exception(error)
        return (records, error, committed) if publish else (records, error)

    def _rebuilder(self, entry: _WorkerTopology):
        """A failed commit costs a task its memory (cache and dedup
        ledger name writes that never landed): the retried wave meets a
        fresh instance."""
        return lambda task: self._build_task(
            entry, task.component, task.task_index
        )

    def tick_all(self, name: str, now: float, publish: bool = False):
        """Tick every owned bolt, a component's tasks as one wave;
        returns ``[(comp, idx, events), ...]`` — with ``publish``, and
        the keys the ticks' commits wrote (see :meth:`execute_batch`),
        and the error of a tick that failed after others committed."""
        entry = self._entry(name)
        entry.clock.advance_to(now)
        committed: list = []
        sink = committed.extend if publish else None
        out = []
        owned = sorted(entry.tasks)
        for component in entry.topology.specs:
            tasks = [entry.tasks[key] for key in owned if key[0] == component]
            for task in tasks:
                task.events = []
                out.append((task.component, task.task_index, task.events))
            try:
                tick_wave(tasks, now, self._rebuilder(entry), sink)
            except Exception as exc:
                if not publish:
                    raise
                return out, committed, sanitize_exception(exc)
            finally:
                for task in tasks:
                    task.events = None
            self.ticks += len(tasks)
        return (out, committed) if publish else out

    # -- task control (parent mirrors of kill/rebalance/checkpoint) ------

    def reset_task(self, name: str, component: str, task_index: int):
        """Fresh instance, state lost — the worker half of ``kill_task``."""
        entry = self._entry(name)
        entry.tasks.pop((component, task_index), None)
        self._build_task(entry, component, task_index)

    def reset_component(self, name: str, component: str, parallelism: int):
        """Drop and re-pin a component's tasks — the worker half of
        ``rebalance``."""
        entry = self._entry(name)
        entry.parallelism[component] = parallelism
        for key in [k for k in entry.tasks if k[0] == component]:
            del entry.tasks[key]
        for index in range(parallelism):
            if task_owner(component, index, self.num_workers) == self.worker_index:
                self._build_task(entry, component, index)

    def snapshot_tasks(self, name: str) -> dict:
        """``{(comp, idx): state}`` for every owned task with local state."""
        entry = self._entry(name)
        states = {}
        for key, task in entry.tasks.items():
            state = task.instance.snapshot_state()
            if state is not None:
                states[key] = state
        return states

    def restore_tasks(self, name: str, states: dict):
        entry = self._entry(name)
        for key, state in states.items():
            task = entry.tasks.get(key)
            if task is None:
                task = self._build_task(entry, key[0], key[1])
            task.instance.restore_state(state)

    def ledger_stats(self, name: str) -> dict:
        """Dedup-ledger stats for owned tasks (monitoring aggregation)."""
        entry = self._entry(name)
        stats = {}
        for key, task in entry.tasks.items():
            ledger_stats = getattr(task.instance, "ledger_stats", None)
            if callable(ledger_stats):
                stats[key] = ledger_stats()
        return stats

    # -- admin ------------------------------------------------------------

    def _ping(self) -> str:
        return "pong"

    def _sleep(self, seconds: float) -> str:
        time.sleep(seconds)
        return "slept"

    def _stats(self) -> dict:
        return {
            "pid": os.getpid(),
            "worker_index": self.worker_index,
            "topologies": sorted(self._topologies),
            "tasks": {
                name: sorted(entry.tasks)
                for name, entry in self._topologies.items()
            },
            "executed": self.executed,
            "ticks": self.ticks,
            "rpc_requests": self.server.requests,
            # workers never scan WALs, so every CRC failure this process
            # caught came off an RPC stream (TDStore replies, typically)
            "frame_corruptions_detected": CORRUPTION_STATS["frames_detected"],
            "uptime": time.time() - self.started_at,
        }

    def _shutdown(self) -> str:
        self.server.stop()
        return "stopping"

    def serve(self):
        try:
            self.server.serve_forever()
        finally:
            for entry in self._topologies.values():
                entry.store.close()


def worker_host_main(conn, config: dict):
    """Process entrypoint (module-level: ``spawn`` re-imports it)."""
    _install_signal_handlers()
    try:
        host = WorkerHost(config)
    except Exception as exc:
        conn.send(("error", repr(exc)))
        conn.close()
        raise
    conn.send(("ready", host.server.port))
    conn.close()
    host.serve()


def _install_signal_handlers():
    def _exit(signum, frame):
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, _exit)
    signal.signal(signal.SIGINT, _exit)
