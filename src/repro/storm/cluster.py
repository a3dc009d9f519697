"""A simulated Storm cluster.

Reproduces the structure of Figure 1: a Nimbus assigns each topology's
tasks to worker slots hosted by supervisors; tasks exchange tuples through
grouped streams. Execution is single-process and deterministic — a
discrete-event loop polls spouts and drains bolt input queues — but the
semantics the paper depends on are preserved:

* a fields grouping delivers all tuples with one key to one task,
* each task is a separate component instance with private state,
* tasks (and whole workers) can be killed and restarted, losing any state
  not kept in TDStore, which is exactly the failure model of Section 3.3.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ClusterError, ClusterStateError
from repro.storm.acking import Acker
from repro.storm.component import (
    Component,
    OutputCollector,
    Spout,
    TopologyContext,
    commit_wave,
    gather_wave,
)
from repro.storm.metrics import ClusterMetrics
from repro.storm.topology import Topology
from repro.storm.tuples import StormTuple
from repro.utils.clock import SimClock


@dataclass
class WorkerSlot:
    """A worker process slot on a supervisor (Figure 1)."""

    supervisor_id: int
    slot_index: int
    assigned: list[tuple[str, str, int]] = field(default_factory=list)

    @property
    def worker_id(self) -> str:
        return f"supervisor-{self.supervisor_id}/worker-{self.slot_index}"


class Nimbus:
    """Assigns tasks to worker slots round-robin, like Storm's scheduler."""

    def __init__(self, num_supervisors: int, slots_per_supervisor: int):
        if num_supervisors <= 0 or slots_per_supervisor <= 0:
            raise ClusterError(
                "cluster needs at least one supervisor with one slot"
            )
        self.slots = [
            WorkerSlot(sup, slot)
            for sup in range(num_supervisors)
            for slot in range(slots_per_supervisor)
        ]
        self._cursor = 0

    def assign(self, topology: Topology) -> dict[tuple[str, int], WorkerSlot]:
        """Assign every task of ``topology`` to a slot; returns the map."""
        assignment: dict[tuple[str, int], WorkerSlot] = {}
        for spec in sorted(topology.specs.values(), key=lambda s: s.name):
            for task_index in range(spec.parallelism):
                slot = self.slots[self._cursor % len(self.slots)]
                self._cursor += 1
                slot.assigned.append((topology.name, spec.name, task_index))
                assignment[(spec.name, task_index)] = slot
        return assignment


class _Task:
    """One running component instance plus its input queue."""

    def __init__(
        self,
        component_name: str,
        task_index: int,
        instance: Component,
        collector: OutputCollector,
    ):
        self.component_name = component_name
        self.task_index = task_index
        self.instance = instance
        self.collector = collector
        self.queue: deque[StormTuple] = deque()
        self.spout_done = False


class _RunningTopology:
    """All runtime state for one submitted topology."""

    def __init__(self, topology: Topology):
        self.topology = topology
        self.tasks: dict[tuple[str, int], _Task] = {}
        self.acker = Acker()
        self.metrics = ClusterMetrics()

    def pending_tuples(self) -> int:
        return sum(len(t.queue) for t in self.tasks.values())

    def tasks_of(self, component: str) -> "list[_Task]":
        """The component's tasks, in task order."""
        parallelism = self.topology.specs[component].parallelism
        return [self.tasks[(component, i)] for i in range(parallelism)]


def execute_one(task, tup: StormTuple) -> "Exception | None":
    """Run one tuple with its identity installed; returns its error."""
    task.collector.set_input_context(tup.root_ids, tup.op_id)
    try:
        task.instance.execute(tup)
    except Exception as exc:
        return exc
    finally:
        task.collector.set_input_context(frozenset(), None)
    return None


def commit_tasks(tasks, restart, sink=None, probes=()):
    """One commit for what ``tasks`` buffered. Writes a failed commit
    dropped are still in the tasks' caches and dedup ledgers, so every
    one of them restarts fresh (``restart(task)``) and the retried wave
    meets the store's journals. Once the commit returns, ``sink`` hears
    every key it wrote and every key ``probes`` named — a retry whose
    first commit lost its ack writes nothing, but probes. A failed
    commit hands the sink nothing."""
    try:
        writes = commit_wave(task.instance.to_commit() for task in tasks)
    except Exception:
        for task in tasks:
            restart(task)
        raise
    if sink is not None:
        sink([args[0] for __, args in writes] + [key for key, __ in probes])


def execute_wave(slices, restart, execute=execute_one, sink=None):
    """gather -> execute -> commit for the ``(task, tuples)`` slices of
    one component wave — on either executor, the unit of store traffic
    and therefore of failure — then hand the committed wave's keys to
    ``sink`` (:func:`commit_tasks`).

    Returns ``(outcomes, error)``: one list per slice, aligned with its
    tuples, of each tuple's own error or ``None``; and the wave's error
    or ``None``. A refused gather executes nothing; a failed commit
    restarts every task of the wave, whose emissions stand (emit first).
    Either way the wave is to be retried. An envelope that broke
    part-way leaves an op prefix, which the journals absorb.
    """
    try:
        probes = gather_wave(
            task.instance.to_gather(tuples) for task, tuples in slices
        )
    except Exception as exc:
        return [[None] * len(tuples) for __, tuples in slices], exc
    outcomes = [
        [execute(task, tup) for tup in tuples] for task, tuples in slices
    ]
    try:
        commit_tasks([task for task, __ in slices], restart, sink, probes)
    except Exception as exc:
        return outcomes, exc
    return outcomes, None


def tick_wave(tasks, now: float, restart, sink=None):
    """Tick one component's tasks and commit the tick as one wave."""
    for task in tasks:
        task.instance.tick(now)
    commit_tasks(tasks, restart, sink)


class LocalCluster:
    """Runs topologies to completion over a simulated clock.

    Parameters
    ----------
    clock:
        The simulated clock shared with spouts and state stores.
    num_supervisors, slots_per_supervisor:
        Shape of the simulated machine pool (Figure 1).
    tick_interval:
        If set, every bolt's :meth:`~repro.storm.component.Bolt.tick` is
        invoked whenever the simulated clock crosses a multiple of this
        interval — Storm's tick-tuple mechanism, used by the combiner.
    bus:
        If set, each component wave whose commit returns hands the keys
        it wrote or probed to ``bus.publish_keys`` (see commit_tasks).
    """

    def __init__(
        self,
        clock: SimClock | None = None,
        num_supervisors: int = 4,
        slots_per_supervisor: int = 4,
        tick_interval: float | None = None,
        bus=None,
    ):
        self.clock = clock if clock is not None else SimClock()
        self._publish = None if bus is None else bus.publish_keys
        self.nimbus = Nimbus(num_supervisors, slots_per_supervisor)
        self.tick_interval = tick_interval
        self._running: dict[str, _RunningTopology] = {}
        self._assignment: dict[tuple[str, str, int], WorkerSlot] = {}
        self._next_tick = (
            None if tick_interval is None else self.clock.now() + tick_interval
        )
        self._barrier_hooks: list[Callable[[int], None]] = []
        self._barrier_rounds = 0
        self._execute_hooks: list[Callable[[str], None]] = []

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def submit(self, topology: Topology) -> ClusterMetrics:
        """Instantiate and prepare all tasks of ``topology``."""
        if topology.name in self._running:
            raise ClusterStateError(
                f"topology {topology.name!r} already submitted"
            )
        run = _RunningTopology(topology)
        self._running[topology.name] = run
        for (name, index), slot in self.nimbus.assign(topology).items():
            self._assignment[(topology.name, name, index)] = slot
        for spec in topology.specs.values():
            for task_index in range(spec.parallelism):
                self._start_task(run, spec.name, task_index)
        return run.metrics

    def _start_task(self, run: _RunningTopology, name: str, task_index: int):
        spec = run.topology.specs[name]
        instance = spec.factory()
        collector = self._make_collector(run, spec.name, task_index)
        task = _Task(spec.name, task_index, instance, collector)
        run.tasks[(name, task_index)] = task
        context = TopologyContext(
            spec.name, task_index, spec.parallelism, run.topology.name
        )
        instance.prepare(context, collector)

    def _make_collector(
        self, run: _RunningTopology, name: str, task_index: int
    ) -> OutputCollector:
        spec = run.topology.specs[name]

        def emit_fn(tup: StormTuple, message_id: Any):
            if spec.is_spout and message_id is not None:
                root = run.acker.register_root(message_id, name)
                tup.root_ids = frozenset({root})
            elif tup.root_ids:
                run.acker.on_emit(tup.root_ids)
            run.metrics.task(name, task_index).emitted += 1
            self._route(run, tup)

        def ack_fn(tup: StormTuple):
            run.metrics.task(name, task_index).acked += 1
            run.acker.on_ack(tup.root_ids, self._notify(run))

        def fail_fn(tup: StormTuple):
            run.metrics.task(name, task_index).failed += 1
            run.acker.on_fail(tup.root_ids, self._notify(run))

        return OutputCollector(
            name,
            task_index,
            spec.declaration,
            emit_fn,
            ack_fn,
            fail_fn,
            self.clock.now,
        )

    def _notify(self, run: _RunningTopology):
        def notify(spout_name: str, message_id: Any, ok: bool):
            if ok:
                run.metrics.trees_completed += 1
            else:
                run.metrics.trees_failed += 1
            for (name, _), task in run.tasks.items():
                if name == spout_name and isinstance(task.instance, Spout):
                    if ok:
                        task.instance.on_ack(message_id)
                    else:
                        task.instance.on_fail(message_id)
                    break

        return notify

    def _route(self, run: _RunningTopology, tup: StormTuple):
        """Deliver ``tup`` to every subscribed consumer task."""
        per_stream = run.topology.consumers.get(tup.source_component, {})
        for consumer_name, grouping in per_stream.get(tup.stream_id, ()):
            spec = run.topology.specs[consumer_name]
            for target in grouping.select_tasks(tup, spec.parallelism):
                run.tasks[(consumer_name, target)].queue.append(tup)
                run.metrics.tuples_transferred += 1

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run_until_idle(self, max_rounds: int | None = None) -> int:
        """Poll spouts and drain bolts until nothing remains; return rounds."""
        rounds = 0
        while True:
            progressed = self.step()
            rounds += 1
            if not progressed:
                break
            if max_rounds is not None and rounds >= max_rounds:
                break
        self.flush_ticks()
        self.drain()
        return rounds

    def step(self) -> bool:
        """One scheduling round: poll every active spout once, then drain.

        Tuples still queued when the round starts — a failed wave's, or
        what a drain cut short by an error left — are drained first, so
        they run before newer input; a fault-free round starts empty.
        Returns True if any spout still reported pending input or any tuple
        was processed.
        """
        progressed = any(
            run.pending_tuples() for run in self._running.values()
        ) and self.drain() > 0
        for run in self._running.values():
            for task in list(run.tasks.values()):
                if isinstance(task.instance, Spout) and not task.spout_done:
                    more = task.instance.next_tuple()
                    if not more:
                        task.spout_done = True
                    else:
                        progressed = True
        if self.drain() > 0:
            progressed = True
        # barrier point: every input queue has drained, so the system state
        # is a pure function of the source positions consumed so far — the
        # consistency point checkpoint and fault-injection hooks rely on
        self._barrier_rounds += 1
        for hook in list(self._barrier_hooks):
            hook(self._barrier_rounds)
        return progressed

    def drain(self) -> int:
        """Process queued tuples to quiescence; returns tuples executed.

        A component's turn is a *wave*: everything queued for its tasks
        when the turn comes (see :meth:`_run_wave`). Waves follow the
        topology's declaration order within each pass, so a component's
        upstream has fully executed — and committed — its share of the
        pass before the component reads TDStore, and the tasks of one
        wave belong to one fields/shuffle-grouped component and touch
        disjoint keys: one read and one write serve them all, here, and
        worker processes may run them concurrently
        (:class:`~repro.runtime.process_cluster.ProcessCluster`) with
        results equal to these instead of merely self-consistent.
        """
        executed = 0
        while True:
            batch = 0
            for run in list(self._running.values()):
                for component in list(run.topology.specs):
                    wave = [
                        (task, list(task.queue))
                        for task in run.tasks_of(component)
                        if task.queue
                    ]
                    if wave:
                        for task, tuples in wave:
                            task.queue.clear()
                            batch += len(tuples)
                        self._run_wave(run, wave)
            self._maybe_tick()
            if batch == 0:
                return executed
            executed += batch

    def _run_wave(self, run: _RunningTopology, wave):
        """One component wave: gather -> execute -> commit, then settle.

        Tuples are acked, and execute hooks run, once the wave's writes
        are committed; a tuple whose own execute raised fails its tree.
        A tuple whose wave failed — a refused gather, a failed commit or,
        on a worker process, its share failing — goes back, in order, to
        the head of its task's queue, as :meth:`kill_task` keeps queued
        tuples: the next drain re-runs it on the restarted task against
        the store's journals. The whole wave is settled before the first
        error propagates (fail-fast, as ever). A hook may kill a task of
        the wave: its tuples are committed already and settle all the
        same.
        """
        error = None
        for (task, tuples), (errors, failed_wave) in zip(
            wave, self._execute_wave(run, wave)
        ):
            counters = run.metrics.task(task.component_name, task.task_index)
            retry = []
            for tup, failed in zip(tuples, errors):
                counters.executed += 1
                if failed is None and failed_wave is None:
                    task.collector.ack(tup)
                    for hook in list(self._execute_hooks):
                        hook(run.topology.name)
                    continue
                if failed is not None:
                    task.collector.fail(tup)
                else:
                    retry.append(tup)
                if error is None:
                    error = failed or failed_wave
            task.queue.extendleft(reversed(retry))
            run.metrics.retried_tuples += len(retry)
        if error is not None:
            raise error

    def _execute_wave(self, run: _RunningTopology, wave) -> "list[tuple]":
        """The step a substrate replaces: run the wave's tuples and
        return, per slice, ``(errors, wave_error)`` — each tuple's own
        error (or ``None``) and the error of the wave that carried the
        slice (or ``None``)."""
        outcomes, error = execute_wave(
            wave, self._restarter(run), sink=self._publish
        )
        return [(errors, error) for errors in outcomes]

    def _restarter(self, run: _RunningTopology):
        return lambda task: self.kill_task(
            run.topology.name, task.component_name, task.task_index
        )

    def _maybe_tick(self):
        if self._next_tick is None:
            return
        now = self.clock.now()
        while now >= self._next_tick:
            self._tick_all(self._next_tick)
            self._next_tick += self.tick_interval

    def flush_ticks(self):
        """Force a tick on every bolt (used at end-of-stream to flush buffers)."""
        self._tick_all(self.clock.now())

    def _tick_all(self, now: float):
        for run in self._running.values():
            restart = self._restarter(run)
            for name, spec in list(run.topology.specs.items()):
                if not spec.is_spout:
                    tick_wave(run.tasks_of(name), now, restart, self._publish)

    # ------------------------------------------------------------------
    # checkpoint support (repro.recovery)
    # ------------------------------------------------------------------

    def add_barrier_hook(self, hook: Callable[[int], None]):
        """Register ``hook(round)`` to fire at each quiescent barrier.

        Hooks run at the end of every scheduling round, after all input
        queues have drained — the point where a checkpoint is consistent
        and where the fault injector strikes. A hook may raise
        :class:`~repro.errors.SimulatedCrash` to abort the run loop.
        """
        self._barrier_hooks.append(hook)

    def remove_barrier_hook(self, hook: Callable[[int], None]):
        if hook in self._barrier_hooks:
            self._barrier_hooks.remove(hook)

    def add_execute_hook(self, hook: Callable[[str], None]):
        """Register ``hook(topology_name)`` to fire after every bolt execute.

        Unlike barrier hooks, execute hooks fire mid-drain, while tuple
        trees are still open — the point where a worker crash interrupts
        processing. The fault injector uses this to kill tasks
        mid-tuple-tree (``worker_kill_midtree``).
        """
        self._execute_hooks.append(hook)

    def remove_execute_hook(self, hook: Callable[[str], None]):
        if hook in self._execute_hooks:
            self._execute_hooks.remove(hook)

    def reactivate_spouts(self, topology_name: str):
        """Clear the done flag on every spout of ``topology_name``.

        After a source rewind (e.g. a consumer seeking back for a
        duplicate-delivery fault) spouts that had reported exhaustion
        have input again; without this the run loop would never poll
        them.
        """
        run = self._running.get(topology_name)
        if run is None:
            raise ClusterStateError(f"unknown topology {topology_name!r}")
        for task in run.tasks.values():
            if isinstance(task.instance, Spout):
                task.spout_done = False

    @property
    def barrier_rounds(self) -> int:
        return self._barrier_rounds

    def capture_component_states(
        self, topology_name: str
    ) -> dict[tuple[str, int], dict]:
        """Snapshot the process-local state of every stateful task.

        Tasks whose :meth:`~repro.storm.component.Component.snapshot_state`
        returns ``None`` (state entirely in TDStore) are omitted.
        """
        run = self._running.get(topology_name)
        if run is None:
            raise ClusterStateError(f"unknown topology {topology_name!r}")
        states: dict[tuple[str, int], dict] = {}
        for key, task in run.tasks.items():
            state = task.instance.snapshot_state()
            if state is not None:
                states[key] = state
        return states

    def restore_component_states(
        self, topology_name: str, states: dict[tuple[str, int], dict]
    ):
        """Reinstall captured task states into a freshly submitted topology.

        The topology must have the same component names and task counts
        as at checkpoint time; recovery does not resize topologies.
        """
        run = self._running.get(topology_name)
        if run is None:
            raise ClusterStateError(f"unknown topology {topology_name!r}")
        for key, state in states.items():
            task = run.tasks.get(key)
            if task is None:
                raise ClusterStateError(
                    f"checkpoint names task {key[0]!r}[{key[1]}] which does "
                    f"not exist in {topology_name!r}; recovery requires the "
                    "same topology shape"
                )
            task.instance.restore_state(state)

    @property
    def next_tick(self) -> float | None:
        """The simulated time of the next scheduled tick, if ticking."""
        return self._next_tick

    def set_next_tick(self, when: float | None):
        """Restore the tick schedule from a checkpoint.

        Without this, a recovered cluster would phase-shift its ticks to
        ``recovery_time + interval``, flushing combiner buffers at
        different moments than the original run and breaking exactness.
        """
        if when is not None and self.tick_interval is None:
            raise ClusterStateError(
                "cannot restore a tick schedule on a cluster without a "
                "tick_interval"
            )
        self._next_tick = when

    # ------------------------------------------------------------------
    # failure injection (Section 3.1 / 3.3 failure model)
    # ------------------------------------------------------------------

    def kill_task(self, topology_name: str, component: str, task_index: int):
        """Kill one task and restart it fresh: in-memory state is lost.

        Queued tuples survive (Storm replays pending tuples to the new
        executor) — the rule a failed wave's tuples follow too; any state
        the component kept outside TDStore is gone.
        """
        run = self._running.get(topology_name)
        if run is None:
            raise ClusterStateError(f"unknown topology {topology_name!r}")
        old = run.tasks.get((component, task_index))
        if old is None:
            raise ClusterStateError(
                f"unknown task {component!r}[{task_index}] in {topology_name!r}"
            )
        pending = old.queue
        was_done = old.spout_done
        self._start_task(run, component, task_index)
        new_task = run.tasks[(component, task_index)]
        new_task.queue = pending
        new_task.spout_done = was_done
        run.metrics.task_restarts += 1

    def rebalance(self, topology_name: str, component: str, parallelism: int):
        """Change a component's task count at runtime (Storm's rebalance).

        All existing tasks of the component are torn down and replaced;
        their queued tuples are re-routed through the component's
        groupings against the new task count. Components that keep their
        state in TDStore (the TencentRec design, §5.1) survive this
        unchanged — which is what makes the Section 7 auto-parallelism
        future work safe to apply live.
        """
        run = self._running.get(topology_name)
        if run is None:
            raise ClusterStateError(f"unknown topology {topology_name!r}")
        spec = run.topology.specs.get(component)
        if spec is None:
            raise ClusterStateError(
                f"unknown component {component!r} in {topology_name!r}"
            )
        if spec.is_spout:
            raise ClusterStateError(
                "spouts cannot be rebalanced: a fresh instance would "
                "replay its source from the beginning"
            )
        if parallelism <= 0:
            raise ClusterStateError(
                f"parallelism must be positive: {parallelism}"
            )
        pending: list[StormTuple] = []
        was_done = True
        for task_index in range(spec.parallelism):
            task = run.tasks.pop((component, task_index))
            pending.extend(task.queue)
            was_done = was_done and task.spout_done
            task.instance.cleanup()
            self._assignment.pop(
                (topology_name, component, task_index), None
            )
        spec.parallelism = parallelism
        for task_index in range(parallelism):
            slot = self.nimbus.slots[
                self.nimbus._cursor % len(self.nimbus.slots)
            ]
            self.nimbus._cursor += 1
            slot.assigned.append((topology_name, component, task_index))
            self._assignment[(topology_name, component, task_index)] = slot
            self._start_task(run, component, task_index)
            run.tasks[(component, task_index)].spout_done = was_done
        # re-route the tuples that were waiting in the old queues: find
        # the grouping each tuple arrived through and replay the routing
        for tup in pending:
            per_stream = run.topology.consumers.get(tup.source_component, {})
            for consumer_name, grouping in per_stream.get(tup.stream_id, ()):
                if consumer_name != component:
                    continue
                for target in grouping.select_tasks(tup, parallelism):
                    run.tasks[(component, target)].queue.append(tup)

    def kill_worker(self, worker_id: str):
        """Kill every task assigned to one worker slot (machine failure)."""
        victims = [
            key
            for key, slot in self._assignment.items()
            if slot.worker_id == worker_id
        ]
        if not victims:
            raise ClusterStateError(f"no tasks assigned to worker {worker_id!r}")
        for topology_name, component, task_index in victims:
            self.kill_task(topology_name, component, task_index)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def topology_names(self) -> list[str]:
        return list(self._running)

    def metrics(self, topology_name: str) -> ClusterMetrics:
        return self._running[topology_name].metrics

    def pending_tuples(self, topology_name: str) -> int:
        """Tuples waiting in input queues across the whole topology."""
        run = self._running.get(topology_name)
        if run is None:
            raise ClusterStateError(f"unknown topology {topology_name!r}")
        return run.pending_tuples()

    def queue_depths(self, topology_name: str) -> dict[str, int]:
        """component name -> total queued tuples across its tasks.

        The autoscaler's primary pressure signal: a component whose
        queues keep growing is under-parallelised.
        """
        run = self._running.get(topology_name)
        if run is None:
            raise ClusterStateError(f"unknown topology {topology_name!r}")
        depths: dict[str, int] = {}
        for (name, _), task in run.tasks.items():
            depths[name] = depths.get(name, 0) + len(task.queue)
        return depths

    def parallelism_of(self, topology_name: str, component: str) -> int:
        run = self._running.get(topology_name)
        if run is None:
            raise ClusterStateError(f"unknown topology {topology_name!r}")
        spec = run.topology.specs.get(component)
        if spec is None:
            raise ClusterStateError(
                f"unknown component {component!r} in {topology_name!r}"
            )
        return spec.parallelism

    def exactly_once_stats(self, topology_name: str) -> dict[str, dict]:
        """Per-task dedup-ledger statistics for monitoring.

        Returns ``{"component[task]": ledger_stats_dict}`` for every task
        whose instance exposes ``ledger_stats()`` (i.e. subclasses of
        :class:`~repro.storm.reliability.ExactlyOnceBolt`).
        """
        run = self._running.get(topology_name)
        if run is None:
            raise ClusterStateError(f"unknown topology {topology_name!r}")
        stats: dict[str, dict] = {}
        for (name, index), task in sorted(run.tasks.items()):
            ledger_stats = getattr(task.instance, "ledger_stats", None)
            if callable(ledger_stats):
                stats[f"{name}[{index}]"] = ledger_stats()
        return stats

    def acker_stats(self, topology_name: str) -> dict[str, int]:
        """Tuple-tree accounting for monitoring.

        ``anomalies`` counts over-acked trees (a bolt double-acking, or
        an ack against an already-settled root) the acker absorbed
        instead of raising — a genuine double-ack bug surfaces only
        through this counter, so the monitor alerts on its delta.
        """
        run = self._running.get(topology_name)
        if run is None:
            raise ClusterStateError(f"unknown topology {topology_name!r}")
        acker = run.acker
        return {
            "completed": acker.completed,
            "failed": acker.failed,
            "anomalies": acker.anomalies,
            "pending": acker.pending_trees(),
        }

    def task_instance(
        self, topology_name: str, component: str, task_index: int
    ) -> Component:
        """Expose a running component instance (for tests and result reads)."""
        return self._running[topology_name].tasks[(component, task_index)].instance

    def assignment_of(
        self, topology_name: str, component: str, task_index: int
    ) -> str:
        return self._assignment[(topology_name, component, task_index)].worker_id

    def kill_topology(self, topology_name: str):
        run = self._running.pop(topology_name, None)
        if run is None:
            raise ClusterStateError(f"unknown topology {topology_name!r}")
        for task in run.tasks.values():
            task.instance.cleanup()
        self._assignment = {
            key: slot
            for key, slot in self._assignment.items()
            if key[0] != topology_name
        }
