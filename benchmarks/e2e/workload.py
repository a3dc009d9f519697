"""One workload of the end-to-end benchmark, run as a child of ``run.py``.

``python -m benchmarks.e2e.workload --workload <name> --seed <n>
--seconds <s> --trace <0|1> --out <dir>`` sets the stack up (several
times, for ``setup_s``), drives the workload's cycle for ``--seconds``,
checks the outputs, and prints one JSON object as its last line. See
``README.md`` for what each workload and metric means.

Every layer is measured from outside ``src/``: spans around the calls
made here (``trace.Tracer``), the recipe's probe around bolt ``execute``
and the bolts' store clients (``topology.BoltProbe``), counters the
layers already expose, ``/proc`` CPU time, and a few probes of public
functions after the window (``layers.py``).
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()  # before the imports set-up pays for

import argparse
import contextlib
import glob
import json
import os
import shutil
import statistics
import sys
from dataclasses import dataclass

from repro.engine.engine import EngineConfig, RecommenderEngine
from repro.engine.front_end import RecommenderFrontEnd
from repro.retrieval.retriever import RetrieverConfig
from repro.runtime import ProcessSubstrate, SimSubstrate, topology_recipe
from repro.runtime.substrate import install_parent_signal_handlers
from repro.serving import InvalidationBus, ServingLayer
from repro.tdaccess.cluster import TDAccessCluster
from repro.topology.state import StateKeys
from repro.utils.clock import SimClock

from benchmarks.e2e import checks, layers
from benchmarks.e2e import trace as tracing
from benchmarks.e2e.load import BATCH, TOP_N, WINDOW, EventTrace, QueryStream
from benchmarks.e2e.topology import CONTROL_KEY, PRETREATMENT_TASKS, group_of

TOPOLOGY_MODULE = "benchmarks.e2e.topology"
SERVERS, INSTANCES = 4, 16
PRELOAD_BATCHES = 40  # 960 events build the CF state and the VQ index
WARMUP_BATCHES = 3
SETUP_REPEATS = 3
PROBE_WIDTH = 8


@dataclass(frozen=True)
class Mix:
    """One workload: a substrate and the shape of its cycle.

    A cycle is ``batches`` ingest micro-batches, then ``cf_windows`` CF
    query windows, then ``vq_queries`` VQ queries. The exact-repeat counts
    of a traced run cover its first ``counted_cycles`` cycles.

    A window ends after ``--seconds`` or after ``cycles_per_second *
    seconds`` cycles, whichever comes first. The cycle cap is about 75 %
    of what this box completes when the host is quiet, so it normally
    comes first and every run does the same work: the state a cycle meets (history sizes,
    similar-items lists, cache contents) moves with the stream position,
    so a run that got further because the program got faster would
    otherwise be measured on costlier queries and cheaper events than its
    parent. The clock is the guard for a slower host.
    """

    substrate: str
    batches: int
    cf_windows: int
    vq_queries: int
    counted_cycles: int
    cycles_per_second: float

    def cap(self, seconds: float) -> int:
        """Cycles a window of ``seconds`` measures at most."""
        return max(self.counted_cycles, int(self.cycles_per_second * seconds))


# The CF windows per micro-batch keep each workload clear of a 50 % share
# of windows that reach the store, where the median would flip between the
# cached and the live path: the batch's invalidations plus the 3 % churn
# leave ~35 % of 1,500 windows live, and over 80 % of 120 or fewer.
WORKLOADS = {
    "ingest_sim": Mix("sim", 8, 24, 8, 20, 8.5),
    "query_sim": Mix("sim", 1, 1500, 60, 4, 2.5),
    "mixed_process": Mix("process", 1, 120, 24, 3, 0.75),
}


class Pipeline:
    """TDAccess -> Storm -> TDStore on one substrate, fed in micro-batches."""

    def __init__(
        self,
        substrate,
        topic: str,
        *,
        retrieval: bool = False,
        snapshot: "dict | None" = None,
        tracer: "tracing.Tracer | None" = None,
        trace_dir: "str | None" = None,
    ):
        started = time.perf_counter()
        self.tracer = tracer if tracer is not None else tracing.Tracer()
        self.topic = topic
        self.clock = SimClock()
        self.store = substrate.build_tdstore(SERVERS, INSTANCES)
        self.cluster = substrate.build_storm(self.clock)
        self.client = self.store.client()
        self.client.get("spawn-probe")
        self.spawn_seconds = time.perf_counter() - started
        if snapshot is not None:
            self.store.restore_contents(snapshot)
        tdaccess = TDAccessCluster(self.clock, num_data_servers=2)
        # consumed at once, so a short retention keeps memory flat
        tdaccess.create_topic(topic, 2, retention_segments=2)
        self.producer = tdaccess.producer()
        consumer = tdaccess.consumer(topic)
        if tracer is not None:
            consumer = tracing.Traced(consumer, tracer, {"poll": "tdaccess.poll"})
        kwargs = {"topo_name": topic, "retrieval": retrieval}
        if trace_dir is not None:
            kwargs["trace_dir"] = trace_dir
        factory = topology_recipe(TOPOLOGY_MODULE, "e2e_topology", **kwargs)
        self.topology = factory(self.clock, self.store.client, consumer)
        self.cluster.submit(self.topology)
        self.events = 0
        self.missed_reads = 0

    def _drain(self):
        self.cluster.reactivate_spouts(self.topology.name)
        with self.tracer.span("storm.run_until_idle"):
            self.cluster.run_until_idle()

    def ingest(self, batch: "list[dict]") -> float:
        """One micro-batch, produce to confirming live read; wall seconds."""
        span = self.tracer.span
        send, topic, clock = self.producer.send, self.topic, self.clock
        start = time.perf_counter()
        with span("batch"):
            with span("tdaccess.produce"):
                for payload in batch:
                    clock.advance_to(payload["timestamp"])
                    send(topic, payload, key=payload["user"])
            self._drain()
            last = batch[-1]
            with span("tdstore.get"):
                history = self.client.get(StateKeys.history(last["user"]), None)
        wall = time.perf_counter() - start
        self.events += len(batch)
        if not history or last["item"] not in history:
            self.missed_reads += 1
        return wall

    def control(self, command: str):
        """Steer the bolts' probe; PretreatmentBolt drops the payload."""
        for __ in range(PRETREATMENT_TASKS):
            self.producer.send(self.topic, {CONTROL_KEY: command}, key="ctl")
        self.cluster.reactivate_spouts(self.topology.name)
        self.cluster.run_until_idle()

    def failed_tuples(self) -> int:
        """Tuples a bolt failed plus tuple trees the acker failed."""
        metrics = self.cluster.metrics(self.topology.name)
        return metrics.trees_failed + sum(
            task.failed for task in metrics.tasks.values()
        )

    def check(self, what: str):
        failed = self.failed_tuples()
        if failed or self.missed_reads:
            raise checks.CheckFailed(
                f"{what}: {failed} tuples failed, "
                f"{self.missed_reads} confirming reads missed"
            )


def build_seed_state(events: EventTrace) -> "tuple[dict, float]":
    """The CF state and VQ index every run starts from, and its build rate.

    Built on ``SimSubstrate`` with the retrieval bolts on, then moved to
    the substrate under test through the checkpoint path
    (``snapshot_contents`` / ``restore_contents``).
    """
    with SimSubstrate() as substrate:
        pipeline = Pipeline(substrate, "e2e-preload", retrieval=True)
        start = time.perf_counter()
        for __ in range(PRELOAD_BATCHES):
            pipeline.ingest(events.next_batch())
        seconds = time.perf_counter() - start
        pipeline.check("preload")
        return pipeline.store.snapshot_contents(), pipeline.events / seconds


def reference_fingerprint(snapshot: dict, seed: int, batches: int) -> dict:
    """State a ``SimSubstrate`` run reaches from ``snapshot`` over the
    ``batches`` micro-batches that follow the preload."""
    events = EventTrace(seed)
    for __ in range(PRELOAD_BATCHES):
        events.next_batch()
    with SimSubstrate() as substrate:
        pipeline = Pipeline(substrate, "e2e-actions", snapshot=snapshot)
        for __ in range(batches):
            pipeline.ingest(events.next_batch())
        pipeline.check("reference")
        return checks.fingerprint(pipeline.store.snapshot_contents())


class Stack:
    """The pipeline under test plus the serving side in front of it."""

    def __init__(self, mix: Mix, seed: int, wal_dir: str, trace_dir: "str | None"):
        started = time.perf_counter()
        self.events = EventTrace(seed)
        self.tracer = tracing.Tracer() if trace_dir is not None else None
        self.snapshot, self.build_events_per_s = build_seed_state(self.events)
        self.wal_dir = wal_dir
        if mix.substrate == "process":
            # the shipped configuration (durable, default group commit),
            # at the one-worker point; WALs stay inside --out
            self.substrate = ProcessSubstrate(
                worker_procs=1, server_procs=1, wal_dir=wal_dir
            )
        else:
            self.substrate = SimSubstrate()
        try:
            self._build(trace_dir)
        except BaseException:
            self.close()
            raise
        self.setup_seconds = time.perf_counter() - started

    def _build(self, trace_dir: "str | None"):
        tracer = self.tracer
        self.pipeline = pipeline = Pipeline(
            self.substrate,
            "e2e-actions",
            snapshot=self.snapshot,
            tracer=tracer,
            trace_dir=trace_dir,
        )
        self.bus = InvalidationBus()
        self.query_client = client = pipeline.store.client()
        if tracer is not None:
            client = tracing.Traced(
                client,
                tracer,
                {"get": "tdstore.get", "multi_get": "tdstore.multi_get"},
            )
        engine = RecommenderEngine(
            client,
            EngineConfig(
                group_of=group_of, vq=RetrieverConfig(probe_width=PROBE_WIDTH)
            ),
        )
        self.retriever = engine.vq_retriever
        served_engine = engine
        if tracer is not None:
            self.retriever.retrieve = tracer.wrap(
                "retrieval.retrieve", self.retriever.retrieve
            )
            served_engine = tracing.Traced(
                engine, tracer, {"recommend_cf_batch": "engine.recommend_cf_batch"}
            )
        # cache TTLs run on wall time: event time moves two hours per
        # micro-batch, so on the event clock every entry would expire
        # between windows; a run is shorter than the TTLs, so only
        # invalidations stale entries
        self.layer = serving = ServingLayer(
            served_engine, time.monotonic, bus=self.bus, max_batch=32
        )
        if tracer is not None:
            serving = tracing.Traced(
                serving, tracer, {"serve_many": "serving.serve_many"}
            )
        self.cf = RecommenderFrontEnd(engine, serving=serving)
        self.vq = RecommenderFrontEnd(engine, algorithm="vq")
        # warm-up: lazy connections, the first commit, then one pass over
        # every user fills the result cache
        for __ in range(WARMUP_BATCHES):
            self.ingest(self.events.next_batch())
        now = pipeline.clock.now()
        users = self.events.users
        for at in range(0, len(users), WINDOW):
            self.cf.query_batch(
                [(user, TOP_N) for user in users[at : at + WINDOW]], now
            )
        for user in users[:WINDOW]:
            self.vq.query(user, TOP_N, now)
        self.warm_fingerprint = checks.fingerprint(
            pipeline.store.snapshot_contents()
        )

    def ingest(self, batch: "list[dict]") -> float:
        """A micro-batch, then the invalidations its commits imply.

        Bolts in worker processes cannot reach a bus in this process, so
        the driver publishes for them, on both substrates, after the
        batch and outside its timed span: the batch's users and items.
        Hot lists go stale until their TTL, as they would behind a bus
        that only carried these two kinds.
        """
        wall = self.pipeline.ingest(batch)
        publish = self.bus.publish
        for user in dict.fromkeys(p["user"] for p in batch):
            publish("user", user)
        for item in dict.fromkeys(p["item"] for p in batch):
            publish("item", item)
        return wall

    def batches_after_preload(self) -> int:
        return self.events.position - PRELOAD_BATCHES

    def close(self):
        self.substrate.teardown()
        shutil.rmtree(self.wal_dir, ignore_errors=True)


class Samples:
    """Per-class service times of one phase of the window."""

    def __init__(self):
        self.batch_walls: list[float] = []
        self.cf_walls: list[float] = []
        self.cf_live: list[bool] = []  # did the window reach the store?
        self.vq_walls: list[float] = []
        self.cycle_walls: list[float] = []
        self.cycle_cpu: list[float] = []  # CPU seconds of all processes
        self.generator_seconds = 0.0

    @property
    def events(self) -> int:
        return len(self.batch_walls) * BATCH

    @property
    def cf_queries(self) -> int:
        return len(self.cf_walls) * WINDOW

    @property
    def ops(self) -> int:
        return self.events + self.cf_queries + len(self.vq_walls)


class Window:
    """Drives the workload's cycle on a stack and keeps what it measured."""

    def __init__(self, stack: Stack, mix: Mix, seed: int):
        self.stack = stack
        self.mix = mix
        self.queries = QueryStream(seed, stack.events.users)
        self.empty_answers = 0
        # the workload process and everything the substrate spawned
        self.pids = [os.getpid()] + tracing.child_pids(os.getpid())
        # entered around each ingest call; layers.RuntimeCounts hooks in here
        self.ingest_hook = contextlib.nullcontext()

    def cycle(self, samples: Samples):
        stack, mix = self.stack, self.mix
        span = stack.pipeline.tracer.span
        cpu_start = self.cpu_seconds()
        cycle_start = time.perf_counter()
        for __ in range(mix.batches):
            batch = stack.events.next_batch()
            with self.ingest_hook:
                samples.batch_walls.append(stack.ingest(batch))
        # the idle-time replica catch-up an operator loop would run; left
        # out, the slaves' sync queues grow with every mutation
        with span("tdstore.sync_replicas"):
            stack.pipeline.store.sync_replicas()
        now = stack.pipeline.clock.now()
        started = time.perf_counter()
        position = stack.events.position
        windows = self.queries.cf_windows(mix.cf_windows, position)
        vq_users = self.queries.vq_users(mix.vq_queries, position)
        samples.generator_seconds += time.perf_counter() - started
        publish = stack.bus.publish
        query_batch = stack.cf.query_batch
        tier_serves = stack.layer.tier_serves
        for window, stale in windows:
            for user in stale:
                publish("user", user)
            live_before = tier_serves["batched_live"]
            start = time.perf_counter()
            with span("window"):
                with span("engine.query_batch"):
                    answers = query_batch(window, now)
            samples.cf_walls.append(time.perf_counter() - start)
            samples.cf_live.append(tier_serves["batched_live"] != live_before)
            for results in answers.values():
                if not results:
                    self.empty_answers += 1
        vq_query = stack.vq.query
        for user in vq_users:
            start = time.perf_counter()
            with span("window"):
                with span("engine.query[vq]"):
                    results = vq_query(user, TOP_N, now)
            samples.vq_walls.append(time.perf_counter() - start)
            if not results:
                self.empty_answers += 1
        # QueryLog keeps every displayed answer; without this a run's
        # memory would grow with its length
        for front_end in (stack.cf, stack.vq):
            front_end.log.displayed.clear()
            front_end.log.rung_history.clear()
        samples.cycle_walls.append(time.perf_counter() - cycle_start)
        samples.cycle_cpu.append(self.cpu_seconds() - cpu_start)

    def cpu_seconds(self) -> float:
        return sum(tracing.cpu_seconds(pid) for pid in self.pids)

    def run_for(self, seconds: float) -> Samples:
        """Cycles until ``seconds`` have passed or the cap on measured
        cycles is reached (see :class:`Mix`), whichever comes first."""
        samples = Samples()
        cap, floor = self.mix.cap(seconds), self.mix.counted_cycles
        deadline = time.perf_counter() + seconds
        while len(samples.cycle_walls) < cap and (
            len(samples.cycle_walls) < floor or time.perf_counter() < deadline
        ):
            self.cycle(samples)
        return samples

    def run_cycles(self, cycles: int) -> Samples:
        samples = Samples()
        for __ in range(cycles):
            self.cycle(samples)
        return samples

    def failed(self) -> int:
        """Events whose tuples failed or whose confirming read missed,
        plus queries answered empty or below the ``live`` rung."""
        stack = self.stack
        below_live = sum(
            count
            for front_end in (stack.cf, stack.vq)
            for rung, count in front_end.log.rungs.items()
            if rung != "live"
        )
        return (
            stack.pipeline.failed_tuples()
            + stack.pipeline.missed_reads
            + self.empty_answers
            + below_live
        )


def steady(per_cycle: "list[float]") -> float:
    """The lower quartile of a cost over the cycles of a window.

    Every cycle of a workload is the same mix of operations, and the one
    thing a shared host does to a cycle is slow it down, for tens of
    milliseconds to tens of seconds at a time (a neighbour on the same
    core). The mean and the median over a window move with the share of
    the window the neighbour was busy; the lower quartile stays with the
    cycles it left alone (see README.md, *Bounds and steadiness*).
    """
    return statistics.quantiles(per_cycle, n=4, method="inclusive")[0]


def _by_cycle(walls: "list[float]", per_cycle: int) -> "list[list[float]]":
    return [walls[at : at + per_cycle] for at in range(0, len(walls), per_cycle)]


def end_to_end_metrics(samples: Samples, mix: Mix, setup_s, rss_mb) -> dict:
    """Each cost per cycle, then :func:`steady` over the cycles; a rate
    is the reciprocal of the steady service time per operation."""
    batch = _by_cycle(samples.batch_walls, mix.batches)
    cf = _by_cycle(samples.cf_walls, mix.cf_windows)
    vq = _by_cycle(samples.vq_walls, mix.vq_queries)
    median = statistics.median
    cycle_ops = samples.ops / len(samples.cycle_walls)
    return {
        "setup_s": (setup_s, "s"),
        "ingest_events_per_s": (
            mix.batches * BATCH / steady([sum(c) for c in batch]), "1/s"),
        "event_to_servable_p50_ms": (
            1e3 * steady([median(c) for c in batch]), "ms"),
        "cf_query_qps": (
            mix.cf_windows * WINDOW / steady([sum(c) for c in cf]), "1/s"),
        "cf_query_p50_ms": (1e3 * steady([median(c) for c in cf]), "ms"),
        "vq_query_qps": (mix.vq_queries / steady([sum(c) for c in vq]), "1/s"),
        "vq_query_p50_ms": (1e3 * steady([median(c) for c in vq]), "ms"),
        "cpu_ms_per_op": (1e3 * steady(samples.cycle_cpu) / cycle_ops, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: str) -> dict:
    mix = WORKLOADS[name]
    trace_dir = None
    if trace:
        trace_dir = os.path.join(out_dir, f"{name}-probes")
        os.makedirs(trace_dir, exist_ok=True)
        for stale in glob.glob(os.path.join(trace_dir, "probe-*.json")):
            os.remove(stale)
    import_seconds = time.perf_counter() - _PROCESS_START
    stacks = []
    try:
        for repeat in range(SETUP_REPEATS):
            if stacks:
                stacks[-1].close()
            wal_dir = os.path.join(out_dir, f"{name}-wal-{os.getpid()}-{repeat}")
            stacks.append(Stack(mix, seed, wal_dir, trace_dir))
        stack = stacks[-1]
        setup_s = import_seconds + statistics.median(
            s.setup_seconds for s in stacks
        )
        spawn_s = statistics.median(s.pipeline.spawn_seconds for s in stacks)
        checks.check_golden(stack.warm_fingerprint, seed)
        window = Window(stack, mix, seed)

        if not trace:
            samples = window.run_for(seconds)
            attempted = samples.ops
        else:
            attribution = layers.Attribution(stack, window, trace_dir)
            attribution.measure(seconds)
            attempted = attribution.off.ops + attribution.on.ops
        rss_mb = sum(tracing.peak_rss_mb(pid) for pid in window.pids)
        measured = samples if not trace else attribution.on
        print(
            f"{name}: timings over {len(measured.batch_walls)} micro-batches, "
            f"{len(measured.cf_walls)} CF windows, "
            f"{len(measured.vq_walls)} VQ queries",
            file=sys.stderr,
        )

        stack.pipeline.check(name)
        if mix.substrate == "process":
            checks.check_same_state(
                checks.fingerprint(stack.pipeline.store.snapshot_contents()),
                reference_fingerprint(
                    stack.snapshot, seed, stack.batches_after_preload()
                ),
                f"{name} against the SimSubstrate reference",
            )
        recall = checks.check_answers(stack, seed)

        if not trace:
            metrics = end_to_end_metrics(samples, mix, setup_s, rss_mb)
        else:
            metrics = attribution.metrics(spawn_s, recall)
            with open(os.path.join(out_dir, f"{name}-spans.json"), "w") as handle:
                json.dump(stack.tracer.dump(), handle)
        failed = window.failed()
    finally:
        if stacks:
            stacks[-1].close()
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    # One CPU for this process and every process the substrate spawns
    # from it. The path is serial (the driver waits for the worker, the
    # worker for the host), so a second CPU adds no work done, only
    # cross-CPU wake-ups of a halted virtual CPU, whose cost follows the
    # host's load: unpinned runs of mixed_process fell into modes 15 %
    # apart. The highest CPU, because CPU 0 takes the interrupts.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    install_parent_signal_handlers()
    os.makedirs(args.out, exist_ok=True)
    try:
        result = run(
            args.workload, args.seed, args.seconds, bool(args.trace), args.out
        )
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
