"""The traced run: where an event's and a query's time goes, by layer.

A traced run starts with ``counted_cycles`` cycles with the probes on and
every counter read before and after: they cover the same micro-batches
and query windows on every run of one seed, so counts over them repeat
exactly. After them untraced and traced cycles alternate; the traced ones
give the timing metrics and the untraced ones the baseline for
``bench.trace_overhead_share``.

Sources, by metric: *span* = ``trace.Tracer`` around a call made by the
driver; *probe* = ``topology.BoltProbe`` where the bolts run; *counter* =
a count a layer already exposes; *isolated probe* = a loop over a public
function after the window.
"""

from __future__ import annotations

import contextlib
import glob
import json
import os
import statistics
import time

from repro.retrieval.retriever import VQIndexProbe
from repro.runtime.wire import Request, StreamDecoder, encode_frame
from repro.topology.state import StateKeys

from benchmarks.e2e import trace as tracing
from benchmarks.e2e.topology import CF_COMPONENTS

BOLT_OPS = ("get", "put", "op_seen", "put_once", "apply")


def percentile(sorted_values, q: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(len(sorted_values) * q))]


def read_probe(trace_dir: str) -> dict:
    """``{span: [count, total_s, self_s]}`` merged over every process
    that ran bolts."""
    totals: dict = {}
    for path in sorted(glob.glob(os.path.join(trace_dir, "probe-*.json"))):
        with open(path) as handle:
            data = json.load(handle)
        for name, (count, total, own) in data["totals"].items():
            merged = totals.setdefault(name, [0, 0.0, 0.0])
            merged[0] += count
            merged[1] += total
            merged[2] += own
    return totals


def _sum(totals: dict, prefix: str, index: int) -> float:
    return sum(t[index] for name, t in totals.items() if name.startswith(prefix))


def process_stats(pipeline) -> "tuple[list[dict], list[dict]]":
    """``(host_stats, worker_stats)``; empty on ``SimSubstrate``, which
    has neither hosts nor workers."""
    if not hasattr(pipeline.store, "host_stats"):
        return [], []
    return pipeline.store.host_stats(), pipeline.cluster.worker_stats()


class RuntimeCounts:
    """Host RPC, worker RPC and WAL record counts summed over the ingest
    calls it brackets."""

    def __init__(self, pipeline):
        self._pipeline = pipeline
        self.rpc = self.worker_rpc = self.wal = 0

    def _read(self) -> "tuple[int, int, int]":
        hosts, workers = process_stats(self._pipeline)
        return (
            sum(h["rpc_requests"] for h in hosts),
            sum(w["rpc_requests"] for w in workers),
            sum(h["wal"]["records"] for h in hosts),
        )

    def __enter__(self):
        self._before = self._read()
        return self

    def __exit__(self, *exc_info):
        rpc, worker_rpc, wal = self._read()
        self.rpc += rpc - self._before[0]
        self.worker_rpc += worker_rpc - self._before[1]
        self.wal += wal - self._before[2]
        return False


class Counters:
    """Counts the layers expose, read at one instant."""

    def __init__(self, stack):
        pipeline = stack.pipeline
        metrics = pipeline.cluster.metrics(pipeline.topology.name)
        self.executed = {
            name: metrics.component_executed(name) for name in CF_COMPONENTS
        }
        self.failed_tuples = pipeline.failed_tuples()
        self.events = pipeline.events
        self.invalidations = stack.bus.published
        clients = (pipeline.client, stack.query_client)
        self.ops_deduped = sum(c.ops_deduped for c in clients)
        self.route_refreshes = sum(c.route_refreshes for c in clients)
        self.breaker_rejections = sum(c.breaker_rejections for c in clients)
        self.deadline_misses = sum(c.deadline_misses for c in clients)
        cache = stack.layer.result_cache
        coalescer = stack.layer.coalescer
        self.cache_hits, self.cache_misses = cache.hits, cache.misses
        self.submitted, self.coalesced = coalescer.submitted, coalescer.coalesced
        self.batches = coalescer.batches
        self.batched_requests = coalescer.batched_requests
        self.live_users = stack.layer.tier_serves["batched_live"]
        hosts, workers = process_stats(pipeline)
        self.host_pids = [h["pid"] for h in hosts]
        self.worker_pids = [w["pid"] for w in workers]
        self.wal_records = sum(h["wal"]["records"] for h in hosts)
        self.wal_commits = sum(h["wal"]["commits"] for h in hosts)


def isolated_probes(store) -> dict:
    """Round trips through a fresh client, and the wire codec alone."""
    client = store.client()
    client.put("probe:key", 0)
    start = time.perf_counter()
    for __ in range(400):
        client.get("probe:key")
    get_us = 1e6 * (time.perf_counter() - start) / 400
    start = time.perf_counter()
    for value in range(200):
        client.put("probe:key", value)
    put_us = 1e6 * (time.perf_counter() - start) / 200
    # a representative mutation frame: a 20-entry similar-items list
    request = Request(
        "put_once",
        (
            3,
            StateKeys.sim_list("i17"),
            "e2e-actions/0@1234:userHistory:7",
            {f"i{n}": 0.25 + n / 97.0 for n in range(20)},
        ),
        target=1,
    )
    frames = 2000
    decoder = StreamDecoder()
    size = len(encode_frame(request))
    start = time.perf_counter()
    for __ in range(frames):
        decoder.feed(encode_frame(request))
    seconds = time.perf_counter() - start
    return {
        "runtime.rpc_round_trip_us": (get_us, "us"),
        "runtime.mutation_round_trip_us": (put_us, "us"),
        "runtime.wire_codec_us_per_frame": (1e6 * seconds / frames, "us"),
        "runtime.wire_codec_mb_per_s": (size * frames / seconds / 1e6, "MB/s"),
    }


class Attribution:
    """Runs the traced window and turns what it recorded into the
    per-layer metrics."""

    def __init__(self, stack, window, trace_dir: str):
        self.stack = stack
        self.window = window
        self.trace_dir = trace_dir
        self.runtime_counts = RuntimeCounts(stack.pipeline)

    def _trace(self, on: bool):
        self.stack.tracer.enabled = on
        self.stack.pipeline.control("on" if on else "off")

    def measure(self, seconds: float):
        stack, window, mix = self.stack, self.window, self.window.mix
        pipeline = stack.pipeline
        deadline = time.perf_counter() + seconds
        cap = mix.cap(seconds)
        self.calibration = [tracing.calibration_ms()]

        self._trace(True)
        self.first = Counters(stack)
        pids = [os.getpid()] + self.first.host_pids + self.first.worker_pids
        cpu_before = {pid: tracing.cpu_seconds(pid) for pid in pids}
        traced_start = time.perf_counter()
        window.ingest_hook = self.runtime_counts
        self.on = window.run_cycles(mix.counted_cycles)
        window.ingest_hook = contextlib.nullcontext()
        pipeline.control("flush")
        self.second = Counters(stack)
        self.counted_probe = read_probe(self.trace_dir)

        # then untraced and traced cycles in turn, so that both see the
        # same host conditions and the same stretch of the stream
        self.off = window.run_cycles(0)
        cycles = mix.counted_cycles
        while not self.off.cycle_walls or (
            cycles + 2 <= cap and time.perf_counter() < deadline
        ):
            self._trace(False)
            window.cycle(self.off)
            self._trace(True)
            window.cycle(self.on)
            cycles += 2
        self.traced_wall = time.perf_counter() - traced_start
        self.cpu = {
            pid: tracing.cpu_seconds(pid) - cpu_before[pid] for pid in pids
        }
        pipeline.control("flush")
        self._trace(False)
        self.last = Counters(stack)
        self.probe = read_probe(self.trace_dir)
        self.calibration.append(tracing.calibration_ms())

    def metrics(self, spawn_s: float, recall: float) -> dict:
        stack, mix = self.stack, self.window.mix
        tracer, probe = stack.tracer, self.probe
        first, second, last = self.first, self.second, self.last
        off, on = self.off, self.on
        counted_events = second.events - first.events
        out = {}

        out["tdaccess.produce_us_per_msg"] = (
            1e6 * tracer.total("tdaccess.produce") / on.events, "us")
        out["tdaccess.poll_us_per_msg"] = (
            1e6 * tracer.total("tdaccess.poll") / on.events, "us")

        executed = {
            name: second.executed[name] - first.executed[name]
            for name in CF_COMPONENTS
        }
        execute_wall = _sum(probe, "topology.", 1)
        out["storm.tuples_per_event"] = (
            sum(executed.values()) / counted_events, "count")
        out["storm.sched_self_share"] = (
            1.0 - execute_wall / tracer.total("storm.run_until_idle"), "share")
        out["storm.trees_failed"] = (
            second.failed_tuples - first.failed_tuples, "count")
        out["storm.batch_wall_p90_ms"] = (
            1e3 * percentile(sorted(on.batch_walls), 0.90), "ms")
        for name in CF_COMPONENTS:
            count, __, own = probe.get(f"topology.{name}.execute", (0, 0.0, 0.0))
            out[f"topology.{name}.executed_per_event"] = (
                executed[name] / counted_events, "count")
            out[f"topology.{name}.self_us_per_tuple"] = (
                1e6 * own / max(1, count), "us")

        out["tdstore.calls_per_event"] = (
            _sum(self.counted_probe, "tdstore.", 0) / counted_events, "count")
        for op in BOLT_OPS:
            count, total, __ = probe.get(f"tdstore.{op}", (0, 0.0, 0.0))
            out[f"tdstore.call_us.{op}"] = (1e6 * total / max(1, count), "us")
        out["tdstore.call_us.multi_get"] = (
            tracer.mean_us("tdstore.multi_get"), "us")
        out["tdstore.busy_share"] = (
            _sum(probe, "tdstore.", 1) / execute_wall, "share")
        out["tdstore.multi_get_keys_per_op"] = (
            stack.query_client.batched_keys
            / max(1, stack.query_client.batch_ops),
            "count",
        )
        out["tdstore.sync_replicas_us_per_event"] = (
            1e6 * tracer.total("tdstore.sync_replicas") / on.events, "us")
        out["tdstore.ops_deduped"] = (
            second.ops_deduped - first.ops_deduped, "count")
        out["tdstore.route_refreshes"] = (
            second.route_refreshes - first.route_refreshes, "count")

        counts = self.runtime_counts
        out["runtime.rpc_requests_per_event"] = (
            counts.rpc / counted_events, "count")
        out["runtime.worker_rpc_requests_per_event"] = (
            counts.worker_rpc / counted_events, "count")
        out["runtime.wal_records_per_event"] = (
            counts.wal / counted_events, "count")
        out["runtime.wal_records_per_commit"] = (
            (last.wal_records - first.wal_records)
            / max(1, last.wal_commits - first.wal_commits),
            "count",
        )
        out.update(isolated_probes(stack.pipeline.store))
        wall = self.traced_wall
        parent = self.cpu[os.getpid()]
        worker = sum(self.cpu[pid] for pid in first.worker_pids)
        host = sum(self.cpu[pid] for pid in first.host_pids)
        out["runtime.parent_cpu_share"] = (parent / wall, "share")
        out["runtime.worker_cpu_share"] = (worker / wall, "share")
        out["runtime.host_cpu_share"] = (host / wall, "share")
        cpus = len(os.sched_getaffinity(0))  # one: workload.main pins
        out["runtime.idle_share"] = (
            1.0 - (parent + worker + host) / (wall * cpus), "share")
        out["runtime.spawn_s"] = (spawn_s, "s")

        lookups = (last.cache_hits - first.cache_hits) + (
            last.cache_misses - first.cache_misses)
        hit = sorted(w for w, live in zip(on.cf_walls, on.cf_live) if not live)
        miss = sorted(w for w, live in zip(on.cf_walls, on.cf_live) if live)
        out["serving.result_cache_hit_ratio"] = (
            (last.cache_hits - first.cache_hits) / lookups, "share")
        out["serving.coalesced_ratio"] = (
            (last.coalesced - first.coalesced)
            / (last.submitted - first.submitted),
            "share",
        )
        out["serving.mean_batch_size"] = (
            (last.batched_requests - first.batched_requests)
            / (last.batches - first.batches),
            "count",
        )
        out["serving.invalidations_per_window"] = (
            (second.invalidations - first.invalidations)
            / (mix.counted_cycles * mix.cf_windows),
            "count",
        )
        out["serving.cf_query_p99_ms"] = (
            1e3 * percentile(sorted(on.cf_walls), 0.99), "ms")
        out["serving.hit_window_us"] = (
            1e6 * statistics.median(hit) if hit else 0.0, "us")
        out["serving.miss_window_us"] = (
            1e6 * statistics.median(miss) if miss else 0.0, "us")

        out["engine.recommend_cf_batch_us_per_user"] = (
            1e6 * tracer.total("engine.recommend_cf_batch")
            / max(1, last.live_users - first.live_users),
            "us",
        )
        out["engine.front_end_self_us_per_query"] = (
            1e6 * tracer.self_time("engine.query_batch") / on.cf_queries, "us")
        rungs: dict = {}
        for front_end in (stack.cf, stack.vq):
            for rung, count in front_end.log.rungs.items():
                rungs[rung] = rungs.get(rung, 0) + count
        out["engine.live_rung_share"] = (
            rungs.get("live", 0) / sum(rungs.values()), "share")
        out["engine.vq_fallback_share"] = (
            stack.vq.log.vq_fallbacks / stack.vq.log.queries, "share")

        index = VQIndexProbe(stack.query_client).stats()
        retrieval = stack.retriever.stats
        out["retrieval.retrieve_us"] = (
            tracer.mean_us("retrieval.retrieve"), "us")
        out["retrieval.candidates_per_query"] = (
            retrieval.candidates_scored / max(1, retrieval.queries), "count")
        out["retrieval.recall_at_10"] = (recall, "share")
        out["retrieval.build_events_per_s"] = (stack.build_events_per_s, "1/s")
        out["retrieval.centroids"] = (index["centroids"], "count")
        out["retrieval.posting_p99"] = (index["posting_p99"], "count")
        out["retrieval.vq_query_p99_ms"] = (
            1e3 * percentile(sorted(on.vq_walls), 0.99), "ms")

        out["resilience.breaker_rejections"] = (
            last.breaker_rejections - first.breaker_rejections, "count")
        out["resilience.deadline_misses"] = (
            last.deadline_misses - first.deadline_misses, "count")

        out["bench.trace_overhead_share"] = (
            1.0
            - statistics.median(off.cycle_walls)
            / statistics.median(on.cycle_walls),
            "share",
        )
        out["bench.calibration_ms"] = (
            statistics.median(self.calibration), "ms")
        out["bench.generator_us_per_op"] = (
            1e6 * on.generator_seconds / (on.cf_queries + len(on.vq_walls)),
            "us",
        )
        out["bench.root_self_share"] = (
            (tracer.self_time("batch") + tracer.self_time("window"))
            / sum(on.cycle_walls),
            "share",
        )
        return out
