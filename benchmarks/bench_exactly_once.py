"""Cost and value of the exactly-once layer.

Three measurements over the same deterministic CF stream:

1. Steady state — wall-clock of a clean (failure-free) CF run through
   the stateful bolts' one write path (dedup ledgers + op journal),
   and the ledger footprint it ends with.
2. Ledger micro-throughput — raw ``DedupLedger.observe`` rates for
   first-seen and duplicate ids, and the bounded memory footprint.
3. Replay value — the CF run and a bare counter topology (one delta per
   event, the shape of the CTR/AR/demographic counters) both run under
   the same duplicate-delivery fault plan. The exactly-once runs must
   land byte-exact on the clean counts; the same counter written by a
   plain at-least-once ``Bolt`` (:class:`NaiveCountBolt`, kept here as
   the reference) shows the inflation the layer exists to prevent.
   (The CF history itself absorbs identical replays — ratings are a
   monotone max — which is exactly why counters are the dangerous
   case.)
4. Failed commit, no rewind — one ``userHistory`` commit raises
   ``DataServerDownError`` and nothing seeks the consumer back: the
   production spout replays nothing, so the guarantee rests on the
   executor retrying the failed wave, and the CF state must equal the
   clean run's.

Run with: PYTHONPATH=src python -m pytest benchmarks/bench_exactly_once.py -q -s
"""

from __future__ import annotations

import time

from repro.errors import DataServerDownError
from repro.recovery import Fault, RecoveryHarness
from repro.storm.component import Bolt, FunctionBolt
from repro.storm.grouping import FieldsGrouping, ShuffleGrouping
from repro.storm.reliability import DedupLedger
from repro.storm.topology import TopologyBuilder
from repro.topology.state import CachedStore, Reads, StateKeys, StoreBacked
from repro.topology.bolts_cf import ItemCountBolt
from repro.topology.spouts import TDAccessSpout

from benchmarks.conftest import report
from tests.recovery.helpers import (
    TOPIC,
    cf_topology_factory,
    make_payloads,
    make_tdaccess,
    state_digest,
)

N_MESSAGES = 240
BATCH = 4
REPS = 3
LEDGER_OPS = 100_000


class NaiveCountBolt(StoreBacked, Bolt):
    """The at-least-once reference: a plain bolt doing get+put
    increments, with neither ledger nor journal — every replayed tuple
    counts again."""

    def __init__(self, client_factory):
        self._client_factory = client_factory

    def prepare(self, context, collector):
        super().prepare(context, collector)
        self._store = CachedStore(self._client_factory())

    def reads(self, tup):
        return Reads(owned=(StateKeys.item_count(tup["item"]),))

    def execute(self, tup):
        self._store.incr(StateKeys.item_count(tup["item"]), tup["delta"])


class FailingCommitClient:
    """A bolt's client whose ``armed[0]``-th commit carrying a history
    key raises before anything is sent (the countdown is shared by
    every client of the run)."""

    def __init__(self, inner, armed):
        self._inner = inner
        self._armed = armed

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def mutate(self, ops):
        if any(str(args[0]).startswith("hist:") for __, args in ops):
            self._armed[0] -= 1
            if self._armed[0] == 0:
                raise DataServerDownError("injected commit failure")
        return self._inner.mutate(ops)


def failed_commit_run(payloads, commit=5):
    """The CF run whose ``commit``-th userHistory commit fails once;
    ``run()`` is called again and nothing rewinds the consumer."""
    armed = [commit]
    inner = cf_topology_factory(batch_size=BATCH)

    def factory(clock, client_factory, consumer):
        return inner(
            clock, lambda: FailingCommitClient(client_factory(), armed), consumer
        )

    harness = RecoveryHarness(
        make_tdaccess(payloads), TOPIC, factory, tick_interval=240.0
    )
    harness.start()
    try:
        harness.run()
    except DataServerDownError:
        pass
    assert armed[0] == 0, "the commit never failed"
    assert harness.run() == "completed"
    retried = harness.cluster.metrics("cf-stream").retried_tuples
    return state_digest(harness.client()), retried


def counter_factory(count_bolt):
    """A bare counting topology: one itemCount delta per raw event."""

    def extract(tup, collector):
        collector.emit((tup["payload"]["item"], 1.0))

    def factory(clock, client_factory, consumer):
        builder = TopologyBuilder("count-stream")
        builder.add_spout(
            "source", lambda: TDAccessSpout(consumer, clock, BATCH)
        )
        builder.add_bolt(
            "extract",
            lambda: FunctionBolt(extract, [("default", ("item", "delta"))]),
        ).grouping("source", ShuffleGrouping(), "raw_action")
        builder.add_bolt(
            "itemCount", lambda: count_bolt(client_factory), parallelism=2
        ).grouping("extract", FieldsGrouping(["item"]))
        return builder.build()

    return factory


def counter_run(payloads, count_bolt, plan=None):
    harness = RecoveryHarness(
        make_tdaccess(payloads),
        TOPIC,
        counter_factory(count_bolt),
        tick_interval=240.0,
    )
    harness.start(fault_plan=list(plan) if plan is not None else None)
    assert harness.run() == "completed"
    client = harness.client()
    items = sorted({p["item"] for p in payloads})
    return sum(client.get(StateKeys.item_count(i), 0.0) for i in items)


def timed_run(payloads, plan=None):
    best = None
    state = None
    harness = None
    for _ in range(REPS if plan is None else 1):
        harness = RecoveryHarness(
            make_tdaccess(payloads),
            TOPIC,
            cf_topology_factory(batch_size=BATCH),
            tick_interval=240.0,
        )
        harness.start(fault_plan=list(plan) if plan is not None else None)
        started = time.perf_counter()
        assert harness.run() == "completed"
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
        state = state_digest(harness.client())
    return best, state, harness


def ledger_rates():
    ledger = DedupLedger()
    ops = [f"src@{i}" for i in range(LEDGER_OPS)]
    started = time.perf_counter()
    for op in ops:
        ledger.observe(op)
    first_seen_rate = LEDGER_OPS / (time.perf_counter() - started)
    recent = ops[-200:] * (LEDGER_OPS // 200)
    started = time.perf_counter()
    for op in recent:
        ledger.observe(op)
    duplicate_rate = len(recent) / (time.perf_counter() - started)
    return first_seen_rate, duplicate_rate, ledger


def test_exactly_once_overhead_and_value():
    payloads = make_payloads(N_MESSAGES)

    clean_s, clean_state, harness = timed_run(payloads)
    ledger_entries = sum(
        s["entries"]
        for s in harness.cluster.exactly_once_stats("cf-stream").values()
    )

    first_rate, dup_rate, ledger = ledger_rates()
    assert ledger.within_bound()

    plan = [
        Fault(3, "duplicate_delivery", ("source", 2 * BATCH)),
        Fault(6, "duplicate_delivery", ("source", 2 * BATCH)),
        Fault(9, "duplicate_delivery", ("source", 4 * BATCH)),
    ]
    replay_s, replay_state, replay_harness = timed_run(payloads, plan=plan)
    dedup_hits = sum(
        s["dedup_hits"]
        for s in replay_harness.cluster.exactly_once_stats(
            "cf-stream"
        ).values()
    )
    assert dedup_hits > 0
    assert replay_state == clean_state  # exactly-once: replays invisible

    counter_clean = counter_run(payloads, ItemCountBolt)
    assert counter_clean == float(N_MESSAGES)  # one +1 per raw event
    # without failures the naive reference agrees
    assert counter_run(payloads, NaiveCountBolt) == counter_clean
    counter_exact = counter_run(payloads, ItemCountBolt, plan=plan)
    counter_naive = counter_run(payloads, NaiveCountBolt, plan=plan)
    assert counter_exact == counter_clean  # replays invisible to counters
    assert counter_naive > counter_clean  # at-least-once double-counts
    inflation = (counter_naive - counter_clean) / counter_clean * 100.0

    failed_state, retried = failed_commit_run(payloads)
    assert retried > 0
    assert failed_state == clean_state  # the retried wave repairs it

    lines = [
        f"Exactly-once layer: overhead and value ({N_MESSAGES} events, "
        f"batch {BATCH}, best of {REPS})",
        "",
        "steady state (clean stream)",
        f"{'CF topology (ledger + journal)':>34}: {clean_s * 1e3:8.1f} ms",
        f"{'ledger entries at end of run':>34}: {ledger_entries:8d}"
        "  (bounded by retain_depth per task)",
        "",
        f"dedup ledger microbenchmark ({LEDGER_OPS} sequential ids)",
        f"{'first-seen observe':>34}: {first_rate / 1e6:8.2f} M ops/s",
        f"{'duplicate observe':>34}: {dup_rate / 1e6:8.2f} M ops/s",
        f"{'offsets retained':>34}: {ledger.offsets_retained():8d}"
        f"  (retain_depth {ledger.retain_depth})",
        "",
        "under replay (3 duplicate-delivery faults, same stream)",
        f"{'CF topology, exactly-once':>34}: {replay_s * 1e3:8.1f} ms, "
        f"{dedup_hits} replays suppressed, state == clean run",
        f"{'counter topology, exactly-once':>34}: {counter_exact:8.0f} events "
        f"counted (== {N_MESSAGES} sent)",
        f"{'plain at-least-once counter bolt':>34}: {counter_naive:8.0f} events "
        f"counted ({inflation:+.1f}% silent inflation)",
        "",
        "failed commit, no rewind (one userHistory commit raises)",
        f"{'CF topology, retried wave':>34}: {retried:8d} tuples retried, "
        "state == clean run",
    ]
    report("exactly_once", "\n".join(lines))
